"""Property tests on seeded random partial permutations (Hypothesis, derandomized)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pathmn import PartialPermutation, atomic_schur, brute_atomic, char_eval, power_to_schur

# the same examples on every run, none saved to disk, so tier-1 stays deterministic
SEEDED = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def partial_perms(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n))
    sources = draw(st.permutations(range(1, n + 1)))[:k]
    targets = draw(st.permutations(range(1, n + 1)))[:k]
    return PartialPermutation(n, tuple(sources), tuple(targets))


@SEEDED
@given(partial_perms())
def test_atomic_schur_matches_brute_sum(pp):
    assert atomic_schur(pp) == power_to_schur(brute_atomic(pp))


@SEEDED
@given(st.data())
def test_relabelling_leaves_the_atomic_expansion_unchanged(data):
    pp = data.draw(partial_perms())
    sigma = [0, *data.draw(st.permutations(range(1, pp.n + 1)))]
    moved = PartialPermutation(pp.n, tuple(sigma[i] for i in pp.I), tuple(sigma[j] for j in pp.J))
    expansion = atomic_schur(pp)
    assert atomic_schur(moved) == expansion
    assert all(char_eval(lam, moved) == c for lam, c in expansion.terms.items())
