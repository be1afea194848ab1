"""Property tests on seeded random partial permutations (Hypothesis, derandomized)."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmn import (
    SCHUR,
    IndicatorTerm,
    PartialPermutation,
    SymExpansion,
    atomic_schur,
    brute_atomic,
    char_eval,
    decompose,
    embed,
    make_statistic,
    pack,
    power_to_schur,
    symmetrize,
)
from pathmn.errors import ParseError, int_text, read_int
from brute import components_type

# the same examples on every run, none saved to disk, so tier-1 stays deterministic
SEEDED = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def partial_perms(draw, max_n=8, max_k=None):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n if max_k is None else min(n, max_k)))
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


@SEEDED
@given(st.data())
def test_decompose_matches_union_find_at_large_n(data):
    # k <= 8 pairs on a pool of at most 2k vertices anywhere in [1..n]: paths,
    # cycles and many isolated vertices
    n = data.draw(st.integers(1, 1200))
    k = data.draw(st.integers(0, min(8, n)))
    size = data.draw(st.integers(k, min(2 * k, n)))
    pool = data.draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
    I = data.draw(st.permutations(pool))[:k]
    J = data.draw(st.permutations(pool))[:k]
    pp = PartialPermutation(n, tuple(I), tuple(J))
    assert decompose(pp) == components_type(n, pp.pairs())


@SEEDED
@given(st.data())
def test_symmetrize_is_the_average_of_the_atomic_expansions(data):
    # sum (num/den)·atomic_schur(term) / n! term by term, with no grouping by graph type
    n = data.draw(st.integers(1, 7))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    terms = [
        IndicatorTerm(data.draw(coeffs), embed(data.draw(partial_perms(max_n=n, max_k=3)), n))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    f = make_statistic(n, terms)
    expected = SymExpansion(SCHUR, n, {})
    for pairs, num in f.nums:
        I, J = tuple(i for i, _ in pairs), tuple(j for _, j in pairs)
        expected += atomic_schur(PartialPermutation(n, I, J)).scale(Fraction(num, f.den))
    assert symmetrize(f).schur == expected.scale(Fraction(1, math.factorial(n)))


@settings(SEEDED, max_examples=10)
@given(partial_perms(max_k=4), st.integers(1600, 2500))
def test_json_round_trip_with_huge_coefficients(pp, n):
    # a packed pair holds r <= 8 vertices, so the top coefficient carries
    # (n - r)!, past CPython's 4300-digit int<->str limit, pinned here
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        e = atomic_schur(embed(pack(pp)[0], n))
        assert max(abs(c.numerator) for c in e.terms.values()) > 10**4300
        assert SymExpansion.from_json(e.to_json()) == e
        e.render()
        e.to_csv()
    finally:
        set_limit(old)


@settings(SEEDED, max_examples=40)
@given(st.integers(-(10**6000), 10**6000) | st.integers(-(2**70), 2**70), st.sampled_from([4300, 0]))
def test_integer_codec_round_trip(v, limit):
    # the writer prints any int in full and the reader reads it back exactly,
    # under CPython's default int<->str digit limit and with the limit lifted
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(limit)
    try:
        text = int_text(v)
        assert read_int(text, size=False) == v
        if -sys.maxsize - 1 <= v <= sys.maxsize:
            assert read_int(text) == v
        else:
            with pytest.raises(ParseError, match="must fit an index-sized int"):
                read_int(text)
    finally:
        set_limit(old)
