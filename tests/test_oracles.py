import itertools
from collections import Counter
from fractions import Fraction

import pytest

import pathmn.statistics
from pathmn import (
    GuardError,
    ORACLE_CHECKS,
    OracleMismatch,
    ParseError,
    PartialPermutation,
    alternant_char,
    array_weight,
    atomic_schur,
    brute_atomic,
    clear_caches,
    partitions_of,
    path_power_to_schur,
    power_to_schur,
    skew_mn,
    standard_word_arrays,
    swap_unstable,
    unstable_pairs,
    word_array_path_expansion,
)

EXAMPLE_MU = (3, 3, 3, 3, 2, 2, 2, 1, 1)
EXAMPLE_WORDS = ((), (), (3, 7), (8, 1, 4), (), (9, 5, 2, 6))


def test_brute_atomic_empty_pp():
    exp = brute_atomic(PartialPermutation(3, (), ()))
    assert exp.basis == "power"
    assert dict(exp.items()) == {
        (3,): Fraction(2),
        (2, 1): Fraction(3),
        (1, 1, 1): Fraction(1),
    }


def test_brute_atomic_full_permutation():
    pp = PartialPermutation(4, (1, 2, 3, 4), (2, 1, 4, 3))
    assert dict(brute_atomic(pp).items()) == {(2, 2): Fraction(1)}


def test_brute_atomic_matches_fast_route():
    a7 = PartialPermutation(7, (1, 4, 5, 6, 7), (2, 5, 6, 4, 7))
    via_brute = power_to_schur(brute_atomic(a7))
    assert dict(via_brute.items()) == dict(atomic_schur(a7).items())


def test_brute_atomic_guard():
    with pytest.raises(GuardError):
        brute_atomic(PartialPermutation(10, (), ()))


def test_alternant_values():
    assert alternant_char((4, 3, 1), (3, 2, 2, 1)) == -1
    assert alternant_char((2, 1), (1, 1, 1)) == 2
    for n in range(1, 6):
        for mu in partitions_of(n):
            for alpha in set(itertools.permutations(mu)):
                assert alternant_char((n,), alpha) == 1


def test_alternant_matches_skew_mn():
    for n in range(6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for alpha in set(itertools.permutations(mu)):
                    assert alternant_char(lam, alpha) == skew_mn(lam, alpha)


def test_alternant_size_mismatch():
    with pytest.raises(ParseError):
        alternant_char((3, 1), (2, 1))


def test_standard_word_arrays_counts():
    def rising(n, r):
        out = 1
        for i in range(r):
            out *= n + i
        return out

    for mu, N in [((2, 1), 2), ((1, 1, 1), 2), ((3, 2), 3), ((2,), 4)]:
        arrays = list(standard_word_arrays(mu, N))
        assert len(arrays) == rising(N, len(mu))
        assert len(set(arrays)) == len(arrays)
        for words in arrays:
            assert len(words) == N
            letters = [c for w in words for c in w]
            assert sorted(letters) == list(range(1, len(mu) + 1))


def test_array_weight_example():
    assert array_weight(EXAMPLE_WORDS, EXAMPLE_MU) == (5, 4, 8, 9, 1, 8)


def test_unstable_pairs_example():
    ups = unstable_pairs(EXAMPLE_WORDS, EXAMPLE_MU)
    assert len(ups) == 10
    census = Counter((i, j) for i, j, _, _, _ in ups)
    assert census == {
        (1, 3): 1,
        (1, 4): 1,
        (1, 6): 1,
        (3, 4): 2,
        (3, 6): 2,
        (4, 6): 3,
    }
    assert sorted(score for *_, score in ups) == [-4] + [-1] * 6 + [2] * 3


def test_swap_unstable_transposes_weight():
    wt = array_weight(EXAMPLE_WORDS, EXAMPLE_MU)
    before = sorted(c for w in EXAMPLE_WORDS for c in w)
    for pair in unstable_pairs(EXAMPLE_WORDS, EXAMPLE_MU):
        i, j = pair[0], pair[1]
        swapped = swap_unstable(EXAMPLE_WORDS, pair)
        new_wt = array_weight(swapped, EXAMPLE_MU)
        expect = list(wt)
        expect[i - 1], expect[j - 1] = expect[j - 1], expect[i - 1]
        assert new_wt == tuple(expect)
        assert sorted(c for w in swapped for c in w) == before
        assert len(swapped) == len(EXAMPLE_WORDS)


def test_word_array_path_expansion_values():
    assert dict(word_array_path_expansion((1,), 2).items()) == {(1,): Fraction(1)}
    big = word_array_path_expansion((2, 2, 1), 7)
    assert dict(big.items()) == dict(path_power_to_schur((2, 2, 1)).items())


def test_word_array_route_matches_path_route():
    for size in range(5):
        for mu in partitions_of(size):
            expect = dict(path_power_to_schur(mu).items())
            for N in (max(size, 1), size + 1):
                got = dict(word_array_path_expansion(mu, N).items())
                assert got == expect


def test_no_stable_word_array_repeats_a_weight():
    # wt_i = wt_j (i < j) is the instability of the whole words i and j, so
    # the word-array route needs no test of distinct weights after stability
    stable = 0
    for size in range(6):
        for mu in partitions_of(size):
            for words in standard_word_arrays(mu, size):
                if not unstable_pairs(words, mu):
                    weights = array_weight(words, mu)
                    assert len(set(weights)) == len(weights), (mu, words)
                    stable += 1
    assert stable == 258


def test_word_array_guards():
    with pytest.raises(ParseError):
        word_array_path_expansion((2, 1), 2)
    with pytest.raises(GuardError):
        word_array_path_expansion((6,), 6)
    with pytest.raises(GuardError):
        word_array_path_expansion((2,), 9)


def test_census_sweep_checks_every_n_and_catches_a_lost_interleaving(monkeypatch):
    clear_caches()
    assert ORACLE_CHECKS["census"](0) == 0
    assert ORACLE_CHECKS["census"](4) == 28  # exc to exc^3, maj and des to their squares, at n = 1..4
    assert ORACLE_CHECKS["census"](100) == 68  # exc stops at n = 12, maj and des at 8
    # a product that never lets two points coincide loses exc^2's 1 -> 2 at n = 2
    every = pathmn.statistics._merges
    monkeypatch.setattr(pathmn.statistics, "_merges",
                        lambda r, links_a, s, links_b, cap: (x for x in every(r, links_a, s, links_b, cap)
                                                             if x[0] == r + s))
    clear_caches()
    with pytest.raises(OracleMismatch, match=r"exc\^2 at n=2"):
        ORACLE_CHECKS["census"](4)
    monkeypatch.undo()
    # a merge that lets a lone point split a link gives maj^2 terms that are no descents
    steps = pathmn.statistics._steps
    monkeypatch.setattr(pathmn.statistics, "_steps", lambda i, j, r, links_a, s, links_b: steps(i, j, r, (), s, ()))
    clear_caches()
    with pytest.raises(OracleMismatch, match=r"maj\^2 at n=3"):
        ORACLE_CHECKS["census"](4)
    monkeypatch.undo()
    clear_caches()
