"""End-to-end acceptance checks, one test per shipping criterion.

Each test exercises the documented behavior at its stated tolerance and
time budget, and prints a single summary line on success.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from pathmn import (
    GraphType,
    GuardError,
    PartialPermutation,
    alternant_char,
    atomic_schur,
    brute_atomic,
    builtin,
    clear_caches,
    coefficient_polynomiality,
    embed,
    frozen_set,
    local_dimension,
    mult_by_power,
    multiplicities,
    partitions_of,
    path_power_to_schur,
    power_to_schur,
    pp_from_graph_type,
    skew_mn,
    stable_expansion,
    stat_product,
    support_check,
    symmetrize,
    variance_on_class,
    word_array_path_expansion,
)
from pathmn.oracles import packed_pairs
from brute import all_perms, lis_length


def report(num, elapsed, budget):
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"criterion {num} PASS ({elapsed:.3f}s < {budget}s)")


def clean(d):
    return {lam: Fraction(c) for lam, c in d.items() if c}


def random_pp(rng, n):
    k = rng.randrange(0, n + 1)
    I = tuple(sorted(rng.sample(range(1, n + 1), k)))
    J = tuple(rng.sample(range(1, n + 1), k))
    return PartialPermutation(n, I, J)


def test_criterion_01_single_character_value():
    start = time.perf_counter()
    assert skew_mn((4, 3, 1), (3, 2, 2, 1)) == -1
    assert alternant_char((4, 3, 1), (3, 2, 2, 1)) == -1
    report(1, time.perf_counter() - start, 1.0)


def test_criterion_02_path_power_expansions():
    start = time.perf_counter()
    assert dict(path_power_to_schur((3, 2, 1)).items()) == {
        (6,): Fraction(6),
        (5, 1): Fraction(-4),
        (4, 1, 1): Fraction(2),
        (3, 3): Fraction(2),
        (3, 2, 1): Fraction(-1),
    }
    assert dict(path_power_to_schur(()).items()) == {(): Fraction(1)}
    for n in range(1, 9):
        assert dict(path_power_to_schur((1,) * n).items()) == {
            (n,): Fraction(math.factorial(n))
        }
    report(2, time.perf_counter() - start, 1.0)


def test_criterion_03_atomic_worked_example():
    start = time.perf_counter()
    pp = PartialPermutation(7, (1, 4, 5, 6, 7), (2, 5, 6, 4, 7))
    assert dict(atomic_schur(pp).items()) == {
        (7,): Fraction(2),
        (6, 1): Fraction(1),
        (5, 2): Fraction(-1),
        (5, 1, 1): Fraction(-1),
        (4, 3): Fraction(3),
        (4, 2, 1): Fraction(-2),
        (4, 1, 1, 1): Fraction(2),
        (3, 3, 1): Fraction(1),
        (3, 2, 2): Fraction(-1),
        (3, 1, 1, 1, 1): Fraction(1),
        (2, 2, 2, 1): Fraction(1),
        (2, 2, 1, 1, 1): Fraction(-1),
        (2, 1, 1, 1, 1, 1): Fraction(-1),
    }
    report(3, time.perf_counter() - start, 1.0)


def test_criterion_04_stable_families():
    start = time.perf_counter()
    f = math.factorial
    for n in range(5, 13):
        fam1 = clean({(n,): (n - 1) * f(n - 2), (n - 1, 1): -f(n - 2)})
        fam2 = clean(
            {
                (n,): (n - 2) * f(n - 3),
                (n - 1, 1): -f(n - 3),
                (n - 2, 2): -f(n - 3),
                (n - 2, 1, 1): f(n - 3),
            }
        )
        fam3 = clean(
            {
                (n,): 2 * f(n - 4) * math.comb(n - 2, 2),
                (n - 1, 1): -2 * f(n - 4) * (n - 3),
                (n - 2, 2): 2 * f(n - 4),
            }
        )
        fam4 = clean(
            {
                (n,): (n - 2) * f(n - 3),
                (n - 1, 1): (n - 3) * f(n - 3),
                (n - 2, 2): -f(n - 3),
                (n - 2, 1, 1): -f(n - 3),
            }
        )
        fam5 = clean(
            {(n,): f(n - 2), (n - 2, 2): f(n - 2), (n - 2, 1, 1): -f(n - 2)}
        )
        assert dict(stable_expansion((2,), n).items()) == fam1
        assert dict(stable_expansion((3,), n).items()) == fam2
        assert dict(stable_expansion((2, 2), n).items()) == fam3
        assert dict(mult_by_power(stable_expansion((2,), n - 1), 1).items()) == fam4
        assert dict(mult_by_power(stable_expansion((), n - 2), 2).items()) == fam5
    report(4, time.perf_counter() - start, 10.0)


def test_criterion_05_symmetrized_statistics():
    start = time.perf_counter()
    for n in range(5, 11):
        exc = builtin("exc", n)
        maj = builtin("maj", n)
        assert dict(symmetrize(exc).schur.items()) == clean(
            {(n,): Fraction(n - 1, 2), (n - 1, 1): Fraction(-1, 2)}
        )
        assert dict(symmetrize(stat_product(exc, exc)).schur.items()) == clean(
            {
                (n,): Fraction(3 * n * n - 5 * n + 4, 12),
                (n - 1, 1): Fraction(-(3 * n - 4), 6),
                (n - 2, 2): Fraction(1, 6),
                (n - 2, 1, 1): Fraction(1, 3),
            }
        )
        assert dict(symmetrize(maj).schur.items()) == clean(
            {
                (n,): Fraction(n * (n - 1), 4),
                (n - 1, 1): Fraction(-1, 2),
                (n - 2, 1, 1): Fraction(-1, 2),
            }
        )
    for n in (8, 9, 10):
        maj = builtin("maj", n)
        got = dict(symmetrize(stat_product(maj, maj)).schur.items())
        assert got == clean(
            {
                (n,): Fraction(9 * n**4 - 14 * n**3 + 15 * n**2 - 10 * n, 144),
                (n - 1, 1): Fraction(-3 * n * n + 3 * n + 8, 12),
                (n - 2, 2): Fraction(7, 6),
                (n - 2, 1, 1): Fraction(-3 * n * n + 3 * n + 8, 12),
                (n - 3, 2, 1): Fraction(7, 6),
                (n - 3, 1, 1, 1): Fraction(1, 2),
                (n - 4, 2, 2): Fraction(1, 2),
                (n - 4, 1, 1, 1, 1): Fraction(1, 2),
            }
        )
    report(5, time.perf_counter() - start, 120.0)


def test_criterion_06_variances():
    start = time.perf_counter()
    for n in range(1, 9):
        exc = builtin("exc", n)
        for mu in partitions_of(n):
            m = multiplicities(mu)
            expect = Fraction(n - m.get(1, 0) - 2 * m.get(2, 0), 12)
            assert variance_on_class(exc, mu) == expect
    maj8 = builtin("maj", 8)
    n = 8
    for mu in partitions_of(8):
        m = multiplicities(mu)
        m1, m2, m3, m4 = (m.get(i, 0) for i in (1, 2, 3, 4))
        expect = (
            -Fraction(m1**3, 36)
            + Fraction(n**3, 36)
            - Fraction(m1**2, 24)
            + Fraction(m2**2, 2)
            + Fraction(n**2, 24)
            + Fraction(5 * m1, 72)
            - Fraction(3 * m2, 4)
            - Fraction(2 * m3, 3)
            - Fraction(m4, 2)
            - Fraction(5 * n, 72)
        )
        assert variance_on_class(maj8, mu) == expect
    report(6, time.perf_counter() - start, 120.0)


def test_criterion_07_route_agreement():
    start = time.perf_counter()
    for pp in packed_pairs(3):
        for n in range(pp.n, 8):
            emb = embed(pp, n)
            via_brute = dict(power_to_schur(brute_atomic(emb)).items())
            assert via_brute == dict(atomic_schur(emb).items())
    for size in range(6):
        for mu in partitions_of(size):
            expect = dict(path_power_to_schur(mu).items())
            for N in (max(size, 1), size + 1):
                assert dict(word_array_path_expansion(mu, N).items()) == expect
    for size in range(7):
        for lam in partitions_of(size):
            for mu in partitions_of(size):
                for alpha in set(itertools.permutations(mu)):
                    assert alternant_char(lam, alpha) == skew_mn(lam, alpha)
    report(7, time.perf_counter() - start, 300.0)


def test_criterion_08_structural_properties():
    start = time.perf_counter()
    rng = random.Random(20260817)
    for _ in range(200):
        n = rng.randrange(1, 9)
        pp = random_pp(rng, n)
        exp = atomic_schur(pp)
        assert support_check(exp, n, pp.k)
        for lam, _ in exp.items():
            assert lam[0] >= n - pp.k
        assert dict(exp.items())[(n,)] == math.factorial(n - pp.k)
    for _ in range(100):
        n = rng.randrange(1, 9)
        pp = random_pp(rng, n)
        w = list(range(1, n + 1))
        rng.shuffle(w)
        relabeled = PartialPermutation(
            n,
            tuple(w[i - 1] for i in pp.I),
            tuple(w[j - 1] for j in pp.J),
        ).canonical()
        assert dict(atomic_schur(relabeled).items()) == dict(atomic_schur(pp).items())
    for n in range(1, 7):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                vals = {
                    skew_mn(lam, alpha) for alpha in set(itertools.permutations(mu))
                }
                assert len(vals) == 1
    for size in range(7):
        for mu in partitions_of(size):
            if any(p == 1 for p in mu):
                continue
            t0 = max(2 * (size - len(mu)), size)
            ref = frozen_set(mu, t0)
            assert frozen_set(mu, t0 + 1) == ref
            assert frozen_set(mu, t0 + 2) == ref
    for k in range(4):
        for path_edges in range(k + 1):
            cycle_edges = k - path_edges
            for qpart in partitions_of(path_edges):
                paths = tuple(sorted((q + 1 for q in qpart), reverse=True))
                for cycles in partitions_of(cycle_edges):
                    pp = pp_from_graph_type(GraphType(paths, cycles), None)
                    assert pp.k == k
                    lo = max(2 * k, pp.n)
                    for size in range(k + 1):
                        for lam in partitions_of(size):
                            rep = coefficient_polynomiality(
                                pp, lam, range(lo, lo + 8)
                            )
                            assert rep.is_polynomial
    report(8, time.perf_counter() - start, 300.0)


def test_criterion_09_local_dimensions():
    start = time.perf_counter()
    for n in range(1, 8):
        lengths = [lis_length(w) for w in all_perms(n)]
        for k in range(n):
            expect = sum(1 for m in lengths if m >= n - k)
            assert local_dimension(n, k) == expect
    report(9, time.perf_counter() - start, 60.0)


def test_criterion_10_scaling():
    big = embed(PartialPermutation(5, (1, 2, 3, 4), (2, 3, 4, 5)), 25)
    clear_caches()
    t0 = time.perf_counter()
    exp = atomic_schur(big)
    big_time = time.perf_counter() - t0
    assert big_time < 5.0
    terms = dict(exp.items())
    assert terms[(25,)] == math.factorial(21)
    assert support_check(exp, 25, 4)
    with pytest.raises(GuardError):
        brute_atomic(big)
    small = embed(PartialPermutation(3, (1, 2), (2, 3)), 9)
    hybrid = []
    for _ in range(15):
        clear_caches()
        t0 = time.perf_counter()
        atomic_schur(small)
        hybrid.append(time.perf_counter() - t0)
    brute = []
    for _ in range(15):
        t0 = time.perf_counter()
        brute_atomic(small)
        brute.append(time.perf_counter() - t0)
    ratio = min(brute) / min(hybrid)
    assert ratio >= 100.0, f"speedup only {ratio:.1f}x"
    print(f"criterion 10 speedup {ratio:.1f}x")
    report(10, big_time, 5.0)
