import math
import random
from fractions import Fraction

import pytest

from pathmn import (
    GuardError,
    ParseError,
    PartialPermutation,
    atomic_schur,
    char_eval,
    char_eval_direct,
    character_table,
    coefficient_polynomiality,
    partitions_of,
    skew_mn,
    support_check,
    syt_count,
    z_mu,
)

A7 = PartialPermutation(7, (1, 4, 5, 6, 7), (2, 5, 6, 4, 7))

A7_EXPANSION = {
    (7,): 2,
    (6, 1): 1,
    (5, 2): -1,
    (5, 1, 1): -1,
    (4, 3): 3,
    (4, 2, 1): -2,
    (4, 1, 1, 1): 2,
    (3, 3, 1): 1,
    (3, 2, 2): -1,
    (3, 1, 1, 1, 1): 1,
    (2, 2, 2, 1): 1,
    (2, 2, 1, 1, 1): -1,
    (2, 1, 1, 1, 1, 1): -1,
}


def random_pp(rng, n):
    k = rng.randrange(0, n + 1)
    I = tuple(sorted(rng.sample(range(1, n + 1), k)))
    J = tuple(rng.sample(range(1, n + 1), k))
    return PartialPermutation(n, I, J)


def test_atomic_schur_worked_example():
    exp = atomic_schur(A7)
    assert exp.degree == 7
    assert dict(exp.items()) == {
        lam: Fraction(c) for lam, c in A7_EXPANSION.items()
    }


def test_atomic_schur_empty_pp():
    exp = atomic_schur(PartialPermutation(5, (), ()))
    assert dict(exp.items()) == {(5,): Fraction(120)}
    exp0 = atomic_schur(PartialPermutation(0, (), ()))
    assert dict(exp0.items()) == {(): Fraction(1)}


def test_atomic_schur_single_edge():
    exp = atomic_schur(PartialPermutation(4, (1,), (2,)))
    assert dict(exp.items()) == {(4,): Fraction(6), (3, 1): Fraction(-2)}


def test_char_eval_values():
    assert char_eval((4, 3), A7) == 3
    assert char_eval((7,), A7) == 2
    assert char_eval((2, 2, 1, 1, 1), A7) == -1
    assert char_eval((1,) * 7, A7) == 0
    with pytest.raises(ParseError):
        char_eval((3, 1), A7)


def test_char_eval_empty_pp():
    for n in range(7):
        pp = PartialPermutation(n, (), ())
        for lam in partitions_of(n):
            expect = math.factorial(n) if lam == (n,) or n == 0 else 0
            assert char_eval(lam, pp) == expect


def test_char_eval_direct_agrees():
    for lam in partitions_of(7):
        assert char_eval_direct(lam, A7) == char_eval(lam, A7)
    rng = random.Random(20260817)
    for _ in range(6):
        pp = random_pp(rng, 6)
        for lam in partitions_of(6):
            assert char_eval_direct(lam, pp) == char_eval(lam, pp)


def test_character_table_small():
    t0 = character_table(0)
    assert t0.shapes == ((),)
    assert t0.value((), ()) == 1
    t1 = character_table(1)
    assert t1.value((1,), (1,)) == 1
    assert t1.to_csv() == "lambda\\mu,[1]\n[1],1\n"


def test_character_table_rows_and_columns():
    for n in range(1, 8):
        t = character_table(n)
        for mu in t.shapes:
            assert t.value((n,), mu) == 1
            assert t.value((1,) * n, mu) == (-1) ** (n - len(mu))
        for lam in t.shapes:
            assert t.value(lam, (1,) * n) == syt_count(lam)


def test_character_table_orthogonality():
    for n in range(1, 8):
        t = character_table(n)
        for lam in t.shapes:
            for nu in t.shapes:
                inner = sum(
                    Fraction(t.value(lam, mu) * t.value(nu, mu), z_mu(mu))
                    for mu in t.shapes
                )
                assert inner == (1 if lam == nu else 0)


def test_character_table_kronecker_coefficients():
    # products of irreducible characters decompose with nonnegative
    # integer multiplicities, and the first-row bound holds
    for n in range(1, 7):
        t = character_table(n)
        shapes = t.shapes
        for lam in shapes:
            for mu in shapes:
                for nu in shapes:
                    g = sum(
                        Fraction(
                            t.value(lam, rho) * t.value(mu, rho) * t.value(nu, rho),
                            z_mu(rho),
                        )
                        for rho in shapes
                    )
                    assert g.denominator == 1 and g >= 0
                    if n - nu[0] > (n - lam[0]) + (n - mu[0]):
                        assert g == 0


def test_character_table_csv():
    assert character_table(3).to_csv() == (
        'lambda\\mu,[3],"[2,1]","[1,1,1]"\n'
        "[3],1,1,1\n"
        '"[2,1]",-1,0,2\n'
        '"[1,1,1]",1,-1,1\n'
    )


def test_character_table_matches_skew_mn():
    # the power-sum columns agree entry by entry with the ribbon recursion,
    # and every entry is a plain int (so the table serializes to JSON)
    for n in range(10):
        t = character_table(n)
        for lam in t.shapes:
            for mu in t.shapes:
                value = t.value(lam, mu)
                assert type(value) is int
                assert value == skew_mn(lam, mu)


def test_character_table_guards():
    with pytest.raises(GuardError):
        character_table(21)
    with pytest.raises(ParseError):
        character_table(-1)


def test_support_check():
    assert support_check(atomic_schur(A7), 7, A7.k)
    from pathmn import SCHUR, SymExpansion

    bad = SymExpansion(SCHUR, 2, {(1, 1): Fraction(1)})
    assert not support_check(bad, 2, 0)
    empty = atomic_schur(PartialPermutation(3, (), ()))
    assert support_check(empty, 3, 0)
    with pytest.raises(ParseError):
        support_check(atomic_schur(A7), 6, 2)


def test_atomic_schur_relabeling_invariance():
    rng = random.Random(7117)
    for _ in range(60):
        n = rng.randrange(1, 8)
        pp = random_pp(rng, n)
        w = list(range(1, n + 1))
        rng.shuffle(w)
        relabeled = PartialPermutation(
            n,
            tuple(w[i - 1] for i in pp.I),
            tuple(w[j - 1] for j in pp.J),
        ).canonical()
        assert dict(atomic_schur(relabeled).items()) == dict(atomic_schur(pp).items())


def test_atomic_schur_top_coefficient():
    rng = random.Random(424242)
    for _ in range(40):
        n = rng.randrange(1, 9)
        pp = random_pp(rng, n)
        exp = atomic_schur(pp)
        terms = dict(exp.items())
        assert terms.get((n,), 0) == math.factorial(n - pp.k)
        assert support_check(exp, n, pp.k)


def test_coefficient_polynomiality_single_edge():
    pp = PartialPermutation(2, (1,), (2,))
    rep = coefficient_polynomiality(pp, (), range(4, 9))
    assert rep.is_polynomial
    assert rep.diff_order == 2
    assert all(d == 0 for d in rep.final_differences)
    rep1 = coefficient_polynomiality(pp, (1,), range(4, 9))
    assert rep1.is_polynomial
    assert rep1.diff_order == 1
    assert set(rep1.c_values) == {Fraction(-1)}
    rep2 = coefficient_polynomiality(pp, (2,), range(4, 9))
    assert rep2.diff_order == 0
    assert set(rep2.c_values) == {Fraction(0)}
    assert rep2.is_polynomial


def test_coefficient_polynomiality_three_cycle():
    pp = PartialPermutation(3, (1, 2, 3), (2, 3, 1))
    for lam in [(), (1,), (2,), (1, 1), (3,), (2, 1)]:
        rep = coefficient_polynomiality(pp, lam, range(6, 12))
        assert rep.is_polynomial


def test_coefficient_polynomiality_errors():
    pp = PartialPermutation(2, (1,), (2,))
    with pytest.raises(ParseError):
        coefficient_polynomiality(PartialPermutation(9, (5,), (7,)), (1,), range(4, 9))
    with pytest.raises(ParseError):
        coefficient_polynomiality(pp, (1,), [4, 6, 8])
    with pytest.raises(ParseError):
        coefficient_polynomiality(pp, (1,), range(1, 8))
    with pytest.raises(ParseError):
        coefficient_polynomiality(pp, (), range(4, 6))
