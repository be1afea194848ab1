import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from pathmn import (
    GuardError,
    IndicatorTerm,
    ParseError,
    PartialPermutation,
    builtin,
    class_eval,
    decompose,
    eval_pointwise,
    make_statistic,
    multiplicities,
    partitions_of,
    stat_from_json,
    stat_product,
    stat_to_json,
    symmetrize,
    variance_on_class,
)
from brute import all_perms, class_averages, cycle_type_of, exc_of, maj_of, merge_pairs


def mult(mu, i):
    return multiplicities(mu).get(i, 0)


def test_builtin_exc_terms():
    s = builtin("exc", 4)
    assert s.n == 4
    assert [(t.coeff, t.pp.I, t.pp.J) for t in s.terms] == [
        (Fraction(1), (1,), (2,)),
        (Fraction(1), (1,), (3,)),
        (Fraction(1), (1,), (4,)),
        (Fraction(1), (2,), (3,)),
        (Fraction(1), (2,), (4,)),
        (Fraction(1), (3,), (4,)),
    ]


def test_builtin_maj_terms():
    s = builtin("maj", 3)
    assert [(t.coeff, t.pp.I, t.pp.J) for t in s.terms] == [
        (Fraction(1), (1, 2), (2, 1)),
        (Fraction(1), (1, 2), (3, 1)),
        (Fraction(1), (1, 2), (3, 2)),
        (Fraction(2), (2, 3), (2, 1)),
        (Fraction(2), (2, 3), (3, 1)),
        (Fraction(2), (2, 3), (3, 2)),
    ]


def test_builtin_degenerate_and_errors():
    assert builtin("exc", 1).terms == ()
    assert builtin("maj", 1).terms == ()
    with pytest.raises(ParseError):
        builtin("des", 5)
    with pytest.raises(ParseError):
        builtin("exc", 0)


def test_pointwise_matches_brute():
    for n in range(1, 7):
        exc = builtin("exc", n)
        maj = builtin("maj", n)
        for w in all_perms(n):
            assert eval_pointwise(exc, w) == exc_of(w)
            assert eval_pointwise(maj, w) == maj_of(w)


def test_eval_pointwise_validation():
    f = builtin("exc", 3)
    with pytest.raises(ParseError):
        eval_pointwise(f, (1, 1, 2))
    with pytest.raises(ParseError):
        eval_pointwise(f, (1, 2))


def test_make_statistic_merges_terms():
    pp = PartialPermutation(4, (1, 2), (3, 4))
    f = make_statistic(
        4,
        [IndicatorTerm(Fraction(1, 2), pp), IndicatorTerm(Fraction(1, 3), pp)],
    )
    assert len(f.terms) == 1
    assert f.terms[0].coeff == Fraction(5, 6)
    g = make_statistic(
        4, [IndicatorTerm(Fraction(2), pp), IndicatorTerm(Fraction(-2), pp)]
    )
    assert g.terms == ()


def test_stat_product_census():
    e5 = builtin("exc", 5)
    sq = stat_product(e5, e5)
    assert len(sq.terms) == 35
    census = Counter()
    for t in sq.terms:
        gt = decompose(t.pp)
        census[(gt.path_type, gt.cycle_type, t.coeff)] += 1
    assert census == {
        ((2, 1, 1, 1), (), Fraction(1)): 10,
        ((2, 2, 1), (), Fraction(2)): 15,
        ((3, 1, 1), (), Fraction(2)): 10,
    }


def test_stat_product_pointwise():
    exc = builtin("exc", 4)
    maj = builtin("maj", 4)
    sq = stat_product(exc, exc)
    mixed = stat_product(exc, maj)
    for w in all_perms(4):
        assert eval_pointwise(sq, w) == exc_of(w) ** 2
        assert eval_pointwise(mixed, w) == exc_of(w) * maj_of(w)


def test_stat_product_identity_and_errors():
    e5 = builtin("exc", 5)
    ident = make_statistic(5, [IndicatorTerm(Fraction(1), PartialPermutation(5, (), ()))])
    assert stat_product(ident, e5) == e5
    with pytest.raises(ParseError):
        stat_product(builtin("exc", 4), builtin("exc", 5))
    with pytest.raises(GuardError):
        stat_product(builtin("exc", 13), builtin("exc", 13))


def pairwise_product(f, g):
    """Reference product: one merge_pairs per pair of terms."""
    terms = []
    for a in f.terms:
        for b in g.terms:
            pairs = merge_pairs(a.pp.pairs(), b.pp.pairs())
            if pairs is not None:
                pp = PartialPermutation(f.n, [i for i, _ in pairs], [j for _, j in pairs])
                terms.append(IndicatorTerm(a.coeff * b.coeff, pp))
    return make_statistic(f.n, terms)


def one_term(n, I, J, c=1):
    return make_statistic(n, [IndicatorTerm(Fraction(c), PartialPermutation(n, I, J))])


def test_stat_product_of_single_terms():
    a = one_term(6, (1,), (2,))
    b = one_term(6, (3,), (4,), c=3)
    assert stat_product(a, b) == one_term(6, (1, 3), (2, 4), c=3)
    # one source cannot go to two targets, one target cannot have two sources
    assert stat_product(a, one_term(6, (1,), (3,))).terms == ()
    assert stat_product(a, one_term(6, (3,), (2,))).terms == ()
    # repeating a constraint is harmless
    assert stat_product(a, a) == a
    # zero coefficients drop out
    assert stat_product(a, one_term(6, (3,), (4,), c=0)).terms == ()


def test_stat_product_of_single_terms_commutes_and_associates():
    rng = random.Random(11)

    def small(rng):
        k = rng.randrange(0, 4)
        I = tuple(sorted(rng.sample(range(1, 7), k)))
        J = tuple(rng.sample(range(1, 7), k))
        return one_term(6, I, J, c=rng.randrange(1, 4))

    for _ in range(150):
        a, b, c = small(rng), small(rng), small(rng)
        ab = stat_product(a, b)
        assert ab == stat_product(b, a) == pairwise_product(a, b)
        assert stat_product(ab, c) == stat_product(a, stat_product(b, c))


def random_statistic(rng, n, size):
    coeffs = [Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 3, 5)]
    terms = []
    for _ in range(size):
        k = rng.randrange(0, min(n, 3) + 1)
        I = tuple(rng.sample(range(1, n + 1), k))
        J = tuple(rng.sample(range(1, n + 1), k))
        terms.append(IndicatorTerm(rng.choice(coeffs), PartialPermutation(n, I, J)))
    return make_statistic(n, terms)


def test_stat_product_matches_pairwise_merges():
    rng = random.Random(3)
    for n in range(1, 8):
        for _ in range(12):
            f = random_statistic(rng, n, rng.randrange(0, 10))
            g = random_statistic(rng, n, rng.randrange(0, 10))
            assert stat_product(f, g) == pairwise_product(f, g)
    for n in range(2, 7):
        exc, maj = builtin("exc", n), builtin("maj", n)
        assert stat_product(exc, maj) == pairwise_product(exc, maj)
        assert stat_product(maj, maj) == pairwise_product(maj, maj)


def test_stat_product_edge_cases():
    def stat(n, *terms):
        return make_statistic(
            n, [IndicatorTerm(Fraction(c), PartialPermutation(n, I, J)) for c, I, J in terms]
        )

    # (x + y)(y - x) with x, y compatible: the two xy terms cancel to zero
    f = stat(4, (1, (1,), (2,)), (1, (2,), (3,)))
    g = stat(4, (1, (2,), (3,)), (-1, (1,), (2,)))
    prod = stat_product(f, g)
    assert prod == pairwise_product(f, g)
    assert prod == stat(4, (-1, (1,), (2,)), (1, (2,), (3,)))
    # the empty term is the constant function
    const = stat(4, (Fraction(-2, 3), (), ()))
    mixed = stat(4, (Fraction(1, 2), (3, 1), (1, 4)), (Fraction(5, 7), (2,), (2,)))
    assert stat_product(const, mixed) == pairwise_product(const, mixed)
    assert stat_product(mixed, const) == stat(
        4, (Fraction(-1, 3), (1, 3), (4, 1)), (Fraction(-10, 21), (2,), (2,))
    )
    assert stat_product(const, const) == stat(4, (Fraction(4, 9), (), ()))
    # n = 1: the only indicators are the constant and 1_{(1),(1)}
    one = stat(1, (Fraction(3, 2), (), ()), (Fraction(-1, 4), (1,), (1,)))
    assert stat_product(one, one) == pairwise_product(one, one)
    assert stat_product(one, one) == stat(
        1, (Fraction(9, 4), (), ()), (Fraction(-11, 16), (1,), (1,))
    )
    empty = stat(3)
    assert stat_product(empty, builtin("exc", 3)).terms == ()


def test_stat_product_builds_one_term_per_result(monkeypatch):
    maj6 = builtin("maj", 6)
    built = []
    validate = PartialPermutation.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(PartialPermutation, "__post_init__", counting)
    stat_product.cache_clear()
    result = stat_product(maj6, maj6)
    assert len(built) == len(result.terms) > 0


@pytest.mark.parametrize("n", [30, 40])
def test_exc_class_values_at_large_n(n):
    # the mean of exc on a class is half its non-fixed points; bounded chains
    # answer in milliseconds, where full columns would expand p_{1^n}
    cf = symmetrize(builtin("exc", n))
    for mu in [(1,) * n, (2,) * (n // 2), (n,), (n - 1, 1)]:
        value = class_eval(cf, mu)
        assert type(value) is Fraction
        assert value == Fraction(n - mu.count(1), 2)


def test_symmetrize_known_expansions():
    assert dict(symmetrize(builtin("exc", 6)).schur.items()) == {
        (6,): Fraction(5, 2),
        (5, 1): Fraction(-1, 2),
    }
    assert dict(symmetrize(builtin("maj", 6)).schur.items()) == {
        (6,): Fraction(15, 2),
        (5, 1): Fraction(-1, 2),
        (4, 1, 1): Fraction(-1, 2),
    }
    e7 = builtin("exc", 7)
    assert dict(symmetrize(stat_product(e7, e7)).schur.items()) == {
        (7,): Fraction(29, 3),
        (6, 1): Fraction(-17, 6),
        (5, 2): Fraction(1, 6),
        (5, 1, 1): Fraction(1, 3),
    }


def test_symmetrize_matches_average_over_classes():
    # the symmetrized function is (1/n!) sum_w f(w) p_{type(w)}
    from pathmn import POWER, SymExpansion, power_to_schur

    for n in range(1, 7):
        for name, value in [("exc", exc_of), ("maj", maj_of)]:
            f = builtin(name, n)
            totals = {}
            for w in all_perms(n):
                v = value(w)
                if v:
                    ct = cycle_type_of(w)
                    totals[ct] = totals.get(ct, 0) + v
            pexp = SymExpansion(
                POWER,
                n,
                {ct: Fraction(c, math.factorial(n)) for ct, c in totals.items()},
            )
            assert dict(symmetrize(f).schur.items()) == dict(
                power_to_schur(pexp).items()
            )


def test_class_eval_closed_forms():
    for n in range(1, 7):
        exc = symmetrize(builtin("exc", n))
        maj = symmetrize(builtin("maj", n))
        brute_maj = class_averages(n, maj_of)
        for mu in partitions_of(n):
            m1 = mult(mu, 1)
            m2 = mult(mu, 2)
            assert class_eval(exc, mu) == Fraction(n - m1, 2)
            assert class_eval(maj, mu) == brute_maj[mu]
            assert class_eval(maj, mu) == (
                Fraction(n * (n - 1), 4)
                - Fraction(m1 * m1, 4)
                + Fraction(m2, 2)
                + Fraction(m1, 4)
            )
        assert class_eval(exc, (1,) * n) == 0
    with pytest.raises(ParseError):
        class_eval(symmetrize(builtin("exc", 4)), (3, 2))


def test_class_eval_part_count_guard():
    # _p_to_schur recurses once per part: 500 parts died with RecursionError
    def fixes_one(n):
        return symmetrize(make_statistic(n, [IndicatorTerm(1, PartialPermutation(n, (1,), (1,)))]))

    assert class_eval(fixes_one(400), (1,) * 400) == 1
    with pytest.raises(GuardError, match="number of parts = 500 exceeds the guard limit 400"):
        class_eval(fixes_one(500), (1,) * 500)


def test_class_eval_exc_squared_closed_form():
    for n in range(1, 8):
        f = builtin("exc", n)
        cf = symmetrize(stat_product(f, f))
        for mu in partitions_of(n):
            m1 = mult(mu, 1)
            m2 = mult(mu, 2)
            expect = Fraction(
                3 * m1 * m1 - 6 * m1 * n + 3 * n * n + n - m1 - 2 * m2, 12
            )
            assert class_eval(cf, mu) == expect


def test_variance_on_class_exc():
    for n in range(1, 8):
        f = builtin("exc", n)
        for mu in partitions_of(n):
            m1 = mult(mu, 1)
            m2 = mult(mu, 2)
            assert variance_on_class(f, mu) == Fraction(n - m1 - 2 * m2, 12)
        assert variance_on_class(f, (1,) * n) == 0


def test_variance_on_class_matches_brute():
    for n in range(1, 6):
        for name, value in [("exc", exc_of), ("maj", maj_of)]:
            f = builtin(name, n)
            means = class_averages(n, value)
            seconds = class_averages(n, lambda w: value(w) ** 2)
            for mu in partitions_of(n):
                assert variance_on_class(f, mu) == seconds[mu] - means[mu] ** 2


def test_maj_squared_class_averages():
    for n in range(1, 6):
        f = builtin("maj", n)
        sq = symmetrize(stat_product(f, f))
        brute = class_averages(n, lambda w: maj_of(w) ** 2)
        for mu in partitions_of(n):
            assert class_eval(sq, mu) == brute[mu]


def test_constant_statistic():
    f = make_statistic(
        5, [IndicatorTerm(Fraction(7, 3), PartialPermutation(5, (), ()))]
    )
    assert dict(symmetrize(f).schur.items()) == {(5,): Fraction(7, 3)}
    for mu in partitions_of(5):
        assert class_eval(symmetrize(f), mu) == Fraction(7, 3)
        assert variance_on_class(f, mu) == 0


def test_json_round_trip():
    f = make_statistic(2, [IndicatorTerm(Fraction(1), PartialPermutation(2, (1,), (2,)))])
    assert stat_to_json(f) == '{"n": 2, "terms": [{"coeff": "1/1", "I": [1], "J": [2]}]}'
    g = make_statistic(
        6,
        [
            IndicatorTerm(Fraction(1, 3), PartialPermutation(6, (2, 4), (4, 1))),
            IndicatorTerm(Fraction(-2), PartialPermutation(6, (5,), (5,))),
        ],
    )
    assert stat_from_json(stat_to_json(g)) == g
    with pytest.raises(ParseError):
        stat_from_json('{"n": 2}')
    with pytest.raises(ParseError):
        stat_from_json('{"terms": []}')
