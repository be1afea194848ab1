import hashlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import pathmn.statistics
from pathmn import (
    GuardError,
    IndicatorTerm,
    ParseError,
    PartialPermutation,
    SymExpansion,
    builtin,
    character_table,
    class_eval,
    clear_caches,
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
    z_mu,
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
    rng = random.Random(5)
    for n in range(1, 7):
        exc = builtin("exc", n)
        maj = builtin("maj", n)
        terms = random_terms(rng, n, 12)
        rand = make_statistic(n, terms)
        for w in all_perms(n):
            assert eval_pointwise(exc, w) == exc_of(w)
            assert eval_pointwise(maj, w) == maj_of(w)
            hits = [t.coeff for t in terms if all(w[i - 1] == j for i, j in t.pp.pairs())]
            assert eval_pointwise(rand, w) == sum(hits, Fraction(0))


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
    assert (f.den, g.den) == (6, 1)


def term(n, c, I, J):
    return IndicatorTerm(Fraction(c), PartialPermutation(n, I, J))


@pytest.mark.parametrize(
    "terms, same, den",
    [
        # a term's pairs listed in another order
        (
            [term(6, 2, (4, 1, 6), (2, 5, 1))],
            [term(6, 2, (1, 4, 6), (5, 2, 1)), term(6, 0, (3,), (3,))],
            1,
        ),
        (
            [term(6, Fraction(1, 3), (2, 4), (4, 1)), term(6, -1, (5,), (5,))],
            [term(6, -1, (5,), (5,)), term(6, Fraction(1, 3), (4, 2), (1, 4))],
            3,
        ),
        # den in lowest terms: 1/2 + 1/2 and 1/6 + 1/3
        ([term(4, Fraction(1, 2), (1,), (2,))] * 2, [term(4, 1, (1,), (2,))], 1),
        (
            [term(4, Fraction(1, 6), (1, 2), (2, 1)), term(4, Fraction(1, 3), (2, 1), (1, 2))],
            [term(4, Fraction(1, 2), (1, 2), (2, 1))],
            2,
        ),
    ],
    ids=["pair-order", "pair-and-term-order", "half-plus-half", "sixth-plus-third"],
)
def test_equal_statistics_are_equal(terms, same, den):
    f, g = make_statistic(terms[0].pp.n, terms), make_statistic(terms[0].pp.n, same)
    assert f == g and hash(f) == hash(g)
    assert f.den == den
    assert math.gcd(f.den, *(c for _, c in f.nums)) == 1
    assert all(pairs == tuple(sorted(pairs)) for pairs, _ in f.nums)
    assert [t.pp.I for t in f.terms] == [tuple(sorted(t.pp.I)) for t in f.terms]
    assert symmetrize(f) == symmetrize(g)


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
    # a product is refused on its pair visits and held terms only, at any n
    e13 = builtin("exc", 13)
    assert stat_product(e13, e13) == pairwise_product(13, e13.terms, e13.terms)


def pairwise_product(n, f_terms, g_terms):
    """Reference product of two lists of terms: one merge_pairs per pair."""
    terms = []
    for a in f_terms:
        for b in g_terms:
            pairs = merge_pairs(a.pp.pairs(), b.pp.pairs())
            if pairs is not None:
                pp = PartialPermutation(n, [i for i, _ in pairs], [j for _, j in pairs])
                terms.append(IndicatorTerm(a.coeff * b.coeff, pp))
    return make_statistic(n, terms)


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
    # the denominator is reduced with the numerators
    half = one_term(6, (1,), (2,), c=Fraction(1, 2))
    assert stat_product(half, b).den == 2
    assert stat_product(half, one_term(6, (3,), (4,), c=2)).den == 1


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
        assert ab == stat_product(b, a) == pairwise_product(6, a.terms, b.terms)
        assert stat_product(ab, c) == stat_product(a, stat_product(b, c))


def random_terms(rng, n, size):
    """Seeded terms whose pairs are listed in random order (I not ascending)."""
    coeffs = [Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 3, 5)]
    terms = []
    for _ in range(size):
        k = rng.randrange(0, min(n, 3) + 1)
        I = tuple(rng.sample(range(1, n + 1), k))
        J = tuple(rng.sample(range(1, n + 1), k))
        terms.append(IndicatorTerm(rng.choice(coeffs), PartialPermutation(n, I, J)))
    return terms


def test_stat_product_matches_pairwise_merges():
    rng = random.Random(3)
    for n in range(1, 8):
        for _ in range(12):
            f_terms = random_terms(rng, n, rng.randrange(0, 10))
            g_terms = random_terms(rng, n, rng.randrange(0, 10))
            f, g = make_statistic(n, f_terms), make_statistic(n, g_terms)
            assert stat_product(f, g) == pairwise_product(n, f_terms, g_terms)
    for n in range(2, 7):
        exc, maj = builtin("exc", n), builtin("maj", n)
        assert stat_product(exc, maj) == pairwise_product(n, exc.terms, maj.terms)
        assert stat_product(maj, maj) == pairwise_product(n, maj.terms, maj.terms)


def test_stat_product_square_matches_pairwise_merges():
    # a square visits each unordered pair of terms once: the product of f with
    # itself or with an equal copy is the pairwise product, and a product commutes
    rng = random.Random(18)
    for n in range(1, 8):
        for _ in range(10):
            f_terms = random_terms(rng, n, rng.randrange(0, 12))
            f_terms.append(IndicatorTerm(Fraction(rng.choice([-5, 3]), rng.choice([1, 4])),
                                         PartialPermutation(n, (), ())))
            g_terms = random_terms(rng, n, rng.randrange(0, 8))
            f, copy_of_f = make_statistic(n, f_terms), make_statistic(n, list(reversed(f_terms)))
            g = make_statistic(n, g_terms)
            assert f == copy_of_f and f is not copy_of_f
            expect = pairwise_product(n, f_terms, f_terms)
            for other in (f, copy_of_f):
                clear_caches()
                assert stat_product(f, other) == expect
            clear_caches()
            assert stat_product(f, g) == stat_product(g, f) == pairwise_product(n, f_terms, g_terms)


def test_stat_product_guard_counts_pair_visits(monkeypatch):
    # a square visits |f|(|f| + 1)/2 pairs of terms, any other product |f|·|g|
    exc, maj = builtin("exc", 6), builtin("maj", 6)
    assert (len(exc.nums), len(maj.nums)) == (15, 75)
    for g, visits in [(exc, 120), (maj, 1125)]:
        monkeypatch.setenv("PATHMN_MAX_N", str(visits - 1))
        clear_caches()
        with pytest.raises(GuardError, match=f"statistic product pair visits = {visits} exceeds"):
            stat_product(exc, g)
        monkeypatch.setenv("PATHMN_MAX_N", str(visits))
        assert stat_product(exc, g) == pairwise_product(6, exc.terms, g.terms)


def test_stat_product_guard_counts_held_terms(monkeypatch):
    # the terms held are counted after each outer term; a product never holds
    # more terms than it visits pairs, so under PATHMN_MAX_N the visit guard
    # fires first and only a lowered _MAX_TERMS reaches this one
    monkeypatch.delenv("PATHMN_MAX_N", raising=False)
    exc, maj = builtin("exc", 6), builtin("maj", 6)
    default = pathmn.statistics._MAX_TERMS
    for f, g, held in [(exc, exc, 80), (exc, maj, 554), (maj, maj, 695)]:
        clear_caches()
        assert len(stat_product(f, g).nums) == held  # positive weights: nothing cancels
        assert held <= len(f.nums) * len(g.nums)
        monkeypatch.setattr(pathmn.statistics, "_MAX_TERMS", held - 1)
        clear_caches()
        with pytest.raises(GuardError, match=f"statistic product terms = {held} exceeds the guard limit {held - 1} "):
            stat_product(f, g)
        monkeypatch.setattr(pathmn.statistics, "_MAX_TERMS", held)
        clear_caches()
        assert len(stat_product(f, g).nums) == held
        monkeypatch.setattr(pathmn.statistics, "_MAX_TERMS", default)
    # a low limit stops the loop within one outer term of passing it
    monkeypatch.setattr(pathmn.statistics, "_MAX_TERMS", 10)
    clear_caches()
    with pytest.raises(GuardError, match="statistic product terms") as refused:
        stat_product(maj, maj)
    count = int(str(refused.value).split(" = ")[1].split()[0])
    assert 10 < count <= 10 + len(maj.nums)


def test_builtin_guard_counts_terms(monkeypatch):
    # exc has C(n, 2) terms and maj (n - 1)·C(n, 2), counted before any is built
    for name, n, count in [("exc", 6, 15), ("maj", 6, 75)]:
        monkeypatch.setenv("PATHMN_MAX_N", str(count - 1))
        with pytest.raises(GuardError, match=f"statistic terms = {count} exceeds"):
            builtin(name, n)
        monkeypatch.setenv("PATHMN_MAX_N", str(count))
        assert len(builtin(name, n).nums) == count
    monkeypatch.delenv("PATHMN_MAX_N")
    for name, n, count in [("exc", 708, 250278), ("maj", 81, 259200)]:
        with pytest.raises(GuardError, match=f"statistic terms = {count} exceeds the guard limit 250000"):
            builtin(name, n)


def test_stat_product_edge_cases():
    def stat(n, *terms):
        return make_statistic(
            n, [IndicatorTerm(Fraction(c), PartialPermutation(n, I, J)) for c, I, J in terms]
        )

    # (x + y)(y - x) with x, y compatible: the two xy terms cancel to zero
    f = stat(4, (1, (1,), (2,)), (1, (2,), (3,)))
    g = stat(4, (1, (2,), (3,)), (-1, (1,), (2,)))
    prod = stat_product(f, g)
    assert prod == pairwise_product(4, f.terms, g.terms)
    assert prod == stat(4, (-1, (1,), (2,)), (1, (2,), (3,)))
    # the empty term is the constant function
    const = stat(4, (Fraction(-2, 3), (), ()))
    mixed = stat(4, (Fraction(1, 2), (3, 1), (1, 4)), (Fraction(5, 7), (2,), (2,)))
    assert stat_product(const, mixed) == pairwise_product(4, const.terms, mixed.terms)
    assert stat_product(mixed, const) == stat(
        4, (Fraction(-1, 3), (1, 3), (4, 1)), (Fraction(-10, 21), (2,), (2,))
    )
    assert stat_product(const, const) == stat(4, (Fraction(4, 9), (), ()))
    # n = 1: the only indicators are the constant and 1_{(1),(1)}
    one = stat(1, (Fraction(3, 2), (), ()), (Fraction(-1, 4), (1,), (1,)))
    assert stat_product(one, one) == pairwise_product(1, one.terms, one.terms)
    assert stat_product(one, one) == stat(
        1, (Fraction(9, 4), (), ()), (Fraction(-11, 16), (1,), (1,))
    )
    empty = stat(3)
    assert stat_product(empty, builtin("exc", 3)).terms == ()


def test_stat_product_builds_one_term_per_result(monkeypatch):
    # products and symmetrization run on pair tuples and integers: they build
    # no partial permutation, no indicator term and no Fraction at all;
    # reading .terms builds one of each per term
    maj6 = builtin("maj", 6)
    built, terms_built, fractions = [], [], []
    validate = PartialPermutation.__new__
    term_new = IndicatorTerm.__new__

    def counting(cls, *args):
        built.append(args)
        return validate(cls, *args)

    def counting_terms(cls, *args):
        terms_built.append(args)
        return term_new(cls, *args)

    def counting_fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    monkeypatch.setattr(PartialPermutation, "__new__", counting)
    monkeypatch.setattr(IndicatorTerm, "__new__", counting_terms)
    monkeypatch.setattr(pathmn.statistics, "Fraction", counting_fraction)
    clear_caches()
    result = stat_product(maj6, maj6)
    assert built == terms_built == fractions == []
    cf = symmetrize(result)
    assert built == terms_built == fractions == []
    assert cf.nums
    terms = result.terms
    assert len(built) == len(terms_built) == len(fractions) == len(terms) == len(result.nums) > 0


def power(f, m):
    g = f
    for _ in range(m - 1):
        g = stat_product(g, f)
    return g


def moments_text(f, m):
    cf = symmetrize(power(f, m))
    values = [f"{mu}:{class_eval(cf, mu)}" for mu in partitions_of(f.n)]
    return "\n".join([cf.schur.to_json()] + values)


def ascending_statistic(seed, n, size):
    rng = random.Random(seed)
    terms = []
    for _ in range(size):
        k = rng.randrange(0, min(n, 3) + 1)
        pairs = sorted(zip(rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k)))
        I, J = tuple(i for i, _ in pairs), tuple(j for _, j in pairs)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        terms.append(IndicatorTerm(c, PartialPermutation(n, I, J)))
    return make_statistic(n, terms)


def sha(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# sha256 of each case's outputs, captured before statistics moved to integer
# numerators over one denominator
PINNED = {
    ("exc", 1): "639713f6007f31aaa7bf5216c864b5d5ed2ef7ac655b2ea8a55569437cee7274",
    ("exc", 2): "d4c47e3ef17ed0d1fa166dfcadfb71f6f59cc6b32da3daf2ab3b45755d28b75d",
    ("exc", 3): "849ef22c958351f61eb962f356d4da2a3c53a7dd453ddfa5dbe46b928785f130",
    ("maj", 1): "5d918bc9bff15251f68cb73c6a3d360c7a4c84199e512fb8d14116c3ca77aef2",
    ("maj", 2): "b980123cce6a61f6f1822769f2d363ec7c4703b81ec9b698851cd09c267eb326",
    ("maj", 3): "65cf79898b53f45d9a69d2244efffac2418850da22441fb5289d4e5ed41d5483",
    ("random", 1, 6): "66c6abcd8d17a0ae4202e56e3286d7f66f098268ec287a13d35a79352d102f5e",
    ("random", 2, 7): "a97a77fa9d3cd25c10d9f68e82abccf7be6f3094c8d808281b1d48150b5af414",
    ("random", 3, 8): "5ffd30ad4fa3920ef8e50ee46b170845ac9b4d927e0ede6f0192b63d616ad365",
    ("json", "exc"): "3d5c2bee1f24a6231b96b1a0d9c7011ae4864dd2cb347988c4f0602e558a8245",
    ("json", "maj"): "cca2e457fef70fe6389904105f580ad2a058f17398af98af35a6305c44505955",
}


@pytest.mark.parametrize("case", list(PINNED), ids=lambda case: "-".join(map(str, case)))
def test_statistic_outputs_match_pinned_digests(case):
    kind = case[0]
    if kind == "random":
        parts = [moments_text(ascending_statistic(case[1], case[2], 12), 2)]
    elif kind == "json":
        parts = [stat_to_json(power(builtin(case[1], n), m)) for n in range(1, 7) for m in (1, 2)]
    else:
        parts = [moments_text(builtin(kind, n), case[1]) for n in range(1, 9)]
    assert sha(parts) == PINNED[case]


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
    # the removal chain is a loop, so a class of many parts needs no part cap
    # (500 parts once died with RecursionError, then were refused at 400)
    def fixes_one(n):
        return symmetrize(make_statistic(n, [IndicatorTerm(1, PartialPermutation(n, (1,), (1,)))]))

    assert class_eval(fixes_one(400), (1,) * 400) == 1
    assert class_eval(fixes_one(500), (1,) * 500) == 1


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


@pytest.mark.parametrize("name, n", [("exc", 6), ("maj", 6), ("exc", 13), ("exc", 16)])
def test_class_average_of_a_square_is_the_second_moment(name, n):
    # sum over classes of class_eval / z_mu averages over S_n; exc has mean
    # (n - 1)/2 and variance (n + 1)/12, maj mean n(n - 1)/4 and variance n(n - 1)(2n + 5)/72
    f = builtin(name, n)
    cf = symmetrize(stat_product(f, f))
    average = sum(class_eval(cf, mu) / z_mu(mu) for mu in partitions_of(n))
    if name == "exc":
        assert average == Fraction(n + 1, 12) + Fraction(n - 1, 2) ** 2
    else:
        assert average == Fraction(n * (n - 1) * (2 * n + 5), 72) + Fraction(n * (n - 1), 4) ** 2


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


def test_variance_on_every_class_reuses_the_bounded_memos():
    # f, f·f and their two class functions fit the four results each memo keeps
    clear_caches()
    f = builtin("maj", 8)
    classes = list(partitions_of(8))
    assert len(classes) == 22
    variances = [variance_on_class(f, mu) for mu in classes]
    assert stat_product.cache_info().hits == 21
    assert symmetrize.cache_info().hits == 42
    sq = symmetrize(stat_product(f, f))
    mean = symmetrize(f)
    assert variances == [class_eval(sq, mu) - class_eval(mean, mu) ** 2 for mu in classes]


def test_a_moment_chain_keeps_at_most_four_results_per_memo():
    # the chain pathmn stat --moment runs; each power is new, so none is reused
    clear_caches()
    f = make_statistic(3, [IndicatorTerm(2, PartialPermutation(3, (), ()))])
    power = f
    for _ in range(199):
        power = stat_product(power, f)
        cf = symmetrize(power)
    assert stat_product.cache_info().currsize <= 4
    assert symmetrize.cache_info().currsize <= 4
    assert power.nums == (((), 2**200),)
    assert [class_eval(cf, mu) for mu in partitions_of(3)] == [2**200] * 3


def test_symmetrized_numerators_are_read_only():
    # symmetrize hands out the memo's own class function: a write must not reach later answers
    clear_caches()
    f = builtin("exc", 4)
    cf = symmetrize(f)
    values = [class_eval(cf, mu) for mu in partitions_of(4)]
    mask = next(iter(cf.nums))
    with pytest.raises(TypeError):
        cf.nums[mask] = 0
    with pytest.raises(TypeError):
        del cf.nums[mask]
    assert not hasattr(cf.nums, "clear")
    assert symmetrize(f) is cf
    assert [class_eval(symmetrize(f), mu) for mu in partitions_of(4)] == values


def test_maj_squared_class_averages():
    for n in range(1, 6):
        f = builtin("maj", n)
        sq = symmetrize(stat_product(f, f))
        brute = class_averages(n, lambda w: maj_of(w) ** 2)
        for mu in partitions_of(n):
            assert class_eval(sq, mu) == brute[mu]


def test_class_eval_converts_nothing_per_class(monkeypatch):
    # a class function is its integer numerators on masks, also one built by
    # hand: symmetrizing and reading values decode no mask to a shape
    shapes = []
    decode = SymExpansion._from_masks.__func__
    monkeypatch.setattr(SymExpansion, "_from_masks",
                        classmethod(lambda cls, n, terms: shapes.append(terms) or decode(cls, n, terms)))
    pairs = []
    for name in ("exc", "maj"):
        for n in range(1, 9):
            f = builtin(name, n)
            cf = symmetrize(stat_product(f, f))
            by_hand = pathmn.statistics.ClassFunction(n, cf.den, dict(cf.nums))
            assert by_hand == cf
            pairs.append((cf, by_hand))
    for cf, by_hand in pairs:
        for mu in partitions_of(cf.n):
            assert class_eval(by_hand, mu) == class_eval(cf, mu)
    assert shapes == []
    # reading .schur decodes once per read
    assert pairs[-1][1].schur == pairs[-1][0].schur and len(shapes) == 2


def test_relabelled_statistics_give_equal_class_functions():
    # conjugating a statistic by a relabelling of 1..n leaves R f alone; the
    # numerators are reduced with den, so the two class functions are ==
    rng = random.Random(19)
    for n in range(2, 8):
        for _ in range(4):
            raw = [(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)),
                    tuple(rng.sample(range(1, n + 1), k)), tuple(rng.sample(range(1, n + 1), k)))
                   for k in (1, 1, 2, 2, min(3, n))]
            relabel = rng.sample(range(1, n + 1), n)
            f = make_statistic(n, [IndicatorTerm(c, PartialPermutation(n, I, J)) for c, I, J in raw])
            g = make_statistic(n, [IndicatorTerm(c, PartialPermutation(
                n, tuple(relabel[i - 1] for i in I), tuple(relabel[j - 1] for j in J))) for c, I, J in raw])
            for a, b in ((f, g), (stat_product(f, f), stat_product(g, g))):
                cf, cg = symmetrize(a), symmetrize(b)
                assert cf == cg and cf.nums and math.gcd(cf.den, *cf.nums.values()) == 1
                assert all(v for v in cf.nums.values())


def test_class_eval_removals_match_table_columns():
    # class_eval removes mu from the support; the table adds mu to the empty shape
    for n in range(1, 11):
        table = character_table(n)
        for name in ("exc", "maj"):
            f = builtin(name, n)
            cf = symmetrize(stat_product(f, f))
            for mu in partitions_of(n):
                expect = sum(c * table.value(lam, mu) for lam, c in cf.schur.terms.items())
                assert class_eval(cf, mu) == expect


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
    # pairs in any order, decimal and integer coefficients keep their value
    text = '{"n": 6, "terms": [{"coeff": "1.5", "I": [4, 2], "J": [1, 4]}, {"coeff": 2, "I": [5], "J": [5]}]}'
    h = make_statistic(6, [term(6, Fraction(3, 2), (2, 4), (4, 1)), term(6, 2, (5,), (5,))])
    assert stat_from_json(text) == h
    assert '"I": [2, 4], "J": [4, 1]' in stat_to_json(stat_from_json(text))
    with pytest.raises(ParseError):
        stat_from_json('{"n": 2}')
    with pytest.raises(ParseError):
        stat_from_json('{"terms": []}')
    for coeff in ("1/-2", "1/+2", "x", "1/0", "1//2"):
        with pytest.raises(ParseError):
            stat_from_json('{"n": 2, "terms": [{"coeff": "%s", "I": [1], "J": [2]}]}' % coeff)


def test_json_numbers_are_read_exactly():
    # a float literal in n, I or J is refused, not truncated (this read as n = 3 with 1 -> 2)
    with pytest.raises(ParseError):
        stat_from_json('{"n": 3.9, "terms": [{"coeff": 1, "I": [1.7], "J": [2.2]}]}')
    for n, i, j in [("3.0", "1", "2"), ("3", "1.7", "2"), ("3", "1", "2.0"), ("Infinity", "1", "2")]:
        with pytest.raises(ParseError):
            stat_from_json('{"n": %s, "terms": [{"coeff": 1, "I": [%s], "J": [%s]}]}' % (n, i, j))
    # a decimal coefficient keeps its exact value, also past a float's precision
    for literal, value in [("0.1", Fraction(1, 10)), ("1.5", Fraction(3, 2)), ("2.5e-1", Fraction(1, 4)),
                           ("0.1000000000000000000001", Fraction(10**21 + 1, 10**22))]:
        f = stat_from_json('{"n": 3, "terms": [{"coeff": %s, "I": [1], "J": [2]}]}' % literal)
        assert f.terms[0].coeff == value


def test_json_round_trip_past_the_digit_limit():
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        big = math.factorial(2000)  # 5736 digits
        with pytest.raises(ValueError):
            str(big)
        for c in (Fraction(big), Fraction(1, big), Fraction(-big, 3)):
            f = make_statistic(5, [term(5, c, (3, 1), (1, 4)), term(5, 1, (2,), (2,))])
            g = stat_from_json(stat_to_json(f))
            assert g == f and g.terms[1].coeff == c
        literal = stat_to_json(f).replace('"coeff": "1/1"', '"coeff": 1' + "0" * 5000)
        assert stat_from_json(literal).terms[0].coeff == 10**5000
    finally:
        set_limit(old)


def test_stat_to_json_writes_what_the_terms_wrote():
    # stat_to_json reads nums directly; the reference goes through the IndicatorTerms
    def reference(f):
        return json.dumps({"n": f.n, "terms": [
            {"coeff": f"{t.coeff.numerator}/{t.coeff.denominator}", "I": list(t.pp.I), "J": list(t.pp.J)}
            for t in f.terms]})

    stats = [builtin(name, n) for name in ("exc", "maj") for n in range(1, 6)]
    stats += [stat_product(f, f) for f in stats[:8]]
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(1, 6)
        terms = []
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(0, n)
            I, J = rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k)
            terms.append(term(n, Fraction(rng.randint(-9, 9), rng.randint(1, 12)), I, J))
        stats.append(make_statistic(n, terms))
    for f in stats:
        assert stat_to_json(f) == reference(f)
