import math
import operator
import random
from fractions import Fraction

import pytest

import pathmn.characters
import pathmn.ribbons
import pathmn.symfunc
from pathmn import (
    POWER,
    GuardError,
    ParseError,
    PartialPermutation,
    SymExpansion,
    alternant_char,
    atomic_schur,
    char_eval,
    char_eval_direct,
    character_table,
    clear_caches,
    coefficient_polynomiality,
    decompose,
    embed,
    mult_by_power,
    partitions_of,
    path_power_to_schur,
    power_to_schur,
    skew_mn,
    stable_expansion,
    support_check,
    syt_count,
    z_mu,
)
from pathmn.oracles import packed_pairs
from pathmn.partial_perm import _graph_type
from pathmn.ribbons import _mask, _shape, _stable_terms
from pathmn.symfunc import _p_to_schur
from brute import components_type

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
    with pytest.raises(ParseError, match=r"\|lam\| = 6 but ambient size is 7"):
        char_eval_direct((3, 2, 1), A7)
    rng = random.Random(20260817)
    for _ in range(6):
        pp = random_pp(rng, 6)
        for lam in partitions_of(6):
            assert char_eval_direct(lam, pp) == char_eval(lam, pp)


def test_char_eval_removals_match_expansion_additions():
    # char_eval removes the cycle parts from lam; atomic_schur adds them to the
    # path factor. The two routes share no ribbon step direction.
    pairs = list(packed_pairs(3))
    for pp in pairs:
        for n in range(pp.n, 8):
            big = embed(pp, n)
            exp = atomic_schur(big)
            for lam in partitions_of(n):
                assert char_eval(lam, big) == exp.coeff(lam)
    rng = random.Random(20261019)
    small = [(rho, k) for k in range(5) for rho in partitions_of(k)]
    for pp in rng.sample(pairs, 8):
        for n in (100, 1200):
            big = embed(pp, n)
            exp = atomic_schur(big)
            for rho, k in small:
                lam = (n - k, *rho)
                assert char_eval(lam, big) == exp.coeff(lam)


def test_char_eval_reads_past_what_the_expansion_holds():
    # the atomic expansion of 17 disjoint transpositions passes the chain limit
    partner = tuple(i + 1 if i % 2 else i - 1 for i in range(1, 35))  # 2i - 1 <-> 2i
    swaps = PartialPermutation(34, tuple(range(1, 35)), partner)
    assert char_eval((17, 17), swaps) == -24310
    with pytest.raises(GuardError):
        atomic_schur(swaps)


def test_char_eval_keeps_only_shapes_above_the_path_factor():
    # the staircase of 40 rows (n = 820) has 9919 subshapes of co-size 3, but
    # none contains the first row that every shape of the path factor has
    stair = tuple(range(40, 0, -1))
    assert char_eval(stair, PartialPermutation(820, (1, 2, 3), (1, 2, 3))) == 0
    assert char_eval(stair, PartialPermutation(820, (1, 3, 4, 5), (2, 3, 4, 5))) == 0
    fixed = PartialPermutation(820, (1, 2, 3), (1, 2, 3))
    assert char_eval((818, 1, 1), fixed) == atomic_schur(fixed).coeff((818, 1, 1)) != 0


def test_char_eval_floor_is_one_row(monkeypatch):
    # the path factor holds the one-row shape (n - |nu|), so the shape inside
    # every path shape, which char_eval passes as the chain's floor, is the
    # least first row of the path factor
    floors = []
    chains = pathmn.characters._ribbon_chains
    monkeypatch.setattr(pathmn.characters, "_ribbon_chains",
                        lambda terms, alpha, floor=(): floors.append(floor) or chains(terms, alpha, floor))
    for packed in packed_pairs(3):
        for n in [*range(packed.n, 10), 1200]:
            pp = embed(packed, n)
            core, nu = _graph_type(pp.pairs())
            path, _ = _stable_terms(core, n - sum(nu))
            floors.clear()
            char_eval((n,) if n else (), pp)
            assert floors == [tuple(map(min, zip(*map(_shape, path))))]


def test_character_table_small():
    t0 = character_table(0)
    assert t0.shapes == ((),)
    assert t0.value((), ()) == 1
    t1 = character_table(1)
    assert t1.value((1,), (1,)) == 1
    assert t1.to_csv() == "lambda\\mu,[1]\n[1],1\n"


def test_character_table_rows_and_columns():
    for n in range(1, 15):
        t = character_table(n)
        for mu in t.shapes:
            assert t.value((n,), mu) == 1
            assert t.value((1,) * n, mu) == (-1) ** (n - len(mu))
        for lam in t.shapes:
            assert t.value(lam, (1,) * n) == syt_count(lam)


def test_character_table_orthogonality():
    # rows: sum over classes of |class| chi^lam chi^nu = n! [lam = nu];
    # columns: sum over lam of chi^lam_mu chi^lam_rho = z_mu [mu = rho]
    for n in range(1, 15):
        t = character_table(n)
        rows = [[t.entries[(lam, mu)] for mu in t.shapes] for lam in t.shapes]
        sizes = [math.factorial(n) // z_mu(mu) for mu in t.shapes]
        for i, row in enumerate(rows):
            weighted = [h * c for h, c in zip(sizes, row)]
            for j, other in enumerate(rows):
                expect = math.factorial(n) if i == j else 0
                assert sum(map(operator.mul, weighted, other)) == expect
        columns = list(zip(*rows))
        for i, (mu, column) in enumerate(zip(t.shapes, columns)):
            for j, other in enumerate(columns):
                assert sum(map(operator.mul, column, other)) == (z_mu(mu) if i == j else 0)


def test_character_table_matches_alternant():
    for n in range(9):
        t = character_table(n)
        for lam in t.shapes:
            for mu in t.shapes:
                assert t.value(lam, mu) == alternant_char(lam, mu)


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


def test_character_table_render_and_json():
    table = character_table(3)
    assert table.render() == (
        "         [3]  [2,1]  [1,1,1]\n"
        "    [3]    1      1        1\n"
        "  [2,1]   -1      0        2\n"
        "[1,1,1]    1     -1        1"
    )
    assert table.to_json() == (
        '{"n": 3, "shapes": [[3], [2, 1], [1, 1, 1]], "rows": [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]}'
    )
    assert character_table(0).render() == "    []\n[]   1"


def test_expansions_are_built_only_for_public_results(monkeypatch):
    # an expansion is built by the validating constructor or the trusted one
    built = []
    init, trusted = SymExpansion.__init__, SymExpansion._trusted.__func__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    def counting_trusted(cls, *args):
        built.append(trusted(cls, *args))
        return built[-1]

    monkeypatch.setattr(SymExpansion, "__init__", counting)
    monkeypatch.setattr(SymExpansion, "_trusted", classmethod(counting_trusted))
    clear_caches()
    table = character_table(9)
    assert built == []
    assert all(type(v) is int for v in table.entries.values())
    pp = PartialPermutation(6, (1, 2, 3, 4), (2, 1, 4, 5))  # a 2-cycle and a path
    assert decompose(pp).cycle_type == (2,)
    exp = atomic_schur(pp)
    assert built == [exp]


def test_a_warm_atomic_expansion_decodes_no_mask_and_builds_no_fraction(monkeypatch):
    pp = PartialPermutation(1200, (1, 2, 4, 5, 7), (2, 3, 5, 6, 8))
    first = atomic_schur(pp)
    calls = []
    for module in (pathmn.ribbons, pathmn.symfunc):
        monkeypatch.setattr(module, "_shape", lambda m: calls.append(m))
    for module in (pathmn.characters, pathmn.symfunc):
        monkeypatch.setattr(module, "Fraction", lambda *args: calls.append(args))
    again = atomic_schur(pp)
    assert calls == [] and again == first and again is not first
    monkeypatch.undo()
    assert again.terms == first.terms and len(first.terms) == 12


def test_public_coefficients_are_fractions():
    pp = PartialPermutation(6, (1, 2, 3, 4), (2, 1, 4, 5))
    results = [
        atomic_schur(pp),
        stable_expansion((2, 2), 7),
        path_power_to_schur((3, 2, 1)),
        power_to_schur(SymExpansion(POWER, 5, {(3, 1, 1): 1, (2, 2, 1): Fraction(1, 3)})),
        mult_by_power(stable_expansion((2,), 4), 3),
    ]
    for exp in results:
        assert exp.terms and all(type(c) is Fraction for c in exp.terms.values())
    assert type(skew_mn((4, 3, 1), (3, 2, 2, 1))) is int
    assert type(char_eval((3, 2, 1), pp)) is int


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


def test_character_table_reads_its_columns():
    # the table holds one read-only p_mu column per mu; its readers build no
    # (lam, mu) dict, and entries is built from the columns on first read
    clear_caches()
    table = character_table(6)
    for read in (table.render, table.to_csv, table.to_json, lambda: table.value((3, 2, 1), (2, 2, 1, 1))):
        read()
    assert "entries" not in vars(table)
    assert table.entries is table.entries and "entries" in vars(table)
    for n in range(11):
        t = character_table(n)
        assert t.entries == {(lam, mu): _p_to_schur(mu).get(_mask(lam), 0)
                             for mu in t.shapes for lam in t.shapes}
        assert all(type(v) is int for v in t.entries.values())


def test_character_table_columns_are_read_only():
    table = character_table(5)
    memo = {mu: dict(_p_to_schur(mu)) for mu in table.shapes}
    for i, mu in enumerate(table.shapes):
        with pytest.raises(TypeError):
            table.columns[i][_mask(mu)] = 7
        with pytest.raises(TypeError):
            del table.columns[i][_mask((5,))]
    assert {mu: _p_to_schur(mu) for mu in table.shapes} == memo


def test_the_column_memo_holds_the_largest_table_and_a_held_table_outlives_it():
    # table 20, the largest the guard allows, builds 1254 columns and suffixes, all within the bound
    clear_caches()
    held = character_table(20)
    info = _p_to_schur.cache_info()
    assert (info.hits, info.misses, info.currsize) == (626, 1254, 1254)
    columns = [dict(c) for c in held.columns]
    # the tables below it build every partition of n < 20 besides, more than the memo keeps
    for n in range(20):
        character_table(n)
    info = _p_to_schur.cache_info()
    assert info.currsize == info.maxsize
    again = character_table(20)
    assert _p_to_schur.cache_info().misses > info.misses  # some columns were evicted and are built again
    assert [dict(c) for c in held.columns] == columns == [dict(c) for c in again.columns]


def test_the_atomic_memo_stays_at_its_bound_over_many_sizes():
    # one process asking for 10 graph types at each of 600 sizes keeps only the expansions used last
    pairs = [((1,), (2,)), ((1,), (1,)), ((1, 2), (2, 3)), ((1, 2), (2, 1)), ((1, 3), (2, 4)),
             ((1, 2), (1, 2)), ((1, 2, 3), (2, 3, 4)), ((1, 2, 3), (2, 3, 1)), ((1, 2, 4), (2, 1, 5)),
             ((1, 2, 4, 5), (2, 3, 5, 6))]
    memo = pathmn.characters._atomic_from_type
    clear_caches()
    first = atomic_schur(PartialPermutation(600, *pairs[0]))
    for n in range(600, 1200):
        for I, J in pairs:
            atomic_schur(PartialPermutation(n, I, J))
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 6000, info.maxsize)
    assert atomic_schur(PartialPermutation(600, *pairs[0])) == first  # evicted, and built again
    assert memo.cache_info().misses == 6001
    clear_caches()


def test_character_table_value_outside_the_table():
    table = character_table(4)
    assert table.value((2, 1, 1), [1, 2, 1]) == table.value((2, 1, 1), (2, 1, 1)) == -1
    for lam, mu in [((5,), (4,)), ((4,), (5,)), ((1, 3), (4,)), ((4,), (0, 4)), ((2, 2, 0), (4,)),
                    ((3,), (4,)), ((4,), (2, 1))]:
        with pytest.raises(KeyError):
            table.value(lam, mu)


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


@pytest.mark.parametrize("max_k, n", [(3, 100), (2, 1200)])
def test_atomic_schur_column_orthogonality_at_large_n(max_k, n):
    # Column orthogonality against mu = 1^n and mu = (n) holds at any n, so it
    # checks the frozen walk where brute force cannot reach:
    # sum_lam f^lam chi^lam([I,J]) = n! if I = J pointwise, else 0; and the sum
    # over hooks of (-1)^leg chi^lam([I,J]) = n (n - k - 1)! without a cycle, else 0
    for packed in packed_pairs(max_k):
        pp = embed(packed, n)
        terms = atomic_schur(pp).terms
        assert sum(syt_count(lam) * c for lam, c in terms.items()) == (math.factorial(n) if pp.I == pp.J else 0)
        hooks = sum((-1) ** (len(lam) - 1) * c for lam, c in terms.items() if lam[1:2] in ((), (1,)))
        _, cycles = components_type(n, list(zip(pp.I, pp.J)))
        assert hooks == (0 if cycles else n * math.factorial(n - pp.k - 1))
