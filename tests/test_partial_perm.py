import copy
import itertools
import math
import pickle
import random

import pytest

import pathmn.partial_perm
from pathmn import (
    GraphType,
    ParseError,
    PartialPermutation,
    decompose,
    embed,
    format_pp,
    local_dimension,
    pack,
    parse_pp,
    pp_from_graph_type,
    syt_count,
)
from brute import all_perms, components_type, lis_length, partitions_list


def random_pp(rng, max_n=8):
    n = rng.randrange(1, max_n + 1)
    k = rng.randrange(0, n + 1)
    I = tuple(sorted(rng.sample(range(1, n + 1), k)))
    J = tuple(rng.sample(range(1, n + 1), k))
    return PartialPermutation(n, I, J)


def test_validation():
    with pytest.raises(ParseError):
        PartialPermutation(3, (1, 1), (2, 3))
    with pytest.raises(ParseError):
        PartialPermutation(3, (1, 2), (2, 2))
    with pytest.raises(ParseError):
        PartialPermutation(3, (1, 2), (2,))
    with pytest.raises(ParseError):
        PartialPermutation(3, (4,), (1,))
    with pytest.raises(ParseError):
        PartialPermutation(3, (0,), (1,))
    with pytest.raises(ParseError):
        PartialPermutation(-1, (), ())


def test_every_tuple_route_validates(monkeypatch):
    # _make and _replace build through __new__; lists become tuples
    with pytest.raises(ParseError):
        PartialPermutation._make((1, (5,), (1,)))
    with pytest.raises(ParseError):
        PartialPermutation(3, (1,), (2,))._replace(n=0)
    pp = PartialPermutation(4, [1, 3], [3, 2])
    assert type(pp.I) is tuple and type(pp.J) is tuple
    assert pp == (4, (1, 3), (3, 2))
    assert pp._replace(J=[2, 3]) == PartialPermutation(4, (1, 3), (2, 3))
    # a copy and a pickle round trip are rebuilt through __new__ too
    validate, checked = PartialPermutation.__new__, []

    def counting(cls, *args):
        checked.append(args)
        return validate(cls, *args)

    monkeypatch.setattr(PartialPermutation, "__new__", counting)
    for clone in (copy.copy(pp), pickle.loads(pickle.dumps(pp))):
        assert clone == pp and type(clone) is PartialPermutation
    assert checked == [(4, (1, 3), (3, 2))] * 2

def test_k_pairs_canonical():
    pp = PartialPermutation(7, (1, 4, 5, 6, 7), (2, 5, 6, 4, 7))
    assert pp.k == 5
    assert pp.pairs() == ((1, 2), (4, 5), (5, 6), (6, 4), (7, 7))
    assert PartialPermutation(5, (4, 1), (2, 3)).canonical() == PartialPermutation(
        5, (1, 4), (3, 2)
    )


def test_decompose_known_values():
    pp = PartialPermutation(
        15, (11, 10, 2, 7, 13, 9, 3, 5, 15), (10, 6, 7, 14, 1, 3, 9, 5, 15)
    )
    assert decompose(pp) == GraphType((3, 3, 2, 1, 1, 1), (2, 1, 1))
    a7 = PartialPermutation(7, (1, 4, 5, 6, 7), (2, 5, 6, 4, 7))
    assert decompose(a7) == ((2, 1), (3, 1))
    assert decompose(PartialPermutation(6, (), ())) == ((1,) * 6, ())
    assert decompose(PartialPermutation(3, (2,), (2,))) == ((1, 1), (1,))


def test_decompose_invariants():
    rng = random.Random(7)
    for _ in range(200):
        pp = random_pp(rng)
        paths, cycles = decompose(pp)
        assert sum(paths) + sum(cycles) == pp.n
        assert sum(p - 1 for p in paths) + sum(cycles) == pp.k
        assert len(paths) == pp.n - pp.k
        assert paths == tuple(sorted(paths, reverse=True))
        assert cycles == tuple(sorted(cycles, reverse=True))


def test_decompose_matches_union_find():
    for n in range(0, 5):
        for k in range(0, n + 1):
            for I in itertools.combinations(range(1, n + 1), k):
                for J in itertools.permutations(range(1, n + 1), k):
                    pp = PartialPermutation(n, I, J)
                    assert decompose(pp) == components_type(pp.n, pp.pairs()), pp
    rng = random.Random(19)
    for _ in range(400):
        n = rng.randrange(0, 10)
        k = rng.randrange(0, n + 1)
        I = tuple(rng.sample(range(1, n + 1), k))
        pp = PartialPermutation(n, I, tuple(rng.sample(range(1, n + 1), k)))
        assert decompose(pp) == components_type(pp.n, pp.pairs()), pp
    assert decompose(PartialPermutation(0, (), ())) == ((), ())
    assert decompose(PartialPermutation(9, (), ())) == ((1,) * 9, ())
    full = PartialPermutation(6, (1, 2, 3, 4, 5, 6), (2, 3, 1, 5, 4, 6))
    assert decompose(full) == ((), (3, 2, 1))


def test_pack():
    packed, relabel = pack(PartialPermutation(9, (5,), (7,)))
    assert packed == PartialPermutation(2, (1,), (2,))
    assert relabel == {5: 1, 7: 2}
    again, relabel2 = pack(packed)
    assert again == packed and relabel2 == {1: 1, 2: 2}
    empty, relabel0 = pack(PartialPermutation(4, (), ()))
    assert empty == PartialPermutation(0, (), ()) and relabel0 == {}


def test_pack_preserves_structure():
    rng = random.Random(3)
    for _ in range(150):
        pp = random_pp(rng)
        packed, relabel = pack(pp)
        support = sorted(set(pp.I) | set(pp.J))
        assert packed.k == pp.k
        assert packed.n == len(support)
        assert relabel == {v: i + 1 for i, v in enumerate(support)}
        paths, cycles = decompose(pp)
        ppaths, pcycles = decompose(packed)
        assert pcycles == cycles
        assert ppaths == tuple(p for p in paths if p > 1)


def test_embed():
    pp = PartialPermutation(2, (1,), (2,))
    assert embed(pp, 6) == PartialPermutation(6, (1,), (2,))
    with pytest.raises(ParseError):
        embed(PartialPermutation(6, (1,), (5,)), 3)


def test_local_dimension_values():
    for n in range(1, 8):
        assert local_dimension(n, 0) == 1
        assert local_dimension(n, n - 1) == math.factorial(n)
    assert local_dimension(4, 1) == 10


def test_local_dimension_matches_lis_count():
    for n in range(1, 7):
        lengths = [lis_length(w) for w in all_perms(n)]
        for k in range(n):
            assert local_dimension(n, k) == sum(1 for m in lengths if m >= n - k)


def test_local_dimension_matches_the_sum_over_all_partitions():
    # only the shapes with a first row of at least n - k are visited
    for n in range(1, 16):
        squares = [(lam[0], syt_count(lam) ** 2) for lam in partitions_list(n)]
        for k in range(n):
            assert local_dimension(n, k) == sum(f2 for first, f2 in squares if first >= n - k)


def test_local_dimension_at_n_1000():
    # p(1000) has 31 digits; the hook lengths of the shapes with first row
    # >= n - 3 give f = 1, n - 1, n(n - 3)/2, (n - 1)(n - 2)/2, n(n - 1)(n - 5)/6,
    # n(n - 2)(n - 4)/3 and (n - 1)(n - 2)(n - 3)/6
    n = 1000
    f = [1, n - 1, n * (n - 3) // 2, (n - 1) * (n - 2) // 2,
         n * (n - 1) * (n - 5) // 6, n * (n - 2) * (n - 4) // 3, (n - 1) * (n - 2) * (n - 3) // 6]
    for k, shapes in enumerate([1, 2, 4, 7]):
        assert local_dimension(n, k) == sum(x * x for x in f[:shapes])


def test_local_dimension_near_k_equal_n_minus_1(monkeypatch):
    # fewer shapes have a first row below n - k: those are visited and their
    # squares taken from n!, so no partition of 60 but 1^60 is visited
    visited = []

    def counting(lam):
        visited.append(lam)
        return syt_count(lam)

    monkeypatch.setattr(pathmn.partial_perm, "syt_count", counting)
    assert local_dimension(60, 59) == math.factorial(60)
    assert visited == []
    assert local_dimension(60, 58) == math.factorial(60) - 1
    assert visited == [(1,) * 60]
    # at every size the side with fewer shapes is the one visited
    for n in range(1, 13):
        firsts = [lam[0] for lam in partitions_list(n)]
        for k in range(n):
            above = sum(1 for first in firsts if first >= n - k)
            visited.clear()
            local_dimension(n, k)
            assert len(visited) == min(above, len(firsts) - above)


def test_local_dimension_near_k_equal_n_minus_1_at_n_1000():
    # the side visited is 1^1000, listed without a stack frame per part (it was a RecursionError)
    assert local_dimension(1000, 998) == math.factorial(1000) - 1
    assert local_dimension(1000, 999) == math.factorial(1000)


def test_local_dimension_range_errors():
    with pytest.raises(ParseError):
        local_dimension(4, -1)
    with pytest.raises(ParseError):
        local_dimension(4, 4)


def test_parse_and_format_pp():
    pp = parse_pp("1,4 -> 2,5", 6)
    assert pp == PartialPermutation(6, (1, 4), (2, 5))
    assert format_pp(pp) == "1,4 -> 2,5"
    assert parse_pp("1,4->2,5", 6) == pp
    assert parse_pp("->", 4) == PartialPermutation(4, (), ())
    with pytest.raises(ParseError):
        parse_pp("1,2", 4)
    with pytest.raises(ParseError):
        parse_pp("1 -> 2 -> 3", 4)
    with pytest.raises(ParseError):
        parse_pp("1,1 -> 2,3", 4)
    with pytest.raises(ParseError):
        parse_pp("1 -> 9", 4)


def test_pp_from_graph_type_round_trip():
    for n in range(7):
        for path_total in range(n + 1):
            for paths in partitions_list(path_total):
                for cycles in partitions_list(n - path_total):
                    gt = GraphType(paths, cycles)
                    pp = pp_from_graph_type(gt, n)
                    assert pp.n == n
                    assert decompose(pp) == gt


def test_pp_from_graph_type_minimal_ambient():
    pp = pp_from_graph_type(GraphType((3, 1), (2,)), None)
    assert pp.n == 6
    assert decompose(pp) == ((3, 1), (2,))
    with pytest.raises(ParseError):
        pp_from_graph_type(GraphType((2,), (2,)), 3)
