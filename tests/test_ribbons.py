import hashlib
import itertools
import math
import sys
from fractions import Fraction

import pytest

import pathmn
from pathmn import (
    MonotonicTiling,
    ParseError,
    PartialPermutation,
    add_ribbons,
    atomic_schur,
    builtin,
    character_table,
    clear_caches,
    contains,
    enumerate_monotonic,
    frozen_set,
    mult_factorial,
    multinomial,
    multiplicities,
    pad_column,
    partitions_of,
    path_chi,
    path_power_to_schur,
    render_tiling,
    skew_mn,
    stable_expansion,
    stat_product,
    symmetrize,
    tiling_from_type_depth,
    tiling_tally,
)
from pathmn.ribbons import (
    _extend_first_row,
    _factorial,
    _frozen_prefixes,
    _mask,
    _ribbon_chains,
    _ribbon_step,
    _shape,
    _stable_terms,
)
from brute import brute_skew_mn, contains_, is_ribbon, partitions_list, ribbon_sign, skew_cells


def test_add_ribbons_example():
    adds = add_ribbons((3, 3, 1), 3)
    got = {(a.result, a.tail_row, a.tail_col, a.sign) for a in adds}
    assert got == {
        ((6, 3, 1), 1, 4, 1),
        ((5, 4, 1), 2, 4, -1),
        ((3, 3, 2, 2), 4, 1, -1),
        ((3, 3, 1, 1, 1, 1), 6, 1, 1),
    }
    assert all(a.base == (3, 3, 1) and a.size == 3 for a in adds)


def test_add_ribbons_unit_cases():
    adds = add_ribbons((), 1)
    assert len(adds) == 1
    a = adds[0]
    assert (a.result, a.tail_row, a.tail_col, a.sign) == ((1,), 1, 1, 1)
    with pytest.raises(ParseError):
        add_ribbons((2, 1), 0)


def test_add_ribbons_geometry():
    for lam in [(), (1,), (3, 1), (3, 3, 1), (4, 2, 2, 1)]:
        for r in range(1, 5):
            seen = set()
            for a in add_ribbons(lam, r):
                cells = set(skew_cells(a.result, a.base))
                assert len(cells) == r
                assert is_ribbon(cells)
                assert a.sign == ribbon_sign(cells)
                # the tail is the southwesternmost cell
                tail = max(cells, key=lambda rc: (rc[0], -rc[1]))
                assert (a.tail_row, a.tail_col) == tail
                assert a.result not in seen
                seen.add(a.result)


def test_add_ribbons_complete():
    for lam in [(), (2, 1), (3, 3, 1), (2, 2)]:
        for r in range(1, 5):
            expect = {
                nxt
                for nxt in partitions_list(sum(lam) + r)
                if contains(nxt, lam) and is_ribbon(set(skew_cells(nxt, lam)))
            }
            assert {a.result for a in add_ribbons(lam, r)} == expect


def test_ribbon_step_matches_cell_brute():
    # (result, sign, tail row, tail col) of every r-ribbon added to lam (r > 0)
    # or removed from it (r < 0), from the cells alone
    for n in range(10):
        for lam in partitions_list(n):
            for r in range(1, 7):
                for step, others in ((r, partitions_list(n + r)), (-r, partitions_list(n - r))):
                    expect = set()
                    for mu in others:
                        outer, inner = (mu, lam) if step > 0 else (lam, mu)
                        cells = skew_cells(outer, inner)
                        if contains_(outer, inner) and is_ribbon(cells):
                            tail = max(cells, key=lambda rc: (rc[0], -rc[1]))
                            expect.add((mu, ribbon_sign(cells)) + tail)
                    got = [(_shape(q),) + tuple(rest) for q, *rest in _ribbon_step(_mask(lam), step)]
                    assert len(got) == len(expect)
                    assert set(got) == expect


def test_ribbon_step_memo_returns_the_computed_steps():
    clear_caches()
    steps = [(_mask(lam), r) for n in range(11) for lam in partitions_list(n) for r in range(1, 11)]
    for _ in range(2):  # the second round reads every step from the memo
        for m, r in steps:
            got = _ribbon_step(m, r)
            assert type(got) is tuple
            assert got == _ribbon_step.__wrapped__(m, r)
    info = _ribbon_step.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(steps), len(steps), len(steps))


def test_ribbon_step_memo_evicts_within_its_bound():
    maxsize = _ribbon_step.cache_parameters()["maxsize"]
    shapes = [_mask(lam) for n in range(16) for lam in partitions_list(n)]
    every = ((m, r) for r in itertools.count(1) for m in shapes)
    steps = list(itertools.islice(every, maxsize + 500))
    clear_caches()
    # the first steps are evicted by the last ones and stepped again
    for m, r in steps + steps[:1000]:
        assert _ribbon_step(m, r) == _ribbon_step.__wrapped__(m, r)
    info = _ribbon_step.cache_info()
    assert info.currsize == maxsize
    assert info.misses > len(steps)


def test_skew_mn_builds_no_shape_outside_outer():
    # one removal from (20000,) leaves (), no addition to () is built
    clear_caches()
    assert skew_mn((20000,), (20000,)) == 1
    assert _ribbon_step.cache_info().misses == 1


def test_mask_round_trip():
    wide = [(1200,), (1199, 1), (1197, 2, 1), (1190, 4, 3, 3), (1201, 1, 1, 1, 1, 1)]
    for lam in [mu for n in range(15) for mu in partitions_list(n)] + wide:
        # bead i (1-based) of lam sits at bit lam_i + len(lam) - i
        assert _mask(lam) == sum(1 << (p + len(lam) - i) for i, p in enumerate(lam, start=1))
        assert _shape(_mask(lam)) == lam
    assert _mask(()) == 0 and _shape(0) == ()


def _tiling_digest(min_tail_row, extra_ones):
    h = hashlib.sha256()
    for n in range(9):
        for mu in partitions_of(n):
            for t in enumerate_monotonic(mu, min_tail_row=min_tail_row, extra_ones=extra_ones):
                h.update(repr((t.chain, t.type, t.depth, t.tail_cols, t.signs)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "min_tail_row, extra_ones, digest",
    [
        (1, 0, "1b5d0a8209593b022be853c5a855879864f149401b87f4bccca9c25a33b43213"),
        (2, 0, "7f668f0cf67e42a680fb62c74d107509e4fad9065e4bf405c83fec81c087ee1c"),
        (2, 3, "6896c4ae552176491d94e5fa22a2b2ee2565cfb9b1f02a2b783384492bfb237b"),
        (1, 2, "7e96c728d0c51010876b4ad0826097d90c6b0dce4da6c383223c225dc2750a88"),
    ],
    ids=["plain", "frozen", "frozen-extra-ones", "plain-extra-ones"],
)
def test_enumerate_monotonic_sequence_is_pinned(min_tail_row, extra_ones, digest):
    # every tiling, in order, for all mu with |mu| <= 8, as the tuple-based walker gave them
    assert _tiling_digest(min_tail_row, extra_ones) == digest


def test_skew_mn_values():
    assert skew_mn((4, 3, 1), (3, 2, 2, 1)) == -1
    assert skew_mn((2, 1), (1, 1, 1)) == 2
    assert skew_mn((5,), (3, 2)) == 1
    assert skew_mn((1, 1, 1), (3,)) == 1
    assert skew_mn((), ()) == 1


def test_skew_mn_matches_chain_count():
    for n in range(6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert skew_mn(lam, mu) == brute_skew_mn(lam, mu)


def test_skew_mn_with_inner_shape():
    cases = [
        ((3, 1), (2, 1), (1,)),
        ((3, 2), (2, 1), (2,)),
        ((4, 2), (2, 2), (1, 1)),
        ((3, 2, 1), (3, 1), (2,)),
    ]
    for outer, alpha, inner in cases:
        assert skew_mn(outer, alpha, inner=inner) == brute_skew_mn(outer, alpha, inner)


def test_skew_mn_with_inner_matches_brute():
    # every inner inside every outer of size <= 7, cycle parts in two orders
    for n in range(8):
        for outer in partitions_of(n):
            for k in range(n + 1):
                for inner in partitions_of(k):
                    if not contains_(outer, inner):
                        continue
                    for alpha in partitions_of(n - k):
                        for order in (alpha, alpha[::-1]):
                            assert skew_mn(outer, order, inner) == brute_skew_mn(outer, order, inner)


def test_skew_mn_keeps_only_shapes_above_inner():
    # removing 31 cells from 31^31 passes p(31) = 6842 shapes; those that
    # still contain 31^30 are one per step
    assert skew_mn((31,) * 31, (1,) * 31, (31,) * 30) == 1
    assert skew_mn((31,) * 31, (2,) * 15 + (1,), (31,) * 30) == 1


def test_skew_mn_removes_the_largest_ribbons_first(monkeypatch):
    # the five cells first would leave 9 shapes above (1,); the upward chain
    # from (1,) answered this at a limit of 8
    monkeypatch.setenv("PATHMN_MAX_N", "8")
    assert skew_mn((5, 4, 2, 1), (1, 1, 1, 1, 1, 2, 4), (1,)) == 5


def test_removal_chain_order_independent():
    # skew_mn removes the parts largest first; the chain gives every order the same value
    for n in range(1, 7):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                start = {_mask(lam): 1}
                vals = {
                    _ribbon_chains(start, [-a for a in alpha]).get(0, 0)
                    for alpha in set(itertools.permutations(mu))
                }
                assert vals == {skew_mn(lam, mu)}


def test_skew_mn_errors():
    with pytest.raises(ParseError):
        skew_mn((3, 1), (2, 1))
    with pytest.raises(ParseError):
        skew_mn((3, 1), (), inner=(4,))


def test_skew_mn_order_independent():
    for n in range(1, 7):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                vals = {skew_mn(lam, alpha) for alpha in set(itertools.permutations(mu))}
                assert len(vals) == 1


def test_single_row_tilings():
    for n in range(1, 8):
        tilings = list(enumerate_monotonic((1,) * n))
        assert len(tilings) == 1
        assert tilings[0].shape == (n,)
        assert tilings[0].sign == 1


def test_empty_type():
    tilings = list(enumerate_monotonic(()))
    assert len(tilings) == 1
    t = tilings[0]
    assert t.shape == () and t.type == () and t.sign == 1


def test_census_321():
    tilings = list(enumerate_monotonic((3, 2, 1)))
    assert len(tilings) == 17
    assert sum(1 for t in tilings if t.sign == 1) == 11
    assert sum(1 for t in tilings if t.sign == -1) == 6
    assert {t.shape for t in tilings} == {
        (6,),
        (5, 1),
        (4, 2),
        (4, 1, 1),
        (3, 3),
        (3, 2, 1),
    }
    # the two (4, 2) tilings cancel, so the tally has no (4, 2) key
    assert sorted(t.sign for t in tilings if t.shape == (4, 2)) == [-1, 1]
    assert tiling_tally((3, 2, 1)) == {
        (6,): 6,
        (5, 1): -4,
        (4, 1, 1): 2,
        (3, 3): 2,
        (3, 2, 1): -1,
    }


def test_tiling_structure_invariants():
    for n in range(8):
        for mu in partitions_of(n):
            seen = set()
            for t in enumerate_monotonic(mu):
                assert tuple(sorted(t.type, reverse=True)) == mu
                assert t.depth == tuple(sorted(t.depth, reverse=True))
                assert list(t.tail_cols) == sorted(set(t.tail_cols))
                assert t.chain[0] == ()
                for a, b in zip(t.chain, t.chain[1:]):
                    assert contains(b, a)
                    assert is_ribbon(set(skew_cells(b, a)))
                if t.type:
                    assert t.shape[0] >= len(t.type)
                key = (t.type, t.depth)
                assert key not in seen
                seen.add(key)


def test_sign_comes_from_frozen_part():
    for n in range(8):
        for mu in partitions_of(n):
            for t in enumerate_monotonic(mu):
                frozen_signs = [s for s, d in zip(t.signs, t.depth) if d >= 2]
                assert t.sign == math.prod(frozen_signs)
                assert t.is_frozen() == all(d >= 2 for d in t.depth)


def test_tiling_from_type_depth():
    for mu in [(2, 1), (3, 2, 1), (2, 2), (4, 3)]:
        for t in enumerate_monotonic(mu):
            assert tiling_from_type_depth(t.type, t.depth) == t
    assert tiling_from_type_depth((5, 3, 3), (3, 2, 1)) is None
    assert tiling_from_type_depth((1, 1), (1, 2)) is None  # tails get no deeper left to right
    with pytest.raises(ParseError):
        tiling_from_type_depth((2, 1), (1,))


def test_tilings_hold_int_masks_and_decode_their_chain_on_read():
    for n in range(8):
        for mu in partitions_of(n):
            for t in enumerate_monotonic(mu):
                assert all(type(m) is int for m in t.masks)
                assert t.chain == tuple(map(_shape, t.masks)) and t.shape == t.chain[-1]
                rebuilt = tiling_from_type_depth(t.type, t.depth)
                assert all(type(m) is int for m in rebuilt.masks)
                assert rebuilt.chain == tuple(map(_shape, rebuilt.masks)) == t.chain
    assert not hasattr(MonotonicTiling, "size")


def test_tilings_carry_the_walks_prefix_signs():
    for n in range(8):
        for mu in partitions_of(n):
            for min_tail_row, extra_ones in ((1, 0), (2, 2)):
                for t in enumerate_monotonic(mu, min_tail_row, extra_ones):
                    assert len(t.prefix_signs) == len(t.masks) and t.prefix_signs[0] == 1
                    assert t.sign == t.prefix_signs[-1] == math.prod(t.signs)
                    # each ribbon's own sign, as the step that placed it gave it
                    steps = zip(t.masks, t.masks[1:], t.type, t.depth, t.tail_cols, t.signs)
                    for prev, cur, size, row, col, sign in steps:
                        assert (cur, sign, row, col) in _ribbon_step(prev, size)
                    assert tiling_from_type_depth(t.type, t.depth) == t


def test_tiling_tally_matches_a_tally_of_decoded_shapes():
    # same keys in the same order as tallying t.chain[-1]
    clear_caches()
    for n in range(10):
        for mu in partitions_of(n):
            decoded = {}
            for t in enumerate_monotonic(mu):
                decoded[t.chain[-1]] = decoded.get(t.chain[-1], 0) + t.sign
            expected = [(shape, v) for shape, v in decoded.items() if v]
            assert list(tiling_tally(mu).items()) == expected


def test_tiling_tally_decodes_each_nonzero_shape_once(monkeypatch):
    calls = []

    def counting_shape(m):
        calls.append(m)
        return _shape(m)

    monkeypatch.setattr(pathmn.ribbons, "_shape", counting_shape)
    clear_caches()
    tally = tiling_tally((4, 4, 3, 2, 1))
    assert len(calls) == len(tally) == len(set(calls))
    assert sum(1 for _ in enumerate_monotonic((4, 4, 3, 2, 1))) > 10 * len(tally)


def test_tiling_tally_is_read_only():
    # every caller gets the memo's own mapping: a write must not reach later answers
    clear_caches()
    tally = tiling_tally((2, 1))
    with pytest.raises(TypeError):
        tally[(2, 1)] = 0
    with pytest.raises(TypeError):
        del tally[(3,)]
    assert not any(hasattr(tally, name) for name in ("clear", "pop", "popitem", "update", "setdefault"))
    assert tiling_tally((2, 1)) is tally
    assert tally == {(3,): 2, (2, 1): -1}
    assert path_chi((2, 1), (2, 1)) == -1


def test_path_chi():
    assert path_chi((6,), (3, 2, 1)) == 6
    assert path_chi((3, 2, 1), (3, 2, 1)) == -1
    assert path_chi((4, 2), (3, 2, 1)) == 0
    for n in range(1, 7):
        # one tiling of type (1, ..., 1): every ribbon a single cell in row 1
        assert path_chi((n,), (1,) * n) == 1
    with pytest.raises(ParseError):
        path_chi((3,), (2, 2))


def test_frozen_set_small_type():
    base = frozen_set((3,), 4)
    assert len(base) == 4
    assert {(t.type, t.depth) for t in base} == {
        ((), ()),
        ((3,), (2,)),
        ((3,), (3,)),
        ((3, 1), (2, 2)),
    }
    assert frozen_set((3,), 5) == base
    assert frozen_set((3,), 8) == base
    assert len(frozen_set((3,), 3)) == 3


def test_frozen_set_stability_threshold():
    for mu in [(), (2,), (2, 2), (3, 2), (4,), (2, 2, 2), (3, 3)]:
        start = max(2 * (sum(mu) - len(mu)), sum(mu))
        ref = frozen_set(mu, start)
        assert frozen_set(mu, start + 1) == ref
        assert frozen_set(mu, start + 3) == ref
        assert all(t.is_frozen() for t in ref)
    assert len(frozen_set((), 5)) == 1


def test_frozen_set_errors():
    with pytest.raises(ParseError):
        frozen_set((2, 1), 5)
    with pytest.raises(ParseError):
        frozen_set((3,), 2)


def test_stable_expansion_values():
    assert dict(stable_expansion((2,), 6).items()) == {
        (6,): Fraction(120),
        (5, 1): Fraction(-24),
    }
    assert dict(stable_expansion((2, 2), 7).items()) == {
        (7,): Fraction(120),
        (6, 1): Fraction(-48),
        (5, 2): Fraction(12),
    }
    assert dict(stable_expansion((), 0).items()) == {(): Fraction(1)}
    for n in range(1, 6):
        assert dict(stable_expansion((), n).items()) == {
            (n,): Fraction(math.factorial(n))
        }


def test_stable_expansion_matches_tilings():
    for size in range(7):
        for mu in partitions_of(size):
            if any(p == 1 for p in mu):
                continue
            for n in range(size, size + 5):
                stable = dict(stable_expansion(mu, n).items())
                padded = pad_column(mu, n)
                tally = tiling_tally(padded)
                direct = {lam: mult_factorial(padded) * c for lam, c in tally.items()}
                assert stable == direct


def _cores(max_size):
    """Every partition with all parts >= 2 and size at most max_size, () included."""
    return [mu for size in range(max_size + 1) for mu in partitions_of(size) if 1 not in mu]


def _cap(core):
    return sum(core) - 2 * len(core)


def test_frozen_tilings_place_at_most_the_cap_of_singletons():
    # the table walks each core with its ones capped at |core| - 2 l(core)
    cores = _cores(12)
    assert len(cores) == 77
    for core in cores:
        offered = _cap(core) + 2
        placed = {t.type.count(1) for t in enumerate_monotonic(core, 2, offered)}
        assert max(placed) <= _cap(core), core


def _stable_terms_per_prefix(mu, n):
    """_stable_terms from the walk at n itself, uncapped and ungrouped: one multinomial per prefix."""
    ones = n - sum(mu)
    terms = {}
    for t in enumerate_monotonic(mu, 2, ones):
        left = multiplicities(mu + (1,) * ones)  # the sizes still to place
        for size in t.type:
            left[size] -= 1
        sigma = _extend_first_row(t.masks[-1], sum(size * c for size, c in left.items()))
        terms[sigma] = terms.get(sigma, 0) + t.sign * multinomial(sum(left.values()), left.values())
    prefactor = mult_factorial(mu) * math.factorial(ones)
    return {s: prefactor * c for s, c in terms.items() if c}


def test_stable_terms_match_the_per_prefix_sum():
    # the small terms times their prefactor m(mu)!·(n - |mu|)! are the expansion;
    # the terms stay small (a polynomial in n), the factorial is only in the prefactor
    for core in _cores(10):
        ns = list(range(sum(core), sum(core) + _cap(core) + 4)) + [100, 500, 1200]
        for n in ns:
            terms, prefactor = _stable_terms(core, n)
            assert prefactor == mult_factorial(core) * math.factorial(n - sum(core))
            scaled = {m: prefactor * c for m, c in terms.items()}
            assert scaled == _stable_terms_per_prefix(core, n), (core, n)
            assert all(c and abs(c).bit_length() < 100 for c in terms.values())


def test_a_core_is_walked_once_for_every_n():
    core = (4, 3, 2)
    clear_caches()
    threshold = 2 * (sum(core) - len(core))
    for n in (threshold, threshold + 1, 100, 1200):
        stable_expansion(core, n)
    info = _frozen_prefixes.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


def test_stable_expansion_first_row_gap():
    for mu, n in [((2,), 8), ((2, 2), 8), ((3, 2), 9), ((2, 2, 2), 9)]:
        bound = n - 2 * (sum(mu) - len(mu))
        for lam, _ in stable_expansion(mu, n).items():
            second = lam[1] if len(lam) > 1 else 0
            assert lam[0] - second >= bound


def test_stable_expansion_errors():
    with pytest.raises(ParseError):
        stable_expansion((2, 1), 7)
    with pytest.raises(ParseError):
        stable_expansion((3,), 2)


def test_render_tiling():
    grids = {render_tiling(t) for t in enumerate_monotonic((2, 2))}
    assert grids == {" 1  2\n 1* 2*", " 1  2* 2\n 1*", " 1* 1  2* 2"}
    (only,) = enumerate_monotonic(())
    assert render_tiling(only) == "(empty tiling)"


def test_clear_caches_is_safe():
    assert clear_caches is pathmn.ribbons.clear_caches
    exc4 = builtin("exc", 4)
    character_table(5)
    atomic_schur(PartialPermutation(6, (1, 2, 4), (2, 3, 4)))
    tiling_tally((2, 1))
    symmetrize(stat_product(exc4, exc4))
    before = skew_mn((4, 3, 1), (3, 2, 2, 1))
    # the coefficients share a factor of 2048 bits or more, whose Decimal is kept
    atomic_schur(PartialPermutation(1200, (1, 2, 4), (2, 3, 4))).render()
    # every memo of the package, found the way perfbench/tracer.py finds them
    memos = {
        f"{name}.{attr}": obj
        for name, mod in list(sys.modules.items())
        if name == "pathmn" or name.startswith("pathmn.")
        for attr, obj in vars(mod).items()
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == name
    }
    assert set(memos) >= {
        "pathmn.ribbons._ribbon_step",
        "pathmn.ribbons.tiling_tally",
        "pathmn.ribbons._frozen_prefixes",
        "pathmn.ribbons._factorial",
        "pathmn.symfunc._p_to_schur",
        "pathmn.symfunc._decimal",
        "pathmn.symfunc._parts_text",
        "pathmn.characters._atomic_from_type",
        "pathmn.statistics._table_product",
        "pathmn.statistics.symmetrize",
    }
    assert all(m.cache_info().currsize for m in memos.values())
    clear_caches()
    assert {k: m.cache_info().currsize for k, m in memos.items()} == dict.fromkeys(memos, 0)
    assert pathmn.ribbons._last_factorial == [0, 1]  # the factorial held for the next step is let go
    assert skew_mn((4, 3, 1), (3, 2, 2, 1)) == before


def test_a_factorial_is_stepped_from_the_last_one_built(monkeypatch):
    # within _FACTORIAL_STEP = 64 factors of the last factorial built, up or
    # down, k! is that one times or divided by the factors between
    factorial, built = math.factorial, []
    monkeypatch.setattr(math, "factorial", lambda k: built.append(k) or factorial(k))
    clear_caches()
    ks = [500, 503, 498, 434, 503, 600, 665, 0, 64, 3]
    assert [_factorial(k) for k in ks] == [factorial(k) for k in ks]
    assert built == [500, 600, 665, 0]  # 503 again is a memo hit; 600 is 166 past 434, 665 65 past 600


def test_one_step_leaves_at_least_r_shapes():
    # the top bead of each of the r runners moves: the chain refuses r past its
    # limit before building the step, and the walk a part past its node limit
    for n in range(11):
        for lam in partitions_list(n):
            for r in range(1, 16):
                assert len(_ribbon_step.__wrapped__(_mask(lam), r)) >= r
    for r in range(1, 16):
        hooks = _ribbon_step.__wrapped__(0, r)
        assert len(hooks) == r and sum(row >= 2 for _, _, row, _ in hooks) == r - 1
