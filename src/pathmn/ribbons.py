"""Ribbon additions, standard ribbon tableau counts, and monotonic tilings.

A ribbon (rim hook) is an edgewise-connected skew shape with no 2x2 square;
its tail is the southwesternmost cell and its sign is (-1)^(rows occupied - 1).

Inside the package a shape is an int, its Maya diagram: lam with l parts has a
bead at bit lam_i + l - i for each row i, so () is 0. Every ribbon is one abacus
step, _ribbon_step: move a bead from b to an empty b + r, up to add an r-ribbon
(after padding by r beads) or down to remove a |r|-ribbon, strip the trailing
beads. The sign is the parity of the beads jumped.
Chains and walks step the same shapes over and over, so the step is memoized
once for every caller, in a memo bounded to the _MAX_STEPS steps used last.
Public results are tuples: a tiling keeps the walk's masks and decodes its
chain and shape when read. The alternant oracle stays on tuples, independent.

Two loops run on the step, each guarded by counting what it holds: the
Murnaghan-Nakayama chain _ribbon_chains (power sums, cycle parts; up or down)
refuses a step that leaves over _MAX_SHAPES shapes, and the tiling walk
enumerate_monotonic past _MAX_NODES nodes. PATHMN_MAX_N replaces both.
Both are loops (the walk keeps a stack of candidate iterators), so no part
takes a stack frame. Path power sums walk only the frozen prefixes of their core
(parts >= 2), once for every n (_frozen_prefixes), so that walk is counted once;
at n their expansion is small ints times one prefactor m(mu)!·(n - |mu|)!, so a
chain run on it carries no factorial, and the factorials of the last n are kept.
"""

import math
from functools import lru_cache, partial
from types import MappingProxyType
from typing import NamedTuple

from pathmn.errors import ParseError, effective_limit, refusal
from pathmn.partitions import (
    check_composition,
    check_partition,
    contains,
    mult_factorial,
    multinomial,
    multiplicities,
)

__all__ = [
    "RibbonAddition",
    "MonotonicTiling",
    "add_ribbons",
    "skew_mn",
    "enumerate_monotonic",
    "tiling_from_type_depth",
    "tiling_tally",
    "path_chi",
    "frozen_set",
    "stable_expansion",
    "render_tiling",
    "clear_caches",
]


_MAX_SHAPES = 5604  # p(30), all of p_{1^30}: p-expand 1^30 takes 0.4 s, 1^40 (37338) 2.4 s
_MAX_NODES = 100_000  # about 1.3 s of walking; path-expand 4,4,3,3,2,2,1,1 --show-tilings visits 52,074
_MAX_STEPS = 1 << 13  # table 20 steps 5632 distinct inputs; at n = 1200 a step holds ~1.5 kB
_MAX_FACTORIALS = 64  # (n - |mu|)! of the last few n; at n = 1200 one is 10,000 bits
_FACTORIAL_STEP = 64  # factors between a factorial and the last one built, stepped over, not rebuilt

_MEMOS = []  # every memo in the package; this module sits below all that hold one


def memo(fn=None, *, maxsize=None):
    """functools.cache, registered so that clear_caches() empties it; as
    memo(maxsize=k), an lru_cache that keeps the k results used last."""
    if fn is None:
        return partial(memo, maxsize=maxsize)
    cached = lru_cache(maxsize=maxsize)(fn)
    _MEMOS.append(cached)
    return cached


def clear_caches():
    """Empty every memo in the package, and forget the last factorial built."""
    for m in _MEMOS:
        m.cache_clear()
    _last_factorial[:] = 0, 1


class RibbonAddition(NamedTuple):
    base: tuple
    result: tuple
    size: int
    tail_row: int  # 1-based row of the tail (deepest row of the ribbon)
    tail_col: int  # 1-based column of the tail
    sign: int


def _mask(lam) -> int:
    """Maya mask of the partition lam."""
    return sum(1 << (part + i) for i, part in enumerate(reversed(lam)))


def _shape(m) -> tuple:
    """The partition with Maya mask m, read bead by bead from the top."""
    parts = []
    while m:
        b = m.bit_length() - 1
        m ^= 1 << b
        parts.append(b - m.bit_count())
    return tuple(parts)


@memo(maxsize=_MAX_STEPS)
def _ribbon_step(m, r) -> tuple:
    """Every ribbon of size |r| added to m (r > 0) or removed from it (r < 0), top
    bead first: (result mask, sign, tail row, tail col). With k = |r| a bead moves
    between b and b + k; the tail row is 1 + the beads above b with the moved
    bead at b, the tail column 1 + the gaps below b."""
    k, up = abs(r), r > 0
    p = (m << r) | ((1 << r) - 1) if up else m
    free = p & ~(p >> k) if up else ~p & (p >> k)  # a bead moves up from b, or down to b
    beads = p.bit_count()
    jumped = (1 << (k - 1)) - 1
    out = []
    while free:
        b = free.bit_length() - 1
        free ^= 1 << b
        above = p >> (b + 1)
        row = above.bit_count() + up  # moving down, the bead at b + k is one above b
        q = p ^ (1 << b) ^ (1 << (b + k))
        q >>= (q ^ (q + 1)).bit_length() - 1  # strip the empty rows
        out.append((q, -1 if (above & jumped).bit_count() & 1 else 1, row, b + row + 1 - beads))
    return tuple(out)


def add_ribbons(lam, r: int) -> list:
    """All partitions obtained from lam by adding one ribbon of size r."""
    if r < 1:
        raise ParseError(f"ribbon size must be >= 1, got {r}")
    lam = tuple(lam)
    return [
        RibbonAddition(base=lam, result=_shape(q), size=r, tail_row=row, tail_col=col, sign=sign)
        for q, sign, row, col in _ribbon_step(_mask(lam), r)
    ]


def _ribbon_chains(terms, alpha, floor=()) -> dict:
    """Step one ribbon of each size in alpha, in order, on every shape of a
    {mask: coefficient} dict, dropping zeros: a size r > 0 adds an r-ribbon,
    r < 0 removes a |r|-ribbon, so a chain run down stays inside its shapes.
    It also drops the shapes that do not contain floor, which no removal regains.
    Refused once a step leaves more than _MAX_SHAPES shapes. One addition to
    a shape leaves at least r shapes (the top bead of each of the r runners of
    the abacus moves), so an r past the limit is refused before it is built."""
    limit = effective_limit(_MAX_SHAPES)
    for r in alpha:
        if terms and r > limit:
            raise refusal("ribbon chain shapes", f"at least {r}", limit)
        out = {}
        for m, c in terms.items():
            for q, sign, _, _ in _ribbon_step(m, r):
                out[q] = out.get(q, 0) + sign * c
        terms = {m: c for m, c in out.items() if c and (not floor or contains(_shape(m), floor))}
        if len(terms) > limit:
            raise refusal("ribbon chain shapes", len(terms), limit)
    return terms


def skew_mn(outer, alpha, inner=()) -> int:
    """Signed count of standard ribbon tableaux of shape outer/inner, sizes alpha.

    For inner = () this is the irreducible character value chi^outer_alpha.
    The value does not depend on the order of alpha (tested); its ribbons are
    removed from outer largest first, keeping the shapes that contain inner.
    """
    outer = check_partition(outer)
    inner = check_partition(inner)
    alpha = check_composition(alpha)
    if sum(outer) - sum(inner) != sum(alpha):
        raise ParseError(
            f"size mismatch: |{outer}/{inner}| = {sum(outer) - sum(inner)}"
            f" but |alpha| = {sum(alpha)}"
        )
    if not contains(outer, inner):
        raise ParseError(f"{inner} not contained in {outer}")
    return _ribbon_chains({_mask(outer): 1}, sorted(-r for r in alpha), inner).get(_mask(inner), 0)


class MonotonicTiling(NamedTuple):
    """Ribbon decomposition with column-distinct tails, shallower left to right.

    masks holds the prefix partitions () = lam^0 < ... < lam^r as Maya masks, which
    chain and shape decode when read; type/depth are the ribbon sizes and tail
    rows read left to right, tail_cols the (strictly increasing) tail columns,
    prefix_signs the sign of each prefix, 1 for lam^0: the last is sign, and
    signs reads each ribbon's sign off consecutive ones.
    (type, depth) determines the tiling uniquely.
    """

    masks: tuple
    type: tuple
    depth: tuple
    tail_cols: tuple
    prefix_signs: tuple

    @property
    def chain(self) -> tuple:
        return tuple(map(_shape, self.masks))

    @property
    def shape(self) -> tuple:
        return _shape(self.masks[-1])

    @property
    def sign(self) -> int:
        return self.prefix_signs[-1]

    @property
    def signs(self) -> tuple:
        return tuple(a * b for a, b in zip(self.prefix_signs, self.prefix_signs[1:]))

    def is_frozen(self) -> bool:
        return all(row >= 2 for row in self.depth)


def enumerate_monotonic(mu, min_tail_row: int = 1, extra_ones: int = 0):
    """Depth-first stream of monotonic tilings with ribbon-size multiset mu.

    Ribbons are placed left to right; at each step every remaining size is
    offered at every legal tail strictly right of the previous tail and weakly
    shallower. Candidates sort by (tail column, size, resulting shape) so the
    output order is deterministic.

    min_tail_row = 2 restricts to frozen tilings and yields every prefix, each
    itself frozen; extra_ones adds that many optional size-1 ribbons to the
    multiset (used for frozen enumeration where trailing singletons may be left
    unplaced). A loop over a stack of each node's untried candidates, nodes in
    pre-order. Refused past _MAX_NODES nodes, and before any step when a part
    alone must pass them.
    """
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    remaining = multiplicities(mu)
    if extra_ones:
        remaining[1] = remaining.get(1, 0) + extra_ones
    limit = effective_limit(_MAX_NODES)
    # the root's step of size r alone has r - 1 or more children, so it must pass the limit
    if max(remaining, default=0) > limit:
        raise refusal("monotonic walk nodes", limit + 1, limit)
    masks, types, depths, cols, prefix = [0], [], [], [], [1]  # the tiling so far, root first
    m, sign, last_row, last_col = 0, 1, math.inf, 0  # the node's mask, sign and last tail
    full = sum(remaining.values())  # the ribbons of a complete tiling
    pending = []  # per node from the root down, its candidates not yet tried
    for _ in range(limit):  # one pass per node
        if min_tail_row > 1 or len(types) == full:
            yield MonotonicTiling(tuple(masks), tuple(types), tuple(depths), tuple(cols), tuple(prefix))
        # a lower tail gives a smaller shape: this is (tail column, size, shape) order
        pending.append(iter(sorted(
            (col, size, -row, q, s * sign)
            for size, count in remaining.items() if count
            for q, s, row, col in _ribbon_step(m, size)
            if col > last_col and min_tail_row <= row <= last_row
        )))
        while (step := next(pending[-1], None)) is None:
            pending.pop()
            if not pending:
                return
            masks.pop(), depths.pop(), cols.pop(), prefix.pop()
            remaining[types.pop()] += 1
        last_col, size, last_row, m, sign = step
        last_row = -last_row
        remaining[size] -= 1
        masks.append(m), types.append(size), depths.append(last_row)
        cols.append(last_col), prefix.append(sign)
    raise refusal("monotonic walk nodes", limit + 1, limit)


def tiling_from_type_depth(alpha, depths):
    """The unique monotonic tiling with the given type and tail depths, or None.

    Reconstruction is forced: the i-th ribbon must be the (unique, if any)
    size alpha_i addition whose tail lands in row depths_i.
    """
    alpha = check_composition(alpha)
    depths = tuple(depths)
    if len(alpha) != len(depths):
        raise ParseError("type and depth sequences must have equal length")
    if any(depths[i] < depths[i + 1] for i in range(len(depths) - 1)):
        return None
    steps = [(0, 1, 0, 0)]  # (mask, sign so far, tail row, tail column) from the empty shape
    for size, row in zip(alpha, depths):
        match = [add for add in _ribbon_step(steps[-1][0], size) if add[2] == row]
        if not match or match[0][3] <= steps[-1][3]:
            return None
        q, sign, _, col = match[0]
        steps.append((q, sign * steps[-1][1], row, col))
    masks, prefix, _, cols = zip(*steps)
    return MonotonicTiling(masks, alpha, depths, cols[1:], prefix)


@memo
def tiling_tally(mu) -> MappingProxyType:
    """shape -> sum of sign(T) over monotonic tilings with size multiset mu, by
    last mask; read-only, since every caller shares the memo's mapping."""
    tally = {}
    for t in enumerate_monotonic(mu):
        tally[t.masks[-1]] = tally.get(t.masks[-1], 0) + t.sign
    return MappingProxyType({_shape(m): v for m, v in tally.items() if v})


def path_chi(lam, mu) -> int:
    """Signed count of monotonic tilings of shape lam with ribbon sizes mu."""
    lam = check_partition(lam)
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    if sum(lam) != sum(mu):
        raise ParseError(f"size mismatch: |{lam}| != |{mu}|")
    return tiling_tally(mu).get(lam, 0)


def frozen_set(mu, n: int) -> frozenset:
    """Frozen tilings (every tail below row 1) available at ambient degree n.

    Size budget: at most m_i(mu) ribbons of each size i >= 2 and at most
    n - |mu| singletons. The set stops changing once n >= 2(|mu| - l(mu)).
    """
    mu = _check_stable_mu(mu, n)
    return frozenset(enumerate_monotonic(mu, min_tail_row=2, extra_ones=n - sum(mu)))


def _check_stable_mu(mu, n):
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    if any(p < 2 for p in mu):
        raise ParseError(f"stable form needs all parts >= 2, got {mu}")
    if n < sum(mu):
        raise ParseError(f"need n >= |mu| = {sum(mu)}, got {n}")
    return mu


def stable_expansion(mu, n: int):
    """Schur expansion of the path power sum of mu padded with 1s to degree n.

    Sum over frozen tilings T0: the tropical ribbons all have tails in row 1,
    so they are determined by their left-to-right size order; the multinomial
    counts those orders, and the resulting shape is shape(T0) with the first
    row extended to total size n. Equals the direct tiling enumeration of the
    padded partition (tested). The frozen walk of mu is done once for every n
    (_frozen_prefixes); each n then costs one pass over its table.
    """
    from pathmn.symfunc import SCHUR, SymExpansion

    terms, prefactor = _stable_terms(_check_stable_mu(mu, n), n)
    return SymExpansion._trusted(SCHUR, n, 1, {m: prefactor * c for m, c in terms.items()})


_last_factorial = [0, 1]  # k and k! of the last factorial _factorial built


@memo(maxsize=_MAX_FACTORIALS)
def _factorial(k) -> int:
    """k!: the (n - |mu|)! of one n recurs in every expansion at that n. The
    factorials of one n (n! and each (n - |mu|)!) lie a few factors apart, so
    within _FACTORIAL_STEP factors of the last one built, k! is that one times
    or divided by the factors between, in time linear in its size."""
    j, last = _last_factorial
    if j <= k <= j + _FACTORIAL_STEP:
        out = last * math.prod(range(j + 1, k + 1))
    elif k < j <= k + _FACTORIAL_STEP:
        out = last // math.prod(range(k + 1, j + 1))
    else:
        out = math.factorial(k)
    _last_factorial[:] = k, out
    return out


def _stable_terms(mu, n: int) -> tuple:
    """stable_expansion as (terms, prefactor), for a mu that passed _check_stable_mu:
    the expansion is prefactor = m(mu)!·(n - |mu|)! times the small ints {mask: int}.

    With rest of the ones left unplaced, a prefix's tropical orders number
    multinomial(s + rest; counts, rest) = multinomial(s; counts) * C(s + rest, rest).
    """
    ones = n - sum(mu)
    terms = {}
    for m, cells, s, placed, w in _frozen_prefixes(mu, min(ones, sum(mu) - 2 * len(mu))):
        rest = ones - placed
        sigma = _extend_first_row(m, cells + rest)
        terms[sigma] = terms.get(sigma, 0) + w * math.comb(s + rest, rest)
    return {sigma: c for sigma, c in terms.items() if c}, mult_factorial(mu) * _factorial(ones)


@memo
def _frozen_prefixes(mu, ones) -> tuple:
    """The frozen walk of mu with ones optional singletons, summed up for every n.

    One (mask, cells, s, placed, w) per class of prefixes: the s unplaced parts
    >= 2 cover cells cells, placed singletons were placed, and w sums
    sign * multinomial(s; counts of the unplaced parts >= 2); zero w dropped.
    Signs are summed by (last mask, sizes placed) first: one multinomial a group.
    No frozen tiling places more than |mu| - 2 l(mu) singletons (tested), so
    callers cap ones there and one walk serves every larger n.
    """
    signs = {}  # (last mask, sizes placed) -> sum of the prefixes' signs
    for t in enumerate_monotonic(mu, 2, ones):
        key = (t.masks[-1], *sorted(t.type))
        signs[key] = signs.get(key, 0) + t.sign
    table = {}
    for (m, *placed), sign in signs.items():
        placed_ones = placed.count(1)  # sorted, so the singletons come first
        left = multiplicities(mu)
        for size in placed[placed_ones:]:
            left[size] -= 1
        key = (m, sum(size * c for size, c in left.items()), sum(left.values()), placed_ones)
        table[key] = table.get(key, 0) + sign * multinomial(key[2], left.values())
    return tuple(key + (w,) for key, w in table.items() if w)


def _extend_first_row(m, cells):
    if not m:
        return 1 << cells if cells else 0
    top = m.bit_length() - 1
    return m ^ (1 << top) ^ (1 << (top + cells))


def render_tiling(t: MonotonicTiling) -> str:
    """ASCII grid: each cell shows its ribbon's 1-based index, tails marked *."""
    shape = t.shape
    if not shape:
        return "(empty tiling)"
    owner = {}
    chain = t.chain  # a property: each read decodes every mask
    for step, (prev, cur) in enumerate(zip(chain, chain[1:]), start=1):
        for r in range(len(cur)):
            before = prev[r] if r < len(prev) else 0
            for c in range(before, cur[r]):
                owner[(r + 1, c + 1)] = step
    lines = []
    for r in range(1, len(shape) + 1):
        cells = []
        for c in range(1, shape[r - 1] + 1):
            idx = owner[(r, c)]
            mark = "*" if (t.depth[idx - 1] == r and t.tail_cols[idx - 1] == c) else " "
            cells.append(f"{idx:>2}{mark}")
        lines.append("".join(cells).rstrip())
    return "\n".join(lines)
