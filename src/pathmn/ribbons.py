"""Ribbon additions, standard ribbon tableau counts, and monotonic tilings.

A ribbon (rim hook) is an edgewise-connected skew shape with no 2x2 square;
its tail is the southwesternmost cell and its sign is (-1)^(rows occupied - 1).

Ribbon additions are generated with the exponent-vector criterion: with
beta = lam + delta strictly decreasing, adding r to one entry either collides
with another entry (no ribbon there) or, after re-sorting, yields the unique
ribbon addition whose tail sits in the bumped row; the sign is the parity of
the re-sort. This is also the kernel the alternant oracle uses, so the two are
cross-checked in the test suite via an independent tableau-free route.
"""

import math
from dataclasses import dataclass, field
from functools import cache, reduce

from pathmn.errors import ParseError
from pathmn.partitions import (
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


_MEMOS = []  # every memo in the package; this module sits below all that hold one


def memo(fn):
    """functools.cache, registered so that clear_caches() empties it."""
    cached = cache(fn)
    _MEMOS.append(cached)
    return cached


def clear_caches():
    """Empty every memo in the package."""
    for m in _MEMOS:
        m.cache_clear()


@dataclass(frozen=True)
class RibbonAddition:
    base: tuple
    result: tuple
    size: int
    tail_row: int  # 1-based row of the tail (deepest row of the ribbon)
    tail_col: int  # 1-based column of the tail
    sign: int


def add_ribbons(lam, r: int) -> list:
    """All partitions obtained from lam by adding one ribbon of size r."""
    if r < 1:
        raise ParseError(f"ribbon size must be >= 1, got {r}")
    lam = tuple(lam)
    n_rows = len(lam) + r
    beta = [(lam[i] if i < len(lam) else 0) + (n_rows - 1 - i) for i in range(n_rows)]
    taken = set(beta)
    out = []
    for i, b in enumerate(beta):
        new = b + r
        if new in taken:
            continue
        gamma = sorted([new] + beta[:i] + beta[i + 1:], reverse=True)
        pos = gamma.index(new)
        nu = []
        for j, g in enumerate(gamma):
            part = g - (n_rows - 1 - j)
            if part:
                nu.append(part)
        out.append(
            RibbonAddition(
                base=lam,
                result=tuple(nu),
                size=r,
                tail_row=i + 1,
                tail_col=(lam[i] if i < len(lam) else 0) + 1,
                sign=-1 if (i - pos) % 2 else 1,
            )
        )
    return out


def skew_mn(outer, alpha, inner=()) -> int:
    """Signed count of standard ribbon tableaux of shape outer/inner, sizes alpha.

    For inner = () this is the irreducible character value chi^outer_alpha.
    The value does not depend on the order of alpha (tested); alpha is consumed
    left to right.
    """
    from pathmn.symfunc import _ribbon_chains

    outer = check_partition(outer)
    inner = check_partition(inner)
    alpha = tuple(alpha)
    if sum(outer) - sum(inner) != sum(alpha):
        raise ParseError(
            f"size mismatch: |{outer}/{inner}| = {sum(outer) - sum(inner)}"
            f" but |alpha| = {sum(alpha)}"
        )
    if not contains(outer, inner):
        raise ParseError(f"{inner} not contained in {outer}")
    return _ribbon_chains({inner: 1}, alpha, outer).get(outer, 0)


@dataclass(frozen=True)
class MonotonicTiling:
    """Ribbon decomposition with column-distinct tails, shallower left to right.

    chain holds the prefix partitions () = lam^0 < ... < lam^r; type/depth are
    the ribbon sizes and tail rows read left to right, tail_cols the (strictly
    increasing) tail columns. (type, depth) determines the tiling uniquely.
    """

    chain: tuple
    type: tuple
    depth: tuple
    tail_cols: tuple
    signs: tuple = field(compare=False)

    @property
    def shape(self) -> tuple:
        return self.chain[-1]

    @property
    def sign(self) -> int:
        return reduce(lambda a, b: a * b, self.signs, 1)

    @property
    def size(self) -> int:
        return sum(self.type)

    def is_frozen(self) -> bool:
        return all(row >= 2 for row in self.depth)


def enumerate_monotonic(mu, min_tail_row: int = 1, extra_ones: int = 0):
    """Depth-first stream of monotonic tilings with ribbon-size multiset mu.

    Ribbons are placed left to right; at each step every remaining size is
    offered at every legal tail strictly right of the previous tail and weakly
    shallower. Candidates sort by (tail column, size, resulting shape) so the
    output order is deterministic.

    min_tail_row = 2 restricts to frozen tilings; extra_ones adds that many
    optional size-1 ribbons to the multiset (used for frozen enumeration where
    trailing singletons may be left unplaced).
    """
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    remaining = multiplicities(mu)
    if extra_ones:
        remaining[1] = remaining.get(1, 0) + extra_ones
    chain = [()]
    types, depths, cols, signs = [], [], [], []

    def dfs(last_col, last_depth):
        # complete tilings, and in a frozen search every prefix (itself frozen)
        if min_tail_row > 1 or not any(remaining.values()):
            yield MonotonicTiling(
                chain=tuple(chain),
                type=tuple(types),
                depth=tuple(depths),
                tail_cols=tuple(cols),
                signs=tuple(signs),
            )
            if not any(remaining.values()):
                return
        candidates = []
        for size, count in remaining.items():
            if not count:
                continue
            for add in add_ribbons(chain[-1], size):
                if add.tail_col > last_col and add.tail_row <= last_depth \
                        and add.tail_row >= min_tail_row:
                    candidates.append(add)
        candidates.sort(key=lambda a: (a.tail_col, a.size, a.result))
        for add in candidates:
            remaining[add.size] -= 1
            chain.append(add.result)
            types.append(add.size)
            depths.append(add.tail_row)
            cols.append(add.tail_col)
            signs.append(add.sign)
            yield from dfs(add.tail_col, add.tail_row)
            remaining[add.size] += 1
            chain.pop()
            types.pop()
            depths.pop()
            cols.pop()
            signs.pop()

    yield from dfs(0, float("inf"))


def tiling_from_type_depth(alpha, depths):
    """The unique monotonic tiling with the given type and tail depths, or None.

    Reconstruction is forced: the i-th ribbon must be the (unique, if any)
    size alpha_i addition whose tail lands in row depths_i.
    """
    alpha = tuple(alpha)
    depths = tuple(depths)
    if len(alpha) != len(depths):
        raise ParseError("type and depth sequences must have equal length")
    if any(depths[i] < depths[i + 1] for i in range(len(depths) - 1)):
        return None
    chain = [()]
    cols, signs = [], []
    last_col = 0
    for size, row in zip(alpha, depths):
        match = [a for a in add_ribbons(chain[-1], size) if a.tail_row == row]
        if not match or match[0].tail_col <= last_col:
            return None
        add = match[0]
        chain.append(add.result)
        cols.append(add.tail_col)
        signs.append(add.sign)
        last_col = add.tail_col
    return MonotonicTiling(
        chain=tuple(chain),
        type=alpha,
        depth=depths,
        tail_cols=tuple(cols),
        signs=tuple(signs),
    )


@memo
def tiling_tally(mu) -> dict:
    """shape -> sum of sign(T) over monotonic tilings with size multiset mu."""
    tally = {}
    for t in enumerate_monotonic(mu):
        tally[t.shape] = tally.get(t.shape, 0) + t.sign
    return {shape: v for shape, v in tally.items() if v}


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
    padded partition (tested), but costs O(frozen set) instead.
    """
    from pathmn.symfunc import SCHUR, SymExpansion

    return SymExpansion(SCHUR, n, _stable_terms(_check_stable_mu(mu, n), n))


def _stable_terms(mu, n: int) -> dict:
    """stable_expansion as {shape: int}, for a mu that passed _check_stable_mu."""
    ones = n - sum(mu)
    mults = multiplicities(mu)
    prefactor = mult_factorial(mu) * math.factorial(ones)
    terms = {}
    for t0 in enumerate_monotonic(mu, min_tail_row=2, extra_ones=ones):
        rho = multiplicities(t0.type)
        tropical = ones + len(mu) - len(t0.type)
        parts = [ones - rho.get(1, 0)]
        parts += [mults[i] - rho.get(i, 0) for i in sorted(mults)]
        sigma = _extend_first_row(t0.shape, n)
        terms[sigma] = terms.get(sigma, 0) + t0.sign * multinomial(tropical, parts)
    return {s: prefactor * c for s, c in terms.items() if c}


def _extend_first_row(shape, n):
    if not shape:
        return (n,) if n else ()
    return (shape[0] + n - sum(shape),) + shape[1:]


def render_tiling(t: MonotonicTiling) -> str:
    """ASCII grid: each cell shows its ribbon's 1-based index, tails marked *."""
    shape = t.shape
    if not shape:
        return "(empty tiling)"
    owner = {}
    for step in range(1, len(t.chain)):
        prev, cur = t.chain[step - 1], t.chain[step]
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
