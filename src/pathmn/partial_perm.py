"""Partial permutations and their directed-graph decomposition.

A partial permutation on [n] is a pair of equal-length injective sequences
(I, J) prescribing w(i_p) = j_p. Drawing the edges i_p -> j_p on the vertex set
[n] gives a functional graph whose components are directed paths and cycles;
the multisets of component sizes (vertex counts) are the path type and cycle
type. Isolated vertices count as paths of size 1, fixed points as cycles of
size 1.
"""

import math
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple, Optional

from pathmn.errors import ParseError, read_int
from pathmn.partitions import _list_items, partitions_of, syt_count

__all__ = [
    "PartialPermutation",
    "GraphType",
    "IndicatorTerm",
    "decompose",
    "pack",
    "embed",
    "local_dimension",
    "parse_pp",
    "format_pp",
    "pp_from_graph_type",
]


class PartialPermutation(NamedTuple("PartialPermutation", [("n", int), ("I", tuple), ("J", tuple)])):
    __slots__ = ()

    def __new__(cls, n, I, J):
        I, J = tuple(I), tuple(J)
        if n < 0:
            raise ParseError(f"ambient size must be nonnegative, got {n}")
        if len(I) != len(J):
            raise ParseError(f"|I| = {len(I)} but |J| = {len(J)}")
        for side, name in ((I, "I"), (J, "J")):
            if len(set(side)) != len(side):
                raise ParseError(f"{name} has repeated entries: {side}")
            for v in side:
                if not (1 <= v <= n):
                    raise ParseError(f"{name} entry {v} outside [1..{n}]")
        return super().__new__(cls, n, I, J)

    @classmethod
    def _make(cls, fields):
        """The namedtuple's _make, which _replace calls, through the checks above."""
        return cls(*fields)

    @property
    def k(self) -> int:
        return len(self.I)

    def pairs(self):
        return tuple(zip(self.I, self.J))

    def canonical(self) -> "PartialPermutation":
        """Constraint pairs sorted ascending by source index."""
        ps = sorted(zip(self.I, self.J))
        return PartialPermutation(self.n, tuple(i for i, _ in ps), tuple(j for _, j in ps))


class GraphType(NamedTuple):
    path_type: tuple
    cycle_type: tuple


class IndicatorTerm(NamedTuple):
    coeff: Fraction
    pp: PartialPermutation


def decompose(pp: PartialPermutation) -> GraphType:
    """Path and cycle type of (I, J); the isolated vertices are the size-1 paths."""
    paths, cycles = _graph_type(pp.pairs())
    isolated = pp.n - sum(paths) - sum(cycles)
    return GraphType(paths + (1,) * isolated, cycles)


def _graph_type(pairs) -> tuple:
    """(paths, cycles): the sizes of the components of the edges i -> j of a
    tuple of injective pairs, each sorted descending.

    Only the vertices of I u J are walked: paths from their unique source (a
    vertex of I outside J), then cycles. Every walked path has at least 2
    vertices; the isolated vertices are left to the caller.
    """
    succ = dict(pairs)
    targets = set(succ.values())
    paths = []
    for v, _ in pairs:
        if v in targets:
            continue
        size = 1
        while v in succ:
            v = succ.pop(v)
            size += 1
        paths.append(size)
    cycles = []
    while succ:
        start, v = succ.popitem()
        size = 1
        while v != start:
            v = succ.pop(v)
            size += 1
        cycles.append(size)
    return tuple(sorted(paths, reverse=True)), tuple(sorted(cycles, reverse=True))


def pack(pp: PartialPermutation):
    """Relabel I u J onto {1..r} preserving order; returns (packed, relabeling).

    Packed pairs have no isolated vertices, so packing drops exactly the
    size-1 paths from the decomposition.
    """
    support = sorted(set(pp.I) | set(pp.J))
    relabel = {v: t + 1 for t, v in enumerate(support)}
    packed = PartialPermutation(
        len(support),
        tuple(relabel[v] for v in pp.I),
        tuple(relabel[v] for v in pp.J),
    )
    return packed, relabel


def embed(pp: PartialPermutation, n: int) -> PartialPermutation:
    """The same constraint pairs viewed inside a larger ambient set [n]."""
    if n < pp.n and any(v > n for v in pp.I + pp.J):
        raise ParseError(f"cannot embed {format_pp(pp)} into [1..{n}]")
    return PartialPermutation(n, pp.I, pp.J)


def local_dimension(n: int, k: int) -> int:
    """dim of the span of k-local indicators: sum of f_lam^2 over lam_1 >= n-k.

    Equivalently the number of w in S_n whose longest increasing subsequence
    has length at least n-k (checked against brute force in the tests). Those
    lam = (n-j, nu), nu a partition of j <= k with nu_1 <= n-j, and the rest,
    the partitions of n into parts <= n-k-1, are listed in step, holding none;
    only the side that ends first is listed again and summed (the rest as n!
    minus its sum, since all the f_lam^2 sum to n!).
    """
    if not (0 <= k <= n - 1):
        raise ParseError(f"need 0 <= k <= n-1, got k={k}, n={n}")

    def near():
        return ((n - j, *nu) for j in range(k + 1) for nu in partitions_of(j, n - j))

    def rest():
        return partitions_of(n, n - k - 1)

    for a, b in zip_longest(near(), rest()):
        if a is None:
            break
        if b is None:
            return math.factorial(n) - sum(syt_count(lam) ** 2 for lam in rest())
    return sum(syt_count(lam) ** 2 for lam in near())


def parse_pp(text: str, n: int) -> PartialPermutation:
    """Parse "1,4,5 -> 2,5,6" (either side may be empty) at ambient size n."""
    pieces = text.split("->")  # _list_items strips each side
    if len(pieces) != 2:
        raise ParseError(f"expected 'I -> J', got {text!r}")

    def side(s):
        s, items = _list_items(s)
        digits = "".join(items)
        # tokens of at most 18 ASCII digits fit an index: read at once, the rest one by one
        if digits.isascii() and digits.isdigit() and len(max(items, key=len)) <= 18:
            return tuple(map(int, items))
        try:
            return tuple(map(read_int, items))
        except ParseError:
            raise ParseError(f"bad index list {s!r} in {text!r}") from None

    return PartialPermutation(n, side(pieces[0]), side(pieces[1]))


def format_pp(pp: PartialPermutation) -> str:
    return ",".join(map(str, pp.I)) + " -> " + ",".join(map(str, pp.J))


def pp_from_graph_type(gt: GraphType, n: Optional[int] = None) -> PartialPermutation:
    """Canonical representative with the prescribed path and cycle type.

    Vertices are used consecutively: each path a -> a+1 -> ... and each cycle
    closed back to its first vertex.
    """
    total = sum(gt.path_type) + sum(gt.cycle_type)
    if n is None:
        n = total
    if n != total:
        raise ParseError(f"graph type fills {total} vertices, not {n}")
    I, J = [], []
    v = 1
    for size in gt.path_type:
        for step in range(size - 1):
            I.append(v + step)
            J.append(v + step + 1)
        v += size
    for size in gt.cycle_type:
        for step in range(size - 1):
            I.append(v + step)
            J.append(v + step + 1)
        I.append(v + size - 1)
        J.append(v)
        v += size
    return PartialPermutation(n, tuple(I), tuple(J))
