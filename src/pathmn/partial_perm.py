"""Partial permutations and their directed-graph decomposition.

A partial permutation on [n] is a pair of equal-length injective sequences
(I, J) prescribing w(i_p) = j_p. Drawing the edges i_p -> j_p on the vertex set
[n] gives a functional graph whose components are directed paths and cycles;
the multisets of component sizes (vertex counts) are the path type and cycle
type. Isolated vertices count as paths of size 1, fixed points as cycles of
size 1.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from pathmn.errors import ParseError, read_int
from pathmn.partitions import partitions_of, syt_count

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


@dataclass(frozen=True)
class PartialPermutation:
    n: int
    I: tuple
    J: tuple

    def __post_init__(self):
        I, J = tuple(self.I), tuple(self.J)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "J", J)
        if self.n < 0:
            raise ParseError(f"ambient size must be nonnegative, got {self.n}")
        if len(I) != len(J):
            raise ParseError(f"|I| = {len(I)} but |J| = {len(J)}")
        for side, name in ((I, "I"), (J, "J")):
            if len(set(side)) != len(side):
                raise ParseError(f"{name} has repeated entries: {side}")
            for v in side:
                if not (1 <= v <= self.n):
                    raise ParseError(f"{name} entry {v} outside [1..{self.n}]")

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


@dataclass(frozen=True)
class IndicatorTerm:
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
    has length at least n-k (checked against brute force in the tests).
    """
    if not (0 <= k <= n - 1):
        raise ParseError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    return sum(syt_count(lam) ** 2 for lam in partitions_of(n) if lam[0] >= n - k)


_SIDE_SPLIT = re.compile(r"\s*->\s*")


def parse_pp(text: str, n: int) -> PartialPermutation:
    """Parse "1,4,5 -> 2,5,6" (either side may be empty) at ambient size n."""
    pieces = _SIDE_SPLIT.split(text.strip())
    if len(pieces) != 2:
        raise ParseError(f"expected 'I -> J', got {text!r}")

    def side(s):
        s = s.strip()
        if s.startswith("[") and s.endswith("]"):
            s = s[1:-1].strip()
        if not s:
            return ()
        try:
            return tuple(map(read_int, s.replace(",", " ").split()))
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
