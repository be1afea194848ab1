"""Atomic symmetric functions and hybrid character evaluation.

The atomic function of a partial permutation (I, J) at ambient size n is
n!·ch_n(R 1_{I,J}); it factors as (path power sum of the path type) times
(classical power sums of the cycle type), and its Schur coefficients are the
character evaluations chi^lam([I,J]). Evaluating through that factorization is
the fast "hybrid" route; the brute oracle sums p_cyc over completions.
"""

import csv
import io
import json
import math
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from pathmn.errors import ParseError, check_guard
from pathmn.partial_perm import PartialPermutation, _graph_type, decompose, embed, pack
from pathmn.partitions import (
    check_partition,
    contains,
    format_partition,
    mult_factorial,
    pad_row,
    partitions_of,
)
from pathmn.ribbons import _mask, _primitive, _ribbon_chains, _stable_terms, memo, skew_mn, tiling_tally
from pathmn.symfunc import SCHUR, SymExpansion, _p_to_schur

__all__ = [
    "atomic_schur",
    "char_eval",
    "char_eval_direct",
    "CharacterTable",
    "character_table",
    "support_check",
    "PolynomialityReport",
    "coefficient_polynomiality",
]


@memo(maxsize=1 << 10)  # 2400 requests at n <= 1200 hold 504 (type, n), small ints and a shared factor
def _atomic_from_type(core, nu, n) -> tuple:
    """Atomic expansion at ambient size n from the graph type alone (relabeling
    invariance), as (primitive {mask: int}, factor): core holds the path parts
    >= 2, nu the cycle type, as partial_perm._graph_type walks them.

    The path factor is evaluated through the frozen-tiling stable formula
    (the size-1 paths are absorbed into the padding), then one ribbon of
    each cycle part is added, largest first, to its small terms: the chain
    is linear, so its factorial factor stays apart, multiplied into no term.
    """
    path, factor = _stable_terms(core, n - sum(nu))
    return _primitive(_ribbon_chains(path, sorted(nu, reverse=True)), factor)


def atomic_schur(pp: PartialPermutation) -> SymExpansion:
    """Schur expansion of the atomic function A_{n,I,J}; coefficients are the
    character values chi^lam([I,J])."""
    return SymExpansion._trusted(SCHUR, pp.n, *_atomic_from_type(*_graph_type(pp.pairs()), pp.n), 1)


def char_eval(lam, pp: PartialPermutation) -> int:
    """chi^lam([I,J]): remove the cycle parts from lam, read the path factor at what is left."""
    lam = check_partition(lam)
    if sum(lam) != pp.n:
        raise ParseError(f"|lam| = {sum(lam)} but ambient size is {pp.n}")
    core, nu = _graph_type(pp.pairs())
    size = pp.n - sum(nu)
    path, factor = _stable_terms(core, size)
    # the path factor holds (size) with a coefficient > 0: the shape inside all is a row
    floor = (min(m.bit_length() - m.bit_count() for m in path),) if size else ()
    inner = _ribbon_chains({_mask(lam): 1}, [-r for r in nu], floor)
    return factor * sum(c * path.get(m, 0) for m, c in inner.items())


def char_eval_direct(lam, pp: PartialPermutation) -> int:
    """Same value through the two-stage sum: m(mu)! times the signed tiling
    count of each inner shape rho, times the ribbon tableau count of lam/rho
    with the cycle sizes. Kept as an independent route for cross-checking."""
    lam = check_partition(lam)
    if sum(lam) != pp.n:
        raise ParseError(f"|lam| = {sum(lam)} but ambient size is {pp.n}")
    gt = decompose(pp)
    nu = gt.cycle_type
    total = 0
    for rho, t in tiling_tally(gt.path_type).items():
        if contains(lam, rho):
            total += t * skew_mn(lam, nu, inner=rho)
    return mult_factorial(gt.path_type) * total


# shapes: canonical order, indexing both rows (lam) and columns (mu); columns: column mu is a
# read-only {mask of lam: chi^lam_mu}, zeros left out. No __slots__: the cached properties need a __dict__.
class CharacterTable(NamedTuple("CharacterTable", [("n", int), ("shapes", tuple), ("columns", tuple)])):
    @cached_property
    def entries(self) -> dict:
        """(lam, mu) -> chi^lam_mu, built on first read."""
        return {(lam, mu): v for lam, row in zip(self.shapes, self._rows())
                for mu, v in zip(self.shapes, row)}

    @cached_property
    def _position(self) -> dict:
        """shape -> its index in shapes, built on the first value read."""
        return {s: i for i, s in enumerate(self.shapes)}

    def value(self, lam, mu) -> int:
        lam, mu = tuple(lam), tuple(sorted(mu, reverse=True))
        if lam not in self._position or mu not in self._position:
            raise KeyError((lam, mu))
        return self.columns[self._position[mu]].get(_mask(lam), 0)

    def _rows(self) -> list:
        """Row lam of the table is [chi^lam_mu for mu in shapes]."""
        return [[col.get(m, 0) for col in self.columns] for m in map(_mask, self.shapes)]

    def render(self) -> str:
        """Human format: a grid with right-aligned columns, labelled by shape."""
        labels = [format_partition(s) for s in self.shapes]
        grid = [["", *labels]] + [[name, *map(str, row)] for name, row in zip(labels, self._rows())]
        widths = [max(map(len, col)) for col in zip(*grid)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(line, widths)) for line in grid)

    def to_json(self) -> str:
        shapes = [list(s) for s in self.shapes]
        return json.dumps({"n": self.n, "shapes": shapes, "rows": self._rows()})

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda\\mu"] + [format_partition(mu) for mu in self.shapes])
        for lam, row in zip(self.shapes, self._rows()):
            writer.writerow([format_partition(lam), *row])
        return buf.getvalue()


def character_table(n: int) -> CharacterTable:
    """Full table of chi^lam_mu for lam, mu partitions of n.

    Column mu is the Schur expansion of p_mu (Murnaghan-Nakayama: each p_r
    adds ribbons): the shared prefix memo's dict from _p_to_schur, kept as a
    read-only view and read by mask, so no (lam, mu) pair is built.
    """
    if n < 0:
        raise ParseError(f"table size must be nonnegative, got {n}")
    check_guard(n, 20, "character table size n")
    shapes = tuple(partitions_of(n))
    return CharacterTable(n, shapes, tuple(MappingProxyType(_p_to_schur(mu)) for mu in shapes))


def support_check(expansion: SymExpansion, n: int, k: int) -> bool:
    """True iff every shape with nonzero coefficient has first part >= n - k."""
    if expansion.degree != n:
        raise ParseError(f"expansion degree {expansion.degree} != n = {n}")
    return all(m.bit_length() - m.bit_count() >= n - k for m in expansion.nums)  # first part of m


class PolynomialityReport(NamedTuple):
    pp: PartialPermutation
    lam: tuple
    k: int
    n_values: tuple
    c_values: tuple  # normalized coefficients c_lam(n), exact rationals
    diff_order: int
    final_differences: tuple
    is_polynomial: bool


def coefficient_polynomiality(pp_packed, lam, n_range) -> PolynomialityReport:
    """Check that n -> [s_{lam[n]}-coefficient / (n-r)!] is a polynomial of
    degree at most k - |lam|, by vanishing of the (k-|lam|+1)-th difference.

    pp_packed must be packed (labels exactly 1..r); n_range must be consecutive
    integers, all at least max(2k, r), and long enough to take the difference.
    """
    lam = check_partition(lam)
    packed, _ = pack(pp_packed)
    if packed != pp_packed:
        raise ParseError(f"expected a packed pair, got ambient size {pp_packed.n}")
    k = pp_packed.k
    r = pp_packed.n
    ns = tuple(n_range)
    if not ns or any(ns[t + 1] != ns[t] + 1 for t in range(len(ns) - 1)):
        raise ParseError(f"n range must be consecutive integers, got {ns}")
    threshold = max(2 * k, r)
    if ns[0] < threshold:
        raise ParseError(f"n range starts below the stability threshold {threshold}")
    diff_order = max(k - sum(lam) + 1, 0)
    if len(ns) < diff_order + 1:
        raise ParseError(f"need at least {diff_order + 1} points, got {len(ns)}")
    values = []
    for n in ns:
        coeff = atomic_schur(embed(pp_packed, n)).coeff(pad_row(lam, n))
        values.append(coeff / math.factorial(n - r))
    diffs = [Fraction(v) for v in values]
    for _ in range(diff_order):
        diffs = [diffs[t + 1] - diffs[t] for t in range(len(diffs) - 1)]
    return PolynomialityReport(
        pp=pp_packed,
        lam=lam,
        k=k,
        n_values=ns,
        c_values=tuple(values),
        diff_order=diff_order,
        final_differences=tuple(diffs),
        is_polynomial=all(d == 0 for d in diffs),
    )
