"""Atomic symmetric functions and hybrid character evaluation.

The atomic function of a partial permutation (I, J) at ambient size n is
n!·ch_n(R 1_{I,J}); it factors as (path power sum of the path type) times
(classical power sums of the cycle type), and its Schur coefficients are the
character evaluations chi^lam([I,J]). Evaluating through that factorization is
the fast "hybrid" route; the brute oracle sums p_cyc over completions.
"""

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from pathmn.errors import ParseError, check_guard
from pathmn.partial_perm import PartialPermutation, decompose, embed, pack
from pathmn.partitions import (
    canonical_order,
    check_partition,
    contains,
    format_partition,
    mult_factorial,
    pad_row,
    partitions_of,
)
from pathmn.ribbons import skew_mn, stable_expansion, tiling_tally
from pathmn.symfunc import SymExpansion, _p_to_schur, mult_by_power

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


@cache
def _atomic_from_type(mu, nu) -> SymExpansion:
    """Atomic expansion from the graph type alone (relabeling invariance).

    The path factor is evaluated through the frozen-tiling stable formula
    (size-1 path parts are absorbed into the padding), then one ribbon
    multiplication per cycle part, largest first.
    """
    core = tuple(p for p in mu if p >= 2)
    f = stable_expansion(core, sum(mu))
    for part in sorted(nu, reverse=True):
        f = mult_by_power(f, part)
    return f


def atomic_schur(pp: PartialPermutation) -> SymExpansion:
    """Schur expansion of the atomic function A_{n,I,J}; coefficients are the
    character values chi^lam([I,J])."""
    gt = decompose(pp)
    return _atomic_from_type(gt.path_type, gt.cycle_type)


def char_eval(lam, pp: PartialPermutation) -> int:
    """chi^lam([I,J]): the coefficient of s_lam in the atomic expansion."""
    lam = check_partition(lam)
    if sum(lam) != pp.n:
        raise ParseError(f"|lam| = {sum(lam)} but ambient size is {pp.n}")
    c = atomic_schur(pp).coeff(lam)
    if c.denominator != 1:
        raise AssertionError(f"non-integer character value {c} at {lam}")
    return int(c)


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


@dataclass(frozen=True)
class CharacterTable:
    n: int
    shapes: tuple  # canonical order; indexes both rows (lam) and columns (mu)
    entries: dict  # (lam, mu) -> integer chi^lam_mu

    def value(self, lam, mu) -> int:
        return self.entries[(tuple(lam), tuple(sorted(mu, reverse=True)))]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda\\mu"] + [format_partition(mu) for mu in self.shapes])
        for lam in self.shapes:
            writer.writerow(
                [format_partition(lam)] + [self.entries[(lam, mu)] for mu in self.shapes]
            )
        return buf.getvalue()


def character_table(n: int) -> CharacterTable:
    """Full table of chi^lam_mu for lam, mu partitions of n.

    Column mu is the Schur expansion of p_mu (Murnaghan-Nakayama: each p_r
    adds ribbons), read from the shared prefix memo of _p_to_schur.
    """
    if n < 0:
        raise ParseError(f"table size must be nonnegative, got {n}")
    check_guard(n, 20, "character table size n")
    shapes = tuple(canonical_order(partitions_of(n)))
    entries = {}
    for mu in shapes:
        column = _p_to_schur(mu).terms
        for lam in shapes:
            entries[(lam, mu)] = int(column.get(lam, 0))
    return CharacterTable(n, shapes, entries)


def support_check(expansion: SymExpansion, n: int, k: int) -> bool:
    """True iff every shape with nonzero coefficient has first part >= n - k."""
    if expansion.degree != n:
        raise ParseError(f"expansion degree {expansion.degree} != n = {n}")
    return all((lam[0] if lam else 0) >= n - k for lam in expansion.terms)


@dataclass(frozen=True)
class PolynomialityReport:
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
