"""Sparse exact expansions in the Schur, power-sum and path power-sum bases.

A SymExpansion is a degree-homogeneous linear combination with exact rational
coefficients, keyed by partitions. Schur-basis expansions are closed under
multiplication by a power sum p_r (ribbon additions), which is all the
multiplication the package needs; conversions between the classical power
sums, the path power sums, and the Schur basis live here too. An expansion
prints itself in each output format: render(), to_json() and to_csv(), its
integers through errors.int_text, their shared factor converted once; from_json
reads them back through errors.read_int.

Ribbons are added by the chain and the walk of ribbons, which count the shapes
and nodes they hold; the power sums here guard only their number of parts, a
limit PATHMN_MAX_N lowers but never raises (each part is a recursion level).
"""

import csv
import io
import json
import math
from decimal import MAX_EMAX, Context, Decimal, Inexact, Rounded
from fractions import Fraction

from pathmn.errors import GuardError, ParseError, effective_limit, int_text, json_fields, read_int
from pathmn.partitions import (
    check_composition,
    check_partition,
    enumerate_set_partitions,
    format_partition,
    mult_factorial,
)
# add_ribbons is unused here but stays bound: perfbench's tracer test looks for it
from pathmn.ribbons import _mask, _ribbon_chains, _shape, add_ribbons, memo, tiling_tally

__all__ = [
    "SCHUR",
    "POWER",
    "PATH",
    "SymExpansion",
    "mult_by_power",
    "power_to_schur",
    "path_power_in_p",
    "p_in_path_basis",
    "path_power_to_schur",
]

SCHUR = "schur"
POWER = "power"
PATH = "path"

_SYMBOL = {SCHUR: "s", POWER: "p", PATH: "P"}

_MAX_PARTS = 400  # recursion depth grows with the parts: 987 stop path-expand

# Unicode used by the human renderer: a middle dot between coefficient and
# basis element, and a true minus sign between terms.
DOT = "·"
MINUS = "−"


# Below this size of common factor, converting each value is as fast
# (break-even measured between 1500 and 2000 bits on CPython 3.10-3.13).
_SHARED_BITS = 2048


def _ints_text(values) -> list:
    """[int_text(v) for v in values], converting their common factor once.

    Expansion coefficients at large n share a huge factor ((n - r)! times a
    polynomial), and int -> text is quadratic in the digits. The factor g is
    converted to a Decimal once; each value is then the exact product
    g * (v // g), whose text costs linear time.
    """
    g = math.gcd(*values)
    if g.bit_length() < _SHARED_BITS:
        return [int_text(v) for v in values]
    # 3 bits per digit over-counts, so no product is ever rounded
    digits = max(v.bit_length() for v in values) // 3 + 2
    ctx = Context(prec=digits, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    shared = Decimal(g)
    return [str(ctx.multiply(shared, v // g)) for v in values]


class SymExpansion:
    """Homogeneous expansion in one basis: map partition -> nonzero rational."""

    def __init__(self, basis, degree, terms):
        if basis not in _SYMBOL:
            raise ParseError(f"unknown basis {basis!r}")
        if degree < 0:
            raise ParseError(f"degree must be nonnegative, got {degree}")
        self.basis = basis
        self.degree = degree
        clean = {}
        for lam, c in terms.items():
            lam = check_partition(lam)
            if sum(lam) != degree:
                raise ParseError(f"term {lam} has degree {sum(lam)}, expected {degree}")
            c = Fraction(c)
            if c:
                clean[lam] = c
        self.terms = clean

    @classmethod
    def _from_masks(cls, degree, terms) -> "SymExpansion":
        """Schur expansion of {mask: coefficient} terms built by this package.

        A decoded mask is always a partition, and the ribbon rules keep the
        degree, so the constructor's checks are skipped; zeros are dropped.
        """
        out = cls.__new__(cls)
        out.basis, out.degree = SCHUR, degree
        out.terms = {_shape(m): Fraction(c) for m, c in terms.items() if c}
        return out

    def coeff(self, lam) -> Fraction:
        return self.terms.get(tuple(lam), Fraction(0))

    def items(self):
        """Terms in canonical (descending lexicographic) partition order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, SymExpansion)
            and self.basis == other.basis
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return SymExpansion(self.basis, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "SymExpansion":
        c = Fraction(c)
        return SymExpansion(self.basis, self.degree, {lam: c * v for lam, v in self.terms.items()})

    def _compatible(self, other):
        if not isinstance(other, SymExpansion):
            raise TypeError(f"cannot combine SymExpansion with {type(other).__name__}")
        if self.basis != other.basis or self.degree != other.degree:
            raise ParseError(
                f"incompatible expansions: ({self.basis}, {self.degree})"
                f" vs ({other.basis}, {other.degree})"
            )

    def render(self, long=False) -> str:
        """Human format, e.g. "(5/2)·s[6] − (1/2)·s[5,1]" and "1·s[]"."""
        sym = _SYMBOL[self.basis]
        if not self.terms:
            return "0"
        items = self.items()
        pieces = []
        for (lam, c), coeff in zip(items, _ints_text([abs(c.numerator) for _, c in items])):
            if c.denominator != 1:
                coeff = f"({coeff}/{int_text(c.denominator)})"
            pieces.append((c < 0, f"{coeff}{DOT}{sym}{format_partition(lam)}"))
        if long:
            return "\n".join((MINUS if neg else "") + body for neg, body in pieces)
        out = [(MINUS if pieces[0][0] else "") + pieces[0][1]]
        for neg, body in pieces[1:]:
            out.append(f" {MINUS} " if neg else " + ")
            out.append(body)
        return "".join(out)

    def __repr__(self):
        return f"<SymExpansion {self.basis} deg {self.degree}: {self.render()}>"

    def to_json(self) -> str:
        items = self.items()
        return json.dumps(
            {
                "basis": self.basis,
                "degree": self.degree,
                "terms": [
                    {"partition": list(lam), "num": num, "den": int_text(c.denominator)}
                    for (lam, c), num in zip(items, _ints_text([c.numerator for _, c in items]))
                ],
            }
        )

    def to_csv(self) -> str:
        """A "partition,num,den" header, then one row per term; ends in a newline."""
        items = self.items()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition", "num", "den"])
        for (lam, c), num in zip(items, _ints_text([c.numerator for _, c in items])):
            writer.writerow([format_partition(lam), num, int_text(c.denominator)])
        return buf.getvalue()

    @classmethod
    def from_json(cls, text: str) -> "SymExpansion":
        with json_fields(text, "expansion") as data:
            terms = {}
            for t in data["terms"]:
                if type(t["partition"]) is not list:
                    raise TypeError(f"partition must be a list, got {t['partition']!r}")
                lam = tuple(read_int(p, "a part") for p in t["partition"])
                num, den = (read_int(t[k], k, size=False) for k in ("num", "den"))
                terms[lam] = terms.get(lam, 0) + Fraction(num, den)
            return cls(data["basis"], read_int(data["degree"], "degree"), terms)


def mult_by_power(f: SymExpansion, r: int) -> SymExpansion:
    """Multiply a Schur-basis expansion by the power sum p_r (ribbon rule)."""
    if f.basis != SCHUR:
        raise ParseError("mult_by_power needs a Schur-basis expansion")
    if r < 1:
        raise ParseError(f"power-sum index must be >= 1, got {r}")
    terms = _ribbon_chains({_mask(lam): c for lam, c in f.terms.items()}, (r,))
    return SymExpansion._from_masks(f.degree + r, terms)


@memo
def _p_to_schur(mu, within) -> dict:
    """p_mu as {mask: int} on the shapes inside the mask within (None: all shapes)."""
    if not mu:
        return {0: 1}
    return _ribbon_chains(_p_to_schur(mu[1:], within), mu[:1], within)


def _check_parts(count):
    """The part guard. _p_to_schur and the tiling walk recurse once per part,
    so PATHMN_MAX_N can lower this limit but not raise it past _MAX_PARTS."""
    limit = min(effective_limit(_MAX_PARTS), _MAX_PARTS)
    if count > limit:
        raise GuardError(f"number of parts = {count} exceeds the guard limit {limit}"
                         " (one recursion level per part; PATHMN_MAX_N can only lower it)")


def power_to_schur(f: SymExpansion) -> SymExpansion:
    """Rewrite a power-basis expansion in the Schur basis, term by term."""
    if f.basis != POWER:
        raise ParseError("power_to_schur needs a power-basis expansion")
    _check_parts(max(map(len, f.terms), default=0))
    out = {}
    for mu, c in f.terms.items():
        for m, v in _p_to_schur(mu, None).items():
            out[m] = out.get(m, 0) + c * v
    return SymExpansion._from_masks(f.degree, out)


def _merged_indices(mu):
    """(sorted block sums of mu, pi) for each set partition pi of mu's positions."""
    for pi in enumerate_set_partitions(len(mu)):
        yield tuple(sorted((sum(mu[i - 1] for i in block) for block in pi), reverse=True)), pi


def path_power_in_p(mu) -> SymExpansion:
    """Path power sum as a combination of classical power sums.

    Sum over set partitions of the positions of mu: each block contributes the
    part-sum, weighted by the (#block - 1)! cyclic orders. The coefficient of
    p_sorted(mu) is 1 and all other indices merge parts of mu.
    """
    mu = check_composition(mu)
    terms = {}
    for index, pi in _merged_indices(mu):
        weight = math.prod(math.factorial(len(block) - 1) for block in pi)
        terms[index] = terms.get(index, 0) + weight
    return SymExpansion(POWER, sum(mu), terms)


def p_in_path_basis(mu) -> dict:
    """Classical p_mu as a combination of path power sums (Moebius inversion).

    Returns {partition: integer coefficient} on sorted path-power indices;
    expanding back through path_power_in_p recovers p_mu exactly.
    """
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    out = {}
    for index, pi in _merged_indices(mu):
        sign = -1 if (len(mu) - len(pi)) % 2 else 1
        out[index] = out.get(index, 0) + sign
    return {lam: c for lam, c in out.items() if c}


def path_power_to_schur(mu) -> SymExpansion:
    """Schur expansion of the path power sum: m(mu)! times the signed tally of
    monotonic ribbon tilings with size multiset mu, grouped by shape."""
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    _check_parts(len(mu))
    m = mult_factorial(mu)
    tally = tiling_tally(mu)
    return SymExpansion(SCHUR, sum(mu), {shape: m * c for shape, c in tally.items()})
