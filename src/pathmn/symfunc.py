"""Sparse exact expansions in the Schur, power-sum and path power-sum bases.

A SymExpansion is a degree-homogeneous linear combination with exact rational
coefficients: one factor/den times a primitive integer part keyed by Maya masks
(the ribbon kernel's form), decoded to partitions only when a result is read or
written. Schur-basis expansions, symmetrize's class functions among them, are closed under
multiplication by a power sum p_r (ribbon additions), which is all the
multiplication the package needs; conversions between the classical power
sums, the path power sums, and the Schur basis live here too. An expansion
prints itself in each output format, render(), to_json() and to_csv(), in time
linear in the text: a large factor is converted to decimal once (a small memo
keeps it for the other expansions of one n), each numerator is its product with
a small int, and to_json writes its JSON without json.dumps. The writers order
the terms by mask, padded to degree beads, and write each shape from its mask's
parts text, kept in a bounded memo, so they build no partition. from_json reads
the integers back through errors.read_int.
"""

import csv
import io
import math
from decimal import MAX_EMAX, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from types import MappingProxyType

from pathmn.errors import ParseError, _int_decimal, int_text, json_fields, read_int
from pathmn.partitions import (
    check_composition,
    check_partition,
    enumerate_set_partitions,
    is_partition,
)
# add_ribbons is unused here but stays bound: perfbench's tracer test looks for it
from pathmn.ribbons import _converted, _mask, _ribbon_chains, _shape, _stable_terms, add_ribbons, memo

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

# Unicode used by the human renderer: a middle dot between coefficient and
# basis element, and a true minus sign between terms.
DOT = "·"
MINUS = "−"


# Below this size of factor, converting each product is as fast
# (break-even measured between 1500 and 2000 bits on CPython 3.10-3.13).
_SHARED_BITS = 2048
_MAX_PARTS_TEXTS = 1 << 10  # shapes written: 2400 requests at n <= 1200 write 469 distinct ones


@memo(maxsize=64)
def _decimal(g) -> Decimal:
    """Decimal(g), exactly: the factor of one n recurs in many expansions. The
    factors of one n differ by a few small factors, so a g that one of the last
    8 converted divides, or is divided by, is its Decimal times or over their
    quotient, in time linear in the digits (Decimal(g) is quadratic)."""
    ctx = Context(prec=g.bit_length() // 3 + 2, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    for h, d in reversed(_converted):
        if abs(h.bit_length() - g.bit_length()) < 512 and not (g % h and h % g):
            out = ctx.multiply(d, g // h) if h <= g else ctx.divide(d, h // g)
            break
    else:
        out = _int_decimal(g)
    _converted[:] = [*_converted[-7:], (g, out)]
    return out


@memo(maxsize=_MAX_PARTS_TEXTS)
def _parts_text(m) -> str:
    """The parts of the partition with mask m, comma-separated ("" for the empty one):
    the writers write a shape from the text of its mask, decoded once."""
    return ",".join(map(str, _shape(m)))


def _ints_text(values, factor) -> list:
    """[int_text(factor * v) for v in values], factor > 0 and values a list.

    Expansion coefficients at large n share a huge factor ((n - r)! times a
    polynomial), and int -> text is quadratic in the digits. A factor of
    _SHARED_BITS or more is converted to a Decimal once (and kept in a small
    memo); each text is then its exact product with a small int, in linear
    time, once for each magnitude. Below that, each product is written by
    one str, through int_text only when a digit limit refuses one.
    """
    if factor.bit_length() < _SHARED_BITS:
        try:
            return [str(factor * v) for v in values]
        except ValueError:  # past the interpreter's digit limit
            return [int_text(factor * v) for v in values]
    # 3 bits per digit over-counts, so no product is ever rounded
    digits = (factor.bit_length() + max((v.bit_length() for v in values), default=0)) // 3 + 2
    ctx = Context(prec=digits, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    shared = _decimal(factor)
    texts = {a: str(ctx.multiply(shared, a)) for a in set(map(abs, values))}
    return ["-" + texts[-v] if v < 0 else texts[v] for v in values]


class SymExpansion:
    """Homogeneous expansion in one basis: sum (factor·nums[m]/den)·b_lam, nums
    a read-only {Maya mask of lam: nonzero int} with gcd 1, factor/den > 0 in
    lowest terms (1/1 for 0), a unique form, so equal expansions are ==. No
    field can be assigned; the partitions are decoded only when terms, items,
    coeff or a writer reads them."""

    def __init__(self, basis, degree, terms):
        """From {partition: coefficient}, validated; zero coefficients are dropped."""
        if basis not in _SYMBOL:
            raise ParseError(f"unknown basis {basis!r}")
        if degree < 0:
            raise ParseError(f"degree must be nonnegative, got {degree}")
        coeffs = {}
        for lam, c in terms.items():
            lam = check_partition(lam)
            if sum(lam) != degree:
                raise ParseError(f"term {lam} has degree {sum(lam)}, expected {degree}")
            coeffs[_mask(lam)] = Fraction(c)
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        nums = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}
        vars(self).update(vars(_reduced(basis, degree, nums, 1, den)))

    @classmethod
    def _trusted(cls, basis, degree, nums, factor, den) -> "SymExpansion":
        """From primitive nums and factor, den > 0, unchecked: factor/den is put in
        lowest terms (1/1 when nums is empty), nums wrapped (once), not copied."""
        if not nums:
            factor = den = 1
        out, g = cls.__new__(cls), math.gcd(factor, den)
        if type(nums) is not MappingProxyType:
            nums = MappingProxyType(nums)
        vars(out).update(basis=basis, degree=degree, nums=nums, factor=factor // g, den=den // g)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"SymExpansion is read-only: cannot set {name}")

    def __reduce__(self):  # pickle and deepcopy: the view itself cannot be pickled
        return SymExpansion._trusted, (self.basis, self.degree, dict(self.nums), self.factor, self.den)

    @property
    def terms(self) -> dict:
        """{partition: Fraction}, decoded from the masks each time it is read."""
        return {_shape(m): Fraction(self.factor * v, self.den) for m, v in self.nums.items()}

    @property
    def schur(self) -> "SymExpansion":
        """This expansion in the Schur basis (once the decoded form of a class function)."""
        return self if self.basis == SCHUR else power_to_schur(self)

    def coeff(self, lam) -> Fraction:
        return Fraction(self.factor * self.nums.get(_mask(lam), 0) if is_partition(lam) else 0, self.den)

    def items(self):
        """Terms in canonical (descending lexicographic) partition order."""
        return sorted(self.terms.items(), reverse=True)

    def __eq__(self, other):
        return isinstance(other, SymExpansion) and vars(self) == vars(other)

    def __bool__(self):
        return bool(self.nums)

    def __add__(self, other):
        if not isinstance(other, SymExpansion):
            raise TypeError(f"cannot combine SymExpansion with {type(other).__name__}")
        if self.basis != other.basis or self.degree != other.degree:
            raise ParseError(
                f"incompatible expansions: ({self.basis}, {self.degree})"
                f" vs ({other.basis}, {other.degree})"
            )
        # the sum is g/(den·den') times the ints a·nums + b·nums', factor·den' = a·g
        g = math.gcd(self.factor * other.den, other.factor * self.den)
        a, b = self.factor * other.den // g, other.factor * self.den // g
        out = {m: a * v for m, v in self.nums.items()}
        for m, v in other.nums.items():
            out[m] = out.get(m, 0) + b * v
        return _reduced(self.basis, self.degree, out, g, self.den * other.den)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "SymExpansion":
        """c times this expansion: the factor and den, and for c <= 0 the signs of nums."""
        c = Fraction(c)
        nums = self.nums if c > 0 else {m: -v for m, v in self.nums.items() if c}
        return SymExpansion._trusted(self.basis, self.degree, nums, self.factor * abs(c.numerator),
                                     self.den * c.denominator)

    def _written(self) -> list:
        """(parts text, num text, den text) per term in the order of items(), in lowest
        terms: sorted by the mask padded to degree beads, which orders as the
        partitions do. The factor is prime to den, so a term reduces by gcd(num, den)."""
        den, degree, den_text = self.den, self.degree, int_text(self.den)
        rows = [(_parts_text(m), v // g, int_text(den // g)) if den > 1 and (g := math.gcd(v, den)) > 1
                else (_parts_text(m), v, den_text)
                for m, v in sorted(self.nums.items(), key=lambda t: t[0] << (degree - t[0].bit_count()),
                                   reverse=True)]
        texts = _ints_text([v for _, v, _ in rows], self.factor)
        return [(parts, text, den) for (parts, _, den), text in zip(rows, texts)]

    def render(self, long=False) -> str:
        """Human format, e.g. "(5/2)·s[6] − (1/2)·s[5,1]" and "1·s[]"."""
        sym = _SYMBOL[self.basis]
        if not self.nums:
            return "0"
        pieces = []
        for parts, num, den in self._written():
            coeff = num.lstrip("-") if den == "1" else f"({num.lstrip('-')}/{den})"
            pieces.append((num[0] == "-", f"{coeff}{DOT}{sym}[{parts}]"))
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
        """{"basis", "degree", "terms"}, each term {"partition": [...], "num":
        "...", "den": "..."}, byte for byte as json.dumps writes them."""
        terms = [
            '{"partition": [' + parts.replace(",", ", ") + '], "num": "' + num + '", "den": "' + den + '"}'
            for parts, num, den in self._written()
        ]
        return ('{"basis": "' + self.basis + '", "degree": ' + int_text(self.degree)
                + ', "terms": [' + ", ".join(terms) + "]}")

    def to_csv(self) -> str:
        """A "partition,num,den" header, then one row per term; ends in a newline."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition", "num", "den"])
        for parts, num, den in self._written():
            writer.writerow(["[" + parts + "]", num, den])
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


def _reduced(basis, degree, acc, factor=1, den=1) -> SymExpansion:
    """The expansion sum (factor·acc[m]/den)·b_m of the package's ints, factor
    and den > 0, in its normal form, zeros dropped."""
    g = math.gcd(*acc.values()) or 1
    return SymExpansion._trusted(basis, degree, {m: v // g for m, v in acc.items() if v}, factor * g, den)


def mult_by_power(f: SymExpansion, r: int) -> SymExpansion:
    """Multiply a Schur-basis expansion by the power sum p_r (ribbon rule)."""
    if f.basis != SCHUR:
        raise ParseError("mult_by_power needs a Schur-basis expansion")
    if r < 1:
        raise ParseError(f"power-sum index must be >= 1, got {r}")
    return _reduced(SCHUR, f.degree + r, _ribbon_chains(f.nums, (r,)), f.factor, f.den)


@memo(maxsize=1 << 11)  # table 20, the largest the guard allows, builds 1254 columns and suffixes
def _p_to_schur(mu) -> dict:
    """p_mu as {mask: int}, its parts added last to first (a shared suffix memo,
    filled shortest suffix first by power_to_schur, so no call recurses deeper)."""
    if not mu:
        return {0: 1}
    return _ribbon_chains(_p_to_schur(mu[1:]), mu[:1])


def power_to_schur(f: SymExpansion) -> SymExpansion:
    """Rewrite a power-basis expansion in the Schur basis, term by term."""
    if f.basis != POWER:
        raise ParseError("power_to_schur needs a power-basis expansion")
    out = {}
    for m, c in f.nums.items():
        mu = _shape(m)
        for i in reversed(range(1, len(mu))):  # suffixes shortest first: one call deep
            _p_to_schur(mu[i:])
        for q, v in _p_to_schur(mu).items():
            out[q] = out.get(q, 0) + c * v
    return _reduced(SCHUR, f.degree, out, f.factor, f.den)


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
    """Schur expansion of the path power sum: the stable formula of its core (the
    parts >= 2) at degree |mu|, with the singletons as the padding. It equals m(mu)!
    times the signed tally of monotonic tilings of mu by shape (tested)."""
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    terms, factor = _stable_terms(tuple(p for p in mu if p > 1), sum(mu))
    return SymExpansion(SCHUR, sum(mu), {_shape(m): c for m, c in terms.items()}).scale(factor)
