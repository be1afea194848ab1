"""Permutation statistics as indicator combinations, and their symmetrization.

A statistic on S_n is a merged sum of weighted indicators c·1_{I,J}, kept as
integer numerators over one denominator; the Reynolds operator (average over
conjugation) sends it to a class function, computed here via the atomic
expansions of the underlying partial permutations grouped by graph type.
Moments and variances on a conjugacy class follow by evaluating the resulting
Schur coefficients against character values.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, zip_longest

from pathmn.characters import _atomic_from_type
from pathmn.errors import ParseError, check_guard, int_text, json_fields, read_int
# decompose is unused here but stays bound: perfbench's tracer test looks for it
from pathmn.partial_perm import IndicatorTerm, PartialPermutation, _graph_type, decompose
from pathmn.partitions import check_partition
from pathmn.ribbons import _mask, memo
from pathmn.symfunc import SymExpansion, _check_parts, _p_to_schur

__all__ = [
    "Statistic",
    "ClassFunction",
    "make_statistic",
    "builtin",
    "stat_product",
    "symmetrize",
    "class_eval",
    "variance_on_class",
    "eval_pointwise",
    "stat_to_json",
    "stat_from_json",
]


@dataclass(frozen=True)
class Statistic:
    """Finite combination sum (num/den)·1_{I,J} of indicators on S_n.

    nums holds one (pairs, num) per term: the (i, j) constraints sorted by i
    and a nonzero int. The terms are sorted and den is in lowest terms with
    them, so equal statistics are == and hash the same.
    """

    n: int
    den: int
    nums: tuple

    @property
    def terms(self) -> tuple:
        """The IndicatorTerms, sorted by (k, I, J)."""
        return tuple(IndicatorTerm(Fraction(c, self.den), PartialPermutation(self.n, I, J))
                     for _, I, J, c in self._rows())

    def _rows(self) -> list:
        """(k, I, J, num) per term, sorted by (k, I, J)."""
        return sorted((len(p), [i for i, _ in p], [j for _, j in p], c) for p, c in self.nums)


@dataclass(frozen=True)
class ClassFunction:
    """A class function on S_n through ch_n: R f = sum c_lam chi^lam."""

    n: int
    schur: SymExpansion


def _statistic(n: int, den: int, acc) -> Statistic:
    """sum (num/den)·1_pairs over a {pairs: num} dict, zeros dropped, reduced."""
    g = math.gcd(den, *acc.values())
    return Statistic(n, den // g, tuple(sorted((p, c // g) for p, c in acc.items() if c)))


def make_statistic(n: int, terms) -> Statistic:
    merged = {}
    for t in terms:
        if t.pp.n != n:
            raise ParseError(f"term on ambient size {t.pp.n}, expected {n}")
        pairs = tuple(sorted(zip(t.pp.I, t.pp.J)))
        merged[pairs] = merged.get(pairs, 0) + Fraction(t.coeff)
    den = math.lcm(*(c.denominator for c in merged.values()))
    return _statistic(n, den, {p: c.numerator * (den // c.denominator) for p, c in merged.items()})


def builtin(name: str, n: int) -> Statistic:
    """The built-in statistics: "exc" (exceedances) and "maj" (major index).

    exc = sum over i < j of 1_{(i),(j)}; maj puts weight i on the descent
    indicator 1_{(i,i+1),(k,j)} for every value pair j < k.
    """
    if n < 1:
        raise ParseError(f"ambient size must be >= 1, got {n}")
    values = list(combinations(range(1, n + 1), 2))  # every j < k
    if name == "exc":
        acc = {((j, k),): 1 for j, k in values}
    elif name == "maj":
        acc = {((i, k), (i + 1, j)): i for i in range(1, n) for j, k in values}
    else:
        raise ParseError(f"unknown builtin statistic {name!r}")
    return _statistic(n, 1, acc)


@memo
def stat_product(f: Statistic, g: Statistic) -> Statistic:
    """Pointwise product, expanded by pairwise indicator merging.

    Each term of f is turned into forward and backward constraint maps once;
    a term of g is injective on its own, so it merges unless one of its pairs
    clashes with those maps. Numerators add up over the product of the
    denominators, keyed by the sorted merged pairs.
    """
    if f.n != g.n:
        raise ParseError(f"ambient sizes differ: {f.n} vs {g.n}")
    check_guard(f.n, 12, "statistic product ambient size n")
    acc = {}
    for a_pairs, ca in f.nums:
        fwd = dict(a_pairs)
        bwd = {j: i for i, j in a_pairs}
        for b_pairs, cb in g.nums:
            new = []
            for i, j in b_pairs:
                target = fwd.get(i)
                if target is None:
                    if j in bwd:
                        break
                    new.append((i, j))
                elif target != j:
                    break
            else:
                key = tuple(sorted(a_pairs + tuple(new))) if new else a_pairs
                acc[key] = acc.get(key, 0) + ca * cb
    return _statistic(f.n, f.den * g.den, acc)


@memo
def symmetrize(f: Statistic) -> ClassFunction:
    """ch_n(R f): group terms by graph type, expand each class atomically.

    Indicators with the same path and cycle type have identical atomic
    expansions, so the Reynolds average costs one expansion per class, divided
    by den·n! at the end. At one n the walked paths and cycles name the class.
    """
    groups = {}
    for pairs, c in f.nums:
        key = _graph_type(pairs)
        groups[key] = groups.get(key, 0) + c
    acc = {}
    for (core, nu), c in groups.items():
        if c:
            for m, v in _atomic_from_type(core, nu, f.n).items():
                acc[m] = acc.get(m, 0) + c * v
    scale = f.den * math.factorial(f.n)
    terms = {m: Fraction(v, scale) for m, v in acc.items() if v}
    return ClassFunction(f.n, SymExpansion._from_masks(f.n, terms))


def class_eval(cf: ClassFunction, mu) -> Fraction:
    """Value of the class function on the conjugacy class of cycle type mu."""
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    if sum(mu) != cf.n:
        raise ParseError(f"|mu| = {sum(mu)} but the class function lives on S_{cf.n}")
    _check_parts(len(mu))
    # chains that end in the support stay inside its componentwise maximum
    column = _p_to_schur(mu, _mask(tuple(map(max, zip_longest(*cf.schur.terms, fillvalue=0)))))
    return Fraction(sum(c * column.get(_mask(lam), 0) for lam, c in cf.schur.terms.items()))


def variance_on_class(f: Statistic, mu) -> Fraction:
    """Variance of f over the conjugacy class of cycle type mu."""
    mean = class_eval(symmetrize(f), mu)
    second = class_eval(symmetrize(stat_product(f, f)), mu)
    return second - mean**2


def eval_pointwise(f: Statistic, w) -> Fraction:
    """Evaluate on one permutation, given as the image tuple (w(1), ..., w(n))."""
    w = tuple(w)
    if sorted(w) != list(range(1, f.n + 1)):
        raise ParseError(f"not a permutation of 1..{f.n}: {w}")
    hits = sum(c for pairs, c in f.nums if all(w[i - 1] == j for i, j in pairs))
    return Fraction(hits, f.den)


def stat_to_json(f: Statistic) -> str:
    terms = []
    for _, I, J, c in f._rows():
        g = math.gcd(c, f.den)
        terms.append({"coeff": f"{int_text(c // g)}/{int_text(f.den // g)}", "I": I, "J": J})
    return json.dumps({"n": f.n, "terms": terms})


def stat_from_json(text: str) -> Statistic:
    with json_fields(text, "statistic") as data:
        n = read_int(data["n"], "n")
        terms = []
        for t in data["terms"]:
            if type(t["I"]) is not list or type(t["J"]) is not list:
                raise TypeError(f"I and J must be lists, got {t['I']!r} and {t['J']!r}")
            I, J = (tuple(read_int(v, "an index") for v in t[k]) for k in "IJ")
            terms.append(IndicatorTerm(_coeff(str(t["coeff"])), PartialPermutation(n, I, J)))
        return make_statistic(n, terms)


def _coeff(text: str) -> Fraction:
    """A term's coeff: "num/den" as stat_to_json writes it, or an integer, read
    exactly at any length by read_int; any other spelling as Fraction reads it."""
    num, slash, den = text.partition("/")
    if not den.startswith("-"):
        try:
            return Fraction(read_int(num, size=False), read_int(den, size=False) if slash else 1)
        except ParseError:
            pass
    return Fraction(text)
