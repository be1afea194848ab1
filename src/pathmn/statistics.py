"""Permutation statistics as indicator combinations, and their symmetrization.

A statistic on S_n is a merged sum of weighted indicators c·1_{I,J}, kept as
integer numerators over one denominator; the Reynolds operator (average over
conjugation) sends it to a class function, computed here via the atomic
expansions of the underlying partial permutations grouped by graph type.
Moments and variances on a conjugacy class follow by evaluating the resulting
Schur coefficients against character values.

Products run on bitmasks: a term is its pair, source and target masks, and two
terms merge iff they share as many pairs as sources and as targets. A square
visits each unordered pair of terms once. A product is refused before its loop
past _MAX_VISITS pair visits, and in it past _MAX_TERMS held terms. A
ClassFunction holds integers on Maya masks.

The product and class-function memos keep the 4 results used last, which
hold what variance_on_class reuses: f, f·f and their class functions.
"""

import json
import math
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

from pathmn.characters import _atomic_from_type
from pathmn.errors import (ParseError, check_guard, effective_limit, int_text, json_fields,
                           read_int, refusal)
# decompose is unused here but stays bound: perfbench's tracer test looks for it
from pathmn.partial_perm import IndicatorTerm, PartialPermutation, _graph_type, decompose
from pathmn.partitions import check_partition
from pathmn.ribbons import _ribbon_chains, memo
from pathmn.symfunc import SymExpansion

__all__ = [
    "Statistic",
    "ClassFunction",
    "make_statistic",
    "builtin",
    "BUILTINS",
    "stat_product",
    "symmetrize",
    "class_eval",
    "variance_on_class",
    "eval_pointwise",
    "stat_to_json",
    "stat_from_json",
]

BUILTINS = ("exc", "maj")  # the names builtin knows; the CLI reads them here
_MAX_VISITS = 2_000_000  # about 0.4 s if few pairs merge, 3 s if most do; maj^3 at n = 8 visits 1,339,072
_MAX_TERMS = 250_000  # a built-in's or a product's terms; maj at n = 80 has 249,640 (0.7 s, 90 MB to build)


class Statistic(NamedTuple):
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


class ClassFunction(NamedTuple):
    """A class function on S_n through ch_n: R f = sum (num/den)·chi^lam.

    nums holds one nonzero int per lam, keyed by its Maya mask, the form
    class_eval removes ribbons from; gcd(den, *nums) is 1, so equal class
    functions are ==. symmetrize's nums is read-only: its memo shares it.
    """

    n: int
    den: int
    nums: dict

    @property
    def schur(self) -> SymExpansion:
        """The Schur expansion, decoded from the masks each time it is read."""
        return SymExpansion._from_masks(self.n, {m: Fraction(v, self.den) for m, v in self.nums.items()})


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
    indicator 1_{(i,i+1),(k,j)} for every value pair j < k. Their terms are
    counted first and refused past _MAX_TERMS unbuilt.
    """
    if n < 1:
        raise ParseError(f"ambient size must be >= 1, got {n}")
    if name not in BUILTINS:
        raise ParseError(f"unknown builtin statistic {name!r}")
    count = n * (n - 1) // 2  # C(n, 2) value pairs, one term each for exc and n - 1 for maj
    check_guard(count if name == "exc" else (n - 1) * count, _MAX_TERMS, "statistic terms")
    values = list(combinations(range(1, n + 1), 2))  # every j < k
    if name == "exc":
        acc = {((j, k),): 1 for j, k in values}
    else:
        acc = {((i, k), (i + 1, j)): i for i in range(1, n) for j, k in values}
    return _statistic(n, 1, acc)


@memo(maxsize=4)
def stat_product(f: Statistic, g: Statistic) -> Statistic:
    """Pointwise product, expanded by pairwise indicator merging.

    Each term becomes three masks once: its pairs (bit i·(n+1)+j), its sources
    and its targets. Two injective terms merge iff they share as many pairs as
    sources and as targets, since then every shared source and target belongs
    to a shared pair; the merged term is the union of the pair masks. A square
    (f == g) visits each unordered pair of terms once and doubles the products
    off the diagonal. Numerators add up over the product of the denominators;
    each distinct merged mask is decoded once, low bit first, so its pairs come
    out sorted. Refused before the loop past _MAX_VISITS pair visits, and
    after any outer term that leaves more than _MAX_TERMS terms held (memory).
    """
    if f.n != g.n:
        raise ParseError(f"ambient sizes differ: {f.n} vs {g.n}")
    square = f == g
    visits = len(f.nums) * (len(f.nums) + 1) // 2 if square else len(f.nums) * len(g.nums)
    check_guard(visits, _MAX_VISITS, "statistic product pair visits")
    limit = effective_limit(_MAX_TERMS)
    pair_at = {}
    a = _term_masks(f, pair_at)
    b = a if square else _term_masks(g, pair_at)
    acc = {}
    for t, (P, D, R, ca) in enumerate(a):
        if square:
            acc[P] = acc.get(P, 0) + ca * ca
            ca, rest = 2 * ca, a[t + 1:]
        else:
            rest = b
        for Q, E, T, cb in rest:
            if (P & Q).bit_count() == (D & E).bit_count() == (R & T).bit_count():
                key = P | Q
                acc[key] = acc.get(key, 0) + ca * cb
        if len(acc) > limit:
            raise refusal("statistic product terms", len(acc), limit)
    return _statistic(f.n, f.den * g.den, {_pairs(m, pair_at): c for m, c in acc.items() if c})


def _term_masks(f: Statistic, pair_at: dict) -> list:
    """(pair mask, source mask, target mask, num) per term of f; pair_at maps
    each pair's bit to the pair tuple itself, so decoded terms share it."""
    width = f.n + 1
    out = []
    for pairs, c in f.nums:
        P = D = R = 0
        for pair in pairs:
            i, j = pair
            bit = 1 << (i * width + j)
            pair_at[bit] = pair
            P |= bit
            D |= 1 << i
            R |= 1 << j
        out.append((P, D, R, c))
    return out


def _pairs(m: int, pair_at: dict) -> tuple:
    """The pairs of pair mask m, sorted by i: its bits read from low to high."""
    out = []
    while m:
        bit = m & -m
        out.append(pair_at[bit])
        m ^= bit
    return tuple(out)


@memo(maxsize=4)
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
    g = math.gcd(scale, *acc.values())
    return ClassFunction(f.n, scale // g, MappingProxyType({m: v // g for m, v in acc.items() if v}))


def class_eval(cf: ClassFunction, mu) -> Fraction:
    """Value of the class function on the conjugacy class of cycle type mu."""
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    if sum(mu) != cf.n:
        raise ParseError(f"|mu| = {sum(mu)} but the class function lives on S_{cf.n}")
    # remove mu from the support
    return Fraction(_ribbon_chains(cf.nums, [-r for r in mu]).get(0, 0), cf.den)


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
