"""Permutation statistics as indicator combinations, and their symmetrization.

A statistic on S_n is stored as a merged list of weighted indicators
c·1_{I,J}; the Reynolds operator (average over conjugation) sends it to a
class function, computed here via the atomic expansions of the underlying
partial permutations grouped by graph type. Moments and variances on a
conjugacy class follow by evaluating the resulting Schur coefficients against
character values.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from pathmn.characters import _atomic_from_type
from pathmn.errors import ParseError, check_guard
from pathmn.partial_perm import IndicatorTerm, PartialPermutation, decompose
from pathmn.partitions import check_partition
from pathmn.ribbons import _mask, memo
from pathmn.symfunc import _MAX_PARTS, SCHUR, SymExpansion, _p_to_schur

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
    """Finite combination sum c·1_{I,J} of indicators on S_n, like terms merged."""

    n: int
    terms: tuple  # IndicatorTerm, sorted by (k, I, J), no zero coefficients


@dataclass(frozen=True)
class ClassFunction:
    """A class function on S_n through ch_n: R f = sum c_lam chi^lam."""

    n: int
    schur: SymExpansion


def make_statistic(n: int, terms) -> Statistic:
    merged = {}
    for t in terms:
        if t.pp.n != n:
            raise ParseError(f"term on ambient size {t.pp.n}, expected {n}")
        merged[t.pp] = merged.get(t.pp, 0) + Fraction(t.coeff)
    return _sorted_statistic(n, [IndicatorTerm(c, pp) for pp, c in merged.items() if c])


def _sorted_statistic(n: int, kept) -> Statistic:
    kept.sort(key=lambda t: (t.pp.k, t.pp.I, t.pp.J))
    return Statistic(n, tuple(kept))


def builtin(name: str, n: int) -> Statistic:
    """The built-in statistics: "exc" (exceedances) and "maj" (major index).

    exc = sum over i < j of 1_{(i),(j)}; maj puts weight i on the descent
    indicator 1_{(i,i+1),(k,j)} for every value pair j < k.
    """
    if n < 1:
        raise ParseError(f"ambient size must be >= 1, got {n}")
    terms = []
    if name == "exc":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                terms.append(IndicatorTerm(Fraction(1), PartialPermutation(n, (i,), (j,))))
    elif name == "maj":
        for i in range(1, n):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    terms.append(
                        IndicatorTerm(Fraction(i), PartialPermutation(n, (i, i + 1), (k, j)))
                    )
    else:
        raise ParseError(f"unknown builtin statistic {name!r}")
    return make_statistic(n, terms)


def _scaled_numerators(terms):
    """The lcm d of the coefficient denominators, and each coefficient times d."""
    den = math.lcm(*(t.coeff.denominator for t in terms))
    return den, [t.coeff.numerator * (den // t.coeff.denominator) for t in terms]


@memo
def stat_product(f: Statistic, g: Statistic) -> Statistic:
    """Pointwise product, expanded by pairwise indicator merging.

    Each term of f is turned into forward and backward constraint maps once;
    a term of g is injective on its own, so it merges unless one of its pairs
    clashes with those maps. Coefficients add up as integers over the common
    denominator, and only the distinct nonzero products become validated terms.
    """
    if f.n != g.n:
        raise ParseError(f"ambient sizes differ: {f.n} vs {g.n}")
    check_guard(f.n, 12, "statistic product ambient size n")
    f_den, f_nums = _scaled_numerators(f.terms)
    g_den, g_nums = _scaled_numerators(g.terms)
    g_items = [(t.pp.pairs(), cb) for t, cb in zip(g.terms, g_nums)]
    acc = {}
    for a, ca in zip(f.terms, f_nums):
        fwd = dict(zip(a.pp.I, a.pp.J))
        bwd = dict(zip(a.pp.J, a.pp.I))
        a_pairs = sorted(fwd.items())
        a_key = tuple(a_pairs)
        for b_pairs, cb in g_items:
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
                key = tuple(sorted(a_pairs + new)) if new else a_key
                acc[key] = acc.get(key, 0) + ca * cb
    den = f_den * g_den
    kept = [
        IndicatorTerm(
            Fraction(c, den),
            PartialPermutation(f.n, tuple(i for i, _ in key), tuple(j for _, j in key)),
        )
        for key, c in acc.items()
        if c
    ]
    return _sorted_statistic(f.n, kept)


@memo
def symmetrize(f: Statistic) -> ClassFunction:
    """ch_n(R f): group terms by graph type, expand each class atomically.

    Indicators with the same path and cycle type have identical atomic
    expansions, so the Reynolds average costs one expansion per class, divided
    by n! at the end.
    """
    den, nums = _scaled_numerators(f.terms)
    groups = {}
    for t, c in zip(f.terms, nums):
        gt = decompose(t.pp)
        groups[gt] = groups.get(gt, 0) + c
    acc = {}
    for gt, c in groups.items():
        if not c:
            continue
        for lam, v in _atomic_from_type(gt.path_type, gt.cycle_type).terms.items():
            acc[lam] = acc.get(lam, 0) + c * v
    scale = Fraction(1, den * math.factorial(f.n))
    return ClassFunction(f.n, SymExpansion(SCHUR, f.n, {lam: v * scale for lam, v in acc.items()}))


def class_eval(cf: ClassFunction, mu) -> Fraction:
    """Value of the class function on the conjugacy class of cycle type mu."""
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    if sum(mu) != cf.n:
        raise ParseError(f"|mu| = {sum(mu)} but the class function lives on S_{cf.n}")
    check_guard(len(mu), _MAX_PARTS, "number of parts")
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
    total = Fraction(0)
    for t in f.terms:
        if all(w[i - 1] == j for i, j in t.pp.pairs()):
            total += t.coeff
    return total


def stat_to_json(f: Statistic) -> str:
    return json.dumps(
        {
            "n": f.n,
            "terms": [
                {
                    "coeff": f"{t.coeff.numerator}/{t.coeff.denominator}",
                    "I": list(t.pp.I),
                    "J": list(t.pp.J),
                }
                for t in f.terms
            ],
        }
    )


def stat_from_json(text: str) -> Statistic:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    try:
        n = int(data["n"])
        terms = [
            IndicatorTerm(
                Fraction(str(t["coeff"])),
                PartialPermutation(n, tuple(int(v) for v in t["I"]), tuple(int(v) for v in t["J"])),
            )
            for t in data["terms"]
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ParseError(f"malformed statistic object: {e}") from None
    return make_statistic(n, terms)
