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
past _MAX_VISITS pair visits or merges, and in it past _MAX_TERMS held terms
or patterns. symmetrize returns a Schur SymExpansion: integers on Maya masks,
the form class_eval removes ribbons from.

A statistic whose coefficient on 1_{I,J} depends only on the packed pattern Q
of its pairs, on which of its points are adjacent (links) and on a product of
some of their positions (weights) is a PatternStatistic: an n-free table (exc
is the one pattern 1 -> 2; maj and des are 8 patterns linked at a descent).
Two of them multiply pattern by pattern over the merges of their points, on
every number of points when that costs little more than on at most n (one
table then serves every n), and one symmetrizes by the census sum_Q c_Q·W(n;
Q)·A(type Q, n), W the weighted count of the placements of Q, with no term
built. Any other statistic, a product that mixes the two and a product of
two tables whose merges cost more than their terms' pair visits take the
explicit route above; explicit() builds the terms, and it is the census's
oracle.

The product and class-function memos keep the 4 results used last, which
hold what variance_on_class reuses: f, f·f and their class functions; so does
the memo of pattern tables. Every memo result is read-only.
"""

import json
import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from pathmn.characters import _atomic_from_type
from pathmn.errors import (ParseError, check_guard, effective_limit, int_text, json_fields,
                           read_int, refusal)
# decompose is unused here but stays bound: perfbench's tracer test looks for it
from pathmn.partial_perm import IndicatorTerm, PartialPermutation, _graph_type, decompose
from pathmn.partitions import check_partition
from pathmn.ribbons import _ribbon_chains, memo
from pathmn.symfunc import SCHUR, SymExpansion, _reduced

__all__ = [
    "Statistic",
    "PatternStatistic",
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

BUILTINS = ("exc", "maj", "des")  # the names builtin knows; the CLI reads them here
# a product's pair visits: about 0.4 s if few pairs merge, 3 s if most do; or a pattern
# product's merges: maj^3 at n = 8 visits 1,339,072 pairs or walks 417,296 merges, and
# at n >= 12 1,182,176 merges; exc^6 at any n 545,731
_MAX_VISITS = 2_000_000
# a merge of linked patterns, with the census over them, costs about as much as 4 pair visits
# with the symmetrization of their terms (maj^2 and des^2 at n = 5..8 break even at 4.4 to 5.5,
# their cubes at 3 to 5); a merge of unlinked ones, which share each walk, about 1 (exc^m)
_MERGE_COST = 4
_MAX_TERMS = 250_000  # a statistic's or a product's terms; maj at n = 80 has 249,640 (0.7 s, 90 MB to build)


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

    def explicit(self) -> "Statistic":
        """This statistic: its terms are built already."""
        return self


class PatternStatistic(NamedTuple):
    """An order-regular statistic on S_n: sum over patterns Q of num/den times
    prod alpha(p) over its weights, times 1_{alpha(Q)}, for every increasing
    map alpha of 1..r into 1..n with alpha(p + 1) = alpha(p) + 1 at each link p.

    patterns holds one (r, Q, links, weights, num) per entry: Q its pairs
    sorted by source, on exactly the points 1..r, links a sorted tuple of
    points p < r, weights a sorted tuple of points (repeats multiply), and a
    nonzero int; an entry with r > n has no term at n. The table does not
    depend on n. Its entries are sorted and den is in lowest terms with them;
    the first field is a tuple, so a PatternStatistic is never == to a
    Statistic (memo keys).
    """

    patterns: tuple
    den: int
    n: int

    @property
    def terms(self) -> tuple:
        """The IndicatorTerms of explicit(), sorted by (k, I, J)."""
        return self.explicit().terms

    @memo(maxsize=1)
    def explicit(self) -> Statistic:
        """The same statistic term by term: the placements of each pattern,
        counted first and refused past _MAX_TERMS unbuilt; the last one built
        is kept, for eval_pointwise over many permutations."""
        n = self.n
        check_guard(sum(_weight(n, r, links, ()) for r, _, links, _, _ in self.patterns), _MAX_TERMS,
                    "statistic terms")
        acc, placed = {}, {}  # (r, links) -> every alpha, read from index 1
        for r, Q, links, weights, c in self.patterns:
            if (r, links) not in placed:
                shift = [sum(q < p for q in links) for p in range(r + 1)]
                placed[r, links] = [(0, *(y[p - 1 - shift[p]] + shift[p] for p in range(1, r + 1)))
                                    for y in combinations(range(1, n - len(links) + 1), r - len(links))]
            for alpha in placed[r, links]:
                pairs = tuple((alpha[i], alpha[j]) for i, j in Q)
                acc[pairs] = acc.get(pairs, 0) + c * math.prod(alpha[p] for p in weights)
        return _statistic(n, self.den, acc)


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


def builtin(name: str, n: int) -> PatternStatistic:
    """The built-in statistics: "exc" (exceedances), "maj" (major index) and
    "des" (descents), each an n-free PatternStatistic.

    exc is the one pattern 1 -> 2. A descent at position a is a value pair
    b < d with a -> d and a + 1 -> b: the 8 patterns of ((a, d), (a + 1, b))
    on the points they cover, linked at a; maj weights each one by a.
    """
    if n < 1:
        raise ParseError(f"ambient size must be >= 1, got {n}")
    if name not in BUILTINS:
        raise ParseError(f"unknown builtin statistic {name!r}")
    if name == "exc":
        return PatternStatistic(((2, ((1, 2),), (), (), 1),), 1, n)
    return PatternStatistic(tuple(sorted(
        (len(points), ((a, d), (a + 1, b)), (a,), (a,) * (name == "maj"), 1)
        for a in range(1, 4) for b, d in combinations(range(1, 5), 2)
        if (points := {a, a + 1, b, d}) == set(range(1, len(points) + 1)))), 1, n)


@memo(maxsize=4)
def stat_product(f, g):
    """Pointwise product: of two PatternStatistics by _table_product when
    its merges cost less than the pair visits of their terms, none built, or
    only the merges fit the guard; of anything else, and of two such tables
    past that, by pairwise indicator merging of the explicit terms. The table
    is built on every number of points, so that it serves every n, when that
    walks at most half again as many merges as on at most n points.

    Each term becomes three masks once: its pairs (bit i·(n+1)+j), its sources
    and its targets. Two injective terms merge iff they share as many pairs as
    sources and as targets, since then every shared source and target belongs
    to a shared pair; the merged term is the union of the pair masks. A square
    (f == g) visits each unordered pair of terms once and doubles the products
    off the diagonal. Numerators add up over the product of the denominators;
    each distinct merged mask is decoded once, low bit first, so its pairs come
    out sorted. Refused before the loop past _MAX_VISITS merges or pair visits,
    on the smaller count when both pass it, and after any outer term that
    leaves more than _MAX_TERMS terms held (memory).
    """
    if f.n != g.n:
        raise ParseError(f"ambient sizes differ: {f.n} vs {g.n}")
    if type(f) is type(g) is PatternStatistic:
        counts, limit = _merge_counts(f.patterns, g.patterns), effective_limit(_MAX_VISITS)
        merges, cap = sum(counts[:f.n + 1]), f.n
        if 2 * sum(counts) <= 3 * merges and sum(counts) <= limit:  # one table serves every n
            merges, cap = sum(counts), math.inf
        a, b = _placements(f), _placements(g)
        visits = a * (a + 1) // 2 if f == g else a * b  # at least those of the terms
        cost = merges * (_MERGE_COST if any(p[2] for p in f.patterns + g.patterns) else 1)
        # near n a pattern has few placements, and its terms are the cheaper route
        if merges <= limit and (cost <= visits or visits > limit):
            return PatternStatistic(*_table_product(f.patterns, f.den, g.patterns, g.den, cap), f.n)
        if limit < merges <= visits:
            raise refusal("statistic product interleavings", merges, limit)
    f, g = f.explicit(), g.explicit()
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


def _placements(f: PatternStatistic) -> int:
    """At least as many as the terms of f.explicit(), none built: the
    placements of its patterns, those that differ only in weights once."""
    return sum(_weight(f.n, r, links, ()) for r, _, links in {p[:3] for p in f.patterns})


@memo(maxsize=4)
def _table_product(f_patterns, f_den, g_patterns, g_den, cap) -> tuple:
    """(patterns, den) of the product pattern by pattern: a term of Q times a
    term of R is the term of their union, so each merge of their points onto
    t <= cap points whose union is injective gives one pattern on 1..t, with
    the links and weights of both factors carried along; a pattern on more
    points than the ambient n has no term there. The images are masks,
    merged as stat_product merges terms, and each distinct union is decoded
    once. Refused after any pattern of g that leaves more than _MAX_TERMS
    patterns held (memory). Kept per pair of tables and cap, so a table on
    every number of points serves every n."""
    # (r, links, weights) -> [(index, Q, num)] of f; (r, links, s, links) -> {(t, alpha): betas};
    # the held patterns, (t, links as a mask of points, weights) -> {pair mask: num}
    groups, merges, square, acc = {}, {}, f_patterns == g_patterns, {}
    for i, (r, Q, links, weights, a) in enumerate(f_patterns):
        groups.setdefault((r, links, weights), []).append((i, Q, a))
    limit = effective_limit(_MAX_TERMS)
    for j, (s, R, links_b, weights_b, b) in enumerate(g_patterns):
        for (r, links_a, weights_a), group in groups.items():
            # a square takes each unordered pair of patterns once, twice off the diagonal
            pairs = [(Q, a * b * (1 + (square and i < j))) for i, Q, a in group if not square or i <= j]
            if not pairs:
                continue
            walk = (r, links_a, s, links_b)
            if walk not in merges:
                merges[walk] = {}
                for t, alpha, beta in _merges(*walk, cap):
                    merges[walk].setdefault((t, alpha), []).append(beta)
            for (t, alpha), betas in merges[walk].items():
                images = [(*_image(Q, alpha, t + 1), c) for Q, c in pairs]
                links = sum(1 << alpha[p] for p in links_a)
                weights = tuple(alpha[p] for p in weights_a)
                for beta in betas:
                    P2, D2, T2 = _image(R, beta, t + 1)
                    key = (t, links | sum(1 << beta[q] for q in links_b) if links_b else links,
                           tuple(sorted(weights + tuple(beta[q] for q in weights_b))) if weights_b else weights)
                    sums = acc.setdefault(key, {})
                    for P, D, T, c in images:
                        if (P & P2).bit_count() == (D & D2).bit_count() == (T & T2).bit_count():
                            sums[P | P2] = sums.get(P | P2, 0) + c
        if (held := sum(map(len, acc.values()))) > limit:
            raise refusal("statistic product patterns", held, limit)
    den = f_den * g_den
    d = math.gcd(den, *(c for sums in acc.values() for c in sums.values()))
    pair_at = {t: {1 << k: divmod(k, t + 1) for k in range((t + 1) ** 2)} for t, *_ in acc}  # width t + 1
    patterns = sorted((t, _pairs(m, pair_at[t]), tuple(p for p in range(t) if links >> p & 1), weights, c // d)
                      for (t, links, weights), sums in acc.items() for m, c in sums.items() if c)
    return tuple(patterns), den // d


def _image(Q, alpha, width):
    """(pair mask, source mask, target mask) of the pairs Q moved by alpha,
    pair (i, j) at bit i·width + j."""
    P = D = T = 0
    for i, j in Q:
        i, j = alpha[i], alpha[j]
        P |= 1 << (i * width + j)
        D |= 1 << i
        T |= 1 << j
    return P, D, T


def _steps(i, j, r, links_a, s, links_b):
    """The moves of a merge past i points of 1..r and j of 1..s: the next
    point of both, of the first alone, of the second alone; a linked point's
    partner must come next, so no lone point comes between the two."""
    return ([(1, 1)] if i < r and j < s else []) + ([(1, 0)] if i < r and j not in links_b else []) \
        + ([(0, 1)] if j < s and i not in links_a else [])


def _merges(r, links_a, s, links_b, cap):
    """The merges of 1..r and 1..s onto 1..t, t <= cap: pairs of increasing
    maps alpha, beta whose images cover 1..t and keep every link p, alpha(p + 1)
    = alpha(p) + 1, as (t, alpha, beta), the maps read from index 1. With no
    links these are all the order-preserving interleavings."""
    stack = [(0, 0, 0, (0,), (0,))]
    while stack:
        i, j, t, alpha, beta = stack.pop()
        if i == r and j == s:
            yield t, alpha, beta
        elif t < cap:
            for di, dj in _steps(i, j, r, links_a, s, links_b):
                stack.append((i + di, j + dj, t + 1, alpha + (t + 1,) * di, beta + (t + 1,) * dj))


def _merge_counts(f_patterns, g_patterns) -> list:
    """How many merges onto t points _table_product walks, at index t: per
    pair of patterns (unordered for a square), the paths of _steps that end
    at step t, counted layer by layer."""
    shapes, counts, square = {}, [], f_patterns == g_patterns
    for i, (r, _, links, *_) in enumerate(f_patterns):
        for s, _, links_b, *_ in g_patterns[i if square else 0:]:
            shapes[r, links, s, links_b] = shapes.get((r, links, s, links_b), 0) + 1
    for (r, links_a, s, links_b), count in shapes.items():
        counts += [0] * (r + s + 1 - len(counts))
        layer = {(0, 0): 1}
        for t in range(r + s + 1):
            counts[t] += count * layer.pop((r, s), 0)
            nxt = {}
            for (i, j), c in layer.items():
                for di, dj in _steps(i, j, r, links_a, s, links_b):
                    nxt[i + di, j + dj] = nxt.get((i + di, j + dj), 0) + c
            layer = nxt
    return counts


def _weight(n, r, links, weights) -> int:
    """W: the sum over the increasing maps alpha of 1..r into 1..n that keep
    the links of prod alpha(p) over the weights. Point p after l links goes to
    y_{p - l} + l for an m-subset y of 1..N, m = r - |links| and N = n - |links|,
    so with no weights W = C(N, m). Else W is a polynomial in N of degree
    D = m + |weights|: a DP over the positions y gives it at N = 0..D, and
    Lagrange's formula on those nodes at N."""
    N, m = n - len(links), r - len(links)
    if m > N:
        return 0
    if not weights:
        return math.comb(N, m)
    offsets = [[] for _ in range(m + 1)]  # block k -> the l of each weight on it
    for p in weights:
        l = sum(q < p for q in links)
        offsets[p - l].append(l)
    D = m + len(weights)
    dp, values = [1] + [0] * m, [int(m == 0)]
    for y in range(1, min(N, D) + 1):
        for k in range(m, 0, -1):
            dp[k] += dp[k - 1] * math.prod(y + l for l in offsets[k])
        values.append(dp[m])
    if N <= D:
        return values[N]
    P = math.prod(N - i for i in range(D + 1))
    terms = ((-1) ** (D - i) * math.comb(D, i) * v * (P // (N - i)) for i, v in enumerate(values))
    return sum(terms) // math.factorial(D)


@memo(maxsize=4)
def symmetrize(f) -> SymExpansion:
    """ch_n(R f), a Schur expansion: group terms by graph type, expand each class atomically.

    Indicators with the same path and cycle type have identical atomic
    expansions, so the Reynolds average costs one expansion per class, divided
    by den·n! at the end. At one n the walked paths and cycles name the class.
    A PatternStatistic's terms of one pattern share its graph type, so it is
    grouped by pattern, weighted by W summed over its placements, none built.
    """
    if type(f) is PatternStatistic:
        census, weight = [], {}  # W once per (r, links, weights)
        for r, Q, *placed, c in f.patterns:
            key = (r, *placed)
            if key not in weight:
                weight[key] = _weight(f.n, *key)
            census.append((Q, c * weight[key]))
    else:
        census = f.nums
    groups = {}
    for pairs, c in census:
        key = _graph_type(pairs)
        groups[key] = groups.get(key, 0) + c
    acc = {}
    for (core, nu), c in groups.items():
        if c:
            for m, v in _atomic_from_type(core, nu, f.n).items():
                acc[m] = acc.get(m, 0) + c * v
    return _reduced(SCHUR, f.n, f.den * math.factorial(f.n), acc)


def class_eval(cf: SymExpansion, mu) -> Fraction:
    """Value of the class function with Schur expansion cf on the conjugacy class of cycle type mu."""
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    if cf.basis != SCHUR or sum(mu) != cf.degree:
        raise ParseError(f"need a Schur expansion of degree |mu| = {sum(mu)}, got ({cf.basis}, {cf.degree})")
    # remove mu from the support
    return Fraction(_ribbon_chains(cf.nums, [-r for r in mu]).get(0, 0), cf.den)


def variance_on_class(f, mu) -> Fraction:
    """Variance of f over the conjugacy class of cycle type mu."""
    mean = class_eval(symmetrize(f), mu)
    second = class_eval(symmetrize(stat_product(f, f)), mu)
    return second - mean**2


def eval_pointwise(f, w) -> Fraction:
    """Evaluate on one permutation, given as the image tuple (w(1), ..., w(n))."""
    f, w = f.explicit(), tuple(w)
    if sorted(w) != list(range(1, f.n + 1)):
        raise ParseError(f"not a permutation of 1..{f.n}: {w}")
    hits = sum(c for pairs, c in f.nums if all(w[i - 1] == j for i, j in pairs))
    return Fraction(hits, f.den)


def stat_to_json(f) -> str:
    f, terms = f.explicit(), []
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
