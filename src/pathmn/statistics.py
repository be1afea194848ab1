"""Permutation statistics as tables of patterns, and their symmetrization.

A statistic on S_n is one record, Statistic(patterns, den, n): entries (r, Q,
links, weights, num), each the indicators 1_{alpha(Q)} of the pairs Q on the
points 1..r, over every increasing map alpha of 1..r into 1..n that keeps the
links (points sent to adjacent points), times num/den and the product of the
weighted points' images. A table such as exc (the one pattern 1 -> 2), maj and
des (8 patterns linked at a descent) does not depend on n. A term c·1_{I,J}
is the pattern placed on all n points, (n, pairs, (), (), c), whose only
placement is the identity; explicit() places every entry so.

Every product runs in one loop, _table_product, on masks of the patterns'
images under each merge of their points. Two tables multiply on every number
of points when that costs little more than on at most n (one table then
serves every n), unless their terms cost less; any other product places both
factors, whose one merge on n points makes each pair of terms a pair visit.
A product is refused before its loop past _MAX_VISITS merges or pair visits,
and in it past _MAX_TERMS held patterns.

symmetrize is the census sum_Q c_Q·W(n; Q)·A(type Q, n), W the weighted
count of the placements of Q (1 for a term) and A the atomic expansion of its
graph type, with no term built; explicit() is its oracle. It returns a Schur
SymExpansion: small integers on Maya masks, the form class_eval removes ribbons
from, times one factor.

The product, merge-count and class-function memos keep the 4 results used
last, which hold what variance_on_class reuses: f·f, its route's counts and
the class functions of f and f·f. Every memo result is read-only.
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
from pathmn.ribbons import _factorial, _ribbon_chains, memo
from pathmn.symfunc import SCHUR, SymExpansion, _reduced

__all__ = [
    "Statistic",
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
# a merge of linked patterns, with the census over them, costs about as much as 3 pair visits
# with the symmetrization of their terms (at 3 maj^3 and des^3 at n = 8 take the table, 15-20%
# faster than their terms); a merge of unlinked ones, which share each walk, about 1 (at 3,
# exc^5 at n = 6 and exc^6 at n = 6..7 would take their terms, 1.1 to 1.5x slower)
_MERGE_COST = 3
_MAX_TERMS = 250_000  # a statistic's terms or a product's patterns; maj at n = 80 has 249,640 (0.7 s, 90 MB to build)


class Statistic(NamedTuple):
    """A statistic on S_n: sum over its entries of num/den times prod alpha(p)
    over the weights, times 1_{alpha(Q)}, for every increasing map alpha of
    1..r into 1..n with alpha(p + 1) = alpha(p) + 1 at each link p.

    patterns holds one (r, Q, links, weights, num) per entry: Q its pairs
    sorted by source, on points of 1..r, links a sorted tuple of points p < r,
    weights a sorted tuple of points (repeats multiply), and a nonzero int; an
    entry with r > n has no term at n. A term is an entry (n, pairs, (), (),
    num). The entries are sorted and den is in lowest terms with them, so
    equal tables, and equal statistics of terms, are == and hash the same.
    """

    patterns: tuple
    den: int
    n: int

    @property
    def terms(self) -> tuple:
        """The IndicatorTerms of explicit(), sorted by (k, I, J)."""
        f = self.explicit()
        return tuple(IndicatorTerm(Fraction(c, f.den), PartialPermutation(f.n, I, J)) for _, I, J, c in f._rows())

    def _rows(self) -> list:
        """(k, I, J, num) per term of a statistic of terms, sorted by (k, I, J)."""
        return sorted((len(Q), [i for i, _ in Q], [j for _, j in Q], c) for _, Q, _, _, c in self.patterns)

    def explicit(self) -> "Statistic":
        """The same statistic term by term: itself when every entry is a term,
        else the placements of its patterns."""
        return self if _placed(self) else self._place()

    @memo(maxsize=1)
    def _place(self) -> "Statistic":
        """The placements of each pattern, counted first by _placements and
        refused past _MAX_TERMS unbuilt; the last one built is kept, for
        eval_pointwise over many permutations."""
        n = self.n
        check_guard(_placements(self), _MAX_TERMS, "statistic terms")
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


def _placed(f: Statistic) -> bool:
    """Whether every entry of f is a term (on all n points, no links or weights)."""
    return all(r == f.n and not links and not weights for r, _, links, weights, _ in f.patterns)


def _statistic(n: int, den: int, acc) -> Statistic:
    """The terms sum (num/den)·1_pairs of a {pairs: num} dict, zeros dropped, reduced."""
    g = math.gcd(den, *acc.values())
    return Statistic(tuple((n, p, (), (), c // g) for p, c in sorted(acc.items()) if c), den // g, n)


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
    """The built-in statistics: "exc" (exceedances), "maj" (major index) and
    "des" (descents), each an n-free table.

    exc is the one pattern 1 -> 2. A descent at position a is a value pair
    b < d with a -> d and a + 1 -> b: each merge (t, alpha, beta) of the
    linked positions a, a + 1 with the values b < d (_merges, the walk that
    multiplies tables) gives the pattern ((alpha1, beta2), (alpha2, beta1))
    on its t points, linked at alpha1, 8 in all; maj weights each by alpha1.
    """
    if n < 1:
        raise ParseError(f"ambient size must be >= 1, got {n}")
    if name not in BUILTINS:
        raise ParseError(f"unknown builtin statistic {name!r}")
    if name == "exc":
        return Statistic(((2, ((1, 2),), (), (), 1),), 1, n)
    return Statistic(tuple(sorted((t, ((a[1], b[2]), (a[2], b[1])), (a[1],), (a[1],) * (name == "maj"), 1)
                                  for t, a, b in _merges(2, (1,), 2, (), math.inf))), 1, n)


def stat_product(f, g):
    """Pointwise product, by _table_product. Two tables (not every entry a
    term) multiply pattern by pattern when their merges cost less than the
    pair visits of their terms, none built, or only the merges fit the guard;
    the table is built on every number of points, so that it serves every n,
    when that walks at most half again as many merges as on at most n points.
    Any other product places both factors (explicit()) and merges them on
    n points, where a term's one merge is the identity: each pair of terms is
    one pair visit, and a square (equal entries) visits each unordered pair
    once. Refused before the loop past _MAX_VISITS merges or pair visits, on
    the smaller count when both pass it.
    """
    if f.n != g.n:
        raise ParseError(f"ambient sizes differ: {f.n} vs {g.n}")
    if not (_placed(f) or _placed(g)):
        counts, limit = _merge_counts(f.patterns, g.patterns), effective_limit(_MAX_VISITS)
        merges, cap = sum(counts[:f.n + 1]), f.n
        if 2 * sum(counts) <= 3 * merges and sum(counts) <= limit:  # one table serves every n
            merges, cap = sum(counts), math.inf
        a, b = _placements(f), _placements(g)
        visits = a * (a + 1) // 2 if f == g else a * b  # at least those of the terms
        cost = merges * (_MERGE_COST if any(p[2] for p in f.patterns + g.patterns) else 1)
        # near n a pattern has few placements, and its terms are the cheaper route
        if merges <= limit and (cost <= visits or visits > limit):
            return Statistic(*_table_product(f.patterns, f.den, g.patterns, g.den, cap), f.n)
        if limit < merges <= visits:
            raise refusal("statistic product interleavings", merges, limit)
    f, g = f.explicit(), g.explicit()
    a, b = len(f.patterns), len(g.patterns)
    check_guard(a * (a + 1) // 2 if f.patterns == g.patterns else a * b, _MAX_VISITS,
                "statistic product pair visits")
    return Statistic(*_table_product(f.patterns, f.den, g.patterns, g.den, f.n), f.n)


def _placements(f: Statistic) -> int:
    """At least as many as the terms of f.explicit(), none built: the
    placements of its patterns, those that differ only in weights once."""
    return sum(_weight(f.n, r, links, ()) for r, _, links in {p[:3] for p in f.patterns})


@memo(maxsize=4)
def _table_product(f_patterns, f_den, g_patterns, g_den, cap) -> tuple:
    """(patterns, den) of the product pattern by pattern: a term of Q times a
    term of R is the term of their union, so each merge of their points onto
    t <= cap points whose union is injective gives one pattern on 1..t, with
    the links and weights of both factors carried along; a pattern on more
    points than the ambient n has no term there. Two terms placed on the same
    n points have one merge, the identity.

    The images are masks, built once per merge for each factor: a pair's bit
    is its rank among the distinct pairs of the two factors, and a pair only
    an image holds, or a point, takes the next bit when first seen, so no
    mask's width depends on n. Two images merge iff they share as many pairs
    as sources and as targets, since then every shared source and target
    belongs to a shared pair. A square (equal entries) takes each unordered
    pair of patterns once and doubles the products off the diagonal. Each
    distinct union is decoded once, low bit first: in order when every pair
    is ranked (two statistics of terms), else sorted. Refused after any
    pattern of g, at any merge, that leaves more than _MAX_TERMS patterns
    held (memory). Kept per pair of tables and cap, so a table on every
    number of points serves every n."""
    # (r, links, s, links) -> {(t, alpha): betas}; pair -> its pair, source and target bits, the pairs
    # of the factors numbered first, in rank order; point -> its bit; the held patterns,
    # (t, links as a mask of points, weights) -> {pair mask: num}
    walks, bits, points, acc = {}, {}, {}, {}
    for pair in sorted({pair for p in f_patterns + g_patterns for pair in p[1]}):
        _number(pair, bits, points)
    square = f_patterns == g_patterns
    limit, held, g_groups = effective_limit(_MAX_TERMS), 0, _groups(g_patterns)
    for f_key, f_group in (g_groups if square else _groups(f_patterns)).items():
        for g_key, g_group in g_groups.items():
            if square and f_group[-1][0] < g_group[0][0]:
                continue  # a square takes pattern i of f with pattern j <= i of g only
            walk = (f_key[0], f_key[1], g_key[0], g_key[1])
            if walk not in walks:
                walks[walk] = {}
                for t, alpha, beta in _merges(*walk, cap):
                    walks[walk].setdefault((t, alpha), []).append(beta)
            moved = {}  # beta -> g_group moved there, for this walk
            for (t, alpha), betas in walks[walk].items():
                links, weights, placed = here = _moved(f_group, f_key, alpha, bits, points)
                if f_group is g_group:
                    moved.setdefault(alpha, here)  # a square's group moved by the same map
                for beta in betas:
                    if beta not in moved:
                        moved[beta] = _moved(g_group, g_key, beta, bits, points)
                    links2, weights2, images = moved[beta]
                    sums = acc.setdefault((t, links | links2, tuple(sorted(weights + weights2))), {})
                    k = 0  # a square takes pattern i of f with pattern j <= i of g, twice off the diagonal
                    for j, P2, D2, T2, b in images:
                        while square and k < len(placed) and placed[k][0] < j:
                            k += 1
                        twice = 2 * b if square else b
                        for i, P, D, T, a in placed[k:]:
                            if (P & P2).bit_count() == (D & D2).bit_count() == (T & T2).bit_count():
                                if (m := P | P2) in sums:
                                    sums[m] += a * (twice if i > j else b)
                                else:
                                    sums[m], held = a * (twice if i > j else b), held + 1
                        if held > limit:
                            raise refusal("statistic product patterns", held, limit)
    den = f_den * g_den
    d = math.gcd(den, *(c for sums in acc.values() for c in sums.values()))
    pair_at = {bit: pair for pair, (bit, _, _) in bits.items()}
    ranked = list(bits) == sorted(bits)
    patterns = []
    for (t, links, weights), sums in acc.items():
        linked = tuple(p for p in range(links.bit_length()) if links >> p & 1)
        patterns += [(t, _pairs(m, pair_at, ranked), linked, weights, c // d) for m, c in sums.items() if c]
    return tuple(sorted(patterns)), den // d


def _groups(patterns) -> dict:
    """(r, links, weights) -> [(index, Q, num)] of a table's patterns."""
    groups = {}
    for k, (r, Q, links, weights, c) in enumerate(patterns):
        groups.setdefault((r, links, weights), []).append((k, Q, c))
    return groups


def _moved(group, key, alpha, bits, points) -> tuple:
    """A group of patterns moved by alpha: its links as a mask of points, its
    weights, and per pattern (index, pair mask, source mask, target mask, num)."""
    _, links, weights = key
    out = []
    for k, Q, c in group:
        P = D = T = 0
        for i, j in Q:
            pair = (alpha[i], alpha[j])
            p, s, t = bits.get(pair) or _number(pair, bits, points)
            P, D, T = P | p, D | s, T | t
        out.append((k, P, D, T, c))
    return sum(1 << alpha[p] for p in links), tuple(alpha[p] for p in weights), out


def _number(pair, bits, points) -> tuple:
    """The pair, source and target bits of a new pair: the next pair bit, and
    each point's bit, the next one for a new point."""
    i, j = pair
    bits[pair] = (1 << len(bits), points.setdefault(i, 1 << len(points)), points.setdefault(j, 1 << len(points)))
    return bits[pair]


def _pairs(m: int, pair_at: dict, ranked: bool) -> tuple:
    """The pairs of pair mask m, sorted by i: read low bit first when the
    bits are numbered in rank order."""
    out = []
    while m:
        bit = m & -m
        out.append(pair_at[bit])
        m ^= bit
    return tuple(out) if ranked else tuple(sorted(out))


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
    links these are all the order-preserving interleavings.

    No node is pushed that cannot finish within cap, and a node whose points
    left in both factors fill the room left takes them together at once, so
    two patterns on cap points have one merge, reached in no step."""
    stack = [(0, 0, 0, (0,), (0,))]
    while stack:
        i, j, t, alpha, beta = stack.pop()
        if r - i == s - j == cap - t:  # only the next point of both can follow, to the end
            rest = tuple(range(t + 1, cap + 1))
            yield cap, alpha + rest, beta + rest
        elif i == r and j == s:
            yield t, alpha, beta
        else:
            room = cap - t - 1  # the steps left after the next one
            for di, dj in _steps(i, j, r, links_a, s, links_b):
                if r - i - di <= room >= s - j - dj:
                    stack.append((i + di, j + dj, t + 1, alpha + (t + 1,) * di, beta + (t + 1,) * dj))


@memo(maxsize=4)
def _merge_counts(f_patterns, g_patterns) -> tuple:
    """How many merges onto t points _table_product walks, at index t: per
    pair of patterns (unordered for a square), the paths of _steps that end
    at step t, counted layer by layer; kept for the products it memoizes."""
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
    return tuple(counts)


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
    """ch_n(R f), a Schur expansion: the census of f's patterns by graph type,
    each type expanded atomically once.

    The terms of one pattern share its graph type and so their atomic
    expansion, so a pattern counts with W, its placements weighted (1 for a
    term), none built; the Reynolds average is divided by den·n! at the end.
    At one n the walked paths and cycles name the class.
    """
    groups, weight = {}, {}  # graph type -> sum of num·W; (r, links, weights) -> W
    for r, Q, links, weights, c in f.patterns:
        if (w := weight.get((r, links, weights))) is None:
            w = weight[r, links, weights] = _weight(f.n, r, links, weights)
        key = _graph_type(Q)
        groups[key] = groups.get(key, 0) + c * w
    atomics = [(c, *_atomic_from_type(core, nu, f.n)) for (core, nu), c in groups.items() if c]
    shared = math.gcd(*(factor for _, _, factor in atomics))  # so each type scales by a small int
    acc = {}
    for c, terms, factor in atomics:
        c *= factor // shared
        for m, v in terms.items():
            acc[m] = acc.get(m, 0) + c * v
    return _reduced(SCHUR, f.n, acc, shared, f.den * _factorial(f.n))


def class_eval(cf: SymExpansion, mu) -> Fraction:
    """Value of the class function with Schur expansion cf on the conjugacy class of cycle type mu."""
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    if cf.basis != SCHUR or sum(mu) != cf.degree:
        raise ParseError(f"need a Schur expansion of degree |mu| = {sum(mu)}, got ({cf.basis}, {cf.degree})")
    # remove mu from the support
    return Fraction(cf.factor * _ribbon_chains(cf.nums, [-r for r in mu]).get(0, 0), cf.den)


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
    hits = sum(c for _, pairs, _, _, c in f.patterns if all(w[i - 1] == j for i, j in pairs))
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
