"""Brute-force and alternant oracles used to validate the fast rules.

Three independent computations live here:

* brute_atomic — literal sum of p_cyc(w) over every completion of a partial
  permutation (factorial guard).
* alternant_char — character values by multiplying p_k against an alternant,
  tracked as signed exponent vectors; shares no code with the tableau search.
* word_array_path_expansion — the standard-and-stable word array sum, an
  independent route to the Schur expansion of a path power sum.

The "census" sweep checks the pattern route of exc^m, maj^m and des^m,
products and symmetrization, against the same statistics built and merged
term by term.

ORACLE_CHECKS holds the sweeps of `pathmn oracle-check`: each oracle against
its fast rule on every small input.
"""

from itertools import combinations, permutations

from pathmn.characters import atomic_schur
from pathmn.errors import OracleMismatch, ParseError, check_guard
from pathmn.partial_perm import PartialPermutation, embed
from pathmn.partitions import check_composition, check_partition, partitions_of
from pathmn.ribbons import skew_mn
from pathmn.statistics import Statistic, _statistic, _table_product, builtin, symmetrize
from pathmn.symfunc import POWER, SCHUR, SymExpansion, path_power_to_schur, power_to_schur

__all__ = [
    "brute_atomic",
    "alternant_char",
    "standard_word_arrays",
    "array_weight",
    "unstable_pairs",
    "swap_unstable",
    "word_array_path_expansion",
    "packed_pairs",
    "ORACLE_CHECKS",
]


def brute_atomic(pp: PartialPermutation) -> SymExpansion:
    """Sum of p_cyc(w) over all w in S_n with w(I) = J, as a power expansion."""
    n = pp.n
    check_guard(n, 9, "brute-force ambient size n")
    fixed = dict(zip(pp.I, pp.J))
    hit = set(pp.J)
    sources = [v for v in range(1, n + 1) if v not in fixed]
    targets = [v for v in range(1, n + 1) if v not in hit]
    terms = {}
    for images in permutations(targets):
        w = dict(fixed)
        w.update(zip(sources, images))
        ct = _cycle_type(w, n)
        terms[ct] = terms.get(ct, 0) + 1
    return SymExpansion(POWER, n, terms)


def _cycle_type(w: dict, n: int) -> tuple:
    seen = [False] * (n + 1)
    lengths = []
    for v in range(1, n + 1):
        if seen[v]:
            continue
        size = 0
        u = v
        while not seen[u]:
            seen[u] = True
            size += 1
            u = w[u]
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def alternant_char(lam, alpha) -> int:
    """chi^lam_alpha via exponent-vector bumping against the alternant.

    State is a signed sum of strictly decreasing exponent vectors on N = |lam|
    variables, seeded with delta = (N-1, ..., 1, 0). Multiplying by p_k bumps
    one exponent by k; collisions kill the term, re-sorting contributes the
    sign of the displacement. The answer is the coefficient at lam + delta.
    """
    lam = check_partition(lam)
    alpha = check_composition(alpha)
    if sum(lam) != sum(alpha):
        raise ParseError(f"size mismatch: |{lam}| = {sum(lam)} but |alpha| = {sum(alpha)}")
    n_rows = sum(lam)
    delta = tuple(range(n_rows - 1, -1, -1))
    state = {delta: 1}
    for k in alpha:
        nxt = {}
        for exps, c in state.items():
            present = set(exps)
            for idx, e in enumerate(exps):
                moved = e + k
                if moved in present:
                    continue
                gamma = sorted(exps[:idx] + exps[idx + 1:] + (moved,), reverse=True)
                sign = -1 if (gamma.index(moved) - idx) % 2 else 1
                gamma = tuple(gamma)
                nxt[gamma] = nxt.get(gamma, 0) + sign * c
        state = {g: c for g, c in nxt.items() if c}
    target = tuple(
        (lam[i] if i < len(lam) else 0) + (n_rows - 1 - i) for i in range(n_rows)
    )
    return state.get(target, 0)


def standard_word_arrays(mu, N: int):
    """All arrays of N words in which each letter 1..len(mu) appears once.

    Built by inserting letters in increasing order at every position of every
    word, so each array is produced exactly once (N(N+1)...(N+r-1) in total).
    """
    arrays = [((),) * N]
    for letter in range(1, len(mu) + 1):
        nxt = []
        for words in arrays:
            for w_idx, word in enumerate(words):
                for pos in range(len(word) + 1):
                    grown = word[:pos] + (letter,) + word[pos:]
                    nxt.append(words[:w_idx] + (grown,) + words[w_idx + 1:])
        arrays = nxt
    return arrays


def array_weight(words, mu) -> tuple:
    """wt(omega)_i = (sum of part sizes of the letters of word i) + N - i."""
    N = len(words)
    return tuple(
        sum(mu[c - 1] for c in word) + (N - i) for i, word in enumerate(words, start=1)
    )


def unstable_pairs(words, mu) -> list:
    """All witnesses (i, j, |v_i|, |v_j|, score) of instability.

    Positions i < j are unstable when suffixes v_i, v_j (possibly empty) have
    mu_{v_i} - i = mu_{v_j} - j; the common value is the score. An array is
    stable iff this list is empty.
    """
    out = []
    suffix_sums = []
    for word in words:
        sums = [0]
        for c in reversed(word):
            sums.append(sums[-1] + mu[c - 1])
        suffix_sums.append(sums)  # sums[t] = weight of the length-t suffix
    for i in range(1, len(words) + 1):
        for j in range(i + 1, len(words) + 1):
            for vi, si in enumerate(suffix_sums[i - 1]):
                for vj, sj in enumerate(suffix_sums[j - 1]):
                    if si - i == sj - j:
                        out.append((i, j, vi, vj, si - i))
    return out


def swap_unstable(words, pair) -> tuple:
    """Exchange the complementary prefixes of an unstable pair.

    Writing w_i = u_i v_i and w_j = u_j v_j, the swap produces w_i' = u_j v_i
    and w_j' = u_i v_j, which transposes entries i and j of the weight vector.
    """
    i, j, vi, vj, _score = pair
    wi, wj = words[i - 1], words[j - 1]
    ui, suf_i = wi[: len(wi) - vi], wi[len(wi) - vi:]
    uj, suf_j = wj[: len(wj) - vj], wj[len(wj) - vj:]
    out = list(words)
    out[i - 1] = uj + suf_i
    out[j - 1] = ui + suf_j
    return tuple(out)


def word_array_path_expansion(mu, N: int) -> SymExpansion:
    """Schur expansion of a path power sum by summing stable standard arrays.

    Each stable array contributes the sign of the permutation sorting its
    weight vector, attached to the partition (sorted weight) - delta; its
    weights are distinct, since wt_i = wt_j is the instability of the whole
    words i and j. Equals path_power_to_schur(mu); the m(mu)! multiplicity
    emerges on its own.
    """
    mu = check_partition(tuple(sorted(mu, reverse=True)))
    if N < sum(mu):
        raise ParseError(f"need N >= |mu| = {sum(mu)} so every shape fits, got {N}")
    check_guard(sum(mu), 5, "word-array degree |mu|")
    check_guard(N, 8, "word-array length N")
    terms = {}
    for words in standard_word_arrays(mu, N):
        if unstable_pairs(words, mu):
            continue
        wt = array_weight(words, mu)
        swt = sorted(wt, reverse=True)
        sign = _sort_sign(wt)
        lam = tuple(e - (N - 1 - i) for i, e in enumerate(swt))
        lam = check_partition(tuple(p for p in lam if p))
        terms[lam] = terms.get(lam, 0) + sign
    return SymExpansion(SCHUR, sum(mu), terms)


def _sort_sign(seq) -> int:
    inv = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] < seq[b]
    )
    return -1 if inv % 2 else 1


def packed_pairs(max_k: int):
    """Every packed pair with k <= max_k constraints, I ascending."""
    for k in range(max_k + 1):
        for r in range(k, 2 * k + 1):
            universe = range(1, r + 1)
            for I in combinations(universe, k):
                for J in permutations(universe, k):
                    if set(I) | set(J) == set(universe):
                        yield PartialPermutation(r, I, J)


def _check_atomic_scope(max_n: int) -> int:
    n = min(max_n, 7)
    pps = [embed(pp, n) for pp in packed_pairs(3) if pp.n <= n]
    for pp in pps:
        if atomic_schur(pp) != power_to_schur(brute_atomic(pp)):
            raise OracleMismatch(
                f"atomic expansion disagrees with brute force for {pp.I} -> {pp.J} at n={n}"
            )
    return len(pps)


def _check_words_scope(max_n: int) -> int:
    mus = [mu for m in range(min(max_n, 5) + 1) for mu in partitions_of(m)]
    for mu in mus:
        if word_array_path_expansion(mu, sum(mu)) != path_power_to_schur(mu):
            raise OracleMismatch(f"word-array expansion disagrees for mu={mu}")
    return len(mus)


def _compositions_of(n: int):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions_of(n - first):
            yield (first,) + rest


def _check_alternant_scope(max_n: int) -> int:
    pairs = [(lam, alpha) for m in range(min(max_n, 6) + 1)
             for lam in partitions_of(m) for alpha in _compositions_of(m)]
    for lam, alpha in pairs:
        if alternant_char(lam, alpha) != skew_mn(lam, alpha):
            raise OracleMismatch(f"alternant disagrees at lam={lam}, alpha={alpha}")
    return len(pairs)


def _check_census_scope(max_n: int) -> int:
    """exc^m for m <= 3 at every n <= max_n, up to 12 (the explicit cubes to
    n = 12 take about half a second together), and maj^m and des^m for m <= 2
    up to n = 8: the table product's terms and the census's class function
    against those of the terms, each placed on all n points."""
    count = 0
    for name, top, moments in [("exc", 12, 3), ("maj", 8, 2), ("des", 8, 2)]:
        for n in range(1, min(max_n, top) + 1):
            f = builtin(name, n)
            power, reference = f, f.explicit()
            for m in range(1, moments + 1):
                if m > 1:
                    # the pattern route at every n, also where stat_product takes the terms
                    patterns, den = _table_product(power.patterns, power.den, f.patterns, f.den, n)
                    power = Statistic(patterns, den, n)
                    reference = _term_product(reference, f.explicit())
                if power.explicit() != reference or symmetrize(power) != symmetrize(reference):
                    raise OracleMismatch(f"census route disagrees with the explicit one for {name}^{m} at n={n}")
                count += 1
    return count


def _term_product(f: Statistic, g: Statistic) -> Statistic:
    """f·g for two statistics of terms, pair by pair and with no mask: two
    terms merge when the union of their pairs is injective."""
    acc = {}
    for _, P, _, _, a in f.patterns:
        for _, Q, _, _, b in g.patterns:
            union = dict(P)
            if all(union.setdefault(i, j) == j for i, j in Q) and len(set(union.values())) == len(union):
                pairs = tuple(sorted(union.items()))
                acc[pairs] = acc.get(pairs, 0) + a * b
    return _statistic(f.n, f.den * g.den, acc)


# scope -> sweep(max_n) returning its number of comparisons; raises OracleMismatch
ORACLE_CHECKS = {
    "atomic": _check_atomic_scope,
    "words": _check_words_scope,
    "alternant": _check_alternant_scope,
    "census": _check_census_scope,
}
