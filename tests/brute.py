"""Naive reference implementations shared by the test modules.

Everything here is deliberately brute force: straight enumeration over S_n,
quadratic longest-increasing-subsequence, recursive tableau counting, chain
enumeration for ribbon characters. The point is independence from the package
internals, so keep these free of pathmn imports.
"""

import itertools
from collections import Counter
from fractions import Fraction


def merge_pairs(a_pairs, b_pairs):
    """Union of two sets of (i, j) constraints, sorted; None when they clash.

    They clash when some source is sent to two targets or some target is
    reached from two sources. a_pairs is assumed clash-free itself.
    """
    fwd = dict(a_pairs)
    bwd = {j: i for i, j in a_pairs}
    for i, j in b_pairs:
        if fwd.get(i, j) != j or bwd.get(j, i) != i:
            return None
        fwd[i] = j
        bwd[j] = i
    return tuple(sorted(fwd.items()))


def components_type(n, pairs):
    """(path type, cycle type) of the edges i -> j on [n] by union-find: a
    component is a cycle iff it has as many edges as vertices, otherwise a
    path. Isolated vertices are paths of size 1."""
    parent = list(range(n + 1))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in pairs:
        parent[root(i)] = root(j)
    vertices, edges = Counter(), Counter()
    for v in range(1, n + 1):
        vertices[root(v)] += 1
    for i, _ in pairs:
        edges[root(i)] += 1
    paths = sorted((size for r, size in vertices.items() if edges[r] < size), reverse=True)
    cycles = sorted((size for r, size in vertices.items() if edges[r] == size), reverse=True)
    return tuple(paths), tuple(cycles)


def all_perms(n):
    """All of S_n as image tuples: w[i] is the image of i + 1."""
    return itertools.permutations(range(1, n + 1))


def cycle_type_of(w):
    n = len(w)
    seen = [False] * (n + 1)
    parts = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        size = 0
        v = s
        while not seen[v]:
            seen[v] = True
            size += 1
            v = w[v - 1]
        parts.append(size)
    return tuple(sorted(parts, reverse=True))


def lis_length(w):
    best = []
    for x in w:
        for i, b in enumerate(best):
            if b >= x:
                best[i] = x
                break
        else:
            best.append(x)
    return len(best)


def exc_of(w):
    return sum(1 for i, x in enumerate(w, start=1) if x > i)


def maj_of(w):
    return sum(i for i in range(1, len(w)) if w[i - 1] > w[i])


def des_of(w):
    return sum(1 for i in range(1, len(w)) if w[i - 1] > w[i])


def class_averages(n, value):
    """Average of value(w) over each conjugacy class, keyed by cycle type."""
    sums = {}
    counts = {}
    for w in all_perms(n):
        ct = cycle_type_of(w)
        sums[ct] = sums.get(ct, 0) + value(w)
        counts[ct] = counts.get(ct, 0) + 1
    return {ct: Fraction(sums[ct], counts[ct]) for ct in sums}


def syt_brute(lam):
    """Count standard Young tableaux by peeling removable corner cells."""
    lam = tuple(x for x in lam if x)
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        if lam[i] > nxt:
            total += syt_brute(lam[:i] + (lam[i] - 1,) + lam[i + 1 :])
    return total


def partitions_list(n, max_part=None):
    if n == 0:
        return [()]
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_list(n - first, first):
            out.append((first,) + rest)
    return out


def contains_(outer, inner):
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def skew_cells(outer, inner):
    """Cells of outer/inner as (row, col), both 1-based."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return [
        (r + 1, c + 1)
        for r in range(len(outer))
        for c in range(inner[r], outer[r])
    ]


def is_ribbon(cells):
    """Nonempty, edgewise connected, and free of 2x2 blocks."""
    cells = set(cells)
    if not cells:
        return False
    stack = [next(iter(cells))]
    seen = {stack[0]}
    while stack:
        r, c = stack.pop()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (r + dr, c + dc)
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if seen != cells:
        return False
    return not any(
        {(r, c), (r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells
        for (r, c) in cells
    )


def ribbon_sign(cells):
    rows = {r for r, _ in cells}
    return (-1) ** (len(rows) - 1)


def brute_skew_mn(outer, alpha, inner=()):
    """Signed count of ribbon chains from inner to outer with sizes alpha."""
    outer = tuple(x for x in outer if x)
    inner = tuple(x for x in inner if x)
    alpha = tuple(alpha)
    total = 0

    def go(cur, pos, sign):
        nonlocal total
        if pos == len(alpha):
            if cur == outer:
                total += sign
            return
        for nxt in partitions_list(sum(cur) + alpha[pos]):
            if contains_(nxt, cur) and contains_(outer, nxt):
                cells = set(skew_cells(nxt, cur))
                if is_ribbon(cells):
                    go(nxt, pos + 1, sign * ribbon_sign(cells))

    go(inner, 0, 1)
    return total

