"""The three benchmark workloads: inputs, the timed operations and their checks.

Each workload is a list of ops made from the seed alone. An op carries a key
that names its output independently of relabelling and of the seed, so that
`digests.json` (captured once over every key a seed can produce) checks every
op's exact output. Ops reach pathmn only through module attributes looked up
at call time, so the tracer's wrappers see every call.

- table: character_table(n) for a fixed ascending list of n, cold caches.
  Almost all ribbons (add_ribbons, _skew_mn). The seed does not change it.
- moments: builtin exc/maj powers and seeded random statistics squared,
  symmetrized and evaluated on every class. Almost all partial_perm and
  statistics (indicator_product merges, validation, decompose).
- queries: a seeded stream of small parse -> compute -> render requests, the
  way the CLI handlers make them, with ambient n up to 1200. Reads caches;
  repeats graph types under fresh labels and also draws fresh graph types.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations, zip_longest

import pathmn
import pathmn.characters
import pathmn.oracles
import pathmn.partial_perm
import pathmn.partitions
import pathmn.ribbons
import pathmn.statistics
import pathmn.symfunc

WORKLOADS = ("table", "moments", "queries")


@dataclass(frozen=True)
class Op:
    key: str  # names the exact output; identical keys must give identical output
    kind: str
    args: tuple


# --------------------------------------------------------------------------
# Harness-side combinatorics (independent of the code under test)


def _partitions(n, max_part=None):
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _text(parts):
    return ",".join(map(str, parts))


def _cycle_type(w):
    """Cycle type of a permutation given as a tuple of images of 1..n."""
    seen = set()
    lengths = []
    for start in range(1, len(w) + 1):
        if start in seen:
            continue
        size, v = 0, start
        while v not in seen:
            seen.add(v)
            size += 1
            v = w[v - 1]
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


# --------------------------------------------------------------------------
# table

TABLE_NS = tuple(range(4, 13))  # an odd count puts the median inside one op's times


def table_ops(seed):
    return [Op(f"table n{n}", "table", (n,)) for n in TABLE_NS]


# --------------------------------------------------------------------------
# moments

# (statistic, n, moment). n <= 7 entries are checked by direct counting.
MOMENT_BUILTINS = (
    ("exc", 6, 2),
    ("maj", 6, 2),
    ("exc", 7, 3),
    ("maj", 7, 2),
    ("exc", 9, 3),
    ("maj", 8, 2),
    ("exc", 11, 2),
    ("exc", 12, 2),
)
# Random statistics: fixed random templates, each relabelled by a seeded
# permutation of 1..n. Relabelling conjugates the statistic, which changes
# neither the symmetrized result nor the work, so every seed costs the same
# and every template has one digest. (n, template index, terms with k = 1, 2, 3)
RANDOM_TEMPLATES = (
    (7, 0, (10, 10, 5)), (7, 1, (10, 10, 5)),
    (9, 0, (14, 16, 8)), (9, 1, (14, 16, 8)), (9, 2, (14, 16, 8)), (9, 3, (14, 16, 8)), (9, 4, (14, 16, 8)),
)
DIRECT_CHECK_MAX_N = 7


def random_statistic(n, idx, counts, relabel=None):
    """Raw (coeff, I, J) terms of template idx at ambient size n, relabelled."""
    rng = random.Random(f"moments-{n}-{idx}")
    relabel = relabel or list(range(1, n + 1))
    terms = []
    for k, count in enumerate(counts, start=1):
        for _ in range(count):
            I = tuple(relabel[v - 1] for v in rng.sample(range(1, n + 1), k))
            J = tuple(relabel[v - 1] for v in rng.sample(range(1, n + 1), k))
            terms.append((Fraction(rng.randint(1, 9), rng.randint(1, 4)), I, J))
    return tuple(terms)


def moments_ops(seed, relabelled=True):
    ops = [Op(f"moments {name} n{n} m{m}", "builtin", (name, n, m)) for name, n, m in MOMENT_BUILTINS]
    rng = random.Random(f"moments-{seed}")
    for n, idx, counts in RANDOM_TEMPLATES:
        relabel = rng.sample(range(1, n + 1), n) if relabelled else None
        ops.append(Op(f"moments rand{n}-{idx} n{n} m2", "random", (n, 2, random_statistic(n, idx, counts, relabel))))
    return ops


# --------------------------------------------------------------------------
# queries

SMALL_N = (5, 6, 7)  # every request here is checked against an oracle
MEDIUM_N = (12, 25, 50, 100, 200, 320)
# From n = 1560 on, (n - 1)! passes CPython's 4300-digit int->str limit and
# render()/to_json() raise ValueError (a known defect, see README); no request
# may fail. Sizes just below that limit are left out too: their time is mostly
# C-level big-integer conversion, which the calibration loop does not track.
LARGE_N = (500, 800, 1200)
# Fixed request counts per (kind, band), so that every seed asks for the same
# amount of each kind of work.
QUERY_PLAN = (
    ("atomic", SMALL_N, 120), ("atomic", MEDIUM_N, 540), ("atomic", LARGE_N, 180),
    ("char", SMALL_N, 90), ("char", MEDIUM_N, 390), ("char", LARGE_N, 120),
    ("stable", MEDIUM_N, 272), ("stable", LARGE_N, 88),
    ("path", None, 288), ("power", None, 312),
)
FORMATS = ("human", "json")
CHAR_RHOS = ((), (1,), (2, 1), (3,))
REPEAT_SHARE = 0.4  # share of atomic/char requests that reuse an earlier (graph type, n)


def _all_structures():
    """Graph types (paths of >= 2 vertices, cycles) on at most 8 vertices, 1..6 edges."""
    out = []
    for support in range(1, 9):
        for in_paths in range(support + 1):
            for paths in _partitions(in_paths):
                if any(p < 2 for p in paths):
                    continue
                for cycles in _partitions(support - in_paths):
                    if 1 <= in_paths - len(paths) + support - in_paths <= 6:
                        out.append((paths, cycles))
    return out


STRUCTURES = tuple(_all_structures())
STABLE_MUS = tuple(
    mu for m in range(2, 9) for mu in _partitions(m) if all(p >= 2 for p in mu)
)
PATH_MUS = tuple(mu for m in range(1, 9) for mu in _partitions(m))
POWER_MUS = tuple(mu for m in range(1, 11) for mu in _partitions(m))


def _support(struct):
    paths, cycles = struct
    return sum(paths) + sum(cycles)


def _packed_pairs(struct):
    """Edges of the structure on vertices 1..support: paths first, then cycles."""
    paths, cycles = struct
    pairs, v = [], 1
    for size in paths:
        pairs += [(v + t, v + t + 1) for t in range(size - 1)]
        v += size
    for size in cycles:
        pairs += [(v + t, v + t + 1) for t in range(size - 1)] + [(v + size - 1, v)]
        v += size
    return pairs


def _relabelled_pp_text(struct, n, rng):
    labels = rng.sample(range(1, n + 1), _support(struct))
    pairs = [(labels[i - 1], labels[j - 1]) for i, j in _packed_pairs(struct)]
    rng.shuffle(pairs)
    return _text(i for i, _ in pairs) + " -> " + _text(j for _, j in pairs)


def _char_ok(rho, n):
    return n - sum(rho) >= (rho[0] if rho else 0)


def _graph_request(kind, s, n, fmt, rng):
    pp_text = _relabelled_pp_text(STRUCTURES[s], n, rng)
    if kind == "atomic":
        return Op(f"atomic s{s} n{n} {fmt}", kind, (pp_text, n, fmt))
    rho = rng.choice([r for r in CHAR_RHOS if _char_ok(r, n)])
    lam = ((n - sum(rho),) + rho) if n > sum(rho) else rho
    return Op(f"char s{s} n{n} r{_text(rho)}", kind, (_text(lam), pp_text, n, fmt))


def _even(rng, values, count):
    """count items cycling through values, in seeded order: each appears equally often, +-1."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _band_pool(band, choices):
    """Every (choice, n) pair of band, taking each n in turn until its choices run out."""
    columns = [[(c, n) for c in choices(n)] for n in band]
    return [pair for row in zip_longest(*columns) for pair in row if pair is not None]


def queries_ops(seed):
    """QUERY_PLAN's requests in a seeded order, with seeded labels and formats.

    Which graph types, shapes and sizes are asked for is fixed, so every seed
    asks for the same work; the seed decides the order, the labels, the
    formats, the characters asked for, and which requests are repeats. A
    repeat asks for the graph type and n of an earlier fresh request of its
    kind and band again, under new labels.
    """
    rng = random.Random(f"queries-{seed}")
    ops, taken = [], {}
    for kind, band, count in QUERY_PLAN:
        fmts = _even(rng, FORMATS, count)
        if kind in ("atomic", "char"):
            # fresh requests of both kinds in a band take distinct pairs of one
            # pool, shuffled the same way for every seed
            pool = _band_pool(band, lambda n: [i for i, st in enumerate(STRUCTURES) if _support(st) <= n])
            random.Random(f"queries-pool-{band}").shuffle(pool)
            start = taken.get(band, 0)
            fresh = count - int(count * REPEAT_SHARE)
            picks = pool[start:start + fresh]
            if len(picks) < fresh:
                raise ValueError(f"band {band} has too few graph types for {fresh} fresh {kind} requests")
            taken[band] = start + fresh
            picks += [rng.choice(picks) for _ in range(count - fresh)]
            ops += [_graph_request(kind, s, n, fmt, rng) for (s, n), fmt in zip(picks, fmts)]
        elif kind == "stable":
            pool = _band_pool(band, lambda n: STABLE_MUS)
            for i, fmt in enumerate(fmts):
                mu, n = pool[i % len(pool)]
                ops.append(Op(f"stable {_text(mu)} n{n} {fmt}", kind, (_text(mu), n, fmt)))
        else:
            mus = PATH_MUS if kind == "path" else POWER_MUS
            for i, fmt in enumerate(fmts):
                mu = mus[i % len(mus)]
                shuffled = list(mu)
                rng.shuffle(shuffled)  # the CLI accepts compositions and sorts them
                ops.append(Op(f"{kind} {_text(mu)} {fmt}", kind, (_text(shuffled), fmt)))
    rng.shuffle(ops)
    return ops


def queries_universe():
    """One op for every key queries_ops can produce, under a fixed labelling."""
    rng = random.Random("queries-universe")
    ops = []
    all_n = SMALL_N + MEDIUM_N + LARGE_N
    for s, struct in enumerate(STRUCTURES):
        for n in all_n:
            if _support(struct) > n:
                continue
            pp_text = _relabelled_pp_text(struct, n, rng)
            for fmt in FORMATS:
                ops.append(Op(f"atomic s{s} n{n} {fmt}", "atomic", (pp_text, n, fmt)))
            for rho in CHAR_RHOS:
                if _char_ok(rho, n):
                    lam = ((n - sum(rho),) + rho) if n > sum(rho) else rho
                    ops.append(Op(f"char s{s} n{n} r{_text(rho)}", "char", (_text(lam), pp_text, n, "human")))
    for mu in STABLE_MUS:
        for n in MEDIUM_N + LARGE_N:
            for fmt in FORMATS:
                ops.append(Op(f"stable {_text(mu)} n{n} {fmt}", "stable", (_text(mu), n, fmt)))
    for kind, mus in (("path", PATH_MUS), ("power", POWER_MUS)):
        for mu in mus:
            for fmt in FORMATS:
                ops.append(Op(f"{kind} {_text(mu)} {fmt}", kind, (_text(mu), fmt)))
    return ops


def repeat_share(ops):
    """Share of graph-type requests whose (graph type, n) appeared earlier."""
    seen, repeats, total = set(), 0, 0
    for op in ops:
        if op.kind in ("atomic", "char"):
            key = tuple(op.key.split()[1:3])
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats / total if total else 0.0


# --------------------------------------------------------------------------
# Execution. execute() is the timed part; it returns what the checks need.


def _render(exp, fmt):
    return exp.to_json() if fmt == "json" else exp.render()


def _power(f, m):
    g = f
    for _ in range(m - 1):
        g = pathmn.statistics.stat_product(g, f)
    return g


def _moment(f, m, n):
    cf = pathmn.statistics.symmetrize(_power(f, m))
    classes = list(pathmn.partitions.partitions_of(n))
    return cf, {mu: pathmn.statistics.class_eval(cf, mu) for mu in classes}


def execute(op):
    kind, a = op.kind, op.args
    pp_mod, sf = pathmn.partial_perm, pathmn.symfunc
    if kind == "table":
        return pathmn.characters.character_table(a[0])
    if kind == "builtin":
        name, n, m = a
        return _moment(pathmn.statistics.builtin(name, n), m, n)
    if kind == "random":
        n, m, raw = a
        terms = [pp_mod.IndicatorTerm(c, pp_mod.PartialPermutation(n, I, J)) for c, I, J in raw]
        return _moment(pathmn.statistics.make_statistic(n, terms), m, n)
    if kind == "atomic":
        pp_text, n, fmt = a
        exp = pathmn.characters.atomic_schur(pp_mod.parse_pp(pp_text, n))
        return _render(exp, fmt), exp
    if kind == "char":
        lam_text, pp_text, n, fmt = a
        lam = pathmn.partitions.parse_partition(lam_text)
        value = pathmn.characters.char_eval(lam, pp_mod.parse_pp(pp_text, n))
        text = json.dumps({"lam": list(lam), "value": value}) if fmt == "json" else str(value)
        return text, value
    if kind == "stable":
        mu_text, n, fmt = a
        exp = pathmn.ribbons.stable_expansion(pathmn.partitions.parse_partition(mu_text), n)
        return _render(exp, fmt), exp
    if kind == "path":
        mu_text, fmt = a
        mu = tuple(sorted(pathmn.partitions.parse_composition(mu_text), reverse=True))
        exp = sf.path_power_to_schur(mu)
        return _render(exp, fmt), exp
    if kind == "power":
        mu_text, fmt = a
        mu = tuple(sorted(pathmn.partitions.parse_composition(mu_text), reverse=True))
        exp = sf.power_to_schur(sf.SymExpansion(sf.POWER, sum(mu), {mu: Fraction(1)}))
        return _render(exp, fmt), exp
    raise ValueError(f"unknown op kind {kind!r}")


def output_text(op, result):
    """The exact output of an op, as digested."""
    if op.kind == "table":
        return result.to_csv()
    if op.kind in ("builtin", "random"):
        cf, values = result
        return cf.schur.to_json() + "\n" + "\n".join(
            f"{_text(mu)}:{v}" for mu, v in sorted(values.items(), reverse=True)
        )
    text, _obj = result
    if op.kind == "char":
        return str(_obj)  # the digest covers the value; the format only wraps it
    return text


def needs_object(op):
    """Whether check() needs the op's result kept after the timed op."""
    if op.kind in ("table", "builtin", "random"):
        return True
    return _has_oracle(op)


def _has_oracle(op):
    """Whether an independent route can check this query at its size."""
    if op.kind in ("atomic", "char"):
        return op.args[-2] <= 7
    if op.kind in ("path", "power"):
        return sum(map(int, op.args[0].split(","))) <= (5 if op.kind == "path" else 6)
    if op.kind == "stable":
        return op.args[1] <= 12
    return False


def quick_check(op, result):
    """Cheap check of every successful query, run right after the op.

    The coefficient of s[n] in an atomic expansion (and the value of the
    trivial character) counts the completions of (I, J): (n - k)!.
    """
    if op.kind == "atomic":
        pp_text, n, _fmt = op.args
        k = len([t for t in pp_text.split("->")[0].split(",") if t.strip()])
        top = result[1].coeff((n,))
        if top != math.factorial(n - k):
            return f"coefficient of s[{n}] is {top}, expected ({n}-{k})!"
    if op.kind == "char" and op.args[0] == str(op.args[2]):
        k = len([t for t in op.args[1].split("->")[0].split(",") if t.strip()])
        if result[1] != math.factorial(op.args[2] - k):
            return "trivial character value is not (n - k)!"
    return None


def check(op, result):
    """Untimed oracle check of one op's result; returns a message or None."""
    kind = op.kind
    orc, pp_mod, sf = pathmn.oracles, pathmn.partial_perm, pathmn.symfunc
    if kind == "table":
        return _check_table(op.args[0], result)
    if kind in ("builtin", "random"):
        return _check_moment_direct(op, result)
    if not _has_oracle(op):
        return None
    exp = result[1]
    if kind == "atomic":
        pp = pp_mod.parse_pp(op.args[0], op.args[1])
        if exp != sf.power_to_schur(orc.brute_atomic(pp)):
            return "atomic expansion disagrees with brute_atomic"
    elif kind == "char":
        lam = pathmn.partitions.parse_partition(op.args[0])
        if exp != pathmn.characters.char_eval_direct(lam, pp_mod.parse_pp(op.args[1], op.args[2])):
            return "char_eval disagrees with char_eval_direct"
    elif kind == "path":
        mu = tuple(sorted(map(int, op.args[0].split(",")), reverse=True))
        if exp != _word_arrays(mu):
            return "path expansion disagrees with word arrays"
    elif kind == "power":
        mu = tuple(sorted(map(int, op.args[0].split(",")), reverse=True))
        for lam in _partitions(sum(mu)):
            if exp.coeff(lam) != orc.alternant_char(lam, mu):
                return f"power_to_schur disagrees with alternant_char at {lam}"
    elif kind == "stable":
        mu = tuple(map(int, op.args[0].split(",")))
        n = op.args[1]
        padded = mu + (1,) * (n - sum(mu))
        if exp != sf.path_power_to_schur(padded):
            return "stable expansion disagrees with direct tiling enumeration"
    return None


@cache
def _word_arrays(mu):
    # the slowest oracle; requests in both formats share it
    return pathmn.oracles.word_array_path_expansion(mu, sum(mu))


def _check_table(n, table):
    shapes = list(_partitions(n))
    if list(table.shapes) != shapes:
        return "table shapes are not the partitions of n in canonical order"
    col = {mu: [table.entries[(lam, mu)] for lam in shapes] for mu in shapes}
    for a, mu in enumerate(shapes):
        for nu in shapes[a:]:
            dot = sum(x * y for x, y in zip(col[mu], col[nu]))
            expected = pathmn.partitions.z_mu(mu) if mu == nu else 0
            if dot != expected:
                return f"columns {mu} and {nu} are not orthogonal"
    ones = (1,) * n
    for lam in shapes:
        if table.entries[(lam, ones)] != pathmn.partitions.syt_count(lam):
            return f"chi^{lam} at the identity is not the number of SYT"
    return None


def _direct_stat(op, n):
    """(scale, g) with g(w) = scale * statistic(w) an int, computed without pathmn."""
    if op.kind == "builtin":
        if op.args[0] == "exc":
            return 1, lambda w: sum(1 for i in range(n) if w[i] > i + 1)
        return 1, lambda w: sum(i + 1 for i in range(n - 1) if w[i] > w[i + 1])
    raw = op.args[2]
    scale = math.lcm(*(c.denominator for c, _I, _J in raw))
    terms = [(int(c * scale), tuple((i - 1, j) for i, j in zip(I, J))) for c, I, J in raw]
    return scale, lambda w: sum(c for c, pairs in terms if all(w[i] == j for i, j in pairs))


def _check_moment_direct(op, result):
    n = op.args[0] if op.kind == "random" else op.args[1]
    m = op.args[1] if op.kind == "random" else op.args[2]
    if n > DIRECT_CHECK_MAX_N:
        return None
    scale, stat = _direct_stat(op, n)
    sums, sizes = {}, {}
    for w in permutations(range(1, n + 1)):
        ct = _cycle_type(w)
        sums[ct] = sums.get(ct, 0) + stat(w) ** m
        sizes[ct] = sizes.get(ct, 0) + 1
    _cf, values = result
    for mu, total in sums.items():
        if values.get(mu) != Fraction(total, sizes[mu] * scale**m):
            return f"class mean on {mu} disagrees with direct counting"
    if set(values) != set(sums):
        return "class_eval covers the wrong set of classes"
    return None


OPS = {"table": table_ops, "moments": moments_ops, "queries": queries_ops}
UNIVERSE = {"table": lambda: table_ops(0), "moments": lambda: moments_ops(0, relabelled=False),
            "queries": queries_universe}
