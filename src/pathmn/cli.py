"""Command-line front end.

Commands: path-expand, p-expand, atomic, char, table, stat, oracle-check,
bench. Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
2 parse failure, 3 guard refusal, 4 oracle mismatch.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from time import perf_counter

from pathmn import characters, oracles, ribbons, statistics, symfunc
from pathmn.errors import GuardError, OracleMismatch, ParseError
from pathmn.partial_perm import embed, parse_pp
from pathmn.partitions import (
    format_partition,
    parse_composition,
    parse_partition,
    partitions_of,
)
from pathmn.symfunc import POWER, SymExpansion

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathmn",
        description="Exact character evaluations on partial permutations via ribbon combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, csv_ok=True):
        choices = ["human", "json", "csv"] if csv_ok else ["human", "json"]
        p.add_argument("--format", choices=choices, default="human")
        p.add_argument("--long", action="store_true", help="one term per line (human format)")

    p = sub.add_parser("path-expand", help="Schur expansion of a path power sum")
    p.add_argument("mu", help='ribbon sizes, e.g. "3,2,1" or "2^2 1^3" ("" for empty)')
    p.add_argument(
        "--show-tilings",
        action="store_true",
        help="also print an ASCII grid for every monotonic tiling",
    )
    add_format(p)

    p = sub.add_parser("p-expand", help="Schur expansion of a classical power sum")
    p.add_argument("mu")
    p.add_argument(
        "--in-path-basis",
        action="store_true",
        help="instead express p_mu in the path power sums (printed as P[...])",
    )
    add_format(p)

    p = sub.add_parser("atomic", help="Schur expansion of the atomic function of (I, J)")
    p.add_argument("--pp", required=True, help='partial permutation, e.g. "1,4 -> 2,5"')
    p.add_argument("--n", type=int, required=True, help="ambient size")
    add_format(p)

    p = sub.add_parser("char", help="single character value chi^lam([I, J])")
    p.add_argument("lam")
    p.add_argument("--pp", required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)

    p = sub.add_parser("table", help="character table of S_n")
    p.add_argument("n", type=int)
    add_format(p)

    p = sub.add_parser("stat", help="symmetrize a statistic: print ch_n(R f^moment)")
    p.add_argument("stat", help='"exc", "maj", or a JSON statistic file')
    p.add_argument("--n", type=int, help="ambient size (required for builtins)")
    p.add_argument("--moment", type=int, default=1)
    add_format(p)

    p = sub.add_parser("oracle-check", help="cross-validate fast rules against oracles")
    p.add_argument("scope", choices=["atomic", "words", "alternant", "all"])
    p.add_argument("--max-n", type=int, default=5)

    p = sub.add_parser("bench", help="time the hybrid rule against the brute oracle")
    p.add_argument("--pp", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=3)

    return parser


def main(argv=None) -> int:
    # Coefficients pass CPython's 4300-digit int->str limit from about n = 1600.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        set_digits(0)
    args = build_parser().parse_args(argv)
    try:
        handler = _HANDLERS[args.command]
        handler(args)
        return 0
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except OracleMismatch as e:
        print(f"oracle mismatch: {e}", file=sys.stderr)
        return 4


def _print_expansion(exp: SymExpansion, args, symbol=None, basis_name=None):
    if args.format == "json":
        if basis_name is None:
            print(exp.to_json())
        else:
            data = json.loads(exp.to_json())
            data["basis"] = basis_name
            print(json.dumps(data))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition", "num", "den"])
        for lam, c in exp.items():
            writer.writerow([format_partition(lam), c.numerator, c.denominator])
        sys.stdout.write(buf.getvalue())
    else:
        print(exp.render(long=args.long, symbol=symbol))


def _cmd_path_expand(args):
    mu = tuple(sorted(parse_composition(args.mu), reverse=True))
    _print_expansion(symfunc.path_power_to_schur(mu), args)
    if args.show_tilings:
        for idx, t in enumerate(ribbons.enumerate_monotonic(mu), start=1):
            sign = "+" if t.sign > 0 else "-"
            print(f"\ntiling {idx}: type={list(t.type)} depth={list(t.depth)} sign={sign}")
            print(ribbons.render_tiling(t))


def _cmd_p_expand(args):
    mu = tuple(sorted(parse_composition(args.mu), reverse=True))
    if args.in_path_basis:
        coeffs = symfunc.p_in_path_basis(mu)
        exp = SymExpansion(POWER, sum(mu), coeffs)
        _print_expansion(exp, args, symbol="P", basis_name="path")
    else:
        f = SymExpansion(POWER, sum(mu), {mu: Fraction(1)})
        _print_expansion(symfunc.power_to_schur(f), args)


def _cmd_atomic(args):
    pp = parse_pp(args.pp, args.n)
    _print_expansion(characters.atomic_schur(pp), args)


def _cmd_char(args):
    lam = parse_partition(args.lam)
    pp = parse_pp(args.pp, args.n)
    value = characters.char_eval(lam, pp)
    if args.format == "json":
        print(json.dumps({"lam": list(lam), "value": value}))
    elif args.format == "csv":
        print("partition,value")
        print(f'"{format_partition(lam)}",{value}')
    else:
        print(value)


def _cmd_table(args):
    table = characters.character_table(args.n)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "n": table.n,
                    "shapes": [list(s) for s in table.shapes],
                    "rows": [
                        [table.entries[(lam, mu)] for mu in table.shapes]
                        for lam in table.shapes
                    ],
                }
            )
        )
    else:
        labels = [format_partition(s) for s in table.shapes]
        width = max((len(x) for x in labels), default=1)
        cells = {
            (i, j): str(table.entries[(lam, mu)])
            for i, lam in enumerate(table.shapes)
            for j, mu in enumerate(table.shapes)
        }
        col_w = [
            max([len(labels[j])] + [len(cells[(i, j)]) for i in range(len(labels))])
            for j in range(len(labels))
        ]
        header = " " * width + "  " + "  ".join(l.rjust(col_w[j]) for j, l in enumerate(labels))
        print(header)
        for i, lam in enumerate(table.shapes):
            row = "  ".join(cells[(i, j)].rjust(col_w[j]) for j in range(len(labels)))
            print(labels[i].rjust(width) + "  " + row)


def _cmd_stat(args):
    if args.stat in ("exc", "maj"):
        if args.n is None:
            raise ParseError(f'builtin statistic "{args.stat}" needs --n')
        f = statistics.builtin(args.stat, args.n)
    else:
        try:
            with open(args.stat, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read statistic file: {e}") from None
        f = statistics.stat_from_json(text)
        if args.n is not None and args.n != f.n:
            raise ParseError(f"--n {args.n} disagrees with the file's n = {f.n}")
    if args.moment < 1:
        raise ParseError(f"--moment must be >= 1, got {args.moment}")
    power = f
    for _ in range(args.moment - 1):
        power = statistics.stat_product(power, f)
    cf = statistics.symmetrize(power)
    _print_expansion(cf.schur, args)


def _cmd_oracle_check(args):
    scopes = ["atomic", "words", "alternant"] if args.scope == "all" else [args.scope]
    for scope in scopes:
        count = _ORACLE_SCOPES[scope](args.max_n)
        print(f"{scope}: OK ({count} comparisons)")


def _packed_pps(max_k: int):
    """Every packed pair with k <= max_k constraints, I ascending."""
    from itertools import combinations, permutations

    from pathmn.partial_perm import PartialPermutation

    yield PartialPermutation(0, (), ())
    for k in range(1, max_k + 1):
        for r in range(k, 2 * k + 1):
            universe = range(1, r + 1)
            for I in combinations(universe, k):
                for J in permutations(universe, k):
                    if set(I) | set(J) == set(universe):
                        yield PartialPermutation(r, I, J)


def _check_atomic_scope(max_n: int) -> int:
    n = min(max_n, 7)
    count = 0
    for pp in _packed_pps(3):
        if pp.n > n:
            continue
        em = embed(pp, n)
        fast = characters.atomic_schur(em)
        slow = symfunc.power_to_schur(oracles.brute_atomic(em))
        if fast != slow:
            raise OracleMismatch(
                f"atomic expansion disagrees with brute force for {pp.I} -> {pp.J} at n={n}"
            )
        count += 1
    return count


def _check_words_scope(max_n: int) -> int:
    count = 0
    for m in range(min(max_n, 5) + 1):
        for mu in partitions_of(m):
            if oracles.word_array_path_expansion(mu, m) != symfunc.path_power_to_schur(mu):
                raise OracleMismatch(f"word-array expansion disagrees for mu={mu}")
            count += 1
    return count


def _compositions_of(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions_of(n - first):
            yield (first,) + rest


def _check_alternant_scope(max_n: int) -> int:
    count = 0
    for m in range(min(max_n, 6) + 1):
        for lam in partitions_of(m):
            for alpha in _compositions_of(m):
                if oracles.alternant_char(lam, alpha) != ribbons.skew_mn(lam, alpha):
                    raise OracleMismatch(f"alternant disagrees at lam={lam}, alpha={alpha}")
                count += 1
    return count


_ORACLE_SCOPES = {
    "atomic": _check_atomic_scope,
    "words": _check_words_scope,
    "alternant": _check_alternant_scope,
}


def _clear_all_caches():
    ribbons.clear_caches()
    symfunc._p_to_schur.cache_clear()
    characters._atomic_from_type.cache_clear()


def _cmd_bench(args):
    pp = parse_pp(args.pp, args.n)
    reps = max(args.reps, 1)
    hybrid_times = []
    for _ in range(reps):
        _clear_all_caches()
        t0 = perf_counter()
        characters.atomic_schur(pp)
        hybrid_times.append(perf_counter() - t0)
    hybrid = min(hybrid_times)
    print(f"hybrid: {hybrid:.6f} s")
    if args.n <= 9:
        brute_times = []
        for _ in range(reps):
            t0 = perf_counter()
            oracles.brute_atomic(pp)
            brute_times.append(perf_counter() - t0)
        brute = min(brute_times)
        print(f"brute: {brute:.6f} s")
        print(f"speedup: {brute / hybrid:.1f}x")
    else:
        print("brute: skipped (guard: n > 9)")


_HANDLERS = {
    "path-expand": _cmd_path_expand,
    "p-expand": _cmd_p_expand,
    "atomic": _cmd_atomic,
    "char": _cmd_char,
    "table": _cmd_table,
    "stat": _cmd_stat,
    "oracle-check": _cmd_oracle_check,
    "bench": _cmd_bench,
}


if __name__ == "__main__":
    sys.exit(main())
