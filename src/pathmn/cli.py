"""Command-line front end: parse the arguments, compute, call one renderer.

Commands: path-expand, p-expand, atomic, char, table, stat, oracle-check.
Expansions and character tables print themselves: render(), to_json() or
to_csv() for --format human, json or csv; char prints its one value here.
Results go to stdout, diagnostics to stderr. Exit codes: 0 success, 1 the
output could not be completed (stdout closed, or an internal error),
2 parse failure, 3 guard refusal, 4 oracle mismatch.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from pathmn import characters, oracles, ribbons, statistics, symfunc
from pathmn.errors import GuardError, OracleMismatch, ParseError, int_text, read_int
from pathmn.partial_perm import parse_pp
from pathmn.partitions import format_partition, parse_composition, parse_partition
from pathmn.symfunc import PATH, POWER, SymExpansion

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathmn",
        description="Exact character evaluations on partial permutations via ribbon combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, expansion=True):
        p.add_argument("--format", choices=["human", "json", "csv"], default="human")
        if expansion:
            p.add_argument("--long", action="store_true", help="one term per line (human format)")

    p = sub.add_parser("path-expand", help="Schur expansion of a path power sum")
    p.add_argument("mu", help='ribbon sizes, e.g. "3,2,1" or "2^2 1^3" ("" for empty)')
    p.add_argument(
        "--show-tilings",
        action="store_true",
        help="also print an ASCII grid for every monotonic tiling (human format only)",
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
    p.add_argument(
        "--pp",
        required=True,
        help='partial permutation, e.g. "1,4 -> 2,5"; write the empty one as --pp="->"',
    )
    p.add_argument("--n", required=True, help="ambient size")
    add_format(p)

    p = sub.add_parser("char", help="single character value chi^lam([I, J])")
    p.add_argument("lam")
    p.add_argument("--pp", required=True)
    p.add_argument("--n", required=True)
    add_format(p, expansion=False)

    p = sub.add_parser("table", help="character table of S_n")
    p.add_argument("n")
    add_format(p, expansion=False)

    p = sub.add_parser("stat", help="symmetrize a statistic: print ch_n(R f^moment)")
    names = ", ".join(map(json.dumps, statistics.BUILTINS))
    p.add_argument("stat", help=f"{names}, or a JSON statistic file")
    p.add_argument("--n", help="ambient size (required for builtins)")
    p.add_argument("--moment", default="1")
    add_format(p)

    p = sub.add_parser("oracle-check", help="cross-validate fast rules against oracles")
    p.add_argument("scope", choices=[*oracles.ORACLE_CHECKS, "all"])
    p.add_argument("--max-n", default="5")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _HANDLERS[args.command](args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # The reader went away (e.g. `| head`): send whatever is still
        # buffered to devnull so the exit flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except OracleMismatch as e:
        print(f"oracle mismatch: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # unforeseen: one line on stderr, no traceback
        print(f"error: internal: {type(e).__name__}: {e}".replace("\n", " "), file=sys.stderr)
        return 1


def _print(result, args):
    """Print an expansion or a character table in --format; --long, on the
    subcommands that have it, gives one term per line."""
    if args.format == "json":
        print(result.to_json())
    elif args.format == "csv":
        sys.stdout.write(result.to_csv())
    elif getattr(args, "long", False):
        print(result.render(long=True))
    else:
        print(result.render())


def _cmd_path_expand(args):
    if args.show_tilings and args.format != "human":
        raise ParseError(f"--show-tilings needs --format human, got {args.format}")
    mu = tuple(sorted(parse_composition(args.mu), reverse=True))
    exp = symfunc.path_power_to_schur(mu)
    if args.show_tilings:
        # walked once dry, holding none, so that a refused walk prints nothing
        for _ in ribbons.enumerate_monotonic(mu):
            pass
    _print(exp, args)
    if args.show_tilings:
        for idx, t in enumerate(ribbons.enumerate_monotonic(mu), start=1):
            sign = "+" if t.sign > 0 else "-"
            print(f"\ntiling {idx}: type={list(t.type)} depth={list(t.depth)} sign={sign}")
            print(ribbons.render_tiling(t))


def _cmd_p_expand(args):
    mu = tuple(sorted(parse_composition(args.mu), reverse=True))
    if args.in_path_basis:
        exp = SymExpansion(PATH, sum(mu), symfunc.p_in_path_basis(mu))
    else:
        exp = symfunc.power_to_schur(SymExpansion(POWER, sum(mu), {mu: Fraction(1)}))
    _print(exp, args)


def _cmd_atomic(args):
    pp = parse_pp(args.pp, read_int(args.n, "--n"))
    _print(characters.atomic_schur(pp), args)


def _cmd_char(args):
    lam = parse_partition(args.lam)
    pp = parse_pp(args.pp, read_int(args.n, "--n"))
    value = int_text(characters.char_eval(lam, pp))
    if args.format == "json":
        print(f'{{"lam": {json.dumps(list(lam))}, "value": {value}}}')
    elif args.format == "csv":
        print("partition,value")
        print(f'"{format_partition(lam)}",{value}')
    else:
        print(value)


def _cmd_table(args):
    _print(characters.character_table(read_int(args.n, "n")), args)


def _cmd_stat(args):
    moment = read_int(args.moment, "--moment")
    if args.stat in statistics.BUILTINS:
        if args.n is None:
            raise ParseError(f'builtin statistic "{args.stat}" needs --n')
        f = statistics.builtin(args.stat, read_int(args.n, "--n"))
    else:
        try:
            with open(args.stat, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read statistic file: {e}") from None
        f = statistics.stat_from_json(text)
        if args.n is not None and read_int(args.n, "--n") != f.n:
            raise ParseError(f"--n {args.n} disagrees with the file's n = {f.n}")
    if moment < 1:
        raise ParseError(f"--moment must be >= 1, got {moment}")
    power = f
    for _ in range(moment - 1):
        power = statistics.stat_product(power, f)
    cf = statistics.symmetrize(power)
    _print(cf.schur, args)


def _cmd_oracle_check(args):
    max_n = read_int(args.max_n, "--max-n")
    if max_n < 0:
        raise ParseError(f"--max-n must be >= 0, got {max_n}")
    scopes = list(oracles.ORACLE_CHECKS) if args.scope == "all" else [args.scope]
    for scope in scopes:
        print(f"{scope}: OK ({oracles.ORACLE_CHECKS[scope](max_n)} comparisons)")


_HANDLERS = {
    "path-expand": _cmd_path_expand,
    "p-expand": _cmd_p_expand,
    "atomic": _cmd_atomic,
    "char": _cmd_char,
    "table": _cmd_table,
    "stat": _cmd_stat,
    "oracle-check": _cmd_oracle_check,
}


if __name__ == "__main__":
    sys.exit(main())
