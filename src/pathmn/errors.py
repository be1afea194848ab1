"""Exceptions, the global guard override, and the integer codec: read_int reads
every number given as text, int_text writes every integer printed in full, both
exact past CPython's 4300-digit int<->str limit (no other module knows it).

Exit-code mapping used by the CLI: ParseError -> 2, GuardError -> 3,
OracleMismatch -> 4.
"""

import json
import os
import sys
from contextlib import contextmanager
from decimal import MAX_EMAX, Context, Decimal, Inexact, Rounded

__all__ = ["ParseError", "GuardError", "OracleMismatch", "effective_limit", "check_guard",
           "read_int", "int_text", "json_fields"]

# 4214 digits, under CPython's default 4300-digit int<->str limit: int_text keeps str(v) below it
_SPLIT_BITS = 14_000
_SPLIT_DIGITS = 4000  # read_int reads at most this many digits with int(text)


class ParseError(ValueError):
    """Malformed textual input (partition, partial permutation, statistic file)."""


class GuardError(RuntimeError):
    """A combinatorial size guard was exceeded; the computation was refused."""


class OracleMismatch(AssertionError):
    """A fast rule disagreed with its brute-force oracle."""


def read_int(text, what="value", size=True) -> int:
    """The int that text spells: ASCII digits after an optional minus sign, exact
    at any length; a size (a part, an index, n, a degree) must also fit an
    index-sized int. Anything else, JSON true too, is a ParseError naming what."""
    if type(text) is not str or not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ParseError(f"{what} must be an integer, got {text!r}")
    try:
        value = int(text) if len(text) <= _SPLIT_DIGITS else _split_int(text)
    except ValueError:  # a digit limit set below the default; Decimal has none
        value = int(Decimal(text))
    if size and not -sys.maxsize - 1 <= value <= sys.maxsize:
        raise ParseError(f"{what} must fit an index-sized int, got {text}")
    return value


def _split_int(text: str) -> int:
    """int(text) for -?[0-9]+ longer than _SPLIT_DIGITS, exactly. int(str)
    takes time quadratic in the digits, so the text is split as hi·10^k + lo,
    k = _SPLIT_DIGITS·2^j, down to pieces that read_int reads whole, and the
    halves are joined by int products, which are subquadratic. The route is
    chosen by length, which no setting of the interpreter's limit moves."""
    digits = text.removeprefix("-")
    powers = [10 ** _SPLIT_DIGITS]  # 10^(_SPLIT_DIGITS·2^j) at index j
    while _SPLIT_DIGITS << len(powers) < len(digits):
        powers.append(powers[-1] * powers[-1])

    def join(piece, j):  # len(piece) <= _SPLIT_DIGITS·2^(j + 1)
        if len(piece) <= _SPLIT_DIGITS:
            return read_int(piece, size=False)
        k = _SPLIT_DIGITS << j
        if len(piece) <= k:
            return join(piece, j - 1)
        return join(piece[:-k], j - 1) * powers[j] + join(piece[-k:], j - 1)

    value = join(digits, len(powers) - 1)
    return -value if text[0] == "-" else value


def int_text(v: int) -> str:
    """Decimal digits of v, in full at any size."""
    if v.bit_length() > _SPLIT_BITS:
        text = str(_int_decimal(abs(v)))
        return "-" + text if v < 0 else text
    try:
        return str(v)
    except ValueError:  # a digit limit set below the default
        return str(Decimal(v))


def _int_decimal(v: int) -> Decimal:
    """Decimal(v) for v >= 0, exactly. Decimal(v) and str(v) take time
    quadratic in the digits, so past the default digit limit (by bit length,
    which no setting of the limit moves) v is split as hi·2^k + lo, k =
    _SPLIT_BITS·2^j, and the halves are joined in exact Decimal arithmetic,
    whose products of large numbers are subquadratic."""
    if v.bit_length() <= _SPLIT_BITS:
        return Decimal(v)
    ctx = Context(prec=v.bit_length() // 3 + 2, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    powers = [Decimal(1 << _SPLIT_BITS)]  # 2^(_SPLIT_BITS·2^j) at index j
    while _SPLIT_BITS << len(powers) < v.bit_length():
        powers.append(ctx.multiply(powers[-1], powers[-1]))

    def join(v, j):  # v < 2^(_SPLIT_BITS·2^(j + 1))
        if j < 0:
            return Decimal(v)
        k = _SPLIT_BITS << j
        return ctx.add(ctx.multiply(join(v >> k, j - 1), powers[j]), join(v & ((1 << k) - 1), j - 1))

    return join(v, len(powers) - 1)


@contextmanager
def json_fields(text: str, what: str):
    """The JSON document text with its numbers kept as text, for read_int; a bad
    document, or a missing or mistyped field read in the block, is a ParseError."""
    try:
        data = json.loads(text, parse_int=str, parse_float=str)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    try:
        yield data
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise ParseError(f"malformed {what} object: {e}") from None


def effective_limit(default):
    """Size limit after applying the PATHMN_MAX_N environment override.

    The override is global: it replaces the default limit of every guard in the
    package. Guards are hard errors, never silent truncation.
    """
    raw = _override()
    return default if raw is None else read_int(raw, "PATHMN_MAX_N")


def _override():
    """PATHMN_MAX_N as set now, or None.

    os.environ.get raises and catches a KeyError on every miss, about 1.3 us,
    and the chain reads the limit on every call. The dict that os.environ
    writes through to answers a miss without one and sees every run-time set.
    """
    env = os.environ
    raw = env._data.get(env.encodekey("PATHMN_MAX_N"))
    return None if raw is None else env.decodevalue(raw)


def check_guard(value, default_limit, what):
    """Raise GuardError if value exceeds the (possibly overridden) limit."""
    limit = effective_limit(default_limit)
    if value > limit:
        raise refusal(what, value, limit)


def refusal(what, value, limit) -> GuardError:
    """The GuardError for a value past a limit already read with effective_limit."""
    return GuardError(
        f"{what} = {value} exceeds the guard limit {limit} (set PATHMN_MAX_N to override)"
    )
