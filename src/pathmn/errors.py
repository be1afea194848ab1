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
from decimal import Decimal

__all__ = ["ParseError", "GuardError", "OracleMismatch", "effective_limit", "check_guard",
           "read_int", "int_text", "json_fields"]


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
        value = int(text)
    except ValueError:  # past the interpreter's digit limit; Decimal has none
        value = int(Decimal(text))
    if size and not -sys.maxsize - 1 <= value <= sys.maxsize:
        raise ParseError(f"{what} must fit an index-sized int, got {text}")
    return value


def int_text(v: int) -> str:
    """Decimal digits of v, in full at any size."""
    try:
        return str(v)
    except ValueError:
        return str(Decimal(v))


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
    package (the part guard it only lowers). Guards are hard errors, never silent
    truncation.
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
