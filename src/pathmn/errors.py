"""Exceptions shared across the package, plus the global guard override.

Exit-code mapping used by the CLI: ParseError -> 2, GuardError -> 3,
OracleMismatch -> 4.
"""

import os

__all__ = ["ParseError", "GuardError", "OracleMismatch", "effective_limit", "check_guard"]


class ParseError(ValueError):
    """Malformed textual input (partition, partial permutation, statistic file)."""


class GuardError(RuntimeError):
    """A combinatorial size guard was exceeded; the computation was refused."""


class OracleMismatch(AssertionError):
    """A fast rule disagreed with its brute-force oracle."""


def effective_limit(default):
    """Size limit after applying the PATHMN_MAX_N environment override.

    The override is global: it replaces the default limit of every guard in the
    package. Guards are hard errors, never silent truncation.
    """
    raw = _override()
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"PATHMN_MAX_N must be an integer, got {raw!r}") from None


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
