"""Partitions, compositions, set partitions, and the numeric helpers built on them.

Partitions and compositions are plain tuples of positive ints; a partition is
weakly decreasing with no trailing zeros, and ``()`` is the unique partition
of 0. Tuples keep everything hashable, so expansions can be sparse dicts keyed
by shape.

Canonical ordering of partitions (map keys, printed output, table rows and
columns) is descending lexicographic on the part sequences, i.e. plain tuple
comparison reversed.
"""

import math
import re
from typing import Iterator

from pathmn.errors import ParseError, check_guard, read_int

__all__ = [
    "is_partition",
    "check_partition",
    "check_composition",
    "conjugate",
    "multiplicities",
    "mult_factorial",
    "z_mu",
    "pad_row",
    "pad_column",
    "partitions_of",
    "canonical_order",
    "enumerate_set_partitions",
    "syt_count",
    "multinomial",
    "contains",
    "parse_partition",
    "parse_composition",
    "format_partition",
]


def is_partition(parts) -> bool:
    return all(
        isinstance(p, int) and p >= 1 for p in parts
    ) and all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts) -> tuple:
    lam = tuple(parts)
    if not is_partition(lam):
        raise ParseError(f"not a partition (weakly decreasing positive parts): {lam}")
    return lam


def check_composition(parts) -> tuple:
    alpha = tuple(parts)
    if not all(isinstance(p, int) and p >= 1 for p in alpha):
        raise ParseError(f"not a composition (positive parts): {alpha}")
    return alpha


def conjugate(lam) -> tuple:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def multiplicities(mu) -> dict:
    """Map part value i -> m_i(mu)."""
    out = {}
    for p in mu:
        out[p] = out.get(p, 0) + 1
    return out


def mult_factorial(mu) -> int:
    """m(mu)! = prod_i m_i(mu)!."""
    out = 1
    for m in multiplicities(mu).values():
        out *= math.factorial(m)
    return out


def z_mu(mu) -> int:
    """Centralizer order prod_i i^{m_i} m_i!; class size is n!/z_mu."""
    out = 1
    for i, m in multiplicities(mu).items():
        out *= i**m * math.factorial(m)
    return out


def pad_row(lam, n: int) -> tuple:
    """lam[n]: prepend a first row of n - |lam| boxes."""
    lam = tuple(lam)
    size = sum(lam)
    first = n - size
    if lam and first < lam[0]:
        raise ParseError(f"cannot pad {lam} to a partition of {n}: first row too short")
    if first < 0:
        raise ParseError(f"cannot pad {lam} to a partition of {n}: n below |lam|")
    if first == 0:
        return lam
    return (first,) + lam


def pad_column(mu, n: int) -> tuple:
    """mu(n): append n - |mu| parts equal to 1."""
    mu = tuple(mu)
    size = sum(mu)
    if n < size:
        raise ParseError(f"cannot pad {mu} with ones to degree {n} < {size}")
    return mu + (1,) * (n - size)


def partitions_of(n: int, max_part=None) -> Iterator[tuple]:
    """All partitions of n, in descending lexicographic (canonical) order."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def canonical_order(shapes) -> list:
    return sorted(shapes, reverse=True)


def enumerate_set_partitions(r: int) -> Iterator[tuple]:
    """Set partitions of {1..r}, blocks as increasing tuples.

    Each element is appended to an existing block or starts a new one, so every
    set partition appears exactly once (Bell(r) in total).
    """
    check_guard(r, 12, "set partition ground-set size r")
    if r == 0:
        yield ()
        return
    blocks: list[list[int]] = []

    def rec(t: int) -> Iterator[tuple]:
        if t > r:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(t)
            yield from rec(t + 1)
            b.pop()
        blocks.append([t])
        yield from rec(t + 1)
        blocks.pop()

    yield from rec(1)


def syt_count(lam) -> int:
    """Number of standard Young tableaux of shape lam (hook length product)."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(n) // hooks


def multinomial(total: int, parts) -> int:
    """total! / prod(parts!); parts must sum to total.

    Built as a product of binomials over the running sum, so one huge part
    (the unplaced singletons of a stable walk at large n) costs no factorial.
    """
    assert total == sum(parts)
    out, seen = 1, 0
    for p in parts:
        seen += p
        out *= math.comb(seen, p)
    return out


def contains(outer, inner) -> bool:
    """Containment of Young diagrams (inner padded with zeros)."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


_TOKEN = re.compile(r"([0-9]+)(?:\^([0-9]+))?")
# Refused before the list is built, which at 10^7 parts would hold 80 MB
# before any guard counted them; char 1^(10^6) already runs for tens of seconds.
_MAX_PARSED_PARTS = 10**7
_MAX_TOKEN = 40  # refused unread: parts fit an index-sized int, multiplicities are <= 10^7


def _parse_parts(text: str) -> tuple:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    text = text.strip()
    if not text:
        return ()
    parts = []
    for token in re.split(r"[,\s]+", text):
        if not token:
            continue
        m = _TOKEN.fullmatch(token)
        if not m:
            raise ParseError(f"bad partition token {token!r} in {text!r}")
        if len(token) > _MAX_TOKEN:
            raise ParseError(f"partition token too long in {text!r}")
        base = read_int(m[1], "a part")
        mult = read_int(m[2], "a multiplicity", size=False) if m[2] else 1
        if base < 1:
            raise ParseError(f"parts must be positive, got {base} in {text!r}")
        if len(parts) + mult > _MAX_PARSED_PARTS:
            raise ParseError(f"more than {_MAX_PARSED_PARTS} parts in {text!r}")
        parts.extend([base] * mult)
    return tuple(parts)


def parse_partition(text: str) -> tuple:
    """Parse "4,3,1", "[4,3,1]", "4 3 1" or exponent form "2^2 1^3"."""
    return check_partition(_parse_parts(text))


def parse_composition(text: str) -> tuple:
    """Like parse_partition but order-significant (no monotonicity check)."""
    return check_composition(_parse_parts(text))


def format_partition(lam) -> str:
    """Canonical printer; round-trips through parse_partition. "[]" when empty."""
    return "[" + ",".join(str(p) for p in lam) + "]"
