"""Property tests on seeded random partial permutations (Hypothesis, derandomized)."""

import csv
import io
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathmn import (
    PATH,
    POWER,
    SCHUR,
    IndicatorTerm,
    PartialPermutation,
    Statistic,
    SymExpansion,
    atomic_schur,
    brute_atomic,
    char_eval,
    clear_caches,
    decompose,
    embed,
    format_partition,
    make_statistic,
    pack,
    partitions_of,
    power_to_schur,
    stat_product,
    symmetrize,
)
from pathmn.errors import ParseError, int_text, read_int
from pathmn.ribbons import _shape
from brute import components_type

# the same examples on every run, none saved to disk, so tier-1 stays deterministic
SEEDED = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def partial_perms(draw, max_n=8, max_k=None):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n if max_k is None else min(n, max_k)))
    sources = draw(st.permutations(range(1, n + 1)))[:k]
    targets = draw(st.permutations(range(1, n + 1)))[:k]
    return PartialPermutation(n, tuple(sources), tuple(targets))


@SEEDED
@given(partial_perms())
def test_atomic_schur_matches_brute_sum(pp):
    assert atomic_schur(pp) == power_to_schur(brute_atomic(pp))


@SEEDED
@given(st.data())
def test_relabelling_leaves_the_atomic_expansion_unchanged(data):
    pp = data.draw(partial_perms())
    sigma = [0, *data.draw(st.permutations(range(1, pp.n + 1)))]
    moved = PartialPermutation(pp.n, tuple(sigma[i] for i in pp.I), tuple(sigma[j] for j in pp.J))
    expansion = atomic_schur(pp)
    assert atomic_schur(moved) == expansion
    assert all(char_eval(lam, moved) == c for lam, c in expansion.terms.items())


@SEEDED
@given(st.data())
def test_decompose_matches_union_find_at_large_n(data):
    # k <= 8 pairs on a pool of at most 2k vertices anywhere in [1..n]: paths,
    # cycles and many isolated vertices
    n = data.draw(st.integers(1, 1200))
    k = data.draw(st.integers(0, min(8, n)))
    size = data.draw(st.integers(k, min(2 * k, n)))
    pool = data.draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
    I = data.draw(st.permutations(pool))[:k]
    J = data.draw(st.permutations(pool))[:k]
    pp = PartialPermutation(n, tuple(I), tuple(J))
    assert decompose(pp) == components_type(n, pp.pairs())


@SEEDED
@given(st.data())
def test_symmetrize_is_the_average_of_the_atomic_expansions(data):
    # sum (num/den)·atomic_schur(term) / n! term by term, with no grouping by graph type
    n = data.draw(st.integers(1, 7))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    terms = [
        IndicatorTerm(data.draw(coeffs), embed(data.draw(partial_perms(max_n=n, max_k=3)), n))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    f = make_statistic(n, terms)
    expected = SymExpansion(SCHUR, n, {})
    for _, pairs, _, _, num in f.patterns:
        I, J = tuple(i for i, _ in pairs), tuple(j for _, j in pairs)
        expected += atomic_schur(PartialPermutation(n, I, J)).scale(Fraction(num, f.den))
    assert symmetrize(f).schur == expected.scale(Fraction(1, math.factorial(n)))


@st.composite
def pattern_statistics(draw, n):
    """A table of up to 4 patterns, each a partial permutation on 1..4 packed
    onto the points it uses, with links, weights and Fraction coefficients,
    reduced as built."""
    table = {}
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, 4))
        I = draw(st.permutations(range(1, 5)))[:k]
        J = draw(st.permutations(range(1, 5)))[:k]
        packed = pack(PartialPermutation(4, tuple(I), tuple(J)))[0]
        r = packed.n
        links = tuple(sorted(draw(st.sets(st.integers(1, r - 1), max_size=2)))) if r > 1 else ()
        weights = tuple(sorted(draw(st.lists(st.integers(1, r), max_size=2)))) if r else ()
        key = (r, packed.canonical().pairs(), links, weights)
        table[key] = table.get(key, 0) + draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    den = math.lcm(*(c.denominator for c in table.values()))
    nums = {key: int(c * den) for key, c in table.items() if c}
    g = math.gcd(den, *nums.values())
    return Statistic(tuple(sorted((*key, c // g) for key, c in nums.items())), den // g, n)


@SEEDED
@given(st.data())
def test_pattern_route_matches_the_explicit_route(data):
    # the census and the merge product against the same statistics built and
    # merged term by term; patterns on more than n points vanish
    n = data.draw(st.integers(1, 8))
    f, g = data.draw(pattern_statistics(n)), data.draw(pattern_statistics(n))
    assert symmetrize(f) == symmetrize(f.explicit())
    assert stat_product(f, g).explicit() == stat_product(f.explicit(), g.explicit())


@settings(SEEDED, max_examples=10)
@given(partial_perms(max_k=4), st.integers(1600, 2500))
def test_json_round_trip_with_huge_coefficients(pp, n):
    # a packed pair holds r <= 8 vertices, so the top coefficient carries
    # (n - r)!, past CPython's 4300-digit int<->str limit, pinned here
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        e = atomic_schur(embed(pack(pp)[0], n))
        assert max(abs(c.numerator) for c in e.terms.values()) > 10**4300
        assert SymExpansion.from_json(e.to_json()) == e
        e.render()
        e.to_csv()
    finally:
        set_limit(old)


@settings(SEEDED, max_examples=40)
@given(st.integers(-(10**6000), 10**6000) | st.integers(-(2**70), 2**70), st.sampled_from([4300, 0]))
def test_integer_codec_round_trip(v, limit):
    # the writer prints any int in full and the reader reads it back exactly,
    # under CPython's default int<->str digit limit and with the limit lifted
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(limit)
    try:
        text = int_text(v)
        assert read_int(text, size=False) == v
        if -sys.maxsize - 1 <= v <= sys.maxsize:
            assert read_int(text) == v
        else:
            with pytest.raises(ParseError, match="must fit an index-sized int"):
                read_int(text)
    finally:
        set_limit(old)


# no common factor, one of 2048 bits or more, and one past 4300 digits
_SCALES = (1, math.factorial(1150), 10**5000)


@st.composite
def expansions(draw, max_degree=6, max_terms=6):
    basis = draw(st.sampled_from([SCHUR, POWER, PATH]))
    degree = draw(st.integers(0, max_degree))
    shapes = draw(st.lists(st.sampled_from(list(partitions_of(degree))), unique=True, max_size=max_terms))
    scale = draw(st.sampled_from(_SCALES))
    nums = st.integers(-60, 60).filter(bool)
    dens = st.integers(1, 12)
    return SymExpansion(basis, degree, {lam: Fraction(scale * draw(nums), draw(dens)) for lam in shapes})


@SEEDED
@given(expansions())
def test_json_text_is_what_json_dumps_writes(e):
    # to_json writes its text itself; json.dumps of the same object is the reference
    reference = {
        "basis": e.basis,
        "degree": e.degree,
        "terms": [
            {"partition": list(lam), "num": int_text(c.numerator), "den": int_text(c.denominator)}
            for lam, c in e.items()
        ],
    }
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        assert e.to_json() == json.dumps(reference)
        assert SymExpansion.from_json(e.to_json()) == e
    finally:
        set_limit(old)


def _reference_rows(e):
    """(partition, Fraction) per term: each mask decoded, the tuples sorted descending."""
    return sorted(((_shape(m), Fraction(v, e.den)) for m, v in e.nums.items()), reverse=True)


def _reference_render(e, long=False):
    if not e.nums:
        return "0"
    sym = {SCHUR: "s", POWER: "p", PATH: "P"}[e.basis]
    pieces = []
    for lam, c in _reference_rows(e):
        coeff = int_text(abs(c.numerator))
        if c.denominator != 1:
            coeff = f"({coeff}/{int_text(c.denominator)})"
        pieces.append((c < 0, f"{coeff}·{sym}{format_partition(lam)}"))
    if long:
        return "\n".join(("−" if neg else "") + body for neg, body in pieces)
    out = ("−" if pieces[0][0] else "") + pieces[0][1]
    return out + "".join((" − " if neg else " + ") + body for neg, body in pieces[1:])


def _reference_json(e):
    terms = [{"partition": list(lam), "num": int_text(c.numerator), "den": int_text(c.denominator)}
             for lam, c in _reference_rows(e)]
    return json.dumps({"basis": e.basis, "degree": e.degree, "terms": terms})


def _reference_csv(e):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["partition", "num", "den"])
    for lam, c in _reference_rows(e):
        writer.writerow([format_partition(lam), int_text(c.numerator), int_text(c.denominator)])
    return buf.getvalue()


@SEEDED
@given(expansions(max_degree=12, max_terms=20))
@example(SymExpansion(PATH, 0, {(): Fraction(-3, 2)}))
@example(SymExpansion(SCHUR, 0, {}))
def test_writers_match_a_reference_that_sorts_decoded_partitions(e):
    # the writers sort by padded mask and write each shape from its mask's text;
    # the reference decodes every term, sorts the tuples and formats each one
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(4300)
    clear_caches()
    try:
        for _ in range(2):  # from a cold text memo, then a warm one
            assert e.render() == _reference_render(e)
            assert e.render(long=True) == _reference_render(e, long=True)
            assert e.to_json() == _reference_json(e)
            assert e.to_csv() == _reference_csv(e)
    finally:
        if set_limit:
            set_limit(old)
