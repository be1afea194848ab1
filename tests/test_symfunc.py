import copy
import hashlib
import json
import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from pathmn import (
    PATH,
    POWER,
    SCHUR,
    ParseError,
    SymExpansion,
    atomic_schur,
    builtin,
    clear_caches,
    enumerate_monotonic,
    enumerate_set_partitions,
    format_partition,
    mult_by_power,
    mult_factorial,
    p_in_path_basis,
    parse_pp,
    partitions_of,
    path_power_in_p,
    path_power_to_schur,
    power_to_schur,
    ribbons,
    skew_mn,
    stable_expansion,
    symfunc,
    symmetrize,
    tiling_tally,
)
from pathmn.errors import _SPLIT_BITS, _SPLIT_DIGITS, _int_decimal, read_int
from pathmn.errors import int_text as _int_text
from pathmn.ribbons import _mask, _shape, _stable_terms
from pathmn.symfunc import _SHARED_BITS, _ints_text


def test_constructor_validation():
    with pytest.raises(ParseError):
        SymExpansion("monomial", 2, {(2,): 1})
    with pytest.raises(ParseError):
        SymExpansion(SCHUR, 3, {(2,): 1})
    with pytest.raises(ParseError):
        SymExpansion(SCHUR, 3, {(1, 2): 1})
    with pytest.raises(ParseError, match="degree must be nonnegative, got -1"):
        SymExpansion(SCHUR, -1, {})
    e = SymExpansion(SCHUR, 2, {(2,): 0, (1, 1): 3})
    assert e and not SymExpansion(SCHUR, 2, {(2,): 0})
    assert dict(e.items()) == {(1, 1): Fraction(3)}
    assert e.coeff((2,)) == 0
    assert e.coeff((1, 1)) == 3


def test_items_in_canonical_order():
    e = SymExpansion(SCHUR, 3, {(1, 1, 1): 1, (3,): 1, (2, 1): 1})
    assert [lam for lam, _ in e.items()] == [(3,), (2, 1), (1, 1, 1)]


def test_arithmetic():
    a = SymExpansion(SCHUR, 2, {(2,): 1})
    b = SymExpansion(SCHUR, 2, {(2,): -1, (1, 1): 2})
    assert dict((a + b).items()) == {(1, 1): Fraction(2)}
    assert dict((a - b).items()) == {(2,): Fraction(2), (1, 1): Fraction(-2)}
    assert dict(a.scale(Fraction(1, 2)).items()) == {(2,): Fraction(1, 2)}
    assert dict(a.scale(0).items()) == {}
    with pytest.raises(ParseError):
        a + SymExpansion(SCHUR, 3, {(3,): 1})
    with pytest.raises(ParseError):
        a + SymExpansion(POWER, 2, {(2,): 1})
    with pytest.raises(TypeError, match="cannot combine SymExpansion with int"):
        a + 1


def test_render():
    e = SymExpansion(SCHUR, 3, {(3,): 6, (2, 1): -4})
    assert e.render() == "6·s[3] − 4·s[2,1]"
    assert SymExpansion(SCHUR, 0, {(): 1}).render() == "1·s[]"
    assert SymExpansion(SCHUR, 2, {}).render() == "0"
    half = SymExpansion(SCHUR, 2, {(2,): Fraction(5, 2), (1, 1): Fraction(-1, 2)})
    assert half.render() == "(5/2)·s[2] − (1/2)·s[1,1]"
    lead = SymExpansion(PATH, 3, {(3,): -1, (2, 1): 1})
    assert lead.render() == "−1·P[3] + 1·P[2,1]"
    assert e.render(long=True) == "6·s[3]\n−4·s[2,1]"


def test_mult_by_power():
    one = SymExpansion(SCHUR, 0, {(): 1})
    assert dict(mult_by_power(one, 3).items()) == {
        (3,): Fraction(1),
        (2, 1): Fraction(-1),
        (1, 1, 1): Fraction(1),
    }
    s1 = SymExpansion(SCHUR, 1, {(1,): 1})
    assert dict(mult_by_power(s1, 1).items()) == {(2,): Fraction(1), (1, 1): Fraction(1)}
    f = one
    for r in (3, 2, 2, 1):
        f = mult_by_power(f, r)
    assert f.coeff((4, 3, 1)) == -1
    with pytest.raises(ParseError):
        mult_by_power(one, 0)
    with pytest.raises(ParseError):
        mult_by_power(SymExpansion(POWER, 2, {(2,): 1}), 1)


def test_power_to_schur():
    assert dict(power_to_schur(SymExpansion(POWER, 0, {(): 1})).items()) == {
        (): Fraction(1)
    }
    p2 = SymExpansion(POWER, 2, {(2,): 1})
    assert dict(power_to_schur(p2).items()) == {(2,): Fraction(1), (1, 1): Fraction(-1)}
    p11 = SymExpansion(POWER, 2, {(1, 1): 1})
    assert dict(power_to_schur(p11).items()) == {(2,): Fraction(1), (1, 1): Fraction(1)}
    mix = SymExpansion(POWER, 2, {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    assert dict(power_to_schur(mix).items()) == {(2,): Fraction(1)}
    with pytest.raises(ParseError):
        power_to_schur(SymExpansion(SCHUR, 2, {(2,): 1}))


def test_power_to_schur_coefficients_are_characters():
    for mu in partitions_of(5):
        exp = power_to_schur(SymExpansion(POWER, 5, {mu: 1}))
        for lam in partitions_of(5):
            assert exp.coeff(lam) == skew_mn(lam, mu)


def test_path_power_in_p():
    e = path_power_in_p((3, 2, 1))
    assert e.basis == POWER
    assert dict(e.items()) == {
        (3, 2, 1): Fraction(1),
        (5, 1): Fraction(1),
        (4, 2): Fraction(1),
        (3, 3): Fraction(1),
        (6,): Fraction(2),
    }
    assert dict(path_power_in_p((4,)).items()) == {(4,): Fraction(1)}
    assert dict(path_power_in_p((1, 1)).items()) == {
        (1, 1): Fraction(1),
        (2,): Fraction(1),
    }
    # composition input gives the same function
    assert dict(path_power_in_p((1, 2)).items()) == dict(path_power_in_p((2, 1)).items())


def test_path_power_in_p_unitriangular():
    for n in range(1, 8):
        for mu in partitions_of(n):
            e = path_power_in_p(mu)
            assert e.coeff(mu) == 1
            merges = set()
            for blocks in enumerate_set_partitions(len(mu)):
                merged = tuple(
                    sorted((sum(mu[i - 1] for i in block) for block in blocks), reverse=True)
                )
                merges.add(merged)
            assert {lam for lam, _ in e.items()} <= merges


def test_p_in_path_basis():
    assert p_in_path_basis((5,)) == {(5,): 1}
    assert p_in_path_basis((2, 1)) == {(2, 1): 1, (3,): -1}
    assert p_in_path_basis(()) == {(): 1}


def test_p_in_path_basis_inverts_expansion():
    for n in range(8):
        for mu in partitions_of(n):
            total = {}
            for nu, c in p_in_path_basis(mu).items():
                for rho, d in path_power_in_p(nu).items():
                    total[rho] = total.get(rho, 0) + c * d
            assert {k: v for k, v in total.items() if v} == {mu: 1}


def test_path_power_to_schur_examples():
    e = path_power_to_schur((3, 2, 1))
    assert dict(e.items()) == {
        (6,): Fraction(6),
        (5, 1): Fraction(-4),
        (4, 1, 1): Fraction(2),
        (3, 3): Fraction(2),
        (3, 2, 1): Fraction(-1),
    }
    assert dict(path_power_to_schur(()).items()) == {(): Fraction(1)}
    for n in range(1, 7):
        assert dict(path_power_to_schur((1,) * n).items()) == {
            (n,): Fraction(math.factorial(n))
        }


def test_path_power_to_schur_two_part_family():
    for n in range(5, 8):
        e = path_power_to_schur((2,) + (1,) * (n - 2))
        expect = {
            (n,): Fraction(math.factorial(n - 2) * (n - 1)),
            (n - 1, 1): Fraction(-math.factorial(n - 2)),
        }
        assert dict(e.items()) == expect


def test_path_power_to_schur_equals_the_tiling_tally():
    # the frozen walk of the core against every monotonic tiling of mu, for all 195 mu with |mu| <= 11
    clear_caches()
    cases = [mu for n in range(12) for mu in partitions_of(n)]
    assert len(cases) == 195
    for mu in cases:
        tally = {lam: mult_factorial(mu) * c for lam, c in tiling_tally(mu).items()}
        assert path_power_to_schur(mu) == SymExpansion(SCHUR, sum(mu), tally), mu


def test_path_power_to_schur_walks_only_the_frozen_prefixes_of_its_core(monkeypatch):
    walks = []

    def spy(mu, min_tail_row=1, extra_ones=0):
        walks.append((mu, min_tail_row, extra_ones))
        return enumerate_monotonic(mu, min_tail_row, extra_ones)

    monkeypatch.setattr(ribbons, "enumerate_monotonic", spy)
    clear_caches()
    path_power_to_schur((4, 4, 3, 3, 2, 2, 1, 1))
    # both singletons are offered: the cap |core| - 2 l(core) is 6
    assert walks == [((4, 4, 3, 3, 2, 2), 2, 2)]
    assert tiling_tally.cache_info().currsize == 0


def test_both_schur_routes_agree():
    for n in range(7):
        for mu in partitions_of(n):
            via_p = power_to_schur(path_power_in_p(mu))
            assert dict(via_p.items()) == dict(path_power_to_schur(mu).items())


def test_mult_factorial_divides_coefficients():
    for n in range(8):
        for mu in partitions_of(n):
            m = mult_factorial(mu)
            for _, c in path_power_to_schur(mu).items():
                assert c.denominator == 1
                assert c.numerator % m == 0


def test_json_round_trip():
    e = path_power_to_schur((2, 2)).scale(Fraction(1, 3))
    text = e.to_json()
    data = json.loads(text)
    assert data["basis"] == "schur"
    assert data["degree"] == 4
    back = SymExpansion.from_json(text)
    assert back == e
    with pytest.raises(ParseError):
        SymExpansion.from_json('{"basis": "schur"}')
    with pytest.raises(ParseError):
        SymExpansion.from_json('{"basis": "bogus", "degree": 1, "terms": []}')
    for num, den in (("1", "0"), ("Infinity", "1"), ("1.5", "1"), ("1", "2.0")):
        with pytest.raises(ParseError):
            SymExpansion.from_json(
                f'{{"basis": "schur", "degree": 1, "terms": [{{"partition": [1], "num": {num}, "den": {den}}}]}}'
            )


def test_every_basis_reads_back_its_json():
    for basis in (SCHUR, POWER, PATH):
        e = SymExpansion(basis, 4, {(3, 1): Fraction(-2, 3), (2, 2): 5, (1, 1, 1, 1): 1})
        assert SymExpansion.from_json(e.to_json()) == e
    assert json.loads(SymExpansion(PATH, 1, {(1,): 1}).to_json())["basis"] == "path"


def test_expansion_csv():
    e = SymExpansion(SCHUR, 3, {(3,): Fraction(5, 2), (2, 1): -4, (1, 1, 1): 1})
    assert e.to_csv() == 'partition,num,den\n[3],5,2\n"[2,1]",-4,1\n"[1,1,1]",1,1\n'
    assert SymExpansion(SCHUR, 2, {}).to_csv() == "partition,num,den\n"
    assert SymExpansion(SCHUR, 0, {(): 1}).to_csv() == "partition,num,den\n[],1,1\n"


def test_huge_coefficients_under_the_default_digit_limit():
    # s[2000] has coefficient 1996!, about 5700 digits. Pin CPython's default
    # int<->str digit limit, whatever the environment set.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        with pytest.raises(ValueError):
            str(math.factorial(1996))
        e = atomic_schur(parse_pp("1,2,3,4 -> 2,3,4,5", 2000))
        text = e.to_json()
        top = json.loads(text)["terms"][0]
        assert top["partition"] == [2000] and top["den"] == "1"
        assert int(Decimal(top["num"])) == math.factorial(1996)
        assert SymExpansion.from_json(text) == e
        assert e.render().startswith(top["num"] + "·s[2000] ")
        halved = e.scale(Fraction(1, 2))
        assert SymExpansion.from_json(halved.to_json()) == halved
        with pytest.raises(ParseError):
            SymExpansion.from_json(text.replace(top["num"], top["num"][:-1] + "x"))
    finally:
        set_limit(old)


def test_json_number_literal_past_the_digit_limit():
    # a bare JSON number, not a string: json.loads would call int() on it
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        digits = "1" + "0" * 5000
        text = f'{{"basis": "schur", "degree": 1, "terms": [{{"partition": [1], "num": {digits}, "den": 1}}]}}'
        e = SymExpansion.from_json(text)
        assert e == SymExpansion(SCHUR, 1, {(1,): 10**5000})
        assert SymExpansion.from_json(e.to_json()) == e
        with pytest.raises(ParseError):
            SymExpansion.from_json(text.replace('"degree": 1', f'"degree": {digits}'))
    finally:
        set_limit(old)


def test_ints_text_matches_each_value():
    shared = math.factorial(1150)  # 3023 digits
    assert shared.bit_length() >= _SHARED_BITS
    cases = [
        [],
        [7],
        [-shared],
        [2**64 + 1, 3**50, -7, 0],
        [shared * c for c in (1, -3, 0, 10**50, -(10**40 + 1), 7**600, 12345)],
        # each magnitude is converted once, for both signs and every repeat
        [shared * c for c in (1, -1, 3, -3, 1, 0)],
    ]
    for values in cases:
        assert _ints_text(values) == [_int_text(v) for v in values]


def test_ints_text_past_the_digit_limit():
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        shared = math.factorial(2000)  # 5736 digits
        values = [shared * c for c in (1, -2, 10**30, 3**2000)]
        with pytest.raises(ValueError):
            str(values[0])
        assert _ints_text(values) == [_int_text(v) for v in values]
    finally:
        set_limit(old)


def test_render_and_json_convert_the_common_factor_once(monkeypatch):
    big = atomic_schur(parse_pp("1,2,4,5,7 -> 2,3,5,6,8", 1200))
    assert any(c < 0 for c in big.terms.values())
    exps = [big, big.scale(Fraction(1, 3)), big.scale(-1)]
    assert math.gcd(*(c.numerator for c in exps[1].terms.values())).bit_length() >= _SHARED_BITS
    shared = [(e.render(), e.render(long=True), e.to_json()) for e in exps]
    # the same text, every value converted on its own
    monkeypatch.setattr(symfunc, "_SHARED_BITS", math.inf)
    assert shared == [(e.render(), e.render(long=True), e.to_json()) for e in exps]


@pytest.mark.parametrize(
    "make, render_sha, json_sha, csv_sha",
    [
        (
            lambda: atomic_schur(parse_pp("1,2,3,4,5,6 -> 2,3,4,5,6,1", 1200)),
            "f0d1b9d324c349e146f6f4b50c1a936bf032760d2dc5bb04beeec0d74601d532",
            "1a7ec69d538061986025fee8ab3eb3c3a25c21afe34daa9726ca8ed57bde30f9",
            "85142c29fdef2e7e6a7359ff02dccfcf203df51a9e84100642213ea6f7e541a2",
        ),
        (
            lambda: atomic_schur(parse_pp("1,2,4,5,7 -> 2,3,5,6,8", 1200)),
            "d73439f593772f6f186fbe1b79be9b86805cb00cdaf834fc864d559d155dcfc5",
            "1a2e74ae20a931031956944ca7163dd7fc4b7cc65264ffa38016b35e4f1a3ad4",
            "edfbd6171f5b24f64ef1c733ab23b98700a7620cc46026be2245ec05313b2670",
        ),
        (
            lambda: stable_expansion((3, 2, 2), 1200),
            "6997341ec83830a8662d28d59cc43943dd5051a79f9076b33f039ef387248cc8",
            "053b7c8fb980562027f86a5a43e24ac854c7967d89bb3c978c5d2869f81d5fa2",
            "fff6cefe2a68e6cfb222562420cfcba3947b17e342c67622fb8d1e5a6174e8e4",
        ),
    ],
)
def test_large_expansions_print_pinned_text(make, render_sha, json_sha, csv_sha):
    e = make()
    assert hashlib.sha256(e.render().encode()).hexdigest() == render_sha
    assert hashlib.sha256(e.to_json().encode()).hexdigest() == json_sha
    assert hashlib.sha256(e.to_csv().encode()).hexdigest() == csv_sha


@pytest.mark.parametrize("n", [12, 50])
def test_expansions_from_masks_equal_validated_ones(n):
    for mu in [mu for size in range(9) for mu in partitions_of(size) if 1 not in mu]:
        terms, prefactor = _stable_terms(mu, n)
        trusted = stable_expansion(mu, n)
        assert trusted == SymExpansion(SCHUR, n, {_shape(m): prefactor * c for m, c in terms.items()})
        assert all(type(c) is Fraction for c in trusted.terms.values())


def test_int_text_is_the_decimal_text_at_and_past_the_split():
    # below _SPLIT_BITS bits int_text is str(v); past it a binary split in
    # Decimal arithmetic, the same digits whatever the interpreter's limit:
    # 640, the least it accepts, makes str(v) fail below the split too
    S = _SPLIT_BITS
    values = [0, 7, 2**S - 1, 2**S, 2**S + 1, 2**(2 * S) + 1, 2**(3 * S + 5) - 2**S,
              10**20000, 3**40000, math.factorial(15000)]
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    for limit in ([4300, 640, 0] if set_limit else [None]):
        if limit is not None:
            old = sys.get_int_max_str_digits()
            set_limit(limit)
        try:
            for v in values + [-v for v in values]:
                assert _int_text(v) == str(Decimal(v)), (limit, v.bit_length())
            assert all(_int_decimal(v) == Decimal(v) for v in values)
        finally:
            if limit is not None:
                set_limit(old)


def test_read_int_is_int_at_and_past_the_split():
    # up to _SPLIT_DIGITS digits read_int is int(text); past them a binary split
    # joined by int products, the same value whatever the interpreter's limit
    # (at 640, the least it accepts, int(text) fails below the split too); a
    # 21,000-digit text splits as 5000 + 16000 digits, a high half read one level down
    D = _SPLIT_DIGITS
    texts = ["0", "7", "9" * D, "1" + "0" * D, "9" * (D + 1), "000" + "9" * D, "0" * (D + 3) + "12",
             "1" * (2 * D), "1" * (2 * D + 1), "5" * (4 * D + 7), "3" * 21000, _int_text(3**40000),
             _int_text(math.factorial(15000))]
    texts += ["-" + t for t in texts]
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        assert all(read_int(t, size=False) == int(t) for t in texts)
        return
    old = sys.get_int_max_str_digits()
    try:
        set_limit(0)
        expected = [int(t) for t in texts]
        for limit in [4300, 640, 0]:
            set_limit(limit)
            assert [read_int(t, size=False) for t in texts] == expected, limit
    finally:
        set_limit(old)


@pytest.mark.parametrize("d", range(21))
def test_the_padded_mask_orders_as_the_partitions(d):
    # the writers sort by the mask padded to d beads, m << (d - l(lam)), and
    # write the terms in the descending partition order that items() decodes
    shapes = list(partitions_of(d))
    by_mask = sorted(map(_mask, shapes), key=lambda m: m << (d - m.bit_count()), reverse=True)
    assert [_shape(m) for m in by_mask] == sorted(shapes, reverse=True)
    e = SymExpansion(SCHUR, d, dict.fromkeys(shapes, 1))
    rows = e.to_csv().splitlines()[1:]
    assert [row.rsplit(",", 2)[0].strip('"') for row in rows] == [format_partition(lam) for lam, _ in e.items()]


def test_shared_expansions_are_read_only():
    # atomic_schur hands out its memo's dict and symmetrize its memo's result:
    # no write may reach a later answer
    clear_caches()
    pp = parse_pp("1,2,4 -> 2,3,5", 8)
    for make in (lambda: atomic_schur(pp), lambda: symmetrize(builtin("maj", 6))):
        e = make()
        before = dict(e.nums)
        mask = next(iter(e.nums))
        with pytest.raises(TypeError):
            e.nums[mask] = 0
        with pytest.raises(TypeError):
            del e.nums[mask]
        for field in ("basis", "degree", "den", "nums", "terms"):
            with pytest.raises(AttributeError):
                setattr(e, field, getattr(e, field))
        again = make()
        assert again == e and dict(again.nums) == before
        # the view cannot be pickled, the expansion can
        for copied in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert copied == e and copied.nums is not e.nums
