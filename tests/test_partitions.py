import math

import pytest

from pathmn import (
    GuardError,
    ParseError,
    canonical_order,
    check_composition,
    check_partition,
    conjugate,
    contains,
    enumerate_set_partitions,
    format_partition,
    is_partition,
    mult_factorial,
    multinomial,
    multiplicities,
    pad_column,
    pad_row,
    parse_composition,
    parse_partition,
    parse_pp,
    partitions_of,
    syt_count,
    z_mu,
)
from brute import partitions_list, syt_brute


def test_is_partition():
    assert is_partition((4, 2, 1))
    assert is_partition(())
    assert is_partition((3, 3, 3))
    assert not is_partition((2, 3))
    assert not is_partition((3, 0))
    assert not is_partition((3, -1))


def test_check_partition():
    assert check_partition([4, 2]) == (4, 2)
    assert check_partition(()) == ()
    with pytest.raises(ParseError):
        check_partition((1, 2))
    with pytest.raises(ParseError):
        check_partition((2, 0))


def test_check_composition():
    assert check_composition([1, 3, 2]) == (1, 3, 2)
    assert check_composition(()) == ()
    with pytest.raises(ParseError):
        check_composition((1, 0, 2))


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    for n in range(8):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_multiplicities():
    assert multiplicities((4, 4, 3, 1, 1, 1)) == {4: 2, 3: 1, 1: 3}
    assert multiplicities(()) == {}


def test_mult_factorial():
    assert mult_factorial((4, 4, 3, 1, 1, 1)) == 12
    assert mult_factorial(()) == 1
    assert mult_factorial((2, 2, 2)) == 6


def test_z_mu():
    assert z_mu((2, 1)) == 2
    assert z_mu((1, 1, 1)) == 6
    for n in range(1, 9):
        assert z_mu((n,)) == n


def test_class_sizes_sum_to_group_order():
    for n in range(9):
        total = sum(math.factorial(n) // z_mu(mu) for mu in partitions_of(n))
        assert total == math.factorial(n)


def test_pad_row():
    assert pad_row((2, 1), 6) == (3, 2, 1)
    assert pad_row((), 5) == (5,)
    assert pad_row((), 0) == ()
    assert pad_row((3, 3), 9) == (3, 3, 3)
    with pytest.raises(ParseError):
        pad_row((2, 2), 5)
    with pytest.raises(ParseError):
        pad_row((3,), 2)
    with pytest.raises(ParseError, match="n below"):
        pad_row((), -1)


def test_pad_column():
    assert pad_column((3, 2), 7) == (3, 2, 1, 1)
    assert pad_column((), 4) == (1, 1, 1, 1)
    assert pad_column((2, 2), 4) == (2, 2)
    with pytest.raises(ParseError):
        pad_column((2, 2), 3)


def test_partitions_of_counts_and_order():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, expected in enumerate(counts):
        parts = list(partitions_of(n))
        assert len(parts) == expected
        assert len(set(parts)) == expected
        assert all(sum(lam) == n and is_partition(lam) for lam in parts)
        assert parts == sorted(parts, reverse=True)
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(5, max_part=2)) == [
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_partitions_of_matches_the_recursive_reference():
    # the iterative successor lists what the recursion lists, for every cap
    for n in range(21):
        assert list(partitions_of(n)) == partitions_list(n)
        for max_part in range(n + 2):
            assert list(partitions_of(n, max_part)) == partitions_list(n, max_part)
    assert list(partitions_of(0, -1)) == [()]
    assert list(partitions_of(3, -1)) == [] and list(partitions_of(-1)) == []


def test_partitions_of_lists_thousands_of_parts():
    # one stack frame for any number of parts; p(3000) itself has 57 digits
    assert list(partitions_of(3000, 1)) == [(1,) * 3000]
    parts = list(partitions_of(3000, 2))
    assert len(parts) == 1501 and parts[0] == (2,) * 1500 and parts[-1] == (1,) * 3000


def test_canonical_order():
    assert canonical_order([(1, 1, 1), (3,), (2, 1)]) == [(3,), (2, 1), (1, 1, 1)]


def test_enumerate_set_partitions():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for r, expected in enumerate(bell):
        seen = set()
        count = 0
        for blocks in enumerate_set_partitions(r):
            count += 1
            flat = sorted(x for block in blocks for x in block)
            assert flat == list(range(1, r + 1))
            key = frozenset(frozenset(block) for block in blocks)
            assert key not in seen
            seen.add(key)
        assert count == expected


def test_enumerate_set_partitions_guard():
    with pytest.raises(GuardError):
        list(enumerate_set_partitions(13))


def test_syt_count():
    assert syt_count(()) == 1
    assert syt_count((3,)) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((3, 2)) == 5
    assert syt_count((1, 1, 1, 1)) == 1
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert syt_count(lam) == syt_brute(lam)


def test_syt_sum_of_squares():
    for n in range(1, 8):
        total = sum(syt_count(lam) ** 2 for lam in partitions_of(n))
        assert total == math.factorial(n)


def test_multinomial():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(3, (3,)) == 1
    assert multinomial(0, ()) == 1
    assert multinomial(6, (3, 2, 1)) == 60


def compositions(total):
    """Every tuple of positive parts summing to total, in order."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_multinomial_matches_factorials():
    for total in range(11):
        for comp in compositions(total):
            # the composition itself, and with a zero part in every position
            for parts in [comp] + [comp[:i] + (0,) + comp[i:] for i in range(len(comp) + 1)]:
                expected = math.factorial(total) // math.prod(map(math.factorial, parts))
                assert multinomial(total, parts) == expected, parts
    for parts in [(1197, 2, 1), (2, 1, 1197), (317, 3)]:
        total = sum(parts)
        expected = math.factorial(total) // math.prod(map(math.factorial, parts))
        assert multinomial(total, parts) == expected


def test_contains():
    assert contains((4, 2), (2, 1))
    assert contains((4, 2), ())
    assert not contains((4, 2), (3, 3))
    assert not contains((2,), (1, 1))


def test_parse_partition():
    assert parse_partition("4,3,1") == (4, 3, 1)
    assert parse_partition("[4,3,1]") == (4, 3, 1)
    assert parse_partition("4 3 1") == (4, 3, 1)
    assert parse_partition("2^2 1^3") == (2, 2, 1, 1, 1)
    assert parse_partition("") == ()
    assert parse_partition("[]") == ()
    with pytest.raises(ParseError):
        parse_partition("3,4")
    with pytest.raises(ParseError):
        parse_partition("a,b")
    with pytest.raises(ParseError):
        parse_partition("0")


def test_parse_composition():
    assert parse_composition("1,3,2") == (1, 3, 2)
    assert parse_composition("2^2 1") == (2, 2, 1)
    with pytest.raises(ParseError):
        parse_composition("1,0")


# text -> the partition it reads as, or the ParseError's message (and the
# composition's, when they differ); Unicode spaces separate like ASCII ones
PARTITION_TEXTS = [
    ("4,3,1", (4, 3, 1)),
    ("[4,3,1]", (4, 3, 1)),
    ("4 3 1", (4, 3, 1)),
    ("  [ 4, 3 ,1 ]  ", (4, 3, 1)),
    ("2^2 1^3", (2, 2, 1, 1, 1)),
    ("[2^2,1^3]", (2, 2, 1, 1, 1)),
    ("", ()),
    ("   ", ()),
    ("[]", ()),
    ("[ ]", ()),
    (",4,,3,", (4, 3)),
    ("4\t3\n1", (4, 3, 1)),
    ("4\xa03\x1c1", (4, 3, 1)),
    ("[[1]]", "bad partition token '[1]' in '[1]'"),
    ("[4,3", "bad partition token '[4' in '[4,3'"),
    ("4,3]", "bad partition token '3]' in '4,3]'"),
    ("4;3", "bad partition token '4;3' in '4;3'"),
    ("0", "parts must be positive, got 0 in '0'"),
    ("3,0", "parts must be positive, got 0 in '3,0'"),
    ("-1", "bad partition token '-1' in '-1'"),
    ("1^0", ()),
    ("2^", "bad partition token '2^' in '2^'"),
    ("^2", "bad partition token '^2' in '^2'"),
    ("a", "bad partition token 'a' in 'a'"),
    ("1,2", "not a partition (weakly decreasing positive parts): (1, 2)", (1, 2)),
    ("9" * 41, f"partition token too long in '{'9' * 41}'"),
    ("10^7", (10,) * 7),
    ("1^10000001", "more than 10000000 parts in '1^10000001'"),
    ("3^2,2^3", (3, 3, 2, 2, 2)),
    ("\u0663", "bad partition token '\u0663' in '\u0663'"),
]
# text -> (I, J) at n = 6, or the ParseError's message
PP_TEXTS = [
    ("1,4,5 -> 2,5,6", ((1, 4, 5), (2, 5, 6))),
    ("[1,4] -> [2,5]", ((1, 4), (2, 5))),
    (" -> ", ((), ())),
    ("->", ((), ())),
    ("[] -> []", ((), ())),
    ("1 4->2 5", ((1, 4), (2, 5))),
    ("1,,4 -> 2 ,5", ((1, 4), (2, 5))),
    ("1 -> 2 -> 3", "expected 'I -> J', got '1 -> 2 -> 3'"),
    ("1,2", "expected 'I -> J', got '1,2'"),
    ("1 -> x", "bad index list 'x' in '1 -> x'"),
    ("[1 -> 2]", "bad index list '[1' in '[1 -> 2]'"),
    ("1,1 -> 2,3", "I has repeated entries: (1, 1)"),
    ("1 -> 7", "J entry 7 outside [1..6]"),
    ("0 -> 1", "I entry 0 outside [1..6]"),
    ("-1 -> 1", "I entry -1 outside [1..6]"),
    ("1,2 -> 3", "|I| = 2 but |J| = 1"),
    ("[ 1 , 2 ] -> [ 3 , 4 ]", ((1, 2), (3, 4))),
]


def _read(parse, *args):
    try:
        return parse(*args)
    except ParseError as e:
        return str(e)


def test_lists_read_the_same_in_both_parsers():
    # partitions and --pp sides strip a list's spaces and brackets and split it
    # at commas and spaces alike; these values and messages are pinned
    assert len(PARTITION_TEXTS) + len(PP_TEXTS) == 47
    for text, partition, *composition in PARTITION_TEXTS:
        assert _read(parse_partition, text) == partition, text
        assert _read(parse_composition, text) == (composition or [partition])[0], text
    for text, expected in PP_TEXTS:
        pp = _read(parse_pp, text, 6)
        assert (pp if type(pp) is str else (pp.I, pp.J)) == expected, text


def test_format_partition_round_trip():
    assert format_partition((4, 3, 1)) == "[4,3,1]"
    assert format_partition(()) == "[]"
    for n in range(7):
        for lam in partitions_of(n):
            assert parse_partition(format_partition(lam)) == lam
