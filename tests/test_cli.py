import ast
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import pathmn.cli
import pathmn.oracles
import pathmn.ribbons
from pathmn import (
    PATH,
    POWER,
    SCHUR,
    GuardError,
    ParseError,
    PartialPermutation,
    SymExpansion,
    atomic_schur,
    builtin,
    char_eval,
    clear_caches,
    p_in_path_basis,
    parse_partition,
    parse_pp,
    path_power_to_schur,
    power_to_schur,
    stat_from_json,
    stat_product,
    stat_to_json,
    symmetrize,
)
from pathmn.cli import main
from pathmn.errors import check_guard, effective_limit

A7_PP = "1,4,5,6,7 -> 2,5,6,4,7"


def run_cli(capsys, argv, expect_rc=0):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert (rc or 0) == expect_rc, (rc, captured.err)
    return captured.out, captured.err


def test_path_expand_human(capsys):
    out, _ = run_cli(capsys, ["path-expand", "3,2,1"])
    assert out == "6·s[6] − 4·s[5,1] + 2·s[4,1,1] + 2·s[3,3] − 1·s[3,2,1]\n"
    out, _ = run_cli(capsys, ["path-expand", "1^4"])
    assert out == "24·s[4]\n"
    out, _ = run_cli(capsys, ["path-expand", ""])
    assert out == "1·s[]\n"


def test_path_expand_long(capsys):
    out, _ = run_cli(capsys, ["path-expand", "3,2,1", "--long"])
    assert out == "6·s[6]\n−4·s[5,1]\n2·s[4,1,1]\n2·s[3,3]\n−1·s[3,2,1]\n"


def test_path_expand_json(capsys):
    out, _ = run_cli(capsys, ["path-expand", "3,2,1", "--format", "json"])
    data = json.loads(out)
    assert data["basis"] == "schur"
    assert data["degree"] == 6
    assert data["terms"][0] == {"partition": [6], "num": "6", "den": "1"}
    assert data["terms"][-1] == {"partition": [3, 2, 1], "num": "-1", "den": "1"}


def test_path_expand_csv(capsys):
    out, _ = run_cli(capsys, ["path-expand", "2,1", "--format", "csv"])
    assert out.splitlines() == ["partition,num,den", "[3],2,1", '"[2,1]",-1,1']


def test_path_expand_show_tilings(capsys):
    out, _ = run_cli(capsys, ["path-expand", "2,2", "--show-tilings"])
    assert out.startswith("2·s[4] − 2·s[3,1] + 2·s[2,2]\n")
    assert "tiling 1: type=[2, 2] depth=[2, 2] sign=+\n 1  2\n 1* 2*" in out
    assert "tiling 2: type=[2, 2] depth=[2, 1] sign=-\n 1  2* 2\n 1*" in out
    assert "tiling 3: type=[2, 2] depth=[1, 1] sign=+\n 1* 1  2* 2" in out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_show_tilings_is_human_format_only(capsys, fmt):
    # the grids would follow the document and break its parsing
    out, err = run_cli(capsys, ["path-expand", "2,1", "--show-tilings", "--format", fmt],
                       expect_rc=2)
    assert out == ""
    assert err == f"error: --show-tilings needs --format human, got {fmt}\n"


def test_path_expand_accepts_compositions(capsys):
    a, _ = run_cli(capsys, ["path-expand", "3,4"])
    b, _ = run_cli(capsys, ["path-expand", "4,3"])
    assert a == b


def test_p_expand(capsys):
    out, _ = run_cli(capsys, ["p-expand", "3,2,1"])
    assert out == (
        "1·s[6] − 1·s[4,1,1] + 1·s[3,3] + 1·s[3,1,1,1]"
        " − 1·s[2,2,2] − 1·s[1,1,1,1,1,1]\n"
    )
    out, _ = run_cli(capsys, ["p-expand", "2,1", "--in-path-basis"])
    assert out == "−1·P[3] + 1·P[2,1]\n"
    out, _ = run_cli(capsys, ["p-expand", "2,1", "--in-path-basis", "--format", "json"])
    assert json.loads(out)["basis"] == "path"


def _maj5_squared():
    maj = builtin("maj", 5)
    return symmetrize(stat_product(maj, maj)).schur


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["path-expand", "3,2,1"], lambda: path_power_to_schur((3, 2, 1))),
        (["p-expand", "3,2,1"], lambda: power_to_schur(SymExpansion(POWER, 6, {(3, 2, 1): 1}))),
        (["p-expand", "3,2,1", "--in-path-basis"], lambda: SymExpansion(PATH, 6, p_in_path_basis((3, 2, 1)))),
        (["atomic", "--pp", A7_PP, "--n", "7"], lambda: atomic_schur(PartialPermutation(7, (1, 4, 5, 6, 7), (2, 5, 6, 4, 7)))),
        (["stat", "maj", "--n", "5", "--moment", "2"], _maj5_squared),
    ],
    ids=["path-expand", "p-expand", "p-expand-in-path-basis", "atomic", "stat"],
)
def test_expansion_json_reads_back_as_the_library_result(capsys, argv, expected):
    out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert SymExpansion.from_json(out) == expected()


# sha256 of stdout, all exit 0; captured before the table and CSV formats
# moved from the CLI into CharacterTable and SymExpansion
OUTPUT_DIGESTS = {
    (("table", "0"), "human"): "af223013931fb052801742c527a7e29f791b0e9567a08fea5793947bc2621941",
    (("table", "0"), "json"): "68056c056443415ffcaa17b531e33e1ee62d7f86b4e4dbb93d109b700cb8fa07",
    (("table", "0"), "csv"): "e9aeda1d64cdef429eb162c71aae0101004b836bb29130360b0ceec13fe2ac4b",
    (("table", "1"), "human"): "10c8ab198def4c809e28c1d64b48010b5e7311b8014f8b3d9b3493bdf5c39fc8",
    (("table", "1"), "json"): "fa565c5d087cd98862377ba60bed86d761986f32383f1b5ad39eaca99f77658b",
    (("table", "1"), "csv"): "170571c9c41d70ee3c1fd7c7e0478c08cabaec747468eca550f47f5ac6b0d5f5",
    (("table", "4"), "human"): "d2ba7b7b079f5bf1c17a79bffa006962dad756887e386c62b2cbf8987f9dff3f",
    (("table", "4"), "json"): "a9bee757a6df14beb5eb56bacdc221d3d5639ce5db4e0304709fe0658d2e5613",
    (("table", "4"), "csv"): "34a6edad2513db268f683160f860ef08a02575e288822d7aec6019c4de7f8fb9",
    (("table", "8"), "human"): "3d730f4140e73ca86e6a5edf85b6e1cb5b64b935f58995e570640aaea8fbffc7",
    (("table", "8"), "json"): "da670f4c62e253c2a10044382e3e6681192a2a3a8408d087a17e53cb7c6a76d9",
    (("table", "8"), "csv"): "7b71a607904deb337baa282c6506b0e0b518601666d1f30465cdb0b17aa60532",
    (("table", "12"), "human"): "99047a9dd340b90a50f523fd882298f09c4de3adcbb80d7d6d6e2a9ee7cc7a6f",
    (("table", "12"), "json"): "5e6386543024d29e06bf5c95bd71503731d494eeca502f2baecd3d6577a05184",
    (("table", "12"), "csv"): "a954fd5c139e7c0dc5fbd186083256b25795aba36cad0a42e1d5cdbee15f8d08",
    (("path-expand", "3,2,1"), "human"): "6ce44242f3a01ec46e9c36cc7f5ca6a53f7dbbd001a1bc49647a071e7428e454",
    (("path-expand", "3,2,1"), "json"): "cf1948848ab8b85b0859c5c0bc080534de55aa85c312928c7d529788fd80560f",
    (("path-expand", "3,2,1"), "csv"): "9a2ce48e8c25c1e740bd65ed3aa35fddecf2d9b1eeaa40908d2052234fa11f46",
    (("p-expand", "3,2,1", "--in-path-basis"), "human"): "08aee44fc960a060c61e84db71762a16345573d022e82be5f7c3793b6a1334f5",
    (("p-expand", "3,2,1", "--in-path-basis"), "json"): "cdc8d9bea2baaf06dfd034fa27eaea9338d549978e736566719e5ee4a70c23ee",
    (("p-expand", "3,2,1", "--in-path-basis"), "csv"): "d1dc44d48a8ec65d22ddd27f6bc4d745fda1fd6c29c9e22864a17cb5908c28e0",
    (("atomic", "--pp", A7_PP, "--n", "7"), "human"): "80db55bf16e9f7c981ad83ceea2d2450abeca12e71e7eb878c3166b84e02cb34",
    (("atomic", "--pp", A7_PP, "--n", "7"), "json"): "74b79333c7b3a62e39c65f6caed35ed51d7bd9621675f56208b0db853f31b569",
    (("atomic", "--pp", A7_PP, "--n", "7"), "csv"): "ae76b497121a4827e233a121723ab1238dd4573b5a0b51cfe5e5f6542cd02e94",
}


@pytest.mark.parametrize(("command", "fmt"), OUTPUT_DIGESTS)
def test_output_bytes_are_pinned(capsys, command, fmt):
    out, _ = run_cli(capsys, [*command, "--format", fmt])
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[(command, fmt)]


def test_atomic(capsys):
    out, _ = run_cli(capsys, ["atomic", "--pp=->", "--n", "5"])
    assert out == "120·s[5]\n"
    out, _ = run_cli(capsys, ["atomic", "--pp", A7_PP, "--n", "7", "--format", "json"])
    pp = PartialPermutation(7, (1, 4, 5, 6, 7), (2, 5, 6, 4, 7))
    assert SymExpansion.from_json(out) == atomic_schur(pp)


def test_atomic_huge_coefficients(capsys):
    # s[2000] counts the 1996! completions: far past the default 4300-digit
    # int->str limit, yet printed in full in both formats (the test converts
    # through Decimal, which that limit does not bind)
    pp = ["atomic", "--pp", "1,2,3,4 -> 2,3,4,5", "--n", "2000"]
    out, _ = run_cli(capsys, pp + ["--format", "json"])
    top = json.loads(out)["terms"][0]
    assert top["partition"] == [2000]
    assert int(Decimal(top["num"])) == math.factorial(1996) and top["den"] == "1"
    out, _ = run_cli(capsys, pp)
    assert out.startswith(f"{Decimal(math.factorial(1996))}·s[2000] ")


def test_digit_limit_is_left_alone(capsys, monkeypatch):
    # every output prints past CPython's 4300-digit int->str limit on its own,
    # so the CLI never switches the limit, not even for one call
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda *a, **kw: calls.append((a, kw)))
    try:
        argv = ["--pp", "1,2,3,4 -> 2,3,4,5", "--n", "2000"]
        value = char_eval((1996, 4), parse_pp(argv[1], 2000))
        text = str(Decimal(value))
        assert len(text.lstrip("-")) > 4300
        out, _ = run_cli(capsys, ["char", "1996,4", *argv])
        assert out == f"{text}\n"
        out, _ = run_cli(capsys, ["char", "1996,4", *argv, "--format", "json"])
        assert json.loads(out, parse_int=Decimal) == {"lam": [1996, 4], "value": Decimal(value)}
        out, _ = run_cli(capsys, ["char", "1996,4", *argv, "--format", "csv"])
        assert out == f'partition,value\n"[1996,4]",{text}\n'
        out, _ = run_cli(capsys, ["atomic", *argv, "--format", "csv"])
        assert out.splitlines()[1] == f"[2000],{Decimal(math.factorial(1996))},1"
        assert calls == [] and sys.get_int_max_str_digits() == 4300
    finally:
        set_limit(old)


def test_part_past_the_digit_limit_is_a_parse_error(capsys):
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        part = "9" * 5000
        for argv in (["char", part, "--pp=->", "--n", "3"], ["path-expand", f"2^{part}"]):
            _, err = run_cli(capsys, argv, expect_rc=2)
            assert err.startswith("error: partition token too long")
    finally:
        set_limit(old)


def test_huge_multiplicity_is_refused_before_the_list(capsys, monkeypatch):
    _, err = run_cli(capsys, ["path-expand", "2^99999999999999999999"], expect_rc=2)
    assert err == "error: more than 10000000 parts in '2^99999999999999999999'\n"
    out, _ = run_cli(capsys, ["char", "1^1200", "--pp", "1,2 -> 2,1", "--n", "1200"])
    assert out == "0\n"
    # the count runs over every token
    monkeypatch.setattr("pathmn.partitions._MAX_PARSED_PARTS", 5)
    assert parse_partition("2^3 1^2") == (2, 2, 2, 1, 1)
    with pytest.raises(ParseError, match="more than 5 parts"):
        parse_partition("2^3 1^3")


def test_guard_override_is_read_at_each_call(monkeypatch):
    monkeypatch.delenv("PATHMN_MAX_N", raising=False)
    assert effective_limit(5) == 5
    monkeypatch.setenv("PATHMN_MAX_N", "7")
    assert effective_limit(5) == 7
    monkeypatch.setenv("PATHMN_MAX_N", "seven")
    with pytest.raises(ParseError, match="PATHMN_MAX_N must be an integer"):
        effective_limit(5)
    monkeypatch.delenv("PATHMN_MAX_N")
    assert effective_limit(5) == 5


def test_empty_partial_permutation(capsys):
    out, _ = run_cli(capsys, ["atomic", "--pp=->", "--n", "3"])
    assert out == "6·s[3]\n"
    # argparse reads a separate "->" as an option, hence the documented --pp="->"
    _, err = run_cli(capsys, ["atomic", "--pp", "->", "--n", "3"], expect_rc=2)
    assert "expected one argument" in err
    out, _ = run_cli(capsys, ["atomic", "--help"])
    assert '--pp="->"' in out


def test_char(capsys):
    out, _ = run_cli(capsys, ["char", "4,3", "--pp", A7_PP, "--n", "7"])
    assert out == "3\n"
    out, _ = run_cli(
        capsys, ["char", "4,3", "--pp", A7_PP, "--n", "7", "--format", "json"]
    )
    assert json.loads(out) == {"lam": [4, 3], "value": 3}
    out, _ = run_cli(
        capsys, ["char", "4,3", "--pp", A7_PP, "--n", "7", "--format", "csv"]
    )
    assert out == 'partition,value\n"[4,3]",3\n'


def test_table_human(capsys):
    out, _ = run_cli(capsys, ["table", "3"])
    assert out.splitlines() == [
        "         [3]  [2,1]  [1,1,1]",
        "    [3]    1      1        1",
        "  [2,1]   -1      0        2",
        "[1,1,1]    1     -1        1",
    ]


def test_table_csv(capsys):
    out, _ = run_cli(capsys, ["table", "3", "--format", "csv"])
    assert out == (
        'lambda\\mu,[3],"[2,1]","[1,1,1]"\n'
        "[3],1,1,1\n"
        '"[2,1]",-1,0,2\n'
        '"[1,1,1]",1,-1,1\n'
    )


def test_table_json(capsys):
    out, _ = run_cli(capsys, ["table", "4", "--format", "json"])
    assert json.loads(out) == {
        "n": 4,
        "shapes": [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]],
        "rows": [
            [1, 1, 1, 1, 1],
            [-1, 0, -1, 1, 3],
            [0, -1, 2, 0, 2],
            [1, 0, -1, -1, 3],
            [-1, 1, 1, -1, 1],
        ],
    }


def test_stat_builtin(capsys):
    out, _ = run_cli(capsys, ["stat", "exc", "--n", "6"])
    assert out == "(5/2)·s[6] − (1/2)·s[5,1]\n"
    out, _ = run_cli(capsys, ["stat", "exc", "--n", "7", "--moment", "2"])
    assert out == "(29/3)·s[7] − (17/6)·s[6,1] + (1/6)·s[5,2] + (1/3)·s[5,1,1]\n"


def test_stat_from_file(capsys, tmp_path):
    path = tmp_path / "exc5.json"
    path.write_text(stat_to_json(builtin("exc", 5)), encoding="utf-8")
    out, _ = run_cli(capsys, ["stat", str(path)])
    assert out == "2·s[5] − (1/2)·s[4,1]\n"
    _, err = run_cli(capsys, ["stat", str(path), "--n", "6"], expect_rc=2)
    assert "disagrees with the file's n = 5" in err


def test_usage_errors(capsys):
    _, err = run_cli(capsys, ["char", "2,2", "--pp", "junk", "--n", "4"], expect_rc=2)
    assert "expected 'I -> J'" in err
    _, err = run_cli(capsys, ["stat", "exc"], expect_rc=2)
    assert "needs --n" in err
    _, err = run_cli(capsys, ["stat", "/nonexistent/file.json", "--n", "5"], expect_rc=2)
    assert "cannot read statistic file" in err
    _, err = run_cli(capsys, ["stat", "exc", "--n", "5", "--moment", "0"], expect_rc=2)
    assert "--moment must be >= 1" in err
    _, err = run_cli(capsys, ["path-expand", "3,a"], expect_rc=2)
    assert "bad partition token 'a'" in err


def test_long_only_where_an_expansion_is_printed(capsys):
    for argv in (["table", "2"], ["char", "2", "--pp", "1 -> 2", "--n", "2"]):
        _, err = run_cli(capsys, [*argv, "--long"], expect_rc=2)
        assert "unrecognized arguments: --long" in err
    out, _ = run_cli(capsys, ["stat", "exc", "--n", "6", "--long"])
    assert out == "(5/2)·s[6]\n−(1/2)·s[5,1]\n"


def test_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PATHMN_MAX_N", "3")
    _, err = run_cli(capsys, ["table", "4"], expect_rc=3)
    assert err.startswith("refused:")
    assert "exceeds the guard limit 3" in err


def test_statistic_product_guard_counts_pair_visits(capsys, tmp_path):
    # maj written out at n = 12 keeps the term-by-term route: its cube would
    # visit 136,576 x 726 pairs of terms
    path = tmp_path / "maj12.json"
    path.write_text(stat_to_json(builtin("maj", 12).explicit()), encoding="utf-8")
    _, err = run_cli(capsys, ["stat", str(path), "--moment", "3"], expect_rc=3)
    assert err == (
        "refused: statistic product pair visits = 99154176 exceeds the guard limit 2000000"
        " (set PATHMN_MAX_N to override)\n"
    )


def test_statistic_product_guard_counts_held_terms(capsys, monkeypatch, tmp_path):
    # maj^2 term by term at n = 6 holds 695 terms, 607 after the outer term that
    # passes 600; the limit is lowered past PATHMN_MAX_N's reach, since a product
    # holds no more terms than it visits pairs
    path = tmp_path / "maj6.json"
    path.write_text(stat_to_json(builtin("maj", 6).explicit()), encoding="utf-8")
    monkeypatch.setattr("pathmn.statistics._MAX_TERMS", 600)
    clear_caches()
    _, err = run_cli(capsys, ["stat", str(path), "--moment", "2"], expect_rc=3)
    assert err == (
        "refused: statistic product patterns = 607 exceeds the guard limit 600"
        " (set PATHMN_MAX_N to override)\n"
    )
    clear_caches()


def test_builtin_statistic_guard_counts_terms(capsys):
    # maj's terms are counted in closed form, so building them is refused unbuilt
    with pytest.raises(GuardError, match="^statistic terms = 499000500 exceeds the guard limit 250000 "):
        builtin("maj", 1000).explicit()
    # maj, des and exc are pattern tables, symmetrized by their census with no
    # term built (maj was refused at 499,000,500 terms and exc at 4,999,950,000)
    out, _ = run_cli(capsys, ["stat", "maj", "--n", "1000"])
    assert out == "249750·s[1000] − (1/2)·s[999,1] − (1/2)·s[998,1,1]\n"
    out, _ = run_cli(capsys, ["stat", "des", "--n", "1000"])
    assert out == "(999/2)·s[1000] − (1/1000)·s[999,1] − (1/1000)·s[998,1,1]\n"
    out, _ = run_cli(capsys, ["stat", "exc", "--n", "100000"])
    assert out == "(99999/2)·s[100000] − (1/2)·s[99999,1]\n"


def test_pattern_product_guard_counts_interleavings(capsys, monkeypatch):
    # exc^2 has patterns on 2, 3 and 4 points (one, one and three): times exc
    # they interleave D(2,2) + D(3,2) + 3·D(4,2) = 13 + 25 + 123 ways at n >= 6
    monkeypatch.setenv("PATHMN_MAX_N", "160")
    out, err = run_cli(capsys, ["stat", "exc", "--n", "6", "--moment", "3"], expect_rc=3)
    assert out == ""
    assert err == ("refused: statistic product interleavings = 161 exceeds the guard limit 160"
                   " (set PATHMN_MAX_N to override)\n")
    monkeypatch.delenv("PATHMN_MAX_N")
    # exc^6 holds 42,227 patterns at n >= 12; the seventh power is refused before its loop
    _, err = run_cli(capsys, ["stat", "exc", "--n", "30", "--moment", "7"], expect_rc=3)
    assert err == ("refused: statistic product interleavings = 10843467 exceeds the guard limit 2000000"
                   " (set PATHMN_MAX_N to override)\n")


def test_power_sums_take_any_number_of_parts(capsys):
    # the chain and the walk are loops: past 400 parts these were refused, and
    # past about 990 parts they died with RecursionError
    out, _ = run_cli(capsys, ["path-expand", "1^1200"])
    assert out == f"{math.factorial(1200)}·s[1200]\n"
    # p_{1^1000} is refused by what it builds, every partition of the degree
    _, err = run_cli(capsys, ["p-expand", "1^1000"], expect_rc=3)
    assert err == (
        "refused: ribbon chain shapes = 6842 exceeds the guard limit 5604"
        " (set PATHMN_MAX_N to override)\n"
    )


def test_power_sum_degree_guard(capsys):
    # p_{1^d} expands into every partition of d: 1^40 takes seconds, 1^50 over a minute
    for mu in ("1^31", "1^50", "2^200"):
        _, err = run_cli(capsys, ["p-expand", mu], expect_rc=3)
        assert err.startswith("refused: ribbon chain shapes = ")
    out, _ = run_cli(capsys, ["p-expand", "30"])
    assert out.startswith("1·s[30] − 1·s[29,1] + ")
    # a sum of hooks holds one shape per hook
    out, _ = run_cli(capsys, ["p-expand", "31"])
    assert out.startswith("1·s[31] − 1·s[30,1] + ")


def test_power_sum_guard_bounds_the_shapes(capsys):
    _, err = run_cli(capsys, ["p-expand", "1^31"], expect_rc=3)
    assert err == (
        "refused: ribbon chain shapes = 6842 exceeds the guard limit 5604"
        " (set PATHMN_MAX_N to override)\n"
    )
    # p_40 is the alternating sum of the 40 hooks
    out, _ = run_cli(capsys, ["p-expand", "40", "--format", "json"])
    assert [(t["partition"], t["num"]) for t in json.loads(out)["terms"]] == [
        ([40 - k] + [1] * k, str((-1) ** k)) for k in range(40)
    ]


def paths_pp(parts):
    """A partial permutation whose paths have the given sizes, on 1, 2, ..."""
    I, J, v = [], [], 1
    for k in parts:
        I += range(v, v + k - 1)
        J += range(v + 1, v + k)
        v += k
    return f"{','.join(map(str, I))} -> {','.join(map(str, J))}"


SHAPES_31 = (
    "refused: ribbon chain shapes = 6842 exceeds the guard limit 5604"
    " (set PATHMN_MAX_N to override)\n"
)
NODES_100K = (
    "refused: monotonic walk nodes = 100001 exceeds the guard limit 100000"
    " (set PATHMN_MAX_N to override)\n"
)


def test_fixed_points_are_counted_in_the_chain(capsys, tmp_path):
    # the cycle type 1^31 adds 31 single cells: the chain ends on all p(31) shapes
    fixed = ",".join(map(str, range(1, 32)))
    _, err = run_cli(capsys, ["atomic", "--pp", f"{fixed} -> {fixed}", "--n", "31"], expect_rc=3)
    assert err == SHAPES_31
    # one value removes the 31 cells from lam instead, and holds only subshapes of lam
    out, _ = run_cli(capsys, ["char", "31", "--pp", f"{fixed} -> {fixed}", "--n", "31"])
    assert out == "1\n"
    # the subshapes of 20^20 still pass the limit
    fixed = ",".join(map(str, range(1, 401)))
    _, err = run_cli(capsys, ["char", "20^20", "--pp", f"{fixed} -> {fixed}", "--n", "400"], expect_rc=3)
    assert err.startswith("refused: ribbon chain shapes = ")
    path = tmp_path / "fix31.json"
    path.write_text(
        json.dumps({"n": 31, "terms": [{"coeff": "1", "I": list(range(1, 32)), "J": list(range(1, 32))}]}),
        encoding="utf-8",
    )
    _, err = run_cli(capsys, ["stat", str(path)], expect_rc=3)
    assert err == SHAPES_31
    # 30 fixed points: p_{1^30} = sum of f^lam s_lam over all 5604 shapes
    fixed = ",".join(map(str, range(1, 31)))
    out, _ = run_cli(capsys, ["atomic", "--pp", f"{fixed} -> {fixed}", "--n", "30", "--long"])
    assert out.count("\n") == 5604
    assert out.startswith("1·s[30]\n29·s[29,1]\n")
    out, _ = run_cli(capsys, ["char", "29,1", "--pp", f"{fixed} -> {fixed}", "--n", "30"])
    assert out == "29\n"


def test_path_walks_are_counted(capsys):
    _, err = run_cli(capsys, ["atomic", "--pp", paths_pp((7, 6, 5, 4, 3, 2)), "--n", "60"], expect_rc=3)
    assert err == NODES_100K
    # path-expand walks only the frozen prefixes of its core 2^10; the whole walk refuses
    out, _ = run_cli(capsys, ["path-expand", "2^10,1^10", "--format", "json"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "36e20a32066213c521788d629d427985434f7cf44e39ea62683edec31b75a267"
    )
    out, err = run_cli(capsys, ["path-expand", "2^10,1^10", "--show-tilings"], expect_rc=3)
    assert (out, err) == ("", NODES_100K)
    # 29,876 nodes; the digest is of the output before the walk was counted
    out, _ = run_cli(capsys, ["atomic", "--pp", paths_pp((6, 5, 4, 3, 2)), "--n", "60"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a6bbc9053adbcdb31ae2caf54a670c8dcf0df0f9800d2fc1b0afe39ed88cdbdd"
    )


def test_lowered_max_n_lowers_both_counts(capsys, monkeypatch):
    monkeypatch.setenv("PATHMN_MAX_N", "41")
    clear_caches()  # a memoized result is not counted again
    # p_{1^10} holds p(10) = 42 shapes, p_{1^9} 30
    _, err = run_cli(capsys, ["p-expand", "1^10"], expect_rc=3)
    assert err == "refused: ribbon chain shapes = 42 exceeds the guard limit 41 (set PATHMN_MAX_N to override)\n"
    run_cli(capsys, ["p-expand", "1^9"])
    # the whole walk of 3,2,1 visits 39 nodes, that of 2^3,1^3 121
    out, err = run_cli(capsys, ["path-expand", "2^3,1^3", "--show-tilings"], expect_rc=3)
    assert out == ""
    assert err == "refused: monotonic walk nodes = 42 exceeds the guard limit 41 (set PATHMN_MAX_N to override)\n"
    run_cli(capsys, ["path-expand", "3,2,1", "--show-tilings"])
    run_cli(capsys, ["path-expand", "2^3,1^3"])  # the frozen walk of its core 2^3 is short


@pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("too deep")])
def test_internal_error_is_one_line(capsys, monkeypatch, error):
    def fail(pp):
        raise error

    monkeypatch.setattr("pathmn.characters.atomic_schur", fail)
    _, err = run_cli(capsys, ["atomic", "--pp", "1 -> 2", "--n", "3"], expect_rc=1)
    assert err == f"error: internal: {type(error).__name__}: {error}\n"
    assert "Traceback" not in err


def test_oracle_check(capsys):
    out, _ = run_cli(capsys, ["oracle-check", "alternant", "--max-n", "3"])
    assert out == "alternant: OK (18 comparisons)\n"
    out, _ = run_cli(capsys, ["oracle-check", "all", "--max-n", "3"])
    assert out.splitlines() == [
        "atomic: OK (24 comparisons)",
        "words: OK (7 comparisons)",
        "alternant: OK (18 comparisons)",
        "census: OK (21 comparisons)",
    ]


def test_oracle_check_refuses_negative_max_n(capsys):
    out, err = run_cli(capsys, ["oracle-check", "atomic", "--max-n", "-3"], expect_rc=2)
    assert out == ""
    assert err == "error: --max-n must be >= 0, got -3\n"


def test_bench_command_is_gone(capsys):
    _, err = run_cli(capsys, ["bench", "--pp", "1,2 -> 2,3", "--n", "7"], expect_rc=2)
    assert "invalid choice: 'bench'" in err


def test_oracle_check_mismatch(capsys, monkeypatch):
    monkeypatch.setattr("pathmn.oracles.alternant_char", lambda lam, alpha: 999)
    _, err = run_cli(capsys, ["oracle-check", "alternant", "--max-n", "3"], expect_rc=4)
    assert err.startswith("oracle mismatch: alternant disagrees")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pathmn.cli", "path-expand", "1^4"],
        capture_output=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert proc.stdout == "24·s[4]\n"


def test_closed_stdout_exits_without_traceback():
    # about 140 kB of JSON, more than a pipe holds, so the write meets the
    # closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "pathmn.cli", "atomic", "--pp", "1,2,3,4 -> 2,3,4,5",
         "--n", "4000", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{"basis": '
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


def test_closed_stdout_exits_1_in_process(capsys, monkeypatch):
    # main itself: the write meets a pipe with no reader, and devnull goes
    # under stdout's descriptor, so the flush at close has somewhere to go
    read, write = os.pipe()
    os.close(read)
    stdout = open(write, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["table", "6"]) == 1
    finally:
        stdout.close()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(("scope", "route"), [("atomic", "atomic_schur"), ("words", "path_power_to_schur")])
def test_oracle_check_exits_4_when_a_route_disagrees(capsys, monkeypatch, scope, route):
    fast = getattr(pathmn.oracles, route)
    monkeypatch.setattr(pathmn.oracles, route, lambda arg: fast(arg).scale(2))
    out, err = run_cli(capsys, ["oracle-check", scope, "--max-n", "3"], expect_rc=4)
    assert out == "" and err.startswith("oracle mismatch: ")
    clear_caches()  # later tests read guards on chains that the sweep has memoized


def _package_imports():
    """(file name, module name) for every absolute import in the package."""
    for path in sorted(pathlib.Path(pathmn.cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from ((path.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                yield path.name, node.module


def test_package_imports_only_the_standard_library():
    foreign = [f"{file}: {name}" for file, name in _package_imports()
               if name.split(".")[0] not in {"pathmn", *sys.stdlib_module_names}]
    assert foreign == []


# every module the package imports, sys aside; a new one must be added here on purpose
PACKAGE_DEPENDENCIES = ("argparse", "contextlib", "csv", "decimal", "fractions", "functools", "io",
                        "itertools", "json", "math", "os", "re", "types", "typing")


def test_cli_import_loads_no_module_beyond_those_the_package_names():
    named = {name.split(".")[0] for _, name in _package_imports()} - {"pathmn", "sys"}
    assert sorted(named) == list(PACKAGE_DEPENDENCIES)
    # what those modules load on this Python is the baseline, so no version's list is pinned
    code = (f"import sys, {', '.join(PACKAGE_DEPENDENCIES)}; before = set(sys.modules); "
            "import pathmn.cli; print(*sorted(set(sys.modules) - before))")
    src = pathlib.Path(pathmn.cli.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, encoding="utf-8",
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    loaded = proc.stdout.split()
    assert "pathmn.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] != "pathmn"] == []


def test_cli_reads_no_private_names_of_the_package():
    tree = ast.parse(open(pathmn.cli.__file__, encoding="utf-8").read())
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "pathmn":
            bound |= {a.asname or a.name for a in node.names}
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names
                      if a.name.split(".")[0] == "pathmn"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                private.append(ast.unparse(node))
    assert private == []


@pytest.fixture
def digit_limit():
    """Pin CPython's int<->str digit limit for one test; restored afterwards."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int<->str digit limit")
    old = sys.get_int_max_str_digits()
    yield set_limit
    set_limit(old)


# (spelling as command-line text, spelling in a JSON field that holds a list)
BIG = "9" * 5000
MALFORMED = {
    "true": ("true", "[true]"),
    "float": ("1.5", "[1.5]"),
    "plus": ("+3", '["+3"]'),
    "underscore": ("1_0", '["1_0"]'),
    "arabic-indic digit": ("٣", '["٣"]'),
    "string for a list": ('"21"', '"21"'),
    "20-digit size": ("9" * 20, f"[{'9' * 20}]"),
    "5000-digit part, limit 4300": (BIG, f"[{BIG}]"),
    "5000-digit part, limit 0": (BIG, f"[{BIG}]"),
}


def _cli_refuses(capsys, argv, env=None, monkeypatch=None):
    if env is not None:
        monkeypatch.setenv("PATHMN_MAX_N", env)
    run_cli(capsys, argv, expect_rc=2)


def _json_refuses(read, text):
    with pytest.raises(ParseError):
        read(text)


READERS = {
    "partition": lambda capsys, mp, cli, js: _cli_refuses(capsys, ["path-expand", cli]),
    "--pp": lambda capsys, mp, cli, js: _cli_refuses(capsys, ["atomic", "--pp", f"1 -> {cli}", "--n", "3"]),
    "--n": lambda capsys, mp, cli, js: _cli_refuses(capsys, ["atomic", "--pp", "1 -> 2", "--n", cli]),
    "table n": lambda capsys, mp, cli, js: _cli_refuses(capsys, ["table", cli]),
    "PATHMN_MAX_N": lambda capsys, mp, cli, js: _cli_refuses(capsys, ["p-expand", "2"], cli, mp),
    "SymExpansion.from_json": lambda capsys, mp, cli, js: _json_refuses(
        SymExpansion.from_json,
        f'{{"basis": "schur", "degree": 1, "terms": [{{"partition": {js}, "num": "1", "den": "1"}}]}}'),
    "stat_from_json": lambda capsys, mp, cli, js: _json_refuses(
        stat_from_json, f'{{"n": 3, "terms": [{{"coeff": "1", "I": {js}, "J": [2]}}]}}'),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("spelling", MALFORMED)
def test_every_reader_refuses_every_malformed_integer(capsys, monkeypatch, digit_limit, reader, spelling):
    digit_limit(0 if spelling.endswith("limit 0") else 4300)
    READERS[reader](capsys, monkeypatch, *MALFORMED[spelling])


def test_the_integer_grammar_was_looser_before(capsys, monkeypatch):
    # each of these read a wrong value, or ended with an internal error (exit 1)
    for text in ("1_0 -> ٢", "+3 -> 1"):
        with pytest.raises(ParseError, match="bad index list"):
            parse_pp(text, 20)
    with pytest.raises(ParseError, match="bad partition token '٣'"):
        parse_partition("٣,1")
    _, err = run_cli(capsys, ["atomic", "--pp", "1 -> 2", "--n", "2_0"], expect_rc=2)
    assert err == "error: --n must be an integer, got '2_0'\n"
    for argv in (["path-expand", "9" * 20], ["p-expand", "9" * 20],
                 ["atomic", "--pp=1->2", "--n", "9" * 20], ["char", "9" * 20, "--pp=->", "--n", "9" * 20]):
        _, err = run_cli(capsys, argv, expect_rc=2)
        assert err.endswith(f"must fit an index-sized int, got {'9' * 20}\n")
    monkeypatch.setenv("PATHMN_MAX_N", "1_000")
    _, err = run_cli(capsys, ["p-expand", "2"], expect_rc=2)
    assert err == "error: PATHMN_MAX_N must be an integer, got '1_000'\n"
    bad_expansions = [
        '{"basis": "schur", "degree": 2, "terms": [{"partition": [true, true], "num": true, "den": true}]}',
        '{"basis": "schur", "degree": 2, "terms": [{"partition": [1, 1], "num": true, "den": 1}]}',
        '{"basis": "schur", "degree": 3, "terms": [{"partition": "21", "num": 1, "den": 1}]}',
        '{"basis": "schur", "degree": true, "terms": []}',
    ]
    for text in bad_expansions:
        with pytest.raises(ParseError, match="malformed expansion object"):
            SymExpansion.from_json(text)
    for text in ('{"n": true, "terms": []}', '{"n": 3, "terms": [{"coeff": 1, "I": [true], "J": [2]}]}',
                 '{"n": 3, "terms": [{"coeff": 1, "I": "12", "J": [2, 3]}]}'):
        with pytest.raises(ParseError, match="malformed statistic object"):
            stat_from_json(text)


def test_plain_integer_spellings_keep_their_values(capsys, monkeypatch):
    assert parse_pp("[01, 2] -> 002 1", 3) == PartialPermutation(3, (1, 2), (2, 1))
    assert parse_partition("03,2^0 1") == (3, 1)
    out, _ = run_cli(capsys, ["atomic", "--pp", "1 -> 2", "--n", "003"])
    assert out == "2·s[3] − 1·s[2,1]\n"
    monkeypatch.setenv("PATHMN_MAX_N", "-1")
    with pytest.raises(GuardError):
        check_guard(0, 5, "x")
    assert SymExpansion.from_json(
        '{"basis": "schur", "degree": "2", "terms": [{"partition": ["2"], "num": -3, "den": "-2"}]}'
    ) == SymExpansion(SCHUR, 2, {(2,): Fraction(3, 2)})


def test_the_override_sets_the_chain_and_walk_guards_at_any_part_count(capsys, monkeypatch):
    # no guard counts parts: the override, raised or lowered, meets the chain's shapes and the walk's nodes
    monkeypatch.setenv("PATHMN_MAX_N", "1000")
    _, err = run_cli(capsys, ["p-expand", "1^1200"], expect_rc=3)
    assert err == "refused: ribbon chain shapes = 1002 exceeds the guard limit 1000 (set PATHMN_MAX_N to override)\n"
    _, err = run_cli(capsys, ["path-expand", "2^1200"], expect_rc=3)
    assert err == "refused: monotonic walk nodes = 1001 exceeds the guard limit 1000 (set PATHMN_MAX_N to override)\n"
    # a memoized column is not counted again, and 1^1200 left p_{1^4} in the memo
    clear_caches()
    monkeypatch.setenv("PATHMN_MAX_N", "3")
    _, err = run_cli(capsys, ["p-expand", "1^4"], expect_rc=3)
    assert err == "refused: ribbon chain shapes = 5 exceeds the guard limit 3 (set PATHMN_MAX_N to override)\n"


def test_a_step_past_the_limit_is_refused_before_it_is_built(capsys, monkeypatch):
    # one r-ribbon step from any shape leaves at least r shapes; p-expand 20000
    # built all 20000 hooks (3.6 s, 71 MB) before it was refused, and
    # p-expand 3000000000 and path-expand 200000 died with MemoryError
    step = pathmn.ribbons._ribbon_step
    sizes = []

    def spy(m, r):
        sizes.append(r)
        return step(m, r)

    monkeypatch.setattr(pathmn.ribbons, "_ribbon_step", spy)
    for r in ("20000", "3000000000"):
        _, err = run_cli(capsys, ["p-expand", r], expect_rc=3)
        assert err == (f"refused: ribbon chain shapes = at least {r} exceeds the guard limit 5604"
                       " (set PATHMN_MAX_N to override)\n")
    _, err = run_cli(capsys, ["path-expand", "200000"], expect_rc=3)
    assert err == NODES_100K
    # the frozen walk of a path's core too: one path of 60 vertices, at most 50 nodes
    monkeypatch.setenv("PATHMN_MAX_N", "50")
    _, err = run_cli(capsys, ["atomic", "--pp", paths_pp((60,)), "--n", "60"], expect_rc=3)
    assert err == "refused: monotonic walk nodes = 51 exceeds the guard limit 50 (set PATHMN_MAX_N to override)\n"
    assert sizes == []
    # a step within the limit is built: p_50 is the sum of its 50 hooks
    clear_caches()
    out, _ = run_cli(capsys, ["p-expand", "50", "--format", "csv"])
    assert out.count("\n") == 51 and sizes == [50]
