import json
import math
import subprocess
import sys

from pathmn import SymExpansion, PartialPermutation, atomic_schur, builtin, stat_to_json
from pathmn.cli import main

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


def test_atomic(capsys):
    out, _ = run_cli(capsys, ["atomic", "--pp=->", "--n", "5"])
    assert out == "120·s[5]\n"
    out, _ = run_cli(capsys, ["atomic", "--pp", A7_PP, "--n", "7", "--format", "json"])
    pp = PartialPermutation(7, (1, 4, 5, 6, 7), (2, 5, 6, 4, 7))
    assert SymExpansion.from_json(out) == atomic_schur(pp)


def test_atomic_huge_coefficients(capsys):
    # s[2000] counts the 1996! completions: far past the default 4300-digit
    # int->str limit, yet printed in full in both formats
    pp = ["atomic", "--pp", "1,2,3,4 -> 2,3,4,5", "--n", "2000"]
    out, _ = run_cli(capsys, pp + ["--format", "json"])
    top = json.loads(out)["terms"][0]
    assert top["partition"] == [2000]
    assert int(top["num"]) == math.factorial(1996) and top["den"] == "1"
    out, _ = run_cli(capsys, pp)
    assert out.startswith(f"{math.factorial(1996)}·s[2000] ")


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


def test_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PATHMN_MAX_N", "3")
    _, err = run_cli(capsys, ["table", "4"], expect_rc=3)
    assert err.startswith("refused:")
    assert "exceeds the guard limit 3" in err


def test_oracle_check(capsys):
    out, _ = run_cli(capsys, ["oracle-check", "alternant", "--max-n", "3"])
    assert out == "alternant: OK (18 comparisons)\n"
    out, _ = run_cli(capsys, ["oracle-check", "all", "--max-n", "3"])
    assert out.splitlines() == [
        "atomic: OK (24 comparisons)",
        "words: OK (7 comparisons)",
        "alternant: OK (18 comparisons)",
    ]


def test_oracle_check_mismatch(capsys, monkeypatch):
    monkeypatch.setattr("pathmn.oracles.alternant_char", lambda lam, alpha: 999)
    _, err = run_cli(capsys, ["oracle-check", "alternant", "--max-n", "3"], expect_rc=4)
    assert err.startswith("oracle mismatch: alternant disagrees")


def test_bench(capsys):
    out, _ = run_cli(capsys, ["bench", "--pp", "1,2 -> 2,3", "--n", "7", "--reps", "1"])
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("hybrid: ") and lines[0].endswith(" s")
    assert lines[1].startswith("brute: ") and lines[1].endswith(" s")
    assert lines[2].startswith("speedup: ") and lines[2].endswith("x")
    out, _ = run_cli(capsys, ["bench", "--pp", "1,2 -> 2,3", "--n", "10", "--reps", "1"])
    assert out.splitlines()[1] == "brute: skipped (guard: n > 9)"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pathmn.cli", "path-expand", "1^4"],
        capture_output=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert proc.stdout == "24·s[4]\n"
