"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pathmn  # noqa: E402
import pathmn.cli  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _small(monkeypatch, workload, ops):
    monkeypatch.setitem(workloads.OPS, workload, lambda seed: ops)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_requests(name):
    assert workloads.OPS[name](7) == workloads.OPS[name](7)


@pytest.mark.parametrize("name", ["moments", "queries"])
def test_seed_changes_requests(name):
    assert workloads.OPS[name](7) != workloads.OPS[name](8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_key_a_seed_makes_is_in_the_universe(name):
    universe = {op.key for op in workloads.UNIVERSE[name]()}
    assert all(op.key in universe for seed in range(5) for op in workloads.OPS[name](seed))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_key_has_a_digest(name):
    # capture.py stores no digest for an op that raises; the workloads must have none
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        known = json.load(fh)[name]
    assert {op.key for op in workloads.UNIVERSE[name]()} == set(known)


def test_queries_plan_is_fixed():
    ops = workloads.queries_ops(3)
    assert len(ops) == sum(count for _kind, _band, count in workloads.QUERY_PLAN)
    graph = [(count, int(count * workloads.REPEAT_SHARE)) for kind, _band, count in workloads.QUERY_PLAN
             if kind in ("atomic", "char")]
    assert workloads.repeat_share(ops) == sum(r for _c, r in graph) / sum(c for c, _r in graph)


def test_raising_op_is_counted_and_run_goes_on(monkeypatch):
    ops = workloads.table_ops(0)[:3]
    _small(monkeypatch, "table", ops)
    real = workloads.execute

    def flaky(op):
        if op is ops[1]:
            raise ZeroDivisionError("boom")
        return real(op)

    monkeypatch.setattr(workloads, "execute", flaky)
    result = worker.run_pass("table", 0, False)
    assert len(result["latencies_ms"]) == 3
    assert run.failed_ops(result) == 1
    assert result["digests"][0] is not None and result["digests"][2] is not None
    errors = [f for f in result["failures"] if "error" in f]
    assert errors == [{"op": 1, "key": ops[1].key, "error": "ZeroDivisionError: boom"}]
    # the op had a digest at the seed commit, so losing its output is a check failure
    assert run.check_failures(result)


@pytest.mark.parametrize("oracles", [True, False])
def test_wrong_output_fails_the_check(monkeypatch, oracles):
    ops = workloads.queries_ops(0)[:40]
    _small(monkeypatch, "queries", ops)
    real = workloads.execute

    def wrong(op):
        text, obj = real(op)
        return text + " ", obj + 1 if isinstance(obj, int) else obj

    monkeypatch.setattr(workloads, "execute", wrong)
    result = worker.run_pass("queries", 0, False, oracles)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        known = json.load(fh)["queries"]
    bad = {f["op"] for f in run.check_failures(result)}
    assert all(op.key in known for op in ops)  # no request fails at the seed commit
    assert bad == set(range(len(ops)))


@pytest.mark.parametrize(
    "samples, level",
    [(19, None), (20, 50), (39, 50), (40, 75), (50, 75), (70, 75), (100, 90),
     (999, 95), (1000, 99), (1200, 99), (6000, 99.5), (10000, 99.9)],
)
def test_tail_level(samples, level):
    assert run.tail_level(samples) == level


def test_percentile_interpolates():
    assert run.percentile([1, 2, 3, 4], 50) == 2.5
    assert run.percentile([5], 99) == 5
    assert run.percentile(list(range(101)), 99) == 99


def _bindings():
    snap = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "pathmn" or name.startswith("pathmn.")):
            snap[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if isinstance(obj, type):
                    snap[f"{name}.{attr}"] = dict(vars(obj))
    return snap


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = pathmn.ribbons.add_ribbons
    pathmn.ribbons.clear_caches()  # earlier tests may have memoized the tilings asked for below
    t = tracer_mod.Tracer()
    t.install()
    try:
        # add_ribbons is bound in ribbons, symfunc and the package namespace
        assert pathmn.ribbons.add_ribbons is not original
        assert pathmn.symfunc.add_ribbons is pathmn.ribbons.add_ribbons
        assert pathmn.add_ribbons is pathmn.ribbons.add_ribbons
        assert pathmn.characters.decompose is pathmn.statistics.decompose is pathmn.partial_perm.decompose
        assert "render" in pathmn.symfunc.SymExpansion.__dict__
        assert pathmn.symfunc.SymExpansion.render is not before["pathmn.symfunc.SymExpansion"]["render"]
        pathmn.symfunc.path_power_to_schur((2, 1)).render()
        pathmn.ribbons.tiling_tally.cache_info()  # memo helpers stay reachable
    finally:
        t.uninstall()
    assert _bindings() == before
    report = t.report()
    assert report["stats"]["symfunc.SymExpansion.render"]["calls"] == 1
    assert tracer_mod.resolve("ribbons.enumerate_monotonic.tilings", report) > 0
    assert tracer_mod.resolve("symfunc.SymExpansion.inits", report) >= 1


def test_self_time_excludes_children():
    t = tracer_mod.Tracer()
    t.install()
    try:
        pathmn.characters.character_table(6)
    finally:
        t.uninstall()
    s = t.report()["stats"]
    table = s["characters.character_table"]
    assert table["self_s"] < table["total_s"]
    assert table["total_s"] >= s["ribbons.skew_mn"]["total_s"]


def test_absent_counter_resolves_to_none():
    report = {"stats": {}, "caches": {}}
    assert tracer_mod.resolve("ribbons.skew_mn.calls", report) is None
    assert tracer_mod.resolve("ribbons._skew_mn.cache_hits", report) is None
    assert tracer_mod.resolve("partial_perm.PartialPermutation.inits", report) is None


@pytest.mark.parametrize("name, count", [("table", 6), ("moments", 5), ("queries", 150)])
def test_traced_and_untraced_digests_match(monkeypatch, name, count):
    ops = workloads.OPS[name](4)[:count]
    _small(monkeypatch, name, ops)
    plain = worker.run_pass(name, 4, False)
    traced = worker.run_pass(name, 4, True)
    assert plain["digests"] == traced["digests"]
    assert traced["trace"]["restored"]
    assert not run.check_failures(plain) and not run.check_failures(traced)
