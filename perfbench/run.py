"""pathmn benchmark: one workload, cold caches, fresh interpreters.

    python3 perfbench/run.py --workload {table,moments,queries} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. Set-up time is `import pathmn.cli` in fresh
interpreters. Then worker.py passes of the workload run one at a time, each in
its own interpreter, until S seconds have passed (and at least MIN_PASSES).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
traced passes, each paired with an untraced pass for the tracing overhead.
The last line of stdout is the JSON result; the lines before it say how each
number was taken and list every failed op.
"""

import argparse
import inspect
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from worker import calibrate  # noqa: E402

MIN_PASSES = 5
SETUP_LAUNCHES = 15  # plus one warm-up launch that writes the bytecode cache
START_CAP_S = 100  # no new pass starts after this
RUN_DEADLINE_S = 170  # a pass still running then is killed, so a run ends within 180 s
# Times are reported at the speed where worker.calibrate() takes this long.
REF_CALIBRATION_MS = 20.0
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
# With fewer than 20 ops no ladder level leaves ten values above it; the tail
# of such a workload is its upper quartile.
SHORT_TAIL_LEVEL = 75
# A fresh interpreter that imports nothing before pathmn.cli except time,
# timing the import and the calibration loop around it.
SETUP_SNIPPET = "\n".join([
    "from time import perf_counter",
    inspect.getsource(calibrate),
    "before = calibrate()",
    "t = perf_counter()",
    "import pathmn.cli",
    "t = perf_counter() - t",
    "print(t, (before + calibrate()) / 2)",
])


def tail_level(samples):
    """Highest ladder percentile that still leaves at least ten samples above it."""
    level = None
    for p in TAIL_LADDER:
        if samples * (100 - Fraction(str(p))) / 100 >= 10:
            level = p
    return level


def percentile(values, p):
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("PATHMN_MAX_N", None)  # default guards only
    return env


def _python(args, timeout):
    proc = subprocess.run(
        [sys.executable] + args, cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup():
    """Median `import pathmn.cli` time of fresh interpreters, at reference speed."""
    _python(["-c", SETUP_SNIPPET], 60)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t, cal = map(float, _python(["-c", SETUP_SNIPPET], 60).split())
        times.append(t * REF_CALIBRATION_MS / cal)
    return statistics.median(times)


def run_worker(workload, seed, traced, started, oracles):
    args = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--trace")
    if not oracles:
        args.append("--digests-only")
    return json.loads(_python(args, max(RUN_DEADLINE_S - (perf_counter() - started), 1)))


def failed_ops(p):
    return len({f["op"] for f in p["failures"]})


def check_failures(p):
    return [f for f in p["failures"] if "check" in f]


def scaled_latencies(p):
    """A pass's op latencies in ms at reference speed."""
    return [lat * REF_CALIBRATION_MS / cal for lat, cal in zip(p["latencies_ms"], p["calibration_ms"])]


def end_to_end(passes, setup_s):
    per_pass = len(passes[0]["latencies_ms"])
    # each op's median over the passes: a slow spell of the machine during
    # one pass then moves no op's time
    op_ms = [statistics.median(op) for op in zip(*(scaled_latencies(p) for p in passes))]
    level = tail_level(len(op_ms)) or SHORT_TAIL_LEVEL
    attempted = per_pass * len(passes)
    failed = sum(failed_ops(p) for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(op_ms) / 1e3, "s"),
        "latency_p50_ms": (percentile(op_ms, 50), "ms"),
        "latency_tail_ms": (percentile(op_ms, level), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }
    info = (f"latencies are each op's median over the passes; latency_tail_ms is p{level} "
            f"of these {len(op_ms)} per-op medians")
    return metrics, info


def per_layer(pairs, units):
    """Per-layer metrics of the traced passes, medians over the pairs.

    Times (unit s) are scaled to reference speed by the traced pass's median
    calibration; the overhead compares traced with untraced timed phases.
    """
    from tracer import resolve

    def wall(p):
        return sum(scaled_latencies(p)) / 1e3

    def factor(p):
        return REF_CALIBRATION_MS / statistics.median(p["calibration_ms"])

    traced_passes = [t for _u, t in pairs]
    untraced = statistics.median(wall(u) for u, _t in pairs)
    traced = statistics.median(wall(t) for t in traced_passes)
    samples = {
        "trace.untraced_wall_s": [untraced],
        "trace.traced_wall_s": [traced],
        "trace.overhead_ratio": [traced / untraced],
        "runtime.gc_pause_s": [t["trace"]["gc_pause_s"] * factor(t) for t in traced_passes],
        "runtime.gc_collections": [traced_passes[0]["trace"]["gc_collections"]],
        "workload.ops": [len(traced_passes[0]["latencies_ms"])],
        "workload.repeat_share": [traced_passes[0]["repeat_share"]],
        "cli.import_s": [p["import_s"] * factor(p) for pair in pairs for p in pair],
    }
    absent = []
    for name, unit in units.items():
        if name in samples or name == "trace.absent_count":
            continue
        values = [resolve(name, t["trace"]) for t in traced_passes]
        if values[0] is None:
            absent.append(name)
            values = [0]
        elif unit == "s":
            values = [v * factor(t) for v, t in zip(values, traced_passes)]
        else:
            values = values[:1]  # counts repeat exactly across passes (checked)
        samples[name] = values
    samples["trace.absent_count"] = [len(absent)]
    return {k: statistics.median(v) for k, v in samples.items()}, absent


def work_counts_repeat(pairs):
    """Counts of every traced pass must equal the first pass's."""
    def counts(tr):
        return ({k: (v["calls"], v["spans"], v["nonnull"], v["yields"]) for k, v in tr["stats"].items()},
                tr["caches"])
    first = counts(pairs[0][1]["trace"])
    return all(counts(t["trace"]) == first for _u, t in pairs[1:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "pathmn", "__init__.py")) or not os.path.isfile(bench_file):
        sys.exit("error: run from the root of a pathmn checkout (src/pathmn and BENCHMARK.json)")
    with open(bench_file, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"error: unknown workload {args.workload!r}")

    started = perf_counter()
    passes, pairs = [], []
    setup_s = measure_setup() if not args.trace else None
    measure_start = perf_counter()
    while True:
        elapsed = perf_counter() - measure_start
        done = len(pairs) if args.trace else len(passes)
        if done and (elapsed >= args.seconds and done >= (1 if args.trace else MIN_PASSES)
                     or perf_counter() - started > START_CAP_S):
            break
        if args.trace:
            untraced = run_worker(args.workload, args.seed, False, started, not pairs)
            pairs.append((untraced, run_worker(args.workload, args.seed, True, started, False)))
        else:
            passes.append(run_worker(args.workload, args.seed, False, started, not passes))

    runs = passes or [p for pair in pairs for p in pair]
    correct = not any(check_failures(p) for p in runs)
    notes = []
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, absent = per_layer(pairs, units)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units}
        for u, t in pairs:
            if u["digests"] != t["digests"]:
                correct = False
                notes.append("traced and untraced output digests differ")
            if not t["trace"]["restored"]:
                correct = False
                notes.append("tracer left a wrapped binding behind")
        if not work_counts_repeat(pairs):
            correct = False
            notes.append("work counts differ between traced passes")
        notes.append(f"{len(pairs)} traced/untraced pairs; absent counters: {absent or 'none'}")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(pairs[0][1]["trace"], fh, indent=1)
        notes.append(f"spans of the first traced pass (self times unscaled): {os.path.relpath(trace_file, ROOT)}")
    else:
        values, info = end_to_end(passes, setup_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        notes.append(f"{len(passes)} passes; {info}; setup_s is the median of {SETUP_LAUNCHES} launches")
        raw = statistics.median(p["wall_s"] for p in passes)
        speed = statistics.median(REF_CALIBRATION_MS / c for p in passes for c in p["calibration_ms"])
        notes.append(f"times are at reference speed: measured median pass {raw:.4f} s, "
                     f"machine at {speed:.3f}x of reference ({REF_CALIBRATION_MS} ms calibration loop)")
        notes.append(f"repeat share {passes[0]['repeat_share']:.4f}")

    failures = runs[0]["failures"]
    notes.append(f"{failed_ops(runs[0])} of {len(runs[0]['latencies_ms'])} ops failed in each pass"
                 + (":" if failures else ""))
    for f in failures:
        notes.append(f"  op {f['op']} [{f['key']}] {f.get('error') or 'check: ' + f['check']}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p["latencies_ms"]) for p in runs),
        "failed": sum(failed_ops(p) for p in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
