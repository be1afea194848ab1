"""Record the baseline: two sets of ten seeds per workload plus one traced run each.

    python3 perfbench/baseline.py

Set a runs seeds 1-10 on every workload, then set b runs them again, so the
two sets of the same code are apart in time. For every end-to-end metric it
records both sets' values, medians and spreads (distance between first and
third quartile over the median, as statistics.quantiles(n=4) gives them),
how far set b's median is worse than set a's, and the metric's bound. The
traced run of seed 1 adds the machine-independent work counts, and the
untraced run of seed 1 lists the failed ops. Writes perfbench/baseline.json
afresh; prints a summary.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = ("a", "b")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: {s: {} for s in SETS} for name in names}
    correct = {name: True for name in names}
    notes = {}
    for s in SETS:
        for name in names:
            for seed in SEEDS:
                lines, res = run(name, seed, spec["run_seconds"], 0)
                correct[name] &= res["correct"]
                notes.setdefault(name, {"lines": lines, "attempted": res["attempted"], "failed": res["failed"]})
                for metric, v in res["metrics"].items():
                    values[name][s].setdefault(metric, []).append(v["value"])
                print(s, name, seed, {k: round(v[-1], 5) for k, v in values[name][s].items()}, flush=True)

    out = {"python": platform.python_version(), "seeds": [SEEDS[0], SEEDS[-1]], "sets": list(SETS),
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        trace_lines, traced = run(name, SEEDS[0], spec["run_seconds"], 1)
        summary = {}
        for metric, m in metrics.items():
            entry = {"bound": m["bound"]}
            for s in SETS:
                vals = values[name][s][metric]
                entry[f"median_{s}"] = statistics.median(vals)
                entry[f"spread_{s}"] = spread(vals)
                entry[f"values_{s}"] = vals
            a, b = entry["median_a"], entry["median_b"]
            worse = (b - a) if m["better"] == "lower" else (a - b)
            entry["b_worse_than_a"] = worse / a
            summary[metric] = entry
            print(f"{name:8s} {metric:16s} median {a:.5g} / {b:.5g}  spread {entry['spread_a']:.4f} / "
                  f"{entry['spread_b']:.4f}  b worse by {entry['b_worse_than_a']:+.4f}  bound {m['bound']}")
        out["workloads"][name] = {
            "correct": correct[name] and traced["correct"],
            "end_to_end": summary,
            "error_rate": notes[name]["failed"] / notes[name]["attempted"],
            "seed1_notes": notes[name]["lines"],
            "work_counts": {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] in ("count", "ratio")},
            "traced": {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] == "s"},
            "traced_notes": trace_lines,
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
