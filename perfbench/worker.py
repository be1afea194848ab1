"""One pass of one workload in a fresh interpreter, so every cache starts cold.

    python3 perfbench/worker.py --workload table --seed 1 [--trace] [--digests-only]

Prints one JSON object on stdout: per-op latencies and digests, failures,
check results, peak RSS of this process and, with --trace, the tracer report.
run.py starts it with PYTHONPATH pointing at the checkout's src/.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
CALIBRATE_EVERY_S = 0.2


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def calibrate():
    """Milliseconds for a fixed pure-Python loop of dict, tuple, sort and int work.

    A virtual machine sharing its cores can change speed by 2x within a
    minute; the loop slows down with it, so run.py divides op times by it.
    The collector is off meanwhile, so the size of the heap does not matter.
    """
    import gc

    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        d, acc = {}, 0
        for i in range(20_000):
            key = (i & 255, i & 7)
            d[key] = d.get(key, 0) + i
            acc += len(sorted((i & 3, i & 5, i & 6))) + (i * 12345678901234567) % 97
        return (perf_counter() - t) * 1e3
    finally:
        if enabled:
            gc.enable()


def run_pass(workload, seed, trace, oracles=True):
    t0 = perf_counter()
    import pathmn.cli  # noqa: F401  (what a CLI user imports)
    import_s = perf_counter() - t0

    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import tracer as tracer_mod
    import workloads

    ops = workloads.OPS[workload](seed)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[workload]

    tracer = tracer_mod.Tracer() if trace else None
    if tracer:
        tracer.install()
    latencies, digests, failures, kept = [], [], [], []
    # calibrations[j] precedes segment j of ops and follows segment j - 1
    calibrations, segment, since = [calibrate()], [], 0.0
    try:
        for index, op in enumerate(ops):
            t = perf_counter()
            try:
                result = workloads.execute(op)
                error = None
            except Exception as exc:  # an op that raises is counted, the run goes on
                result, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
            latencies.append((perf_counter() - t) * 1e3)
            segment.append(len(calibrations) - 1)
            since += latencies[-1] / 1e3
            if error is None:
                # untimed: digest and cheap checks, keeping only small results
                digests.append(digest(workloads.output_text(op, result)))
                problem = workloads.quick_check(op, result)
                if problem:
                    failures.append({"op": index, "key": op.key, "check": problem})
                kept.append(result if workloads.needs_object(op) else None)
            else:
                digests.append(None)
                kept.append(None)
                failures.append({"op": index, "key": op.key, "error": error})
            if since >= CALIBRATE_EVERY_S or index == len(ops) - 1:
                calibrations.append(calibrate())
                since = 0.0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        report = None
        if tracer:
            patches = tracer.patched()
            tracer.uninstall()
            report = tracer.report()
            report["restored"] = all(vars(owner)[attr] is orig for owner, attr, orig in patches)

    # Correctness gate, untimed, after the timed phase. Ops with the same key
    # and digest have the same output, so the oracle runs once per output.
    # Without oracles only the digests are compared: every pass of a run has
    # the same inputs, so one pass with oracles checks them all.
    checked = set()
    for index, (op, result, got) in enumerate(zip(ops, kept, digests)):
        want = expected.get(op.key)
        if want is not None and got != want:
            failures.append({"op": index, "key": op.key, "check": "output differs from the digest captured at the seed commit"})
        if oracles and result is not None and (op.key, got) not in checked:
            checked.add((op.key, got))
            try:
                problem = workloads.check(op, result)
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
            if problem:
                failures.append({"op": index, "key": op.key, "check": problem})

    return {
        "workload": workload,
        "seed": seed,
        "traced": bool(trace),
        "import_s": import_s,
        "wall_s": sum(latencies) / 1e3,
        "latencies_ms": latencies,
        # the calibration time around each op: mean of the ones before and after
        "calibration_ms": [(calibrations[j] + calibrations[j + 1]) / 2 for j in segment],
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "failures": failures,
        "repeat_share": workloads.repeat_share(ops),
        "trace": report,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--digests-only", action="store_true", help="skip the oracle checks")
    args = ap.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, args.trace, not args.digests_only)))


if __name__ == "__main__":
    main()
