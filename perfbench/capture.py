"""Capture the reference output digests of every op any seed can produce.

    PYTHONPATH=src python3 perfbench/capture.py

Writes perfbench/digests.json: {workload: {op key: digest}}. Every op's
result must pass its oracle checks first. Ops that raise get no digest and are
printed; those are the known failures. Run it only on the commit whose outputs
are the reference; later changes must reproduce these digests exactly.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import digest  # noqa: E402


def main():
    out = {}
    for name in workloads.WORKLOADS:
        digests, failing = {}, []
        for op in workloads.UNIVERSE[name]():
            try:
                result = workloads.execute(op)
            except Exception as exc:
                failing.append(f"{op.key}: {type(exc).__name__}")
                continue
            problem = workloads.quick_check(op, result) or workloads.check(op, result)
            if problem:
                sys.exit(f"{op.key}: {problem}")
            digests[op.key] = digest(workloads.output_text(op, result))
        out[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} digests, {len(failing)} ops raise")
        for line in failing:
            print("  " + line)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
