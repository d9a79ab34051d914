"""Checker self-test: injected faults must be counted as failed operations.

    python3 perfbench/selftest.py

For each workload the stored reference output is fed through the same tally
and metric code the benchmark uses, once as is and once per injected fault:
a nonzero exit, a flipped sandwich_ok, and a W1 off by 1e-6 relative.  A W1
off by 5e-11 relative, the disagreement a correct closed-form W1 showed, must
still pass.  Exits 0 when every fault, and nothing else, was counted as
failed, both in the tally and in the bounded metric ok_ops_ratio, and when
wall_s is taken from the passing invocations only.
"""

from __future__ import annotations

import csv
import io
import json
import sys

from check import fmt, reference_text
from run import Invocation, Tally, timed_metrics
from workloads import WORKLOADS


PASS_WALL_S = 1.0


def mutate(w, text: str, field: str, change) -> str:
    """Apply `change` to one field of the first point of the output."""
    if w.argv[0] == "sweep":
        rows = list(csv.reader(io.StringIO(text)))
        col = rows[0].index(field)
        rows[1][col] = change(rows[1][col])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    data = json.loads(text)
    section = "certificate" if field == "sandwich_ok" else "distance"
    data[section][field] = change(data[section][field])
    return json.dumps(data, indent=2) + "\n"


def flip(value):
    return {"true": "false", True: False}[value]


def scale(factor):
    return lambda value: fmt(float(value) * factor) if isinstance(value, str) else value * factor


def main() -> int:
    ok = True
    for w in WORKLOADS.values():
        ref = reference_text(w)
        refs = {w.name: ref}
        cases = [
            ("reference output", 0, ref, True),
            ("nonzero exit", 1, ref, False),
            ("flipped sandwich_ok", 0, mutate(w, ref, "sandwich_ok", flip), False),
            ("W1 off by 1e-6", 0, mutate(w, ref, "wasserstein", scale(1 + 1e-6)), False),
            ("W1 off by 5e-11", 0, mutate(w, ref, "wasserstein", scale(1 + 5e-11)), True),
        ]
        tally = Tally()
        results = []
        for label, returncode, text, should_pass in cases:
            passed = tally.record(w, returncode, text, refs)
            verdict = "ok" if passed == should_pass else "WRONG"
            ok = ok and passed == should_pass
            print(f"{w.name}: {label}: {'passed' if passed else 'failed'} ({verdict})")
            # Faulty invocations get a wall time the median must not see.
            wall = PASS_WALL_S if should_pass else 100 * PASS_WALL_S
            inv = Invocation(returncode, wall, wall, 1.0, text)
            results.append((inv, passed))
            single = timed_metrics(w, [(inv, passed)])["ok_ops_ratio"]
            ok = ok and single == (1.0 if should_pass else 0.0)
        expected = sum(not c[3] for c in cases)
        print(f"{w.name}: failed {tally.failed} of {tally.attempted}, expected {expected}")
        ok = ok and tally.failed == expected
        metrics = timed_metrics(w, results)
        want_ratio = (len(cases) - expected) / len(cases)
        print(f"{w.name}: ok_ops_ratio {metrics['ok_ops_ratio']:.6g}, expected "
              f"{want_ratio:.6g}; wall_s {metrics['wall_s']:g}, expected {PASS_WALL_S:g}")
        ok = ok and metrics["ok_ops_ratio"] == want_ratio and metrics["wall_s"] == PASS_WALL_S
    print("selftest", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
