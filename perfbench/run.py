"""moranbeta benchmark: times CLI invocations and checks every output.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload report_singular --seed 1 --seconds 25 --trace 0

`--workload` takes a name from workloads.py or `all`.  Each round runs the
selected workloads once, in an order shuffled by `--seed`; rounds repeat in a
closed loop until `--seconds` have passed.  With `--trace 0` every invocation
is an untraced subprocess and the end-to-end metrics are reported; with
`--trace 1` each workload runs once untraced and once under the outside-in
tracer (tracer.py), and the per-layer metrics are reported.  Every metric is
printed as `name value unit`; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import check_output, reference_text
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}

# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Fresh imports timed before each invocation.  The machine's speed drifts
# within seconds, so spreading the imports over the whole run steadies their
# median more than timing them back to back.
SETUP_REPEATS = 3
# A run ends within this many seconds per workload, whatever --seconds says.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Invocation:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(argv: list[str], tag: str, timeout: float) -> Invocation:
    """Run `python3 argv` to completion and take its wall time and rusage.

    The child gets its own process group, so a timeout kills pool workers
    too; rusage from wait4 covers the child and the workers it reaped.
    """
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{tag}.out"
    with open(out_path, "wb") as out, open(OUT / f"{tag}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=out, stderr=err, env=ENV, cwd=ROOT, start_new_session=True,
        )
        killer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(w: Workload) -> list[str]:
    return ["-m", "moranbeta.cli", *w.argv]


def check_import(deadline: float) -> None:
    """Check that moranbeta.cli comes from this checkout; fills the bytecode cache."""
    probe = invoke(
        ["-c", "import moranbeta.cli as m; print(m.__file__)"], "setup",
        deadline - time.perf_counter(),
    )
    if probe.returncode != 0 or not Path(probe.stdout.strip()).is_relative_to(SRC):
        raise SystemExit(f"cannot import moranbeta.cli from {SRC}")


def time_imports(deadline: float) -> list[float]:
    """Wall times of SETUP_REPEATS fresh interpreters importing moranbeta.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        inv = invoke(["-c", "import moranbeta.cli"], "setup", deadline - time.perf_counter())
        if inv.returncode != 0:
            raise SystemExit("importing moranbeta.cli failed during set-up")
        times.append(inv.wall_s)
    return times


class Tally:
    """Invocations attempted and failed; each failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, w: Workload, returncode: int, text: str, refs: dict) -> bool:
        self.attempted += 1
        problems = check_output(w, returncode, text, refs[w.name])
        if problems:
            self.failed += 1
            print(f"FAILED {w.name}: " + "; ".join(problems[:5]), file=sys.stderr)
        return not problems


def timed_metrics(w: Workload, results: list[tuple[Invocation, bool]]) -> dict:
    """End-to-end metrics of one workload from (invocation, passed check) pairs.

    An invocation is ok only if it passed the output check; wall time is the
    median over the ok ones, or over all of them if none passed.
    """
    ok = [inv for inv, passed in results if passed]
    wall = statistics.median(inv.wall_s for inv in ok or [inv for inv, _ in results])
    return {
        "wall_s": wall,
        "states_per_s": w.states / wall,
        "peak_rss_mb": max(inv.peak_rss_mb for inv, _ in results),
        "ok_ops_ratio": len(ok) / len(results),
    }


def run_timed(order, seconds, deadline, rng, tally, refs) -> tuple[float, dict[str, dict]]:
    """Closed loop of untraced invocations; returns setup_s and per-workload metrics."""
    check_import(deadline)
    setup_times: list[float] = []
    results: dict[str, list[tuple[Invocation, bool]]] = {w.name: [] for w in order}
    start = time.perf_counter()
    while tally.attempted == 0 or time.perf_counter() - start < seconds:
        rng.shuffle(order)
        for w in order:
            setup_times += time_imports(deadline)
            inv = invoke(cli_argv(w), w.name, deadline - time.perf_counter())
            results[w.name].append((inv, tally.record(w, inv.returncode, inv.stdout, refs)))
        if time.perf_counter() > deadline - 30.0:
            break
    print(f"# setup_s: median of {len(setup_times)} imports")
    metrics = {}
    for w in order:
        metrics[w.name] = timed_metrics(w, results[w.name])
        print(f"# {w.name}: median of {len(results[w.name])} invocations")
    return statistics.median(setup_times), metrics


def run_traced(order, deadline, rng, tally, refs) -> dict[str, dict]:
    rng.shuffle(order)
    metrics = {}
    for w in order:
        inv = invoke(cli_argv(w), w.name, deadline - time.perf_counter())
        tally.record(w, inv.returncode, inv.stdout, refs)
        child = invoke(
            [str(HERE / "tracer.py"), w.name], f"{w.name}.tracer",
            deadline - time.perf_counter(),
        )
        if child.returncode != 0:
            tally.record(w, child.returncode, "", refs)
            continue
        summary = json.loads(child.stdout.strip().splitlines()[-1])
        traced_text = (OUT / f"{w.name}.traced.out").read_text(encoding="utf-8")
        tally.record(w, summary["returncode"], traced_text, refs)
        layer = summary["metrics"]
        layer["cli.cpu_s"] = inv.cpu_s
        layer["cli.core_busy_ratio"] = inv.cpu_s / ((os.cpu_count() or 1) * inv.wall_s)
        metrics[w.name] = layer
        if w.traced_argv:
            print(f"# {w.name} traced as: {' '.join(w.traced_argv)}")
        for module, secs in summary["layer_self_s"].items():
            print(f"# {w.name} self time in {module}: {secs:.6g} s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "moranbeta" / "cli.py").is_file():
        print(f"error: no moranbeta sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + RUN_DEADLINE_S * len(names)
    order = [WORKLOADS[n] for n in names]
    refs = {w.name: reference_text(w) for w in order}
    rng = random.Random(args.seed)
    tally = Tally()
    print(f"# seed {args.seed}; workloads {' '.join(names)}; nproc {os.cpu_count()}")

    if args.trace:
        per_workload = run_traced(order, deadline, rng, tally, refs)
        keys = [m["name"] for m in SPEC["per_layer"]]
        flat = {}
    else:
        setup_s, per_workload = run_timed(order, args.seconds, deadline, rng, tally, refs)
        keys = [m["name"] for m in SPEC["end_to_end"] if m["name"] != "setup_s"]
        flat = {"setup_s": {"value": setup_s, "unit": UNITS["setup_s"]}}
    for name in names:
        if name not in per_workload:
            continue
        prefix = f"{name}." if len(names) > 1 else ""
        for key in keys:
            flat[prefix + key] = {"value": per_workload[name][key], "unit": UNITS[key]}
    failed_ratio = tally.failed / max(tally.attempted, 1)
    print(f"failed_ops_ratio {failed_ratio:.6g} ratio")
    for key, m in flat.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": flat,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
