"""Measure the baseline and write record.json.

    python3 perfbench/record.py

Runs `run.py` the way BENCHMARK.json says, in SETS sets of RUNS untraced
runs per workload, one seed each (workloads interleaved so drift hits all of
them alike), then two traced runs per workload.  Prints, for every
end-to-end metric and set, the median, quartiles and spread (quartile
distance over median), and how far the second set's median is worse than
the first's against the metric's bound.  Checks that the count metrics
repeat exactly across the two traced runs.  The figures go to record.json
together with the workload table, the layer-to-metric map and the known
defects.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, OUT, ROOT, SETUP_REPEATS, SPEC
from workloads import WORKLOADS

RUNS = 10
SETS = 2
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}

COUNTS = ("beta.cdf_calls", "special.log_beta_calls", "stein.exact_sum_calls", "model.pi_den_bits")

# Which end-to-end metric each layer metric should move, and on which
# workload; written down before any optimisation is measured.
LAYER_MAP = {
    "distance.wasserstein_s": ("wall_s, states_per_s", "report_singular, sweep_grid (little on report_exact_large)"),
    "distance.cdf_calls_per_piece": ("wall_s", "report_singular"),
    "beta.cdf_calls": ("wall_s", "report_singular, sweep_grid"),
    "beta.cdf_s": ("wall_s", "report_singular, sweep_grid"),
    "special.reg_inc_beta_s": ("wall_s", "report_singular, sweep_grid"),
    "special.log_beta_calls": ("wall_s", "report_singular"),
    "distance.kolmogorov_s": ("none expected", "any"),
    "distance.gap_h_s": ("none expected", "any"),
    "model.params_s": ("wall_s", "report_exact_large"),
    "model.pi_s": ("wall_s", "report_exact_large"),
    "model.pi_den_bits": ("peak_rss_mb, wall_s", "report_exact_large"),
    "stein.report_s": ("wall_s", "report_exact_large (nothing on report_singular)"),
    "stein.conditions_s": ("wall_s", "report_exact_large (nothing on report_singular)"),
    "stein.upper_assembled_s": ("wall_s", "report_exact_large (nothing on report_singular)"),
    "stein.certificate_s": ("wall_s", "report_exact_large (nothing on report_singular)"),
    "stein.exact_sum_calls": ("wall_s", "report_exact_large"),
    "stein.exact_sum_useful_ratio": ("wall_s", "report_exact_large"),
    "moments.recursion_s": ("none expected (about 1 ms)", "any"),
    "cli.self_s": ("wall_s", "report_exact_large, sweep_grid"),
    "cli.cpu_s": ("none directly", "all"),
    "cli.core_busy_ratio": ("wall_s", "sweep_grid; rises on report_* if report is parallelised"),
    "trace.overhead_ratio": ("none; reported", "all"),
}

KNOWN_DEFECTS = [
    "report --exact exits 2 from n=800 at (7/3, 11/5) and at report_exact_large's "
    "size: 'Exceeds the limit (4300 digits) for integer string conversion' when "
    "p/q strings are rendered (ROADMAP item 5); report_exact_large therefore "
    "omits --exact.",
]


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return result


def spread_stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    if set(LAYER_MAP) != layer_names:
        raise SystemExit(f"LAYER_MAP and BENCHMARK.json differ: {set(LAYER_MAP) ^ layer_names}")
    names = list(WORKLOADS)

    sets = []
    for k in range(SETS):
        seeds = list(range(k * RUNS + 1, (k + 1) * RUNS + 1))
        values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
        for seed in seeds:
            for name in names:
                result = bench(name, seed, 0)
                for key, m in result["metrics"].items():
                    values[name].setdefault(key, []).append(m["value"])
        stats = {}
        for name in names:
            stats[name] = {key: spread_stats(v) for key, v in values[name].items()}
            for key, s in stats[name].items():
                print(f"set {k + 1} {name} {key}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                      f"q3 {s['q3']:.6g} spread {s['spread']:.4f} (bound {BOUNDS[key][0]})")
        sets.append({"seeds": seeds, "stats": stats})

    agreement = {}
    for name in names:
        agreement[name] = {}
        for key, (bound, better) in BOUNDS.items():
            medians = [st["stats"][name][key]["median"] for st in sets]
            worse = worsening(medians[0], medians[-1], better)
            agreement[name][key] = {"medians": medians, "second_worse_by": worse,
                                    "bound": bound, "within_bound": worse <= bound}
            print(f"{name} {key}: medians {medians[0]:.6g} -> {medians[-1]:.6g}, "
                  f"worse by {worse:+.4f} (bound {bound}): "
                  f"{'within' if worse <= bound else 'OUTSIDE'}")

    traced = {}
    for name in names:
        runs = []
        for seed in (1, 2):
            metrics = {k: m["value"] for k, m in bench(name, seed, 1)["metrics"].items()}
            summary = json.loads((OUT / f"{name}.tracer.out").read_text().splitlines()[-1])
            main_s = sum(summary["layer_self_s"].values())
            runs.append((metrics, {k: v / main_s for k, v in summary["layer_self_s"].items()}))
        repeat = {k: [r[0][k] for r in runs] for k in COUNTS}
        same = all(a == b for a, b in repeat.values())
        print(f"{name} traced counts {repeat} repeat exactly: {same}")
        traced[name] = {"metrics": runs[0][0], "layer_self_share": runs[0][1],
                        "count_repeat": repeat, "counts_repeat_exactly": same}

    record = {
        "machine": machine(),
        "run_seconds": SPEC["run_seconds"],
        "setup_repeats_per_invocation": SETUP_REPEATS,
        "runs_per_workload_per_set": RUNS,
        "workloads": {
            w.name: {
                "invocation": "moranbeta " + " ".join(w.argv),
                "traced_invocation": "moranbeta " + " ".join(w.traced_argv or w.argv),
                "lattice_states": w.states,
                "why": w.why,
            }
            for w in WORKLOADS.values()
        },
        "layer_map": {k: {"moves": m, "on": on} for k, (m, on) in LAYER_MAP.items()},
        "known_defects": KNOWN_DEFECTS,
        "baseline_sets": sets,
        "set_agreement": agreement,
        "traced": traced,
    }
    (HERE / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    ok = all(a["within_bound"] for per in agreement.values() for a in per.values())
    return 0 if ok and all(t["counts_repeat_exactly"] for t in traced.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
