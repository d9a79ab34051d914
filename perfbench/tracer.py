"""Outside-in tracer: per-layer spans and counts without touching the package.

Run as `python3 perfbench/tracer.py WORKLOAD` with `src` on PYTHONPATH.  It
runs `moranbeta.cli.main(argv)` in-process once untraced (which also warms
imports), then wraps every public function of the traced modules at each
place a `moranbeta` module looks it up, runs `main(argv)` again, and prints
one JSON summary line.  The traced CLI output goes to out/WORKLOAD.traced.out
and the spans (name, parent, start, end) to out/WORKLOAD.spans.npz.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from pathlib import Path

from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "out"

MODULES = ("cli", "model", "stein", "moments", "distance", "beta", "special")

# cli has no __all__; main is its one public entry, and its self time is
# meant to include parsing and rendering.  The innermost leaves run millions
# of times on the CDF-heavy workloads and no metric reads their time, so
# log_beta is only counted and log_gamma (three calls per log_beta) is left
# alone; spans for them would triple the span count.
ENTRY = {"cli": ("main",)}
COUNTED = {"special.log_beta"}
UNTRACED = {"special.log_gamma"}


class Tracer:
    """Spans kept in flat arrays: name id, parent index, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.kept: dict[str, list] = {}
        self.calls: dict[str, list[int]] = {}

    def wrap(self, name: str, fn, keep: bool = False):
        name_id = len(self.names)
        self.names.append(name)
        kept = self.kept.setdefault(name, []) if keep else None
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def count(self, name: str, fn):
        calls = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap each public function wherever a moranbeta module binds it."""
        from moranbeta.model import ModelParams

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "moranbeta"]
        for short in MODULES:
            mod = importlib.import_module(f"moranbeta.{short}")
            for attr in ENTRY.get(short) or mod.__all__:
                name = f"{short}.{attr}"
                obj = getattr(mod, attr)
                if name in UNTRACED:
                    continue
                if obj is ModelParams:
                    # The constructor builds and checks every kernel row.
                    obj.__init__ = self.wrap(name, obj.__init__)
                    continue
                if not inspect.isfunction(obj):
                    continue
                if name in COUNTED:
                    wrapped = self.count(name, obj)
                else:
                    wrapped = self.wrap(name, obj, keep=name == "model.stationary_ratio_product")
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, key, wrapped)

    def arrays(self):
        import numpy as np

        return (
            np.frombuffer(self.name_ids, dtype=np.uint16),
            np.frombuffer(self.parents, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.float64),
            np.frombuffer(self.ends, dtype=np.float64),
        )


def summarise(tracer: Tracer, workload, main_untraced_s: float) -> dict:
    import numpy as np

    name_ids, parents, starts, ends = tracer.arrays()
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(name):
        return name_ids == ids[name] if name in ids else np.zeros(len(dur), bool)

    def total(*names):
        return float(sum(dur[mask(n)].sum() for n in names))

    def count(*names):
        return int(sum(mask(n).sum() for n in names))

    # CDF calls made inside W1: spans nest, so a CDF span belongs to the
    # W1 span whose interval holds its start.
    w1 = mask("distance.wasserstein")
    w1_start, w1_end = starts[w1], ends[w1]
    cdf_starts = starts[mask("beta.cdf")]
    k = np.searchsorted(w1_start, cdf_starts, side="right") - 1
    in_w1 = (k >= 0) & (cdf_starts < w1_end[np.maximum(k, 0)])

    points = workload.points()
    pis = tracer.kept.get("model.stationary_ratio_product", [])
    exact_sum_calls = count("stein.e_abs_s", "stein.third_moment_ratio") / len(points)
    main_s = total("cli.main")
    metrics = {
        "distance.wasserstein_s": total("distance.wasserstein"),
        "distance.cdf_calls_per_piece": int(in_w1.sum()) / sum(2 * n for *_, n in points),
        "beta.cdf_calls": count("beta.cdf"),
        "beta.cdf_s": total("beta.cdf"),
        "special.reg_inc_beta_s": total("special.reg_inc_beta"),
        "special.log_beta_calls": tracer.calls["special.log_beta"][0],
        "distance.kolmogorov_s": total("distance.kolmogorov"),
        "distance.gap_h_s": total("distance.gap_h"),
        "model.params_s": total("model.ModelParams"),
        "model.pi_s": total("model.stationary_ratio_product"),
        "model.pi_den_bits": max(
            (pi.probs_exact[0].denominator.bit_length() for pi in pis), default=0
        ),
        "stein.report_s": total("stein.stein_report"),
        "stein.conditions_s": total("stein.verify_condition_1", "stein.verify_condition_2"),
        "stein.upper_assembled_s": total("stein.upper_bound_assembled"),
        "stein.certificate_s": total("stein.bound_certificate"),
        "stein.exact_sum_calls": exact_sum_calls,
        "stein.exact_sum_useful_ratio": 2 / exact_sum_calls if exact_sum_calls else 0.0,
        "moments.recursion_s": total("moments.moment_recursion"),
        "cli.self_s": float(self_time[mask("cli.main")].sum()),
        "trace.overhead_ratio": main_s / main_untraced_s,
    }
    layer_self = {}
    for name, i in ids.items():
        module = name.split(".")[0]
        layer_self[module] = layer_self.get(module, 0.0) + float(self_time[name_ids == i].sum())
    np.savez(
        OUT / f"{workload.name}.spans.npz",
        names=np.array(tracer.names), name_id=name_ids, parent=parents,
        start=starts, end=ends,
    )
    return {"metrics": metrics, "layer_self_s": layer_self, "spans": len(dur)}


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    argv = list(workload.traced_argv or workload.argv)
    from moranbeta import cli

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        cli.main(argv)
        untraced_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        returncode = cli.main(argv)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}.traced.out").write_text(buf.getvalue(), encoding="utf-8")
    summary = summarise(tracer, workload, untraced_s)
    summary["returncode"] = returncode
    summary["argv"] = argv
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
