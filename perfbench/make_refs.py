"""Regenerate refs/ from the CLI and cross-check the distances with scipy.

    python3 perfbench/make_refs.py

Stores each workload's stdout verbatim as refs/WORKLOAD.out, checks it with
check.py, and recomputes W1 and Kolmogorov for every point independently of
the package: pi from the kernel's detailed-balance ratios in `Fraction`, the
Beta CDF from scipy.special.betainc, and W1 by scipy.integrate.quad on each
lattice piece, split at the crossing.  The largest relative disagreement per
workload goes to refs/crosscheck.json and must stay within check.REL_TOL.
Only needed when the reference outputs change on purpose.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize, special

import run
from check import DISTANCES, REFS, REL_TOL, check_output
from workloads import WORKLOADS


def stationary(n: int, a: Fraction, b: Fraction) -> np.ndarray:
    m = 2 * n
    u, v = b / m, a / m

    def up(i):
        return (i * (m - i) * (1 - u) + v * (m - i) ** 2) / (m * m)

    def down(i):
        return (i * (m - i) * (1 - v) + u * i * i) / (m * m)

    weights = [Fraction(1)]
    for i in range(m):
        weights.append(weights[-1] * up(i) / down(i + 1))
    total = sum(weights)
    return np.array([float(w / total) for w in weights])


def scipy_distances(n: int, a: Fraction, b: Fraction) -> dict[str, float]:
    m = 2 * n
    af, bf = float(a), float(b)
    cum = np.cumsum(stationary(n, a, b))

    def fz(x):
        return special.betainc(af, bf, x)

    w1 = 0.0
    for i in range(m):
        lo, hi, c = i / m, (i + 1) / m, cum[i]
        pts = None
        if fz(lo) < c < fz(hi):
            pts = [optimize.brentq(lambda x: fz(x) - c, lo, hi, xtol=1e-17, rtol=1e-15)]
        w1 += integrate.quad(
            lambda x: abs(fz(x) - c), lo, hi, points=pts,
            epsabs=1e-16, epsrel=1e-13, limit=200,
        )[0]
    atoms = fz(np.arange(m + 1) / m)
    prev = np.concatenate(([0.0], cum[:-1]))
    kd = float(np.max(np.maximum(np.abs(cum - atoms), np.abs(prev - atoms))))
    return {"wasserstein": w1, "kolmogorov": kd}


def distances_of(w, text: str) -> list[dict[str, float]]:
    if w.argv[0] == "sweep":
        return [{k: float(r[k]) for k in DISTANCES} for r in csv.DictReader(io.StringIO(text))]
    return [json.loads(text)["distance"]]


def main() -> int:
    REFS.mkdir(exist_ok=True)
    crosscheck = {"tolerance": REL_TOL, "max_rel_diff": {}}
    for w in WORKLOADS.values():
        inv = run.invoke(run.cli_argv(w), f"{w.name}.ref", 600.0)
        problems = check_output(w, inv.returncode, inv.stdout, inv.stdout)
        if problems:
            print(f"{w.name}: {problems}", file=sys.stderr)
            return 1
        worst = 0.0
        for (a, b, n), got in zip(w.points(), distances_of(w, inv.stdout)):
            oracle = scipy_distances(n, a, b)
            for k in DISTANCES:
                worst = max(worst, abs(got[k] - oracle[k]) / abs(oracle[k]))
        print(f"{w.name}: largest relative difference from scipy {worst:.3g}")
        if worst > REL_TOL:
            return 1
        (REFS / f"{w.name}.out").write_text(inv.stdout, encoding="utf-8")
        crosscheck["max_rel_diff"][w.name] = worst
    (REFS / "crosscheck.json").write_text(json.dumps(crosscheck, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
