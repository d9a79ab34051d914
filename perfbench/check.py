"""Output checker: decides whether one CLI invocation counts as a failed op.

Closed forms are recomputed here with `Fraction`, independently of the
package, and must match the output bit for bit (p/q strings exactly under
`--exact`).  W1 and Kolmogorov come from quadrature and root finding, so
they are compared with the stored seed references within `REL_TOL`.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

from workloads import Workload

REFS = Path(__file__).resolve().parent / "refs"

# A closed-form W1 disagreed with the seed's quadrature by up to 5e-11
# relative; a real error of 1e-6 relative must still fail.
REL_TOL = 1e-8

DISTANCES = ("wasserstein", "kolmogorov")


def reference_text(w: Workload) -> str:
    """Seed output of the workload, stored verbatim."""
    return (REFS / f"{w.name}.out").read_text(encoding="utf-8")


def closed_forms(a: Fraction, b: Fraction, n: int) -> dict[str, Fraction]:
    s = a + b
    return {
        "mean": a / s,
        "variance": 2 * a * b * n / (s * s * (2 * n + s * (2 * n - 1))),
        "gap_h": a * b / (2 * s * (1 + s) * (2 * n + (2 * n - 1) * s)),
        "lower": a * b / (4 * n * s * (1 + s) ** 2),
        "e_abs_s_bound": (3 * a + 2 * b) / (4 * n),
        "e_cubed_cap": Fraction(1, 2 * n),
    }


def fmt(x) -> str:
    """The CLI's CSV number format: 17 significant digits."""
    return format(float(x), ".17g")


def pq(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= REL_TOL * abs(ref)


def _check_distances(got: dict, ref: dict, where: str) -> list[str]:
    return [
        f"{where}{k} {got[k]!r} not within {REL_TOL:g} of reference {ref[k]!r}"
        for k in DISTANCES
        if not _close(float(got[k]), float(ref[k]))
    ]


def _check_report(w: Workload, data: dict, ref: dict) -> list[str]:
    ((a, b, n),) = w.points()
    cf = closed_forms(a, b, n)
    stein, cert = data["stein"], data["certificate"]
    problems = []
    if stein["conditions_exact"] is not True:
        problems.append("conditions_exact is not true")
    if stein["cond1_max_residual"] != 0 or stein["cond2_max_residual"] != 0:
        problems.append("condition residuals are not 0")
    if cert["sandwich_ok"] is not True:
        problems.append("sandwich_ok is not true")
    reported = [
        ("mean", data["moments"]["1"]),
        ("variance", data["variance"]),
        ("gap_h", data["distance"]["gap_h"]),
        ("gap_h", cert["gap_h"]),
        ("lower", cert["lower"]),
        ("e_abs_s_bound", stein["e_abs_s_bound"]),
    ]
    for key, value in reported:
        if value != float(cf[key]):
            problems.append(f"{key} {value!r} != closed form {float(cf[key])!r}")
    if not stein["e_abs_s_exact"] <= stein["e_abs_s_bound"]:
        problems.append("e_abs_s_exact exceeds e_abs_s_bound")
    if not stein["e_cubed_over_lambda_exact"] <= float(cf["e_cubed_cap"]):
        problems.append("e_cubed_over_lambda_exact exceeds 1/(2n)")
    if w.exact:
        exact = data["exact"]
        want_pq = {"a": pq(a), "b": pq(b)}
        want_pq.update({k: pq(cf[k]) for k in ("mean", "variance", "gap_h", "lower")})
        for key, want in want_pq.items():
            if exact[key] != want:
                problems.append(f"exact {key} differs from the closed form")
        if not Fraction(exact["e_abs_s_exact"]) <= cf["e_abs_s_bound"]:
            problems.append("exact e_abs_s_exact exceeds (3a+2b)/(4n)")
    problems += _check_distances(data["distance"], ref["distance"], "")
    return problems


def _check_sweep(w: Workload, text: str, ref_text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    ref_rows = list(csv.DictReader(io.StringIO(ref_text)))
    if text.partition("\n")[0] != ref_text.partition("\n")[0]:
        return ["CSV header differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for (a, b, n), row, ref in zip(w.points(), rows, ref_rows):
        where = f"row (a={a}, b={b}, n={n}): "
        if (row["n"], row["a"], row["b"]) != (str(n), fmt(a), fmt(b)):
            problems.append(where + "out of order")
            continue
        for col in row:
            if col not in DISTANCES and row[col] != ref[col]:
                problems.append(where + f"{col} differs from the reference")
        if row["sandwich_ok"] != "true":
            problems.append(where + "sandwich_ok is not true")
        if row["cond1_max_residual"] != "0" or row["cond2_max_residual"] != "0":
            problems.append(where + "condition residuals are not 0")
        for key, value in closed_forms(a, b, n).items():
            if key in row and row[key] != fmt(value):
                problems.append(where + f"{key} differs from the closed form")
        if not float(row["e_abs_s_exact"]) <= float(row["e_abs_s_bound"]):
            problems.append(where + "e_abs_s_exact exceeds e_abs_s_bound")
        problems += _check_distances(row, ref, where)
    return problems


def check_output(w: Workload, returncode: int, text: str, ref_text: str) -> list[str]:
    """Problems with one invocation's exit code and stdout; empty means ok."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        if w.argv[0] == "sweep":
            return _check_sweep(w, text, ref_text)
        return _check_report(w, json.loads(text), json.loads(ref_text))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
