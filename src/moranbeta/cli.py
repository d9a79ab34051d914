"""Command-line front end: reports, parameter sweeps, rate fits, MC checks.

Exit codes: 0 success, 1 certificate violation (the sandwich, an exact
identity or a proof-level cap failed), 2 usage or parameter error, 3
internal error while computing a point (one `error: internal:` line on
stderr names the exception and the point).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter

import numpy as np

from . import beta as beta_dist
from .beta import BetaParams
from .distance import gap_h, kolmogorov, wasserstein
from .model import (
    LatticeDistribution,
    ModelParams,
    sample_stationary,
    simulate_chain,
    stationary_ratio_product,
)
from .moments import mean, moment_recursion, variance
from .stein import (
    BoundCertificate,
    SteinReport,
    bound_certificate,
    stein_report,
    upper_bound_assembled,
)

SCHEMA_VERSION = "1"

# One row per grid point: (column, JSON type, attribute path on PointResult).
# The JSON type also picks the CSV cell format.
COLUMNS = (
    ("n", int, "params.n"),
    ("a", float, "params.a"),
    ("b", float, "params.b"),
    ("mean", float, "mean"),
    ("variance", float, "variance"),
    ("beta_variance", float, "beta_variance"),
    ("gap_h", float, "cert.gap"),
    ("lower", float, "cert.lower"),
    ("upper", float, "cert.upper"),
    ("sandwich_ok", bool, "cert.sandwich_ok"),
    ("e_abs_s_exact", float, "stein.e_abs_s_exact"),
    ("e_abs_s_bound", float, "stein.e_abs_s_bound"),
    ("wasserstein", float, "wasserstein"),
    ("kolmogorov", float, "kolmogorov"),
    ("cond1_max_residual", float, "stein.cond1_max_abs"),
    ("cond2_max_residual", float, "stein.cond2_max_abs"),
)

# Columns also rendered as exact p/q strings under --exact.
EXACT_FIELDS = ("a", "b", "mean", "variance", "gap_h", "lower", "e_abs_s_exact")

SWEEP_COLUMNS = [name for name, _, _ in COLUMNS]
EXACT_COLUMNS = [f"{name}_pq" for name in EXACT_FIELDS]

RATE_SLOPE_WINDOW = (-1.05, -0.95)

# Fewest batch-means batches behind validate's chain standard errors.
MIN_BATCHES = 10


@dataclass(frozen=True)
class SweepConfig:
    """Grid of parameter points for sweep/rate runs."""

    a_values: tuple[Fraction, ...]
    b_values: tuple[Fraction, ...]
    n_values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (self.a_values and self.b_values and self.n_values):
            raise ValueError("a, b, and n value lists must be non-empty")
        for a in self.a_values:
            for b in self.b_values:
                for n in self.n_values:
                    if a + b >= 2 * n:
                        raise ValueError(
                            f"grid point (a={a}, b={b}, n={n}) violates a + b < 2n"
                        )

    def points(self) -> list[tuple[Fraction, Fraction, int]]:
        """Grid points in deterministic lexicographic (a, b, n) order."""
        return sorted(
            (a, b, n)
            for a in set(self.a_values)
            for b in set(self.b_values)
            for n in set(self.n_values)
        )


@dataclass(frozen=True)
class PointResult:
    """Every certificate quantity of one parameter point, each computed once."""

    params: ModelParams
    stein: SteinReport
    cert: BoundCertificate
    upper_assembled: float
    mean: Fraction
    variance: Fraction
    beta_variance: Fraction
    wasserstein: float
    kolmogorov: float

    @property
    def ok(self) -> bool:
        """The verdict behind exit code 1 of `report` and `sweep`: the
        sandwich, both exact identities and both proof-level caps hold."""
        rep = self.stein
        return self.cert.sandwich_ok and rep.conditions_exact and rep.caps_ok


class PointError(Exception):
    """An unexpected failure while computing a valid parameter point (exit 3)."""


@contextmanager
def _computing(params: ModelParams):
    """Report any failure inside the block as a PointError naming the point.

    Parameters are validated before the block (exit 2), so whatever is
    raised inside is a fault of the computation, whatever its type.
    """
    try:
        yield
    except Exception as exc:
        raise PointError(
            f"internal: {type(exc).__name__}: {exc} "
            f"(point a={params.a}, b={params.b}, n={params.n})"
        ) from exc


def parse_rational(text: str) -> Fraction:
    """Accept 'p/q' or decimal notation."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(",") if part)


def parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from exc


def fmt(x: float) -> str:
    """Decimal rendering with 17 significant digits (CSV contract)."""
    return format(float(x), ".17g")


_CSV_CELL = {int: str, float: fmt, bool: lambda x: "true" if x else "false"}


def pq(x: Fraction) -> str:
    """Exact 'p/q' text at any size.

    `Decimal` converts an int exactly and without the interpreter's cap on
    int-to-str digits, which stays in force for parsing user input.
    """
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _distances(params: ModelParams, pi: LatticeDistribution) -> tuple[float, float]:
    """W1 and Kolmogorov distances of the lattice law to Beta(a, b)."""
    beta = BetaParams(params.a, params.b)
    return wasserstein(pi, beta), kolmogorov(pi, beta)


def compute_point(params: ModelParams) -> PointResult:
    """The point pipeline: exact pi, Stein sums, certificate, distances."""
    with _computing(params):
        pi = stationary_ratio_product(params)
        rep = stein_report(params, pi)
        w1, kd = _distances(params, pi)
        return PointResult(
            params=params,
            stein=rep,
            cert=bound_certificate(params),
            upper_assembled=upper_bound_assembled(params, rep),
            mean=mean(params),
            variance=variance(params),
            beta_variance=beta_dist.variance(BetaParams(params.a, params.b)),
            wasserstein=w1,
            kolmogorov=kd,
        )


def _row_values(point: PointResult) -> dict:
    return {name: attrgetter(path)(point) for name, _, path in COLUMNS}


def _exact_section(values: dict) -> dict:
    return {name: pq(values[name]) for name in EXACT_FIELDS}


def _report_payload(point: PointResult, r_max: int, exact: bool) -> dict:
    params, rep, cert = point.params, point.stein, point.cert
    table = moment_recursion(params, r_max)
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "report",
        "params": {
            "n": params.n,
            "a": float(params.a),
            "b": float(params.b),
            "u": float(params.u),
            "v": float(params.v),
            "lambda": float(params.lam),
        },
        "stein": {
            "cond1_max_residual": float(rep.cond1_max_abs),
            "cond2_max_residual": float(rep.cond2_max_abs),
            "conditions_exact": rep.conditions_exact,
            "s_values": [float(s) for s in rep.s_values],
            "e_abs_s_exact": float(rep.e_abs_s_exact),
            "e_abs_s_bound": float(rep.e_abs_s_bound),
            "e_cubed_over_lambda_exact": float(rep.e_cubed_over_lambda_exact),
            "e_cubed_over_lambda_bound": float(rep.e_cubed_over_lambda_bound),
        },
        "certificate": {
            "lower": float(cert.lower),
            "gap_h": float(cert.gap),
            "upper": cert.upper,
            "upper_assembled": point.upper_assembled,
            "sandwich_ok": cert.sandwich_ok,
        },
        "moments": {str(r): float(table[r]) for r in sorted(table.values)},
        "variance": float(point.variance),
        "beta_variance": float(point.beta_variance),
        "distance": {
            "gap_h": float(cert.gap),
            "wasserstein": point.wasserstein,
            "kolmogorov": point.kolmogorov,
        },
    }
    if exact:
        payload["exact"] = _exact_section(_row_values(point))
        payload["exact"]["moments"] = {
            str(r): pq(table[r]) for r in sorted(table.values)
        }
    return payload


def cmd_report(args: argparse.Namespace) -> int:
    point = compute_point(ModelParams(args.n, args.a, args.b))
    payload = _report_payload(point, args.r_max, args.exact)
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if point.ok else 1


def _sweep_row(task: tuple[int, Fraction, Fraction]) -> tuple[dict, bool]:
    """Column values and verdict of one grid point; pi stays in the worker."""
    n, a, b = task
    point = compute_point(ModelParams(n, a, b))
    return _row_values(point), point.ok


def _compute_rows(
    points: list[tuple[Fraction, Fraction, int]], jobs: int
) -> list[tuple[dict, bool]]:
    tasks = [(n, a, b) for (a, b, n) in points]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [_sweep_row(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_row, tasks, chunksize=1))


def _render_sweep_csv(rows: list[dict], exact: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS + (EXACT_COLUMNS if exact else []))
    for row in rows:
        cells = [_CSV_CELL[kind](row[name]) for name, kind, _ in COLUMNS]
        if exact:
            cells += _exact_section(row).values()
        writer.writerow(cells)
    return buf.getvalue()


def _render_sweep_json(rows: list[dict], exact: bool) -> str:
    out_rows = []
    for row in rows:
        item = {name: kind(row[name]) for name, kind, _ in COLUMNS}
        if exact:
            item["exact"] = _exact_section(row)
        out_rows.append(item)
    return json.dumps(
        {"schema_version": SCHEMA_VERSION, "command": "sweep", "rows": out_rows},
        indent=2,
    ) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(a_values=args.a, b_values=args.b, n_values=args.n)
    results = _compute_rows(config.points(), args.jobs)
    render = _render_sweep_csv if args.format == "csv" else _render_sweep_json
    _write_output(render([values for values, _ in results], args.exact), args.out)
    return 0 if all(ok for _, ok in results) else 1


def _fit_slope(ns: list[int], values: list[float]) -> float:
    logs_n = np.log(np.asarray(ns, dtype=float))
    logs_v = np.log(np.asarray(values, dtype=float))
    slope, _ = np.polyfit(logs_n, logs_v, 1)
    return float(slope)


def cmd_rate(args: argparse.Namespace) -> int:
    ns = sorted(set(args.n))
    if len(ns) < 4:
        raise ValueError("rate fitting needs at least 4 distinct n values")
    if max(ns) < 8 * min(ns):
        raise ValueError("rate fitting needs n values spanning a factor of 8")
    fits = []
    all_ok = True
    for a in sorted(set(args.a)):
        for b in sorted(set(args.b)):
            gaps, w1s, kols = [], [], []
            for n in ns:
                params = ModelParams(n, a, b)
                with _computing(params):
                    gaps.append(float(gap_h(params)))
                    w1, kd = _distances(params, stationary_ratio_product(params))
                w1s.append(w1)
                kols.append(kd)
            slope_gap = _fit_slope(ns, gaps)
            ok = RATE_SLOPE_WINDOW[0] <= slope_gap <= RATE_SLOPE_WINDOW[1]
            all_ok = all_ok and ok
            fits.append(
                {
                    "a": float(a),
                    "b": float(b),
                    "slope_gap_h": slope_gap,
                    "slope_wasserstein": _fit_slope(ns, w1s),
                    "slope_kolmogorov": _fit_slope(ns, kols),
                    "gap_h_slope_ok": ok,
                }
            )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "rate",
        "n_values": ns,
        "gap_h_slope_window": list(RATE_SLOPE_WINDOW),
        "fits": fits,
        "ok": all_ok,
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if all_ok else 1


def _freq_section(
    counts: np.ndarray, total: int, exact: np.ndarray, se: np.ndarray
) -> dict:
    freqs = counts / total
    dev = np.abs(freqs - exact)
    with np.errstate(divide="ignore", invalid="ignore"):
        units = np.where(se > 0, dev / se, np.where(dev > 0, np.inf, 0.0))
    flags = [int(i) for i in np.nonzero(units > 5.0)[0]]
    return {
        "count": int(total),
        "frequencies": [float(f) for f in freqs],
        "tv_to_exact": float(0.5 * dev.sum()),
        "max_se_units": float(units.max()),
        "flagged_states": flags,
    }


def cmd_validate(args: argparse.Namespace) -> int:
    params = ModelParams(args.n, args.a, args.b)
    if min(args.samples, args.steps, args.burn_in) < 0:
        raise ValueError("--samples, --steps and --burn-in must be nonnegative")
    if 0 < args.steps < MIN_BATCHES:
        raise ValueError(f"--steps must be 0 or at least {MIN_BATCHES}, one per batch")
    size = 2 * params.n + 1
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "validate",
        "params": {"n": params.n, "a": float(params.a), "b": float(params.b)},
        "seed": args.seed,
    }
    with _computing(params):
        pi = stationary_ratio_product(params)
        exact = pi.probs
        payload["exact_probs"] = [float(p) for p in exact]
        if args.samples > 0:
            draws = sample_stationary(pi, seed=args.seed, count=args.samples)
            counts = np.bincount(draws, minlength=size).astype(float)
            se = np.sqrt(exact * (1.0 - exact) / args.samples)
            payload["iid"] = _freq_section(counts, args.samples, exact, se)
        if args.steps > 0:
            steps = args.burn_in + args.steps
            path = simulate_chain(params, start=params.n, steps=steps, seed=args.seed + 1)
            kept = path[args.burn_in + 1 :]
            counts = np.bincount(kept, minlength=size).astype(float)
            # batch-means standard errors: occupation fractions are correlated
            n_batches = min(1000, max(MIN_BATCHES, args.steps // 100))
            usable = (len(kept) // n_batches) * n_batches
            batches = kept[:usable].reshape(n_batches, -1)
            batch_freqs = np.stack(
                [np.bincount(row, minlength=size) / batches.shape[1] for row in batches]
            )
            se = batch_freqs.std(axis=0, ddof=1) / math.sqrt(n_batches)
            section = _freq_section(counts, len(kept), exact, se)
            section["burn_in"] = args.burn_in
            section["batches"] = int(n_batches)
            payload["chain"] = section
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    flagged = [payload[k]["flagged_states"] for k in ("iid", "chain") if k in payload]
    return 1 if any(flagged) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moranbeta",
        description=(
            "Exact verification and Beta-approximation error certificates "
            "for the two-allele Moran chain."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="single-point certificate report (JSON)")
    rep.add_argument("--n", type=int, required=True, help="population scale n")
    rep.add_argument("--a", type=parse_rational, required=True, help="a = 2nv, 'p/q' or decimal")
    rep.add_argument("--b", type=parse_rational, required=True, help="b = 2nu, 'p/q' or decimal")
    rep.add_argument("--r-max", type=int, default=8, help="highest moment order")
    rep.add_argument("--exact", action="store_true", help="include exact p/q fields")
    rep.add_argument("--out", default=None, help="write to FILE instead of stdout")
    rep.set_defaults(func=cmd_report)

    swp = sub.add_parser("sweep", help="grid certification table")
    swp.add_argument("--n", type=parse_int_list, required=True, help="comma-separated n values")
    swp.add_argument("--a", type=parse_rational_list, required=True, help="comma-separated a values")
    swp.add_argument("--b", type=parse_rational_list, required=True, help="comma-separated b values")
    swp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                     help="parallel workers (rows are independent)")
    swp.add_argument("--format", choices=("csv", "json"), default="csv")
    swp.add_argument("--exact", action="store_true", help="append exact p/q columns")
    swp.add_argument("--out", default=None)
    swp.set_defaults(func=cmd_sweep)

    rate = sub.add_parser("rate", help="log-log decay slopes of the distances")
    rate.add_argument("--n", type=parse_int_list, required=True,
                      help="comma-separated n values (>= 4, spanning 8x)")
    rate.add_argument("--a", type=parse_rational_list, required=True)
    rate.add_argument("--b", type=parse_rational_list, required=True)
    rate.add_argument("--out", default=None)
    rate.set_defaults(func=cmd_rate)

    val = sub.add_parser("validate", help="Monte Carlo cross-check of pi")
    val.add_argument("--n", type=int, required=True)
    val.add_argument("--a", type=parse_rational, required=True)
    val.add_argument("--b", type=parse_rational, required=True)
    val.add_argument("--samples", type=int, default=1_000_000,
                     help="i.i.d. draws from exact pi (0 skips)")
    val.add_argument("--steps", type=int, default=1_000_000,
                     help="chain steps after burn-in (0 skips)")
    val.add_argument("--burn-in", type=int, default=10_000)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--out", default=None)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
