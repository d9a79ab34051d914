"""Command-line front end: reports, parameter sweeps, rate fits, MC checks.

Every point passes one gate, `grid_points`, before any point is computed,
and is computed inside one guard, `_computing`.

Exit codes: 0 success, 1 certificate violation (the sandwich, an exact
identity or a proof-level cap failed) or a `validate` flag, 2 usage or
parameter error (a `ValueError` outside the guard: a point the gate
refuses, a bad option value or an unwritable `--out`), 3 internal error
while computing a point, whatever its type (one `error: internal:` line on
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
    k_constant,
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

# Smallest shape whose distances are reported.  W1 is accurate to about
# 1e-13 absolute, while at a tiny shape the true distance is of the order of
# the shape: at n=10, a=2.3e-308, b=3e-308 it came out 1.1e-13 where a
# 30-digit mpmath oracle gives below 1e-31.  Below 1e-300, where ln Gamma of
# a shape needs its recurrence (see special.log_gamma), such points are
# refused as a usage error rather than reported.
MIN_SHAPE = 1e-300


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

    The gate checks parameters before the block (exit 2), so whatever is
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


def parse_positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:  # a usage error, like a bad option value
        raise ValueError(f"cannot write --out: {exc}") from exc


def grid_points(
    a_values: tuple[Fraction, ...],
    b_values: tuple[Fraction, ...],
    n_values: tuple[int, ...],
    certified: bool,
) -> list[ModelParams]:
    """The gate: ModelParams of every grid point in lexicographic (a, b, n)
    order, repeats dropped, all checked before any point is computed.

    The rules, in order, each a usage error: non-empty value lists, the
    model's own (ModelParams), a finite K(a,b) when `certified` (the
    certificate prints and compares it), and shapes of at least MIN_SHAPE.
    """
    if not (a_values and b_values and n_values):
        raise ValueError("a, b, and n value lists must be non-empty")
    grid = {(a, b, n) for a in a_values for b in b_values for n in n_values}
    points = [ModelParams(n, a, b) for a, b, n in sorted(grid)]
    for params in points:
        a, b = params.a, params.b
        if certified and not math.isfinite(k_constant(a, b)):
            raise ValueError(f"K(a,b) is not a finite float at a={float(a)}, b={float(b)}")
        for x in (a, b):
            if float(x) < MIN_SHAPE:
                raise ValueError(
                    f"shapes below {MIN_SHAPE} are not supported, got {float(x)!r}: "
                    f"the distances there are rounding noise"
                )
    return points


def _distances(params: ModelParams, pi: LatticeDistribution) -> tuple[float, float]:
    """W1 and Kolmogorov distances of the lattice law to Beta(a, b)."""
    beta = BetaParams(params.a, params.b)
    return wasserstein(pi, beta), kolmogorov(pi, beta)


def compute_point(params: ModelParams) -> PointResult:
    """The point pipeline: exact pi, Stein sums, certificate, distances."""
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
        "moments": {str(r): float(table[r]) for r in sorted(table)},
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
        payload["exact"]["moments"] = {str(r): pq(table[r]) for r in sorted(table)}
    return payload


def cmd_report(args: argparse.Namespace) -> int:
    (params,) = grid_points((args.a,), (args.b,), (args.n,), certified=True)
    with _computing(params):
        point = compute_point(params)
        payload = _report_payload(point, args.r_max, args.exact)
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if point.ok else 1


def _sweep_row(params: ModelParams) -> tuple[dict, bool]:
    """Column values and verdict of one grid point; pi stays in the worker."""
    with _computing(params):
        point = compute_point(params)
        return _row_values(point), point.ok


def _compute_rows(points: list[ModelParams], jobs: int) -> list[tuple[dict, bool]]:
    workers = min(jobs, len(points))
    if workers <= 1:
        return [_sweep_row(params) for params in points]
    # Imported here: the pool's modules cost every other invocation start-up
    # time and memory.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_row, points, chunksize=1))


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
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    points = grid_points(args.a, args.b, args.n, certified=True)
    results = _compute_rows(points, args.jobs)
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
    points = grid_points(args.a, args.b, args.n, certified=False)
    fits = []
    for start in range(0, len(points), len(ns)):
        run = points[start : start + len(ns)]
        values = []
        for params in run:
            with _computing(params):
                gap = float(gap_h(params))
                values.append((gap, *_distances(params, stationary_ratio_product(params))))
        slope_gap, slope_w1, slope_kd = (_fit_slope(ns, col) for col in zip(*values))
        fits.append(
            {
                "a": float(run[0].a),
                "b": float(run[0].b),
                "slope_gap_h": slope_gap,
                "slope_wasserstein": slope_w1,
                "slope_kolmogorov": slope_kd,
                "gap_h_slope_ok": RATE_SLOPE_WINDOW[0] <= slope_gap <= RATE_SLOPE_WINDOW[1],
            }
        )
    all_ok = all(fit["gap_h_slope_ok"] for fit in fits)
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


def _chain_se_floor(
    se: np.ndarray, freqs: np.ndarray, exact: np.ndarray, count: int
) -> np.ndarray:
    """Lower bound on the chain's SE at each state under the law `exact`.

    Batch means see no spread at a state that no batch visited, or that one
    batch visited once, so their SE there is 0 or tiny, and any positive
    pi(i) would lie (almost) infinitely many SE away.  The floor is the
    binomial SE of `count` i.i.d. draws, sqrt(pi(1-pi)/count), inflated by
    tau, the median over the states with a positive batch-means SE of that
    variance divided by the i.i.d. variance of their observed frequencies: a
    typical autocorrelation time of the chain's occupation indicators.  tau comes
    from the path alone, so a wrong `exact` cannot widen it.  It is assumed
    to be at least 1: successive states of the chain are positively
    correlated, so its frequencies vary at least as much as i.i.d. draws do.
    """
    seen = (se > 0) & (freqs > 0) & (freqs < 1)
    ratios = se[seen] ** 2 * count / (freqs[seen] * (1.0 - freqs[seen]))
    tau = max(float(np.median(ratios)), 1.0) if ratios.size else 1.0
    return np.sqrt(tau * exact * (1.0 - exact) / count)


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
            se = np.maximum(se, _chain_se_floor(se, counts / len(kept), exact, len(kept)))
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
    rep.add_argument("--r-max", type=parse_positive_int, default=8,
                     help="highest moment order (at least 1)")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
