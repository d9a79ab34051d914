"""Command-line front end: certificate reports, parameter sweeps, rate fits.

Every point passes one gate, `grid_points`, before any point is computed,
and every command computes its points along one path, `_compute_rows`,
each inside one guard, `_computing`: a `sweep` in at most `--jobs` shares
balanced by lattice states (`_shares`), `rate` in as many as the sweep's
default, `report` in one. The process computes the first share and a
forked child each other one, with no process pool, and the output is the
same bytes for any number of shares. A share holds its points' distance
atoms itself (`_run_share`), so no state outlives a command. A point's
record is built once as plain values, which a child sends through its pipe
by `marshal`: its `_row`, the one place a printed per-point value is
rendered (`COLUMNS`), or `report`'s `_report_payload`, which groups that
row's values and converts only what no column holds. The kernel places
the shares on CPUs; no process's affinity mask is changed.
Every command runs on the standard library: the package has no runtime
dependency.

Exit codes: 0 success, 1 certificate violation (`SteinReport.ok` is false
at some point: an exact identity, a proof-level cap or the sandwich
failed; in `rate`, a gap slope outside RATE_SLOPE_WINDOW), 2 usage or
parameter error (a `ValueError` outside the guard: a point the gate
refuses, a bad option value, or an `--out` or stdout that cannot be
written), 3 internal error while computing a point, whatever its type
(one `error: internal:` line on stderr names the exception and the point).

`main` returns the exit code.  `run`, behind the console script and
`python -m moranbeta.cli`, runs the exit handlers, flushes stdout and
stderr and leaves by `os._exit`: the interpreter's shutdown, which frees
every module and object and runs their finalizers, no longer runs (see
`run`).
"""

from __future__ import annotations

import argparse
import atexit
import marshal
import math
import os
import sys
from contextlib import contextmanager, suppress
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import BinaryIO, Callable, NamedTuple

from . import beta as beta_dist
from .distance import kolmogorov, wasserstein
from .model import ModelParams, stationary_ratio_product
from .moments import mean, moment_recursion, variance
from .stein import SteinReport, k_constant, stein_report

SCHEMA_VERSION = "1"

# One row per grid point: (column, JSON type, attribute path on PointResult,
# path of the exact Fraction rendered as p/q under --exact, or None).  The JSON
# type also picks the CSV cell format.  E|S| is exact only under --exact.
COLUMNS = (
    ("n", int, "params.n", None),
    ("a", float, "params.a", "params.a"),
    ("b", float, "params.b", "params.b"),
    ("mean", float, "mean", "mean"),
    ("variance", float, "variance", "variance"),
    ("beta_variance", float, "beta_variance", None),
    ("gap_h", float, "stein.gap", "stein.gap"),
    ("lower", float, "stein.lower", "stein.lower"),
    ("upper", float, "stein.upper", None),
    ("sandwich_ok", bool, "stein.sandwich_ok", None),
    ("e_abs_s_exact", float, "stein.e_abs_s_float", "stein.e_abs_s_exact"),
    ("e_abs_s_bound", float, "stein.e_abs_s_bound", None),
    ("wasserstein", float, "wasserstein", None),
    ("kolmogorov", float, "kolmogorov", None),
    ("cond1_max_residual", float, "stein.cond1_max_abs", None),
    ("cond2_max_residual", float, "stein.cond2_max_abs", None),
)

SWEEP_COLUMNS = [name for name, *_ in COLUMNS]
EXACT_COLUMNS = [f"{name}_pq" for name, _, _, exact in COLUMNS if exact]

RATE_SLOPE_WINDOW = (-1.05, -0.95)


class PointResult(NamedTuple):
    """Every certificate quantity of one parameter point, each computed once."""

    params: ModelParams
    stein: SteinReport
    mean: Fraction
    variance: Fraction
    beta_variance: Fraction
    wasserstein: float
    kolmogorov: float


class PointError(Exception):
    """An unexpected failure while computing a valid parameter point (exit 3)."""


def _internal(params: ModelParams, what: str) -> str:
    """The message of a PointError at `params`."""
    return f"internal: {what} (point a={params.a}, b={params.b}, n={params.n})"


@contextmanager
def _computing(params: ModelParams):
    """Report any failure inside the block as a PointError naming the point.

    The gate checks parameters before the block (exit 2), so whatever is
    raised inside is a fault of the computation, whatever its type.  An
    exception without a message is named alone.
    """
    try:
        yield
    except Exception as exc:
        what = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        raise PointError(_internal(params, what)) from exc


# `Fraction` builds 10**|exp| before any check.  No admissible shape needs
# more: they are at least 1e-300 (ModelParams), and a + b < 2n with n below
# 10**4300.
MAX_EXPONENT = 10_000


def parse_rational(text: str) -> Fraction:
    """Accept 'p/q' or decimal notation, exponent at most MAX_EXPONENT."""
    _, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError("exponent out of range")
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


def _json_text(payload: dict) -> str:
    """`payload` as the CLI's JSON text: indented by 2, one final newline.
    `json` is imported here, so a CSV sweep never loads it."""
    import json

    return json.dumps(payload, indent=2) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        if sys.stdout is None:  # descriptor 1 was closed at start-up
            raise ValueError("cannot write stdout: it is closed")
        try:
            sys.stdout.write(text)
        except OSError as exc:  # a usage error, like an unwritable --out
            raise ValueError(f"cannot write stdout: {exc}") from exc
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
    model's own (ModelParams, its shape floor included), and a finite K(a,b)
    when `certified` (the certificate prints and compares it), checked once
    per shape pair.  No rule reads a point's lattice: its kernel rows are
    built when it is computed, inside the guard and, in a sweep, in its own
    share.
    """
    if not (a_values and b_values and n_values):
        raise ValueError("a, b, and n value lists must be non-empty")
    grid = {(a, b, n) for a in a_values for b in b_values for n in n_values}
    points = [ModelParams(n, a, b) for a, b, n in sorted(grid)]
    for a, b in dict.fromkeys((params.a, params.b) for params in points):
        if certified and not math.isfinite(k_constant(a, b)):
            raise ValueError(f"K(a,b) is not a finite float at a={float(a)}, b={float(b)}")
    return points


def compute_point(params: ModelParams, reuse: list | None = None) -> PointResult:
    """The point pipeline: exact pi, its certificate, distances, which
    share one atom pass through the holder `reuse` (`distance.wasserstein`)."""
    pi = stationary_ratio_product(params)
    rep = stein_report(pi)
    w1, kd = wasserstein(pi, reuse), kolmogorov(pi, reuse)
    return PointResult(
        params=params,
        stein=rep,
        mean=mean(params),
        variance=variance(params),
        beta_variance=beta_dist.variance(params),
        wasserstein=w1,
        kolmogorov=kd,
    )


def _row(point: PointResult, exact: bool) -> dict:
    """The point's row, built once: each column's JSON value in COLUMNS order
    and, under `exact`, an "exact" object of p/q strings. It is the JSON
    sweep's row as printed, the cells of the CSV sweep and the shared fields
    of `report`, and plain data, so a child sends it by marshal."""
    row = {name: kind(attrgetter(path)(point)) for name, kind, path, _ in COLUMNS}
    if exact:
        row["exact"] = {name: pq(attrgetter(path)(point)) for name, *_, path in COLUMNS if path}
    return row


def _report_payload(point: PointResult, exact: bool) -> dict:
    """`report`'s JSON document of its one point, moments 1..8 included. It
    groups the values of the point's `_row`, exact object too, into sections
    and converts only what no column holds: u, v, lambda, the conditions
    verdict, the cube term, the assembled bound and the moments."""
    row, params, rep = _row(point, exact), point.params, point.stein
    table = moment_recursion(params)

    def take(*names: str) -> dict:
        return {name: row[name] for name in names}

    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "report",
        "params": {
            **take("n", "a", "b"),
            "u": float(params.u),
            "v": float(params.v),
            "lambda": float(params.lam),
        },
        "stein": {
            **take("cond1_max_residual", "cond2_max_residual"),
            "conditions_exact": rep.conditions_exact,
            **take("e_abs_s_exact", "e_abs_s_bound"),
            "e_cubed_over_lambda_exact": rep.e_cubed_over_lambda_float,
            "e_cubed_over_lambda_bound": float(rep.e_cubed_over_lambda_bound),
        },
        "certificate": {
            **take("lower", "gap_h", "upper"),
            "upper_assembled": rep.upper_assembled,
            **take("sandwich_ok"),
        },
        "moments": {str(r): float(table[r]) for r in sorted(table)},
        **take("variance", "beta_variance"),
        "distance": take("gap_h", "wasserstein", "kolmogorov"),
    }
    if exact:
        moments = {str(r): pq(table[r]) for r in sorted(table)}
        payload["exact"] = {**row["exact"], "moments": moments}
    return payload


def cmd_report(args: argparse.Namespace) -> int:
    points = grid_points((args.a,), (args.b,), (args.n,), certified=True)
    ((payload, ok),) = _compute_rows(points, 1, lambda point: _report_payload(point, args.exact))
    _write_output(_json_text(payload), args.out)
    return 0 if ok else 1


def _shares(points: list[ModelParams], jobs: int) -> list[list[int]]:
    """Indices of `points` split into min(jobs, len(points)) non-empty shares.

    Longest-processing-time list scheduling on the cost of a point, its
    2n + 1 lattice states: the costliest point first, each to the share
    with the least load so far. Any two loads then differ by at most the
    largest point's cost (Graham 1969). Each share lists its indices in
    grid order, so it meets its earliest failing point first.
    """
    loads = [0] * min(jobs, len(points))
    shares: list[list[int]] = [[] for _ in loads]
    for i in sorted(range(len(points)), key=lambda i: -points[i].n):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += 2 * points[i].n + 1
    return [sorted(share) for share in shares]


Record = Callable[[PointResult], dict]


def _run_share(
    points: list[ModelParams], share: list[int], record: Record
) -> tuple[list, tuple | None]:
    """`(index, record(point), ok)` of each point of one share, up to its
    first failing point, and that failure as `(index, message)`, or None:
    plain data, which is all that marshal sends. The share owns one atom
    holder, which its points hand on in grid order: each point makes one
    atom pass, a multiple of the last lattice evaluates only its new atoms,
    and nothing outlives the share."""
    reuse, records = [None], []
    for i in share:
        try:
            with _computing(points[i]):
                point = compute_point(points[i], reuse)
                records.append((i, record(point), point.stein.ok))
        except PointError as exc:
            return records, (i, str(exc))
    return records, None


def _fork_share(
    points: list[ModelParams], share: list[int], record: Record
) -> tuple[int, BinaryIO]:
    """Run `_run_share` in a forked child; returns its pid and the read end of
    the pipe that carries the result as one marshal. The CLI starts no
    threads, so the child inherits no lock held by another thread."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # Whatever happens, the child leaves here: it never returns into the
        # caller's code, flushes the parent's stdio or runs its handlers.
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(_run_share(points, share, record)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _share_result(
    points: list[ModelParams], share: list[int], data: bytes, status: int
) -> tuple[list, tuple | None]:
    """What `_run_share` returned in a child, from the bytes it sent and its
    wait status. A child exits 0 only once its whole result is written; one
    that died otherwise, its result cut short, fails at the first point of
    its share."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return marshal.loads(data)
    what = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return [], (share[0], _internal(points[share[0]], f"sweep worker {what}"))


def _default_jobs() -> int:
    """One share per CPU of the affinity mask, else per CPU of the machine."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _compute_rows(points: list[ModelParams], jobs: int, record: Record) -> list[tuple[dict, bool]]:
    """`(record(point), ok)` of every point in grid order.

    The parent computes the first share and a forked child each other one;
    where there is no `os.fork`, the parent computes the one share. The
    kernel places the shares on CPUs, and the process's affinity mask is
    left as it was. Each pipe is read to EOF before its child is reaped, so
    no child blocks on a full pipe. A failure is raised as the serial loop
    would raise it: the one earliest in grid order. A child is collected
    inside the guard of its share's first point, so a failed read or wait
    is a failure there, ranked with the rest. If the parent fails or is
    interrupted, it kills and reaps every child it has not collected and
    can still reap, and lets the failure through. While children run,
    SIGCHLD has its default disposition: an ignored one, inherited across
    exec, reaps them before `os.waitpid`.
    """
    shares = _shares(points, jobs if hasattr(os, "fork") else 1)
    reaping = False
    if len(shares) > 1:
        import signal
        if reaping := signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
            try:
                signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            except ValueError:  # set only in the main thread: compute in one share
                shares, reaping = _shares(points, 1), False
    children: dict[int, tuple[BinaryIO, list[int]]] = {}
    try:
        for share in shares[1:]:
            with _computing(points[share[0]]):
                pid, pipe = _fork_share(points, share, record)
            children[pid] = (pipe, share)
        outcomes = [_run_share(points, shares[0], record)]
        for pid, (pipe, share) in list(children.items()):
            try:
                with _computing(points[share[0]]), pipe:
                    data = pipe.read()
                    _, status = os.waitpid(pid, 0)
                    del children[pid]
                    outcomes.append(_share_result(points, share, data, status))
            except PointError as exc:  # a failed read or wait, ranked with the rest
                outcomes.append(([], (share[0], str(exc))))
    finally:
        for pid, (pipe, _) in children.items():  # left only by a failure
            pipe.close()
            with suppress(OSError):
                if os.waitpid(pid, os.WNOHANG)[0] == 0:  # unreaped: ours to kill
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        if reaping:
            signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    rows: list = [None] * len(points)
    failures = []
    for records, failure in outcomes:
        for i, row, ok in records:
            rows[i] = (row, ok)
        if failure is not None:
            failures.append(failure)
    if failures:
        raise PointError(min(failures)[1])
    return rows


def _render_sweep_csv(rows: list[dict], exact: bool) -> str:
    """The header and one line per row, cells joined by "," and lines ended
    by "\n". No cell holds a comma, a quote or a line break, so none is
    quoted."""
    lines = [SWEEP_COLUMNS + (EXACT_COLUMNS if exact else [])]
    for row in rows:
        cells = [_CSV_CELL[kind](row[name]) for name, kind, *_ in COLUMNS]
        lines.append([*cells, *row["exact"].values()] if exact else cells)
    return "".join(",".join(cells) + "\n" for cells in lines)


def _render_sweep_json(rows: list[dict], exact: bool) -> str:
    return _json_text({"schema_version": SCHEMA_VERSION, "command": "sweep", "rows": rows})


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    points = grid_points(args.a, args.b, args.n, certified=True)
    results = _compute_rows(points, args.jobs, lambda point: _row(point, args.exact))
    render = _render_sweep_csv if args.format == "csv" else _render_sweep_json
    _write_output(render([values for values, _ in results], args.exact), args.out)
    return 0 if all(ok for _, ok in results) else 1


def _fit_slope(ns: list[int], run: list[dict], name: str) -> float:
    """Least-squares slope of log(row[name]) against log(ns) over one run."""
    for row in run:
        if not row[name] > 0:  # NaN too: no logarithm
            where = f"n={row['n']}, a={row['a']!r}, b={row['b']!r}"
            raise ValueError(f"cannot fit a rate: {name} is {row[name]!r} at {where}")
    xs = [math.log(n) for n in ns]
    ys = [math.log(row[name]) for row in run]
    x_bar, y_bar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - x_bar for x in xs]
    num = math.fsum(dx * (y - y_bar) for dx, y in zip(dxs, ys))
    return num / math.fsum(dx * dx for dx in dxs)


def cmd_rate(args: argparse.Namespace) -> int:
    ns = sorted(set(args.n))
    if len(ns) < 4:
        raise ValueError("rate fitting needs at least 4 distinct n values")
    if max(ns) < 8 * min(ns):
        raise ValueError("rate fitting needs n values spanning a factor of 8")
    points = grid_points(args.a, args.b, args.n, certified=False)
    rows = [row for row, _ in _compute_rows(points, _default_jobs(), lambda p: _row(p, False))]
    fits = []
    for start in range(0, len(rows), len(ns)):
        run = rows[start : start + len(ns)]
        slope_gap, slope_w1, slope_kd = (
            _fit_slope(ns, run, name)
            for name in ("gap_h", "wasserstein", "kolmogorov")
        )
        fits.append(
            {
                "a": run[0]["a"],
                "b": run[0]["b"],
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
    _write_output(_json_text(payload), args.out)
    return 0 if all_ok else 1


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but help it cannot write to stdout is a usage error
    (exit 2, one line). argparse ignores a failed write, which a buffered
    stdout repeats at `run`'s final flush and an unbuffered one does not,
    and sends help meant for a closed stdout to stderr."""

    def print_help(self, file=None):
        if file is not None:
            return super().print_help(file)
        try:
            _write_output(self.format_help(), None)
        except ValueError as exc:
            self.exit(2, f"error: {exc}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    rep.add_argument("--exact", action="store_true", help="include exact p/q fields")
    rep.add_argument("--out", default=None, help="write to FILE instead of stdout")
    rep.set_defaults(func=cmd_report)

    swp = sub.add_parser("sweep", help="grid certification table")
    swp.add_argument("--n", type=parse_int_list, required=True, help="comma-separated n values")
    swp.add_argument("--a", type=parse_rational_list, required=True, help="comma-separated a values")
    swp.add_argument("--b", type=parse_rational_list, required=True, help="comma-separated b values")
    swp.add_argument("--jobs", type=int, default=_default_jobs(),
                     help="parallel workers, one per CPU of the affinity mask by default")
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

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, PointError) else 2


def run() -> None:
    """Entry point of the console script and of `python -m moranbeta.cli`.

    Once `main` has returned its code, the exit handlers registered with
    `atexit` run, stdout and stderr are flushed, and `os._exit` ends the
    process.  The interpreter's shutdown, which frees every module and
    object and runs their finalizers, does not run: it cost about 10 ms of
    each benchmark invocation (paired runs, 2 vCPU), and in a sweep it
    wrote to every copy-on-write page still shared with the forked
    children.  Nothing needs it: `--out` files and the children's pipes are
    closed by then, and the CLI starts no thread.  argparse's exit, after a
    usage message or `--help`, takes the same way out with its own code.  A
    stdout that fails at the final flush is a usage error, as inside
    `main`: one `error:` line, exit 2, where the interpreter's own flush
    would print "Exception ignored" and exit 120.  An uncaught exception
    still leaves through the interpreter, and so does every exit under a
    profiler, tracer or debugger (`sys.getprofile`, `sys.gettrace`), which
    reports only once the program has returned.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse, its message already written
        code = exc.code
    if sys.getprofile() is not None or sys.gettrace() is not None:
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
