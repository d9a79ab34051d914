"""CLI contract: subcommands, exit codes, determinism, output formats."""

import concurrent.futures
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import moranbeta
from moranbeta import cli, stein
from moranbeta.cli import (
    SWEEP_COLUMNS,
    grid_points,
    main,
    parse_rational,
    parse_rational_list,
    pq,
)
from moranbeta.model import ModelParams, stationary_ratio_product

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_skips_scipy_and_mpmath():
    # Start-up cost is part of every invocation; scipy and mpmath are
    # test-only oracles, and the process pool loads only for a parallel sweep.
    script = (
        "import sys, moranbeta.cli; "
        "print(sorted(m for m in ('scipy', 'mpmath', 'multiprocessing') "
        "if m in sys.modules))"
    )
    src = str(Path(moranbeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestParsing:
    def test_rational_forms(self):
        assert parse_rational("1/3") == F(1, 3)
        assert parse_rational("0.5") == F(1, 2)
        assert parse_rational("2") == F(2)

    def test_rational_list(self):
        assert parse_rational_list("0.5,1,2") == (F(1, 2), F(1), F(2))

    def test_pq_above_int_str_digit_limit(self):
        # CPython refuses str() of ints above 4300 digits by default.
        x = F(10**5000 + 1, 3)
        assert pq(x) == "1" + "0" * 4999 + "1/3"
        assert pq(F(-7, 2)) == "-7/2"

    def test_sweep_config_validation(self):
        with pytest.raises(ValueError, match="a \\+ b < 2n"):
            grid_points((F(1),), (F(3),), (2,), certified=True)
        with pytest.raises(ValueError, match="non-empty"):
            grid_points((), (F(1),), (5,), certified=True)
        points = grid_points((F(2), F(1), F(2)), (F(1),), (10, 5), certified=True)
        assert points == [
            ModelParams(5, 1, 1),
            ModelParams(10, 1, 1),
            ModelParams(5, 2, 1),
            ModelParams(10, 2, 1),
        ]


class TestReport:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--n", "2", "--a", "1", "--b", "1", "--exact"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["certificate"]["gap_h"] == pytest.approx(1 / 120)
        assert doc["certificate"]["lower"] == pytest.approx(1 / 144)
        assert doc["certificate"]["upper"] == pytest.approx(4.5, rel=1e-13)
        assert doc["certificate"]["sandwich_ok"] is True
        assert doc["variance"] == pytest.approx(0.1)
        assert doc["stein"]["cond1_max_residual"] == 0.0
        assert doc["exact"]["gap_h"] == "1/120"
        assert doc["exact"]["variance"] == "1/10"

    def test_rejects_boundary_params(self, capsys):
        code, _, err = run_cli(capsys, "report", "--n", "2", "--a", "1", "--b", "3")
        assert code == 2
        assert "a + b < 2n" in err

    @pytest.mark.parametrize("a", ["1e-400", "1e-310"])
    def test_rejects_shapes_below_normal_float(self, capsys, a):
        code, out, err = run_cli(capsys, "report", "--n", "10", "--a", a, "--b", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: mutation parameters must be at least")
        assert err.count("\n") == 1

    def test_tiny_normal_shape_prints_valid_json(self, capsys):
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        code, out, _ = run_cli(capsys, "report", "--n", "10", "--a", "1e-300", "--b", "1")
        assert code == 0
        assert json.loads(out, parse_constant=reject)["distance"]["wasserstein"] >= 0.0

    @pytest.mark.parametrize("a,b", [("1e-307", "1"), ("3e-308", "1"), ("1", "1e-307")])
    def test_rejects_shapes_whose_k_overflows(self, capsys, a, b):
        # K(a,b) = inf would print "upper": Infinity, which is not JSON.
        code, out, err = run_cli(capsys, "report", "--n", "10", "--a", a, "--b", b)
        assert code == 2 and out == ""
        assert err.startswith("error: K(a,b) is not a finite float")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--n", "10"],
            ["sweep", "--n", "10", "--jobs", "1"],
            ["rate", "--n", "10,20,40,80"],
        ],
        ids=["report", "sweep", "rate"],
    )
    def test_rejects_shapes_below_resolved_distances(self, capsys, argv):
        # K(a,b) and the Beta CDF are finite here, but W1 would be rounding
        # noise: 1.1e-13 where the exact distance is below 1e-31.
        code, out, err = run_cli(capsys, *argv, "--a", "2.3e-308", "--b", "3e-308")
        assert code == 2 and out == ""
        assert err.startswith("error: shapes below 1e-300 are not supported")
        assert err.count("\n") == 1

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


GATED_COMMANDS = {
    "report": ["report", "--n", "10"],
    "sweep": ["sweep", "--n", "10", "--jobs", "1"],
    "rate": ["rate", "--n", "10,20,40,80"],
}


class TestGate:
    """Every point is checked before any is computed: exit 2, one line."""

    def test_sweep_rejects_subnormal_shape(self, capsys):
        code, out, err = run_cli(capsys, *GATED_COMMANDS["sweep"], "--a", "1e-310", "--b", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: mutation parameters must be at least")
        assert "(the smallest normal float)" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(GATED_COMMANDS))
    def test_negative_shape_same_line(self, capsys, command):
        code, out, err = run_cli(capsys, *GATED_COMMANDS[command], "--a", "-1", "--b", "1")
        assert code == 2 and out == ""
        assert err == "error: mutation parameters must be positive, got a=-1, b=1\n"

    def test_rate_checks_every_point_first(self, monkeypatch, capsys):
        calls = []

        def counting(params):
            calls.append(params)
            return stationary_ratio_product(params)

        monkeypatch.setattr(cli, "stationary_ratio_product", counting)
        code, out, err = run_cli(capsys, *GATED_COMMANDS["rate"], "--a", "1,30", "--b", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: need a + b < 2n") and err.count("\n") == 1
        assert calls == []

    @pytest.mark.parametrize(
        "argv", [["report"], ["sweep", "--jobs", "1"]], ids=["report", "sweep"]
    )
    def test_overflowing_k_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--n", "602", "--a", "600", "--b", "601")
        assert code == 2 and out == ""
        assert err == "error: K(a,b) is not a finite float at a=600.0, b=601.0\n"

    def test_k_rule_only_when_certified(self):
        # rate prints no K, so it takes these shapes; report and sweep do not.
        assert grid_points((F(600),), (F(601),), (602,), certified=False) == [
            ModelParams(602, 600, 601)
        ]
        with pytest.raises(ValueError, match="K\\(a,b\\) is not a finite float"):
            grid_points((F(600),), (F(601),), (602,), certified=True)


class TestSweep:
    def test_csv_contract(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "5,10", "--a", "0.5,1", "--b", "1", "--jobs", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 4  # header + 2 a-values x 1 b x 2 n
        first = lines[1].split(",")
        assert first[0] == "5" and first[1] == "0.5"
        ok_col = SWEEP_COLUMNS.index("sandwich_ok")
        res_col = SWEEP_COLUMNS.index("cond1_max_residual")
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[ok_col] == "true"
            assert cells[res_col] == "0"

    def test_lexicographic_order_and_determinism(self, tmp_path, capsys):
        args = [
            "sweep", "--n", "10,5", "--a", "1,0.5", "--b", "2", "--jobs", "1",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = out_a.read_text().splitlines()[1:]
        keys = [(float(r.split(",")[1]), float(r.split(",")[2]), int(r.split(",")[0])) for r in rows]
        assert keys == sorted(keys)

    def test_parallel_matches_serial(self, tmp_path, capsys):
        args = ["sweep", "--n", "5,8", "--a", "1", "--b", "0.5,2"]
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_json_format_with_exact(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "5", "--a", "1/2", "--b", "1", "--jobs", "1",
            "--format", "json", "--exact",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        row = doc["rows"][0]
        assert row["n"] == 5 and row["a"] == 0.5
        assert row["sandwich_ok"] is True
        assert row["exact"]["a"] == "1/2"

    def test_jobs_capped_at_grid_size(self, monkeypatch, capsys):
        seen = []

        class FakeExecutor:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "3,4", "--a", "1", "--b", "1", "--jobs", "64"
        )
        assert code == 0
        assert seen == [2]

    def test_rejects_shapes_whose_k_overflows(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "10", "--a", "1,1e-307", "--b", "1", "--jobs", "1"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: K(a,b) is not a finite float")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "3", "--a", "1", "--b", "1", "--jobs", jobs
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    def test_invalid_grid_point_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--n", "2,5", "--a", "1", "--b", "3", "--jobs", "1"
        )
        assert code == 2
        assert "a + b < 2n" in err


def _cubed_above_cap(params, pi):
    return F(1, params.n)


def _abs_s_above_cap(params, pi):
    bound = (3 * params.a + 2 * params.b) / (4 * params.n)
    return 2 * bound, bound


class TestProofLevelCaps:
    """A sum above its proof-level cap is a certificate violation (exit 1)."""

    @pytest.mark.parametrize(
        "name, fake",
        [("third_moment_ratio", _cubed_above_cap), ("e_abs_s", _abs_s_above_cap)],
    )
    def test_cap_violation_exits_1(self, monkeypatch, capsys, name, fake):
        monkeypatch.setattr(stein, name, fake)
        code, out, _ = run_cli(capsys, "report", "--n", "3", "--a", "1", "--b", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["certificate"]["sandwich_ok"] is True
        assert doc["stein"]["conditions_exact"] is True
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "3,4", "--a", "1", "--b", "2", "--jobs", "1"
        )
        assert code == 1

    def test_cap_check_survives_optimize_flag(self):
        script = textwrap.dedent(
            """
            import os
            from fractions import Fraction
            from moranbeta import cli, stein
            stein.third_moment_ratio = lambda params, pi: Fraction(1, params.n)
            argv = ["report", "--n", "3", "--a", "1", "--b", "2", "--out", os.devnull]
            raise SystemExit(cli.main(argv))
            """
        )
        src = str(Path(moranbeta.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True
        )
        assert proc.returncode == 1, proc.stderr.decode()


def _raising(exc_type):
    def fake(*args, **kwargs):
        raise exc_type("injected")

    return fake


POINT_COMMANDS = [
    ["report", "--n", "3", "--a", "1", "--b", "1"],
    ["sweep", "--n", "3", "--a", "1", "--b", "1", "--jobs", "1"],
]


class TestInternalErrors:
    """A failure while computing a valid point exits 3, never 2 or 1."""

    @pytest.mark.parametrize("exc_type", [ZeroDivisionError, ValueError])
    @pytest.mark.parametrize("argv", POINT_COMMANDS, ids=["report", "sweep"])
    def test_point_failure_exits_3(self, monkeypatch, capsys, argv, exc_type):
        monkeypatch.setattr(stein, "third_moment_ratio", _raising(exc_type))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == (
            f"error: internal: {exc_type.__name__}: injected "
            "(point a=1, b=1, n=3)\n"
        )

    @pytest.mark.parametrize("exc_type", [ZeroDivisionError, ValueError])
    def test_validate_failure_exits_3(self, monkeypatch, capsys, exc_type):
        monkeypatch.setattr(cli, "sample_stationary", _raising(exc_type))
        code, out, err = run_cli(
            capsys,
            "validate", "--n", "3", "--a", "1", "--b", "1",
            "--samples", "10", "--steps", "0",
        )
        assert code == 3
        assert out == ""
        assert err == (
            f"error: internal: {exc_type.__name__}: injected "
            "(point a=1, b=1, n=3)\n"
        )

    @pytest.mark.parametrize("exc_type", [ArithmeticError, IndexError])
    def test_report_moment_failure_exits_3(self, monkeypatch, capsys, exc_type):
        monkeypatch.setattr(cli, "moment_recursion", _raising(exc_type))
        code, out, err = run_cli(capsys, *POINT_COMMANDS[0])
        assert code == 3 and out == ""
        assert err == (
            f"error: internal: {exc_type.__name__}: injected "
            "(point a=1, b=1, n=3)\n"
        )

    def test_rate_distance_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "kolmogorov", _raising(ValueError))
        code, _, err = run_cli(
            capsys, "rate", "--n", "5,10,20,40", "--a", "1", "--b", "1"
        )
        assert code == 3
        assert err.startswith("error: internal: ValueError: injected (point a=1")

    def test_bad_r_max_exits_2_before_any_work(self, monkeypatch, capsys):
        calls = []

        def failing(*args):
            calls.append(args)
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(stein, "third_moment_ratio", failing)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--n", "3", "--a", "1", "--b", "1", "--r-max", "0"])
        assert exc.value.code == 2
        assert calls == []
        assert "--r-max: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "sweep"])
    def test_parameter_error_still_exits_2(self, monkeypatch, capsys, command):
        monkeypatch.setattr(stein, "third_moment_ratio", _raising(ZeroDivisionError))
        code, _, err = run_cli(capsys, command, "--n", "1", "--a", "1", "--b", "1")
        assert code == 2
        assert "a + b < 2n" in err


OUT_COMMANDS = {
    "report": ["report", "--n", "3", "--a", "1", "--b", "1"],
    "sweep": ["sweep", "--n", "3", "--a", "1", "--b", "1", "--jobs", "1"],
    "rate": ["rate", "--n", "5,10,20,40", "--a", "1", "--b", "1"],
    "validate": [
        "validate", "--n", "3", "--a", "1", "--b", "1", "--samples", "10", "--steps", "0"
    ],
}


class TestUnwritableOut:
    """An --out that cannot be written is a usage error: exit 2, one line."""

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_exits_2(self, tmp_path, capsys, command, target):
        out_path = tmp_path / "missing" / "x" if target == "missing_dir" else tmp_path
        code, out, err = run_cli(capsys, *OUT_COMMANDS[command], "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestRate:
    def test_fits_gap_slope(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--n", "5,10,20,40,80", "--a", "1", "--b", "1"
        )
        assert code == 0
        doc = json.loads(out)
        fit = doc["fits"][0]
        assert -1.05 <= fit["slope_gap_h"] <= -0.95
        assert "slope_wasserstein" in fit and "slope_kolmogorov" in fit
        assert doc["ok"] is True

    def test_needs_four_points(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--n", "5,10,40", "--a", "1", "--b", "1")
        assert code == 2
        assert "4 distinct" in err

    def test_needs_span(self, capsys):
        code, _, err = run_cli(
            capsys, "rate", "--n", "5,10,20,30", "--a", "1", "--b", "1"
        )
        assert code == 2
        assert "factor of 8" in err


class TestValidate:
    def test_no_flags_and_deterministic(self, tmp_path, capsys):
        args = [
            "validate", "--n", "5", "--a", "1", "--b", "1",
            "--samples", "50000", "--steps", "50000", "--burn-in", "500",
            "--seed", "3",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert doc["iid"]["flagged_states"] == []
        assert doc["chain"]["flagged_states"] == []
        assert doc["iid"]["count"] == 50000

    def test_unvisited_states_are_not_flagged(self, capsys):
        # pi puts mass up to 1e-3 on states 85-89 that this run never visits:
        # the chain reaches that tail only in rare excursions.
        code, out, _ = run_cli(
            capsys,
            "validate", "--n", "50", "--a", "20", "--b", "1/10",
            "--samples", "0", "--steps", "100000",
        )
        assert code == 0
        assert "Infinity" not in out and "NaN" not in out
        chain = json.loads(out)["chain"]
        assert chain["flagged_states"] == []
        assert min(chain["frequencies"][85:90]) == 0.0

    def test_wrong_law_is_flagged(self, monkeypatch, capsys):
        # The mirrored law puts its mass at 0 while the chain sits near 2n.
        monkeypatch.setattr(
            cli, "stationary_ratio_product",
            lambda p: stationary_ratio_product(ModelParams(p.n, p.b, p.a)),
        )
        code, out, _ = run_cli(
            capsys,
            "validate", "--n", "50", "--a", "20", "--b", "1/10",
            "--samples", "0", "--steps", "100000",
        )
        assert code == 1
        assert "Infinity" not in out and "NaN" not in out
        assert {0, 100} <= set(json.loads(out)["chain"]["flagged_states"])

    @pytest.mark.parametrize(
        "counts",
        [
            ["--samples", "-1", "--steps", "0"],
            ["--samples", "0", "--steps", "-1"],
            ["--samples", "0", "--steps", "100", "--burn-in", "-50"],
            ["--samples", "0", "--steps", "9"],
            ["--samples", "0", "--steps", "1"],
        ],
    )
    def test_rejects_unusable_counts(self, capsys, counts):
        code, out, err = run_cli(
            capsys, "validate", "--n", "3", "--a", "1", "--b", "2", *counts
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --")

    def test_fewest_steps_fill_every_batch(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "validate", "--n", "3", "--a", "1", "--b", "2",
            "--samples", "0", "--steps", "10", "--burn-in", "0",
        )
        assert code in (0, 1)
        chain = json.loads(out)["chain"]
        assert chain["count"] == 10 and chain["batches"] == 10

    def test_zero_samples_keeps_exact_section(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "validate", "--n", "3", "--a", "1", "--b", "2",
            "--samples", "0", "--steps", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert "iid" not in doc and "chain" not in doc
        assert len(doc["exact_probs"]) == 7
