"""CLI contract: subcommands, exit codes, determinism, output formats."""

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
    SweepConfig,
    main,
    parse_rational,
    parse_rational_list,
    pq,
)

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_skips_scipy_and_mpmath():
    # Start-up cost is part of every invocation; the heavy modules are
    # test-only oracles.
    script = (
        "import sys, moranbeta.cli; "
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))"
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
        with pytest.raises(ValueError):
            SweepConfig(a_values=(F(1),), b_values=(F(3),), n_values=(2,))
        with pytest.raises(ValueError):
            SweepConfig(a_values=(), b_values=(F(1),), n_values=(5,))
        cfg = SweepConfig(a_values=(F(2), F(1)), b_values=(F(1),), n_values=(10, 5))
        assert cfg.points() == [
            (F(1), F(1), 5),
            (F(1), F(1), 10),
            (F(2), F(1), 5),
            (F(2), F(1), 10),
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

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakeExecutor)
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "3,4", "--a", "1", "--b", "1", "--jobs", "64"
        )
        assert code == 0
        assert seen == [2]

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

    def test_rate_distance_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "kolmogorov", _raising(ValueError))
        code, _, err = run_cli(
            capsys, "rate", "--n", "5,10,20,40", "--a", "1", "--b", "1"
        )
        assert code == 3
        assert err.startswith("error: internal: ValueError: injected (point a=1")

    @pytest.mark.parametrize("command", ["report", "sweep"])
    def test_parameter_error_still_exits_2(self, monkeypatch, capsys, command):
        monkeypatch.setattr(stein, "third_moment_ratio", _raising(ZeroDivisionError))
        code, _, err = run_cli(capsys, command, "--n", "1", "--a", "1", "--b", "1")
        assert code == 2
        assert "a + b < 2n" in err


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
