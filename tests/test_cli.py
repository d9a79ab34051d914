"""CLI contract: subcommands, exit codes, determinism, output formats."""

import argparse
import csv
import errno
import functools
import io
import json
import marshal
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import moranbeta
from moranbeta import cli, distance, model, special, stein
from moranbeta.cli import (
    SWEEP_COLUMNS,
    grid_points,
    main,
    parse_rational,
    parse_rational_list,
    pq,
)
from moranbeta.model import LatticeDistribution, ModelParams, stationary_ratio_product

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_skips_scipy_and_mpmath():
    # Start-up cost is part of every invocation; scipy, mpmath and numpy are
    # test-only oracles, no command loads multiprocessing (a parallel sweep
    # forks its workers directly), the record classes are built without
    # dataclasses, which would load inspect and its imports, and a CSV sweep
    # joins its cells itself, so no command loads csv.
    script = (
        "import os, sys, moranbeta.cli; "
        "grid = ['sweep', '--n', '5,10', '--a', '1/2', '--b', '1', '--jobs', '1']; "
        "assert moranbeta.cli.main(grid + ['--out', os.devnull]) == 0; "
        "print(sorted(m for m in ('scipy', 'mpmath', 'numpy', 'multiprocessing', "
        "'dataclasses', 'inspect', 'csv') if m in sys.modules))"
    )
    src = str(Path(moranbeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_report_and_sweep_run_without_numpy():
    # The package has no runtime dependency: the certifier and its
    # distances are exact integers and plain floats, and the rate fit uses
    # the standard library, so no command loads numpy.
    script = textwrap.dedent(
        """
        import os, sys
        from moranbeta import cli
        for argv in (
            ["report", "--n", "7", "--a", "1/2", "--b", "3", "--exact"],
            ["sweep", "--n", "5,10", "--a", "1", "--b", "1", "--jobs", "1"],
            ["rate", "--n", "5,10,20,40", "--a", "1", "--b", "1"],
        ):
            assert cli.main(argv + ["--out", os.devnull]) == 0, argv
        print("numpy" in sys.modules)
        """
    )
    src = str(Path(moranbeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_parallel_sweep_loads_no_process_pool():
    # A parallel sweep forks its workers itself: the pool's modules cost
    # start-up time and memory, and under a forkserver or spawn start method
    # its workers would import the package again.
    script = textwrap.dedent(
        """
        import os, sys
        from moranbeta import cli
        argv = ["sweep", "--n", "5,10", "--a", "1", "--b", "1", "--jobs", "2"]
        assert cli.main(argv + ["--out", os.devnull]) == 0
        print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
        """
    )
    src = str(Path(moranbeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_serial_path_loads_neither_json_nor_pickle(tmp_path):
    # A CSV sweep writes no JSON, so it never loads json; the rows cross the
    # pipe by marshal, so no process of a parallel sweep loads pickle: not
    # the parent, before or after its own share, and not the child as it
    # leaves.
    script = textwrap.dedent(
        """
        import os, sys
        from moranbeta import cli
        loaded = lambda: sorted(m for m in ("json", "pickle") if m in sys.modules)
        print(loaded())
        parent, seen = os.getpid(), []
        log = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        real, real_exit = cli._run_share, os._exit
        def spy(*args):
            if os.getpid() == parent:
                seen.append(loaded())
            return real(*args)
        def leaving(code):
            os.write(log, f"{loaded()}\\n".encode())
            real_exit(code)
        cli._run_share, os._exit = spy, leaving
        grid = ["sweep", "--n", "5,10", "--a", "1,2", "--b", "1", "--out", os.devnull]
        assert cli.main(grid + ["--jobs", "1"]) == 0
        print(seen.pop(), loaded())
        assert cli.main(grid + ["--jobs", "2"]) == 0
        print(seen.pop(), loaded())
        """
    )
    children = tmp_path / "children.log"
    proc = _python(["-c", script, str(children)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[] []\n[] []\n"
    assert children.read_text() == "[]\n"


def test_log_beta_once_per_point_not_per_atom(monkeypatch):
    # ln B(a,b) is fixed per point: the atom pass computes it once and hands
    # it to every CDF evaluation, the crossings included, at any n.  No state
    # outlives a command, so the second `main`, on a multiple of the first
    # one's lattice, runs its own atom pass.  A sweep's share hands its atoms
    # on along the doubling n, so the README grid computes ln B once per
    # shape pair, 9 times, in each of two runs in one process, and the runs
    # leave the distance module's names bound as they were.
    real = special.log_beta
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.startswith("moranbeta") and getattr(mod, "log_beta", None) is real:
            monkeypatch.setattr(mod, "log_beta", counting)
    counts = []
    for n in ("50", "400"):
        calls.clear()
        argv = ["report", "--n", n, "--a", "1/10", "--b", "1/10", "--out", os.devnull]
        assert main(argv) == 0
        counts.append(len(calls))
    assert counts == [1, 1]
    names = dict(vars(distance))
    counts.clear()
    for _ in range(2):
        calls.clear()
        argv = ["sweep", "--n", "25,50,100,200", "--a", "0.5,1,2", "--b", "0.5,1,2"]
        assert main([*argv, "--jobs", "1", "--out", os.devnull]) == 0
        counts.append(len(calls))
    assert counts == [9, 9]
    assert vars(distance).keys() == names.keys()
    assert all(vars(distance)[name] is value for name, value in names.items())


@pytest.mark.parametrize("n", ["200", "400"])
def test_report_after_a_sweep_prints_the_fresh_bytes(capsys, n):
    # No state outlives a command: a report after a sweep of its shapes in
    # the same process, whose last lattice, m = 400, is the report's own at
    # n = 200 and a divisor of it at n = 400, prints the bytes of a report
    # run alone.
    report = ("report", "--n", n, "--a", "1/2", "--b", "3/2", "--exact")
    fresh = run_cli(capsys, *report)
    assert fresh[0] == 0
    sweep = ("sweep", "--n", "25,50,100,200", "--a", "1/2", "--b", "3/2", "--jobs", "1")
    assert run_cli(capsys, *sweep)[0] == 0
    assert run_cli(capsys, *report) == fresh


class TestParsing:
    def test_commands_are_report_sweep_rate(self):
        assert "{report,sweep,rate}" in cli.build_parser().format_usage()

    def test_rational_forms(self):
        assert parse_rational("1/3") == F(1, 3)
        assert parse_rational("0.5") == F(1, 2)
        assert parse_rational("2") == F(2)

    def test_rational_exponent_bounded(self):
        # Fraction builds 10**|exp| before any check: an exponent past
        # MAX_EXPONENT is refused at once, not after seconds of work.
        assert parse_rational("1e-300") == F(1, 10**300)
        assert parse_rational("2.5E+3") == F(2500)
        assert parse_rational(f"1e-{cli.MAX_EXPONENT}") == F(1, 10**cli.MAX_EXPONENT)
        for text in ("1e-10000000", f"1e{cli.MAX_EXPONENT + 1}", "1e", "1e5e5"):
            with pytest.raises(argparse.ArgumentTypeError, match="not a rational number"):
                parse_rational(text)

    def test_huge_exponent_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational("1e-10000000")
        with pytest.raises(SystemExit) as exc:
            main(["report", "--n", "3", "--a", "1e-100000000", "--b", "1"])
        assert time.perf_counter() - start < 0.5
        assert exc.value.code == 2
        assert "--a: not a rational number: '1e-100000000'" in capsys.readouterr().err

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
        assert doc["certificate"]["gap_h"] == float(Fraction(1, 120))
        assert doc["certificate"]["lower"] == float(Fraction(1, 144))
        assert doc["certificate"]["upper"] == pytest.approx(4.5, rel=1e-13, abs=0)
        assert doc["certificate"]["sandwich_ok"] is True
        assert doc["variance"] == float(Fraction(1, 10))
        assert doc["stein"]["cond1_max_residual"] == 0.0
        assert doc["exact"]["gap_h"] == "1/120"
        assert doc["exact"]["variance"] == "1/10"

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n,a,b", [("7", "1/2", "3"), ("150", "355/113", "103/37")])
    def test_shared_fields_are_the_sweep_row(self, capsys, n, a, b, exact):
        # Every report field that is also a sweep column is the JSON sweep's
        # row value of the same point, bit for bit; (150; 355/113, 103/37)
        # has states with S_i < 0 and an odd q.
        flag = ["--exact"] if exact else []
        code, out, _ = run_cli(capsys, "report", "--n", n, "--a", a, "--b", b, *flag)
        assert code == 0
        doc = json.loads(out)
        sweep = ("sweep", "--n", n, "--a", a, "--b", b, "--jobs", "1", "--format", "json")
        code, out, _ = run_cli(capsys, *sweep, *flag)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        sections = {
            "params": ("n", "a", "b"),
            "stein": ("cond1_max_residual", "cond2_max_residual", "e_abs_s_exact", "e_abs_s_bound"),
            "certificate": ("lower", "gap_h", "upper", "sandwich_ok"),
            "distance": ("gap_h", "wasserstein", "kolmogorov"),
        }
        pairs = [(doc[k][name], row[name]) for k, names in sections.items() for name in names]
        pairs += [(doc[name], row[name]) for name in ("variance", "beta_variance")]
        shared = {name for names in sections.values() for name in names}
        assert shared | {"variance", "beta_variance", "mean"} == set(SWEEP_COLUMNS)

        def bits(v):
            return (type(v), v.hex() if type(v) is float else v)

        assert [bits(got) for got, _ in pairs] == [bits(want) for _, want in pairs]
        if exact:
            assert {k: v for k, v in doc["exact"].items() if k != "moments"} == row["exact"]
        else:
            assert "exact" not in doc and "exact" not in row

    def test_document_size_does_not_grow_with_n(self, capsys):
        # No field holds one value per state: the remainder S is a closed-form
        # quadratic of the point, so the document has no list at any depth.
        def lists(node):
            if isinstance(node, list):
                return 1
            if isinstance(node, dict):
                return sum(lists(value) for value in node.values())
            return 0

        code, out, _ = run_cli(capsys, "report", "--n", "2000", "--a", "1/2", "--b", "3/2")
        assert code == 0
        assert lists(json.loads(out)) == 0
        assert len(out.encode()) < 2048

    def test_narrow_walk_prints_the_same_bytes_in_bounded_memory(self, capsys):
        # At 76 bits the walk leaves states of (4000; 1/2, 3/2) undecided:
        # each is divided from its own weight, never by the exact walk of
        # all 8001 weights, whose ints grew as n^2 (a 235 MB peak here).  The
        # peak is the child's VmHWM: its ru_maxrss would keep the forking
        # test process's own peak across the exec.
        script = textwrap.dedent(
            """
            import sys
            from moranbeta import cli, model
            alone, weight = [], model._weight
            model._MIRROR_BITS = 76
            model._weight = lambda params, i: alone.append(i) or weight(params, i)
            code = cli.main(["report", "--n", "4000", "--a", "1/2", "--b", "3/2"])
            with open("/proc/self/status") as status:
                peak = status.read().split("VmHWM:")[1].split()[0]  # kB
            print(len(alone), peak, file=sys.stderr)
            sys.exit(code)
            """
        )
        proc = _python(["-c", script])
        assert proc.returncode == 0, proc.stderr
        alone, peak_kb = map(int, proc.stderr.split())
        assert alone > 0 and peak_kb < 100 * 1024
        code, out, _ = run_cli(capsys, "report", "--n", "4000", "--a", "1/2", "--b", "3/2")
        assert code == 0 and proc.stdout == out

    def test_rejects_boundary_params(self, capsys):
        code, _, err = run_cli(capsys, "report", "--n", "2", "--a", "1", "--b", "3")
        assert code == 2
        assert "a + b < 2n" in err

    @pytest.mark.parametrize("a", ["1e-400", "1e-310"])
    def test_rejects_shapes_below_normal_float(self, capsys, a):
        code, out, err = run_cli(capsys, "report", "--n", "10", "--a", a, "--b", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: mutation parameters must be at least 1e-300 ")
        assert err.count("\n") == 1

    def test_tiny_normal_shape_prints_valid_json(self, capsys):
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        code, out, _ = run_cli(capsys, "report", "--n", "10", "--a", "1e-300", "--b", "1")
        assert code == 0
        assert json.loads(out, parse_constant=reject)["distance"]["wasserstein"] >= 0.0

    @pytest.mark.parametrize("a,b", [("600", "601"), ("601", "600"), ("300", "900")])
    def test_rejects_shapes_whose_k_overflows(self, capsys, a, b):
        # K(a,b) = inf would print "upper": Infinity, which is not JSON.
        code, out, err = run_cli(capsys, "report", "--n", "602", "--a", a, "--b", b)
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
        # W1 would be rounding noise here: 1.1e-13 where the exact distance
        # is below 1e-31. Every command refuses with the model's one line.
        code, out, err = run_cli(capsys, *argv, "--a", "2.3e-308", "--b", "3e-308")
        with pytest.raises(ValueError) as refusal:
            ModelParams(10, F("2.3e-308"), F("3e-308"))
        assert (code, out, err) == (2, "", f"error: {refusal.value}\n")
        assert "at least 1e-300 (below it ln Gamma needs its recurrence" in err

    def test_unknown_command_exits_2(self, capsys):
        # `validate`, the removed Monte Carlo check, is refused like any
        # other unknown command, before any work.
        for argv in (["frobnicate"], ["validate", "--n", "5", "--a", "1", "--b", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"invalid choice: '{argv[0]}'" in captured.err


GATED_COMMANDS = {
    "report": ["report", "--n", "10"],
    "sweep": ["sweep", "--n", "10", "--jobs", "1"],
    "rate": ["rate", "--n", "10,20,40,80"],
}


class TestFloatPath:
    """Without --exact, every printed float comes from pi's interval walk;
    --exact adds its p/q fields and changes no other byte."""

    @pytest.mark.parametrize(
        "argv", [["--n", "600", "--a", "355/113", "--b", "103/37"],
                 ["--n", "300", "--a", "1/7", "--b", "599/2"]],
    )
    def test_report_is_exact_report_without_exact_section(self, capsys, argv):
        code, plain, _ = run_cli(capsys, "report", *argv)
        code_exact, exact, _ = run_cli(capsys, "report", *argv, "--exact")
        assert code == code_exact == 0
        doc = json.loads(exact)
        del doc["exact"]
        assert json.dumps(doc, indent=2) + "\n" == plain

    def test_sweep_csv_is_exact_csv_without_pq_columns(self, capsys):
        argv = ["sweep", "--n", "5,10", "--a", "1/3,2", "--b", "1/2", "--jobs", "1"]
        _, plain, _ = run_cli(capsys, *argv)
        _, exact, _ = run_cli(capsys, *argv, "--exact")
        rows = list(csv.reader(io.StringIO(exact)))
        assert len(rows) == 5
        assert list(csv.reader(io.StringIO(plain))) == [row[: len(SWEEP_COLUMNS)] for row in rows]

    @pytest.mark.parametrize(
        "argv",
        [["report", "--n", "40", "--a", "355/113", "--b", "103/37", "--exact"],
         ["sweep", "--n", "5,10,25", "--a", "1/2,2", "--b", "3/2", "--jobs", "1"]],
    )
    def test_undecided_enclosures_print_the_same_bytes(self, monkeypatch, capsys, argv):
        # `model._round_enclosed` decides every pi(i) in the walk and E|S| in
        # the certificate.  Where it decides nothing, each pi(i) comes from
        # its own weight and E|S| from the exact pass, to the same bytes.
        want = run_cli(capsys, *argv)
        assert want[0] == 0
        asked = []

        def undecided(n_lo, n_hi, d_lo, d_hi):
            asked.append(n_lo)
            return None

        for module in (model, stein):
            monkeypatch.setattr(module, "_round_enclosed", undecided)
        weights = []
        weight = model._weight
        monkeypatch.setattr(model, "_weight", lambda p, i: weights.append(i) or weight(p, i))
        assert run_cli(capsys, *argv) == want
        # Each state of each point is asked once, and then E|S| once.
        ns = [40] if argv[0] == "report" else [5, 5, 10, 10, 25, 25]
        assert len(weights) == sum(2 * n + 1 for n in ns)
        assert len(asked) == len(weights) + len(ns)

    def test_exact_pass_runs_once_per_point_under_exact(self, monkeypatch, capsys):
        tops = []
        split = model._split

        def spy(down, up, s, lo, hi):
            if (lo, hi) == (0, len(down)):
                tops.append(len(down))
            return split(down, up, s, lo, hi)

        monkeypatch.setattr(model, "_split", spy)
        assert run_cli(capsys, "report", "--n", "600", "--a", "355/113", "--b", "103/37")[0] == 0
        assert tops == []
        assert run_cli(
            capsys, "report", "--n", "600", "--a", "355/113", "--b", "103/37", "--exact"
        )[0] == 0
        assert tops == [1201]
        # At (5; 1/3, 1/2) no S_i is negative (m a/(a+b) = 4 and n = 5), so
        # that point splits nothing.
        argv = ["sweep", "--n", "5,10", "--a", "1/3,2", "--b", "1/2", "--jobs", "1", "--exact"]
        assert run_cli(capsys, *argv)[0] == 0
        assert sorted(tops) == [11, 21, 21, 1201]


class TestGate:
    """Every point is checked before any is computed: exit 2, one line."""

    def test_sweep_rejects_subnormal_shape(self, capsys):
        code, out, err = run_cli(capsys, *GATED_COMMANDS["sweep"], "--a", "1e-310", "--b", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: mutation parameters must be at least 1e-300 ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(GATED_COMMANDS))
    def test_negative_shape_same_line(self, capsys, command):
        code, out, err = run_cli(capsys, *GATED_COMMANDS[command], "--a", "-1", "--b", "1")
        assert code == 2 and out == ""
        assert err == "error: mutation parameters must be positive, got a=-1, b=1\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["report", "--n", "10", "--a", "1e300", "--b", "1"],
                "need a + b < 2n for a valid mutation regime, "
                "got a + b = 1.0000000000000000e+300 with 2n = 20",
            ),
            (
                ["sweep", "--n", "10", "--a", "1", "--b", "1e4500", "--jobs", "1"],
                "need a + b < 2n for a valid mutation regime, "
                "got a + b = 1.0000000000000000e+4500 with 2n = 20",
            ),
            (
                ["report", "--n", "10", "--a=-1e5000", "--b", "1"],
                "mutation parameters must be positive, got a=-1.0000000000000000e+5000, b=1",
            ),
            *(
                (
                    [*argv, "--a", "1e400", "--b", "1"],
                    "mutation parameters must be at most the largest float "
                    "1.7976931348623157e+308, got a=1.0000000000000000e+400, b=1",
                )
                for argv in (
                    ["report", "--n", str(10**401)],
                    ["sweep", "--n", str(10**401), "--jobs", "1"],
                    ["rate", "--n", ",".join(str(k * 10**401) for k in (1, 2, 4, 8))],
                )
            ),
        ],
        ids=["a_1e300", "b_1e4500", "a_minus_1e5000", "report_a_1e400", "sweep_a_1e400",
             "rate_a_1e400"],
    )
    def test_huge_shape_refused_in_one_short_line(self, capsys, argv, line):
        # The refusal shows each value to 17 significant digits, never the
        # exact integer: not 301 digits, nor the interpreter's int-to-str cap.
        # A shape above the largest float passes a + b < 2n at n = 10**401,
        # and the model refuses it before the float shape floor could raise
        # OverflowError.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {line}\n")
        assert len(err.encode()) < 200

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

    def test_gate_builds_no_rows_and_k_once_per_shape_pair(self, monkeypatch):
        shapes, k_constant = [], cli.k_constant
        monkeypatch.setattr(
            cli, "k_constant", lambda a, b: shapes.append((a, b)) or k_constant(a, b)
        )
        values = (F(1, 2), F(1), F(2))
        points = grid_points(values, values, (25, 50, 100, 200), certified=True)
        assert len(points) == 36
        assert not any("rows" in p.__dict__ for p in points)
        assert shapes == [(a, b) for a in values for b in values]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_built_once_in_their_own_share(self, monkeypatch, tmp_path, jobs):
        # Each point's kernel rows are built when it is computed, once, in
        # the process that computes its share; the log is written with
        # os.write, so a forked child's records survive its os._exit.
        log = os.open(tmp_path / "rows.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        real = ModelParams.__dict__["rows"].func

        def logged(params):
            os.write(log, f"{os.getpid()} {params.a} {params.b} {params.n}\n".encode())
            return real(params)

        spy = functools.cached_property(logged)
        spy.__set_name__(ModelParams, "rows")
        monkeypatch.setattr(ModelParams, "rows", spy)
        argv = ["sweep", "--n", "25,50,100,200", "--a", "0.5,1,2", "--b", "0.5,1,2"]
        try:
            assert main([*argv, "--jobs", str(jobs), "--out", os.devnull]) == 0
        finally:
            os.close(log)
        built = [line.split() for line in (tmp_path / "rows.log").read_text().splitlines()]
        values = (F(1, 2), F(1), F(2))
        points = grid_points(values, values, (25, 50, 100, 200), certified=True)
        keys = [(p.a, p.b, p.n) for p in points]
        assert sorted((F(a), F(b), int(n)) for _, a, b, n in built) == keys
        where = {(F(a), F(b), int(n)): int(pid) for pid, a, b, n in built}
        pids = [{where[keys[i]] for i in share} for share in cli._shares(points, jobs)]
        assert pids[0] == {os.getpid()}
        assert all(len(ids) == 1 and os.getpid() not in ids for ids in pids[1:])
        assert len(set().union(*pids)) == jobs

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--n", "3", "--a", "1", "--b", "1"],
            ["sweep", "--n", "3,4", "--a", "1", "--b", "1", "--jobs", "1"],
            ["sweep", "--n", "3,4", "--a", "1", "--b", "1", "--jobs", "2"],
        ],
        ids=["report", "sweep_jobs_1", "sweep_jobs_2"],
    )
    def test_failing_row_check_is_an_internal_error(self, monkeypatch, capsys, argv):
        # The p(i,i) >= 0 check runs with the rows, inside the guard: rows
        # that broke it would be a fault of the computation, not of the input.
        # A zero kernel_den makes row 0, whose U_0 > 0, break it.
        init = ModelParams.__init__

        def broken(self, *args):
            init(self, *args)
            self.__dict__["kernel_den"] = 0

        monkeypatch.setattr(ModelParams, "__init__", broken)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err == (
            "error: internal: ValueError: kernel row 0 has negative holding probability "
            "p(i,i); parameters outside the valid regime (point a=1, b=1, n=3)\n"
        )

    def test_k_rule_only_when_certified(self):
        # rate prints no K, so it takes these shapes; report and sweep do not.
        assert grid_points((F(600),), (F(601),), (602,), certified=False) == [
            ModelParams(602, 600, 601)
        ]
        with pytest.raises(ValueError, match="K\\(a,b\\) is not a finite float"):
            grid_points((F(600),), (F(601),), (602,), certified=True)


class TestSweep:
    def test_nested_lattices_print_the_rows_of_each_point_alone(self, capsys):
        # The next n of a shape pair reuses the atoms of the last lattice:
        # the rows are the bytes of each point swept alone from a cold pass.
        grid = ["sweep", "--a", "1/2,2", "--b", "3/2", "--jobs", "1", "--exact"]
        code, out, _ = run_cli(capsys, *grid, "--n", "25,50,100,200")
        assert code == 0
        header, *rows = out.splitlines(keepends=True)
        alone = []
        for a in ("1/2", "2"):
            for n in ("25", "50", "100", "200"):
                code, single, _ = run_cli(capsys, *grid, "--n", n, "--a", a)
                assert code == 0 and single.startswith(header)
                alone.append(single[len(header):])
        assert rows == alone

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

    @pytest.mark.parametrize(
        "grid",
        [
            ("--n", "25,50,100,200", "--a", "0.5,1,2", "--b", "0.5,1,2"),
            ("--n", "160,300", "--a", "355/113,1/7", "--b", "103/37,599/2"),
        ],
    )
    def test_csv_is_csv_writer_over_the_cells(self, capsys, grid):
        # The sweep joins its cells with "," and "\n" itself: no cell needs
        # quoting, so the bytes are csv.writer's over the same cells.
        code, out, _ = run_cli(capsys, "sweep", *grid, "--jobs", "1", "--exact")
        assert code == 0
        args = cli.build_parser().parse_args(["sweep", *grid])
        points = grid_points(args.a, args.b, args.n, certified=True)
        rows = cli._compute_rows(points, 1, lambda point: cli._row(point, True))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS + cli.EXACT_COLUMNS)
        for row, _ in rows:
            cells = [cli._CSV_CELL[kind](row[name]) for name, kind, *_ in cli.COLUMNS]
            writer.writerow(cells + list(row["exact"].values()))
        assert out == want.getvalue()

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

    def test_parallel_matches_serial_beyond_pipe_buffer(self, monkeypatch, tmp_path):
        # A worker's rows outgrow the pipe buffer (64 KiB on Linux), so the
        # worker blocks in its write until the parent reads. The parallel run
        # is a subprocess with a timeout: reaping before reading would hang.
        shapes = "1/2,1,3/2,1/3,2/3"
        n_values = ",".join(str(n) for n in range(2, 31))
        args = ["sweep", "--n", n_values, "--a", shapes, "--b", shapes, "--exact"]
        rows = {}
        real = cli._row

        def recording(point, exact):
            rows[point.params] = real(point, exact), point.stein.ok
            return rows[point.params][0]

        monkeypatch.setattr(cli, "_row", recording)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
        src = str(Path(moranbeta.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "moranbeta.cli", *args, "--jobs", "2", "--out", str(parallel)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert serial.read_bytes() == parallel.read_bytes()
        points = list(rows)
        child = cli._shares(points, 2)[1]
        payload = marshal.dumps(([(i, *rows[points[i]]) for i in child], None))
        assert len(payload) > 65536

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "25,50", "--a", "1", "--b", "1,2", "--jobs", "2"],
            ["rate", "--n", "25,50,100,200", "--a", "1", "--b", "1"],
        ],
        ids=["sweep", "rate"],
    )
    def test_parallel_run_with_sigchld_ignored(self, argv):
        # An ignored SIGCHLD is inherited across exec, and the kernel would
        # then reap each forked child before the parent's os.waitpid.
        plain = _python(["-m", "moranbeta.cli", *argv])
        ignoring = _python(
            ["-m", "moranbeta.cli", *argv],
            preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN),
        )
        assert plain.returncode == 0 and plain.stdout
        assert (ignoring.returncode, ignoring.stderr) == (0, "")
        assert ignoring.stdout == plain.stdout

    def test_ignored_sigchld_is_restored_and_kept_off_the_main_thread(self, monkeypatch):
        points = grid_points((F(1),), (F(1), F(2)), (3, 4), certified=True)
        record = functools.partial(cli._row, exact=False)
        serial = cli._compute_rows(points, 1, record)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert cli._compute_rows(points, 2, record) == serial
            assert signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
            # Only the main thread may set it: elsewhere one share, no fork.
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
            rows = []
            thread = threading.Thread(
                target=lambda: rows.append(cli._compute_rows(points, 2, record))
            )
            thread.start()
            thread.join()
            assert rows == [serial]
            assert signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
        finally:
            signal.signal(signal.SIGCHLD, previous)

    @pytest.mark.parametrize("exact", [False, True], ids=["csv", "json_exact"])
    def test_rows_cross_the_pipe_bit_for_bit(self, tmp_path, exact):
        # Odd rational shapes, and at (300, 1/7, 599/2) a law with zero and
        # subnormal pi(i): every share's rows, sent by marshal, are the
        # serial rows, each value of its type and each float column to the
        # bit, and print the same bytes.
        values = (F(355, 113), F(1, 7)), (F(103, 37), F(599, 2)), (160, 300)
        points = grid_points(*values, certified=True)
        fmt = ["--format", "json", "--exact"] if exact else []
        argv = ["sweep", "--n", "160,300", "--a", "355/113,1/7", "--b", "103/37,599/2", *fmt]

        def bits(rows):
            return [
                ({k: (type(v), v.hex() if type(v) is float else v) for k, v in row.items()}, ok)
                for row, ok in rows
            ]

        def record(point):
            return cli._row(point, exact)

        serial = cli._compute_rows(points, 1, record)
        floats = [name for name, kind, *_ in cli.COLUMNS if kind is float]
        assert all([k for k, v in row.items() if type(v) is float] == floats for row, _ in serial)
        serial = bits(serial)
        outputs = []
        for jobs in (1, 2, 3):
            assert bits(cli._compute_rows(points, jobs, record)) == serial
            out = tmp_path / f"jobs{jobs}.out"
            assert main([*argv, "--jobs", str(jobs), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[2] == outputs[0]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_jobs_capped_at_grid_size(self, monkeypatch):
        cases = [
            ((3, 4), 64),
            ((25, 50, 100, 200), 2),
            ((25, 50, 100, 200), 3),
            ((5,), 4),
            ((7, 3, 200, 9, 50, 11), 5),
            (tuple(range(2, 40)), 3),
        ]
        for n_values, jobs in cases:
            points = grid_points((F(1), F(1, 2)), (F(1),), n_values, certified=True)
            shares = cli._shares(points, jobs)
            assert len(shares) == min(jobs, len(points))
            assert all(shares)
            assert sorted(i for share in shares for i in share) == list(range(len(points)))
            assert all(share == sorted(share) for share in shares)
            loads = [sum(2 * points[i].n + 1 for i in share) for share in shares]
            assert max(loads) - min(loads) <= max(2 * p.n + 1 for p in points)
        # End to end: the parent computes one share and forks one child for
        # each other share.
        forks = []
        real = cli._fork_share

        def counting(points, share, *args):
            forks.append(share)
            return real(points, share, *args)

        monkeypatch.setattr(cli, "_fork_share", counting)
        argv = ["sweep", "--n", "3,4", "--a", "1", "--b", "1", "--jobs", "64"]
        assert main(argv + ["--out", os.devnull]) == 0
        assert len(forks) == 1

    def test_default_jobs_from_affinity_mask(self, monkeypatch):
        # The default counts the CPUs the process may use (taskset, a
        # cpuset), not the machine's; without a mask, the machine's count.
        argv = ["sweep", "--n", "3", "--a", "1", "--b", "1"]
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert cli.build_parser().parse_args(argv).jobs == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli.build_parser().parse_args(argv).jobs == 64

    @pytest.mark.parametrize("ending", ["rows", "point_error", "failed_fork", "interrupt"])
    def test_shares_leave_the_affinity_mask_alone(self, monkeypatch, tmp_path, ending):
        # The kernel places the shares: however the sweep ends, no process,
        # parent or child, sets an affinity mask, the caller's mask is the
        # same set afterwards, and no child is left. The spy writes to a
        # file, so a child's call shows too.
        points = grid_points((F(1),), (F(1), F(2)), (3, 4, 5), certified=True)
        parent = os.getpid()
        mask = getattr(os, "sched_getaffinity", lambda pid: None)
        before = mask(0)
        spied = tmp_path / "sched_setaffinity"

        def spy(pid, cpus):
            with open(spied, "a") as fh:
                fh.write(f"{os.getpid()} {sorted(cpus)}\n")

        def recording(point):
            if ending == "point_error":
                raise cli.PointError("injected")
            if ending == "interrupt" and os.getpid() == parent:
                raise KeyboardInterrupt
            return cli._row(point, False)

        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        if ending == "failed_fork":
            monkeypatch.setattr(os, "fork", failing_fork)
        monkeypatch.setattr(os, "sched_setaffinity", spy, raising=False)
        if ending == "rows":
            assert cli._compute_rows(points, 3, recording) == cli._compute_rows(points, 1, recording)
        else:
            expected = KeyboardInterrupt if ending == "interrupt" else cli.PointError
            with pytest.raises(expected):
                cli._compute_rows(points, 3, recording)
        assert not spied.exists(), spied.read_text()
        assert mask(0) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_rejects_shapes_whose_k_overflows(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "602", "--a", "1,600", "--b", "601", "--jobs", "1"
        )
        assert code == 2 and out == ""
        assert err == "error: K(a,b) is not a finite float at a=600.0, b=601.0\n"

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


def _cubed_above_cap(params):
    return F(1, params.n)


def _abs_s_above_cap(pi):
    params = pi.params
    return (3 * params.a + 2 * params.b) / (2 * params.n)


def _walked(real, change):
    # `real` with pi's enclosures replaced by `change(enclosures)`.
    def fake(params):
        pi = real(params)
        return LatticeDistribution(params, pi.probs, change(pi.enclosures))

    return fake


def _undecided(enclosures):
    # A lower bound of 0 on the total decides nothing: stein_report takes
    # E|S| and its verdict from the exact hook.
    (_, z_hi), neg_s = enclosures
    return (0, z_hi), neg_s


def _inflated(enclosures):
    # The S^- sum enclosed as 10**6 times the total, so E|S| > 10**6 /
    # kernel_den, far above its cap at the CAP_ARGV points (kernel_den 216
    # and 512).  Their true S^- sum is 0: no state lies strictly between
    # mu = 1/3 and 1/2.
    (z_lo, z_hi), _ = enclosures
    return (z_lo, z_hi), (10**6 * z_lo, 10**6 * z_hi)


CAP_ARGV = [
    ["report", "--n", "3", "--a", "1", "--b", "2"],
    ["sweep", "--n", "3,4", "--a", "1", "--b", "2", "--jobs", "1"],
]


class TestProofLevelCaps:
    """A sum above its proof-level cap is a certificate violation (exit 1),
    with and without --exact, whether the interval walk decides it or the
    exact pass does."""

    def assert_exits_1(self, capsys):
        for exact in ([], ["--exact"]):
            code, out, _ = run_cli(capsys, *CAP_ARGV[0], *exact)
            assert code == 1
            doc = json.loads(out)
            assert doc["certificate"]["sandwich_ok"] is True
            assert doc["stein"]["conditions_exact"] is True
            code, _, _ = run_cli(capsys, *CAP_ARGV[1], *exact)
            assert code == 1

    @pytest.mark.parametrize(
        "name, fake",
        [("third_moment_ratio", _cubed_above_cap), ("e_abs_s", _abs_s_above_cap)],
    )
    def test_cap_violation_exits_1(self, monkeypatch, capsys, name, fake):
        # The walk leaves E|S| undecided, so its exact hook decides; the cube
        # term is always its closed form.
        monkeypatch.setattr(stein, name, fake)
        real = cli.stationary_ratio_product
        monkeypatch.setattr(cli, "stationary_ratio_product", _walked(real, _undecided))
        self.assert_exits_1(capsys)

    def test_walked_sum_above_cap_exits_1(self, monkeypatch, capsys):
        real = cli.stationary_ratio_product
        monkeypatch.setattr(cli, "stationary_ratio_product", _walked(real, _inflated))
        self.assert_exits_1(capsys)

    def test_upper_side_compared_exactly(self, monkeypatch, capsys):
        # K/n one float below the exact gap, closer than any float slack
        # would forgive; n = 8 makes the division K/n exact.
        gap = stein.gap_h(ModelParams(8, F(1, 2), 3))
        upper = float(gap) if F(float(gap)) < gap else math.nextafter(float(gap), 0)
        monkeypatch.setattr(stein, "k_constant", lambda a, b: 8 * upper)
        code, out, _ = run_cli(capsys, "report", "--n", "8", "--a", "1/2", "--b", "3")
        assert code == 1
        cert = json.loads(out)["certificate"]
        assert (cert["upper"], cert["sandwich_ok"]) == (upper, False)

    def test_lower_side_compared_exactly(self, monkeypatch, capsys):
        # The lower bound patched above the gap by less than any float slack
        # would forgive: the report's own sandwich fails, and so does the
        # exit code, which reads that one verdict.
        gap = stein.gap_h(ModelParams(7, F(1, 2), 3))
        monkeypatch.setattr(stein, "lower_bound", lambda params: gap + F(1, 10**13))
        code, out, _ = run_cli(capsys, "report", "--n", "7", "--a", "1/2", "--b", "3")
        assert code == 1
        doc = json.loads(out)
        assert doc["certificate"]["sandwich_ok"] is False
        assert doc["stein"]["conditions_exact"] is True
        argv = ["sweep", "--n", "7", "--a", "1/2", "--b", "3", "--jobs", "1"]
        assert run_cli(capsys, *argv)[0] == 1

    def test_cap_check_survives_optimize_flag(self):
        # Every route to a failed cap: E|S| from the exact hook after an
        # undecided walk, E|S| from a walked enclosure above the cap, and
        # the cube term's closed form above its cap.
        script = textwrap.dedent(
            """
            import os, sys
            from fractions import Fraction
            from moranbeta import cli, stein
            from moranbeta.model import LatticeDistribution
            real = cli.stationary_ratio_product
            def fake(params):
                pi = real(params)
                (z_lo, z_hi), neg_s = pi.enclosures
                if sys.argv[1] == "exact_hook":
                    sums = (0, z_hi), neg_s
                    stein.e_abs_s = lambda pi: Fraction(pi.params.n)
                elif sys.argv[1] == "walk":
                    sums = (z_lo, z_hi), (10**6 * z_lo, 10**6 * z_hi)
                else:
                    sums = pi.enclosures
                    stein.third_moment_ratio = lambda params: Fraction(1, params.n)
                return LatticeDistribution(params, pi.probs, sums)
            cli.stationary_ratio_product = fake
            argv = ["report", "--n", "3", "--a", "1", "--b", "2", "--out", os.devnull]
            raise SystemExit(cli.main(argv))
            """
        )
        src = str(Path(moranbeta.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for route in ("exact_hook", "walk", "cube"):
            proc = subprocess.run(
                [sys.executable, "-O", "-c", script, route], env=env, capture_output=True
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
        monkeypatch.setattr(cli, "stein_report", _raising(exc_type))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == (
            f"error: internal: {exc_type.__name__}: injected "
            "(point a=1, b=1, n=3)\n"
        )

    @pytest.mark.parametrize("argv", POINT_COMMANDS, ids=["report", "sweep"])
    def test_exact_sum_failure_exits_3(self, monkeypatch, capsys, argv):
        # Under --exact the p/q of E|S| runs the exact pass, via stein.e_abs_s.
        monkeypatch.setattr(stein, "e_abs_s", _raising(ZeroDivisionError))
        code, out, err = run_cli(capsys, *argv, "--exact")
        assert (code, out) == (3, "")
        assert err == "error: internal: ZeroDivisionError: injected (point a=1, b=1, n=3)\n"

    @pytest.mark.parametrize("argv", POINT_COMMANDS, ids=["report", "sweep"])
    def test_exception_without_message_is_named_alone(self, monkeypatch, capsys, argv):
        def failing(pi):
            raise MemoryError

        monkeypatch.setattr(cli, "stein_report", failing)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: internal: MemoryError (point a=1, b=1, n=3)\n"

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("failing", ["every", "first_share", "last_share", "two_shares"])
    def test_parallel_point_failure_matches_serial(self, monkeypatch, capsys, jobs, failing):
        # The failure reported is the one earliest in grid order, whichever
        # share meets it, and no worker is left unreaped.
        argv = ["sweep", "--n", "3,4,5", "--a", "1", "--b", "1,2"]
        points = grid_points((F(1),), (F(1), F(2)), (3, 4, 5), certified=True)
        shares = cli._shares(points, jobs)
        last_of_first, first_of_last = shares[0][-1], shares[-1][0]
        targets = {
            "every": set(points),
            "first_share": {points[last_of_first]},
            "last_share": {points[first_of_last]},
            # at --jobs 3, a child's failure is earlier than the parent's
            "two_shares": {points[last_of_first], points[first_of_last]},
        }[failing]
        real = cli.stein_report

        def fake(pi):
            if pi.params in targets:
                raise ZeroDivisionError("injected")
            return real(pi)

        monkeypatch.setattr(cli, "stein_report", fake)
        serial = run_cli(capsys, *argv, "--jobs", "1")
        assert serial[0] == 3 and serial[1] == ""
        assert run_cli(capsys, *argv, "--jobs", str(jobs)) == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_sweep_worker_exits_3(self, monkeypatch, capsys):
        # A worker killed mid-point (say by the OOM killer) is an internal
        # error naming a point of its share, not a traceback.
        parent = os.getpid()
        real = cli.stein_report

        def dying(pi):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(pi)

        monkeypatch.setattr(cli, "stein_report", dying)
        code, out, err = run_cli(
            capsys, "sweep", "--n", "3,4", "--a", "1", "--b", "1", "--jobs", "2"
        )
        assert code == 3 and out == ""
        assert re.fullmatch(r"error: internal: [^\n]*\(point a=1, b=1, n=[34]\)\n", err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_failure_when_cli_runs_as_main(self):
        # Run as __main__ without replacing sys.modules["__main__"], as
        # runpy.run_module does by default: a worker must send its failure
        # as plain data, since no pickled class of the cli module resolves.
        script = textwrap.dedent(
            """
            import os, runpy, sys
            from moranbeta import stein
            real, parent = stein.stein_report, os.getpid()
            def fake(pi):
                if os.getpid() != parent and pi.n == 5:
                    raise ZeroDivisionError("injected")
                return real(pi)
            stein.stein_report = fake
            sys.argv = ["moranbeta", "sweep", "--n", "3,4,5,6", "--a", "1", "--b", "1",
                        "--jobs", "2"]
            runpy.run_module("moranbeta.cli", run_name="__main__")
            """
        )
        src = str(Path(moranbeta.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "error: internal: ZeroDivisionError: injected (point a=1, b=1, n=5)\n"

    def test_failed_fork_exits_3_and_reaps_started_workers(self, monkeypatch, capsys):
        real = os.fork
        calls = []

        def second_fork_fails():
            calls.append(None)
            if len(calls) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        code, out, err = run_cli(
            capsys, "sweep", "--n", "3,4,5", "--a", "1", "--b", "1", "--jobs", "3"
        )
        assert code == 3 and out == ""
        assert re.fullmatch(
            r"error: internal: BlockingIOError: \[Errno 11\] Resource temporarily "
            r"unavailable \(point a=1, b=1, n=[345]\)\n",
            err,
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("reaped", [False, True], ids=["unreaped", "reaped"])
    def test_failed_collection_exits_3_and_reaps(self, monkeypatch, capsys, reaped):
        # A wait that fails as the parent collects a child is an internal
        # error at the child's first point, not a traceback (exit 1). The
        # cleanup lets it through, signals no child already reaped, and
        # leaves none behind.
        real_wait, real_kill, failed, kills = os.waitpid, os.kill, [], []

        def wait_fails_once(pid, options):
            if failed:
                return real_wait(pid, options)
            failed.append(pid)
            if reaped:
                real_wait(pid, options)
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "waitpid", wait_fails_once)
        monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(pid) or real_kill(pid, sig))
        code, out, err = run_cli(
            capsys, "sweep", "--n", "3,4", "--a", "1", "--b", "1", "--jobs", "2"
        )
        monkeypatch.undo()
        assert code == 3 and out == ""
        assert re.fullmatch(
            r"error: internal: OSError: \[Errno 5\] Input/output error "
            r"\(point a=1, b=1, n=[34]\)\n",
            err,
        )
        if reaped:
            assert kills == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_collection_ranks_with_the_earliest_failure(self, monkeypatch, capsys):
        # Three shares, one point each: the parent n=5, the first child n=4,
        # the second n=3. The first child's wait fails, and n=3 fails in the
        # second child; n=3 is earlier in grid order, so it is reported.
        real_wait, real_compute, failed = os.waitpid, cli.compute_point, []

        def wait_fails_once(pid, options):
            if failed:
                return real_wait(pid, options)
            failed.append(pid)
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        def fails_at_3(params, reuse=None):
            if params.n == 3:
                raise ArithmeticError("injected")
            return real_compute(params, reuse)

        monkeypatch.setattr(os, "waitpid", wait_fails_once)
        monkeypatch.setattr(cli, "compute_point", fails_at_3)
        code, out, err = run_cli(
            capsys, "sweep", "--n", "3,4,5", "--a", "1", "--b", "1", "--jobs", "3"
        )
        monkeypatch.undo()
        assert failed and code == 3 and out == ""
        assert err == "error: internal: ArithmeticError: injected (point a=1, b=1, n=3)\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("exc_type", [ArithmeticError, IndexError])
    def test_report_moment_failure_exits_3(self, monkeypatch, capsys, exc_type):
        monkeypatch.setattr(cli, "moment_recursion", _raising(exc_type))
        code, out, err = run_cli(capsys, *POINT_COMMANDS[0])
        assert code == 3 and out == ""
        assert err == (
            f"error: internal: {exc_type.__name__}: injected "
            "(point a=1, b=1, n=3)\n"
        )

    def test_non_finite_atom_cdf_names_the_atom(self, monkeypatch, capsys):
        real = distance._cdf_pdf

        def nan_at_3_8(a, b, ln_beta, x):
            return (math.nan, math.nan) if x == 3 / 8 else real(a, b, ln_beta, x)

        monkeypatch.setattr(distance, "_cdf_pdf", nan_at_3_8)
        code, out, err = run_cli(capsys, "report", "--n", "4", "--a", "1/2", "--b", "3/2")
        assert (code, out) == (3, "")
        assert err == (
            "error: internal: FloatingPointError: Beta(0.5, 1.5) CDF is not finite at 3/8 "
            "(point a=1/2, b=3/2, n=4)\n"
        )

    def test_unsolved_crossing_exits_3(self, monkeypatch, capsys):
        # A Newton loop with no rounds left raises at the first margin crossing.
        monkeypatch.setattr(distance, "_ROOT_MAX_ITER", 0)
        code, out, err = run_cli(capsys, "report", "--n", "20", "--a", "1/2", "--b", "3/2")
        assert (code, out) == (3, "")
        assert re.fullmatch(
            r"error: internal: ConvergenceError: F_Z\(x\) = [^\n]* not solved on \[[^\n]*\] "
            r"\(point a=1/2, b=3/2, n=20\)\n",
            err,
        )

    def test_rate_distance_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "kolmogorov", _raising(ValueError))
        code, _, err = run_cli(
            capsys, "rate", "--n", "5,10,20,40", "--a", "1", "--b", "1"
        )
        assert code == 3
        assert err.startswith("error: internal: ValueError: injected (point a=1")

    def test_removed_r_max_exits_2_before_any_work(self, monkeypatch, capsys):
        # report prints moments 1..8; the --r-max knob is gone, and argparse
        # refuses it before any point is computed, even at its old default.
        calls = []

        def failing(*args):
            calls.append(args)
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(cli, "stein_report", failing)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--n", "3", "--a", "1", "--b", "1", "--r-max", "8"])
        assert exc.value.code == 2
        assert calls == []
        assert "unrecognized arguments: --r-max 8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "sweep"])
    def test_parameter_error_still_exits_2(self, monkeypatch, capsys, command):
        monkeypatch.setattr(cli, "stein_report", _raising(ZeroDivisionError))
        code, _, err = run_cli(capsys, command, "--n", "1", "--a", "1", "--b", "1")
        assert code == 2
        assert "a + b < 2n" in err


OUT_COMMANDS = {
    "report": ["report", "--n", "3", "--a", "1", "--b", "1"],
    "sweep": ["sweep", "--n", "3", "--a", "1", "--b", "1", "--jobs", "1"],
    "rate": ["rate", "--n", "5,10,20,40", "--a", "1", "--b", "1"],
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


def _python(args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """`python *args` on this checkout's package, stdout and stderr as text."""
    src = str(Path(moranbeta.__file__).resolve().parents[1])
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *args], env={**(env or os.environ), "PYTHONPATH": src},
        text=True, timeout=120, **kwargs,
    )


def _buffered_env() -> dict:
    # Without PYTHONUNBUFFERED, stdout keeps what it is given until a flush.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env


STDOUT_COMMANDS = {
    "report": ["report", "--n", "3", "--a", "1", "--b", "1"],
    # More bytes than stdout buffers, so a buffered stdout fails in the write
    # itself; the report's bytes fail only at the final flush.
    "sweep": [
        "sweep", "--n", "3,4,5,6,7,8", "--a", "1,2", "--b", "1,2", "--jobs", "1",
        "--exact", "--format", "json",
    ],
}


def _unwritable(target: str) -> tuple[int, int]:
    """A descriptor whose writes fail, and the errno they fail with."""
    if target == "dev_full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        return os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    return write_fd, errno.EPIPE


class TestUnwritableStdout:
    """A stdout that cannot be written is a usage error, like an unwritable
    --out: exit 2 and one line on stderr, no traceback, nothing printed at
    interpreter exit, whether the write fails or the final flush does."""

    def test_failed_write_exits_2(self, monkeypatch, capsys):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", Full())
        code = main(STDOUT_COMMANDS["report"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        )

    @pytest.mark.parametrize("target", ["dev_full", "closed_pipe"])
    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", sorted(STDOUT_COMMANDS))
    def test_exits_2_with_one_line(self, command, flags, target):
        stdout, code = _unwritable(target)
        try:
            proc = _python(
                [*flags, "-m", "moranbeta.cli", *STDOUT_COMMANDS[command]],
                env=_buffered_env(), stdout=stdout,
            )
        finally:
            os.close(stdout)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write stdout: [Errno {code}] {os.strerror(code)}\n"
        )

    @pytest.mark.parametrize("target", ["dev_full", "closed_pipe"])
    def test_help_exits_2_with_one_line(self, target):
        # argparse's exit takes the same final flush: without it, the
        # interpreter's flush failed at shutdown and the process exited 120.
        # Unbuffered, the help's own write fails, which argparse ignored:
        # the process exited 0 with nothing on stderr.
        for env in (_buffered_env(), {**os.environ, "PYTHONUNBUFFERED": "1"}):
            for argv in (["--help"], ["sweep", "--help"]):
                stdout, code = _unwritable(target)
                try:
                    proc = _python(["-m", "moranbeta.cli", *argv], env=env, stdout=stdout)
                finally:
                    os.close(stdout)
                assert (proc.returncode, proc.stderr) == (
                    2, f"error: cannot write stdout: [Errno {code}] {os.strerror(code)}\n"
                ), (env.get("PYTHONUNBUFFERED"), argv)

    def test_closed_descriptors(self, tmp_path):
        # A descriptor closed at start-up leaves sys.stdout or sys.stderr
        # None: no stdout to write is a usage error, and neither stops an
        # --out file from being written.
        argv = ["-m", "moranbeta.cli", *STDOUT_COMMANDS["report"]]
        out = tmp_path / "report.json"
        for args, fd, code, err in (
            (argv, 1, 2, "error: cannot write stdout: it is closed\n"),
            (argv + ["--out", str(out)], 1, 0, ""),
            (argv + ["--out", str(out)], 2, 0, None),
        ):
            out.unlink(missing_ok=True)
            proc = _python(
                args, stdout=None if fd == 1 else subprocess.PIPE,
                stderr=subprocess.PIPE if fd == 1 else None,
                preexec_fn=lambda fd=fd: os.close(fd),
            )
            assert (proc.returncode, proc.stderr) == (code, err)
        assert json.loads(out.read_text())["command"] == "report"

    def test_help_to_closed_stdout_exits_2(self):
        # argparse sent help meant for a closed stdout to stderr and exited 0.
        for argv in (["--help"], ["sweep", "--help"]):
            proc = _python(
                ["-m", "moranbeta.cli", *argv], stdout=None, preexec_fn=lambda: os.close(1)
            )
            assert (proc.returncode, proc.stderr) == (
                2, "error: cannot write stdout: it is closed\n"
            ), argv


# Faults injected before the CLI module is imported, so in-process `main`
# and a run as __main__ (a fresh namespace) both bind the faulty functions.
FAULTS = {
    # E|W'-W|^3/lambda above its cap.
    "cap": """
        from fractions import Fraction
        from moranbeta import stein
        stein.third_moment_ratio = lambda params: Fraction(1, params.n)
        """,
    "internal": """
        from moranbeta import stein
        def failing(pi):
            raise ZeroDivisionError("injected")
        stein.stein_report = failing
        """,
}

# name: (argv, fault, exit code); OUT stands for an --out file.
EXIT_CASES = {
    "report_exact": (["report", "--n", "7", "--a", "1/2", "--b", "3", "--exact"], None, 0),
    "sweep_jobs_2": (
        ["sweep", "--n", "3,4,5", "--a", "1,2", "--b", "1", "--jobs", "2", "--out", "OUT"],
        None, 0,
    ),
    "cap_violation": (["report", "--n", "3", "--a", "1", "--b", "2", "--out", "OUT"], "cap", 1),
    "gate_refusal": (["report", "--n", "602", "--a", "600", "--b", "601"], None, 2),
    "argparse_error": (["report", "--n", "3"], None, 2),
    "help": (["--help"], None, 0),
    "internal_error": (["report", "--n", "3", "--a", "1", "--b", "1"], "internal", 3),
}


class TestExitPath:
    """`run()` leaves through `os._exit` once the exit handlers have run and
    stdout and stderr are flushed; the process must show the same bytes and
    exit code as `main()` returning into the interpreter."""

    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_matches_in_process_main(self, tmp_path, case):
        argv, fault, code = EXIT_CASES[case]
        inject = textwrap.dedent(FAULTS[fault]) if fault else ""
        entries = {
            "main": ["-c", inject + "import sys\nfrom moranbeta.cli import main\n"
                     "sys.exit(main(sys.argv[1:]))\n"],
            "run": ["-c", inject + "import runpy\n"
                    "runpy.run_module('moranbeta.cli', run_name='__main__')\n"]
            if fault else ["-m", "moranbeta.cli"],
        }
        seen = []
        for name, entry in entries.items():
            out = tmp_path / f"{name}.out"
            proc = _python(
                [*entry, *(str(out) if arg == "OUT" else arg for arg in argv)],
                env=_buffered_env(),
            )
            seen.append((proc.returncode, proc.stdout, proc.stderr,
                         out.read_bytes() if out.exists() else None))
        assert seen[0][0] == code, seen[0][2]
        assert seen[1] == seen[0]
        if code in (0, 1):
            assert seen[0][1] or seen[0][3]

    def test_exit_handlers_run_before_the_final_flush(self):
        # A handler registered before run() still runs, and what it prints
        # while stdout buffers is flushed after it.
        script = textwrap.dedent(
            """
            import atexit, runpy
            atexit.register(print, "exit handler ran")
            runpy.run_module("moranbeta.cli", run_name="__main__")
            """
        )
        proc = _python(["-c", script, *STDOUT_COMMANDS["report"]], env=_buffered_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("}\nexit handler ran\n")

    def test_profiler_reports_after_the_program(self):
        # cProfile prints its table once the program returns, so under a
        # profiler run() leaves through the interpreter.
        proc = _python(["-m", "cProfile", "-m", "moranbeta.cli", *STDOUT_COMMANDS["report"]])
        assert proc.returncode == 0, proc.stderr
        report, _, table = proc.stdout.partition("\n}\n")
        assert json.loads(report + "\n}")["command"] == "report"
        assert "function calls" in table

    def test_no_resource_warning_at_exit(self, tmp_path):
        # The teardown that os._exit skips would show unclosed files or
        # unreaped children as ResourceWarnings: the commands leave none.
        script = textwrap.dedent(
            """
            import gc, sys
            from moranbeta.cli import main
            for argv in (
                ["report", "--n", "7", "--a", "1/2", "--b", "3", "--out", sys.argv[1]],
                ["sweep", "--n", "3,4,5", "--a", "1,2", "--b", "1", "--jobs", "2"],
                ["rate", "--n", "5,10,20,40", "--a", "1", "--b", "1"],
            ):
                if main(argv) != 0:
                    sys.exit(f"{argv[0]} failed")
            gc.collect()
            """
        )
        proc = _python(
            ["-X", "dev", "-W", "error::ResourceWarning", "-c", script,
             str(tmp_path / "report.json")]
        )
        assert (proc.returncode, proc.stderr) == (0, "")


class TestRate:
    GRID = ["rate", "--n", "5,10,20,40", "--a", "1/2,1,2", "--b", "3/2"]

    @staticmethod
    def run_on(monkeypatch, capsys, count):
        # rate as if the mask held `count` CPUs: `count` shares.
        monkeypatch.setattr(cli, "_default_jobs", lambda: count)
        return run_cli(capsys, *TestRate.GRID)

    def test_same_bytes_for_any_cpu_count(self, monkeypatch, capsys):
        # rate computes its grid in the sweep's shares, one per CPU of the
        # mask: one share or three print the same bytes.
        serial = self.run_on(monkeypatch, capsys, 1)
        assert serial[0] == 0
        assert self.run_on(monkeypatch, capsys, 3) == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_later_share_names_earliest_point(self, monkeypatch, capsys):
        # Every point with a >= 1 fails; in three shares the parent's share
        # (a = 1/2) succeeds and two children fail. The one line printed is
        # the serial one: the earliest failing point in grid order.
        real = cli.kolmogorov

        def failing(pi, reuse=None):
            if pi.params.a >= 1:
                raise ValueError("injected")
            return real(pi, reuse)

        monkeypatch.setattr(cli, "kolmogorov", failing)
        serial = self.run_on(monkeypatch, capsys, 1)
        assert serial == (3, "", "error: internal: ValueError: injected (point a=1, b=3/2, n=5)\n")
        assert self.run_on(monkeypatch, capsys, 3) == serial

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

    def test_gap_slope_outside_window_exits_1(self, monkeypatch, capsys):
        # The gap decays as 1/n: a window that leaves out -1 fails the fit,
        # which is printed with "ok": false and exits 1.
        monkeypatch.setattr(cli, "RATE_SLOPE_WINDOW", (-0.5, -0.4))
        code, out, err = run_cli(
            capsys, "rate", "--n", "5,10,20,40,80", "--a", "1", "--b", "1"
        )
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["gap_h_slope_window"] == [-0.5, -0.4]
        assert doc["fits"][0]["gap_h_slope_ok"] is False and doc["ok"] is False

    def test_zero_distance_is_a_usage_error(self, capsys):
        # W1 is 0.0 at n = 1, which has no logarithm: one line naming the
        # distance and the point, exit 2.
        code, out, err = run_cli(capsys, "rate", "--n", "1,2,4,8", "--a", "1e-300", "--b", "1")
        assert (code, out) == (2, "")
        assert err == "error: cannot fit a rate: wasserstein is 0.0 at n=1, a=1e-300, b=1.0\n"

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_fit_refuses_values_without_a_log(self, bad):
        run = [{"n": n, "a": 1.0, "b": 1.0, "kolmogorov": 1 / n} for n in (1, 2, 4, 8)]
        run[2]["kolmogorov"] = bad
        with pytest.raises(ValueError, match=f"kolmogorov is {bad!r} at n=4, a=1.0, b=1.0"):
            cli._fit_slope([1, 2, 4, 8], run, "kolmogorov")

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


def test_records_reject_assignment():
    # The four record classes are immutable, though none is a dataclass.
    params = ModelParams(3, 1, 2)
    point = cli.compute_point(params)
    records = [params, stationary_ratio_product(params), point.stein, point]
    for record in records:
        with pytest.raises(AttributeError):
            record.n = 4
        for name in ("a", "params", "cond1_max_abs", "upper", "mean"):
            if hasattr(record, name):
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
