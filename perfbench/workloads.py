"""The fixed benchmark workloads: one closed-loop CLI invocation each.

Inputs are fixed rather than generated from the seed, so every output can be
compared with a stored reference; the seed only shuffles the order in which
the workloads of a round run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str
    # Pool workers are invisible to an outside-in tracer, so a parallel
    # workload is traced serially.
    traced_argv: tuple[str, ...] | None = None

    @property
    def exact(self) -> bool:
        return "--exact" in self.argv

    def points(self) -> list[tuple[Fraction, Fraction, int]]:
        """The (a, b, n) points the invocation certifies, in output order."""
        opts = dict(zip(self.argv[1::2], self.argv[2::2]))
        a_vals = [Fraction(x) for x in opts["--a"].split(",")]
        b_vals = [Fraction(x) for x in opts["--b"].split(",")]
        n_vals = [int(x) for x in opts["--n"].split(",")]
        return sorted((a, b, n) for a in a_vals for b in b_vals for n in n_vals)

    @property
    def states(self) -> int:
        """Lattice states certified per invocation, sum of 2n + 1."""
        return sum(2 * n + 1 for _, _, n in self.points())


_SWEEP_GRID = ("--n", "25,50,100,200", "--a", "0.5,1,2", "--b", "0.5,1,2")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report_singular",
            ("report", "--n", "200", "--a", "1/10", "--b", "1/10", "--exact"),
            "W1 adaptive quadrature near Beta endpoint singularities dominates "
            "(distance, beta, special); exact layer is small; only --exact p/q "
            "rendering",
        ),
        Workload(
            "report_exact_large",
            ("report", "--n", "600", "--a", "355/113", "--b", "103/37"),
            "exact Fraction layer dominates: pi, stein_report and "
            "upper_bound_assembled on odd rational shapes; W1 is benign",
        ),
        Workload(
            "sweep_grid",
            ("sweep",) + _SWEEP_GRID + ("--jobs", "2"),
            "README sweep, 36 small points on 2 pool workers: process pool, "
            "row scheduling, per-point overhead and CSV rendering",
            traced_argv=("sweep",) + _SWEEP_GRID + ("--jobs", "1"),
        ),
    )
}
