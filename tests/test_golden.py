"""Golden CLI outputs: report and sweep render the same bytes as the files
under tests/data, except W1 and Kolmogorov, which only need to agree to
1e-8 relative so that a different (equally accurate) quadrature passes."""

import re
from pathlib import Path

import pytest

from moranbeta.cli import main

DATA = Path(__file__).resolve().parent / "data"
DISTANCES = ("wasserstein", "kolmogorov")
REL_TOL = 1e-8

SWEEP_GRID = ["sweep", "--n", "5,10", "--a", "1/2,1", "--b", "7/3", "--jobs", "1"]

CASES = {
    "report_n2_a1_b1_exact.json": ["report", "--n", "2", "--a", "1", "--b", "1", "--exact"],
    "report_n7_a1-2_b3_exact.json": ["report", "--n", "7", "--a", "1/2", "--b", "3", "--exact"],
    "sweep_small.csv": SWEEP_GRID,
    "sweep_small_exact.json": SWEEP_GRID + ["--format", "json", "--exact"],
}

_JSON_DISTANCE = re.compile(r'("(?:wasserstein|kolmogorov)": )([^,\n]+)')


def split_distances(text: str, csv: bool) -> tuple[str, list[float]]:
    """The text with every distance value masked, and those values in order."""
    values: list[float] = []
    if not csv:
        def mask(match):
            values.append(float(match.group(2)))
            return match.group(1) + "#"

        return _JSON_DISTANCE.sub(mask, text), values
    lines = text.split("\n")
    header = lines[0].split(",")
    cols = [header.index(name) for name in DISTANCES]
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) == len(header):
            values += [float(cells[c]) for c in cols]
            for c in cols:
                cells[c] = "#"
        masked.append(",".join(cells))
    return "\n".join(masked), values


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    csv = name.endswith(".csv")
    got, got_d = split_distances(out.read_text(encoding="utf-8"), csv)
    want, want_d = split_distances((DATA / name).read_text(encoding="utf-8"), csv)
    assert got == want
    assert len(got_d) == len(want_d) > 0
    for g, w in zip(got_d, want_d):
        assert g == pytest.approx(w, rel=REL_TOL)
