"""The scan CSVs against the benchmark's reference rows: the 81-cell ROADMAP
plane on dim_v = 8 at grid 12 (``perfbench/reference/scan_d8.csv``, made by
``scan_parameter_plane``) and acceptance criterion 10's 25-cell plane on
dim_v = 1 at grid 8 (``scan_d1.csv``, made by the CLI).  Every row must
match, the classification exactly and the witness coordinates and
min_minor within 1e-9 relative.  The reference files are only read."""

import csv
import json
import math
from pathlib import Path

import vinberg_cones as vc
from vinberg_cones import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
REL = 1e-9


def read_rows(path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["eps1", "eps2", "classification", "witness_x2", "witness_x3", "min_minor"]
        return {(float(r[0]), float(r[1])): (r[2], *map(float, r[3:])) for r in reader}


def assert_rows_match(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for cell, (kind, *values) in want.items():
        assert got[cell][0] == kind, cell
        for a, b in zip(got[cell][1:], values):
            assert a == b or abs(a - b) <= REL * max(abs(a), abs(b)) or (math.isnan(a) and math.isnan(b)), cell


def test_d8_plane_matches_reference(tmp_path):
    cone = vc.cone_from_algebra(vc.rank3_special(vc.build_clifford_module(8)))
    rows = vc.scan_parameter_plane(
        cone,
        [-2.0 + 0.5 * k for k in range(9)],
        [-1.0 + 0.25 * k for k in range(9)],
        vc.DiagonalGrid(n=12),
        vc.SearchGrid(n=12),
    )
    vc.scan_to_csv(rows, tmp_path / "d8.csv")
    want = read_rows(REFERENCE / "scan_d8.csv")
    assert len(want) == 81
    assert_rows_match(read_rows(tmp_path / "d8.csv"), want)


def test_d1_cli_plane_matches_reference(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"rank": 3, "dim_v": 1, "multiplicity": 1}))
    out = tmp_path / "d1.csv"
    args = ["scan", "--spec", str(path), "--eps1=-1:1:0.5", "--eps2=-0.5:0.5:0.25", "--grid", "8"]
    assert cli.main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    want = read_rows(REFERENCE / "scan_d1.csv")
    assert len(want) == 25
    assert_rows_match(read_rows(out), want)
