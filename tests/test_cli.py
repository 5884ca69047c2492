import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vinberg_cones import cli
from vinberg_cones import cone as cone_mod

from _support import per_block_draws


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def spec3(tmp_path):
    return write_json(tmp_path / "spec3.json", {"rank": 3, "dim_v": 1, "mult": 1})


@pytest.fixture
def spec2(tmp_path):
    return write_json(tmp_path / "spec2.json", {"rank": 2, "dim_w": 9})


class TestBuild:
    def test_rank3_scalar(self, spec3, capsys):
        assert cli.main(["build", "--spec", spec3]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dim_herm"] == 6
        assert out["exponents"] == [2, 2, 2]

    def test_rank2(self, spec2, capsys):
        assert cli.main(["build", "--spec", spec2]) == 0
        assert json.loads(capsys.readouterr().out)["dim_herm"] == 11

    def test_rank3_octonionic(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", {"rank": 3, "dim_v": 8, "multiplicity": 1})
        assert cli.main(["build", "--spec", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dim_herm"] == 27
        assert out["dim_s"] == 8

    def test_unknown_field_rejected(self, tmp_path):
        spec = write_json(tmp_path / "s.json", {"rank": 3, "dim_v": 1, "bogus": 1})
        assert cli.main(["build", "--spec", spec]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["build", "--spec", str(p)]) == 2

    def test_both_mult_spellings_rejected_together(self, tmp_path):
        spec = write_json(
            tmp_path / "s.json", {"rank": 3, "dim_v": 1, "mult": 1, "multiplicity": 1}
        )
        assert cli.main(["build", "--spec", spec]) == 2

    def test_non_integer_dim_rejected(self, tmp_path):
        spec = write_json(tmp_path / "s.json", {"rank": 3, "dim_v": "eight"})
        assert cli.main(["build", "--spec", spec]) == 2

    def test_zero_dim_rejected(self, tmp_path):
        spec = write_json(tmp_path / "s.json", {"rank": 3, "dim_v": 0})
        assert cli.main(["build", "--spec", spec]) == 2

    def test_module_above_size_bound_exits_3(self, tmp_path):
        # before the bound, this spec ran for over ten minutes with growing memory
        spec = write_json(tmp_path / "s.json", {"rank": 3, "dim_v": 24})
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "vinberg_cones", "build", "--spec", spec],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert out.returncode == 3
        assert out.stdout == ""
        assert "MAX_GAMMA_ENTRIES" in out.stderr


class TestEval:
    def identity3(self, tmp_path):
        return write_json(
            tmp_path / "I.json",
            {"rank": 3, "diag": [1, 1, 1], "offdiag": {"12": [0], "13": [0], "23": [0]}},
        )

    def test_det_at_identity(self, spec3, tmp_path, capsys):
        assert cli.main(["eval", "--spec", spec3, "--op", "d", self.identity3(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["d"] == 1.0

    def test_p_values(self, spec3, tmp_path, capsys):
        X = write_json(
            tmp_path / "X.json",
            {"rank": 3, "diag": [2, 2, 2], "offdiag": {"12": [1], "13": [1], "23": [1]}},
        )
        assert cli.main(["eval", "--spec", spec3, "--op", "p", X]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == [8.0, 3.0, 2.0]

    def test_membership_false(self, spec2, tmp_path, capsys):
        spec = write_json(tmp_path / "s2.json", {"rank": 2, "dim_w": 1})
        X = write_json(
            tmp_path / "X.json", {"rank": 2, "diag": [1, 1], "offdiag": {"12": [2]}}
        )
        assert cli.main(["eval", "--spec", spec, "--op", "membership", X]) == 0
        assert json.loads(capsys.readouterr().out)["member"] is False

    def test_decompose_roundtrip_residual(self, spec3, tmp_path, capsys):
        X = write_json(
            tmp_path / "X.json",
            {"rank": 3, "diag": [2, 2, 2], "offdiag": {"12": [1], "13": [1], "23": [1]}},
        )
        assert cli.main(["eval", "--spec", spec3, "--op", "decompose", X]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["residual"] <= 1e-9
        assert len(out["diag"]) == 3

    @pytest.mark.parametrize("scale", [1e-15, 1e15])
    @pytest.mark.parametrize("rank", [2, 3])
    def test_decompose_at_every_scale(self, tmp_path, capsys, rank, scale):
        spec = write_json(tmp_path / "spec.json", {"rank": rank, "dim_v": 1} if rank == 3 else {"rank": 2, "dim_w": 2})
        offdiag = {"12": [0, 0]} if rank == 2 else {"12": [0], "13": [0], "23": [0]}
        X = write_json(tmp_path / "X.json", {"rank": rank, "diag": [scale] * rank, "offdiag": offdiag})
        assert cli.main(["eval", "--spec", spec, "--op", "decompose", X]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["diag"] == pytest.approx([scale**0.5] * rank, rel=1e-15)
        assert out["residual"] <= 1e-15

    def test_decompose_outside_cone_fails(self, spec3, tmp_path):
        X = write_json(
            tmp_path / "X.json",
            {"rank": 3, "diag": [1, 1, -1], "offdiag": {"12": [0], "13": [0], "23": [0]}},
        )
        assert cli.main(["eval", "--spec", spec3, "--op", "decompose", X]) == 1

    def test_unknown_op(self, spec3, tmp_path):
        assert cli.main(["eval", "--spec", spec3, "--op", "nope", self.identity3(tmp_path)]) == 2

    def test_unknown_op_rejected_before_the_cone_is_built(self, tmp_path, monkeypatch, capsys):
        # a d16 spec would first build the whole module and run its exact checks
        spec = write_json(tmp_path / "d16.json", {"rank": 3, "dim_v": 16})

        def no_build(obj):
            raise AssertionError("parse_spec called for an unknown op")

        monkeypatch.setattr(cli, "parse_spec", no_build)
        assert cli.main(["eval", "--spec", spec, "--op", "nope", self.identity3(tmp_path)]) == 2
        assert "unknown op 'nope'" in capsys.readouterr().err

    def test_wrong_shape_point_rejected(self, spec3, tmp_path):
        X = write_json(
            tmp_path / "X.json", {"rank": 3, "diag": [1, 1, 1], "offdiag": {"12": [0, 0]}}
        )
        assert cli.main(["eval", "--spec", spec3, "--op", "d", X]) == 2

    @pytest.mark.parametrize(
        "point,message",
        [
            ({"rank": 3, "diag": [1, 1, 1], "offdiag": {"31": [1]}}, "unknown offdiag blocks"),
            ({"rank": 3, "diag": [1, 1, 1], "extra": 0}, "unknown Hermitian-matrix fields"),
            ({"rank": 3, "diag": [1, float("nan"), 1]}, "non-finite"),
            # strings and booleans were read as numbers, with exit 0
            ({"rank": 3, "diag": [1, 2, "3"]}, "list of JSON numbers"),
            ({"rank": 3, "diag": [True, 2, 3]}, "list of JSON numbers"),
            ({"rank": 3, "diag": [1, 2, 3], "offdiag": {"12": ["0.5"]}}, "list of JSON numbers"),
            ({"rank": 3, "diag": [1, 2, 3], "offdiag": {"23": [False]}}, "list of JSON numbers"),
            # an integer beyond float range ended in a traceback
            ({"rank": 3, "diag": [1, 2, 10**400]}, "int too large"),
        ],
    )
    def test_bad_point_rejected(self, spec3, tmp_path, capsys, point, message):
        X = write_json(tmp_path / "X.json", point)
        assert cli.main(["eval", "--spec", spec3, "--op", "decompose", X]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("op", ["p", "d", "dprime", "chi"])
    def test_non_finite_result_fails(self, spec3, tmp_path, capsys, op):
        # the p_i overflow at this scale: chi read nan and the others bare
        # inf, with exit 0
        X = write_json(tmp_path / "X.json", {"rank": 3, "diag": [1e200, 2e200, 3e200]})
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["eval", "--spec", spec3, "--op", op, X]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_non_finite_decomposition_fails(self, spec3, tmp_path, capsys, monkeypatch):
        real = cone_mod.group_coordinates

        def overflowing(cone, X):
            gc = real(cone, X)
            return cone_mod.GroupCoordinates(gc.element, {"diag": float("inf")})

        monkeypatch.setattr(cone_mod, "group_coordinates", overflowing)
        assert cli.main(["eval", "--spec", spec3, "--op", "decompose", self.identity3(tmp_path)]) == 1
        assert capsys.readouterr().out == ""

    def test_chi_dprime(self, spec3, tmp_path, capsys):
        I = self.identity3(tmp_path)
        assert cli.main(["eval", "--spec", spec3, "--op", "chi", I]) == 0
        assert json.loads(capsys.readouterr().out)["chi"] == 1.0
        assert cli.main(["eval", "--spec", spec3, "--op", "dprime", I]) == 0
        assert json.loads(capsys.readouterr().out)["dprime"] == 1.0


class TestScan:
    def test_grid_cardinality_and_determinism(self, spec3, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["scan", "--spec", spec3, "--eps1=-2:2:0.5", "--eps2=-1:1:0.25", "--grid", "6"]
        assert cli.main(args + ["--out", out1]) == 0
        assert cli.main(args + ["--out", out2]) == 0
        capsys.readouterr()
        rows1 = open(out1, "rb").read()
        assert rows1 == open(out2, "rb").read()
        assert len(rows1.decode().splitlines()) == 1 + 9 * 9

    def test_classification_rows(self, spec3, tmp_path, capsys):
        out = str(tmp_path / "c.csv")
        assert (
            cli.main(
                [
                    "scan",
                    "--spec",
                    spec3,
                    "--eps1=-0.5:0.5:0.5",
                    "--eps2=-0.5:0.5:0.5",
                    "--grid",
                    "8",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        capsys.readouterr()
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        for eps1, eps2, cls, *_ in rows:
            if float(eps2) > 0:
                assert cls == "not-admissible"
            if float(eps2) == 0:
                assert cls == "admissible-on-sample"

    def test_indefinite_unsupported(self, tmp_path):
        spec = write_json(
            tmp_path / "s.json", {"rank": 3, "dim_v": 2, "signature": [1, 1]}
        )
        rc = cli.main(
            ["scan", "--spec", spec, "--eps1=0:0:1", "--eps2=0:0:1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 3

    def test_rank2_unsupported(self, spec2, tmp_path):
        rc = cli.main(
            ["scan", "--spec", spec2, "--eps1=0:0:1", "--eps2=0:0:1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 3

    def test_bad_range(self, spec3, tmp_path):
        rc = cli.main(
            ["scan", "--spec", spec3, "--eps1=1:0:1", "--eps2=0:0:1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2


class TestSelftest:
    def test_default_spec_passes(self, capsys):
        assert cli.main(["selftest", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert "FAIL" not in out

    def test_spec_file(self, spec3, capsys):
        assert cli.main(["selftest", "--spec", spec3, "--seed", "5"]) == 0
        assert "decomposition-roundtrip" in capsys.readouterr().out

    @pytest.mark.parametrize("in_spec", [True, False], ids=["spec-seed", "seed-option"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, in_spec):
        # numpy rejects a negative seed; it ended in a traceback (exit 1)
        spec = write_json(tmp_path / "s.json", {"rank": 3, "dim_v": 1, "seed": -1})
        assert cli.main(["selftest", *(["--spec", spec] if in_spec else ["--seed", "-5"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0" in captured.err

    @pytest.mark.parametrize("seed", [0, 2**64])
    def test_extreme_seeds_run(self, tmp_path, capsys, seed):
        spec = write_json(tmp_path / "s.json", {"rank": 3, "dim_v": 1, "seed": seed})
        assert cli.main(["selftest", "--spec", spec]) == 0
        assert cli.main(["selftest", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.count("selftest passed") == 2

    def test_dim_v_16_passes(self, tmp_path, capsys):
        spec = write_json(tmp_path / "d16.json", {"rank": 3, "dim_v": 16})
        assert cli.main(["selftest", "--spec", spec]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 14
        assert all(line.startswith("PASS ") for line in lines[:-1]), lines
        assert lines[-1] == "selftest passed (0 failing invariants)"

    @pytest.mark.parametrize(
        "spec",
        [
            {"rank": 3, "dim_v": 2, "signature": [1, 1]},
            {"rank": 3, "dim_v": 3, "signature": [2, 1]},
            {"rank": 2, "dim_w": 3, "signature": [1, 2]},
        ],
        ids=str,
    )
    def test_indefinite_signature_passes(self, tmp_path, capsys, spec):
        # chi and the pairing with the dual cone need the open cone of a
        # Euclidean algebra; the suite skips them, as it skips the cubics
        path = write_json(tmp_path / "spec.json", spec)
        assert cli.main(["selftest", "--spec", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.splitlines()[-1] == "selftest passed (0 failing invariants)"
        assert "unipotent-invariance-p" in out
        for skipped in ("unipotent-invariance-chi", "dual-pairing-positivity", "hessian-log"):
            assert skipped not in out

    def test_corrupt_gamma_negative_control(self, spec3, capsys):
        assert cli.main(["selftest", "--spec", spec3, "--corrupt-gamma"]) == 1
        out = capsys.readouterr().out
        assert "FAIL clifford-isometry" in out

    @pytest.mark.parametrize(
        "spec",
        [{"dim_v": 2}, {"dim_v": 8}, {"dim_v": 4, "multiplicity": 2}],
        ids=str,
    )
    def test_corrupt_gamma_fails_the_same_invariants(self, tmp_path, capsys, spec):
        # the bumped entry keeps the gammas monomial, so the algebra builds
        # and the suite, not the constructor, reports the corruption
        path = write_json(tmp_path / "spec.json", {"rank": 3, **spec})
        assert cli.main(["selftest", "--spec", path, "--corrupt-gamma"]) == 1
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert failed == [
            "FAIL clifford-isometry",
            "FAIL clifford-polarized-relation",
            "FAIL diag-coordinate-identity",
            "FAIL determinant-factorization",
            "FAIL unipotent-invariance-p",
        ]


class TestUsage:
    def test_no_command(self):
        assert cli.main([]) == 2

    def test_missing_file(self):
        assert cli.main(["build", "--spec", "/nonexistent/spec.json"]) == 2


def _run_cli(*args, timeout=30):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "vinberg_cones", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestScanBounds:
    @pytest.mark.parametrize(
        "eps1",
        ["nan:1:1", "0:inf:1", "-inf:0:1", "0:1:nan", "0:1:inf", "-1e308:1e308:1", "0:1:1e-320"],
    )
    def test_non_finite_or_overflowing_range_exits_2(self, spec3, tmp_path, capsys, eps1):
        out = tmp_path / "x.csv"
        rc = cli.main(["scan", "--spec", spec3, f"--eps1={eps1}", "--eps2=0:0:1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "range" in err
        assert not out.exists()

    def test_range_above_bound_exits_2_quickly(self, spec3, tmp_path):
        # before the bound, 0:1:1e-9 built 10^9 cells and ran past a 10 s timeout
        out = _run_cli(
            "scan", "--spec", spec3, "--eps1=0:1:1e-9", "--eps2=0:0:1", "--out", str(tmp_path / "x.csv"),
            timeout=20,
        )
        assert out.returncode == 2
        assert "MAX_RANGE_VALUES" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("text,want", [("0:1:0.6", [0.0, 0.6]), ("0:10:6", [0.0, 6.0]), ("0:0:1", [0.0])])
    def test_range_stops_at_hi(self, text, want):
        # a fractional (HI - LO) / STEP above 0.5 once rounded up to a value past HI
        assert cli._parse_range(text) == want

    def test_range_values_fill_lo_to_hi(self):
        # every value in [LO, HI] up to rounding, and the next step past HI
        for lo in (-2.0, -0.5, 0.0, 0.1, 3.0):
            for width in (0.0, 0.3, 1.0, 2.5, 7.0, 10.0):
                for step in (0.1, 0.25, 0.3, 0.5, 0.6, 1.0, 1.5, 6.0, 20.0):
                    hi = lo + width
                    got = cli._parse_range(f"{lo!r}:{hi!r}:{step!r}")
                    assert got[0] == lo and all(lo <= v <= hi + 1e-9 * step for v in got), (lo, hi, step)
                    assert lo + len(got) * step > hi, (lo, hi, step)
        assert len(cli._parse_range("0:0.3:0.1")) == 4
        assert len(cli._parse_range("-2:2:0.5")) == 9

    def test_range_bound_is_exact(self):
        n = cli.MAX_RANGE_VALUES
        assert len(cli._parse_range(f"0:{n - 1}:1")) == n
        with pytest.raises(cli.SpecError, match="MAX_RANGE_VALUES"):
            cli._parse_range(f"0:{n}:1")

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exits_2(self, spec3, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        rc = cli.main(
            ["scan", "--spec", spec3, "--eps1=0:0:1", "--eps2=0:0:1", "--grid", grid, "--out", str(out)]
        )
        assert rc == 2
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_above_bound_exits_2(self, spec3, tmp_path, capsys):
        # a cell's sweep holds about grid**2 points; unbounded, memory had no limit
        out = tmp_path / "x.csv"
        grid = str(cli.MAX_GRID + 1)
        rc = cli.main(
            ["scan", "--spec", spec3, "--eps1=0:0:1", "--eps2=0:0:1", "--grid", grid, "--out", str(out)]
        )
        assert rc == 2
        assert "MAX_GRID" in capsys.readouterr().err
        assert not out.exists()

    def test_extreme_cell_fails_without_a_numpy_warning(self, spec3, tmp_path):
        # q rounds to 0 at kept slice points of this cell: the sweep raises
        # before it divides the block scalars by q, so stderr holds only the
        # failure line
        out = tmp_path / "x.csv"
        run = _run_cli(
            "scan", "--spec", spec3, "--eps1=1e12:1e12:1", "--eps2=-1e12:-1e12:1", "--grid", "12",
            "--out", str(out),
        )
        assert run.returncode == 1
        assert run.stderr == "failure: projection onto the level set requires q(X) > 0\n"
        assert not out.exists()

    def test_grid_at_bound_runs(self, spec3, tmp_path):
        out = tmp_path / "x.csv"
        grid = str(cli.MAX_GRID)
        rc = cli.main(
            ["scan", "--spec", spec3, "--eps1=0:0:1", "--eps2=0:0:1", "--grid", grid, "--out", str(out)]
        )
        assert rc == 0 and out.exists()


class TestSpecValues:
    @pytest.mark.parametrize(
        "spec",
        [
            {"rank": 3, "dim_v": True},
            {"rank": 3, "dim_v": 2.0},
            {"rank": 3, "dim_v": "2"},
            {"rank": 2, "dim_w": 2.7},
            {"rank": 2, "dim_w": False},
            {"rank": 3.0, "dim_v": 1},
            {"rank": True, "dim_w": 1},
            {"rank": 3, "dim_v": 1, "multiplicity": 1.5},
            {"rank": 3, "dim_v": 1, "mult": True},
            {"rank": 3, "dim_v": 1, "seed": 1.0},
            {"rank": 2, "dim_w": 1, "seed": "1"},
            {"rank": 2, "dim_w": 1, "signature": [1]},
            {"rank": 2, "dim_w": 2, "signature": [1, 1, 0]},
            {"rank": 2, "dim_w": 2, "signature": [1.0, 1]},
            {"rank": 3, "dim_v": 2, "signature": [1, True]},
            {"rank": 3, "dim_v": 2, "signature": "11"},
            {"rank": 3, "dim_v": 2, "signature": {"p": 1, "q": 1}},
            {"rank": 2, "dim_w": 0},
            {"rank": 2, "dim_w": -5000},
            {"rank": 2, "dim_w": 1, "signature": [-10**9, 10**9 + 1]},
        ],
    )
    def test_non_integer_values_exit_2(self, tmp_path, capsys, spec):
        path = write_json(tmp_path / "s.json", spec)
        assert cli.main(["build", "--spec", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "positional argument" not in err

    def test_parse_spec_returns_exact_values(self):
        cone, module, seed = cli.parse_spec({"rank": 3, "dim_v": 2, "signature": [1, 1], "seed": 7})
        assert (cone.dim_herm, module.dim_v, module.v_space.signature, seed) == (13, 2, (1, 1), 7)

    def test_rank2_above_size_bound_exits_3_quickly(self, tmp_path):
        # before the bound, dim_w = 20000 needed a 3 GB Gram matrix and hours of eigvalsh
        spec = write_json(tmp_path / "s.json", {"rank": 2, "dim_w": 20000})
        out = _run_cli("build", "--spec", spec)
        assert out.returncode == 3
        assert out.stdout == ""
        assert "MAX_GAMMA_ENTRIES" in out.stderr

    def test_rank2_size_bound_is_dim_w_squared(self):
        dim_w = int(cli.MAX_GAMMA_ENTRIES**0.5) + 1
        assert (dim_w - 1) ** 2 <= cli.MAX_GAMMA_ENTRIES < dim_w**2
        with pytest.raises(cli.ModuleTooLargeError, match="dim_w"):
            cli.parse_spec({"rank": 2, "dim_w": dim_w})
        with pytest.raises(cli.ModuleTooLargeError):
            cli.parse_spec({"rank": 2, "dim_w": dim_w, "signature": [dim_w, 0]})

    def test_huge_dim_v_exits_3_quickly(self, tmp_path):
        # the spinor dimension 16**(dim_v / 8) is never computed
        spec = write_json(tmp_path / "s.json", {"rank": 3, "dim_v": 10**12})
        out = _run_cli("build", "--spec", spec)
        assert out.returncode == 3
        assert "MAX_GAMMA_ENTRIES" in out.stderr


def per_sample_draws(alg, rng, n, k=1):
    """The self-test's samples drawn one at a time, in n rounds of k: the
    stream ``_draws`` reproduces."""
    vecs = per_block_draws(alg, rng, n * k)
    return [vecs[j::k] for j in range(k)]


DRAW_CONES = {
    "w4": {"rank": 2, "dim_w": 4},
    "w9": {"rank": 2, "dim_w": 9},
    "d1": {"rank": 3, "dim_v": 1},
    "d8": {"rank": 3, "dim_v": 8},
    "d4x2": {"rank": 3, "dim_v": 4, "multiplicity": 2},
}


class TestDraws:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("tag", DRAW_CONES)
    def test_one_call_gives_the_per_sample_stream(self, tag, k):
        alg = cli.parse_spec(DRAW_CONES[tag])[0].algebra
        for seed in (0, 1, 7, 2**64):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in (1, 5, 50):
                got = cli._draws(alg, got_rng, n, k)
                want = per_sample_draws(alg, want_rng, n, k)
                assert len(got) == k
                for A, w in zip(got, want):
                    assert isinstance(A, cli.TriangularElement) and A.algebra is alg
                    assert np.array_equal(A.to_vector(), w)
                    assert A.to_vector().flags.c_contiguous and not A.to_vector().flags.writeable
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def run_selftest(capsys, spec_path, seed="1") -> str:
    assert cli.main(["selftest", "--spec", spec_path, "--seed", seed]) == 0
    return capsys.readouterr().out


class TestSelftestStdout:
    """The full stdout, residual digits included."""

    SPECS = {
        "d1": {"rank": 3, "dim_v": 1, "multiplicity": 1},
        "d8": {"rank": 3, "dim_v": 8},
        "w9": {"rank": 2, "dim_w": 9},
        "split-d2": {"rank": 3, "dim_v": 2, "signature": [1, 1]},
    }
    # sha256 of the stdout of ``selftest --seed 1`` when every sample was drawn
    # one at a time, taken on x86-64 (numpy 2.4, OpenBLAS): another BLAS
    # kernel or SIMD loop changes the last bits of some residuals
    DIGESTS = {
        "d1": "5b6999f91b0164a146507b612658a3a56985dcf5bf056282dc5fb5e77acd5b82",
        "d8": "9cda8e3aa1b34db616e3dff080326201c391ffebdf395a2b4dbaa1c2b5ffb50c",
        "w9": "d4a0306451b7e69ed37b48f3ac717a227881238aff1fd17922b61dc015f4ea9f",
    }

    def per_sample_stdout(self, capsys, monkeypatch, path) -> str:
        def draws(alg, rng, n, k=1):
            return [cli.TriangularElement._from_flat(alg, v.copy()) for v in per_sample_draws(alg, rng, n, k)]

        def one(alg, rng):
            return cli.TriangularElement._from_flat(alg, per_sample_draws(alg, rng, 1)[0][0].copy())

        with monkeypatch.context() as m:
            m.setattr(cli, "_draws", draws)
            m.setattr(cli, "random_triangular", one)
            return run_selftest(capsys, path)

    @pytest.mark.parametrize("tag", SPECS)
    def test_same_bytes_as_drawing_one_sample_at_a_time(self, tmp_path, capsys, monkeypatch, tag):
        path = write_json(tmp_path / "spec.json", self.SPECS[tag])
        got = run_selftest(capsys, path)
        assert got == self.per_sample_stdout(capsys, monkeypatch, path)
        assert got.endswith("selftest passed (0 failing invariants)\n")

    @pytest.mark.parametrize("tag", DIGESTS)
    def test_digest(self, tmp_path, capsys, monkeypatch, tag):
        path = write_json(tmp_path / "spec.json", self.SPECS[tag])
        digest = hashlib.sha256(self.per_sample_stdout(capsys, monkeypatch, path).encode()).hexdigest()
        if digest != self.DIGESTS[tag]:
            pytest.skip("this host's arithmetic gives other residual bits than the recorded run")
        assert hashlib.sha256(run_selftest(capsys, path).encode()).hexdigest() == self.DIGESTS[tag]
