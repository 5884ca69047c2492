"""What a process loads: ``cubics`` is imported on first use only, so the
CLI's ``build`` and ``eval`` never load it, while every name the package
exports still resolves.  Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name of the package; the names that only repeated others
# (dual_cone, characteristic_exponents, anti_transpose_triangular) are gone
EXPORTED = [
    "AlgebraMismatchError", "CliffordModule", "CliffordRelationError", "ConeDescriptor", "DiagonalGrid",
    "DiagonalReport", "DimensionMismatchError", "GroupCoordinates", "HermMatrix", "HessianReport",
    "IndefiniteSignatureError", "InvariantCubic", "MAX_GAMMA_ENTRIES", "MetricSpace", "ModuleTooLargeError",
    "NilAlgebra", "OutsideConeError", "ScanCell", "SearchGrid", "SpecError", "TriangularElement", "VinbergError",
    "admissibility_on_diagonal", "anti_transpose", "build_clifford_module",
    "characteristic_degree", "characteristic_function", "clifford",
    "clifford_bilinear", "clifford_mult", "clifford_mult_adjoint", "cone", "cone_from_algebra", "cubic_hessian",
    "cubics", "d_prime", "d_prime_via_dual", "det_cubic", "dual_algebra", "dual_membership", "errors",
    "eval_cubic", "find_locally_admissible_point", "g_determinant_sq", "gradient", "group_coordinates",
    "herm_from_json", "herm_from_triangular", "herm_from_triangular_star", "herm_from_vector", "herm_identity",
    "herm_pairing", "hessian_log", "identity_triangular", "membership", "minimal_spinor_dim", "nilalgebra",
    "p_polynomials", "random_triangular", "rank2_algebra", "rank3_special",
    "scan_parameter_plane", "scan_to_csv", "tangent_restriction", "triangular_product", "verify_isometry",
]

# runs the CLI as ``python -m vinberg_cones ARGS`` does, then reports on stderr
# whether cubics was loaded
RUN_MAIN = """
import runpy, sys
sys.argv[0] = "vinberg_cones"
try:
    runpy.run_module("vinberg_cones", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(f"exit={code} cubics={'vinberg_cones.cubics' in sys.modules}", file=sys.stderr)
"""


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out


def fresh_json(code: str):
    return json.loads(fresh(code).stdout)


def test_import_does_not_load_cubics():
    loaded = fresh_json(
        "import json, sys\n"
        "import vinberg_cones.cli, vinberg_cones.clifford, vinberg_cones.cone, vinberg_cones.nilalgebra\n"
        "print(json.dumps('vinberg_cones.cubics' in sys.modules))"
    )
    assert loaded is False


def test_cli_loads_neither_fractions_nor_decimal(files):
    # a cone's exponents are floats: neither the CLI's import nor its build
    # and eval runs load fractions, or decimal, which fractions imports
    assert fresh_json(
        "import json, sys\n"
        "import vinberg_cones.cli\n"
        "print(json.dumps(sorted({'fractions', 'decimal'} & set(sys.modules))))"
    ) == []
    spec, point, _ = files
    report = "print(sorted({'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)\n"
    for args in (("build", "--spec", spec), ("eval", "--spec", spec, "--op", "chi", point)):
        result = fresh(RUN_MAIN + report, *map(str, args))
        assert result.stderr.splitlines()[-2:] == ["exit=0 cubics=False", "[]"]


@pytest.fixture
def files(tmp_path):
    spec = tmp_path / "d1.json"
    spec.write_text(json.dumps({"rank": 3, "dim_v": 1, "multiplicity": 1}))
    point = tmp_path / "x.json"
    point.write_text(json.dumps({"rank": 3, "diag": [2.0, 2.0, 2.0], "offdiag": {"12": [0.5]}}))
    return spec, point, tmp_path / "scan.csv"


@pytest.mark.parametrize(
    "command, loads",
    [
        (("build", "--spec", "{spec}"), False),
        (("eval", "--spec", "{spec}", "--op", "d", "{point}"), False),
        (("eval", "--spec", "{spec}", "--op", "decompose", "{point}"), False),
        (("scan", "--spec", "{spec}", "--eps1=0:0:1", "--eps2=0:0:1", "--grid", "4", "--out", "{out}"), True),
        (("selftest", "--spec", "{spec}"), True),
    ],
    ids=["build", "eval-d", "eval-decompose", "scan", "selftest"],
)
def test_subcommands_load_cubics_only_when_they_use_it(files, command, loads):
    spec, point, out = files
    args = [a.format(spec=spec, point=point, out=out) for a in command]
    result = fresh(RUN_MAIN, *args)
    assert result.stderr.splitlines()[-1] == f"exit=0 cubics={loads}"


def test_every_exported_name_resolves_and_is_listed():
    got = fresh_json(
        "import json, sys, vinberg_cones as vc\n"
        "listed = sorted(n for n in dir(vc) if not n.startswith('_'))\n"
        "before = 'vinberg_cones.cubics' in sys.modules\n"
        f"missing = [n for n in {EXPORTED!r} if getattr(vc, n, None) is None]\n"
        "print(json.dumps({'listed': listed, 'before': before, 'missing': missing,\n"
        "                  'same': vc.cubics is sys.modules['vinberg_cones.cubics'],\n"
        "                  'bound': vc.__dict__.get('gradient') is vc.cubics.gradient}))"
    )
    assert got == {"listed": EXPORTED, "before": False, "missing": [], "same": True, "bound": True}


def test_star_import_takes_every_exported_name():
    names = fresh_json(
        "import json\nfrom vinberg_cones import *\n"
        "print(json.dumps(sorted(n for n in dir() if not n.startswith('_') and n != 'json')))"
    )
    assert names == EXPORTED


def test_one_name_per_object():
    # cone.dual, the cached ConeDescriptor.characteristic_exponents,
    # anti_transpose and cli._fmt are the only names of their objects
    from vinberg_cones import cli, cone, nilalgebra

    for mod, name in [(cone, "dual_cone"), (cone, "characteristic_exponents"),
                      (nilalgebra, "anti_transpose_triangular"), (cli, "dumps17")]:
        assert not hasattr(mod, name), name


def test_unknown_attribute_raises():
    got = fresh_json(
        "import json, sys, vinberg_cones as vc\n"
        "try:\n    vc.no_such_name\n    raised = False\nexcept AttributeError as exc:\n    raised = str(exc)\n"
        "print(json.dumps([raised, hasattr(vc, 'cubic'), 'vinberg_cones.cubics' in sys.modules]))"
    )
    assert got == ["module 'vinberg_cones' has no attribute 'no_such_name'", False, False]
