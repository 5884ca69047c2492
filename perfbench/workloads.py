"""The three benchmark workloads and the layer passes of a traced run.

Each workload is one closed-loop client: ``op`` runs one operation against
the library's public API (or one CLI subprocess), ``check`` compares its
output with a reference and returns ``None`` or the reason it failed.
Work comes in whole rounds: ``rounds`` yields one list of ops per round,
the same ops in the same place of the list every round, and the runner
shuffles their order.  ``key`` names an op, so that the runner can take
each op at its median time over the run.  ``setup_reps`` is how many
set-ups a run times; with ``fresh_setup`` all but the first run in a fresh
process each.  ``kernel`` names the parts of the calibration kernel
(``calibrate.PARTS``) that do the kinds of work the workload's time goes to.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import vinberg_cones as vc
from vinberg_cones.cubics import ADMISSIBLE_ON_SAMPLE, LOCALLY_ADMISSIBLE, NOT_ADMISSIBLE, PD

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"

RANK2_DIMS = (1, 4, 9)
RANK3_DIMS = (1, 2, 4, 8, 16)
LADDER = tuple(f"w{w}" for w in RANK2_DIMS) + tuple(f"d{d}" for d in RANK3_DIMS)

# the ROADMAP epsilon plane, spaced exactly as the CLI's LO:HI:STEP parser does
EPS1 = [-2.0 + 0.5 * k for k in range(9)]
EPS2 = [-1.0 + 0.25 * k for k in range(9)]
GRID_N = 12  # CLI default --grid; the CLI uses SearchGrid(n=max(8, grid))

# acceptance criterion 10's scan
D1_EPS1, D1_EPS2, D1_GRID = "-1:1:0.5", "-0.5:0.5:0.25", "8"

# fixed diagonal slice points (x2, x3) of q = d + 0.5 p2 p3 - 0.25 p3^3
PROBE_EPS = (0.5, -0.25)
PROBE_X23 = ((0.5, 0.5), (1.0, 1.0), (2.0, 0.5))
# local-search probes on d8, on a grid that keeps off the corner x2 = x3 = 0.1
# where every cubic of the family is found at the first point: (2, -1) is
# found after a few points, (-1, 0.25) is not found after a full sweep
LOCAL_EPS = ((2.0, -1.0), (-1.0, 0.25))
LOCAL_GRID = vc.SearchGrid(lo=1.0, hi=10.0, n=20)

TOY_STRIDE = 7  # the toy scan takes every 7th cell of the plane, 12 cells
REL_ROW = 1e-9  # witness coordinates and min_minor may change by rounding


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def read_scan_csv(path) -> dict:
    """{(eps1, eps2): (classification, witness_x2, witness_x3, min_minor)}"""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {
            (float(r[0]), float(r[1])): (r[2], float(r[3]), float(r[4]), float(r[5]))
            for r in reader
        }


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def row_mismatch(got: tuple, ref: tuple | None) -> str | None:
    """``got`` and ``ref`` are (classification, x2, x3, min_minor)."""
    if ref is None:
        return "no reference row"
    if got[0] != ref[0]:
        return f"classification {got[0]} != {ref[0]}"
    for name, a, b in zip(("witness_x2", "witness_x3", "min_minor"), got[1:], ref[1:]):
        if not _close(a, b, REL_ROW):
            return f"{name} {a!r} != {b!r}"
    return None


def read_local_json(path) -> dict:
    """{(eps1, eps2): (x2, x3, min_minor) of the point found, or None}"""
    rows = json.loads(Path(path).read_text())
    return {tuple(r["eps"]): None if r["found"] is None else tuple(r["found"]) for r in rows}


def local_row(rep) -> tuple | None:
    return None if rep is None else (float(rep.point.diag[1]), float(rep.point.diag[2]), rep.min_minor)


def cell_row(cell) -> tuple:
    return (cell.classification, cell.witness_x2, cell.witness_x3, cell.min_minor)


def normalize_selftest(stdout: str) -> str:
    """Selftest stdout without the residual digits, which may differ in the
    last bits between CPUs; names, verdicts and thresholds stay."""
    return re.sub(r"residual=\S+", "residual=*", stdout)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def selftest_mismatch(stdout: str, digest: str) -> str | None:
    for line in stdout.splitlines()[:-1]:
        m = re.fullmatch(r"(PASS|FAIL) (\S+): residual=(\S+) threshold=(\S+)", line)
        if m is None:
            return f"unexpected line {line!r}"
        if m[1] != "PASS" or not float(m[3]) <= float(m[4]):
            return f"invariant {m[2]} failed"
    if sha256(normalize_selftest(stdout)) != digest:
        return "normalized stdout digest differs"
    return None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def build_ladder(tr) -> dict:
    """Every cone of the ladder, keyed w1..w9 / d1..d16."""
    cones = {}
    for w in RANK2_DIMS:
        cones[f"w{w}"] = vc.cone_from_algebra(vc.rank2_algebra(vc.MetricSpace.euclidean(w)))
    for d in RANK3_DIMS:
        module = tr.call("clifford.build_clifford_module", f"d{d}", vc.build_clifford_module, d)
        if d == 8:
            iso = tr.call("clifford.verify_isometry", "d8", vc.verify_isometry, module)
            if not iso <= 1e-12:
                raise RuntimeError(f"Clifford isometry violated by {iso}")
        cones[f"d{d}"] = vc.cone_from_algebra(vc.rank3_special(module))
    return cones


def random_element(alg, rng) -> "vc.TriangularElement":
    """Group element with the distribution of ``random_triangular``: diagonal
    uniform in [0.5, 2], off-diagonal entries uniform in [-1, 1]."""
    diag = rng.uniform(0.5, 2.0, alg.rank)
    off = {k: rng.uniform(-1.0, 1.0, alg.dim(k)) for k in alg.offdiag_keys}
    return vc.TriangularElement(alg, diag, off)


def triangular_error(R, A) -> float:
    """Max blockwise difference relative to the scale of A (acceptance 1)."""
    scale = float(np.max(np.abs(A.diag)))
    err = float(np.max(np.abs(R.diag - A.diag)))
    for k in A.algebra.offdiag_keys:
        scale = max(scale, float(np.max(np.abs(A.offdiag[k]), initial=0.0)))
        err = max(err, float(np.max(np.abs(R.offdiag[k] - A.offdiag[k]), initial=0.0)))
    return err / max(1.0, scale)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# scan-d8: one op is one cell of the epsilon plane
# ---------------------------------------------------------------------------


class ScanD8:
    name = "scan-d8"
    round_s = 5.0  # one pass over the 81 cells at the seed commit
    setup_reps = 10
    fresh_setup = True
    kernel = ("numpy", "lapack")  # tangent restrictions at dim_herm 27

    def setup(self, tr, work):
        module = tr.call("clifford.build_clifford_module", "d8", vc.build_clifford_module, 8)
        cone = vc.cone_from_algebra(vc.rank3_special(module))
        cells = [(e1, e2) for e1 in EPS1 for e2 in EPS2]
        return {
            "cone": cone,
            "grid": vc.DiagonalGrid(n=GRID_N),
            "search": vc.SearchGrid(n=max(8, GRID_N)),
            "cubics": {c: vc.InvariantCubic.rank3_family(cone, *c) for c in cells},
            "reference": read_scan_csv(REFERENCE / "scan_d8.csv"),
        }

    def rounds(self, ctx, seed, n, toy):
        cells = sorted(ctx["cubics"])[:: TOY_STRIDE if toy else 1]
        return iter([cells] * n)

    def key(self, i, cell):
        return cell

    def op(self, tr, ctx, cell):
        return tr.call(
            "cubics.scan_parameter_plane", "d8", vc.scan_parameter_plane,
            ctx["cone"], [cell[0]], [cell[1]], ctx["grid"], ctx["search"],
        )

    def check(self, ctx, cell, rows):
        if len(rows) != 1 or (rows[0].eps1, rows[0].eps2) != cell:
            return "expected exactly the requested cell"
        return row_mismatch(cell_row(rows[0]), ctx["reference"].get(cell))


# ---------------------------------------------------------------------------
# orbit-ladder: one op is one sample A on one cone, through the whole chain
# ---------------------------------------------------------------------------


class OrbitLadder:
    name = "orbit-ladder"
    round_s = 0.8  # SAMPLES elements on each of the 8 cones at the seed commit
    setup_reps = 5
    fresh_setup = True
    kernel = ("python", "numpy", "einsum")  # call-bound small cones, einsum-bound d16
    SAMPLES = 100

    def setup(self, tr, work):
        return {"cones": build_ladder(tr)}

    def rounds(self, ctx, seed, n, toy):
        """New elements for every round, made just before it, so that one
        round of inputs is alive at a time."""
        rng = np.random.default_rng(seed)
        k = 3 if toy else self.SAMPLES
        for _ in range(n):
            items = []
            for tag in LADDER:
                alg = ctx["cones"][tag].algebra
                elems = [random_element(alg, rng) for _ in range(k)]
                items += [(tag, A, elems[(i + 1) % k]) for i, A in enumerate(elems)]
            yield items

    def key(self, i, item):
        return i  # the same cone at the same place in every round

    def op(self, tr, ctx, item):
        tag, A, B = item
        cone = ctx["cones"][tag]
        call = tr.call
        X = call("nilalgebra.herm_from_triangular", tag, vc.herm_from_triangular, A)
        Y = call("nilalgebra.herm_from_triangular_star", tag, vc.herm_from_triangular_star, A)
        gc = call("cone.group_coordinates", tag, vc.group_coordinates, cone, X)
        ps = call("cone.p_polynomials", tag, vc.p_polynomials, cone, X)
        chi = call("cone.characteristic_function", tag, vc.characteristic_function, cone, X)
        if cone.rank == 3:
            det = call("cone.det_cubic", tag, vc.det_cubic, cone, X)
            dp = call("cone.d_prime", tag, vc.d_prime, cone, Y)
            dpv = call("cone.d_prime_via_dual", tag, vc.d_prime_via_dual, cone, Y)
        else:
            det, dp, dpv = ps[0], None, None
        dual = call("cone.dual_membership", tag, vc.dual_membership, cone, Y)
        pair = call("nilalgebra.herm_pairing", tag, vc.herm_pairing, X, Y)
        C = call("nilalgebra.triangular_product", tag, vc.triangular_product, A, B)
        return gc.element, ps, chi, det, dp, dpv, dual, pair, C

    def check(self, ctx, item, out):
        _, A, B = item
        R, ps, chi, det, dp, dpv, dual, pair, C = out
        pi2 = float(np.prod(A.diag)) ** 2
        if not triangular_error(R, A) <= 1e-9:
            return "group-coordinate roundtrip above 1e-9"
        if not _rel(det, pi2) <= 1e-10:
            return "det != (prod a_ii)^2 to 1e-10"
        for i, p in enumerate(ps):
            if not _rel(A.diag[i] ** 2 * float(np.prod(ps[i + 1 :])), p) <= 1e-10:
                return f"a_{i + 1}{i + 1}^2 identity fails for p_{i + 1}"
        if not (math.isfinite(chi) and chi > 0.0):
            return "characteristic function not positive"
        if dp is not None and not (abs(dp - dpv) / pi2 <= 1e-10 and _rel(dp, pi2) <= 1e-10):
            return "d' routes disagree or differ from (prod a_ii)^2"
        if dual is not True:
            return "A^* . A not in the dual cone"
        if not pair > 0.0:
            return "pairing not positive"
        if not np.array_equal(C.diag, A.diag * B.diag):
            return "product diagonal wrong"
        return None


# ---------------------------------------------------------------------------
# cli-batch: one op is one `python -m vinberg_cones` process, start to exit
# ---------------------------------------------------------------------------


def run_cli(ctx, args):
    proc = subprocess.run(
        [sys.executable, *args], env=ctx["env"], cwd=ctx["work"],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


EVAL_OPS = ("p", "d", "dprime", "chi", "membership", "decompose")


class CliBatch:
    name = "cli-batch"
    round_s = 10.0  # two batches of 10 processes at the seed commit
    setup_reps = 10
    fresh_setup = False  # the set-up is one fresh interpreter start
    kernel = ("python", "numpy", "einsum")

    def setup(self, tr, work):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        ctx = {"env": env, "work": work, "run": run_cli}
        specs = {
            "d16": {"rank": 3, "dim_v": 16},
            "d8": {"rank": 3, "dim_v": 8},
            "d1": {"rank": 3, "dim_v": 1, "multiplicity": 1},
            "w9": {"rank": 2, "dim_w": 9},
        }
        for tag, spec in specs.items():
            (work / f"{tag}.json").write_text(json.dumps(spec))
        rc, _ = tr.call("cli.startup", "", ctx["run"], ctx, ["-c", "import vinberg_cones"])
        if rc != 0:
            raise RuntimeError("import-only interpreter start failed")
        return ctx

    def rounds(self, ctx, seed, n, toy):
        rng = np.random.default_rng(seed)
        ctx["digests"] = json.loads((REFERENCE / "cli.json").read_text())
        ctx["scan_ref"] = read_scan_csv(REFERENCE / "scan_d1.csv")
        # a round of two batches has more than 10 ops, and so a tail
        return iter([self.batch(ctx, rng) * 2] * n)

    def batch(self, ctx, rng):
        """The ten commands; writes the seeded dim_v=8 point and the results
        the library API gives for it."""
        work = ctx["work"]
        cone = vc.cone_from_algebra(vc.rank3_special(vc.build_clifford_module(8)))
        A = random_element(cone.algebra, rng)
        X = vc.herm_from_triangular(A)
        (work / "x8.json").write_text(json.dumps(X.to_json()))
        gc = vc.group_coordinates(cone, X)
        ctx["A"] = A
        ctx["expect"] = {
            "p": {"op": "p", "p": list(vc.p_polynomials(cone, X))},
            "d": {"op": "d", "d": vc.det_cubic(cone, X)},
            "dprime": {"op": "dprime", "dprime": vc.d_prime(cone, X)},
            "chi": {"op": "chi", "chi": vc.characteristic_function(cone, X)},
            "membership": {"op": "membership", "member": vc.membership(cone, X)},
            "decompose": {
                "op": "decompose",
                "diag": list(gc.element.diag),
                "offdiag": {f"{i}{j}": list(gc.element.offdiag[(i, j)]) for (i, j) in cone.algebra.offdiag_keys},
                "residual": gc.max_residual,
            },
        }
        cli = ("-m", "vinberg_cones")
        return [
            ("build", "d16", cli + ("build", "--spec", str(work / "d16.json"))),
            ("selftest", "d8", cli + ("selftest", "--spec", str(work / "d8.json"), "--seed", "1")),
            ("selftest", "w9", cli + ("selftest", "--spec", str(work / "w9.json"), "--seed", "1")),
            ("scan", "d1", cli + ("scan", "--spec", str(work / "d1.json"), f"--eps1={D1_EPS1}",
                                  f"--eps2={D1_EPS2}", "--grid", D1_GRID, "--out", str(work / "d1.csv"))),
        ] + [
            ("eval", "d8", cli + ("eval", "--spec", str(work / "d8.json"), "--op", op, str(work / "x8.json")))
            for op in EVAL_OPS
        ]

    def key(self, i, item):
        return item[2]  # each command is twice in a round

    def op(self, tr, ctx, item):
        kind, tag, args = item
        return tr.call(f"cli.{kind}", tag, ctx["run"], ctx, args)

    def check(self, ctx, item, out):
        kind, tag, args = item
        rc, stdout = out
        if rc != 0:
            return f"exit code {rc}"
        if kind == "build":
            return None if sha256(stdout) == ctx["digests"]["build.d16"] else "stdout digest differs"
        if kind == "selftest":
            return selftest_mismatch(stdout, ctx["digests"][f"selftest.{tag}"])
        if kind == "scan":
            out_csv = ctx["work"] / "d1.csv"
            if stdout != f"wrote {len(ctx['scan_ref'])} rows to {out_csv}\n":
                return "unexpected stdout"
            got = read_scan_csv(out_csv)
            if sorted(got) != sorted(ctx["scan_ref"]):
                return "CSV cells differ"
            for cell, row in got.items():
                bad = row_mismatch(row, ctx["scan_ref"][cell])
                if bad:
                    return f"CSV cell {cell}: {bad}"
            return None
        return eval_mismatch(ctx, args[args.index("--op") + 1], stdout)


def _json_close(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_json_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_json_close, a, b))
    if _is_number(a) and _is_number(b):  # the CLI prints 0.0 as 0
        return _close(float(a), float(b), 1e-12)
    return a == b and type(a) is type(b)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def eval_mismatch(ctx, op: str, stdout: str) -> str | None:
    """The CLI must print what the library API returns for the same point,
    and d and the decomposition must match the seeded group element."""
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not _json_close(got, ctx["expect"][op]):
        return f"eval {op} differs from the library API"
    A = ctx["A"]
    if op == "d" and not _rel(got["d"], float(np.prod(A.diag)) ** 2) <= 1e-10:
        return "d != (prod a_ii)^2"
    if op == "decompose" and not np.max(np.abs(np.array(got["diag"]) - A.diag)) <= 1e-9:
        return "decomposition does not recover the diagonal"
    return None


WORKLOADS = {w.name: w for w in (ScanD8(), OrbitLadder(), CliBatch())}


# ---------------------------------------------------------------------------
# cubics layer pass: the scan's own calls, made from outside, plus probes
# ---------------------------------------------------------------------------


def replicate_cell(tr, ctx, cell) -> tuple:
    """The calls ``scan_parameter_plane`` makes for one cell, made here so the
    points, witnesses and local-search fallbacks can be counted."""
    e1, e2 = cell
    q = ctx["cubics"][cell]
    rep = tr.call("cubics.admissibility_on_diagonal", "d8", vc.admissibility_on_diagonal, q, ctx["grid"])
    tr.count("cubics.points_checked", rep.checked)
    for w in rep.witnesses:
        tr.count(f"cubics.witnesses.{w.kind}")
    if rep.all_pd:
        x = rep.min_minor_coords
        return (e1, e2, ADMISSIBLE_ON_SAMPLE, x[1], x[2], rep.min_minor)
    if not (e2 > 0.0 or any(w.kind == "constraint" for w in rep.witnesses)):
        tr.count("cubics.local_search.calls")
        local = tr.call(
            "cubics.find_locally_admissible_point", "d8", vc.find_locally_admissible_point, q, ctx["search"]
        )
        if local is not None:
            tr.count("cubics.local_search.found")
            x = local.point.diag
            return (e1, e2, LOCALLY_ADMISSIBLE, x[1], x[2], local.min_minor)
    w = rep.witnesses[0]
    return (e1, e2, NOT_ADMISSIBLE, w.coords[1], w.coords[2], w.min_minor)


class ScanReplica(ScanD8):
    """One op: the replicated calls for a cell, which must give exactly the
    row that ``scan_parameter_plane`` gives, and that row the reference."""

    name = "cubics-replica"

    def op(self, tr, ctx, cell):
        return replicate_cell(tr, ctx, cell), super().op(tr, ctx, cell)

    def check(self, ctx, cell, out):
        mine, rows = out
        bad = super().check(ctx, cell, rows)
        theirs = (rows[0].eps1, rows[0].eps2) + cell_row(rows[0])
        if bad is None and not all(_close(a, b, 0.0) if isinstance(a, float) else a == b for a, b in zip(mine, theirs)):
            bad = "replicated calls disagree with scan_parameter_plane"
        return bad


class CubicProbes:
    """Tangent restriction and its parts at fixed diagonal slice points on
    d1, d8 and d16, whose verdict must not depend on the cone; and the local
    search on fixed d8 cubics, whose result must match
    ``reference/local_d8.json`` (the scan over the ROADMAP plane never falls
    back to it, so these calls are the only ones its counts see)."""

    name = "cubics-probes"

    def setup(self):
        return {"local": read_local_json(REFERENCE / "local_d8.json")}

    def items(self, cones, toy):
        out = []
        for tag in ("d1", "d8", "d16"):
            cone = cones[tag]
            q = vc.InvariantCubic.rank3_family(cone, *PROBE_EPS)
            a, b, c = q.coeffs
            for x2, x3 in PROBE_X23:
                x1 = (1.0 - b * x2 * x3**2 - c * x3**3) / (a * x2 * x3)
                X = vc.HermMatrix(cone.algebra, [x1, x2, x3], {})
                out += [(tag, (x2, x3), q, X)] * (1 if toy or tag == "d16" else 5)
        for eps in LOCAL_EPS:
            out.append(("d8", eps, vc.InvariantCubic.rank3_family(cones["d8"], *eps), None))
        return out

    def op(self, tr, ctx, item):
        tag, _, q, X = item
        if X is None:
            tr.count("cubics.local_search.calls")
            rep = tr.call(
                "cubics.find_locally_admissible_point", tag, vc.find_locally_admissible_point, q, LOCAL_GRID
            )
            if rep is not None:
                tr.count("cubics.local_search.found")
            return local_row(rep)
        rep = tr.call("cubics.tangent_restriction", tag, vc.tangent_restriction, q, X)
        tr.call("cubics.hessian_log", tag, vc.hessian_log, q, X)
        tr.call("cubics.gradient", tag, vc.gradient, q, X)
        tr.call("cubics.cubic_hessian", tag, vc.cubic_hessian, q, X)
        return rep.verdict

    def check(self, ctx, item, verdict):
        if item[3] is None:  # verdict is the local-search row
            ref = ctx["local"][item[1]]
            if verdict is None or ref is None:
                return None if verdict is ref else f"local search gave {verdict}, reference {ref}"
            ok = all(_close(a, b, REL_ROW) for a, b in zip(verdict, ref))
            return None if ok else f"local search gave {verdict}, reference {ref}"
        first = ctx.setdefault(item[1], verdict)
        return None if verdict == first else f"verdict {verdict} on {item[0]} != {first} on d1"
