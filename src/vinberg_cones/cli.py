"""Batch command-line front end.

Subcommands: build a cone from a JSON spec, evaluate invariants on a point,
scan the invariant-cubic parameter plane to CSV, and run the self-test
suite.  Exit codes: 0 success, 1 invariant/domain failure (including a
non-finite result), 2 usage or parse error, 3 unsupported configuration
(including a Clifford module above the size bound).  Identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import cone as cone_mod
from .clifford import MAX_GAMMA_ENTRIES, CliffordModule, MetricSpace, _check_signature, _is_int, _relation_residual
from .clifford import build_clifford_module, clifford_bilinear, clifford_mult, verify_isometry
from .errors import IndefiniteSignatureError, ModuleTooLargeError, OutsideConeError, SpecError, VinbergError
from .nilalgebra import (
    TriangularElement,
    _uniform_entries,
    anti_transpose,
    herm_from_json,
    herm_from_triangular,
    herm_from_triangular_star,
    herm_from_vector,
    herm_pairing,
    random_triangular,
    rank2_algebra,
    rank3_special,
    triangular_product,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

_SPEC_KEYS = {
    2: {"rank", "dim_w", "signature", "seed"},
    3: {"rank", "dim_v", "multiplicity", "signature", "seed"},
}

# Most values one scan range LO:HI:STEP may hold; a scan runs one cell per
# pair of eps1 and eps2 values.
MAX_RANGE_VALUES = 1000
# Largest scan --grid; a cell's diagonal sweep holds about grid**2 points.
MAX_GRID = 400


def _fmt(x) -> str:
    """JSON with floats rendered at 17 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    if isinstance(x, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in x.items())
        return "{" + items + "}"
    if isinstance(x, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    raise TypeError(f"cannot serialize {type(x)}")


def _corrupt_gamma(module: CliffordModule) -> CliffordModule:
    """Test hook: a copy of a module with one gamma entry bumped, the value
    of Gamma_0 e_0 in its integer tables (Gamma_0 = I in a built module)."""
    perm, val = module._tables
    val = val.copy()
    val[0, 0] += 1
    return CliffordModule(tables=(perm, val))


def _check_seed(seed: int) -> None:
    """numpy seeds are non-negative integers."""
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")


def parse_spec(obj: dict):
    """Validate a cone spec and build the descriptor.  Unknown keys, values
    that are not exact integers and a negative seed are rejected (SpecError),
    a ``signature`` [p, q] with q > 0 is refused (IndefiniteSignatureError),
    and so is a rank-2 space whose dim_w**2 exceeds MAX_GAMMA_ENTRIES
    (ModuleTooLargeError), before anything is built: the self-test's dense
    dim_herm x dim_herm forms grow with it."""
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    rank = obj.get("rank")
    if not _is_int(rank) or rank not in (2, 3):
        raise SpecError("spec needs rank 2 or 3")
    unknown = set(obj) - _SPEC_KEYS[rank]
    if unknown:
        raise SpecError(f"unknown spec fields: {sorted(unknown)}")
    sig = obj.get("signature")
    if sig is not None and not (isinstance(sig, (list, tuple)) and len(sig) == 2):
        raise SpecError(f"signature must be a list [p, q], got {sig!r}")
    ints = {k: v for k, v in obj.items() if k not in ("rank", "signature")}
    ints.update(zip(("signature p", "signature q"), sig or ()))
    for name, value in ints.items():
        if not _is_int(value):
            raise SpecError(f"spec field {name} must be an integer, got {value!r}")
    _check_seed(obj.get("seed", 0))
    try:
        if rank == 2:
            if "dim_w" not in obj:
                raise SpecError("rank-2 spec needs dim_w")
            dim_w = obj["dim_w"]
            if dim_w < 1:
                raise SpecError("dim_w must be >= 1")
            if dim_w**2 > MAX_GAMMA_ENTRIES:
                raise ModuleTooLargeError(
                    f"dim_w^2 = {dim_w}^2 exceeds MAX_GAMMA_ENTRIES = {MAX_GAMMA_ENTRIES}"
                )
            if sig is not None:
                _check_signature(sig, dim_w)
            algebra = rank2_algebra(MetricSpace.euclidean(dim_w))
        else:
            if "dim_v" not in obj:
                raise SpecError("rank-3 spec needs dim_v")
            module = build_clifford_module(obj["dim_v"], sig, obj.get("multiplicity", 1))
            algebra = rank3_special(module)
    except (SpecError, IndefiniteSignatureError):
        raise
    except ValueError as exc:
        raise SpecError(f"bad spec value: {exc}") from exc
    return cone_mod.cone_from_algebra(algebra), algebra.clifford, obj.get("seed", 0)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read JSON from {path}: {exc}") from exc


def _parse_range(text: str) -> list[float]:
    try:
        lo, hi, step = (float(t) for t in text.split(":"))
    except ValueError as exc:
        raise SpecError(f"range must be LO:HI:STEP, got {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise SpecError(f"bad range {text!r}: need finite LO <= HI and STEP > 0")
    span = (hi - lo) / step  # inf if the quotient overflows
    # every value up to HI, within 1e-9 of a step: 0:0.3:0.1 gives 4 values, 0:1:0.6 gives 2
    n = math.floor(span + 1e-9) + 1 if span < MAX_RANGE_VALUES else MAX_RANGE_VALUES + 1
    if n > MAX_RANGE_VALUES:
        raise SpecError(f"range {text!r} holds more than MAX_RANGE_VALUES = {MAX_RANGE_VALUES} values")
    return [lo + k * step for k in range(n)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    cone, module, _ = parse_spec(_load_json(args.spec))
    alg = cone.algebra
    out = {
        "rank": cone.rank,
        "dim_herm": cone.dim_herm,
        "block_dims": {f"{i}{j}": alg.dim((i, j)) for (i, j) in alg.offdiag_keys},
        "exponents": list(cone.exponents),
        "euclidean": True,
    }
    if module is not None:
        out["dim_s"] = module.dim_s
    print(_fmt(out))
    return EXIT_OK


def _all_finite(x) -> bool:
    if isinstance(x, dict):
        return all(_all_finite(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return all(_all_finite(v) for v in x)
    return not isinstance(x, (float, np.floating)) or bool(np.isfinite(x))


def _decomposition(cone, X) -> dict:
    gc = cone_mod.group_coordinates(cone, X)
    A = gc.element.to_json()
    return {"diag": A["diag"], "offdiag": A["offdiag"], "residual": gc.max_residual}


# each eval op and the result fields it computes at (cone, X)
_EVAL_OPS = {
    "p": lambda cone, X: {"p": list(cone_mod.p_polynomials(cone, X))},
    "d": lambda cone, X: {"d": cone_mod.det_cubic(cone, X)},
    "dprime": lambda cone, X: {"dprime": cone_mod.d_prime(cone, X)},
    "chi": lambda cone, X: {"chi": cone_mod.characteristic_function(cone, X)},
    "membership": lambda cone, X: {"member": cone_mod.membership(cone, X)},
    "decompose": _decomposition,
}


def cmd_eval(args) -> int:
    if args.op not in _EVAL_OPS:  # before the cone, whose build may be large
        print(f"unknown op {args.op!r}; choose from {tuple(_EVAL_OPS)}", file=sys.stderr)
        return EXIT_USAGE
    cone, _, _ = parse_spec(_load_json(args.spec))
    X = herm_from_json(cone.algebra, _load_json(args.point))
    # no numpy overflow warnings: the check below and membership report them in one line
    with np.errstate(all="ignore"):
        result = {"op": args.op, **_EVAL_OPS[args.op](cone, X)}
    if not _all_finite(result):
        raise OutsideConeError(f"{args.op} is not finite at this point: {_fmt(result)}")
    print(_fmt(result))
    return EXIT_OK


def cmd_scan(args) -> int:
    eps1 = _parse_range(args.eps1)  # usage errors exit before the cone is built
    eps2 = _parse_range(args.eps2)
    if not 1 <= args.grid <= MAX_GRID:
        raise SpecError(f"--grid must be from 1 to MAX_GRID = {MAX_GRID}, got {args.grid}")
    if not args.out or os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise SpecError(f"cannot write --out {args.out}: not a file in an existing directory")
    from . import cubics as cubics_mod  # only scan and selftest load the cubics

    cone, _, _ = parse_spec(_load_json(args.spec))
    if cone.rank != 3:
        print("scan requires a rank-3 cone", file=sys.stderr)
        return EXIT_UNSUPPORTED
    rows = cubics_mod.scan_parameter_plane(cone, eps1, eps2, cubics_mod.DiagonalGrid(n=args.grid))
    try:
        cubics_mod.scan_to_csv(rows, args.out)
    except OSError as exc:
        raise SpecError(f"cannot write --out {args.out}: {exc}") from None
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# -- selftest ----------------------------------------------------------------


def _draws(alg, rng, n: int, k: int = 1) -> list:
    """k stacks of n group elements from one rng call, with the values of
    drawing them one at a time by ``random_triangular``, in n rounds of k."""
    rounds = _uniform_entries(alg, rng, (n, k))
    return [TriangularElement._from_flat(alg, stack) for stack in rounds.transpose(1, 0, 2).copy()]


def _invariant_suite(cone, module, seed: int):
    """Yield (name, residual, threshold) triples for every library invariant.
    Each invariant is checked on one stack of samples."""
    rng = np.random.default_rng(seed)
    alg = cone.algebra
    n_round = 200

    def worst(err, scale=1.0) -> float:
        return float(np.max(np.abs(err) / np.abs(scale)))

    if module is not None:
        yield "clifford-isometry", verify_isometry(module, 1000, seed), 1e-12
        relation = _relation_residual(*module.monomial_tables[:2])
        yield "clifford-polarized-relation", relation, 1e-12
        s1, s0 = rng.uniform(-1, 1, (50, 2, module.dim_s)).transpose(1, 0, 2)
        basis = np.eye(module.dim_v)[:, None, :]  # every e_a against every sample
        lhs = np.add.reduce(clifford_bilinear(module, s1, s0) * basis, -1)
        rhs = np.add.reduce(s1 * clifford_mult(module, basis, s0), -1)
        yield "clifford-adjunction", worst(lhs - rhs), 1e-12

    A, B, C = _draws(alg, rng, 50, 3)
    left = triangular_product(triangular_product(A, B), C)
    right = triangular_product(A, triangular_product(B, C))
    yield "triangular-associativity", worst(left.to_vector() - right.to_vector()), 1e-12

    (A,) = _draws(alg, rng, n_round)
    X = herm_from_triangular(A)
    R = cone_mod.group_coordinates(cone, X).element
    scale = np.maximum(1.0, np.max(np.abs(A.diag), axis=-1))[:, None]
    yield "decomposition-roundtrip", worst(R.to_vector() - A.to_vector(), scale), 1e-9
    ps = np.stack(cone_mod.p_polynomials(cone, X), axis=-1)
    later = np.stack([np.prod(ps[:, i + 1 :], axis=-1) for i in range(cone.rank)], axis=-1)
    yield "diag-coordinate-identity", worst(R.diag**2 * later - ps, ps), 1e-10
    expect = np.prod(A.diag, axis=-1) ** 2
    yield "determinant-factorization", worst(cone_mod.g_determinant_sq(cone, X) - expect, expect), 1e-10

    U, B = _draws(alg, rng, 100, 2)
    U = TriangularElement(alg, np.ones_like(U.diag), U.offdiag)  # unit diagonal
    X = herm_from_triangular(triangular_product(U, B))
    Y = herm_from_triangular(B)
    px, py = (np.stack(cone_mod.p_polynomials(cone, Z), axis=-1) for Z in (X, Y))
    yield "unipotent-invariance-p", worst(px - py, py), 1e-9
    cx, cy = (cone_mod.characteristic_function(cone, Z) for Z in (X, Y))
    yield "unipotent-invariance-chi", worst(cx - cy, cy), 1e-9

    if cone.rank == 3:
        (A,) = _draws(alg, rng, n_round)
        Y = herm_from_triangular_star(A)
        direct = cone_mod.d_prime(cone, Y)
        via = cone_mod.d_prime_via_dual(cone, Y)
        expect = np.prod(A.diag, axis=-1) ** 2
        yield "dual-determinant-two-routes", worst([direct - via, direct - expect], expect), 1e-10
        A, B = _draws(alg, rng, 300, 2)
        pairing = herm_pairing(herm_from_triangular(A), herm_from_triangular_star(B))
        yield "dual-pairing-positivity", float(np.max(-pairing)), 0.0

    X = herm_from_triangular(random_triangular(alg, rng))
    back = anti_transpose(anti_transpose(X))
    yield "anti-transpose-involution", worst(back.to_vector() - X.to_vector()), 1e-15

    from . import cubics as cubics_mod

    if cone.rank == 2:
        cubs = [cubics_mod.InvariantCubic.rank2_family(cone, e) for e in (0.0, 0.5)]
    else:
        cubs = [
            cubics_mod.InvariantCubic.rank3_family(cone, 0.0, 0.0),
            cubics_mod.InvariantCubic.rank3_family(cone, 0.5, -0.25),
        ]
    residuals = [0.0]
    for q in cubs:
        (A,) = _draws(alg, rng, 5)
        X = herm_from_triangular(A)
        qx = cubics_mod.eval_cubic(q, X)
        keep = qx > 1e-6
        # hessian_log takes one point; the oracle stacks each point's rows
        for x in X.to_vector()[keep] / qx[keep, None] ** (1.0 / 3.0):
            Xk = herm_from_vector(alg, x)
            M = cubics_mod.hessian_log(q, Xk)
            residuals.append(worst(M - cubics_mod.fd_hessian_log(q, Xk), np.max(np.abs(M))))
    yield "hessian-log-vs-finite-differences", max(residuals), 1e-5


def cmd_selftest(args) -> int:
    spec = _load_json(args.spec) if args.spec else {"rank": 3, "dim_v": 1, "multiplicity": 1}
    cone, module, spec_seed = parse_spec(spec)
    seed = args.seed if args.seed is not None else spec_seed
    _check_seed(seed)
    if args.corrupt_gamma:
        if module is None:
            print("corrupt-gamma requires a rank-3 spec", file=sys.stderr)
            return EXIT_UNSUPPORTED
        module = _corrupt_gamma(module)
        cone = cone_mod.cone_from_algebra(rank3_special(module))
    failures = 0
    for name, residual, threshold in _invariant_suite(cone, module, seed):
        ok = residual <= threshold
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: residual={_fmt(residual)} threshold={_fmt(threshold)}")
    print(f"selftest {'passed' if failures == 0 else 'FAILED'} ({failures} failing invariants)")
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vinberg-cones", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="print the cone descriptor for a spec")
    b.add_argument("--spec", required=True)
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("eval", help="evaluate an invariant at a point")
    e.add_argument("--spec", required=True)
    e.add_argument("--op", required=True)
    e.add_argument("point", help="JSON file with the Hermitian matrix")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("scan", help="classify the invariant-cubic parameter plane")
    s.add_argument("--spec", required=True)
    s.add_argument("--eps1", required=True, help="LO:HI:STEP")
    s.add_argument("--eps2", required=True, help="LO:HI:STEP")
    s.add_argument("--grid", type=int, default=12)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_scan)

    t = sub.add_parser("selftest", help="run the invariant suite")
    t.add_argument("--spec")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--corrupt-gamma", action="store_true", help="negative control")
    t.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IndefiniteSignatureError, ModuleTooLargeError) as exc:
        print(f"unsupported configuration: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (OutsideConeError, VinbergError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
