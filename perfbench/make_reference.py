"""Regenerate the benchmark's reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted: the references define
what the benchmark counts as a correct operation.  It writes

* scan_d8.csv   one whole-plane ``scan_parameter_plane`` call on the
                dim_v=8 cone over the ROADMAP epsilon plane, CLI defaults;
* scan_d1.csv   the CSV of acceptance criterion 10's ``scan`` at dim_v=1;
* local_d8.json the point ``find_locally_admissible_point`` finds (x2, x3,
                min_minor), or null, for each local-search probe cubic;
* cli.json      sha256 of ``build`` stdout at dim_v=16 and of ``selftest
                --seed 1`` stdout at dim_v=8 and dim_w=9 (residual digits
                masked).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np
    import vinberg_cones as vc
    import workloads as wl
    from tracing import NoTrace

    ref = wl.REFERENCE
    ref.mkdir(exist_ok=True)
    cone = vc.cone_from_algebra(vc.rank3_special(vc.build_clifford_module(8)))
    rows = vc.scan_parameter_plane(
        cone, wl.EPS1, wl.EPS2, vc.DiagonalGrid(n=wl.GRID_N), vc.SearchGrid(n=max(8, wl.GRID_N))
    )
    vc.scan_to_csv(rows, ref / "scan_d8.csv")
    local = [
        {"eps": list(eps), "found": wl.local_row(vc.find_locally_admissible_point(
            vc.InvariantCubic.rank3_family(cone, *eps), wl.LOCAL_GRID))}
        for eps in wl.LOCAL_EPS
    ]
    (ref / "local_d8.json").write_text(json.dumps(local, indent=2) + "\n")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        work = Path(tmp)
        cli = wl.CliBatch()
        ctx = cli.setup(NoTrace(), work)
        batch = cli.batch(ctx, np.random.default_rng(0))
        digests = {}
        for kind, tag, args in batch:
            rc, out = wl.run_cli(ctx, args)
            if rc != 0:
                print(f"{kind} {tag} exited {rc}", file=sys.stderr)
                return 1
            if kind == "build":
                digests["build.d16"] = wl.sha256(out)
            elif kind == "selftest":
                digests[f"selftest.{tag}"] = wl.sha256(wl.normalize_selftest(out))
            elif kind == "scan":
                (ref / "scan_d1.csv").write_bytes((work / "d1.csv").read_bytes())
    (ref / "cli.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} scan rows and {len(digests)} digests to {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
