"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names exactly the metrics run.py reports, with the same units.
2. Every workload runs at toy size, untraced and traced, without a failed
   op, and prints every metric with its unit and a parsable result line.
3. Negative controls: a perturbed reference row of the scan and a corrupted
   ``build`` stdout of the CLI each make exactly the ops that read them fail.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Exit code 0 when every check passes, 1 otherwise.  Takes about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def toy_run(run, workload: str, trace: bool, patch=None):
    """One round at toy size; returns (result, printed lines)."""
    import workloads as wl

    seconds = wl.WORKLOADS[workload].round_s
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        result = run.run(workload, 7, seconds, trace, toy=True, patch=patch)
    return result, buf.getvalue().splitlines()


def check_benchmark_json(run) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        sorted(spec) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        "BENCHMARK.json has exactly the contract's keys",
    )
    import workloads as wl

    expect([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS), "workload names match")
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "end_to_end names and units match run.py",
    )
    expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, _, _ in run.layer_table()],
        "per_layer names and units match run.py",
    )


def check_printed(run, workload: str, trace: bool) -> None:
    result, lines = toy_run(run, workload, trace)
    names = [(m, u) for m, u, _, _ in run.layer_table()] if trace else list(run.END_TO_END)
    label = f"{workload} trace={int(trace)}"
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, f"{label}: no failed op")
    for name, unit in names:
        printed = any(ln.startswith(f"  {name} = ") and ln.endswith(f" {unit}") for ln in lines)
        in_json = result["metrics"].get(name, {}).get("unit") == unit
        expect(printed and in_json, f"{label}: {name} printed in {unit}")
    expect(set(result["metrics"]) == {n for n, _ in names}, f"{label}: no other metrics")
    for name, unit in run.PRINTED:
        printed = any(ln.startswith(f"  {name} = ") and ln.endswith(f" {unit}") for ln in lines)
        expect(printed, f"{label}: {name} printed in {unit}")
    json.loads(json.dumps(result))


def check_negative_controls(run) -> None:
    import workloads as wl

    cell = sorted(wl.read_scan_csv(wl.REFERENCE / "scan_d8.csv"))[wl.TOY_STRIDE]

    def perturb_row(ctx):
        cls, x2, x3, mm = ctx["reference"][cell]
        ctx["reference"][cell] = (cls, x2 * (1.0 + 1e-6), x3, mm)

    result, _ = toy_run(run, "scan-d8", False, patch=perturb_row)
    expect(result["failed"] == 1 and not result["correct"], "perturbed reference row fails its one op")

    def corrupt_build(ctx):
        real = ctx["run"]

        def run_cli(c, args):
            rc, out = real(c, args)
            return rc, out.replace("275", "276") if "build" in args else out

        ctx["run"] = run_cli

    result, _ = toy_run(run, "cli-batch", False, patch=corrupt_build)
    expect(result["failed"] == 2 and not result["correct"], "corrupted build output fails both build ops")


def check_bare_directory() -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan-d8", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170,
        )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout, "bare directory: non-zero exit, no result")


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import run

    check_benchmark_json(run)
    for workload in ("scan-d8", "orbit-ladder", "cli-batch"):
        for trace in (False, True):
            check_printed(run, workload, trace)
    check_negative_controls(run)
    check_bare_directory()
    print(f"selfcheck {'passed' if not FAILURES else f'FAILED ({len(FAILURES)})'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
