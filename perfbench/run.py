"""Benchmark of vinberg-cones: one process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload scan-d8 --seed 1 --seconds 20 --trace 0

Workloads: scan-d8, orbit-ladder, cli-batch (see BENCHMARK.json for why).
``--seconds`` fixes the amount of work: whole rounds of operations, as many
as took that long at the commit that defined the benchmark.  A fixed mix of
operations keeps every percentile comparable between commits, where a
time-bounded loop would give a faster commit more samples and so a higher
tail percentile.  Each operation's output is checked against a reference.

Every round holds the same list of ops, run in a new seeded order (the
orbit ladder draws new group elements of the same shapes for each round).
The process keeps to one CPU, and times the workload's calibration kernel
(``calibrate.py``) between ops, at most every 0.1 s, and around every
set-up.  Every time the end-to-end metrics use is scaled by the kernel's
time around it, so that a shared host that runs up to twice as slow for
stretches of seconds to minutes moves them little (see NOTES.md).  The
timing metrics take each op of the list at its median scaled time over the
run, and ``setup_s`` is the median of the workload's scaled set-ups, each
of which finds no cache filled by another.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: half as many rounds (at least two), every other
one with spans around every public call, then layer passes cover the
layers the workload does not call; spans are written to
``perfbench/out/<workload>.spans.csv``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it repeat every metric with
its unit, plus ``failed_frac``, the tail's percentile and the throughput
over all ops at their measured, unscaled times (``wall_ops_per_s``) and
the median kernel time (``kernel_ms``).
Exit code 0 on a completed run, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
PACKAGE = HERE.parent / "src" / "vinberg_cones" / "__init__.py"

# one BLAS thread: a single closed-loop client, small matrices, and at most
# nproc threads on any machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10

RANK3_TAGS = ("d1", "d2", "d4", "d8", "d16")
LADDER_TAGS = ("w1", "w4", "w9") + RANK3_TAGS
MODULES = ("bench", "clifford", "nilalgebra", "cone", "cubics", "cli")
COUNTS = (
    "cubics.points_checked",
    "cubics.witnesses.constraint",
    "cubics.witnesses.indefinite",
    "cubics.witnesses.degenerate",
    "cubics.local_search.calls",
    "cubics.local_search.found",
)


def layer_table() -> list[tuple[str, str, tuple | None, float]]:
    """(metric, unit, (span name, cone tag) or None, scale) for every
    per-layer metric; timings are medians over the spans with that key."""
    rows = []

    def timed(span, unit, tags, name="{span}.{unit}.{tag}"):
        scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        rows.extend((name.format(span=span, unit=unit, tag=tag), unit, (span, tag), scale) for tag in tags)

    timed("clifford.build_clifford_module", "ms", RANK3_TAGS)
    timed("clifford.verify_isometry", "ms", ("d8",))
    for fn in ("herm_from_triangular", "herm_from_triangular_star", "triangular_product"):
        timed(f"nilalgebra.{fn}", "us", LADDER_TAGS)
    for fn in ("group_coordinates", "p_polynomials", "characteristic_function"):
        timed(f"cone.{fn}", "us", LADDER_TAGS)
    for fn in ("det_cubic", "d_prime", "d_prime_via_dual"):
        timed(f"cone.{fn}", "us", RANK3_TAGS)
    for fn in ("admissibility_on_diagonal", "find_locally_admissible_point"):
        timed(f"cubics.{fn}", "ms", ("d8",), "{span}.{unit}")
    for fn in ("tangent_restriction", "hessian_log", "gradient", "cubic_hessian"):
        timed(f"cubics.{fn}", "us", ("d1", "d8", "d16"))
    rows += [(c, "count", None, 1.0) for c in COUNTS]
    rows.append(("cubics.local_search.hit_ratio", "ratio", None, 1.0))
    timed("cli.startup", "s", ("",), "{span}.{unit}")
    for kind, tag in (("build", "d16"), ("selftest", "d8"), ("selftest", "w9"), ("eval", "d8"), ("scan", "d1")):
        timed(f"cli.{kind}", "s", (tag,), "{span}.{tag}.{unit}")
    rows += [(f"{m}.self.pct", "pct", None, 1.0) for m in MODULES]
    rows += [("trace.overhead.pct", "pct", None, 1.0), ("trace.spans", "count", None, 1.0)]
    return rows


END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)
# printed with the metrics but left out of the result line: it is 0 on a
# correct program, and the result line carries attempted and failed
PRINTED = (("failed_frac", "ratio"),)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs operations one after another, times the calibration kernel
    between them, and keeps their times and failures."""

    def __init__(self, kernel: calibrate.Kernel) -> None:
        self.times: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.calibration = kernel
        self.kernels: list[tuple[int, float]] = []  # (ops run before it, seconds)
        self._last_kernel = -float("inf")

    def kernel(self) -> None:
        self.kernels.append((len(self.times), self.calibration()))
        self._last_kernel = perf_counter()

    def run(self, w, ctx, items, tr, order=None) -> list[int]:
        """Runs ``items`` in an order drawn from the ``random.Random`` given
        as ``order`` (as listed if None); returns, as listed, the index of
        each op in ``times``."""
        ids = [0] * len(items)
        for i in order.sample(range(len(items)), len(items)) if order else range(len(items)):
            if perf_counter() - self._last_kernel > calibrate.EVERY_S:
                self.kernel()
            item = items[i]
            ids[i] = tr.op = len(self.times)
            tr.begin("bench.op", w.name)
            t0 = perf_counter()
            try:
                out = w.op(tr, ctx, item)
                reason = None
            except Exception:  # an op that raises is a failed op; keep going
                reason = traceback.format_exc(limit=-2)
            self.times.append(perf_counter() - t0)
            tr.end()
            if reason is None:
                try:
                    reason = w.check(ctx, item, out)
                except Exception:
                    reason = traceback.format_exc(limit=-2)
            if reason is not None:
                self.failed += 1
                self.errors.append(f"{w.name} op {len(self.times) - 1}: {reason}")
        tr.op = -1
        return ids

    def scaled_times(self) -> list[float]:
        """Every op's time scaled by the kernels just before and after it."""
        self.kernel()
        out, j = [], 0
        for k, t in enumerate(self.times):
            while self.kernels[j + 1][0] <= k:
                j += 1
            out.append(self.calibration.scaled(t, self.kernels[j][1], self.kernels[j + 1][1]))
        return out


def n_rounds(w, seconds: float) -> int:
    return max(1, round(seconds / w.round_s))


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile).  Every workload has more ops than that in a round."""
    n = len(times_ms)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} ops are too few for a tail")
    return sorted(times_ms)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def time_setup(w, kernel, work: Path, here: bool):
    """One set-up, here or in a fresh process (timed there after its
    imports), between two calibration kernels: (context or None, scaled
    seconds)."""
    from tracing import NoTrace

    before = kernel()
    ctx = None
    if here:
        t0 = perf_counter()
        ctx = w.setup(NoTrace(), work)
        seconds = perf_counter() - t0
    else:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), w.name, str(work)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(proc.stdout)
    return ctx, kernel.scaled(seconds, before, kernel())


def measure(w, seed: int, seconds: float, work: Path, toy: bool = False, patch=None):
    """Untraced run: (metrics, notes, loop)."""
    from tracing import NoTrace

    nt = NoTrace()
    kernel = calibrate.Kernel(w.kernel)
    kernel()  # the first kernel of a process pays one-off costs
    ctx, first = time_setup(w, kernel, work, True)
    setups = [first] + [time_setup(w, kernel, work, not w.fresh_setup)[1] for _ in range(w.setup_reps - 1)]
    if patch is not None:
        patch(ctx)
    n = n_rounds(w, seconds)
    order = random.Random(seed)
    loop = Loop(kernel)
    runs: dict = {}  # by w.key, the indices of the op's runs in loop.times
    for items in w.rounds(ctx, seed, n, toy):
        for i, (item, k) in enumerate(zip(items, loop.run(w, ctx, items, nt, order))):
            runs.setdefault(w.key(i, item), []).append(k)
    scaled = loop.scaled_times()
    # the ops of one round, each at its median scaled time
    op_ms = [statistics.median(scaled[k] for k in runs[w.key(i, item)]) * 1e3 for i, item in enumerate(items)]
    tail_ms, pct = tail(op_ms)
    who = resource.RUSAGE_CHILDREN if w.name == "cli-batch" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1e3 * len(op_ms) / sum(op_ms),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {
        "ops": len(loop.times),
        "rounds": n,
        "setup_reps": len(setups),
        "op_ms_tail": f"p{pct:.3f} of the {len(op_ms)} ops of a round, {TAIL_BEYOND} ops beyond it",
        "wall_ops_per_s": len(loop.times) / sum(loop.times),
        "kernel_ms": statistics.median(s for _, s in loop.kernels) * 1e3,
    }
    return metrics, notes, loop


def measure_traced(w, seed: int, seconds: float, work: Path, toy: bool = False):
    """Traced run: (metrics, notes, loop, spans)."""
    import workloads as wl
    from tracing import NoTrace, Tracer, self_times

    tr, nt = Tracer(), NoTrace()
    loop = Loop(calibrate.Kernel(w.kernel))
    ctx = w.setup(tr, work)
    # alternate untraced and traced rounds: the ratio is the tracing overhead
    order = random.Random(seed)
    plain, traced = [], []
    for r, items in enumerate(w.rounds(ctx, seed, max(2, n_rounds(w, seconds) // 2), toy)):
        ids = loop.run(w, ctx, items, tr if r % 2 else nt, order)
        (traced if r % 2 else plain).extend(loop.times[k] for k in ids)
    own = len(tr.spans)

    # layer passes, for the layers this workload does not call itself
    orbit, scan, cli = (wl.WORKLOADS[n] for n in ("orbit-ladder", "scan-d8", "cli-batch"))
    ladder = ctx if w is orbit else orbit.setup(tr, work)
    if w is not orbit:
        loop.run(orbit, ladder, next(orbit.rounds(ladder, seed, 1, toy)), tr)
    replica = wl.ScanReplica()
    scan_ctx = ctx if w is scan else replica.setup(tr, work)
    loop.run(replica, scan_ctx, next(replica.rounds(scan_ctx, seed, 1, toy)), tr)
    probes = wl.CubicProbes()
    loop.run(probes, probes.setup(), probes.items(ladder["cones"], toy), tr)
    if w is not cli:
        cli_ctx = cli.setup(tr, work)
        loop.run(cli, cli_ctx, next(cli.rounds(cli_ctx, seed, 1, toy)), tr)

    spans = tr.spans
    by_key: dict[tuple, list[float]] = {}
    for s in spans:
        by_key.setdefault((s[0], s[1]), []).append(s[3] - s[2])
    # self time of the workload's own traced ops, by module
    own_ops = [(s, t) for s, t in zip(spans[:own], self_times(spans[:own])) if s[5] >= 0]
    op_total = sum(s[3] - s[2] for s, _ in own_ops if s[0] == "bench.op")
    derived = {f"{m}.self.pct": 100.0 * sum(t for s, t in own_ops if s[0].split(".")[0] == m) / op_total
               for m in MODULES}
    calls = tr.counts.get("cubics.local_search.calls", 0)
    derived["cubics.local_search.hit_ratio"] = tr.counts.get("cubics.local_search.found", 0) / calls if calls else 0.0
    derived["trace.overhead.pct"] = 100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
    derived["trace.spans"] = len(spans)
    metrics = {}
    for metric, unit, key, scale in layer_table():
        if key is not None:
            metrics[metric] = statistics.median(by_key[key]) * scale
        elif metric in COUNTS:
            metrics[metric] = tr.counts.get(metric, 0)
        else:
            metrics[metric] = derived[metric]
    notes = {"ops": len(loop.times), "own_ops_traced": len(traced), "own_ops_untraced": len(plain)}
    return metrics, notes, loop, spans


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ[THREAD_VARS[0]],
        "cpus": sorted(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False, patch=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import workloads as wl
    from tracing import write_spans

    w = wl.WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=OUT) as tmp:
        if trace:
            metrics, notes, loop, spans = measure_traced(w, seed, seconds, Path(tmp), toy)
            write_spans(spans, OUT / f"{workload}.spans.csv")
            units = {m: u for m, u, _, _ in layer_table()}
        else:
            metrics, notes, loop = measure(w, seed, seconds, Path(tmp), toy, patch)
            units = dict(END_TO_END)
    for err in loop.errors[:5]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    notes["failed_frac"] = loop.failed / len(loop.times)
    for key, value in environment().items():
        print(f"  {key}: {value}")
    for key, value in notes.items():
        unit = dict(PRINTED).get(key)
        print(f"  {key} = {value!r} {unit}" if unit else f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    return {
        "correct": loop.failed == 0,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan-d8", "orbit-ladder", "cli-batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: program sources not found at {PACKAGE.parent}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one CPU for this process and its children, so that every kernel
    # times the CPU the ops around it ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(PACKAGE.parent.parent))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
