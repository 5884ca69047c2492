"""Times one set-up of a workload in a fresh process and prints its seconds.

    python3 perfbench/setup_once.py WORKLOAD WORKDIR

``run.py`` starts one such process for each timed set-up of a workload whose
set-up runs in the benchmark process, so that no set-up finds the library's
caches filled by an earlier one.  The imports come before the timing.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracing import NoTrace  # noqa: E402


def main() -> int:
    w = workloads.WORKLOADS[sys.argv[1]]
    t0 = perf_counter()
    w.setup(NoTrace(), Path(sys.argv[2]))
    print(repr(perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
