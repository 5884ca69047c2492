"""Host-speed calibration: a fixed kernel timed between the operations.

The benchmark's host is shared, and runs for stretches of seconds to
minutes 1.5-1.9x slower than at other times (see NOTES.md).  A run that
falls into a slow stretch reads slow whatever the program does.  So the
benchmark times a fixed kernel, which calls nothing of the library, at most
every ``EVERY_S`` seconds between operations, and divides each operation's
time by the kernel's time around it.  ``Kernel.scaled`` gives the time the
operation would have taken on a host where the kernel takes ``ref_s``: a
faster program reads faster, a slower host does not.

A kernel is made of parts, each one kind of work the library does; a
workload's kernel has the parts its own time goes to, because the host's
slow stretches slow different kinds of work by different factors.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

EVERY_S = 0.1  # at most this long between two kernels, unless an op is longer

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((6, 6))
_M = _M @ _M.T + 6.0 * np.eye(6)
_B = _rng.standard_normal((27, 27))
_B = _B @ _B.T + 27.0 * np.eye(27)
_E = np.eye(27)[:, 1:] - 0.01
_T = _rng.standard_normal((48, 48, 16))
_u = _rng.standard_normal(48)
_w = _rng.standard_normal(16)


def _python() -> None:
    """Interpreted Python."""
    s = 0
    for i in range(10000):
        s += i * i % 7


def _numpy() -> None:
    """numpy and LAPACK calls on 6x6 matrices."""
    for _ in range(60):
        np.linalg.eigvalsh(_M)
        _M @ _M
        np.sqrt(np.abs(_M)).sum()


def _lapack() -> None:
    """What a tangent restriction at dim_herm 27 does: an orthonormal basis,
    a congruence and the leading minors."""
    for _ in range(4):
        Q, _ = np.linalg.qr(_E)
        R = Q.T @ _B @ Q
        for k in range(1, 27):
            np.linalg.det(R[:k, :k])


def _einsum() -> None:
    """A contraction of the shape of the algebra product."""
    for _ in range(40):
        np.einsum("kia,i,a->k", _T, _u, _w)


# each part, and the seconds it takes on the host of NOTES.md when it runs fast
PARTS = {
    "python": (_python, 0.0007),
    "numpy": (_numpy, 0.0007),
    "lapack": (_lapack, 0.0008),
    "einsum": (_einsum, 0.0014),
}


class Kernel:
    def __init__(self, parts: tuple[str, ...]) -> None:
        self.parts = [PARTS[p][0] for p in parts]
        self.ref_s = sum(PARTS[p][1] for p in parts)

    def __call__(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - t0

    def scaled(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between kernels that took ``before`` and
        ``after``, scaled to a host where the kernel takes ``ref_s``."""
        return seconds * self.ref_s / (0.5 * (before + after))
