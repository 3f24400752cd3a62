"""Machine-speed probe, so that times from a shared machine are comparable.

On a virtual machine whose cores are shared with other tenants, the same
computation runs up to twice as slow for stretches of seconds to minutes.
Medians over one run cannot remove that: two runs minutes apart differ by
more than any useful bound. So while a run is timed, a SIGALRM handler
times a fixed reference computation every PERIOD seconds, and each timed
interval is scaled to the reference speed:

    calibrated_s = (wall_s - probe_s) * REFERENCE_S / mean(reference time)

where probe_s is the handler's own time inside the interval and the mean
is over the samples taken inside it. A calibrated second is a wall second
on a core that runs ``reference()`` in REFERENCE_S. The reference touches
only its own small arrays and is run twice per sample, timing the second
run, so that what the timed program left in the caches does not move it.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

PERIOD = 0.025
# reference() on an idle core of the machine the benchmark was defined on
# (2-vCPU KVM Intel Xeon, Python 3.11, numpy 2.4).
REFERENCE_S = 1.6e-4

_RNG = np.random.default_rng(0)
_T = _RNG.dirichlet(np.ones(32)).reshape(2, 2, 2, 4)
_Q = _RNG.dirichlet(np.ones(6), size=4).reshape(4, 3, 2)


def _entropy(p: np.ndarray) -> float:
    flat = p.ravel()
    pos = flat[flat > 0.0]
    return float(-np.dot(pos, np.log2(pos)))


def reference() -> float:
    """A fixed mix of small einsums, reductions, sorts and Python calls,
    like the package's hot loops but independent of its code."""
    acc = 0.0
    table: dict[str, float] = {}
    for k in range(6):
        m = np.einsum("uvwx,xyz->uwy", _T, _Q)
        acc += _entropy(m) + _entropy(_T.sum(axis=(0, 1)))
        g = -(np.log2(np.maximum(m, 1e-300)) + 1.4426950408889634)
        acc += float(np.einsum("xyz,uwy->x", _Q, g).sum())
        v = np.sort(_T.ravel())[::-1]
        acc += float((np.cumsum(v) - 1.0)[k])
        table[f"t{k}"] = acc
    return acc + sum(table.values())


class SpeedProbe:
    def __init__(self) -> None:
        # per sample: when it was taken, the timed reference run, the whole handler
        self.samples = array("d")

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        self.samples.extend((t0, t2 - t1, t2 - t0))

    def __enter__(self) -> "SpeedProbe":
        reference()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def interval(self, t0: float, t1: float) -> tuple[float, float]:
        """(handler seconds, slowdown) inside [t0, t1]; slowdown 1 without samples."""
        # a copy, not a buffer view, which would stop _tick from appending
        at, took, cost = np.array(self.samples).reshape(-1, 3).T
        inside = (at >= t0) & (at < t1)
        if not inside.any():
            return 0.0, 1.0
        return float(cost[inside].sum()), float(took[inside].mean()) / REFERENCE_S

    def calibrate(self, t0: float, t1: float) -> tuple[float, float]:
        """(calibrated seconds, slowdown) of the interval [t0, t1]."""
        cost, slowdown = self.interval(t0, t1)
        return (t1 - t0 - cost) / slowdown, slowdown
