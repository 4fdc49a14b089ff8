"""Machine-speed sampling inside a CLI child, and times scaled by it.

The benchmark's host is a VM on shared cores. Other tenants slow it down in
bursts of tens of milliseconds to minutes, by up to a factor of two. A whole
CLI round lasts seconds, so its raw time mixes the program's work with
however long the host stayed slow. Timed back to back, one transport config
on one seed varied by 11-17% (coefficient of variation) between rounds.

`Sampler` runs a fixed kernel every PERIOD_S seconds from a SIGALRM handler
in the child's main thread, so the kernel shares the vCPU with the program
and slows down with it. `scaled` weights each stretch of the program's time
by K_REF_S over the kernel's local time there (the median of WINDOW
neighbouring samples), and leaves out the kernel's own time. The result is
the time the stretch would have taken at the speed at which the kernel takes
K_REF_S. Scaled this way, the same rounds varied by 2-4%.

The kernel is 120 ufunc calls on an 8-element float array. That is the
per-call numpy overhead holonomylab's jets spend most of their time in. As
the kernel, a pure-Python loop (4-5%) or a mix of both (3-8%) tracked the
program less well, and so did a wider median window (more than 11 samples).
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.01
WINDOW = 5
# The kernel's usual time in the handler: over 16,000 samples on a 2-vCPU
# Xeon VM the median was 181-197 us (and the 5th percentile, with the host
# quiet, 95-113 us).  Scaled times therefore read close to raw ones on that
# VM under its usual load.
K_REF_S = 1.9e-4

_BASE = np.arange(8.0)


def kernel() -> None:
    a = _BASE
    for _ in range(60):
        a = a * 1.0001 + 1.0


class Sampler:
    """Times `kernel` every PERIOD_S seconds of wall time until stopped."""

    def __init__(self):
        self.t = array("d")  # CLOCK_MONOTONIC at the kernel's start
        self.k = array("d")  # the kernel's duration

    def _tick(self, signum, frame) -> None:
        began = time.monotonic()
        kernel()
        self.k.append(time.monotonic() - began)
        self.t.append(began)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def samples(self) -> list:
        return [list(self.t), list(self.k)]


def scaled(samples, a: float, b: float) -> float:
    """Seconds of [a, b] at reference speed, from a child's [t, k] samples.

    The stretch from one kernel's end to the next kernel's start takes the
    speed of the first of them; time before the first sample takes the first
    speed and time after the last sample the last one.
    """
    t, k = (np.asarray(v, dtype=float) for v in samples)
    if t.size == 0:
        raise ValueError("no speed samples")
    half = WINDOW // 2
    local = np.array([np.median(k[max(0, i - half):i + half + 1]) for i in range(k.size)])
    factor = K_REF_S / local
    starts = np.concatenate(([-np.inf], t + k))
    ends = np.concatenate((t, [np.inf]))
    weights = np.concatenate((factor[:1], factor))
    overlap = np.clip(np.minimum(ends, b) - np.maximum(starts, a), 0.0, None)
    return float(np.dot(overlap, weights))
