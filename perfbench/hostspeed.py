"""Host-speed probes: fixed loops of the benchmark's own, timed while rounds run.

The benchmark's host is a shared VM whose throughput drifts: the same round
of interpreter-bound work takes from ~6 s to ~11 s depending on what its
neighbours do, and the slow and fast spells last tens of seconds, so even
the median over the rounds of one 45 s run moves by 20-30% between runs.
A probe measures that drift where it happens.  Every ``INTERVAL_S`` a timer
signal runs one probe in the measuring process itself, so on the vCPU the
program runs on.  A round's wall time divided by the probe's time during
that round no longer depends on how fast the host ran; multiplied by the
probe's reference time it reads in seconds again.

Each workload names the probe whose work resembles its own, because
interpreter-bound and numpy-bound code slow down by different amounts in
the same spell:

- ``interpreter``: a pure-Python loop of ``math`` calls with numpy scalar
  reads and writes, like the program's per-cell phase loop;
- ``numpy``: a chain of elementwise numpy calls on 1000-element vectors,
  like the program's replica-ensemble steps.

The probes are benchmark code and never change with the program, so a
change that speeds the program up lowers the normalised time as it lowers
the wall time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1


class _Interpreter:
    cells = 2000
    # probe time on the reference host (the 2-vCPU VM the README's figures
    # come from) in a typical spell
    reference_s = 0.0009

    def __init__(self, rng) -> None:
        self.src = rng.random(self.cells)
        self.dst = np.empty(self.cells)

    def __call__(self) -> None:
        src, dst = self.src, self.dst
        s = 0.0
        for i in range(self.cells):
            s = math.atan2(src[i] * math.sin(s), math.cos(s))
            dst[i] = s


class _Numpy:
    steps = 60
    reference_s = 0.0006

    def __init__(self, rng) -> None:
        self.a = rng.random(1000)
        self.b = rng.random(1000)

    def __call__(self) -> None:
        x = self.a
        for _ in range(self.steps):
            x = np.exp(-x) * self.b + np.sqrt(x)


PROBES = {"interpreter": _Interpreter, "numpy": _Numpy}


class HostProbe:
    """Times one probe every ``INTERVAL_S`` while installed (main thread only)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._work = PROBES[kind](np.random.default_rng(0))
        self.reference_s = self._work.reference_s
        self.samples: list[float] = []
        self._previous = None

    def probe(self) -> float:
        """Run one probe and return its wall time."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def _on_timer(self, signum, frame) -> None:
        self.samples.append(self.probe())

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def take(self) -> list[float]:
        """The probe times since the last take."""
        samples, self.samples = self.samples, []
        return samples


def probe_time(samples: list[float]) -> float:
    """Typical probe time of a stretch: the mean without the top and bottom tenth."""
    if not samples:
        raise ValueError("no probe ran in the stretch")
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])
