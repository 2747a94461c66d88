"""Same-run calibration: host-speed-independent timing.

On a shared guest the host flips between a fast and a slow state (about
1.5x apart) every few hundred milliseconds, so raw wall or CPU time
cannot hold a tight bound, and a calibration job timed only before and
after a multi-second unit misses most flips.  Each unit is therefore
timed while a fixed calibration probe runs just before it, just after
it, and every :data:`PROBE_INTERVAL_S` of wall time during it (from a
``SIGALRM`` handler on the main thread, so the benchmark stays one
thread).  The unit's wall time, minus the probes' own time, is divided
by the mean probe time: the result is in *calibration units*, and
:func:`to_ref_s` turns it into *reference seconds* through
:data:`KERNEL_REF_S`, the probe's duration on the reference host.

The probe is built from fixed kernels that mirror the workloads' code:
``interp``, a Python loop of small-array numpy calls and dict updates
plus one sort of a cache-resident array (campaign glue, the
synthesiser's paint loops, the netsim event loop), and ``zlib``, one
compression of a 16 KiB buffer (the checkpoint writes).  Host slow-downs
hit the interpreter and zlib by different factors, so a workload whose
time is partly zlib probes with both (see ``workloads.PROBES``).
"""

from __future__ import annotations

import signal
import zlib
from time import perf_counter

import numpy as np

#: Seconds each probe kernel takes on the reference host (2-vCPU x86
#: guest, Python 3.11, numpy 2.4, fast host state).  Fixed: changing one
#: rescales every reference-seconds metric of the workloads using it.
KERNEL_REF_S = {"interp": 0.0006, "zlib": 0.0013}

#: Wall seconds between probes while a unit runs.
PROBE_INTERVAL_S = 0.05

_SMALL = np.linspace(0.0, 1.0, 48)
_BULK = np.random.default_rng(20170601).random(4096)
_BYTES = (np.arange(2048, dtype=np.int64) * 2654435761 % 4096).tobytes()


def _interp() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(64):
        acc += float((_SMALL * (i & 7)).sum()) + float(np.searchsorted(_SMALL, (i & 31) / 32.0))
        table[i & 15] = acc
        acc %= 1000.0
    return acc + float(np.sort(_BULK)[2048]) + len(table)


def _zlib() -> float:
    return float(len(zlib.compress(_BYTES, 6)))


KERNELS = {"interp": _interp, "zlib": _zlib}


def calibrated_units(work_s: float, probe_times_s: list[float]) -> float:
    """A wall time expressed in probe lengths: ``work_s`` divided by the
    mean of the probes timed around and during the work.  A host that
    slowed down for part of the interval slows the probes taken then."""
    if work_s < 0:
        raise ValueError(f"negative wall time {work_s}")
    if not probe_times_s or min(probe_times_s) <= 0:
        raise ValueError("need at least one positive probe time")
    return work_s / (sum(probe_times_s) / len(probe_times_s))


def to_ref_s(units: float, kernels: tuple[str, ...]) -> float:
    """Calibration units of a probe made of ``kernels`` -> reference seconds."""
    return units * sum(KERNEL_REF_S[name] for name in kernels)


class CalibratedClock:
    """Times pieces of work in reference seconds, probing with ``kernels``."""

    def __init__(self, kernels: tuple[str, ...] = ("interp",)) -> None:
        self.kernels = kernels
        self._jobs = [KERNELS[name] for name in kernels]
        #: Every probe time taken, for the ``calib_ms`` diagnostic.
        self.probe_samples_s: list[float] = []

    def probe(self) -> float:
        """Wall seconds of one probe."""
        start = perf_counter()
        for job in self._jobs:
            job()
        return perf_counter() - start

    def measure(self, work) -> tuple[float, float, object]:
        """Run ``work()`` under probing; returns ``(ref_s, wall_s, result)``
        where ``wall_s`` includes the probes run during the work.

        A ``work`` that raises still has its probing stopped; the
        exception propagates.
        """
        probes = [self.probe()]

        def on_alarm(signum, frame) -> None:
            probes.append(self.probe())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            during = sum(probes[1:])
            probes.append(self.probe())
            self.probe_samples_s.extend(probes)
        units = calibrated_units(wall - during, probes)
        return to_ref_s(units, self.kernels), wall, result
