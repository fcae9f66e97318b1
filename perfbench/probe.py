"""Host-speed probes interleaved with a running workload.

On a shared host the speed of a virtual CPU drifts by tens of percent
over seconds to minutes, which no run length averages away.  Code of
one kind run on the same CPU slows down together, though, so timing a
fixed piece of similar work often, in the same process and between the
workload's own bytecodes, measures the speed the workload ran at.

``Probes`` runs a probe's work from a SIGALRM handler every
``INTERVAL_S`` seconds.  ``Probe.rescale`` then removes the probes' own
time from a measured span and expresses the rest at the probe's
reference speed, at which one probe takes ``reference_s`` seconds.  The
workload code is not touched; the handler only reads the clocks.

Two probes: PYTHON for workloads that run interpreted loops (dict
counts, list sums, small-int bit operations), and NUMPY for one that
runs vectorised uint64 mixing and bincounts on 10^4-element arrays,
whose speed follows the host's differently.  Each reference_s is about
the probe's typical duration inside its workloads on a 2.1 GHz Xeon
vCPU at its usual speed, so rescaled times read close to seconds there.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

INTERVAL_S = 0.05
MIN_PROBES = 20
KEEP = 0.8


def _python_work() -> int:
    counts = {}
    cols = [0] * 16
    row = list(range(-8, 8))
    acc = 0
    for i in range(1900):
        key = (i * 2654435761) & 0x3ff
        counts[key] = counts.get(key, 0) + 1
        acc ^= (key << 3) | (i & 7)
        if i % 8 == 0:
            cols = [c + r for c, r in zip(cols, row)]
            acc += sum(c for c in cols if c > 0)
    return acc


_LANES = np.arange(10_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_TABLE = np.zeros(1024, dtype=bool)


def _numpy_work() -> int:
    acc = 0
    for counter in range(8):
        z = _LANES + np.uint64(counter)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        index = (z % np.uint64(1024)).astype(np.int64)
        acc += int(np.bincount(index, minlength=1024)[int(_TABLE[index].sum())])
    return acc


@dataclass(frozen=True)
class Probe:
    work: Callable[[], int]
    reference_s: float

    def rescale(self, seconds: float, samples: list) -> float:
        """``seconds`` measured while ``samples`` probes ran, less the
        probes' own time, at the reference speed.

        The speed is the mean of the fastest KEEP of the probes: a probe
        that a host stall happens to hit takes several times the usual,
        and those few would move a plain mean by ten percent.
        """
        if len(samples) < MIN_PROBES:
            raise RuntimeError(f"{len(samples)} host-speed probes, need {MIN_PROBES}")
        fastest = sorted(samples)[:int(len(samples) * KEEP)]
        typical = sum(fastest) / len(fastest)
        return (seconds - sum(samples)) * self.reference_s / typical


PYTHON = Probe(_python_work, 0.0016)
NUMPY = Probe(_numpy_work, 0.0014)


class Probes:
    """Times ``probe.work`` every INTERVAL_S seconds of wall time."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.wall = []  # seconds per probe
        self.cpu = []   # CPU seconds per probe
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:  # a late signal never nests a probe in a probe
            return
        self._busy = True
        wall, cpu = time.perf_counter(), time.process_time()
        self.probe.work()
        self.cpu.append(time.process_time() - cpu)
        self.wall.append(time.perf_counter() - wall)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
