"""Pace probes: how fast the CPU runs Python right now, measured inside the
benchmark's own processes, so that times can be stated at a fixed pace.

On a shared host the speed of one vCPU drifts: a pure-Python loop may run
1.5x slower for a few seconds while a neighbour is busy, and such spells
come and go over seconds to minutes.  A wall time over a whole run then
measures the neighbours as much as the program.  So while a timed region
runs, a timer signal (``SIGALRM``, every ``INTERVAL_S`` of wall time)
interrupts it and runs three small standard-library kernels, one per regime
of the hypercong workloads:

* ``fraction`` -- a harmonic sum of ``Fraction``s: per-call overhead and
  small gcds, like the grids;
* ``bigint`` -- gcds of products of 2500-bit integers, like the big
  ``Fraction`` normalisations of ``deep``;
* ``loop`` -- a modular product loop, like ``morita_gamma``.

Each sample's kernel times go to a probe file, one line per sample, with
unbuffered appends; processes forked while probing (pool workers) probe on
their own timer into the same file.  The pace of a set of samples is the
geometric mean, over the kernels, of the mean of ``REFERENCE_S / time``: 1.0
means the kernels ran as fast as they did in a fast spell of the machine the
reference times were taken on (a 2-vCPU 2.1 GHz Xeon VM, Python 3.11).
Samples are evenly spaced in wall time, so ``seconds * pace`` is the time the
same work takes at the reference pace.

None of this touches the program: the kernels use only the standard
library, so a change to hypercong moves the measured time but not the pace.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
KERNELS = ("fraction", "bigint", "loop")
# Kernel times in a fast spell of the reference machine (see the module
# docstring); they fix the unit of a paced time and must not change between
# two benchmarked commits.
REFERENCE_S = {"fraction": 0.00031, "bigint": 0.00062, "loop": 0.00049}

_BIG = tuple(3 ** 1577 + 7 * k for k in range(8))  # 2500-bit operands


def _fraction():
    total = Fraction(0)
    for k in range(1, 140):
        total += Fraction(1, k)
    return total


def _bigint():
    for i in range(3):
        for j in range(8):
            math.gcd(_BIG[j] * _BIG[(j + i) % 8] + 1, _BIG[(j + 3) % 8] * _BIG[i] - 1)


def _loop():
    acc = 1
    for j in range(1, 6000):
        if j % 7:
            acc = acc * j % 1000003
    return acc


_RUN = {"fraction": _fraction, "bigint": _bigint, "loop": _loop}


def probe() -> tuple[float, ...]:
    """Run every kernel once; their CPU times in seconds, in ``KERNELS``
    order.  CPU time, not wall time: a kernel preempted by another process
    (the parent of a pool, say) would otherwise read slow."""
    clock = time.thread_time
    times = []
    for name in KERNELS:
        start = clock()
        _RUN[name]()
        times.append(clock() - start)
    return tuple(times)


def pace(samples) -> float:
    """Reference-pace factor of a list of ``probe`` results (see module
    docstring).  Below 1 means the CPU ran slower than the reference."""
    logs = []
    for k, name in enumerate(KERNELS):
        logs.append(math.log(statistics.fmean(REFERENCE_S[name] / s[k] for s in samples)))
    return math.exp(statistics.fmean(logs))


def spot_pace(rounds: int = 3) -> float:
    """Pace right now: one untimed round to warm the kernels, then ``rounds``."""
    probe()
    return pace([probe() for _ in range(rounds)])


class Probes:
    """Timer-driven probing of the current process or, if ``in_workers``, of
    every process it forks until ``stop`` instead (a pool's workers, while
    the parent waits)."""

    def __init__(self, path, in_workers: bool = False):
        self.path = path
        self.in_workers = in_workers
        self._fd = None

    def _sample(self, signum, frame):
        if self._fd is not None:
            os.write(self._fd, (" ".join(map(repr, probe())) + "\n").encode())

    def _start_timer(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _after_fork(self):
        # A forked child inherits the handler and the file, not the timer.
        if self._fd is not None:
            self._start_timer()

    def start(self):
        self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        signal.signal(signal.SIGALRM, self._sample)
        if self.in_workers:
            os.register_at_fork(after_in_child=self._after_fork)
        else:
            self._start_timer()

    def stop(self) -> list[tuple[float, ...]]:
        """Stop probing; every sample taken, here and in forked children.
        Children must have exited (a pool must be shut down) before this."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        os.close(self._fd)
        self._fd = None
        with open(self.path) as fh:
            samples = [tuple(map(float, line.split())) for line in fh]
        os.unlink(self.path)
        return samples
