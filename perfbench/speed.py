"""The host's speed, sampled while a workload runs, to scale its times by.

On a shared VM the speed of a vCPU can shift by 1.5-2x for seconds to
minutes at a time, as other tenants come and go (the 2-vCPU VM this
benchmark was built on did so without reporting steal time).  A run's
plain timings then say as much about the host as about the program.  So
the benchmark times a fixed pure-Python kernel (dict updates keyed by
tuples, the kind of work feature-structure unification does) every
`PERIOD_S` while the workload runs, and scales each operation's time by
`REFERENCE_KERNEL_S` over the kernel's median time around it, to the
power `ELASTICITY`.  A scaled time reads in milliseconds at the speed
where the kernel takes `REFERENCE_KERNEL_S`; the plain times are kept in
the result file.

The kernel runs in a SIGALRM handler, so it samples the speed inside long
calls too; its own time is taken out of the clock the operations are
timed by.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

KERNEL_ROUNDS = 2000
# About the kernel's time on that VM when it ran fast.
REFERENCE_KERNEL_S = 350e-6
# The program slows less than the kernel: fitted over runs on that VM,
# its times went as the kernel's to the power 0.6-0.7 (`tables-tma`,
# `generate-mix`) and 0.95-1.1 (`recognize`).
ELASTICITY = 0.75
PERIOD_S = 0.025
# Kernel samples this far either side of an operation set its speed.
WINDOW_S = 0.5


def kernel():
    counts = {}
    for i in range(KERNEL_ROUNDS):
        key = (i & 255, "k")
        counts[key] = counts.get(key, 0) + 1


def time_kernel():
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scale_of(kernel_times):
    """Factor that turns a time measured beside `kernel_times` into one
    at the reference speed."""
    return (REFERENCE_KERNEL_S / statistics.median(kernel_times)) ** ELASTICITY


class Sampler:
    """Times the kernel every `PERIOD_S` while in a `with` block.

    `clock()` is `perf_counter()` less the time spent in the kernel, so
    operations timed by it do not pay for the sampling.
    """

    def __init__(self):
        self.at = []         # clock() when each sample started
        self.kernel_s = []   # how long the kernel took
        self.spent = 0.0

    def clock(self):
        return perf_counter() - self.spent

    def _sample(self, signum, frame):
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.at.append(start - self.spent)
        self.kernel_s.append(took)
        self.spent += took

    def __enter__(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, end):
        """Scale for an operation timed from `start` to `end` by `clock()`."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        return scale_of(self.kernel_s[lo:hi] or self.kernel_s)
