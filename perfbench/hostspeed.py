"""Host-speed normalisation of the benchmark's timings.

On a shared 2-vCPU virtual machine the same code ran up to ~1.7x slower
for seconds at a time, and how much of a run that hits changed from run
to run (the same set-up work measured 3.4 s and 6.8 s a few minutes
apart).  Medians over more work do not remove that: it moves whole runs.

Two things slow a run down.  The host steals the CPU for whole slices
(the vCPU is not running; ``steal`` in ``/proc/stat``), and the CPU runs
slower for seconds at a time.  So:

* intervals are timed as :func:`busy_clock` plus :func:`blocked_clock`.
  The runner pins the process to one CPU, where every thread (the
  client loop and the engine pool alike) runs.  The process CPU time over an op is then
  its wall time less the slices the host stole and less the moments
  with no thread of the process runnable.  Those moments, when the
  process waits for a disk flush, a sleep or other blocking I/O, are
  the pinned CPU's idle and iowait time, which :func:`blocked_clock`
  reads back, so an op's latency is its wall time less stolen slices;
* the CPU part of every interval is bracketed by :func:`host_probe`,
  the thread CPU time of a fixed pure-Python task, and reported at a
  reference host speed: ``seconds * REFERENCE_PROBE_US / probe``, with
  the probe taken as the mean of the readings just before and just
  after the interval.  Blocked time does not depend on the CPU's speed
  and is added unscaled.

A change in the program moves the interval but not the probe, so it
shows in full; a slower host moves both, and cancels.  The raw figures
are kept beside the normalised ones in every ledger record.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import NamedTuple

#: The probe duration, in microseconds, that normalised timings refer to.
REFERENCE_PROBE_US = 100.0

#: Seconds the process has run on a CPU, across all its threads.
busy_clock = time.process_time


@functools.cache
def _proc_stat() -> int:
    return os.open("/proc/stat", os.O_RDONLY)


def blocked_clock() -> float:
    """Seconds the CPU this thread is pinned to has spent idle or waiting
    for I/O: time when no thread of the pinned process could run.

    ``/proc/stat`` counts in clock ticks (USER_HZ, normally 10 ms), so
    one interval reads 0 or a whole tick, but the ticks over many
    intervals add up to the time blocked.  A process that never blocks
    reads no ticks at all.  Without a single-CPU pin (or ``/proc/stat``) the time is not known
    and reads 0.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) != 1:
        return 0.0
    try:
        data = os.pread(_proc_stat(), 1 << 16, 0)
    except OSError:
        return 0.0
    label = f"\ncpu{next(iter(cpus))} ".encode()
    start = data.find(label) + 1
    if not start:
        return 0.0
    fields = data[start:data.index(b"\n", start)].split()
    return (int(fields[4]) + int(fields[5])) / os.sysconf("SC_CLK_TCK")


def host_probe() -> float:
    """Thread CPU time of a fixed pure-Python task, in microseconds.

    Thread CPU time leaves out time spent waiting for the interpreter
    lock or the scheduler, so the engine's pool threads do not move it.
    """
    started = time.thread_time_ns()
    table: dict[int, int] = {}
    for value in range(1000):
        table[value & 255] = table.get(value & 255, 0) + value
    return (time.thread_time_ns() - started) / 1000.0


def scale(before: float, after: float) -> float:
    """Factor taking a duration measured between two probes to the
    reference host speed."""
    return REFERENCE_PROBE_US / ((before + after) / 2.0)


class Sample(NamedTuple):
    """One timed op.  ``probe_us`` is the :func:`host_probe` taken just
    before it; ``wall_ms`` is kept only to show the gap between wall and
    measured time (stolen slices, other processes)."""

    kind: str
    cpu_ms: float
    probe_us: float
    blocked_ms: float
    wall_ms: float


def normalise(samples: list[Sample]) -> list[tuple[str, float]]:
    """Each sample as ``(kind, latency_ms)``, its CPU time at the
    reference speed plus its blocked time; an op's closing probe is the
    next op's opening probe (its own for the last op)."""
    out = []
    for index, sample in enumerate(samples):
        after = samples[index + 1].probe_us if index + 1 < len(samples) else sample.probe_us
        latency = sample.cpu_ms * scale(sample.probe_us, after) + sample.blocked_ms
        out.append((sample.kind, latency))
    return out


def raw(samples: list[Sample]) -> list[tuple[str, float]]:
    """Each sample as ``(kind, latency_ms)``, not scaled."""
    return [(s.kind, s.cpu_ms + s.blocked_ms) for s in samples]


class StepClock:
    """Sums the durations of probe-bracketed steps, raw and normalised."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.normalised_s = 0.0
        self._probe = host_probe()

    @contextmanager
    def step(self):
        started, blocked = busy_clock(), blocked_clock()
        try:
            yield
        finally:
            elapsed = busy_clock() - started
            blocked = blocked_clock() - blocked
            before, self._probe = self._probe, host_probe()
            self.raw_s += elapsed + blocked
            self.normalised_s += elapsed * scale(before, self._probe) + blocked
