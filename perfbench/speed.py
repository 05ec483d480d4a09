"""Host-speed normalisation of the end-to-end timings.

On a shared host the speed of a core drifts by up to 2x within a
second and stays off for seconds to minutes (other tenants on sibling
hyperthreads, frequency changes).  CPU time does not help: the process
runs the whole time, only slower.  So the wall time of identical code
spreads further between runs than any useful bound.

The benchmark therefore samples the host's speed while it measures.
:func:`probe` times a fixed piece of pure-Python work that uses nothing
from the checker.  Every process that executes checking runs (the
benchmark process and its pool workers) probes at a checkpoint
(a scheme's ``state_hash``) or at the end of a run whenever
:data:`INTERVAL_S` has passed since its last probe, so the samples
follow the host's drift (its autocorrelation falls to ~0.5 over
0.3 s; one run takes up to 0.4 s).  The samples ride back on the run's
record; the :class:`Clock` of the session collects them when the
parent folds the record, plus a sample of its own at the session's
start and end.

Between two consecutive samples, wall time is scaled by
``NOMINAL_PROBE_S / mean(the two probe times)``.  The result is in
*nominal seconds*: the wall time the same work takes on a host that
runs the probe in :data:`NOMINAL_PROBE_S`.  Probes taken in the
benchmark process itself are off the clock; a pool worker's probes
delay its next task (by at most one probe per :data:`INTERVAL_S`,
~2%), which the session's wall time keeps.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

_now = time.perf_counter

#: Probe time that one nominal second is defined against (about the
#: median on a 2-CPU x86-64 container with CPython 3.11).
NOMINAL_PROBE_S = 0.0005
#: A process probes at the first checkpoint or run end this long after
#: its previous probe.
INTERVAL_S = 0.025
#: Loop iterations of one probe.
PROBE_STEPS = 1500


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def bump(self, step: int) -> int:
        self.value = (self.value * 31 + step) & 0xFFFF
        return self.value


_CELLS = [_Cell(i) for i in range(64)]
_TABLE = dict.fromkeys(range(1024), 0)


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes right now:
    method calls, attribute and dict traffic, no allocation."""
    cells, table = _CELLS, _TABLE
    start = _now()
    for step in range(PROBE_STEPS):
        value = cells[step & 63].bump(step)
        table[value & 1023] += 1
    return _now() - start


def probes(count: int) -> float:
    """Mean of *count* back-to-back probes."""
    return statistics.fmean(probe() for _ in range(count))


def sample() -> tuple:
    """``(start, probe seconds, pid)`` of one probe taken now."""
    start = _now()
    return (start, probe(), os.getpid())


#: Whether runs probe (:func:`install`).
_sampling = False
#: When this process last probed.
_last = 0.0
#: Samples taken during the current run.
_pending: list = []


def _maybe_sample() -> None:
    global _last
    if _now() - _last >= INTERVAL_S:
        _pending.append(sample())
        _last = _now()


def after_run() -> list:
    """The samples a finished run carries: those taken during it, plus
    one now if this process has not probed for :data:`INTERVAL_S`."""
    if not _sampling:
        return []
    _maybe_sample()
    taken = _pending[:]
    _pending.clear()
    return taken


class Clock:
    """Wall time of one session, raw and in nominal seconds."""

    def __init__(self):
        self.started = 0.0
        self._samples: list = []
        self._pid = os.getpid()
        self._end = 0.0

    def start(self) -> None:
        global _last
        self._pid = os.getpid()
        _pending.clear()
        first = sample()
        self.started = _last = _now()
        # The start probe stands at the session's first instant.
        self._samples = [(self.started, first[1], None)]

    def add(self, samples) -> None:
        self._samples.extend(samples)

    def mark(self) -> None:
        """Probe now, in this process (between set-up steps)."""
        global _last
        self._samples.append(sample())
        _last = _now()

    def stop(self) -> None:
        self._end = _now()
        self._samples.append((self._end, probe(), None))

    def _segments(self):
        """``(start, end, scale)`` of each stretch between samples,
        without this process's own probes."""
        points = sorted(self._samples, key=lambda s: s[0])
        for (t0, p0, pid0), (t1, p1, _) in zip(points, points[1:]):
            begin = t0 + p0 if pid0 == self._pid else t0
            begin = min(max(begin, self.started), self._end)
            end = min(max(t1, begin), self._end)
            yield begin, end, NOMINAL_PROBE_S / ((p0 + p1) / 2)

    @property
    def raw_s(self) -> float:
        """Session wall time without this process's probes."""
        return sum(end - start for start, end, _ in self._segments())

    def nominal_s(self, until: float | None = None) -> float:
        """Nominal seconds from the session start to *until* (a
        ``perf_counter`` reading; default the session end)."""
        total = 0.0
        for start, end, scale in self._segments():
            if until is not None and end > until:
                total += max(0.0, until - start) * scale
                break
            total += (end - start) * scale
        return total


CLOCK = Clock()


def install() -> None:
    """Turn on probing in runs and feed each folded record's samples
    to :data:`CLOCK`.  ``Judge.fold_record`` runs in the benchmark
    process for every executor; the samples reach it on the record
    (``record.perfbench``, stamped by spans.install_run_counter)."""
    global _sampling
    from repro.core.engine.judge import Judge
    from repro.core.schemes.hw_inc import HwIncScheme
    from repro.core.schemes.sw_inc import SwIncScheme
    from repro.core.schemes.sw_tr import SwTrScheme

    for scheme in (HwIncScheme, SwIncScheme, SwTrScheme):
        state_hash = scheme.state_hash

        @functools.wraps(state_hash)
        def sampled(self, *args, _state_hash=state_hash, **kwargs):
            value = _state_hash(self, *args, **kwargs)
            _maybe_sample()
            return value

        scheme.state_hash = sampled

    fold = Judge.fold_record

    @functools.wraps(fold)
    def fold_record(self, index, record):
        fold(self, index, record)
        CLOCK.add(record.perfbench.get("speed", ()))

    Judge.fold_record = fold_record
    _sampling = True
