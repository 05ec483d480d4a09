"""The pools' bounded submission window.

A pool stream submits run indexes in index order through a window of
:func:`~repro.core.engine.pool.submit_window` futures and tops it up as
results arrive, instead of submitting the whole batch up front.  These
tests pin down what that must not change — verdicts across every
backend, the two-tier crash recovery, the ``session_cancelled`` count —
and what it must guarantee: outstanding futures never exceed the
window.  One test also pins planning cost: ``SessionPlan.from_config``
runs once per pool task, so it must not do per-run work.
"""

import json
import threading
import tracemalloc
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import failpoints
from repro.core.checker.runner import CheckConfig, check_determinism
from repro.core.checker.serialize import result_to_dict
from repro.core.engine.heartbeat import HeartbeatMonitor
from repro.core.engine.plan import SessionPlan
from repro.core.engine.pool import submit_queued, submit_window
from repro.core.engine.tasks import _mp_context, _worker_init
from repro.core.failpoints import FailpointPlan
from repro.telemetry import MemorySink, Telemetry
from repro.workloads.storebuffer import SbVisibleLate
from tests._programs import PhasedKillerProgram

POOLS = ("process-pool", "process-pool-shmem", "asyncio-local")
WORKERS = 2
#: A TSO base seed whose serial hunt first diverges at run 53: far
#: above the window, so the cancel lands with most indexes unsubmitted.
HUNT_BASE = 120085
HUNT_FIRST_NDET = 53


@pytest.fixture(autouse=True)
def _disarmed():
    failpoints.deactivate()
    yield
    failpoints.deactivate()


def _canonical(result):
    payload = result_to_dict(result, include_hashes=True)
    payload.pop("workers")
    return json.dumps(payload, sort_keys=True, default=str)


def _hunt(executor="auto", runs=600, stop_on_first=True, telemetry=None):
    workers = 1 if executor == "auto" else WORKERS
    return check_determinism(
        SbVisibleLate(n_workers=2, spin=4),
        CheckConfig(runs=runs, base_seed=HUNT_BASE, memory_model="tso",
                    stop_on_first=stop_on_first, workers=workers,
                    executor=executor),
        telemetry=telemetry)


def _events(tele, name):
    return [e for e in tele.sink.events
            if e.get("t") == "event" and e.get("name") == name]


def test_window_exceeds_the_call_queue():
    """Above ``n_workers + 1`` queued calls plus ``n_workers`` running
    ones, a cancel drains the same set as up-front submission did."""
    for n in (1, 2, 8):
        assert submit_window(n) > 2 * n + 1


@pytest.mark.parametrize("stop_on_first", [True, False],
                         ids=["stop-on-first", "full"])
def test_verdict_identical_across_backends(stop_on_first):
    # Both lengths run past the divergence, and far past the window.
    runs = 600 if stop_on_first else HUNT_FIRST_NDET + 11
    serial = _hunt(runs=runs, stop_on_first=stop_on_first)
    assert serial.judged.first_ndet_run == HUNT_FIRST_NDET
    for executor in POOLS:
        pooled = _hunt(executor, runs=runs, stop_on_first=stop_on_first)
        assert _canonical(pooled) == _canonical(serial), executor


@pytest.mark.parametrize("executor", POOLS)
def test_outstanding_futures_never_exceed_the_window(monkeypatch, executor):
    lock = threading.Lock()
    state = {"submitted": 0, "outstanding": 0, "peak": 0}
    real_submit = ProcessPoolExecutor.submit

    def settle(_future):
        with lock:
            state["outstanding"] -= 1

    def counting_submit(self, fn, *args, **kwargs):
        future = real_submit(self, fn, *args, **kwargs)
        with lock:
            state["submitted"] += 1
            state["outstanding"] += 1
            state["peak"] = max(state["peak"], state["outstanding"])
        future.add_done_callback(settle)
        return future

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    runs = 4 * submit_window(WORKERS)
    result = _hunt(executor, runs=runs, stop_on_first=False)
    assert result.runs == runs
    # Every pooled index (run 1 records in the parent) went in once.
    assert state["submitted"] == runs - 1
    assert 1 < state["peak"] <= submit_window(WORKERS)

    state.update(submitted=0, peak=0)
    result = _hunt(executor, runs=600)
    assert result.judged.first_ndet_run == HUNT_FIRST_NDET
    assert state["peak"] <= submit_window(WORKERS)
    # The cancel stopped submission near the divergence, not at 600.
    assert state["submitted"] < HUNT_FIRST_NDET + 2 * submit_window(WORKERS)


@pytest.mark.parametrize("executor", POOLS)
def test_twice_broken_pool_resolves_every_index(executor):
    """Each worker dies on its second task, so the rebuilt pool breaks
    too and isolation re-runs the rest — including indexes the window
    never submitted."""
    runs = 3 * submit_window(WORKERS)
    baseline = _hunt(runs=runs, stop_on_first=False)
    tele = Telemetry(MemorySink())
    failpoints.activate(FailpointPlan.parse("worker.run.before=kill@every:2"))
    try:
        result = _hunt(executor, runs=runs, stop_on_first=False,
                       telemetry=tele)
    finally:
        failpoints.deactivate()
    assert result.runs == runs and not result.failures
    assert _canonical(result) == _canonical(baseline)
    rebuilt = _events(tele, "pool_rebuilt")
    assert len(rebuilt) == 1
    # The rebuild requeued unsubmitted indexes too, not just in-flight.
    assert rebuilt[0]["requeued"] > submit_window(WORKERS)


def test_submit_into_a_broken_pool_fails_the_future_instead_of_raising():
    """A pool can break between two waits; the top-up then hands back a
    failed future, so the stream's recovery requeues the index."""
    class Broken:
        def submit(self, fn, *args):
            raise BrokenProcessPool("a worker died")

    queue = deque([3, 4, 5])
    tasks = {i: (print, (i,)) for i in queue}
    out = list(submit_queued(Broken(), tasks, queue, {}, window=2))
    assert [index for index, _ in out] == [3, 4]
    assert all(isinstance(f.exception(), BrokenExecutor) for _, f in out)
    assert list(queue) == [5]


def test_worker_exit_never_waits_on_an_orphaned_heartbeat_lock():
    """A worker killed while its heartbeat feeder held the queue's write
    lock leaves that lock held for good; later workers must still exit
    (their unsent beats are dropped), or every pool shutdown hangs."""
    ctx = _mp_context()
    beat_queue = ctx.Queue()
    beat_queue._wlock.acquire()  # the lock a dead worker took with it
    pool = ProcessPoolExecutor(max_workers=1, mp_context=ctx,
                               initializer=_worker_init,
                               initargs=((beat_queue, 0.01),))
    try:
        assert pool.submit(abs, -3).result(timeout=30) == 3
        closer = threading.Thread(target=pool.shutdown, daemon=True)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive(), "the worker hung at exit"
    finally:
        beat_queue._wlock.release()  # unstick a hung worker, if any
        pool.shutdown(wait=True)
        beat_queue.close()


@pytest.mark.parametrize("executor", POOLS)
def test_a_pool_break_rearms_the_heartbeat_channel(executor, monkeypatch):
    """A worker killed while its feeder held the beat queue's write lock
    silences every later worker on that queue, so each pool built after
    a worker death beats on a fresh queue under a fresh monitor."""
    monitors = []
    start = HeartbeatMonitor.start

    def recording_start(self):
        if not monitors:
            self.queue._wlock.acquire()  # as a worker killed mid-beat
        monitors.append(self)
        return start(self)

    monkeypatch.setattr(HeartbeatMonitor, "start", recording_start)
    tele = Telemetry(MemorySink())
    failpoints.activate(FailpointPlan.parse("worker.run.before=kill@every:2"))
    try:
        result = _hunt(executor, runs=3 * submit_window(WORKERS),
                       stop_on_first=False, telemetry=tele)
    finally:
        failpoints.deactivate()
        if monitors:
            monitors[0].queue._wlock.release()
    assert not result.failures
    assert len(monitors) >= 2
    assert len({id(m.queue) for m in monitors}) == len(monitors)
    # Only workers of the pools built after the break could beat.
    assert _events(tele, "worker_heartbeat")


def test_isolation_reruns_publish_through_the_shmem_lanes():
    """Far more isolation re-runs than spare lanes: every crashed run
    still salvages its published prefix (isolation pools reclaim one
    lane instead of using one up each)."""
    runs = 2 * submit_window(WORKERS)
    result = check_determinism(
        PhasedKillerProgram(phases=8, kill_after=3),
        CheckConfig(runs=runs, workers=WORKERS,
                    executor="process-pool-shmem"))
    assert len(result.failures) == runs - 1
    assert {f.checkpoints for f in result.failures} == {3}


@pytest.mark.parametrize("executor", ["process-pool", "asyncio-local"])
def test_session_cancelled_counts_the_runs_that_never_started(executor):
    tele = Telemetry(MemorySink())
    runs = 600
    result = _hunt(executor, runs=runs, telemetry=tele)
    assert result.judged.first_ndet_run == HUNT_FIRST_NDET
    (event,) = _events(tele, "session_cancelled")
    # Every started pooled run was drained and merged its telemetry;
    # run 1 ran in the parent.
    started = len(_events(tele, "worker_merge"))
    assert event["cancelled"] == runs - 1 - started
    assert event["cancelled"] > runs - HUNT_FIRST_NDET - 2 * submit_window(
        WORKERS)


def test_plan_does_no_per_run_work():
    program = SbVisibleLate(n_workers=2, spin=4)
    config = CheckConfig(runs=10**6)
    SessionPlan.from_config(program, config)  # warm imports and caches
    tracemalloc.start()
    try:
        plan = SessionPlan.from_config(program, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.config.runs == 10**6
    assert peak < 64 * 1024
