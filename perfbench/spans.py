"""Outside-in per-layer tracing for the repo benchmark.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
public entry points of each layer with timing wrappers (class
attributes and two module functions), so the traced run measures the
same code the untraced run does, plus the wrappers' own cost.

Each wrapper opens a span on a per-process stack.  A span's *self*
time is its duration minus the durations of the wrapped calls made
inside it, so every nanosecond lands in exactly one layer.  What a
wrapper costs its caller (the call into the wrapper and the
bookkeeping outside the timed interval) is measured once by
:func:`calibrate` and removed from the caller's self time, so it counts
neither as a layer's work nor as unattributed time.

Pool workers are forked after :func:`install`, so they inherit the
wrappers.  The wrapped ``session_run_worker`` clears the inherited
totals on entry and returns the worker's totals inside its result
dict; the parent's wrapped ``next_result`` pops them before the
engine sees the value and merges them per pid.
"""

from __future__ import annotations

import functools
import os
import pickle
import statistics
import time
from collections import defaultdict

import speed

_ns = time.perf_counter_ns

#: Result-dict key that carries a worker's totals back to the parent.
PAYLOAD_KEY = "perfbench_trace"


class Totals:
    """Self time, outgoing wrapped calls and counters of one process."""

    def __init__(self):
        self.self_ns = defaultdict(int)     # layer -> self time
        self.calls_from = defaultdict(int)  # layer -> wrapped calls it made
        self.counts = defaultdict(int)      # counter -> value

    def merge(self, other: dict) -> None:
        for name in ("self_ns", "calls_from", "counts"):
            mine = getattr(self, name)
            for key, value in other[name].items():
                mine[key] += value

    def export(self) -> dict:
        return {"self_ns": dict(self.self_ns),
                "calls_from": dict(self.calls_from),
                "counts": dict(self.counts)}


class Tracer:
    """Span stack plus the totals of this process (and, in the parent,
    of every worker that reported back)."""

    def __init__(self):
        self.active = False
        self.pid = os.getpid()
        #: Open spans: [layer, child_ns, child_calls, outer frame, start].
        self.stack: list = []
        self.local = Totals()
        self.workers = Totals()
        self.worker_pids: set = set()
        #: Extra caller-side nanoseconds per wrapped call (calibrate()).
        self.wrapper_ns = 0.0

    def reset(self) -> None:
        self.stack = []
        self.local = Totals()
        self.workers = Totals()
        self.worker_pids = set()

    def _enter(self, name: str) -> list:
        frame = [name, 0, 0, self.stack[-1] if self.stack else None, 0]
        self.stack.append(frame)
        frame[4] = _ns()
        return frame

    def _exit(self, frame: list) -> None:
        elapsed = _ns() - frame[4]
        self.stack.pop()
        name, child_ns, child_calls, outer = frame[:4]
        totals = self.local
        totals.self_ns[name] += elapsed - child_ns
        totals.calls_from[name] += child_calls
        if outer is not None:
            outer[1] += elapsed
            outer[2] += 1
        else:
            totals.calls_from["<root>"] += 1

    def wrap(self, layer: str, fn, counter=None, observe=None,
             nested=True):
        """Wrap *fn* as a span of *layer*.

        *counter* is incremented per call (with *nested* False, only
        for calls made from outside *layer*); *observe(counts, args,
        result)* adds derived counts after a counted call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            outer = frame[3]
            if counter is not None and (nested or outer is None
                                        or outer[0] != layer):
                counts = tracer.local.counts
                counts[counter] += 1
                if observe is not None:
                    observe(counts, args, result)
            return result

        return wrapper

    def wrap_async(self, layer, fn, on_result=None):
        """:meth:`wrap` for a coroutine method.  *layer* is a function
        of the receiver; *on_result(obj, result)* runs inside the span
        (it is part of the wait)."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(obj, *args, **kwargs):
            frame = tracer._enter(layer(obj))
            try:
                result = await fn(obj, *args, **kwargs)
                if on_result is not None:
                    on_result(obj, result)
            finally:
                tracer._exit(frame)
            return result

        return wrapper

    # -- pool workers -------------------------------------------------------

    def begin_worker_task(self) -> None:
        """Drop whatever this process inherited or last reported."""
        self.pid = os.getpid()
        self.stack = []
        self.local = Totals()

    def worker_payload(self, busy_ns: int, result_bytes: int) -> dict:
        payload = self.local.export()
        payload.update(pid=self.pid, busy_ns=busy_ns,
                       result_bytes=result_bytes)
        return payload

    def absorb(self, payload: dict) -> None:
        self.workers.merge(payload)
        self.worker_pids.add(payload["pid"])
        counts = self.workers.counts
        counts["transport.tasks"] += 1
        counts["transport.busy_ns"] += payload["busy_ns"]
        counts["transport.result_bytes"] += payload["result_bytes"]


#: The process-wide tracer: wrappers installed on classes are global,
#: so the state they write to is too.
TRACER = Tracer()


def _count_run(runner, record) -> None:
    """Stamp per-run counters onto *record* (always on, tracing or not).

    The bench's correctness gate and ``sim.program.steps`` read these;
    the stamp rides through pickling back from pool workers.
    """
    hash_updates = defaultdict(int)
    for scheme in runner.schemes.values():
        hash_updates[scheme.name] += scheme.hash_updates
    redundant = getattr(runner.scheduler, "last_run_redundant", None)
    record.perfbench = {"steps": runner.step_count,
                        "hash_updates": sum(hash_updates.values()),
                        "redundant": redundant,
                        "done_at": time.perf_counter()}
    record.perfbench["speed"] = speed.after_run()
    if TRACER.active:
        counts = TRACER.local.counts
        counts["runs"] += 1
        counts["steps"] += runner.step_count
        for kind, n in hash_updates.items():
            counts[f"hash_updates.{kind}"] += n
        if redundant is not None:
            counts["dpor.redundant_runs"] += bool(redundant)


def install_run_counter() -> None:
    """Wrap ``Runner.run`` with the per-run counter stamp."""
    from repro.sim.program import Runner

    run = Runner.run

    @functools.wraps(run)
    def counted_run(self, seed):
        record = run(self, seed)
        _count_run(self, record)
        return record

    Runner.run = counted_run


def _count_items(counts, args, result) -> None:
    # args: (kernel, mixer, rounding, addresses, ...) or (kernel, terms).
    counts["kernels.items"] += len(args[3] if len(args) > 3 else args[1])


def _count_drains(counts, args, result) -> None:
    counts["memmodel.drains"] += (1 if isinstance(result, tuple)
                                  else len(result))


def _count_forward(counts, args, result) -> None:
    counts["memmodel.forwards"] += bool(result[0])


def _count_batch(counts, args, result) -> None:
    counts["schemes.batch_events"] += len(args[1])


def _patch(cls, methods, layer, tracer, **kwargs) -> None:
    for method in methods:
        counter = f"{layer}:{method}"
        setattr(cls, method, tracer.wrap(layer, getattr(cls, method),
                                         counter=counter, **kwargs))


def install(tracer: Tracer = TRACER) -> None:
    """Wrap every layer's public entry points (idempotence not needed:
    a benchmark process installs once, after its untraced passes)."""
    from repro.core.control.controller import InstantCheckControl
    from repro.core.engine import session as session_mod
    from repro.core.engine import tasks as tasks_mod
    from repro.core.engine.judge import Judge
    from repro.core.engine.transports import ExecutorTransport
    from repro.core.hashing.kernels import NumpyKernel, PythonKernel
    from repro.core.schemes.hw_inc import HwIncScheme
    from repro.core.schemes.sw_inc import SwIncScheme
    from repro.core.schemes.sw_tr import SwTrScheme
    from repro.sim.dpor import DporScheduler
    from repro.sim.machine import Machine
    from repro.sim.memmodel import PsoModel, StoreBufferModel, TsoModel
    from repro.sim.program import Runner
    from repro.sim.scheduler import Scheduler

    _patch(Runner, ["run"], "sim.program", tracer)
    _patch(Scheduler, ["pick"], "sim.scheduler", tracer)
    _patch(DporScheduler, ["bind_runner", "begin_run", "choose",
                           "observe_step"], "sim.dpor", tracer)
    _patch(Machine, ["store", "load", "schedule_thread", "flush_stores",
                     "execute_drain", "drain_choices", "drain_thread",
                     "drain_all", "free_block"], "sim.machine", tracer)
    _patch(StoreBufferModel, ["push", "peek", "pending_keys",
                              "pending_count", "pending_for"],
           "sim.memmodel", tracer)
    _patch(StoreBufferModel, ["pop", "drain_thread", "drain_all"],
           "sim.memmodel", tracer, observe=_count_drains)
    for model in (TsoModel, PsoModel):
        _patch(model, ["forward"], "sim.memmodel", tracer,
               observe=_count_forward)
    for scheme in (HwIncScheme, SwIncScheme, SwTrScheme):
        store_layer = f"core.schemes.{scheme.name}.store"
        _patch(scheme, ["on_store", "on_free"], store_layer, tracer)
        _patch(scheme, ["on_store_batch"], store_layer, tracer,
               observe=_count_batch)
        _patch(scheme, ["state_hash"], f"core.schemes.{scheme.name}."
               "checkpoint", tracer)
    for kernel in (PythonKernel, NumpyKernel):
        for method in ("location_terms", "fold_locations", "store_delta",
                       "fold_terms"):
            setattr(kernel, method, tracer.wrap(
                "core.hashing.kernels", getattr(kernel, method),
                counter="kernels.calls", observe=_count_items,
                nested=False))
    _patch(InstantCheckControl, ["do_malloc", "do_free", "do_rand",
                                 "do_time", "do_write"],
           "core.control", tracer)
    _patch(Judge, ["fold_record", "fold_failure", "fold_expired",
                   "finalize"], "core.engine.judge", tracer)

    def transport_layer(transport):
        # The serial executor runs each task inline inside next_result:
        # its loop is session orchestration, not a transport.
        return ("core.engine.session" if transport.name == "serial"
                else "core.engine.transport")

    def take_payload(transport, result):
        if result is not None and isinstance(result[1], dict):
            payload = result[1].pop(PAYLOAD_KEY, None)
            if payload is not None:
                tracer.absorb(payload)

    pool_open: dict = {}

    def opened(transport, result):
        pool_open[id(transport)] = _ns()

    def closed(transport, result):
        start = pool_open.pop(id(transport), None)
        if start is not None and transport.name != "serial":
            tracer.local.counts["transport.pool_wall_ns"] += _ns() - start

    ExecutorTransport.start = tracer.wrap_async(
        transport_layer, ExecutorTransport.start, on_result=opened)
    ExecutorTransport.next_result = tracer.wrap_async(
        transport_layer, ExecutorTransport.next_result,
        on_result=take_payload)
    ExecutorTransport.close = tracer.wrap_async(
        transport_layer, ExecutorTransport.close, on_result=closed)

    worker = tracer.wrap("core.engine.transport.worker",
                         tasks_mod.session_run_worker)

    @functools.wraps(tasks_mod.session_run_worker)
    def session_run_worker(*args, **kwargs):
        tracer.begin_worker_task()
        start = _ns()
        out = worker(*args, **kwargs)
        busy = _ns() - start
        out[PAYLOAD_KEY] = tracer.worker_payload(
            busy, len(pickle.dumps(out)))
        return out

    # Pickle finds the task function by module + qualified name, so the
    # module attribute must be the wrapper for forked workers to run it.
    tasks_mod.session_run_worker = session_run_worker
    session_mod.session_run_worker = session_run_worker
    tracer.active = True


def calibrate(tracer: Tracer = TRACER, calls: int = 50_000,
              repeats: int = 5) -> float:
    """Measure what one wrapped call costs its caller beyond a bare call.

    Returns (and stores in ``tracer.wrapper_ns``) the median over
    *repeats* of ``(wrapped caller self time - bare loop time) /
    calls``.  Must run before any traced pass: it resets the totals.
    """
    def noop():
        return None

    def loop(fn):
        for _ in range(calls):
            fn()

    child = tracer.wrap("calibration.child", noop, counter="calibration")
    parent = tracer.wrap("calibration.parent", loop)
    extra = []
    for _ in range(repeats):
        tracer.local = Totals()
        parent(child)
        wrapped = tracer.local.self_ns["calibration.parent"]
        start = _ns()
        loop(noop)
        bare = _ns() - start
        extra.append((wrapped - bare) / calls)
    tracer.reset()
    tracer.wrapper_ns = max(0.0, statistics.median(extra))
    return tracer.wrapper_ns
