"""The runtime's step loop against a from-scratch reference.

``Runner._run_phase`` resolves the thread order, the memory-model and
observer flags and the switch-point predicate once per phase, and checks
readiness inline.  These tests wrap ``Scheduler.pick`` on the runner's
scheduler and assert, at every step, that the runnable list the loop
hands over equals the one a from-scratch scan computes with the
reference readiness predicate below (drain pseudo-tids first, then the
ready threads in tid order).  They also pin each run's step, pick and
switch counts and its instruction categories to the values the
rescan-every-step loop produced, so the per-phase hoisting cannot change
which op runs when.

Re-record the pins (only after an intentional schedule change) with::

    PYTHONPATH=src python tests/sim/test_step_loop.py > tests/fixtures/step_loop_pins.json
"""

from __future__ import annotations

import itertools
import json
import pathlib

import pytest

from repro.core.control.controller import InstantCheckControl
from repro.core.schemes.base import SchemeConfig
from repro.sim.layout import StaticLayout
from repro.sim.program import FENCE_OPS, Program, Runner, _Status
from repro.sim.scheduler import make_scheduler
from repro.sim.sync import Barrier, Lock
from repro.workloads import make
from repro.workloads.seeded_bugs import SEEDED

PINS = pathlib.Path(__file__).parent.parent / "fixtures" / "step_loop_pins.json"

SCHEDULERS = ("random", "pct", "round_robin", "dpor")
MEMORY_MODELS = ("sc", "tso", "pso")
#: (granularity, migrate_prob) pairs; cycled over the scheduler x
#: memory-model grid so every pair meets every scheduler.
PLACEMENTS = (("sync", 0.0), ("access", 0.25), ("sync", 0.25),
              ("access", 0.0))
SEEDS = (3, 4)


class LockHeavy(Program):
    """Two locks taken nested and alone, plus every fence-op kind.

    Heap churn (malloc/free), library calls, output and an explicit
    checkpoint put free/checkpoint stalls and per-thread fences on the
    path of buffered stores under TSO/PSO.
    """

    name = "lock-heavy"

    def __init__(self, n_workers: int = 3, rounds: int = 3):
        layout = StaticLayout()
        self.total = layout.var("total")
        self.slots = layout.array("slots", n_workers)
        super().__init__(n_workers=n_workers, static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types
        self.rounds = rounds

    def make_state(self):
        st = super().make_state()
        st.outer = Lock("outer")
        st.inner = Lock("inner")
        st.barrier = Barrier(self.n_workers, name="round")
        return st

    def worker(self, ctx, st, wid):
        for r in range(self.rounds):
            yield from ctx.store(self.slots + wid, r)
            yield from ctx.lock(st.outer)
            yield from ctx.lock(st.inner)
            total = yield from ctx.load(self.total)
            yield from ctx.store(self.total, total + wid + 1)
            yield from ctx.unlock(st.inner)
            yield from ctx.compute(5)
            yield from ctx.unlock(st.outer)
            yield from ctx.sched_yield()
            block = yield from ctx.malloc(2, site="lock-heavy:tmp")
            yield from ctx.store(block.base, (yield from ctx.rand()))
            yield from ctx.free(block.base)
            yield from ctx.lock(st.inner)
            yield from ctx.store(self.slots + wid, r + 1)
            yield from ctx.unlock(st.inner)
        yield from ctx.barrier_wait(st.barrier)
        if wid == 0:
            yield from ctx.checkpoint("after-rounds")
            yield from ctx.gettimeofday()
            total = yield from ctx.load(self.total)
            yield from ctx.write_output([total])


def _programs() -> dict:
    return {
        "lock-heavy": lambda: LockHeavy(),
        "condvar": lambda: make("pbzip2", n_workers=3, n_chunks=4,
                                chunk_words=2, queue_slots=2),
        "sb-dcl": lambda: SEEDED.get("seeded-sb-dcl")(n_workers=3),
    }


def _cases() -> list:
    grid = list(itertools.product(SCHEDULERS, MEMORY_MODELS))
    return [(program, scheduler, model) + PLACEMENTS[i % len(PLACEMENTS)]
            for program in _programs()
            for i, (scheduler, model) in enumerate(grid)]


def _case_id(case) -> str:
    program, scheduler, model, granularity, migrate = case
    return f"{program}-{scheduler}-{model}-{granularity}-m{migrate}"


# -- the reference ------------------------------------------------------------


def reference_ready(runner, thread) -> bool:
    """The rescan-every-step readiness predicate, verbatim.

    Ready means: not parked or done, and either a wakeup to deliver or
    a pending op that can execute now — a lock op waits for the lock,
    and under a buffering memory model a fence op waits for the issuing
    thread's buffers, ``free``/``checkpoint`` for every buffer.
    """
    if thread.status is not _Status.READY:
        return False
    if thread.deliver:
        return True
    op = thread.pending
    if op is None:
        return False
    model = runner.machine.memory_model
    if model is not None:
        if op.kind in FENCE_OPS:
            if model.pending_for(thread.tid):
                return False
        elif op.kind in ("free", "checkpoint") and model.pending_count():
            return False
    if op.kind == "lock":
        return not op.args[0].held
    return True


def reference_runnable(runner) -> list:
    ready = sorted(t.tid for t in runner._threads.values()
                   if reference_ready(runner, t))
    return runner.machine.drain_choices() + ready


def _record_picks(runner) -> list:
    """Shadow the scheduler's ``pick`` with a checking wrapper.

    Returns the list the wrapper appends each checked step's runnable
    list to.
    """
    scheduler = runner.scheduler
    inner = scheduler.pick
    seen: list = []

    def pick(runnable, current, at_switch_point):
        expected = reference_runnable(runner)
        assert runnable == expected, (
            f"step {runner.step_count}: loop offered {runnable}, "
            f"reference {expected}")
        seen.append(tuple(runnable))
        return inner(runnable, current, at_switch_point)

    scheduler.pick = pick
    return seen


def _run_case(case) -> list:
    program_name, scheduler, model, granularity, migrate = case
    runner = Runner(_programs()[program_name](),
                    scheme_factory=SchemeConfig(kind="hw"),
                    control=InstantCheckControl(),
                    scheduler=make_scheduler(scheduler, granularity),
                    migrate_prob=migrate, memory_model=model,
                    n_cores=2)
    seen = _record_picks(runner)
    counts = []
    for seed in SEEDS:
        del seen[:]
        runner.run(seed)
        assert len(seen) == runner.step_count == runner._sched_picks
        counts.append({"steps": runner.step_count,
                       "picks": runner._sched_picks,
                       "switches": runner._sched_switches,
                       "instructions": dict(sorted(
                           runner.counters.instructions.items()))})
    return counts


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("case", _cases(), ids=_case_id)
def test_runnable_matches_reference_and_counts_pinned(case, pins):
    assert _run_case(case) == pins[_case_id(case)]


def test_cases_cover_every_axis():
    cases = _cases()
    for axis, values in enumerate((tuple(_programs()), SCHEDULERS,
                                   MEMORY_MODELS, ("sync", "access"),
                                   (0.0, 0.25))):
        assert {case[axis] for case in cases} == set(values)
    assert len(cases) == len(json.loads(PINS.read_text()))


def test_pso_puts_drains_in_front():
    """Under PSO the DCL program puts drain pseudo-tids in front of the
    thread tids, so the splice the grid checks is exercised."""
    runner = Runner(SEEDED.get("seeded-sb-dcl")(n_workers=3),
                    scheduler=make_scheduler("random"), memory_model="pso")
    seen = _record_picks(runner)
    runner.run(5)
    assert any(r and r[0] < 0 for r in seen)


if __name__ == "__main__":
    print("{\n" + ",\n".join(
        f"{json.dumps(_case_id(case))}: "
        f"{json.dumps(_run_case(case), sort_keys=True)}"
        for case in sorted(_cases(), key=_case_id)) + "\n}")
