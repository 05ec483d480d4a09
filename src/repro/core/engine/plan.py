"""Session planning: validate a config and resolve how it runs.

A :class:`SessionPlan` is the validated, fully-resolved form of a
:class:`~repro.core.engine.model.CheckConfig`: the resolved worker
topology, the retry policy, and factories for the session-scoped
controller, runner, and wall-clock budget.  Runs are the indexes
``range(config.runs)`` (:func:`~repro.core.engine.tasks.attempt_run`
derives each seed): every pool task builds a plan, at any ``runs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.checker.policies import NO_RETRY, SessionBudget
from repro.core.control.controller import InstantCheckControl
from repro.core.engine.model import CheckConfig
from repro.errors import CheckerError
from repro.sim.program import Program, Runner
from repro.sim.scheduler import SCHEDULERS, make_scheduler


@dataclass(frozen=True)
class SessionPlan:
    """Everything the executors need to run one checking session."""

    program: Program
    config: CheckConfig
    n_workers: int

    @classmethod
    def from_config(cls, program: Program, config: CheckConfig,
                    n_workers: int | None = None) -> SessionPlan:
        """Validate *config* and resolve it into a plan.

        *n_workers* overrides the config's ``workers`` knob when the
        caller already resolved it (the parallel facade does).
        """
        from repro.core.engine.executors import resolve_workers

        if config.runs < 2:
            raise CheckerError("determinism checking needs at least 2 runs")
        if (config.judge_variant is not None
                and config.judge_variant not in config.variant_names()):
            raise CheckerError(
                f"judge_variant {config.judge_variant!r} is not produced by "
                f"this session; configured variants: {config.variant_names()}")
        if getattr(SCHEDULERS[config.scheduler], "systematic", False):
            n_workers = 1  # CheckConfig rejects a pool executor for it
        if n_workers is None:
            n_workers = (resolve_workers(config.workers)
                         if config.workers != 1 else 1)
        return cls(program=program, config=config, n_workers=n_workers)

    @property
    def retry(self):
        """The effective retry policy (None in the config means none)."""
        return self.config.retry if self.config.retry is not None else NO_RETRY

    def make_control(self) -> InstantCheckControl:
        """The session-scoped controller (run 1 records, later runs replay)."""
        config = self.config
        return InstantCheckControl(
            zero_fill=config.zero_fill,
            malloc_replay=config.malloc_replay,
            libcall_replay=config.libcall_replay,
            io_hash=config.io_hash,
            strict_replay=config.strict_replay,
            ignores=config.ignores,
        )

    def make_runner(self, control, tele, checkpoint_hook=None) -> Runner:
        """A runner wired up the way one checking session needs it.

        *checkpoint_hook* is invoked with each checkpoint record the
        moment it is taken (the shmem backend's streaming publish).
        """
        config = self.config
        scheduler = make_scheduler(config.scheduler, config.granularity)
        return Runner(self.program, scheme_factory=dict(config.schemes),
                      control=control, scheduler=scheduler,
                      n_cores=config.n_cores,
                      migrate_prob=config.migrate_prob,
                      max_steps=config.max_steps, telemetry=tele,
                      checkpoint_hook=checkpoint_hook,
                      memory_model=config.memory_model)

    def new_budget(self) -> SessionBudget:
        """A freshly-armed wall-clock budget for one session execution."""
        return SessionBudget(deadline_s=self.config.deadline_s,
                             run_deadline_s=self.config.run_deadline_s).start()
