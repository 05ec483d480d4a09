"""Data model of the session engine.

The configuration and result types of a determinism-checking session
and of a multi-input campaign, plus the single engine-owned outcome
classifier.  The checker facades (``repro.core.checker.runner`` and
``.campaign``) re-export everything here, so existing imports and
pickles keep working.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.checker.distribution import group_distributions
from repro.core.checker.policies import NO_RETRY, RetryPolicy
from repro.core.hashing.kernels import (AUTO_BACKEND, HASH_BACKENDS,
                                        resolve_backend)
from repro.core.schemes.base import SchemeConfig
from repro.errors import CheckerError
from repro.sim.memmodel import MEMORY_MODELS
from repro.sim.scheduler import SCHEDULERS

#: Session outcomes, from best to worst.
OUTCOME_DETERMINISTIC = "deterministic"
OUTCOME_NONDETERMINISTIC = "nondeterministic"
OUTCOME_CRASH_DIVERGENCE = "crash-divergence"
OUTCOME_INFEASIBLE = "infeasible"
OUTCOME_INCOMPLETE = "incomplete"

#: Campaign-level outcome for an input whose session raised outright.
OUTCOME_ERROR = "error"


def classify_outcome(n_records: int, n_failures: int,
                     deterministic: bool) -> str:
    """Classify one session's outcome mix — the engine-owned rule.

    Both executor backends produce their verdict through this single
    function: a session where every attempted run crashed is
    ``infeasible`` (nothing to compare); one that crashed on some
    schedules but completed on others is ``crash-divergence`` (the
    crash *is* schedule-dependent behavior); fewer than two completed
    runs compared nothing (``incomplete``); otherwise the judged
    variant decides deterministic vs nondeterministic.
    """
    if n_failures and not n_records:
        return OUTCOME_INFEASIBLE
    if n_failures:
        return OUTCOME_CRASH_DIVERGENCE
    if n_records < 2:
        return OUTCOME_INCOMPLETE
    return (OUTCOME_DETERMINISTIC if deterministic
            else OUTCOME_NONDETERMINISTIC)


class FrozenDict(dict):
    """An immutable, picklable mapping.

    ``CheckConfig`` is ``frozen=True`` but used to carry a plain
    mutable ``schemes`` dict — freezing the dataclass froze the
    *reference*, not the mapping.  ``__post_init__`` now wraps it in
    this type, so mutation attempts raise instead of silently changing
    a session's configuration after the fact.

    A ``mappingproxy`` would not do: configs travel to worker
    processes, and proxies do not pickle.  ``__reduce__`` rebuilds via
    the constructor because pickle's default dict-subclass protocol
    replays items through the (blocked) ``__setitem__``.
    """

    def _frozen(self, *args, **kwargs):
        raise TypeError(
            f"{type(self).__name__} is immutable; build a new CheckConfig "
            "with dataclasses.replace() instead of mutating this mapping")

    __setitem__ = __delitem__ = _frozen
    clear = pop = popitem = setdefault = update = _frozen
    __ior__ = _frozen

    def __reduce__(self):
        return (type(self), (dict(self),))

    def copy(self) -> dict:
        """A *mutable* copy, mirroring ``frozenset.copy`` semantics."""
        return dict(self)


@dataclass(frozen=True)
class CheckConfig:
    """Configuration of one determinism-checking session.

    ``schemes`` maps variant names to :class:`SchemeConfig`; every variant
    hashes the same runs, so one session can judge a program bit-by-bit
    and FP-rounded at once.  ``judge_variant`` names the variant whose
    verdict decides :attr:`DeterminismResult.deterministic` (and the
    campaign's per-input verdict); the default — None — judges by the
    *last* configured variant, the most permissive reading (e.g. rounded,
    or rounded+ignore when ignores are configured).

    Fault tolerance: ``fail_fast`` re-raises the first failing run (the
    pre-robustness behavior); the default isolates failures per run.
    ``retry`` retries transient failures; ``deadline_s`` and
    ``run_deadline_s`` bound the session / each run in wall-clock time,
    and ``max_steps`` bounds each run in scheduling steps (the livelock
    guard).  ``strict_replay`` makes record/replay log divergence raise
    :class:`~repro.errors.ReplayError` instead of falling back.

    ``workers`` spreads the session's runs across worker processes
    (see :mod:`repro.core.engine.executors`): 1 (the default) is the
    serial path, ``"auto"`` uses one worker per CPU, and any larger
    integer sets the pool size explicitly.  The verdict is bit-identical
    to the serial path; only wall-clock time changes.  ``executor``
    names the backend explicitly (``serial`` / ``process-pool`` /
    ``process-pool-shmem``); the default ``"auto"`` picks from the
    resolved worker topology (honouring ``REPRO_EXECUTOR`` as the
    preferred pool flavor — see
    :func:`~repro.core.engine.executors.resolve_executor`).

    The instance is immutable all the way down: ``__post_init__``
    freezes ``schemes`` into a :class:`FrozenDict` and coerces
    ``ignores`` to a tuple, so a config captured by a running session
    cannot be changed under it.  It also rejects what would fail later —
    non-:class:`SchemeConfig` ``schemes``, a scheduler, memory-model,
    hash-backend or executor name its registry does not know, ``numpy``
    without numpy, ``workers`` not a positive int or ``"auto"``, ``dpor``
    on a pool executor — with a :class:`~repro.errors.CheckerError` (the
    CLI's usage exit code 3).
    """

    runs: int = 30
    schemes: dict = field(default_factory=lambda: {"main": SchemeConfig()})
    scheduler: str = "random"
    granularity: str = "sync"
    #: Memory model of the simulated machine: ``sc`` (the default,
    #: bit-identical to the pre-model engine), ``tso``, or ``pso``
    #: (per-thread / per-location store buffers with scheduler-driven
    #: drains — see :mod:`repro.sim.memmodel`).
    memory_model: str = "sc"
    n_cores: int = 8
    base_seed: int = 1000
    ignores: tuple = ()
    zero_fill: bool = True
    malloc_replay: bool = True
    libcall_replay: bool = True
    io_hash: bool = True
    compare_output: bool = True
    stop_on_first: bool = False
    migrate_prob: float = 0.0
    judge_variant: str | None = None
    fail_fast: bool = False
    retry: RetryPolicy = NO_RETRY
    deadline_s: float | None = None
    run_deadline_s: float | None = None
    max_steps: int = 20_000_000
    strict_replay: bool = False
    workers: int | str = 1
    executor: str = "auto"

    def __post_init__(self):
        if not isinstance(self.schemes, Mapping):
            raise CheckerError(
                f"schemes must map variant names to SchemeConfig, got "
                f"{type(self.schemes).__name__} {self.schemes!r}")
        for name, scheme in self.schemes.items():
            if not isinstance(scheme, SchemeConfig):
                raise CheckerError(
                    f"schemes[{name!r}] must be a SchemeConfig, got "
                    f"{type(scheme).__name__} {scheme!r}")
            backend = scheme.backend
            if isinstance(backend, str) and backend != AUTO_BACKEND:
                try:
                    HASH_BACKENDS.get(backend)
                    resolve_backend(backend)
                except ValueError as exc:
                    raise CheckerError(f"schemes[{name!r}]: {exc}") from None
        for registry, name in ((SCHEDULERS, self.scheduler),
                               (MEMORY_MODELS, self.memory_model)):
            try:
                registry.get(name)
            except registry.error as exc:
                raise CheckerError(str(exc)) from None
        from repro.core.engine.executors import EXECUTORS, resolve_workers

        resolve_workers(self.workers)
        if self.executor != "auto":
            EXECUTORS.get(self.executor)
            if (self.executor != "serial" and getattr(
                    SCHEDULERS[self.scheduler], "systematic", False)):
                raise CheckerError(
                    f"scheduler {self.scheduler!r} is systematic and requires "
                    f"the serial executor (got {self.executor!r})")
        object.__setattr__(self, "schemes", FrozenDict(self.schemes))
        object.__setattr__(self, "ignores", tuple(self.ignores))

    def variant_names(self) -> tuple:
        """Every verdict name a session with this config will produce."""
        names = []
        for name in self.schemes:
            names.append(name)
            if self.ignores:
                names.append(name + "+ignore")
        return tuple(names)


@dataclass
class VariantVerdict:
    """Determinism verdict for one scheme variant of a session."""

    name: str
    adjusted: bool  # True when ignore-deletion was applied
    points: list    # list[PointDistribution]
    deterministic: bool
    first_ndet_run: int | None  # 1-based, as Table 1 reports it
    n_det_points: int
    n_ndet_points: int
    det_at_end: bool

    @property
    def distribution_groups(self) -> dict:
        return group_distributions(self.points)


@dataclass
class RunFailure:
    """One run that raised instead of completing.

    ``run`` is the 1-based index of the scheduled run (the position its
    record would have held), ``seed`` the schedule seed of the attempt
    that finally failed, ``attempts`` how many tries the retry policy
    spent.  ``steps`` and ``checkpoints`` capture how far the run got —
    partial progress localizes a crash the same way a first divergent
    checkpoint localizes a hash mismatch.
    """

    run: int
    seed: int
    error: str       # exception class name, e.g. "DeadlockError"
    message: str
    steps: int = 0
    checkpoints: int = 0
    attempts: int = 1

    def summary(self) -> str:
        return (f"run {self.run} (seed {self.seed}): {self.error}: "
                f"{self.message} [after {self.steps} steps, "
                f"{self.checkpoints} checkpoint(s), "
                f"{self.attempts} attempt(s)]")


@dataclass
class DeterminismResult:
    """Everything one checking session learned.

    ``runs`` counts *completed* runs (``records``); ``requested_runs``
    is what the config asked for.  ``failures`` lists the runs that
    crashed or hung; ``budget_exhausted`` is True when the session
    deadline expired before every requested run was attempted, in which
    case the verdict is partial — "deterministic within N completed
    runs", never more.
    """

    program: str
    runs: int
    records: list
    structures_match: bool
    outputs_match: bool
    output_first_ndet_run: int | None
    verdicts: dict  # variant name (or name+"+ignore") -> VariantVerdict
    failures: list = field(default_factory=list)
    requested_runs: int = 0
    budget_exhausted: bool = False
    judge_variant: str | None = None
    #: Worker-process count the session actually used (1 = serial).
    workers: int = 1

    def verdict(self, name: str) -> VariantVerdict:
        return self.verdicts[name]

    @property
    def judged(self) -> VariantVerdict | None:
        """The verdict of the judging variant (None if no run completed).

        ``judge_variant`` is resolved by the session from
        :attr:`CheckConfig.judge_variant`, defaulting to the last
        configured variant; this single property is what both
        :attr:`deterministic` and the campaign judge by.
        """
        if not self.verdicts:
            return None
        if self.judge_variant is not None:
            return self.verdicts[self.judge_variant]
        return list(self.verdicts.values())[-1]

    @property
    def crash_divergence(self) -> bool:
        """Did the program crash on some schedules but complete on others?"""
        return bool(self.failures) and bool(self.records)

    @property
    def infeasible(self) -> bool:
        """Did every attempted run crash, leaving nothing to compare?"""
        return bool(self.failures) and not self.records

    @property
    def first_failed_run(self) -> int | None:
        """1-based index of the first crashing run — the crash-divergence
        analog of a variant's ``first_ndet_run``."""
        if not self.failures:
            return None
        return min(f.run for f in self.failures)

    @property
    def outcome(self) -> str:
        """One of the ``OUTCOME_*`` constants (see :func:`classify_outcome`)."""
        return classify_outcome(len(self.records), len(self.failures),
                                self.deterministic)

    @property
    def deterministic(self) -> bool:
        """Deterministic under the judging variant (and output hash).

        Any run failure vetoes determinism: crashing on one schedule
        but not another is observable divergence.  Fewer than two
        completed runs compared nothing, so they prove nothing.
        """
        judged = self.judged
        if judged is None or self.failures or len(self.records) < 2:
            return False
        return (judged.deterministic and self.structures_match
                and self.outputs_match)


@dataclass(frozen=True)
class InputPoint:
    """One input configuration: constructor kwargs for the program."""

    name: str
    params: dict = field(default_factory=dict)


@dataclass
class InputOutcome:
    """What one input's checking session found.

    ``outcome`` is one of the session ``OUTCOME_*`` constants or
    :data:`OUTCOME_ERROR`; ``error``/``error_message`` name the failure
    for error and infeasible inputs; ``failures`` carries the session's
    per-run crash records.  ``result`` is None for inputs restored from
    a resume journal and for inputs whose session raised.
    """

    input: InputPoint
    deterministic: bool
    det_at_end: bool
    n_ndet_points: int
    first_ndet_run: int | None
    result: object  # the full DeterminismResult (None if unavailable)
    outcome: str = ""
    error: str | None = None
    error_message: str | None = None
    failures: list = field(default_factory=list)


@dataclass
class CampaignResult:
    """Aggregate over every input point."""

    program: str
    outcomes: list
    #: Input names restored from a resume journal (not re-run).
    resumed_inputs: list = field(default_factory=list)

    @property
    def deterministic_on_all_inputs(self) -> bool:
        return all(o.deterministic for o in self.outcomes)

    @property
    def flagged_inputs(self) -> list:
        return [o.input.name for o in self.outcomes if not o.deterministic]

    @property
    def errored_inputs(self) -> list:
        """Inputs whose session failed outright (infrastructure, not a
        determinism verdict)."""
        return [o.input.name for o in self.outcomes
                if o.outcome == OUTCOME_ERROR]

    @property
    def end_visible_inputs(self) -> list:
        """Inputs on which nondeterminism reaches the final state —
        the ones end-to-end output comparison alone would catch."""
        return [o.input.name for o in self.outcomes if not o.det_at_end]

    @property
    def internal_only_inputs(self) -> list:
        """Inputs where only internal checkpoints expose the problem
        (the streamcluster-medium pattern)."""
        return [o.input.name for o in self.outcomes
                if not o.deterministic and o.det_at_end]

    def summary(self) -> str:
        lines = [f"campaign over {len(self.outcomes)} input(s) of "
                 f"{self.program}:"]
        for o in self.outcomes:
            if o.outcome == OUTCOME_ERROR:
                status = f"ERROR ({o.error}: {o.error_message})"
            elif o.deterministic:
                status = "deterministic"
            else:
                status = (f"NONDETERMINISTIC ({o.n_ndet_points} points, "
                          f"end {'clean' if o.det_at_end else 'corrupted'}, "
                          f"first run {o.first_ndet_run})")
                if o.failures:
                    status += (f" [{o.outcome}: {len(o.failures)} "
                               f"failed run(s), first: {o.failures[0].error}]")
            resumed = " (resumed)" if o.input.name in self.resumed_inputs else ""
            lines.append(f"  {o.input.name:12s} {status}{resumed}")
        return "\n".join(lines)


def outcome_from_result(point: InputPoint, result) -> InputOutcome:
    """Judge one session result into an :class:`InputOutcome`.

    The judging variant is the one :attr:`CheckConfig.judge_variant`
    selected (default: last configured) — the same variant
    ``result.deterministic`` uses, so the campaign and the session can
    never disagree about an input.
    """
    verdict = result.judged
    first_ndet = verdict.first_ndet_run if verdict is not None else None
    if result.first_failed_run is not None:
        # Crash divergence carries its own first-divergent-run.
        candidates = [r for r in (first_ndet, result.first_failed_run)
                      if r is not None]
        first_ndet = min(candidates)
    error = error_message = None
    if result.failures and verdict is None:
        # Infeasible: surface what every schedule died of.
        error = result.failures[0].error
        error_message = result.failures[0].message
    return InputOutcome(
        input=point,
        deterministic=result.deterministic,
        det_at_end=(verdict is not None and verdict.det_at_end
                    and result.outputs_match and not result.failures),
        n_ndet_points=(verdict.n_ndet_points if verdict is not None else 0),
        first_ndet_run=first_ndet,
        result=result,
        outcome=result.outcome,
        error=error,
        error_message=error_message,
        failures=list(result.failures),
    )


def error_outcome(point: InputPoint, error: str,
                  message: str) -> InputOutcome:
    """The ``error`` outcome for an input whose session raised outright."""
    return InputOutcome(
        input=point, deterministic=False, det_at_end=False,
        n_ndet_points=0, first_ndet_run=None, result=None,
        outcome=OUTCOME_ERROR, error=error, error_message=message)
