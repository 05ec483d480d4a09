"""The four benchmark workloads: which sessions a pass runs, and how
each session's verdict is checked.

Why each workload exists (see README.md for the layer map):

* ``table1-ladder`` — the paper's own protocol (Table 1): the bitwise +
  rounded ladder on all 17 applications.  Interpretation and the
  machine dominate; the memory model and the transport do nothing.
* ``schemes-fp`` — the Figure 5/6 scheme comparison: HW, SW-Inc and
  SW-Tr side by side on the FP applications.  The only workload where
  hashing (store path + checkpoint traversal) is the top layer.
* ``pool-hunt`` — stop-on-first random-search hunts through a
  1-worker process pool.  Runs are ~0.5 ms of simulation, so dispatch,
  pickling and pool start dominate; the only workload that moves the
  transport.
* ``dpor-explore`` — systematic DPOR under PSO and SC.  The only
  workload that runs ``sim.dpor``, and PSO drains exercise the memory
  model differently from pool-hunt's random TSO drains.

A pass is one execution of the workload's session list; a benchmark run
repeats identical passes.  The workload seed picks the inputs: schedule
base seeds (table1-ladder, dpor-explore; schemes-fp from a committed
catalogue of base seeds), one hunt per stratum of the committed hunt
catalogue (pool-hunt), and the DCL payload value (dpor-explore).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("table1-ladder", "schemes-fp", "pool-hunt", "dpor-explore")

#: Bench-scale parameter override of bench_table1: blackscholes runs the
#: paper's own dynamic checking-point count (100 loop iterations + 1).
LADDER_PARAMS = {"blackscholes": {"passes": 100}}
LADDER_TINY_APPS = ("fft", "ocean", "canneal")
#: Runs per application per pass.  The paper uses 30; nondeterminism is
#: caught at run 2 on every application, so 4 keeps all 17 classes while
#: a pass fits several times into one benchmark run.
LADDER_RUNS = {"full": 4, "tiny": 3}

SCHEMES_FP_APPS = {"full": ("blackscholes", "streamcluster", "ocean",
                            "fluidanimate"),
                   "tiny": ("blackscholes", "ocean")}
SCHEMES_FP_RUNS = {"full": 8, "tiny": 3}
#: The run at which hw-bitwise first diverges on every bit-nondeterministic
#: schemes-fp app, for each base seed the full size may use.  Random
#: schedules on ocean sometimes first diverge at run 3 or 4, which would
#: move the workload's time to first divergence by half between seeds;
#: the catalogue keeps that luck out of the measurement.
SCHEMES_FP_FIRST_NDET = 2

#: The random-search hunts of pool-hunt and how many runs each may take.
SB_HUNT = {"spin": 4, "memory_model": "tso", "budget": 1500}
TABLE2_BUGS = ("seeded-waterNS", "seeded-waterSP", "seeded-radix")
TABLE2_BUDGET = 30
#: sb-visible-late hunts per pass, one per stratum of the catalogue.
SB_STRATA = {"full": 4, "tiny": 2}
#: pool-hunt's pool: one worker, through the process-pool executor
#: named explicitly ("auto" resolves one worker to the serial executor).
#: The parent is busy ~65% of a pooled hunt feeding tasks and folding
#: results, so two workers put three busy processes on a 2-CPU host and
#: the hunt's time measured the OS scheduler: per-pass throughput
#: drifted 13% within 40 s with two workers against 2.4% with one.
POOL_WORKERS = 1
POOL_EXECUTOR = "process-pool"

#: dpor-explore: (session, program, DCL payload offset, memory model,
#: runs, stop_on_first).  A DCL hunt takes ~20 ms, so one reading of its
#: time to first divergence is at the mercy of millisecond noise; four
#: hunts (different payloads, same exploration) average it.
DPOR_SESSIONS = {
    "full": (("dcl-hunt", "dcl", 0, "pso", 64, True),
             ("dcl-hunt-2", "dcl", 1000, "pso", 64, True),
             ("dcl-hunt-3", "dcl", 2000, "pso", 64, True),
             ("dcl-hunt-4", "dcl", 3000, "pso", 64, True),
             ("dcl-explore", "dcl", 0, "pso", 300, False),
             ("radix-explore", "radix2", None, "sc", 60, False)),
    "tiny": (("dcl-hunt", "dcl", 0, "pso", 64, True),
             ("radix-explore", "radix2", None, "sc", 6, False)),
}


def base_seed(seed: int) -> int:
    """Schedule base seed of a workload seed; seed 0 gives bench_table1's
    1000.  Widely spaced, because run i of a session uses base + i."""
    return 1000 + 100_003 * seed


@dataclass
class Session:
    """One checking session of a pass."""

    name: str
    run: object              # () -> DeterminismResult or Table1Row
    base_seed: int
    stop_on_first: bool = False
    workers: int = 1
    executor: str = "auto"
    #: Checks that hold for any workload seed: functions of the
    #: session's value returning an error string or None.
    checks: list = field(default_factory=list)
    #: Keys of the committed expected entry compared on every seed (the
    #: rest only on the default seed).
    seed_independent: tuple = ()


def _check_result(program, config):
    from repro.core.checker.runner import check_determinism

    return lambda: check_determinism(program, config)


def _ladder(seed: int, size: str, catalogue, pooled: bool) -> list:
    from repro.analysis.tables import classify_matches_paper
    from repro.core.checker.report import characterize
    from repro.workloads import REGISTRY, make

    apps = tuple(REGISTRY) if size == "full" else LADDER_TINY_APPS
    base = base_seed(seed)
    sessions = []
    for app in apps:
        program = make(app, **LADDER_PARAMS.get(app, {}))

        def run(program=program):
            return characterize(program, runs=LADDER_RUNS[size],
                                base_seed=base)

        def matches(row):
            if not classify_matches_paper(row):
                return (f"classified {row.det_class!r}, paper says "
                        f"otherwise")
            return None

        sessions.append(Session(app, run, base, checks=[matches]))
    return sessions


def _schemes_fp(seed: int, size: str, catalogue, pooled: bool) -> list:
    from repro.core.checker.report import CLASS_BIT
    from repro.core.checker.runner import CheckConfig
    from repro.core.hashing.rounding import default_policy, no_rounding
    from repro.core.schemes.base import SchemeConfig
    from repro.workloads import make

    schemes = {
        "hw-bitwise": SchemeConfig(kind="hw", rounding=no_rounding()),
        "hw-rounded": SchemeConfig(kind="hw", rounding=default_policy()),
        "sw_inc-rounded": SchemeConfig(kind="sw_inc",
                                       rounding=default_policy()),
        "sw_tr-rounded": SchemeConfig(kind="sw_tr",
                                      rounding=default_policy()),
    }
    if size == "full" and catalogue is not None:
        bases = catalogue["schemes-fp"]
        base = bases[seed % len(bases)]
        first_ndet = SCHEMES_FP_FIRST_NDET
    else:
        base, first_ndet = base_seed(seed), None
    config = CheckConfig(runs=SCHEMES_FP_RUNS[size], schemes=schemes,
                         base_seed=base, judge_variant="hw-rounded")
    sessions = []
    for app in SCHEMES_FP_APPS[size]:
        program = make(app)
        bit_det = program.EXPECTED_CLASS == CLASS_BIT

        def schemes_agree(result, bit_det=bit_det):
            bitwise = result.verdicts["hw-bitwise"]
            if bitwise.deterministic != bit_det:
                return (f"hw-bitwise deterministic={bitwise.deterministic}"
                        f", Table 1 class says {bit_det}")
            if (not bit_det and first_ndet is not None
                    and bitwise.first_ndet_run != first_ndet):
                return (f"hw-bitwise first diverged at run "
                        f"{bitwise.first_ndet_run}, catalogue says "
                        f"{first_ndet}")
            rounded = {name: (v.deterministic, v.n_det_points,
                              v.n_ndet_points)
                       for name, v in result.verdicts.items()
                       if name.endswith("-rounded")}
            if len(set(rounded.values())) != 1 or not all(
                    det for det, _, _ in rounded.values()):
                return f"rounded schemes disagree or diverge: {rounded}"
            return None

        sessions.append(Session(app, _check_result(program, config), base,
                                checks=[schemes_agree]))
    return sessions


def schemes_fp_firsts(base: int) -> list:
    """hw-bitwise's first divergent run on each bit-nondeterministic
    full-size schemes-fp app, with schedule base seed *base* (the
    schemes only observe a run, so hw-bitwise alone decides it)."""
    from repro.core.checker.report import CLASS_BIT
    from repro.core.checker.runner import CheckConfig, check_determinism
    from repro.core.hashing.rounding import no_rounding
    from repro.core.schemes.base import SchemeConfig
    from repro.workloads import make

    config = CheckConfig(
        runs=SCHEMES_FP_RUNS["full"], base_seed=base, stop_on_first=True,
        schemes={"hw-bitwise": SchemeConfig(kind="hw",
                                            rounding=no_rounding())})
    firsts = []
    for app in SCHEMES_FP_APPS["full"]:
        program = make(app)
        if program.EXPECTED_CLASS != CLASS_BIT:
            firsts.append(check_determinism(program, config)
                          .judged.first_ndet_run)
    return firsts


def _hunt_check(expected_first):
    def check(result):
        got = result.judged.first_ndet_run
        if got != expected_first:
            return (f"first_ndet_run {got}, serial executor found "
                    f"{expected_first}")
        return None
    return check


def pick_hunts(seed: int, size: str, catalogue) -> list:
    """``[(program name, base seed, serial first_ndet_run)]`` of a pass:
    one sb-visible-late hunt per stratum of the length-sorted catalogue
    plus one base seed per Table 2 bug.

    Strata are paired from the outside in.  The seed picks a pair's
    shorter hunt; its partner is the hunt of the longer stratum that
    brings the pair's total closest to the sum of the two strata's mean
    lengths.  So a pass's total hunt length barely depends on the seed
    while every hunt in it does.
    """
    rng = random.Random(seed)
    entries = sorted(catalogue["sb-visible-late"], key=lambda e: (e[1], e[0]))
    width = len(entries) // SB_STRATA["full"]
    n_strata = SB_STRATA[size]  # the tiny size keeps the shortest strata
    strata = [entries[i * width:(i + 1) * width] for i in range(n_strata)]
    picked = [None] * n_strata
    for i in range(n_strata // 2):
        low, high = strata[i], strata[n_strata - 1 - i]
        target = sum(e[1] for e in low + high) / width
        short = rng.choice(low)
        picked[i] = short
        picked[n_strata - 1 - i] = min(
            high, key=lambda e: (abs(short[1] + e[1] - target), e[0]))
    hunts = [("sb-visible-late",) + tuple(e) for e in picked]
    bugs = TABLE2_BUGS if size == "full" else TABLE2_BUGS[-1:]
    for bug in bugs:
        hunts.append((bug,) + tuple(rng.choice(catalogue[bug])))
    return hunts


def hunt_program_config(name: str, base: int, pooled: bool):
    """The program and config of one pool-hunt session, through the
    benchmark's pool or (*pooled* False) the serial executor."""
    from repro.core.checker.runner import CheckConfig
    from repro.workloads import seeded_program
    from repro.workloads.storebuffer import SbVisibleLate

    topology = ({"workers": POOL_WORKERS, "executor": POOL_EXECUTOR}
                if pooled else {})
    if name == "sb-visible-late":
        return (SbVisibleLate(n_workers=2, spin=SB_HUNT["spin"]),
                CheckConfig(runs=SB_HUNT["budget"], base_seed=base,
                            memory_model=SB_HUNT["memory_model"],
                            stop_on_first=True, **topology))
    return (seeded_program(name),
            CheckConfig(runs=TABLE2_BUDGET, base_seed=base,
                        stop_on_first=True, **topology))


def _pool_hunt(seed: int, size: str, catalogue, pooled: bool) -> list:
    sessions = []
    for name, base, first in pick_hunts(seed, size, catalogue):
        program, config = hunt_program_config(name, base, pooled)
        sessions.append(Session(f"{name}@{base}",
                                _check_result(program, config), base,
                                stop_on_first=True, workers=config.workers,
                                executor=config.executor,
                                checks=[_hunt_check(first)]))
    return sessions


def _dpor_explore(seed: int, size: str, catalogue, pooled: bool) -> list:
    from repro.core.checker.runner import CheckConfig
    from repro.workloads import make
    from repro.workloads.storebuffer import SbDclBroken

    base = base_seed(seed)
    sessions = []
    for name, program_name, offset, model, runs, stop in DPOR_SESSIONS[size]:
        program = (SbDclBroken(payload=42 + seed + offset)
                   if program_name == "dcl" else make("radix", n_workers=2))
        config = CheckConfig(runs=runs, base_seed=base, scheduler="dpor",
                             memory_model=model, stop_on_first=stop)
        # DPOR's exploration order does not depend on the seed, so the
        # committed first divergence and non-redundant run count hold
        # for every workload seed.
        sessions.append(Session(name, _check_result(program, config), base,
                                stop_on_first=stop,
                                seed_independent=("first_ndet_run",
                                                  "nonredundant")))
    return sessions


_BUILDERS = {"table1-ladder": _ladder, "schemes-fp": _schemes_fp,
             "pool-hunt": _pool_hunt, "dpor-explore": _dpor_explore}


def build(workload: str, seed: int, size: str, catalogue,
          pooled: bool = True) -> list:
    """The session list of one pass.  *pooled* False runs pool-hunt
    through the serial executor, the reference the catalogue and
    expected.json were recorded with."""
    return _BUILDERS[workload](seed, size, catalogue, pooled)


def warm_up(workload: str) -> None:
    """Touch every code path a pass uses once, at minimal size, so
    lazy imports and first-call costs land in set-up, not in a session.
    The pool is not warmed: users pay its start on every session."""
    from dataclasses import replace

    from repro.core.checker.report import characterize
    from repro.workloads import make

    if workload == "table1-ladder":
        characterize(make("volrend"), runs=2)
    elif workload == "pool-hunt":
        program, config = hunt_program_config("sb-visible-late", 1, False)
        _check_result(program, replace(config, runs=2))()
    else:
        build(workload, 0, "tiny", None)[0].run()
