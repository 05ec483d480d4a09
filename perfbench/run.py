"""The repo benchmark: checking throughput and time to first divergence.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-ladder --seed 0 \\
        --seconds 16 --trace 0
    python3 perfbench/run.py --smoke      # every workload, tiny size
    python3 perfbench/run.py --record     # re-record expected.json

A run repeats identical passes of the workload's sessions
(workloads.py) until ``--seconds`` have elapsed, checks every session's
verdict, and prints one JSON line last: ``correct``, ``attempted`` and
``failed`` (checking runs) and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, in nominal seconds (speed.py), with
only the per-run counter stamp (``Runner.run``) and the speed probes
(``state_hash``, ``Judge.fold_record``) wrapped; with ``--trace 1``
half the time runs untraced and half traced (spans.py), and the
metrics are per layer, per pass.  A metadata line
(``perfbench-meta {...}``) precedes the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

# The set-up probe's clock covers everything from here on; a benchmark
# run restarts it for each session.
speed.CLOCK.start()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The seed whose every session is pinned in expected.json.
DEFAULT_SEED = 0
#: Set-up is measured this many times per run, in fresh processes.
SETUP_PROBES = 5
#: Speed probes averaged before each set-up launch.
SETUP_SPEED_PROBES = 5

#: Hunt catalogue construction (--record): candidate base seeds, and the
#: hunt lengths kept — the range the benchmark's design assumed, which
#: bounds both a pass's length and its spread across seeds.
CATALOGUE_CANDIDATES = 100
CATALOGUE_SB_SIZE = 60
CATALOGUE_SB_RUNS = (20, 400)
CATALOGUE_TABLE2_SIZE = 8
CATALOGUE_FP_CANDIDATES = 24

END_TO_END = {"runs_per_s": "runs/s", "ttfd_mean_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}

#: Layers whose parent-side self time counts as attributed wall time.
ATTRIBUTED = ("sim.program", "sim.scheduler", "sim.dpor", "sim.machine",
              "sim.memmodel", "core.schemes.hw.store",
              "core.schemes.hw.checkpoint", "core.schemes.sw_inc.store",
              "core.schemes.sw_inc.checkpoint", "core.schemes.sw_tr.store",
              "core.schemes.sw_tr.checkpoint", "core.hashing.kernels",
              "core.control", "core.engine.judge", "core.engine.transport")


# -- one session ----------------------------------------------------------


def session_payload(result) -> dict:
    """What a verdict digest covers: the canonical serialized report
    (the golden gate's form) plus every variant's checkpoint hashes."""
    from repro.core.checker.serialize import result_to_dict

    report = result_to_dict(result, include_hashes=True)
    report.pop("workers", None)  # the only field allowed to differ
    variants = [[[c.label, sorted(c.variants.items())]
                 for c in record.checkpoints] for record in result.records]
    return {"report": report, "variants": variants}


def execute(session) -> dict:
    """Run one session; return its timing (raw and in nominal seconds,
    see speed.py), counts and check problems."""
    from repro.core.checker.golden import digest_payload

    clock = speed.CLOCK
    clock.start()
    value = session.run()
    clock.stop()
    wall = clock.raw_s
    nominal = clock.nominal_s()
    result = getattr(value, "result", value)  # Table1Row carries one
    firsts = [v.first_ndet_run for v in result.verdicts.values()
              if v.first_ndet_run is not None]
    ttfd = None
    if firsts:
        if session.stop_on_first:
            ttfd = nominal  # the verdict is the session's end
        else:
            first_seed = session.base_seed + min(firsts) - 1
            done = next(r.perfbench["done_at"] for r in result.records
                        if r.seed == first_seed)
            ttfd = clock.nominal_s(until=done)
    stamps = [r.perfbench for r in result.records]
    problems = [msg for msg in (check(value) for check in session.checks)
                if msg]
    if result.failures:
        problems.append(f"{len(result.failures)} run(s) failed: "
                        f"{result.failures[0].summary()}")
    return {
        "name": session.name,
        "wall_s": wall,
        "nominal_s": nominal,
        "runs": len(result.records) + len(result.failures),
        "failed_runs": len(result.failures),
        "ttfd_s": ttfd,
        "digest": digest_payload(session_payload(result)),
        "first_ndet_run": (result.judged.first_ndet_run
                           if result.judged else None),
        "steps": sum(s["steps"] for s in stamps),
        "hash_updates": sum(s["hash_updates"] for s in stamps),
        "nonredundant": sum(1 for s in stamps if s["redundant"] is False),
        "problems": problems,
    }


def run_passes(sessions, seconds: float, between=None) -> list:
    """Whole passes until *seconds* of passes have elapsed (at least
    one).  *between()* runs after each pass, off the clock."""
    passes = []
    spent = 0.0
    while not passes or spent < seconds:
        start = time.perf_counter()
        passes.append([execute(s) for s in sessions])
        spent += time.perf_counter() - start
        if between is not None:
            between()
    return passes


PINNED = ("digest", "first_ndet_run", "steps", "hash_updates",
          "nonredundant")


def verify(passes, sessions, expected: dict, pinned: bool) -> None:
    """Append to each outcome's problems every deviation from the first
    pass and, on the default seed (*pinned*), from expected.json."""
    for outcomes in passes:
        for session, outcome, first in zip(sessions, outcomes, passes[0]):
            if outcome["digest"] != first["digest"]:
                outcome["problems"].append(
                    "verdict digest differs from the first pass")
            want = expected.get(session.name)
            keys = PINNED if pinned else session.seed_independent
            if keys and want is None:
                outcome["problems"].append("no committed expected values")
                continue
            for key in keys:
                if outcome[key] != want[key]:
                    outcome["problems"].append(
                        f"{key} {outcome[key]!r} != committed {want[key]!r}")


# -- metrics --------------------------------------------------------------


def pass_values(outcomes) -> dict:
    """Throughput (raw and nominal) and nominal mean time to first
    divergence of one pass."""
    ttfds = [o["ttfd_s"] for o in outcomes if o["ttfd_s"] is not None]
    runs = sum(o["runs"] for o in outcomes)
    return {"raw_runs_per_s": runs / sum(o["wall_s"] for o in outcomes),
            "runs_per_s": runs / sum(o["nominal_s"] for o in outcomes),
            "ttfd_mean_s": statistics.fmean(ttfds) if ttfds else None}


def end_to_end(passes) -> dict:
    """The end-to-end metrics; ``setup_s`` is filled in by the caller.

    Times are nominal seconds (speed.py).  Every pass runs the same
    sessions; each session's time is its median over the passes.
    """
    sessions = list(zip(*passes))  # per session, its outcome in each pass
    walls = [statistics.median(o["nominal_s"] for o in runs)
             for runs in sessions]
    ttfds = [statistics.median(o["ttfd_s"] for o in runs)
             for runs in sessions if runs[0]["ttfd_s"] is not None]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Children are the pool workers and the set-up probes; a probe does
    # a prefix of this process's work, so it never sets the peak.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "runs_per_s": sum(o["runs"] for o in passes[0]) / sum(walls),
        "ttfd_mean_s": statistics.fmean(ttfds) if ttfds else None,
        "peak_rss_mb": max(own, children) / 1024.0,  # ru_maxrss is KiB
        "setup_s": None,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(tracer, traced, untraced) -> dict:
    """Per-pass layer metrics from the traced passes' span totals."""
    from workloads import POOL_WORKERS

    n = len(traced)
    procs = (tracer.local, tracer.workers)
    extra = tracer.wrapper_ns

    def self_s(layer, procs=procs):
        return sum(t.self_ns.get(layer, 0)
                   - extra * t.calls_from.get(layer, 0)
                   for t in procs) / 1e9 / n

    def count(*names):
        return sum(t.counts.get(name, 0) for t in procs
                   for name in names) / n

    def ratio(num, den):
        return num / den if den else 0.0

    def wall(passes):
        return sum(o["wall_s"] for p in passes for o in p) / len(passes)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    steps = count("steps")
    put("sim.program.self_s", self_s("sim.program"), "s")
    put("sim.program.steps", steps, "count")
    put("sim.program.ns_per_step",
        ratio(self_s("sim.program") * 1e9, steps), "ns")
    put("sim.scheduler.self_s", self_s("sim.scheduler"), "s")
    put("sim.scheduler.picks", count("sim.scheduler:pick"), "count")
    dpor_runs = count("sim.dpor:begin_run")
    redundant = count("dpor.redundant_runs")
    put("sim.dpor.self_s", self_s("sim.dpor"), "s")
    put("sim.dpor.runs", dpor_runs, "count")
    put("sim.dpor.redundant_runs", redundant, "count")
    put("sim.dpor.useful_run_ratio",
        ratio(dpor_runs - redundant, dpor_runs), "ratio")
    put("sim.machine.self_s", self_s("sim.machine"), "s")
    put("sim.machine.stores", count("sim.machine:store"), "count")
    put("sim.machine.loads", count("sim.machine:load"), "count")
    put("sim.machine.flushes", count("sim.machine:flush_stores"), "count")
    put("sim.memmodel.self_s", self_s("sim.memmodel"), "s")
    put("sim.memmodel.drains", count("memmodel.drains"), "count")
    put("sim.memmodel.forwards", count("memmodel.forwards"), "count")
    for kind in ("hw", "sw_inc", "sw_tr"):
        prefix = f"core.schemes.{kind}"
        put(f"{prefix}.store_s", self_s(f"{prefix}.store"), "s")
        put(f"{prefix}.checkpoint_s", self_s(f"{prefix}.checkpoint"), "s")
        put(f"{prefix}.hash_updates", count(f"hash_updates.{kind}"),
            "count")
    batches = sum(count(f"core.schemes.{kind}.store:on_store_batch")
                  for kind in ("hw", "sw_inc", "sw_tr"))
    put("core.schemes.batch_events_mean",
        ratio(count("schemes.batch_events"), batches), "events")
    kernel_calls = count("kernels.calls")
    put("core.hashing.kernels.self_s", self_s("core.hashing.kernels"), "s")
    put("core.hashing.kernels.calls", kernel_calls, "count")
    put("core.hashing.kernels.items_per_call",
        ratio(count("kernels.items"), kernel_calls), "items")
    put("core.control.self_s", self_s("core.control"), "s")
    put("core.control.calls",
        count(*(f"core.control:do_{op}" for op in
                ("malloc", "free", "rand", "time", "write"))), "count")
    put("core.engine.judge.self_s", self_s("core.engine.judge"), "s")
    put("core.engine.judge.folds",
        count(*(f"core.engine.judge:fold_{kind}" for kind in
                ("record", "failure", "expired"))), "count")
    busy_s = count("transport.busy_ns") / 1e9
    judged = sum(o["runs"] for p in traced for o in p) / n
    put("core.engine.transport.tasks", count("transport.tasks"), "count")
    put("core.engine.transport.worker_busy_s", busy_s, "s")
    put("core.engine.transport.parent_wait_s",
        self_s("core.engine.transport", procs=(tracer.local,)), "s")
    put("core.engine.transport.result_bytes",
        count("transport.result_bytes"), "bytes")
    put("core.engine.transport.worker_busy_share",
        ratio(busy_s, POOL_WORKERS * count("transport.pool_wall_ns") / 1e9),
        "ratio")
    put("core.engine.transport.useful_run_ratio",
        ratio(judged, count("runs")), "ratio")
    traced_wall = wall(traced)
    local = tracer.local
    attributed = sum(self_s(layer, procs=(local,)) for layer in ATTRIBUTED)
    overhead = extra * sum(local.calls_from.values()) / 1e9 / n
    put("trace.unattributed_s", traced_wall - attributed - overhead, "s")
    put("trace.overhead_share",
        (traced_wall - wall(untraced)) / traced_wall, "ratio")
    return out


# -- set-up, metadata -------------------------------------------------------


def setup_time(args) -> float:
    """Nominal seconds from process start to ready-for-the-first-session,
    in a fresh process.  The child times its own part with the speed
    clock; the interpreter's start before that is scaled by probes
    taken here just before the launch."""
    before = speed.probes(SETUP_SPEED_PROBES)
    start = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size],
        stdout=subprocess.PIPE, text=True)
    try:
        line = probe.stdout.readline()
        probe.stdout.read()
    finally:
        probe.stdout.close()
        code = probe.wait()
    words = line.split()
    if len(words) != 3 or words[0] != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    child_start, child_nominal = float(words[1]), float(words[2])
    launch = (child_start - start) * speed.NOMINAL_PROBE_S / before
    return launch + child_nominal


def metadata(args, sessions) -> dict:
    from repro.core.engine.executors import resolve_executor
    from repro.core.hashing.kernels import resolve_backend

    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    try:
        from bench_baseline import calibration_spin
        spin = calibration_spin()
    except ImportError:
        spin = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True
                                ).stdout.strip() or None
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    digest.update(handle.read())
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "cpu_count": os.cpu_count(),
        "hash_backend": resolve_backend(),
        "executors": sorted({resolve_executor(s.executor, s.workers)
                             for s in sessions}),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "calibration_spin_s": spin,
    }


# -- modes ------------------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def bench(args) -> int:
    import spans
    import workloads

    expected = load_expected()
    sessions = workloads.build(args.workload, args.seed, args.size,
                               expected["catalogue"])
    pinned_values = expected["sessions"][args.size][args.workload]
    if args.corrupt_expected:
        pinned_values = {name: dict(want, digest="sha256:corrupt")
                         for name, want in pinned_values.items()}
    spans.install_run_counter()
    if not args.trace:
        speed.install()
    workloads.warm_up(args.workload)

    meta = metadata(args, sessions)
    if args.trace:
        untraced = run_passes(sessions, args.seconds / 2)
        meta["wrapper_ns_per_call"] = spans.calibrate()
        spans.install()
        traced = run_passes(sessions, args.seconds / 2)
        passes = untraced + traced
        metrics = per_layer(spans.TRACER, traced, untraced)
        meta["passes"] = {"untraced": len(untraced), "traced": len(traced)}
        meta["trace_worker_pids"] = len(spans.TRACER.worker_pids)
    else:
        # Set-up probes run between passes, so a burst of host noise
        # hits one of them, not all.
        probes = []

        def probe():
            if len(probes) < SETUP_PROBES:
                probes.append(setup_time(args))

        passes = run_passes(sessions, args.seconds, between=probe)
        while len(probes) < SETUP_PROBES:
            probe()
        metrics = end_to_end(passes)
        metrics["setup_s"]["value"] = statistics.median(probes)
        meta["passes"] = [pass_values(p) for p in passes]
        meta["setup_probes_s"] = probes
        meta["ttfd_sessions_per_pass"] = sum(o["ttfd_s"] is not None
                                             for o in passes[0])
    verify(passes, sessions, pinned_values,
           pinned=args.seed == DEFAULT_SEED)
    outcomes = [o for p in passes for o in p]
    problems = [(o["name"], msg) for o in outcomes for msg in o["problems"]]
    if not args.trace and metrics["ttfd_mean_s"]["value"] is None:
        problems.append(("*", "no session reached a divergence"))
    attempted = sum(o["runs"] for o in outcomes)
    failed = sum(o["runs"] if o["problems"] else o["failed_runs"]
                 for o in outcomes)
    for name, msg in sorted(set(problems)):
        print(f"perfbench: CHECK FAILED {args.workload}/{name}: {msg}",
              file=sys.stderr)
    meta["session_wall_s"] = {o["name"]: round(o["wall_s"], 6)
                              for o in passes[0]}
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def setup_probe(args) -> int:
    """Everything a run does before its first session, timed by the
    speed clock from this process's first line; print ``ready``, the
    clock's start and the nominal seconds, then exit."""
    clock = speed.CLOCK
    import spans
    import workloads
    clock.mark()

    expected = load_expected()
    workloads.build(args.workload, args.seed, args.size,
                    expected["catalogue"])
    clock.mark()
    spans.install_run_counter()
    speed.install()
    workloads.warm_up(args.workload)
    clock.stop()
    print(f"ready {clock.started!r} {clock.nominal_s()!r}", flush=True)
    return 0


def build_catalogue() -> dict:
    """Serial-executor hunts behind pool-hunt's inputs and checks, and
    schemes-fp's base seeds."""
    import workloads
    from repro.core.checker.runner import check_determinism

    def first_ndet(name, base):
        program, config = workloads.hunt_program_config(name, base, False)
        return check_determinism(program, config).judged.first_ndet_run

    low, high = CATALOGUE_SB_RUNS
    sb = []
    for k in range(CATALOGUE_CANDIDATES):
        base = 1 + 10_007 * k
        first = first_ndet("sb-visible-late", base)
        if first is not None and low <= first <= high:
            sb.append([base, first])
        if len(sb) == CATALOGUE_SB_SIZE:
            break
    catalogue = {"sb-visible-late": sb}
    catalogue["schemes-fp"] = [
        base for base in (workloads.base_seed(k)
                          for k in range(CATALOGUE_FP_CANDIDATES))
        if all(first == workloads.SCHEMES_FP_FIRST_NDET
               for first in workloads.schemes_fp_firsts(base))]
    for bug in workloads.TABLE2_BUGS:
        catalogue[bug] = [[base, first_ndet(bug, base)] for base in
                          (2000 + 10_007 * k
                           for k in range(CATALOGUE_TABLE2_SIZE))]
    return catalogue


def record(args) -> int:
    """Re-record expected.json: the hunt catalogue and every session of
    the default seed, pool-hunt through the serial executor."""
    import spans
    import workloads

    spans.install_run_counter()
    catalogue = build_catalogue()
    pinned = {}
    for size in ("full", "tiny"):
        pinned[size] = {}
        for workload in workloads.WORKLOADS:
            sessions = workloads.build(workload, DEFAULT_SEED, size,
                                       catalogue, pooled=False)
            entries = {}
            for session in sessions:
                outcome = execute(session)
                if outcome["problems"]:
                    print(f"record: {workload}/{session.name}: "
                          f"{outcome['problems']}", file=sys.stderr)
                    return 1
                entries[session.name] = {k: outcome[k] for k in PINNED}
            pinned[size][workload] = entries
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"default_seed": DEFAULT_SEED, "catalogue": catalogue,
                   "sessions": pinned}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def smoke(args) -> int:
    """Every workload at the tiny size, traced and untraced: each
    metric BENCHMARK.json names must be printed with its unit, and a
    wrong committed digest must fail the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []

    def launch(workload, trace, *extra):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(DEFAULT_SEED), "--seconds", "0",
             "--trace", str(trace), "--size", "tiny", *extra],
            capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, json.loads(lines[-1]) if lines else None

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result = launch(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or not result or not result["correct"]:
                errors.append(f"{label}: exit {code}, result {result}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()
                   if isinstance(m.get("value"), (int, float))}
            if got != wanted[trace]:
                errors.append(f"{label}: metrics {sorted(got.items())} != "
                              f"{sorted(wanted[trace].items())}")
        print(f"smoke: {workload} ok" if not errors else
              f"smoke: {workload}: {errors[-1]}", file=sys.stderr)
    code, result = launch(spec["workloads"][-1]["name"], 0,
                          "--corrupt-expected")
    if code == 0 or (result and result["correct"]):
        errors.append(f"a wrong committed digest passed (exit {code})")
    for error in errors:
        print(f"smoke: FAIL {error}", file=sys.stderr)
    print("smoke: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="table1-ladder")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="replace every committed digest with a wrong "
                        "one (the smoke check that the gate bites)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--setup-probe", action="store_true",
                      help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no checker sources under {SRC}", file=sys.stderr)
        return 2
    # The benchmark measures the defaults: no executor or hash backend
    # forced from the environment.
    for var in ("REPRO_EXECUTOR", "REPRO_HASH_BACKEND"):
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    if args.record:
        return record(args)
    if args.setup_probe:
        return setup_probe(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
