"""Measure the batch hash kernels: backend-vs-backend speedups.

Four measurements, written to ``benchmarks/results/kernels.json``:

* ``traversal`` — one traversal-checkpoint sweep
  (:func:`repro.core.hashing.state_hash.traverse_state_hash`) over a
  synthetic memory image, per backend.  This is the pure hash-kernel
  path with no simulation around it, so it shows the raw vectorization
  win; the CI gate requires the NumPy backend to be at least
  ``--min-traversal-speedup`` (default 3.0) times the pure-Python one.
* ``store_delta`` — the per-batch incremental update kernel
  (``kernel.store_delta``) per backend x mixer, in ns/event
  (informational, no gate).
* ``store_delta_sizes`` — ``kernel.store_delta`` at batch sizes 1, 2,
  4, ..., 256, per mixer x backend, in ns per call (informational, no
  gate).  Where the pure-Python row drops below the NumPy array path
  is the crossover behind ``kernels.SCALAR_CUTOFF``; the NumPy row is
  the kernel as dispatched (scalar below the cutoff) and the
  ``numpy-array`` row forces the array path at every size.
* ``end_to_end`` — a full checking session with all three schemes
  attached at once (the hash-heaviest realistic configuration: every
  store feeds two incremental schemes and every checkpoint pays a
  traversal), per backend.  The CI gate requires at least
  ``--min-e2e-speedup`` (default 1.3) session-level speedup, and the
  two backends must produce bit-identical checkpoint hashes and
  verdicts — a benchmark that also re-proves equivalence.

Gates only apply when the NumPy backend is available; without numpy the
script records the pure-Python numbers and exits 0.

Usage::

    python benchmarks/bench_kernels.py                     # measure + gate
    python benchmarks/bench_kernels.py --no-gate           # measure only
    python benchmarks/bench_kernels.py --out results/kernels.json

Also collectable with ``pytest benchmarks/`` (a reduced shape-check,
not a timing gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SEED = 1000
REPEATS = 3

#: Synthetic memory image for the traversal sweep: enough live words
#: that the per-call overhead is amortized, mixed int/float values.
TRAVERSAL_WORDS = 30_000
TRAVERSAL_SWEEPS = 5

#: Events per store_delta kernel call (a realistic flush-window size).
DELTA_BATCH = 1024
DELTA_CALLS = 50

#: The end-to-end session: the three-scheme ladder on fft.  One session
#: hashes every store twice incrementally and traverses at every
#: checkpoint — the configuration where hashing dominates wall time.
E2E_APP = "fft"
E2E_KWARGS = {"log2_n": 9}
E2E_RUNS = 3


def _best(fn, repeats: int) -> float:
    best = None
    for _ in range(repeats):
        elapsed = fn()
        if best is None or elapsed < best:
            best = elapsed
    return best


def _synthetic_memory(words: int):
    from repro.sim.memory import Memory

    memory = Memory(words)
    for i in range(words):
        # Mixed payload: ~1/4 floats, the rest wide ints; nothing zero,
        # so every word is live for the sweep.
        if i % 4 == 0:
            memory.store(i, i * 1.000001 + 0.5)
        else:
            memory.store(i, (i * 0x9E3779B97F4A7C15 + 1) & ((1 << 64) - 1))
    return memory


def measure_traversal(backends, repeats: int = REPEATS,
                      words: int = TRAVERSAL_WORDS,
                      sweeps: int = TRAVERSAL_SWEEPS) -> dict:
    from repro.core.hashing.state_hash import traverse_state_hash

    memory = _synthetic_memory(words)
    rows = {}
    reference_hash = None
    for backend in backends:
        def sweep(backend=backend):
            start = time.perf_counter()
            for _ in range(sweeps):
                digest = traverse_state_hash(memory, backend=backend)
            elapsed = time.perf_counter() - start
            sweep.digest = digest
            return elapsed

        best = _best(sweep, repeats)
        if reference_hash is None:
            reference_hash = sweep.digest
        elif sweep.digest != reference_hash:
            raise AssertionError(
                f"traversal hash differs between backends on {backend}")
        rows[backend] = {
            "wall_s": round(best, 4),
            "words_per_s": round(words * sweeps / best, 1),
        }
    _add_speedup(rows)
    return {"words": words, "sweeps": sweeps, "backends": rows}


def measure_store_delta(backends, repeats: int = REPEATS,
                        batch: int = DELTA_BATCH,
                        calls: int = DELTA_CALLS) -> dict:
    from repro.core.hashing.kernels import get_kernel
    from repro.core.hashing.mixers import available_mixers, get_mixer
    from repro.sim.values import MASK64

    addresses = [(i * 2654435761 + 17) & MASK64 for i in range(batch)]
    old_values = [(i * 0x9E3779B97F4A7C15) & MASK64 for i in range(batch)]
    new_values = [v ^ 0xABCDEF for v in old_values]
    results = {}
    for mixer_name in available_mixers():
        rows = {}
        reference = None
        for backend in backends:
            kernel = get_kernel(backend)
            mixer = get_mixer(mixer_name)

            def run(kernel=kernel, mixer=mixer):
                start = time.perf_counter()
                total = 0
                for _ in range(calls):
                    total = (total + kernel.store_delta(
                        mixer, None, addresses, old_values, new_values)
                    ) & MASK64
                elapsed = time.perf_counter() - start
                run.total = total
                return elapsed

            best = _best(run, repeats)
            if reference is None:
                reference = run.total
            elif run.total != reference:
                raise AssertionError(
                    f"store_delta differs between backends "
                    f"({mixer_name}/{backend})")
            rows[backend] = {
                "wall_s": round(best, 4),
                "ns_per_event": round(best / (batch * calls) * 1e9, 1),
            }
        _add_speedup(rows)
        results[mixer_name] = rows
    return {"batch": batch, "calls": calls, "mixers": results}


#: Batch sizes of the crossover sweep, and kernel calls timed per size.
SWEEP_SIZES = tuple(2**k for k in range(9))
SWEEP_CALLS = 200


def _sweep_batch(n: int):
    """Addresses, old and new values of an *n*-store window: mostly
    wide ints with every fourth word a float, like the synthetic image."""
    from repro.sim.values import MASK64

    addresses = [(i * 2654435761 + 17) & MASK64 for i in range(n)]
    old_values = [(i * 1.000001 + 0.5) if i % 4 == 0
                  else (i * 0x9E3779B97F4A7C15 + 1) & MASK64
                  for i in range(n)]
    new_values = [v * 3.0 if isinstance(v, float) else v ^ 0xABCDEF
                  for v in old_values]
    return addresses, old_values, new_values


def measure_store_delta_sizes(backends, repeats: int = REPEATS,
                              sizes=SWEEP_SIZES,
                              calls: int = SWEEP_CALLS) -> dict:
    from repro.core.hashing import kernels
    from repro.core.hashing.kernels import get_kernel
    from repro.core.hashing.mixers import available_mixers, get_mixer

    variants = [(backend, get_kernel(backend).store_delta)
                for backend in backends]
    if "numpy" in backends:
        variants.append(("numpy-array",
                         get_kernel("numpy")._array_store_delta))
    results = {}
    for mixer_name in available_mixers():
        mixer = get_mixer(mixer_name)
        rows = {name: {} for name, _ in variants}
        for n in sizes:
            addresses, old_values, new_values = _sweep_batch(n)
            reference = None
            for name, store_delta in variants:
                def run(store_delta=store_delta):
                    start = time.perf_counter()
                    for _ in range(calls):
                        run.total = store_delta(mixer, None, addresses,
                                                old_values, new_values, None)
                    return time.perf_counter() - start

                best = _best(run, repeats)
                if reference is None:
                    reference = run.total
                elif run.total != reference:
                    raise AssertionError(
                        f"store_delta differs between backends "
                        f"({mixer_name}/{name}, n={n})")
                rows[name][str(n)] = round(best / calls * 1e9, 1)
        results[mixer_name] = rows
    return {"sizes": list(sizes), "calls": calls, "unit": "ns_per_call",
            "scalar_cutoff": kernels.SCALAR_CUTOFF, "mixers": results}


def _ladder_config(backend: str):
    from repro.core.checker.runner import CheckConfig
    from repro.core.schemes.base import SchemeConfig

    return CheckConfig(
        runs=E2E_RUNS, base_seed=SEED,
        schemes={kind: SchemeConfig(kind=kind, backend=backend)
                 for kind in ("hw", "sw_inc", "sw_tr")})


def measure_end_to_end(backends, repeats: int = REPEATS) -> dict:
    from repro.core.checker.runner import check_determinism
    from repro.workloads import make

    rows = {}
    reference = None
    for backend in backends:
        def session(backend=backend):
            start = time.perf_counter()
            result = check_determinism(make(E2E_APP, **E2E_KWARGS),
                                       _ladder_config(backend))
            elapsed = time.perf_counter() - start
            session.fingerprint = (
                result.outcome,
                tuple(tuple(record.hashes()) for record in result.records))
            return elapsed

        best = _best(session, repeats)
        if reference is None:
            reference = session.fingerprint
        elif session.fingerprint != reference:
            raise AssertionError(
                f"end-to-end session differs between backends on {backend}")
        rows[backend] = {"wall_s": round(best, 4),
                         "outcome": session.fingerprint[0]}
    _add_speedup(rows)
    return {"app": E2E_APP, "kwargs": E2E_KWARGS, "runs": E2E_RUNS,
            "schemes": ["hw", "sw_inc", "sw_tr"], "backends": rows}


def _add_speedup(rows: dict) -> None:
    """Annotate each backend row with its speedup over pure Python."""
    python = rows.get("python")
    if not python:
        return
    for backend, row in rows.items():
        row["speedup_vs_python"] = round(python["wall_s"] / row["wall_s"], 2)


def measure(repeats: int = REPEATS) -> dict:
    from repro.core.hashing.kernels import available_backends

    backends = available_backends()
    return {
        "schema": "repro.bench.kernels/v1",
        "backends": list(backends),
        "traversal": measure_traversal(backends, repeats),
        "store_delta": measure_store_delta(backends, repeats),
        "store_delta_sizes": measure_store_delta_sizes(backends, repeats),
        "end_to_end": measure_end_to_end(backends, repeats),
    }


def apply_gates(payload: dict, min_traversal: float, min_e2e: float) -> list:
    """Return the list of gate failures (empty means the gate passes)."""
    if "numpy" not in payload["backends"]:
        return []
    failures = []
    traversal = payload["traversal"]["backends"]["numpy"]["speedup_vs_python"]
    if traversal < min_traversal:
        failures.append(
            f"traversal speedup {traversal}x < required {min_traversal}x")
    e2e = payload["end_to_end"]["backends"]["numpy"]["speedup_vs_python"]
    if e2e < min_e2e:
        failures.append(
            f"end-to-end speedup {e2e}x < required {min_e2e}x")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        RESULTS_DIR, "kernels.json"))
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--min-traversal-speedup", type=float, default=3.0)
    parser.add_argument("--min-e2e-speedup", type=float, default=1.3)
    parser.add_argument("--no-gate", action="store_true",
                        help="measure and record without enforcing speedups")
    args = parser.parse_args(argv)
    payload = measure(repeats=args.repeats)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}")
    if args.no_gate:
        return 0
    failures = apply_gates(payload, args.min_traversal_speedup,
                           args.min_e2e_speedup)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    if not failures and "numpy" in payload["backends"]:
        print(f"gates passed: traversal >= {args.min_traversal_speedup}x, "
              f"end-to-end >= {args.min_e2e_speedup}x")
    return 1 if failures else 0


def test_kernels_measurement_shape():
    """Tiny pytest-visible sanity check (small sizes, 1 repeat)."""
    from repro.core.hashing.kernels import available_backends

    backends = available_backends()
    traversal = measure_traversal(backends, repeats=1, words=500, sweeps=1)
    assert traversal["backends"]["python"]["wall_s"] > 0
    delta = measure_store_delta(backends, repeats=1, batch=64, calls=2)
    assert delta["mixers"]["splitmix64"]["python"]["ns_per_event"] > 0
    sweep = measure_store_delta_sizes(backends, repeats=1, sizes=(1, 2, 4),
                                      calls=2)
    assert sweep["sizes"] == [1, 2, 4] and sweep["unit"] == "ns_per_call"
    expected_rows = set(backends) | ({"numpy-array"} if "numpy" in backends
                                     else set())
    for mixer_name in ("crc64", "splitmix64"):
        rows = sweep["mixers"][mixer_name]
        assert set(rows) == expected_rows
        for row in rows.values():
            assert set(row) == {"1", "2", "4"}
            assert all(ns > 0 for ns in row.values())
    if "numpy" in backends:
        assert "speedup_vs_python" in traversal["backends"]["numpy"]


if __name__ == "__main__":
    sys.exit(main())
