"""Pin DPOR's exploration trajectory run by run.

The class-count proofs in ``test_dpor.py`` check *what* DPOR visits; this
module pins *how*: after every run, a SHA-256 absorbs the run's
redundancy flag, the exported frontier (backtrack, done and sleep sets,
chosen branches, remembered block footprints) and the run's checkpoint
hashes.  Any change to the bookkeeping that alters a single backtrack
entry or branch order moves the digest.  The digest must also not depend
on Python's string-hash seed: footprints are sets of tuples holding
strings, so an iteration order leaking into the exploration would show
up as two different digests under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.core.schemes.base import SchemeConfig
from repro.sim.dpor import DporScheduler
from repro.sim.program import Runner
from repro.workloads import make
from repro.workloads.storebuffer import SbDclBroken, SbVisibleLate

from tests._programs import Fig1Program, RacyProgram
from tests.sim.test_memory_models import MpLitmus, SbLitmus

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MAX_RUNS = 40

CASES = {
    "fig1-sc": (lambda: Fig1Program(), "sc"),
    "racy-tso": (lambda: RacyProgram(n_workers=2), "tso"),
    "litmus-sb-pso": (lambda: SbLitmus(), "pso"),
    "litmus-mp-pso": (lambda: MpLitmus(), "pso"),
    "sb-visible-late-pso": (lambda: SbVisibleLate(n_workers=2), "pso"),
    "sb-dcl-pso": (lambda: SbDclBroken(n_workers=2), "pso"),
    "radix2-sc": (lambda: make("radix", n_workers=2), "sc"),
}

#: Recorded from the per-op bookkeeping that preceded online block
#: accumulation; the exploration must not have moved since.
EXPECTED = {
    "fig1-sc":
        "cb4d002a08d7c106b909538cfca19f8ebff6e0c66135c4889a21ce83a10986b0",
    "racy-tso":
        "fb7406ca68b3abf8dfc225b3246ed953b7447bc9131771303ff1f7da9d487dff",
    "litmus-sb-pso":
        "9836c90826fe76db90e1f4a692bf636ed4688571a700a52b211bb09215893517",
    "litmus-mp-pso":
        "f02bf3759b368acfd8493352a7e8d6d1d60ddc39e3a55297a40383bc2536bb0a",
    "sb-visible-late-pso":
        "daa8ab4b5781a76132d3b884d8c6c509a08c4a545216391b6d9a48466571c289",
    "sb-dcl-pso":
        "7b01d41912795baaad5ff92cf3754aa17b37920fa3fa68542ac3b29af4d666b1",
    "radix2-sc":
        "e0fbb15bd817ec4a13efcc5f498aba97c58812b929ce630bec117c3d78219aba",
}


def trajectory_digest(name: str) -> str:
    """SHA-256 over every run's (redundant, frontier, hashes) of a case,
    run to exhaustion or to the ``MAX_RUNS`` budget."""
    make_program, memory_model = CASES[name]
    scheduler = DporScheduler(max_runs=MAX_RUNS)
    runner = Runner(make_program(), scheme_factory={"main": SchemeConfig()},
                    scheduler=scheduler, memory_model=memory_model)
    digest = hashlib.sha256()
    runs = 0
    while True:
        record = runner.run(seed=runs)
        runs += 1
        row = [scheduler.last_run_redundant,
               json.dumps(scheduler.export_frontier(), sort_keys=True),
               repr(record.hashes())]
        digest.update(json.dumps(row).encode())
        if not scheduler.has_more():
            return digest.hexdigest()


def trajectory_digests() -> dict:
    return {name: trajectory_digest(name) for name in CASES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_is_pinned(name):
    assert trajectory_digest(name) == EXPECTED[name]


def _digests_under_hash_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO_ROOT, os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    code = ("import json; from tests.sim.test_dpor_trajectory import "
            "trajectory_digests; print(json.dumps(trajectory_digests()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO_ROOT,
                         capture_output=True, text=True, timeout=600,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_trajectory_does_not_depend_on_string_hash_order():
    first = _digests_under_hash_seed("0")
    second = _digests_under_hash_seed("4242")
    assert first == second
    assert first == EXPECTED
