"""Bad checker configuration fails at the boundary.

``CheckConfig`` used to accept ``schemes=("hw",)`` and unknown
scheduler, memory-model or hash-backend names, and the session then
died inside the first run (``TypeError: 'str' object is not callable``
in ``Runner._run_body``, or ``ValueError: unknown hash backend``) or at
planning with an exit code that blamed the infrastructure.
Construction now raises :class:`CheckerError` with the registries'
wording and typo suggestion, and the CLI maps it to the usage exit
code 3.  The same holds for the executor backend name, the ``workers``
knob, and a systematic scheduler on an explicit pool, which used to
fail only at session start.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import cli
from repro.core.checker.runner import check_determinism
from repro.core.engine.executors import EXECUTORS
from repro.core.engine.model import CheckConfig
from repro.core.hashing import kernels
from repro.core.hashing.kernels import AUTO_BACKEND, available_backends
from repro.core.schemes.base import SchemeConfig
from repro.errors import CheckerError, ReproError
from repro.sim.memmodel import MEMORY_MODELS
from repro.sim.scheduler import SCHEDULERS
from tests._programs import Fig1Program


@pytest.mark.parametrize("kwargs, match", [
    ({"runs": 2, "schemes": ("hw",)},
     r"schemes must map variant names to SchemeConfig, got tuple"),
    ({"schemes": {"main": "hw"}},
     r"schemes\['main'\] must be a SchemeConfig, got str"),
    ({"scheduler": "rnadom"},
     r"unknown scheduler 'rnadom' \(did you mean 'random'\?\); "
     r"available: \['dpor', 'pct', 'random', 'round_robin'\]"),
    ({"memory_model": "tzo"},
     r"unknown memory model 'tzo' \(did you mean 'tso'\?\); "
     r"available: \['pso', 'sc', 'tso'\]"),
    ({"schemes": {"m": SchemeConfig(backend="nmupy")}},
     r"schemes\['m'\]: unknown hash backend 'nmupy' \(did you mean "
     r"'numpy'\?\); available: \['numpy', 'python'\]"),
    ({"executor": "proces-pool"},
     r"unknown executor backend 'proces-pool' \(did you mean "
     r"'process-pool'\?\); available: \['asyncio-local', 'process-pool', "
     r"'process-pool-shmem', 'serial', 'socket'\]"),
    ({"workers": 0}, r"workers must be >= 1, got 0"),
    ({"workers": True},
     r"workers must be a positive int or 'auto', got True"),
    ({"workers": 2.0},
     r"workers must be a positive int or 'auto', got 2.0"),
    ({"workers": "all"},
     r"workers must be a positive int or 'auto', got 'all'"),
    ({"scheduler": "dpor", "executor": "process-pool"},
     r"scheduler 'dpor' is systematic and requires the serial executor "
     r"\(got 'process-pool'\)"),
], ids=["schemes-tuple", "scheme-value", "scheduler", "memory-model",
        "hash-backend", "executor", "workers-zero", "workers-bool",
        "workers-float", "workers-str", "dpor-on-pool"])
def test_bad_config_rejected_at_construction(kwargs, match):
    with pytest.raises(CheckerError, match=match):
        CheckConfig(**kwargs)


def test_replace_and_overrides_revalidate():
    with pytest.raises(CheckerError, match="unknown scheduler 'fifo'"):
        dataclasses.replace(CheckConfig(), scheduler="fifo")
    # The override path raises before any run starts, not a TypeError
    # from inside Runner._run_body.
    with pytest.raises(CheckerError, match="schemes must map"):
        check_determinism(Fig1Program(), runs=2, schemes=("hw",))


@pytest.mark.parametrize("override, match", [
    ({"executor": "proces-pool"}, "unknown executor backend 'proces-pool'"),
    ({"workers": -1}, "workers must be >= 1, got -1"),
    ({"scheduler": "dpor", "executor": "asyncio-local", "workers": 2},
     "requires the serial executor"),
], ids=["executor", "workers", "dpor-on-pool"])
def test_session_overrides_rejected_before_any_run(override, match):
    """The ``check_determinism`` override path validates at
    construction too, before the planner or an executor sees it."""
    with pytest.raises(CheckerError, match=match):
        check_determinism(Fig1Program(), runs=2, **override)


def test_valid_executor_and_workers_accepted():
    CheckConfig(scheduler="dpor", executor="serial")
    CheckConfig(scheduler="dpor", workers="auto")
    for name in EXECUTORS:
        CheckConfig(executor=name, workers="auto")


def _name_or_junk(names):
    return st.one_of(st.sampled_from(sorted(names)), st.text(max_size=12))


@given(scheduler=_name_or_junk(SCHEDULERS),
       memory_model=_name_or_junk(MEMORY_MODELS),
       executor=_name_or_junk([*EXECUTORS, "auto"]),
       workers=st.one_of(st.integers(-3, 64),
                         st.sampled_from(["auto", "all", True, False, 2.0,
                                          None, (2,)])))
def test_malformed_config_fails_only_with_checker_error(
        scheduler, memory_model, executor, workers):
    """Whatever reaches the validated fields, construction either
    succeeds or raises ``CheckerError`` — never another exception."""
    try:
        CheckConfig(scheduler=scheduler, memory_model=memory_model,
                    executor=executor, workers=workers)
    except ReproError as exc:
        assert isinstance(exc, CheckerError)


def test_every_registered_name_accepted():
    for scheduler in SCHEDULERS:
        for model in MEMORY_MODELS:
            config = CheckConfig(scheduler=scheduler, memory_model=model,
                                 schemes={"a": SchemeConfig(kind="hw")})
            assert dict(config.schemes) == {"a": SchemeConfig(kind="hw")}
    for backend in (AUTO_BACKEND, *available_backends()):
        CheckConfig(schemes={"a": SchemeConfig(backend=backend)})


def test_numpy_backend_without_numpy_rejected(monkeypatch):
    """A registered backend that is not installed fails at construction
    with :func:`resolve_backend`'s wording, not inside the first run."""
    monkeypatch.setattr(kernels, "_np", None)
    with pytest.raises(CheckerError, match=r"schemes\['m'\]: hash backend "
                       r"'numpy' requested but numpy is not installed"):
        CheckConfig(schemes={"m": SchemeConfig(backend="numpy")})
    CheckConfig(schemes={"m": SchemeConfig(backend="python")})


def test_unknown_backend_never_reaches_a_run():
    """The session raises before its first run, not from inside it."""
    with pytest.raises(CheckerError, match="unknown hash backend 'cuda'"):
        check_determinism(Fig1Program(), runs=2,
                          schemes={"m": SchemeConfig(backend="cuda")})


@pytest.mark.parametrize("override, match", [
    ({"scheduler": "rnadom"}, "unknown scheduler 'rnadom'"),
    ({"memory_model": "tzo"}, "unknown memory model 'tzo'"),
    ({"executor": "proces-pool"},
     "unknown executor backend 'proces-pool' (did you mean "
     "'process-pool'?)"),
    ({"workers": 0}, "workers must be >= 1, got 0"),
    ({"scheduler": "dpor", "executor": "process-pool-shmem"},
     "scheduler 'dpor' is systematic and requires the serial executor"),
], ids=["scheduler", "memory-model", "executor", "workers", "dpor-on-pool"])
def test_cli_reports_bad_config_as_usage_error(monkeypatch, capsys,
                                               override, match):
    """argparse's ``choices`` catch a mistyped flag; a bad name that
    reaches the engine another way (here: patched into the CLI's
    config overrides) must still end as one usage line and exit 3."""
    real = cli._robustness_overrides
    monkeypatch.setattr(cli, "_robustness_overrides",
                        lambda args: {**real(args), **override})
    code = cli.main(["check", "fft", "--runs", "2"])
    assert code == cli.EXIT_USAGE == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and match in err


def test_cli_reports_unknown_backend_as_usage_error(monkeypatch, capsys):
    """``--hash-backend`` has argparse choices; a bad name that gets
    past them (here: patched into the scheme the CLI builds) still ends
    as one usage line and exit 3, not a traceback from the first run."""
    monkeypatch.setattr(cli, "SchemeConfig",
                        lambda **kw: SchemeConfig(**{**kw,
                                                     "backend": "nmupy"}))
    code = cli.main(["check", "fft", "--runs", "2"])
    assert code == cli.EXIT_USAGE == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "unknown hash backend 'nmupy'" in err
