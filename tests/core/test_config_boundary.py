"""Bad checker configuration fails at the boundary.

``CheckConfig`` used to accept ``schemes=("hw",)`` and unknown
scheduler, memory-model or hash-backend names, and the session then
died inside the first run (``TypeError: 'str' object is not callable``
in ``Runner._run_body``, or ``ValueError: unknown hash backend``) or at
planning with an exit code that blamed the infrastructure.
Construction now raises :class:`CheckerError` with the registries'
wording and typo suggestion, and the CLI maps it to the usage exit
code 3.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import cli
from repro.core.checker.runner import check_determinism
from repro.core.engine.model import CheckConfig
from repro.core.hashing import kernels
from repro.core.hashing.kernels import AUTO_BACKEND, available_backends
from repro.core.schemes.base import SchemeConfig
from repro.errors import CheckerError
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
], ids=["schemes-tuple", "scheme-value", "scheduler", "memory-model",
        "hash-backend"])
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
], ids=["scheduler", "memory-model"])
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
