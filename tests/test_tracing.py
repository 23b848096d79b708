"""The benchmark tracer's probes against the package they wrap.

``bench/tracing.py`` names the functions it wraps by module and name; a
deleted or renamed function would only show when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import wassnet

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


def _bindings():
    """Every module-level binding of every package module, by identity."""
    return {(module.__name__, attr): id(value)
            for module in tracing._package_modules()
            for attr, value in vars(module).items()}


@pytest.mark.parametrize("probe", tracing.PROBES, ids=lambda p: p.name)
def test_every_probe_resolves_to_a_package_function(probe):
    assert probe.module in tracing.LAYERS
    home = importlib.import_module(f"wassnet.{probe.module}")
    assert callable(getattr(home, probe.function, None)), probe.name


def test_install_wraps_and_uninstall_restores_every_binding():
    before = _bindings()
    originals = {p.name: getattr(importlib.import_module(
        f"wassnet.{p.module}"), p.function) for p in tracing.PROBES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for probe in tracing.PROBES:
            home = importlib.import_module(f"wassnet.{probe.module}")
            wrapped = getattr(home, probe.function)
            assert wrapped is not originals[probe.name], probe.name
            assert wrapped.__wrapped__ is originals[probe.name]
        # a call through a re-bound name is counted once
        tracer.counting = True
        wassnet.psd_sqrt(np.eye(2))
        assert tracer.calls["stats.psd_sqrt"] == 1
        assert tracer.counters[("stats.psd_sqrt", "dim3")] == 8
    finally:
        tracer.uninstall()
    assert _bindings() == before
