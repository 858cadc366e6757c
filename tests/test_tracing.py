"""The benchmark tracer against the real package.

``perfbench/tracing.py`` wraps ``latnf`` module attributes by name, so a
renamed or dropped name breaks the traced benchmark runs.  Installing the
tracer here makes that a tier-1 failure.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_package_names(monkeypatch):
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
        assert patched
        assert all(getattr(module, attr) is not original for module, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is original for module, attr, original in patched)
