"""The traced benchmark (perfbench/tracing.py) wraps nptcert functions by name
and reads a span of every layer at every probe size; a missing one ends a
traced run in a KeyError.  These tests load that module without changing it
and check that every name and span is still there."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist(tracing):
    for module, fname, *_ in tracing.WRAPPED:
        assert callable(getattr(module, fname, None)), f"{module.__name__}.{fname}"


def test_probes_reach_every_layer(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer._probe_root("probe:d16", lambda: tracer._finite_probe(16))
        tracer._probe_root("probe:c10", lambda: tracer._cv_probe(10))
    finally:
        tracer.uninstall()
    seen = {(s[0], s[1]) for s in tracer.spans if s[1] is not None}
    missing = [(layer, 16) for layer in tracing.FINITE_LAYERS if (layer, 16) not in seen]
    missing += [(layer, 10) for layer in tracing.CV_LAYERS if (layer, 10) not in seen]
    assert missing == []
