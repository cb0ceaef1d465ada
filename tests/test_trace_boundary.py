"""The benchmark tracer's boundary: every name it wraps still exists."""

import importlib.util
from pathlib import Path

import airytunnel
import airytunnel.cli  # noqa: F401  (the tracer wraps cli.main)

SPANS = Path(__file__).resolve().parents[1] / "airybench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("airybench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it():
    # install() looks up each name of spans.FUNCTIONS with getattr, so a
    # removed or renamed entry point fails here, not only in a traced run
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    wrapped = {(owner.__name__, attr) for owner, attr, _ in patched}
    for layer, names in spans.FUNCTIONS.items():
        for name in names:
            assert ("airytunnel." + layer, name) in wrapped
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    assert [name for name in airytunnel.__all__ if not hasattr(airytunnel, name)] == []
