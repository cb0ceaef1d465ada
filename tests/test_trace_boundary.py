"""The benchmark tracer's boundary: every name it wraps still exists."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.xfail(strict=True, raises=ValueError, reason="ROADMAP item 1")
def test_tracer_takes_the_worst_flux_defect_of_an_array_call():
    # flux_defect_max is max(float, result.flux_defect), which an array of
    # energies turns into the truth value of an array
    spans = load_spans()
    tracer = spans.Tracer()
    pot = airytunnel.Sech2Barrier(1.0, 1.0)
    try:
        tracer.install()
        result = airytunnel.exact_transmission(pot, np.array([0.3, 0.5]), pot.window(), slices=200)
    finally:
        tracer.uninstall()
    assert tracer.flux_defect_max == result.flux_defect.max()
