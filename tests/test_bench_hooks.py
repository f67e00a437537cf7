"""The benchmark's hooks into the package still hold.

perfbench/tracing.py wraps named package functions from outside, wherever
a stablematch module holds them, and counts the work they report. A change
to the package that renames one of them, or reaches it by a route the
wrappers miss, would break or empty the benchmark without failing any
other test. These tests read perfbench/ and write nothing there: they run
tiny traced campaigns of the benchmark's own workload configs.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from stablematch.harness import ExperimentConfig, run_experiment
from stablematch.rng import Rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module, with no bytecode cache written."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_traced_names_resolve():
    for _, module, attr, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), attr)), attr
    # perfbench/run.py::ns_per_draw times the scalar draws.
    assert callable(Rng.randrange) and callable(Rng.random)


# The benchmark's workloads and the layers whose proposals each one counts.
LAYERS = {
    "audit_n1024": ("random_model",),
    "chain_n1024": ("random_model",),
    "equiv_n3": ("random_model", "matching"),
}


@pytest.mark.parametrize("name", LAYERS)
def test_tiny_traced_campaign(name):
    doc = workloads.config_doc(name, "tiny", workloads.DEFAULT_SEED)
    doc["workers"] = 1
    cap = workloads.expected_cap(doc)
    tracer = tracing.Tracer(cap=cap)
    with tracer.installed():
        root = tracer.open(tracing.ROOT_SPAN)
        _, rows = run_experiment(ExperimentConfig.from_dict(doc))
        tracer.close(root)
    assert tracer.failures == {}
    assert tracer.trials == len(rows) > 0
    assert all(tracer.counts[f"{layer}.proposals"] > 0 for layer in LAYERS[name])
    # Each run takes its empty record from the module-level new_state, which
    # the benchmark times as random_model.new_state_s.
    assert tracer.calls("random_model.new_state") == tracer.calls("random_model.run") > 0
    if cap is not None:
        assert tracer.counts["random_model.proposals"] == len(rows) * cap
        assert tracer.calls("random_model.audit_window_stats") == len(rows)
