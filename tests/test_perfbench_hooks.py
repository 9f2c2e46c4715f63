"""The benchmark tracer wraps capacore by name: a rename must fail here."""

import importlib.util
from pathlib import Path

from capacore import (assignment, cellstore, coreset, distributed,
                      estimator, hashing, kernels, oracle, partition,
                      streaming)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    # the tracer records a class attribute's descriptor, a module's value
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_hook():
    spans = _spans()
    wrapped = [(streaming.StreamEngine, "_cell_data"),
               (streaming.StreamEngine, "process"),
               (streaming.StreamEngine, "finalize_for_o"),
               (coreset.OfflineBuilder, "build_for_o"),
               (estimator.SampleBank, "build"),
               (estimator.ExactBank, "part_estimates"),
               (streaming, "mark_cells"),
               (kernels, "poly_eval_batch"),
               (hashing.KWiseHash, "field_values"),
               (cellstore.ExactCellStore, "update"),
               (cellstore.SketchCellStore, "update"),
               (distributed.Coordinator, "absorb"),
               (distributed.Machine, "__init__"),
               (assignment.MinCostFlow, "solve"),
               (oracle, "exact_cost")]
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in wrapped}
    tracer = spans.Tracer()
    try:
        spans.install_layers(tracer)
        patches = list(tracer._patches)
        for owner, attr in wrapped:
            assert owner.__dict__[attr] is not before[(owner, attr)]
    finally:
        tracer.uninstall()
    assert {(owner, attr) for owner, attr, _ in patches} >= set(wrapped)
    for owner, attr, raw in patches:
        assert _current(owner, attr) is raw, (owner, attr)
    assert streaming.mark_cells is partition.mark_cells
