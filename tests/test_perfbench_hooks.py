"""The benchmark tracer wraps capacore by name: a rename must fail here."""

import importlib.util
from pathlib import Path

from capacore import (assignment, cellstore, coreset, distributed,
                      estimator, hashing, kernels, oracle, partition,
                      streaming)
from capacore.common import derive_seed
from capacore.geometry import GridHierarchy, Point
from capacore.params import PRACTICAL, derive

from conftest import rand_points

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


def test_hooks_stay_on_the_build_path(rng):
    # the per-guess build, the per-store read-out and the decision path's
    # layers are timed through these hooks: a build that goes round them
    # reads as zero work
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                    mode=PRACTICAL, scale=1e-6)
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), 8, 2)
    pts = rand_points(rng, 20, 8)

    def stream():
        engine = streaming.StreamEngine(params, grid, 1, n_max=len(pts))
        engine.process_stream((p, +1) for p in pts)
        return engine.finalize()

    builds = {
        "offline": (lambda: coreset.build_auto(pts, grid, params, 1),
                    ["coreset.build_for_o"]),
        "stream": (stream, ["streaming.finalize_for_o", "cellstore.finalize"]),
        "dist": (lambda: distributed.run_protocol([pts[0::2], pts[1::2]],
                                                  params, 1),
                 ["streaming.finalize_for_o", "cellstore.finalize"]),
    }
    spans = _spans()
    tracer = spans.Tracer()
    try:
        spans.install_layers(tracer)
        for mode, (build, hooks) in builds.items():
            tracer.reset()
            build()
            for name in hooks + ["partition.mark_cells",
                                 "estimator.part_estimates",
                                 "estimator.SampleBank.build"]:
                assert tracer.calls(name) >= 1, (mode, name)
    finally:
        tracer.uninstall()


def test_hooks_stay_on_the_assign_path(rng):
    # the assign stage is timed through these five hooks: a rewrite that
    # goes round one of them reads as zero work there
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                    mode=PRACTICAL, scale=1e-6)
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), 8, 2)
    pts = coreset.dedup_points(rand_points(rng, 20, 8))
    core = coreset.build_auto(pts, grid, params, 1)
    centers = [Point((2, 2)), Point((7, 6))]
    spans = _spans()
    tracer = spans.Tracer()
    try:
        spans.install_layers(tracer)
        integral, _, halfspaces = assignment.assignment_from_coreset(
            core, centers, len(pts))
        assignment.transfer_full(pts, core, halfspaces, centers)
        for fn in ("fractional_assign", "integralize", "switch_ties",
                   "canonicalize", "transfer_full"):
            assert tracer.calls(f"assignment.{fn}") >= 1, fn
    finally:
        tracer.uninstall()
