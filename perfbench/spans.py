"""Span tracer that wraps capacore's functions from outside the package.

Each wrapped function records one span per call: its duration, and its self
time (the duration minus the time covered by the spans it caused).  Spans are
aggregated in memory per name as [calls, total_s, self_s]; only the
benchmark's own top-level stage spans are kept individually.  Optional hooks
see each call's arguments and result and update counters, so ratios are
measured where the work happens.

Names that a module imports with ``from .x import y`` are looked up in the
importing module's namespace, so they are wrapped there (``coreset.mark_cells``
and ``streaming.mark_cells`` as well as ``partition.mark_cells``).

An opaque span (the oracle's ``exact_cost``) hides everything it calls: the
oracle runs its own flow solves, and those belong to the oracle layer, not to
``assignment``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.stats: dict = {}      # span name -> [calls, total_s, self_s]
        self.counters: dict = {}   # counter name -> number
        self.spans: list = []      # top-level (name, start_s, end_s)
        self.by_stage: dict = {}   # top-level name -> {span name: stats delta}
        self.enabled = True
        self._stack = [[0.0]]      # per open span: time covered by children
        self._opaque = 0
        self._patches: list = []   # (owner, attr, original descriptor)

    # --- counters and stage spans ----------------------------------------
    def add(self, name: str, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def reset(self):
        # wrappers hold their stats record, so records are zeroed in place
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.spans.clear()
        self.by_stage.clear()

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (correctness checks, references)."""
        before, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = before

    @contextmanager
    def stage(self, name: str):
        """Top-level span; also keeps what each span name did inside it."""
        before = {key: list(rec) for key, rec in self.stats.items()}
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._stack[-1][0] += t1 - t0
            self._account(name, t1 - t0, frame[0])
            self.spans.append((name, t0, t1))
            zero = [0, 0.0, 0.0]
            self.by_stage[name] = {
                key: [a - b for a, b in zip(rec, before.get(key, zero))]
                for key, rec in self.stats.items()
                if rec[0] != before.get(key, zero)[0]}

    def _account(self, name, dt, child):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child

    # --- wrapping ----------------------------------------------------------
    def _wrapper(self, fn, name, opaque, hook):
        stack = self._stack
        pc = time.perf_counter
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            if self._opaque or not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            self._opaque += opaque
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                self._opaque -= opaque
                stack.pop()
                stack[-1][0] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, opaque: bool = False, hook=None):
        """Replace owner.attr (function, method or classmethod) by a traced one."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, name, int(opaque), hook))
        else:
            new = self._wrapper(raw, name, int(opaque), hook)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # --- results -------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, *names) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)


# --- counter hooks ----------------------------------------------------------

def _count_points(tracer, args, result):
    tracer.add("hashing.points_hashed", len(args[1]))


def _count_point(tracer, args, result):
    tracer.add("hashing.points_hashed", 1)


def _count_serialized(tracer, args, result):
    tracer.add("cellstore.serialize.bytes", len(result))


def _count_flow_edges(tracer, args, result):
    tracer.add("assignment.flow_edges", sum(len(adj) for adj in args[0].graph) // 2)


def _count_sent(tracer, args, result):
    blob = args[1]
    tracer.add("distributed.bytes_sent", len(blob))
    tracer.add("distributed._machine_bytes", len(blob))
    seen = tracer.counters.setdefault("distributed._seen_blobs", set())
    if blob not in seen:
        seen.add(blob)
        tracer.add("distributed.distinct_blob_bytes", len(blob))


def _close_machine(tracer, args, result):
    sent = tracer.counters.pop("distributed._machine_bytes", 0)
    best = tracer.counters.get("distributed.comm_bytes_max_machine", 0)
    tracer.counters["distributed.comm_bytes_max_machine"] = max(best, sent)


def install_layers(tracer: Tracer):
    """Wrap the public entry points of every capacore layer."""
    from capacore import (assignment, cellstore, coreset, distributed,
                          estimator, geometry, hashing, kernels, oracle,
                          partition, streaming)

    w = tracer.wrap
    w(geometry.GridHierarchy, "lattice_of", "geometry.lattice_of")

    w(hashing.KWiseHash, "field_values", "hashing.field_values", hook=_count_points)
    w(hashing.KWiseHash, "field_value", "hashing.field_value", hook=_count_point)
    w(kernels, "poly_eval_batch", "kernels.poly_eval_batch")

    w(estimator.SampleBank, "build", "estimator.SampleBank.build")
    w(estimator.SampleBank, "part_estimates", "estimator.part_estimates")
    w(estimator.ExactBank, "part_estimates", "estimator.part_estimates")

    for module in (partition, coreset, streaming):
        w(module, "mark_cells", "partition.mark_cells")

    w(coreset.OfflineBuilder, "build_for_o", "coreset.build_for_o")
    w(coreset, "write_coreset", "coreset.io")
    w(coreset, "read_coreset", "coreset.io")

    for cls in (cellstore.ExactCellStore, cellstore.SketchCellStore):
        w(cls, "update", "cellstore.update")
        w(cls, "serialize", "cellstore.serialize", hook=_count_serialized)
        w(cls, "merge_in", "cellstore.merge_in")
    w(cellstore, "deserialize", "cellstore.deserialize")
    # the engine's per-store read-out; it calls SketchCellStore.finalize and
    # reads ExactCellStore state directly
    w(streaming.StreamEngine, "_cell_data", "cellstore.finalize")

    w(streaming.StreamEngine, "process", "streaming.process")
    w(streaming.StreamEngine, "finalize_for_o", "streaming.finalize_for_o")

    w(distributed.Machine, "__init__", "distributed.machine")
    w(distributed.Coordinator, "absorb", "distributed.absorb", hook=_close_machine)
    w(distributed.ByteChannel, "send_to_coordinator", "distributed.send",
      hook=_count_sent)

    w(assignment.MinCostFlow, "solve", "assignment.MinCostFlow.solve",
      hook=_count_flow_edges)
    for fn in ("fractional_assign", "integralize", "switch_ties",
               "canonicalize", "transfer_full"):
        w(assignment, fn, f"assignment.{fn}")

    w(oracle, "exact_cost", "oracle.exact_cost", opaque=True)
