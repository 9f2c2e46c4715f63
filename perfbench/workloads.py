"""Workloads, seeded input generators and the measured capacore pipeline.

Every workload runs the same CLI-equivalent pipeline, so every end-to-end
metric is measured on every workload:

  offline  build_auto on the whole input (sampled counts, the CLI default)
  io       write_coreset / read_coreset round trip of that coreset
  stream   StreamEngine over live inserts plus churn (insert, later delete)
  dist     run_protocol over the live points split round-robin
  assign   assignment_from_coreset + transfer_full (``assign --full-input``)
  eval     sandwich_audit over one center set and one capacity

The sizes differ per workload so that a different layer dominates each one.
The stream/dist live set and the assign/eval instance are prefixes of the
generated input; when a prefix is shorter than the input, its reference
offline coreset is built once, untimed.
"""

from __future__ import annotations

import gc
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, replace
from statistics import median

from capacore import assignment, coreset, distributed, oracle, streaming
from capacore.common import derive_seed, is_fail, is_infeasible
from capacore.geometry import GridHierarchy, Point
from capacore.params import PRACTICAL, derive

# shared configuration of every workload (the CLI defaults)
D, R, EPS, ETA, K, CLUSTERS = 2, 2.0, 0.4, 0.4, 3, 3
SCALE = 1e-6
SETUP_MIN_REPS, SETUP_MIN_S = 5, 0.5
ROUND_STAGE_MIN_S = 0.5   # a stage repeats in a round until it used this long
LAYOUT = ((0.25, 0.3), (0.75, 0.3), (0.5, 0.75))  # cluster means / Delta

STAGES = ("offline", "io", "stream", "dist", "assign", "eval")


@dataclass(frozen=True)
class Workload:
    name: str
    Delta: int
    n: int            # offline input size
    live: int         # points alive at the end of the stream (input prefix)
    churn: int        # extra points inserted and later deleted
    machines: int
    backing: str      # cell-store backing of the stream and dist stages
    assign_n: int     # assign/eval instance (input prefix)
    stream_reps: int = 1  # stream passes per round, for enough update samples

    def tiny(self) -> "Workload":
        """Smoke-test sizes: every stage still runs, within seconds."""
        return replace(self, n=min(self.n, 60), live=min(self.live, 12),
                       churn=min(self.churn, 6), assign_n=min(self.assign_n, 24))


WORKLOADS = {wl.name: wl for wl in (
    # geometry.lattice_of and the SampleBank rebuilds dominate
    Workload("offline-20k", 256, 20000, 1000, 500, 4, "exact", 200, stream_reps=3),
    # exact cell-store writes (stream) beside serialize/deserialize/merge (dist)
    Workload("stream-dist-8k", 64, 8000, 8000, 4000, 4, "exact", 200),
    # the only workload on SketchCellStore, the other cellstore backing
    Workload("sketch-16", 16, 200, 16, 8, 2, "sketch", 200, stream_reps=3),
    # MinCostFlow.solve dominates; builds are trivial
    Workload("assign-500", 64, 500, 500, 250, 4, "exact", 500),
)}


@dataclass
class Inputs:
    points: list      # the offline input
    updates: list     # (point, +1 | -1) stream over live + churn points
    centers: list     # the seeded center set of assign/eval
    params: object
    grid: GridHierarchy


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Gaussian clusters (sigma = Delta/16) and an insert/delete churn stream."""
    rng = random.Random(f"perfbench:{wl.name}:{seed}")
    sigma = wl.Delta / 16
    # a fixed triangle of cluster means, each moved by up to sigma: seeds give
    # instances of one shape, so timings vary little with the seed
    means = [tuple(round(f * wl.Delta + rng.uniform(-sigma, sigma)) for f in frac)
             for frac in LAYOUT]

    def draw(tag):
        mean = means[tag % CLUSTERS]
        return Point(tuple(min(wl.Delta, max(1, round(rng.gauss(m, sigma))))
                           for m in mean), tag)

    points = [draw(i) for i in range(wl.n)]
    churn = [draw(wl.n + i) for i in range(wl.churn)]
    # each live point is inserted once; each churn point is inserted and
    # deleted later, at uniformly random times
    events = [(rng.random(), p, 1) for p in points[:wl.live]]
    for p in churn:
        t_in, t_out = sorted((rng.random(), rng.random()))
        events += [(t_in, p, 1), (t_out, p, -1)]
    events.sort(key=lambda e: e[0])
    # the cluster means are the center set a center finder would return;
    # random input points instead make assign_s swing with the seed
    centers = [Point(m) for m in means]
    params = derive(k=K, r=R, eps=EPS, eta=ETA, Delta=wl.Delta, d=D,
                    mode=PRACTICAL, scale=SCALE)
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), wl.Delta, D)
    return Inputs(points, [(p, s) for _, p, s in events], centers, params, grid)


def timed_setup(wl: Workload, seed: int, clock):
    """Set up repeatedly (SETUP_MIN_REPS times, for SETUP_MIN_S at least).

    Returns the inputs and the median normalized set-up time.
    """
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
        gc.collect()
        with clock.interval() as iv:
            inputs = make_inputs(wl, seed)
        times.append(iv.norm_s)
    return inputs, median(times)


class Pipeline:
    """Runs the stages, times them, checks every output and counts failures."""

    def __init__(self, wl: Workload, inputs: Inputs, seed: int, workdir,
                 tracer, clock):
        self.wl = wl
        self.inp = inputs
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.times = {stage: [] for stage in STAGES}      # normalized seconds
        self.raw_times = {stage: [] for stage in STAGES}  # seconds as measured
        self.factors = []        # speed factor of each timed interval
        self.latencies = []      # normalized seconds per StreamEngine.process
        self.comm = []           # run_protocol comm bytes
        self.quality = {}        # seed-determined output properties
        self.gauges = {}         # layer state read after a stage
        self.core = None         # offline coreset of the whole input
        self._refs = {}          # prefix length -> reference offline coreset
        n_inserts = sum(1 for _, s in inputs.updates if s > 0)
        self.n_max = max(wl.Delta ** D, n_inserts)
        self.t_cap = math.ceil(1.1 * wl.assign_n / K)

    # --- bookkeeping ------------------------------------------------------
    def run(self, stage: str) -> bool:
        self.attempted += 1
        try:
            ok = getattr(self, "_" + stage)()
        except Exception:  # any raise is a failed operation, recorded
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"perfbench: {self.wl.name} stage {stage} failed", file=sys.stderr)
        return ok

    def _timed(self, stage, fn):
        gc.collect()
        with self.clock.interval() as iv, self.tracer.stage("stage." + stage):
            result = fn()
        self.times[stage].append(iv.norm_s)
        self.raw_times[stage].append(iv.raw_s)
        self.factors.append(iv.factor)
        return result

    def _reference(self, m: int):
        """Offline coreset of the first m input points (untimed)."""
        if m == self.wl.n:
            return self.core
        if m not in self._refs:
            with self.tracer.paused():
                self._refs[m] = coreset.build_auto(
                    self.inp.points[:m], self.inp.grid, self.inp.params,
                    self.seed, exact_counts=False)
        return self._refs[m]

    @staticmethod
    def _valid(core, n) -> bool:
        # FAIL, or an empty coreset for a nonempty input, is a failure
        return not is_fail(core) and (len(core) > 0 or n == 0)

    # --- stages -----------------------------------------------------------
    def _offline(self):
        inp = self.inp
        core = self._timed("offline", lambda: coreset.build_auto(
            inp.points, inp.grid, inp.params, self.seed, exact_counts=False))
        self.core = core
        self.quality["coreset_ratio"] = len(core) / len(inp.points)
        self.gauges["o_attempts"] = len(core.meta.o_attempts)
        self.gauges["heavy_cells"] = core.meta.structure.heavy_count()
        return self._valid(core, len(inp.points))

    def _io(self):
        path = self.workdir / "coreset.txt"

        def round_trip():
            coreset.write_coreset(path, self.core)
            return coreset.read_coreset(path)

        return self._timed("io", round_trip) == self.core

    def _stream(self):
        inp, wl = self.inp, self.wl
        lat = []  # seconds per update, kernel samples taken out
        pc = time.perf_counter
        clock = self.clock

        def run():
            eng = streaming.StreamEngine(inp.params, inp.grid, self.seed,
                                         backing=wl.backing, exact_counts=False,
                                         n_max=self.n_max)
            for p, sign in inp.updates:
                spent = clock.spent
                t0 = pc()
                eng.process(p, sign)
                lat.append(pc() - t0 - (clock.spent - spent))
            return eng, eng.finalize()

        eng, core = self._timed("stream", run)
        self.latencies += [dt * self.factors[-1] for dt in lat]
        with self.tracer.paused():
            self.gauges["distinct_stores"] = len({id(s) for s in eng._stores.values()})
            self.gauges["space_bytes"] = eng.space_bytes()
        return self._valid(core, wl.live) and core == self._reference(wl.live)

    def _dist(self):
        inp, wl = self.inp, self.wl
        live = inp.points[:wl.live]
        shards = [live[i::wl.machines] for i in range(wl.machines)]
        core, comm = self._timed("dist", lambda: distributed.run_protocol(
            shards, inp.params, self.seed, backing=wl.backing, exact_counts=False))
        self.comm.append(comm)
        return self._valid(core, wl.live) and core == self._reference(wl.live)

    def _assign(self):
        inp, m = self.inp, self.wl.assign_n
        pts = inp.points[:m]
        core = self._reference(m)

        def run():
            integral, _, halfspaces = assignment.assignment_from_coreset(
                core, inp.centers, self.t_cap)
            if is_infeasible(integral):
                return None
            return assignment.transfer_full(pts, core, halfspaces, inp.centers)

        final = self._timed("assign", run)
        if final is None:
            return False
        if set(final.mapping) != set(pts) or \
                not all(0 <= j < K for j in final.mapping.values()):
            return False
        if "assign_cost_ratio" not in self.quality:
            with self.tracer.paused():
                opt = oracle.exact_cost(pts, inp.centers, self.t_cap, R)
            self.quality["assign_cost_ratio"] = final.cost() / opt
            self.quality["assign_load_ratio"] = max(final.size_vector()) / self.t_cap
        return True

    def _eval(self):
        inp, m = self.inp, self.wl.assign_n
        core = self._reference(m)
        report = self._timed("eval", lambda: oracle.sandwich_audit(
            inp.points[:m], core, [inp.centers], [self.t_cap]))
        # summarized from the rows: AuditReport.worst_ratio drops inf ratios
        rows = report.rows
        self.quality["audit_violation_frac"] = sum(r.violated for r in rows) / len(rows)
        self.quality["audit_inf_ratios"] = sum(r.ratio == math.inf for r in rows)
        return bool(rows)

    # --- schedules ----------------------------------------------------------
    def measure(self, seconds: float):
        """Rounds over all stages until the budget is spent (at least one).

        Rounds spread every stage's repetitions over the whole run, so that
        no stage is measured only in one stretch of the host's load.
        """
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for stage in STAGES:
                reps = self.wl.stream_reps if stage == "stream" else 1
                s0 = time.perf_counter()
                for _ in range(reps):
                    self.run(stage)
                while time.perf_counter() - s0 < ROUND_STAGE_MIN_S:
                    self.run(stage)
            now = time.perf_counter()
            # stop when one more round like the last would overrun
            if 2 * now - start - t0 > seconds:
                break

    def one_pass(self):
        """Each stage once; returns the summed normalized stage time and the
        median speed factor of the pass."""
        before = {stage: len(t) for stage, t in self.times.items()}
        n_factors = len(self.factors)
        for stage in STAGES:
            self.run(stage)
        total = sum(sum(t[before[stage]:]) for stage, t in self.times.items())
        return total, median(self.factors[n_factors:])


def percentile(values, q: float):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]
