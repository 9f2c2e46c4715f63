"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import math
import random
import time

import pytest

from capacore import cellstore, oracle
from capacore.assignment import (extract_halfspaces, fractional_assign,
                                 integralize, transfer_full)
from capacore.common import derive_seed, is_fail, is_infeasible
from capacore.coreset import build_auto, build_for_o, dedup_points, o_grid
from capacore.distributed import per_machine_byte_cap, run_protocol
from capacore.geometry import GridHierarchy, Point
from capacore.params import PRACTICAL, THEORY, derive
from capacore.streaming import StreamEngine

from conftest import clustered_points, rand_points
from reference import (CALIBRATED_PRACTICAL_SCALE, brute_opt, contains,
                       coreset_size_bound, halfspace_member, lattice_points,
                       pair_key, region_of)

RATE1 = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
               mode=PRACTICAL, scale=1e-6)
SAMPLING = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                  mode=PRACTICAL, scale=CALIBRATED_PRACTICAL_SCALE)


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded runtime budget ({elapsed:.1f}s)"


def test_criterion_1_oracle_cross_validation():
    """exact_cost agrees with brute_partitions on 200 random instances."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    for trial in range(200):
        n = rng.randint(2, 8)
        d = rng.choice([1, 2])
        Delta = rng.choice([4, 8])
        k = rng.choice([2, 3])
        r = rng.choice([1, 2])
        pts = dedup_points(
            [Point(tuple(rng.randint(1, Delta) for _ in range(d)), i)
             for i in range(n)])
        Z = []
        while len(Z) < k:
            z = Point(tuple(rng.randint(1, Delta) for _ in range(d)))
            if z not in Z:
                Z.append(z)
        for t in range(math.ceil(len(pts) / k), len(pts) + 1):
            got = oracle.exact_cost(pts, Z, t, r)
            want = oracle.brute_partitions(pts, Z, t, r)
            checked += 1
            if want == float("inf"):
                assert got == float("inf"), (trial, t)
            else:
                assert got == pytest.approx(want, rel=1e-9), (trial, t)
    _report("criterion 1 (oracle cross-validation)", True,
            f"200 instances, {checked} (Z,t) checks, rel tol 1e-9",
            time.perf_counter() - t0, 30.0)


def _stream_with_deletions(rng, n_updates, Delta=8):
    pool = [Point((rng.randint(1, Delta), rng.randint(1, Delta)), i)
            for i in range(n_updates)]
    live, updates = [], []
    for _ in range(n_updates):
        if live and rng.random() < 0.33:
            p = live.pop(rng.randrange(len(live)))
            updates.append((p, -1))
        else:
            p = pool.pop()
            updates.append((p, +1))
            live.append(p)
    # enforce the >= 30% deletion share
    while sum(1 for _, s in updates if s < 0) < 0.3 * len(updates) and live:
        p = live.pop(rng.randrange(len(live)))
        updates.append((p, -1))
    return updates, live


def test_criterion_2_streaming_equals_offline():
    """100 random dynamic streams reproduce the offline coreset bit-exactly."""
    t0 = time.perf_counter()
    rng = random.Random(202)
    matches = 0
    for run in range(100):
        # half the runs exercise rate-1 estimation, half active sampling
        params, exact_counts = (RATE1, False) if run % 2 else (SAMPLING, True)
        n_updates = rng.randint(400, 1900)
        updates, live = _stream_with_deletions(rng, n_updates)
        assert len(updates) <= 2000
        assert sum(1 for _, s in updates if s < 0) >= 0.3 * len(updates)
        seed = 1000 + run
        grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
        engine = StreamEngine(params, grid, seed, exact_counts=exact_counts,
                              n_max=len(updates))
        engine.process_stream(updates)
        stream_core = engine.finalize()
        offline_core = build_auto(sorted(live, key=lambda p: p.sort_key()),
                                  grid, params, seed, exact_counts=exact_counts)
        if stream_core == offline_core:
            matches += 1
    _report("criterion 2 (streaming ≡ offline)", matches == 100,
            f"bit-exact equality in {matches}/100 runs",
            time.perf_counter() - t0, 60.0)


def test_criterion_3_distributed_equals_offline():
    """Random shardings reproduce the offline coreset; bytes under the cap."""
    t0 = time.perf_counter()
    rng = random.Random(303)
    pts = dedup_points(rand_points(rng, 150, 8))
    seed = 42
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
    offline = build_auto(pts, grid, RATE1, seed, exact_counts=False)
    cap = per_machine_byte_cap(RATE1, grid, o_grid(len(pts), RATE1), len(pts))
    matches = 0
    runs = 0
    comm_by_s = {}
    for s in (1, 2, 4, 5):
        for trial in range(20):
            shuffled = list(pts)
            random.Random(1000 * s + trial).shuffle(shuffled)
            shards = [shuffled[i::s] for i in range(s)]
            core, comm = run_protocol(shards, RATE1, seed,
                                      exact_counts=False)
            runs += 1
            matches += core == offline
            assert comm <= 2 * s * cap
            comm_by_s[s] = comm
    linear = all(comm_by_s[s] <= 2 * s * comm_by_s[1] for s in (2, 4, 5))
    _report("criterion 3 (distributed ≡ offline)",
            matches == runs and linear,
            f"bit-exact in {matches}/{runs} runs; comm within 2x per-machine cap",
            time.perf_counter() - t0, 60.0)


def test_criterion_4_cellstore_contract():
    """Linearity, merge equivalence, deterministic FAIL, sketch recovery."""
    t0 = time.perf_counter()
    rng = random.Random(404)
    grid = GridHierarchy.from_seed(7, 8, 2)
    # linearity + merge equivalence on 10^4-update streams, bit-exact
    for trial in range(3):
        updates, _ = _stream_with_deletions(rng, 10_000)
        single = cellstore.ExactCellStore(grid, 2, 10**9, 3)
        shards = [cellstore.ExactCellStore(grid, 2, 10**9, 3) for _ in range(4)]
        inverse = cellstore.ExactCellStore(grid, 2, 10**9, 3)
        for i, (p, sign) in enumerate(updates):
            single.update(p, sign)
            shards[i % 4].update(p, sign)
            inverse.update(p, sign)
        merged = shards[0]
        for other in shards[1:]:
            merged.merge_in(other)
        assert merged.finalize() == single.finalize()
        for p, sign in updates:
            inverse.update(p, -sign)
        empty = cellstore.ExactCellStore(grid, 2, 10**9, 3)
        assert inverse.finalize() == empty.finalize()
    # exact backing: FAIL iff the cell cap is exceeded
    store = cellstore.ExactCellStore(grid, 3, alpha=4, beta=2)
    pts = dedup_points(rand_points(rng, 60, 8))
    distinct = []
    for p in pts:
        lat = grid.lattice_of(p.coords, 3)
        if lat not in distinct:
            distinct.append(lat)
        store.update(p, +1)
        data = store.finalize()
        assert is_fail(data) == (len(distinct) > 4)
    # sketch backing: recovery succeeds at rate >= 1 - delta when |C| <= alpha
    delta = 0.05
    failures = 0
    for trial in range(500):
        sk = cellstore.SketchCellStore(grid, 3, alpha=16, beta=3,
                                       seed=trial, delta=delta)
        cells = {}
        for p in rand_points(rng, 20, 8):
            lat = grid.lattice_of(p.coords, 3)
            if len(cells) >= 16 and lat not in cells:
                continue
            cells[lat] = True
            sk.update(p, +1)
        failures += is_fail(sk.finalize())
    _report("criterion 4 (cellstore contract)", failures <= delta * 500,
            f"linearity+merge bit-exact; exact FAIL iff cap; sketch failures "
            f"{failures}/500 (budget {delta * 500:.0f})",
            time.perf_counter() - t0, 60.0)


def test_criterion_5_sandwich_audit():
    """Strong-coreset sandwich at desk scale with the calibrated scale."""
    t0 = time.perf_counter()
    params = derive(k=2, r=2, eps=0.5, eta=0.5, Delta=8, d=2,
                    mode=PRACTICAL, scale=CALIBRATED_PRACTICAL_SCALE)
    lattice = lattice_points(8, 2)
    clean_seeds = 0
    sampling_active = 0
    for seed in range(20):
        inst_rng = random.Random(derive_seed(seed, "calib-instance"))
        pts = dedup_points(clustered_points(inst_rng, 36, 8,
                                            clusters=2, spread=1.2))
        grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
        core = build_auto(pts, grid, params, seed=seed, exact_counts=True)
        sampling_active += any(v < 1.0 for v in core.meta.phi.values())
        z_rng = random.Random(derive_seed(seed, "calib-centers"))
        centers = [tuple(z_rng.sample(lattice, 2)) for _ in range(200)]
        n = len(pts)
        t_values = list(range(math.ceil(n / 2), n + 1))
        report = oracle.sandwich_audit(pts, core, centers, t_values,
                                       forms=(oracle.SYMMETRIC_FORM,))
        clean_seeds += report.violations() == 0
    _report("criterion 5 (sandwich audit)",
            clean_seeds >= 18,
            f"{clean_seeds}/20 seeds with zero violations over 200 centers x "
            f"full t-grid (calibrated scale {CALIBRATED_PRACTICAL_SCALE:g}, "
            f"sampling active in {sampling_active}/20 seeds)",
            time.perf_counter() - t0, 600.0)


def test_criterion_6_fail_behavior():
    """Never FAIL for o in [OPT/10, OPT]; tiny o FAILs on clustered data."""
    t0 = time.perf_counter()
    rng = random.Random(606)
    no_fail = 0
    runs = 0
    tiny_fails = 0
    tiny_runs = 0
    for seed in range(50):
        pts = dedup_points(clustered_points(rng, 30, 8, clusters=2,
                                            spread=1.0))
        opt, _ = brute_opt(pts, 2, 2, 8, 2)
        if opt == 0:
            continue
        grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
        runs += 1
        ok = True
        for o in (opt / 10, opt / math.sqrt(10), opt):
            ok &= not is_fail(build_for_o(pts, grid, RATE1, o, seed=seed))
        no_fail += ok
        tiny_runs += 1
        tiny_fails += is_fail(build_for_o(pts, grid, RATE1, opt / 1e4,
                                          seed=seed))
    _report("criterion 6 (FAIL behavior)",
            no_fail == runs and tiny_fails >= 0.9 * tiny_runs,
            f"no FAIL in {no_fail}/{runs} runs at o in [OPT/10, OPT]; "
            f"FAIL in {tiny_fails}/{tiny_runs} runs at o = OPT/1e4",
            time.perf_counter() - t0, 120.0)


def test_criterion_7_assignment_pipeline():
    """Split bound, size bound, canonicalization and transfer quality."""
    t0 = time.perf_counter()
    rng = random.Random(707)
    runs = 0
    transfer_ok = 0
    for seed in range(50):
        pts = dedup_points(clustered_points(rng, 26, 8, clusters=2,
                                            spread=1.1))
        grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
        core = build_auto(pts, grid, SAMPLING, seed=seed, exact_counts=True)
        if len(core) < 2:
            continue
        z_rng = random.Random(derive_seed(seed, "z"))
        lattice = lattice_points(8, 2)
        Z = tuple(z_rng.sample(lattice, 2))
        W = core.total_weight()
        t_cap = max(W, len(pts)) / 2 * z_rng.uniform(1.05, 1.5)
        stats = {}
        frac = fractional_assign(core.points(), core.weights(), Z, t_cap, 2)
        if is_infeasible(frac):
            continue
        runs += 1
        integral = integralize(frac, stats)
        assert stats["splits"] <= 1  # k - 1
        max_w = max(core.weights().values())
        assert max(integral.size_vector()) <= t_cap + max_w + 1e-9
        by_level = {}
        for p, w, lvl, j in core.entries:
            entry = by_level.setdefault(lvl, ([], {}, {}))
            entry[0].append(p)
            entry[1][p] = w
            entry[2][p] = integral.mapping[p]
        from capacore.assignment import canonicalize
        canonical, halfspaces = canonicalize(by_level, Z, 2)
        assert canonical.cost() <= integral.cost() * (1 + 1e-9) + 1e-9
        for lvl, (group, _, _) in by_level.items():
            before = [0, 0]
            after = [0, 0]
            for p in group:
                before[integral.mapping[p]] += 1
                after[canonical.mapping[p]] += 1
            assert before == after
        full = transfer_full(pts, core, halfspaces, Z)
        relaxed = oracle.exact_cost(core.points(), Z, t_cap, 2, core.weights())
        ok_cost = full.cost() <= (1 + 3 * SAMPLING.eps) * relaxed + 1e-9
        ok_size = max(full.size_vector()) <= \
            (1 + 3 * SAMPLING.eta) * t_cap + 1e-9
        transfer_ok += ok_cost and ok_size
    _report("criterion 7 (assignment pipeline)",
            runs >= 40 and transfer_ok >= 0.9 * runs,
            f"splits <= k-1 and size bound always ({runs} runs); transfer "
            f"cost/size within (1+3eps)/(1+3eta) in {transfer_ok}/{runs}",
            time.perf_counter() - t0, 120.0)


def test_criterion_8_size_bound():
    """Theory bound always holds; practical size obeys the Markov check."""
    t0 = time.perf_counter()
    rng = random.Random(808)
    theory = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2, mode=THEORY)
    bound = coreset_size_bound(theory)
    theory_ok = 0
    for seed in range(10):
        pts = dedup_points(rand_points(rng, 35, 8))
        grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
        core = build_auto(pts, grid, theory, seed=seed)
        theory_ok += len(core) <= bound
    markov_ok = 0
    seeds = 40
    for seed in range(seeds):
        pts = dedup_points(clustered_points(rng, 32, 8, clusters=2,
                                            spread=1.2))
        grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
        core = build_auto(pts, grid, SAMPLING, seed=seed, exact_counts=True)
        o = core.meta.o
        structure = core.meta.structure
        expected = 0.0
        for part, tau in core.meta.part_tau.items():
            expected += SAMPLING.phi(part[0], o) * tau
        markov_ok += len(core) <= 10 * expected + 1e-9
    _report("criterion 8 (size bound)",
            theory_ok == 10 and markov_ok >= 0.95 * seeds,
            f"theory bound {theory_ok}/10; practical |Q'| <= 10E in "
            f"{markov_ok}/{seeds}",
            time.perf_counter() - t0, 120.0)


def test_criterion_9_halfspace_machinery():
    """Complement/partition invariants exhaustively; prefix semantics."""
    t0 = time.perf_counter()
    rng = random.Random(909)
    Delta = 16
    domain = [Point(c) for c in itertools.product(range(1, Delta + 1),
                                                  repeat=2)]
    pair_checks = 0
    for trial in range(100):
        k = rng.choice([2, 3])
        Z = []
        while len(Z) < k:
            z = Point((rng.randint(1, Delta), rng.randint(1, Delta)))
            if z not in Z:
                Z.append(z)
        r = rng.choice([1, 2])
        table = {}
        for i in range(k):
            for j in range(i + 1, k):
                ordered = sorted(domain, key=lambda x: (
                    pair_key(x, Z[i], Z[j], r), x.sort_key()))
                cut = rng.randint(0, len(ordered))
                if cut == 0:
                    hs = extract_halfspaces([], {}, (Z[i], Z[j]), r)[(0, 1)]
                else:
                    mapping = {x: 0 for x in ordered[:cut]}
                    mapping.update({x: 1 for x in ordered[cut:]})
                    hs = extract_halfspaces(ordered, mapping,
                                            (Z[i], Z[j]), r)[(0, 1)]
                members = {x for x in domain if contains(hs, x)}
                assert members == set(ordered[:cut])  # Def-style prefix
                table[(i, j)] = hs
        for x in domain:
            claims = [i for i in range(k)
                      if all(halfspace_member(table, i, j, x)
                             for j in range(k) if j != i)]
            assert len(claims) <= 1
            region_of(x, table, k)  # total: always lands in exactly one region
        for (i, j) in table:
            for x in domain[::7]:
                assert halfspace_member(table, i, j, x) != \
                    halfspace_member(table, j, i, x)
            pair_checks += 1
    _report("criterion 9 (half-space machinery)", True,
            f"complement+partition exhaustive on [16]^2 for {pair_checks} "
            "pairs across 100 center sets; cutoffs reproduce key-sort prefixes",
            time.perf_counter() - t0, 120.0)
