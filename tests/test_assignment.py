import itertools
import math
import random

import numpy as np
import pytest

from capacore import oracle
from capacore.assignment import (FLOW_SCALE, Assignment, FractionalAssignment,
                                 HalfSpace, MinCostFlow, TransportSolver,
                                 _min_cost_same_sizes, assignment_from_coreset,
                                 canonicalize, extract_halfspaces,
                                 fractional_assign, integralize, regions,
                                 scaled_costs, switch_ties, transfer_full,
                                 transferred_assignment)
from capacore.common import UsageError, derive_seed, is_infeasible
from capacore.coreset import WeightedCoreset, build_auto, dedup_points
from capacore.geometry import (GridHierarchy, Point, alph_less, coord_array,
                               dist_pow, dist_table, nearest_centers,
                               scaled_table)
from capacore.params import PRACTICAL, derive

from conftest import clustered_points, part_of, rand_points
from reference import (contains, halfspace_member, has_negative_residual_cycle,
                       pair_key, region_of)


def _unit_weights(points):
    return {p: 1.0 for p in points}


def _nearest(p, Z):
    """The scalar nearest-center rule: the first index of least squared
    distance."""
    return min(range(len(Z)), key=lambda i: dist_pow(p, Z[i], 2))


def test_uncapacitated_is_nearest_center():
    pts = [Point((1, 1), 0), Point((5, 5), 1), Point((7, 2), 2)]
    Z = [Point((1, 1)), Point((6, 5))]
    frac = fractional_assign(pts, _unit_weights(pts), Z, float("inf"), 2)
    assert all(len(alloc) == 1 for alloc in frac.shares.values())
    expected = sum(min(dist_pow(p, z, 2) for z in Z) for p in pts)
    assert frac.cost() == pytest.approx(expected)


def test_capacity_two_example_cost_86():
    pts = [Point((1, 1), 0), Point((1, 2), 1), Point((2, 1), 2)]
    Z = [Point((1, 1)), Point((8, 8))]
    frac = fractional_assign(pts, _unit_weights(pts), Z, 2, 2)
    assert frac.cost() == pytest.approx(86.0)
    brute = oracle.brute_partitions(pts, Z, 2, 2)
    assert brute == pytest.approx(86.0)


def test_pigeonhole_infeasible():
    pts = [Point((i, 1), i) for i in range(1, 6)]
    Z = [Point((1, 1)), Point((8, 8))]
    assert is_infeasible(fractional_assign(pts, _unit_weights(pts), Z, 2, 2))


def test_flow_optimality_certificate(rng):
    pts = rand_points(rng, 12, 8)
    Z = [Point((2, 2)), Point((7, 7))]
    frac = fractional_assign(pts, _unit_weights(pts), Z, 7, 2)
    assert frac.solver is not None
    assert not has_negative_residual_cycle(frac.solver)


def test_flow_certificate_detects_a_worse_plan():
    # two points swapped against their nearer centers leave a negative cycle
    solver = TransportSolver([1, 1])
    assert solver.insert([0, 10], 1) and solver.insert([10, 0], 1)
    assert solver.shares == [{0: 1}, {1: 1}]
    assert not has_negative_residual_cycle(solver)
    solver.shares = [{1: 1}, {0: 1}]
    assert has_negative_residual_cycle(solver)


def _plan_cost(solver):
    return sum(units * c[j] for c, share in zip(solver.costs, solver.shares)
               for j, units in share.items())


def _oracle_flow(costs, supplies, caps):
    """(flow, cost) of the same problem on the oracle's MinCostFlow graph."""
    n, k = len(costs), len(caps)
    net = MinCostFlow(n + k + 2)
    src, sink = n + k, n + k + 1
    for i, row in enumerate(costs):
        net.add_edge(src, i, supplies[i], 0)
        for j, c in enumerate(row):
            net.add_edge(i, n + j, supplies[i], c)
    for j, cap in enumerate(caps):
        net.add_edge(n + j, sink, cap, 0)
    return net.solve(src, sink, sum(supplies))


def _tie_heavy_instance(rng, k):
    Delta = rng.choice([4, 8, 16])
    pts = rand_points(rng, rng.randint(1, 24), Delta)
    # repeated centers and small grids make many equal costs
    Z = [Point((rng.randint(1, Delta), rng.randint(1, Delta)))
         for _ in range(k)]
    if rng.random() < 0.3:
        Z[-1] = Z[0]
    return pts, Z


def test_transport_cost_equals_oracle_flow_exactly():
    rng = random.Random(303)
    outcomes = {True: 0, False: 0}
    unit_outcomes = {True: 0, False: 0}
    for trial in range(300):
        k = rng.randint(2, 5)
        pts, Z = _tie_heavy_instance(rng, k)
        weights = {p: rng.choice([1.0, 1.5, 2.0, 3.25]) for p in pts}
        # factor 1.0 rounds t below total / k at times: INFEASIBLE
        factor = 1.0 if trial % 8 == 0 else rng.uniform(1.0, 1.6)
        t_cap = sum(weights.values()) / k * factor
        frac = fractional_assign(pts, weights, Z, t_cap, 2)
        costs = [[dist_pow(p, z, 2) * FLOW_SCALE for z in Z] for p in pts]
        supplies = [round(weights[p] * FLOW_SCALE) for p in pts]
        flow, cost = _oracle_flow(costs, supplies, [round(t_cap * FLOW_SCALE)] * k)
        feasible = flow == sum(supplies)
        outcomes[feasible] += 1
        assert is_infeasible(frac) != feasible
        if feasible:
            assert _plan_cost(frac.solver) == cost
            assert [sum(frac.shares[p].values()) for p in pts] == supplies
            assert not has_negative_residual_cycle(frac.solver)
            stats = {}
            integralize(frac, stats)
            assert stats["splits"] <= k - 1
        # unit supplies against per-center counts, as in canonicalization;
        # the counts may fall short of the points
        caps = [rng.randint(0, len(pts)) for _ in range(k)]
        solver = TransportSolver(caps)
        routed = all(solver.insert([c // FLOW_SCALE for c in row], 1)
                     for row in costs)
        flow, cost = _oracle_flow([[c // FLOW_SCALE for c in row] for row in costs],
                                  [1] * len(pts), caps)
        assert routed == (flow == len(pts))
        unit_outcomes[routed] += 1
        if routed:
            assert _plan_cost(solver) == cost
            assert all(load <= cap for load, cap in zip(solver.load, caps))
    assert min(outcomes.values()) >= 5
    assert min(unit_outcomes.values()) >= 5


def test_fractional_cost_matches_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(77)
    for trial in range(40):
        k = rng.randint(2, 3)
        pts, Z = _tie_heavy_instance(rng, k)
        pts = pts[:8]
        n = len(pts)
        weights = {p: rng.choice([1.0, 1.5, 2.0, 3.25]) for p in pts}
        # a quarter-unit capacity is exact in the solver's binary scale
        t_cap = math.ceil(sum(weights.values()) / k * rng.uniform(1.0, 1.6) * 4) / 4
        frac = fractional_assign(pts, weights, Z, t_cap, 2)
        c = [dist_pow(p, z, 2) for p in pts for z in Z]
        a_eq = [[1.0 if col // k == i else 0.0 for col in range(n * k)]
                for i in range(n)]
        a_ub = [[1.0 if col % k == j else 0.0 for col in range(n * k)]
                for j in range(k)]
        res = optimize.linprog(c, A_ub=a_ub, b_ub=[t_cap] * k, A_eq=a_eq,
                               b_eq=[weights[p] for p in pts], method="highs")
        assert res.status == 0
        assert frac.cost() == pytest.approx(res.fun, rel=1e-9, abs=1e-9)


def test_integralize_leaves_integral_unchanged(rng):
    pts = rand_points(rng, 10, 8)
    Z = [Point((2, 2)), Point((7, 7))]
    frac = fractional_assign(pts, _unit_weights(pts), Z, float("inf"), 2)
    assert all(len(alloc) == 1 for alloc in frac.shares.values())
    integral = integralize(frac)
    for p, alloc in frac.shares.items():
        assert integral.mapping[p] == next(iter(alloc))


def test_single_split_point_rounds_to_nearer_center():
    pts = [Point((1, 1), 0), Point((2, 1), 1)]
    Z = [Point((1, 1)), Point((8, 1))]
    frac = fractional_assign(pts, _unit_weights(pts), Z, 1.2, 2)
    split = [p for p, alloc in frac.shares.items() if len(alloc) > 1]
    assert split == [Point((2, 1), 1)]
    integral = integralize(frac)
    assert integral.mapping[Point((2, 1), 1)] == 0  # nearer center
    assert integral.mapping[Point((1, 1), 0)] == 0


def test_hand_built_cycle_is_cancelled():
    # two points fractionally split across the same two equidistant centers:
    # the bipartite graph is a 4-cycle and cancellation must clear it
    a, b = Point((1, 1), 0), Point((8, 8), 1)
    Z = (Point((1, 8)), Point((8, 1)))
    scale = 1 << 20
    shares = {a: {0: scale // 2, 1: scale // 2},
              b: {0: scale // 2, 1: scale // 2}}
    frac = FractionalAssignment(Z, 2, {a: 1.0, b: 1.0}, shares, scale)
    before = frac.cost()
    integral = integralize(frac)
    assert set(integral.mapping) == {a, b}
    assert integral.cost() == pytest.approx(before)


def test_integralize_audit_random_instances(rng):
    for trial in range(100):
        k = rng.choice([2, 3])
        n = rng.randint(3, 12)
        pts = dedup_points(rand_points(rng, n, 8))
        Z = [Point((rng.randint(1, 8), rng.randint(1, 8))) for _ in range(k)]
        weights = {p: rng.choice([1.0, 1.5, 2.0]) for p in pts}
        total = sum(weights.values())
        t_cap = total / k * rng.uniform(1.0, 1.6)
        frac = fractional_assign(pts, weights, Z, t_cap, 2)
        if is_infeasible(frac):
            continue
        integral = integralize(frac)
        # split bound and cost non-increase from cycle elimination + rounding
        max_w = max(weights.values())
        sizes = integral.size_vector()
        assert max(sizes) <= t_cap + (k - 1) * max_w + 1e-6
        assert integral.cost() <= frac.cost() * (1 + 1e-9) + 1e-9


# --- half-spaces -------------------------------------------------------------

def _random_halfspace(rng, Delta, z1, z2, r):
    domain = [Point(c) for c in itertools.product(range(1, Delta + 1), repeat=2)]
    ordered = sorted(domain, key=lambda x: (pair_key(x, z1, z2, r), x.sort_key()))
    t = rng.randint(0, len(ordered))
    if t == 0:
        return HalfSpace(z1, z2, r, "none"), ordered, 0
    if t == len(ordered):
        return HalfSpace(z1, z2, r, "all"), ordered, t
    cut = ordered[t - 1]
    return HalfSpace(z1, z2, r, "cut", pair_key(cut, z1, z2, r), cut), ordered, t


@pytest.mark.parametrize("r", [1, 2])
def test_halfspace_matches_prefix_semantics(rng, r):
    for Delta in (8, 16):
        for _ in range(20):
            z1, z2 = rand_points(rng, 2, Delta, tagged=False)
            if z1 == z2:
                continue
            hs, ordered, t = _random_halfspace(rng, Delta, z1, z2, r)
            members = {x for x in ordered if contains(hs, x)}
            assert members == set(ordered[:t])


def test_complementarity_exhaustive(rng):
    Delta = 16
    domain = [Point(c) for c in itertools.product(range(1, 17), repeat=2)]
    for trial in range(100):
        z1, z2 = rand_points(rng, 2, Delta, tagged=False)
        if z1 == z2:
            continue
        hs, _, _ = _random_halfspace(rng, Delta, z1, z2, 2)
        table = {(0, 1): hs}
        for x in domain:
            assert halfspace_member(table, 0, 1, x) != \
                halfspace_member(table, 1, 0, x)


def test_region_partition_exhaustive(rng):
    Delta = 16
    domain = [Point(c) for c in itertools.product(range(1, 17), repeat=2)]
    for trial in range(100):
        k = rng.choice([2, 3])
        Z = []
        while len(Z) < k:
            z = Point((rng.randint(1, Delta), rng.randint(1, Delta)))
            if z not in Z:
                Z.append(z)
        table = {}
        for i in range(k):
            for j in range(i + 1, k):
                table[(i, j)], _, _ = _random_halfspace(rng, Delta, Z[i], Z[j], 2)
        counts = [0] * (k + 1)
        for x in domain:
            hits = [i for i in range(k)
                    if all(halfspace_member(table, i, j, x)
                           for j in range(k) if j != i)]
            assert len(hits) <= 1
            counts[region_of(x, table, k)] += 1
        assert sum(counts) == len(domain)


def test_axis_example_r1_prefix():
    # centers on the x-axis at r=1: cutoffs reproduce the sorted-key prefix
    z1, z2 = Point((1, 1)), Point((4, 1))
    pts = [Point((x, 1), x) for x in range(1, 9)]
    mapping = {p: (0 if p.coords[0] <= 2 else 1) for p in pts}
    hs = extract_halfspaces(pts, mapping, (z1, z2), 1)[(0, 1)]
    ordered = sorted(pts, key=lambda x: (pair_key(x, z1, z2, 1), x.sort_key()))
    members = [p for p in ordered if contains(hs, p)]
    assert members == ordered[:2]
    assert {p for p in pts if contains(hs, p)} == {p for p in pts
                                                  if mapping[p] == 0}


# --- canonicalization --------------------------------------------------------

def test_canonicalize_separated_clusters_no_switches(rng):
    Z = (Point((2, 2)), Point((7, 7)))
    pts = [Point((x, y), 10 * x + y) for x in (1, 2, 3) for y in (1, 2)]
    pts += [Point((x, y), 10 * x + y) for x in (6, 7) for y in (6, 7, 8)]
    mapping = {p: _nearest(p, Z) for p in pts}
    audit = []
    switch_ties(pts, dict(mapping), Z, 2, audit)
    assert audit == []


def test_canonicalize_preserves_sizes_and_never_raises_cost(rng):
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                    mode=PRACTICAL, scale=1e-6)
    for seed in range(20):
        pts = dedup_points(rand_points(rng, 25, 8))
        grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
        core = build_auto(pts, grid, params, seed=seed)
        Z = [Point((2, 2)), Point((7, 6))]
        t_cap = max(core.total_weight() / 2 * 1.3, 1.0)
        integral, canonical, halfspaces = assignment_from_coreset(core, Z, t_cap)
        if is_infeasible(integral):
            continue
        by_level = {}
        for p, w, lvl, j in core.entries:
            by_level.setdefault(lvl, []).append(p)
        for lvl, group in by_level.items():
            before = [0, 0]
            after = [0, 0]
            for p in group:
                before[integral.mapping[p]] += 1
                after[canonical.mapping[p]] += 1
            assert before == after
        assert canonical.cost() <= integral.cost() * (1 + 1e-9) + 1e-9
        # membership rule: canonical center of every coreset point is the
        # unique center whose half-spaces all contain it
        for p, w, lvl, j in core.entries:
            expected = canonical.mapping[p]
            region = region_of(p, halfspaces[lvl], 2)
            assert region == expected + 1


def test_switching_potential_strictly_decreases():
    # collinear points with tied keys in the wrong alphabetic order
    Z = (Point((1, 1)), Point((5, 1)))
    pts = [Point((3, 1), 0), Point((3, 1), 1), Point((3, 1), 2), Point((3, 1), 3)]
    mapping = {pts[0]: 1, pts[1]: 0, pts[2]: 1, pts[3]: 0}
    audit = []
    result = switch_ties(pts, dict(mapping), Z, 2, audit)
    assert audit, "expected at least one switch"
    for before, after in audit:
        assert after < before
    # alphabetically smaller points end at the lower-indexed center
    assert result[pts[0]] == 0 and result[pts[1]] == 0
    assert result[pts[2]] == 1 and result[pts[3]] == 1


def _switch_ties_reference(points, mapping, centers, r, audit=None):
    """The restart loop that recomputes pair keys for every (p, q) pair."""
    k = len(centers)
    rank = {p: n for n, p in enumerate(sorted(points, key=lambda q: q.sort_key()))}

    def potential():
        return sum((k - mapping[p]) * rank[p] for p in points)

    changed = True
    while changed:
        changed = False
        for i in range(k):
            for j in range(i + 1, k):
                mine = [p for p in points if mapping[p] == i]
                theirs = [p for p in points if mapping[p] == j]
                for p in mine:
                    kp = pair_key(p, centers[i], centers[j], r)
                    for q in theirs:
                        if kp == pair_key(q, centers[i], centers[j], r) \
                                and alph_less(q, p):
                            before = potential()
                            mapping[p], mapping[q] = j, i
                            if audit is not None:
                                audit.append((before, potential()))
                            changed = True
                            break
                    if changed:
                        break
                if changed:
                    break
            if changed:
                break
    return mapping


def test_switch_ties_matches_restart_reference():
    rng = random.Random(909)
    switches = 0
    for trial in range(300):
        k = rng.choice([2, 3, 4])
        Delta = rng.choice([4, 6])
        # centers on a line and few grid points give large tie classes
        row = rng.randint(1, Delta)
        Z = [Point((rng.randint(1, Delta), row)) for _ in range(k)]
        pts = rand_points(rng, rng.randint(2, 30), Delta)
        rng.shuffle(pts)
        if trial % 2:
            mapping = {p: rng.randrange(k) for p in pts}
        else:
            sizes = [0] * k
            for p in pts:
                sizes[rng.randrange(k)] += 1
            mapping = _min_cost_same_sizes(pts, sizes, dist_table(pts, Z, 2))
        want_audit, got_audit = [], []
        want = _switch_ties_reference(pts, dict(mapping), Z, 2, want_audit)
        got = switch_ties(pts, dict(mapping), Z, 2, got_audit)
        assert got == want
        assert got_audit == want_audit
        assert switch_ties(pts, dict(mapping), Z, 2) == want
        switches += len(want_audit)
    assert switches >= 300


# --- transferred assignments -------------------------------------------------

def _reference_def39(points, centers, halfspaces, b_vec, xi, T):
    """Independent reading of the transfer rule, used as the fidelity oracle."""
    k = len(centers)
    best = None
    for i in range(1, k + 1):
        if best is None or b_vec[i] > b_vec[best]:
            best = i
    out = {}
    for p in points:
        region = region_of(p, halfspaces, k)
        if region != 0 and b_vec[region] >= 2 * xi * T:
            out[p] = region - 1
        else:
            out[p] = best - 1
    return out


def _transfer_one_part(pts, halfspaces, b, xi, T):
    """transferred_assignment over the points of one part, their regions
    from region_of."""
    region = np.array([region_of(p, halfspaces, len(b) - 1) for p in pts])
    return transferred_assignment(region, np.zeros(len(pts), dtype=np.int64),
                                  np.array([b]), np.array([2 * xi * T]))


def test_transfer_all_mass_one_region(rng):
    Z = (Point((2, 2)), Point((7, 7)))
    pts = [Point((x, y), 10 * x + y) for x in (1, 2) for y in (1, 2)]
    hs = extract_halfspaces(pts, {p: 0 for p in pts}, Z, 2)
    b = [0.0, 10.0, 0.0]
    mapping = _transfer_one_part(pts, hs, b, xi=0.01, T=10)
    assert all(v == 0 for v in mapping.tolist())


def test_transfer_fallback_when_all_small(rng):
    Z = (Point((2, 2)), Point((7, 7)))
    pts = [Point((x, y), 10 * x + y) for x in (1, 7) for y in (1, 7)]
    hs = extract_halfspaces(pts, {p: _nearest(p, Z) for p in pts},
                            Z, 2)
    b = [0.0, 0.004, 0.005]
    mapping = _transfer_one_part(pts, hs, b, xi=0.5, T=10)
    assert all(v == 1 for v in mapping.tolist())  # i* = argmax b = center 2


def test_transfer_full_matches_reference(rng):
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                    mode=PRACTICAL, scale=1e-6)
    for seed in range(10):
        pts = dedup_points(clustered_points(rng, 30, 8, clusters=2, spread=1.0))
        grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
        core = build_auto(pts, grid, params, seed=seed)
        Z = [Point((2, 2)), Point((6, 7))]
        t_cap = len(pts) / 2 * 1.4
        integral, canonical, halfspaces = assignment_from_coreset(core, Z, t_cap)
        if is_infeasible(integral):
            continue
        full = transfer_full(pts, core, halfspaces, Z)
        weights_by_part = {}
        for p, w, lvl, j in core.entries:
            weights_by_part.setdefault((lvl, j), []).append((p, w))
        for part in core.meta.part_tau:
            lvl = part[0]
            hs = halfspaces.get(lvl, {})
            b_vec = [0.0] * 3
            for p, w in weights_by_part.get(part, ()):
                b_vec[region_of(p, hs, 2)] += w
            T = 0.5 * params.gamma * params.T(lvl, core.meta.o)
            part_points = [p for p in pts
                           if part_of(core.meta.structure, p) == part]
            ref = _reference_def39(part_points, Z, hs, b_vec, params.xi, T)
            for p in part_points:
                assert full.mapping[p] == ref[p]
        # points outside kept parts go to the nearest center
        for p in pts:
            part = part_of(core.meta.structure, p)
            if part is None or part not in core.meta.part_tau:
                assert full.mapping[p] == _nearest(p, Z)



# --- the columnar path against the scalar rules --------------------------------

# the largest gap whose square stays below 2^63: at d = 1 the int64 gate's
# bound on the squared distances
GATE_GAP = math.isqrt((1 << 63) - 1)


@pytest.mark.parametrize("r", [1, 2, 3, 2.5])
def test_dist_table_equals_dist_pow(r):
    # the pipeline's table and CostCurve's, on both sides of the int64
    # gate: (lowest coordinate, gap on every axis, d, squares' dtype)
    rng = random.Random(f"table:{r}")
    cases = [(1, GATE_GAP, 1, np.int64), (1, GATE_GAP + 1, 1, object),
             (1, (1 << 31) - 1, 2, np.int64), (1, 1 << 31, 2, object),
             (1, 1 << 40, 2, object), (1, 255, 3, np.int64),
             ((1 << 40) - 300, 255, 2, np.int64),
             ((1 << 62) - 300, 255, 2, np.int64),
             ((1 << 62) - (1 << 40), 1 << 40, 2, object),
             (1 << 63, 255, 2, object)]
    for low, gap, d, dtype in cases:
        # one point and one center gap apart on every axis: the gate's
        # bound is d * gap^2
        pts = [Point((low,) * d, 0), Point((low + gap,) * d, 1)]
        pts += [Point(tuple(rng.randint(low, low + gap) for _ in range(d)), m)
                for m in range(2, 30)]
        pts += [Point(pts[2].coords, 30)]  # a copy shares a CostCurve row
        Z = [Point((low + gap,) * d), Point((low,) * d),
             Point(tuple(rng.randint(low, low + gap) for _ in range(d)))]
        assert dist_table(pts, Z, 2).dtype == dtype
        want = [[dist_pow(p, z, r) for z in Z] for p in pts]
        table = dist_table(pts, Z, r)
        assert table.dtype == (dtype if r == 2 else np.float64)
        assert table.tolist() == want
        curve = oracle.CostCurve(pts, Z, r)
        assert curve._D.dtype == table.dtype
        rows = dict(zip((p.coords for p in pts), want))
        assert curve._D.tolist() == list(rows.values())
        for scale in (FLOW_SCALE, oracle.ORACLE_SCALE):
            assert scaled_table(table, scale).tolist() == [
                [round(v * scale) for v in row] for row in want]
        assert scaled_costs(table, FLOW_SCALE) == [
            [round(v * FLOW_SCALE) for v in row] for row in want]


def test_dist_table_rejects_mixed_dimensions():
    with pytest.raises(UsageError):
        dist_table([Point((1, 1)), Point((1, 1, 1))], [Point((2, 2))], 2)
    with pytest.raises(UsageError):
        dist_table([Point((1, 1))], [Point((2, 2, 2))], 2)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_nearest_center_compares_exact_squares(r):
    # squares 2^60 + 1 and 2^60 are one float: the exact rule picks the
    # second center, at every r
    a = 1 << 30
    Z = [Point((1 + a, 2)), Point((1 + a, 1))]
    rng = random.Random(f"nearest:{r}")
    pts = [Point((1, 1), 0)] + [
        Point((rng.randint(1, 2 * a), rng.randint(1, 2 * a)), m)
        for m in range(1, 40)]
    want = [_nearest(p, Z) for p in pts]
    assert want[0] == 1
    assert nearest_centers(pts, Z).tolist() == want
    frac = fractional_assign(pts, _unit_weights(pts), Z, float("inf"), r)
    assert [next(iter(frac.shares[p])) for p in pts] == want


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_regions_match_region_of(r, k):
    rng = random.Random(f"regions:{r}:{k}")
    tag_ties = 0
    for trial in range(12):
        Delta = rng.choice([4, 6])
        # centers on a line and few grid points give equal pair keys; copies
        # of a point under other tags tie on coordinates too
        row = rng.randint(1, Delta)
        Z = [Point((rng.randint(1, Delta), row)) for _ in range(k)]
        pts = rand_points(rng, rng.randint(1, 20), Delta)
        pts += [Point(p.coords, 100 + m) for m, p in enumerate(pts[:4])]
        mapping = {p: rng.randrange(k) for p in pts}
        # the second set is a level with no entries
        for hs in (extract_halfspaces(pts, mapping, Z, r),
                   extract_halfspaces([], {}, Z, r)):
            probe = [Point((x, y), tag) for x in range(1, Delta + 1)
                     for y in range(1, Delta + 1) for tag in (-1, 50, 150)]
            probe += pts
            got = regions(dist_table(probe, Z, r), coord_array(probe, 2),
                          np.array([p.tag for p in probe]), hs)
            assert got.tolist() == [region_of(x, hs, k) for x in probe]
            tag_ties += sum(
                1 for h in hs.values() if h.kind == "cut" for x in probe
                if x.coords == h.cut_point.coords and x.tag != h.cut_point.tag)
    assert tag_ties > 0 or k == 1  # k = 1 has no pair


def _transfer_full_reference(full_points, core, halfspaces, Z):
    """The per-point transfer: part_of, region_of and _reference_def39 one
    point at a time, the mapping in its insertion order."""
    meta, params = core.meta, core.meta.params
    k = len(Z)
    by_part = {}
    for p, w, lvl, j in core.entries:
        by_part.setdefault((lvl, j), []).append((p, w))
    rules = {}
    for part in meta.part_tau:
        hs = halfspaces.get(part[0], {})
        b_vec = [0.0] * (k + 1)
        for p, w in by_part.get(part, ()):
            b_vec[region_of(p, hs, k)] += w
        rules[part] = (hs, b_vec,
                       0.5 * params.gamma * params.T(part[0], meta.o))
    groups, uncovered = {}, []
    for p in full_points:
        part = part_of(meta.structure, p)
        if part in rules:
            groups.setdefault(part, []).append(p)
        else:
            uncovered.append(p)
    mapping = {}
    for part, pts in groups.items():
        hs, b_vec, T = rules[part]
        mapping.update(_reference_def39(pts, Z, hs, b_vec, params.xi, T))
    for p in uncovered:
        mapping[p] = _nearest(p, Z)
    return mapping


def _transfer_case(Delta, d, r, k, seed, Z=None):
    """A built coreset of clustered points (with copies under other tags),
    its canonical half-spaces, and a full input of those points plus
    uniform ones."""
    params = derive(k=k, r=r, eps=0.4, eta=0.4, Delta=Delta, d=d,
                    mode=PRACTICAL, scale=1e-6)
    rng = random.Random(f"transfer:{Delta}:{d}:{r}:{k}:{seed}")
    pts = dedup_points(clustered_points(rng, 40, Delta, d=d, clusters=k,
                                        spread=max(1.0, Delta / 16)))
    pts += [Point(p.coords, 1000 + m) for m, p in enumerate(pts[:6])]
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), Delta, d)
    core = build_auto(pts, grid, params, seed=seed)
    if Z is None:
        Z = [Point(tuple(rng.randint(1, Delta) for _ in range(d)))
             for _ in range(k)]
    integral, _, halfspaces = assignment_from_coreset(
        core, Z, math.ceil(1.1 * len(pts) / k))
    assert not is_infeasible(integral)
    full = pts + [Point(tuple(rng.randint(1, Delta) for _ in range(d)),
                        2000 + m) for m in range(10)]
    return core, halfspaces, Z, full


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_transfer_full_matches_the_per_point_transfer(r, k):
    for seed in (1, 2):
        core, halfspaces, Z, full = _transfer_case(8, 2, r, k, seed)
        got = transfer_full(full, core, halfspaces, Z)
        assert list(got.mapping.items()) == list(
            _transfer_full_reference(full, core, halfspaces, Z).items())
        assert list(got.weights) == full
        # an empty full input
        assert transfer_full([], core, halfspaces, Z).mapping == {}


def test_transfer_full_just_past_the_int64_gate():
    # d = 1 with a point at 1 and a center GATE_GAP + 1 away: squared
    # distances may pass 2^63, one unit closer they may not
    for gap, dtype in ((GATE_GAP, np.int64), (GATE_GAP + 1, object)):
        Z = [Point((1 + gap,)), Point((1 << 31,))]
        core, halfspaces, Z, full = _transfer_case(1 << 32, 1, 2, 2, 1, Z)
        full = [Point((1,), 3000)] + full
        assert dist_table(full + core.points(), Z, 2).dtype == dtype
        got = transfer_full(full, core, halfspaces, Z)
        assert list(got.mapping.items()) == list(
            _transfer_full_reference(full, core, halfspaces, Z).items())


def test_transfer_full_ignores_kept_parts_beyond_the_heavy_cells():
    # a coreset file can name such parts: no input point lies in them
    core, halfspaces, Z, full = _transfer_case(8, 2, 2, 2, 1)
    want = list(_transfer_full_reference(full, core, halfspaces, Z).items())
    L = core.meta.structure.L
    core.meta.part_tau.update({(0, 99): 1.0, (1, 10 ** 6): 1.0,
                               (L + 3, 0): 1.0, (-1, 0): 1.0})
    assert list(transfer_full(full, core, halfspaces, Z).mapping.items()) \
        == want


@pytest.mark.parametrize("k", [1, 3])
def test_transfer_full_over_a_level_with_no_entries(k):
    core, halfspaces, Z, full = _transfer_case(8, 2, 2, k, 3)
    lvl = next(lvl for lvl, _ in core.meta.part_tau
               if any(e[2] == lvl for e in core.entries) and any(
                   part_of(core.meta.structure, p) is not None and
                   part_of(core.meta.structure, p)[0] == lvl for p in full))
    emptied = WeightedCoreset([e for e in core.entries if e[2] != lvl],
                              core.meta)
    missing = {i: hs for i, hs in halfspaces.items() if i != lvl}
    none = {**missing, lvl: extract_halfspaces([], {}, Z, 2)}
    want = list(_transfer_full_reference(full, emptied, none, Z).items())
    assert list(transfer_full(full, emptied, none, Z).mapping.items()) == want
    # a level missing from the half-spaces reads as one without entries
    assert list(transfer_full(full, emptied, missing, Z).mapping.items()) \
        == want

def test_end_to_end_cost_and_size(rng):
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                    mode=PRACTICAL, scale=1e-6)
    good = 0
    runs = 0
    for seed in range(15):
        pts = dedup_points(clustered_points(rng, 24, 8, clusters=2, spread=1.0))
        grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
        core = build_auto(pts, grid, params, seed=seed)
        Z = [Point((3, 3)), Point((6, 6))]
        t_cap = core.total_weight() / 2 * 1.25
        integral, canonical, halfspaces = assignment_from_coreset(core, Z, t_cap)
        if is_infeasible(integral):
            continue
        runs += 1
        relaxed = oracle.exact_cost(core.points(), Z, t_cap, 2, core.weights())
        full = transfer_full(pts, core, halfspaces, Z)
        ok_cost = full.cost() <= (1 + 3 * params.eps) * relaxed + 1e-9
        ok_size = max(full.size_vector()) <= (1 + 3 * params.eta) * t_cap + 1e-9
        good += ok_cost and ok_size
    assert runs >= 10
    assert good / runs >= 0.9
