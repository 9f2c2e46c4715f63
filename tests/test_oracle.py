import itertools
import math
import random

import numpy as np
import pytest

from capacore import oracle
from capacore.assignment import MinCostFlow
from capacore.common import OracleCapError, UsageError, derive_seed
from capacore.coreset import WeightedCoreset, build_auto, dedup_points
from capacore.geometry import GridHierarchy, Point, dist_pow
from capacore.params import PRACTICAL, derive

from conftest import clustered_points, rand_points
from reference import brute_opt, lattice_points

INF = float("inf")


def test_uncapacitated_fast_path():
    pts = [Point((1, 1), 0), Point((4, 5), 1), Point((8, 8), 2)]
    Z = [Point((1, 1)), Point((8, 8))]
    expected = 0 + min(dist_pow(pts[1], z, 2) for z in Z) + 0
    assert oracle.exact_cost(pts, Z, INF, 2) == pytest.approx(expected)


def test_four_point_example_cost_two():
    pts = [Point((1, 1), 0), Point((1, 2), 1), Point((5, 5), 2), Point((5, 6), 3)]
    Z = [Point((1, 1)), Point((5, 5))]
    assert oracle.exact_cost(pts, Z, 2, 2) == pytest.approx(2.0)
    assert oracle.brute_partitions(pts, Z, 2, 2) == pytest.approx(2.0)


def test_pigeonhole_infinite():
    pts = [Point((i, 1), i) for i in range(1, 6)]
    Z = [Point((1, 1)), Point((8, 8))]
    assert oracle.exact_cost(pts, Z, 2, 2) == INF
    assert oracle.brute_partitions(pts, Z, 2, 2) == INF


def test_brute_partitions_cap():
    pts = [Point((1, 1), i) for i in range(11)]
    with pytest.raises(OracleCapError):
        oracle.brute_partitions(pts, [Point((1, 1))], 20, 2)


@pytest.mark.parametrize("r", [1, 2])
def test_exact_cost_matches_brute(rng, r):
    for trial in range(60):
        n = rng.randint(2, 8)
        k = rng.choice([2, 3])
        pts = dedup_points(rand_points(rng, n, 8))
        Z = []
        while len(Z) < k:
            z = Point((rng.randint(1, 8), rng.randint(1, 8)))
            if z not in Z:
                Z.append(z)
        for t in range(math.ceil(len(pts) / k), len(pts) + 1):
            got = oracle.exact_cost(pts, Z, t, r)
            want = oracle.brute_partitions(pts, Z, t, r)
            if want == INF:
                assert got == INF
            else:
                assert got == pytest.approx(want, rel=1e-9)


def test_greedy2_agrees_with_flow(rng):
    for trial in range(40):
        pts = dedup_points(rand_points(rng, rng.randint(2, 9), 8))
        Z = [Point((2, 2)), Point((7, 5))]
        t = rng.randint(math.ceil(len(pts) / 2), len(pts) + 1)
        fast = oracle.CostCurve(pts, Z, 2).at(t)
        slow = oracle.CostCurve(pts, Z, 2)._solve(t)
        assert fast == pytest.approx(slow, rel=1e-9) or (fast == slow == INF)


def test_matching_special_case(rng):
    # t=1 and n=k: the optimum is a min-cost perfect matching
    for trial in range(25):
        k = rng.choice([2, 3, 4])
        pts = dedup_points(rand_points(rng, k, 8))
        if len(pts) < k:
            continue
        Z = []
        while len(Z) < k:
            z = Point((rng.randint(1, 8), rng.randint(1, 8)))
            if z not in Z:
                Z.append(z)
        got = oracle.CostCurve(pts, Z, 2)._solve(1)
        best = min(
            sum(dist_pow(p, Z[perm[i]], 2) for i, p in enumerate(pts))
            for perm in itertools.permutations(range(k))
        )
        assert got == pytest.approx(best, rel=1e-9)


def test_monotone_in_t(rng):
    pts = dedup_points(rand_points(rng, 8, 8))
    Z = [Point((2, 2)), Point((7, 7))]
    values = [oracle.exact_cost(pts, Z, t, 2)
              for t in range(math.ceil(len(pts) / 2), len(pts) + 2)]
    finite = [v for v in values if v != INF]
    assert all(a >= b - 1e-12 for a, b in zip(finite, finite[1:]))
    assert values[-1] == pytest.approx(oracle.exact_cost(pts, Z, INF, 2))


def test_weighted_cost_is_fractional_lower_bracket(rng):
    pts = dedup_points(rand_points(rng, 6, 8))
    Z = [Point((2, 2)), Point((7, 7))]
    weights = {p: 1.0 + (i % 3) * 0.5 for i, p in enumerate(pts)}
    t = sum(weights.values()) / 2 * 1.2
    relaxed = oracle.CostCurve(pts, Z, 2, weights)._solve(t)
    rounded = oracle.rounded_cost(pts, Z, t, 2, weights)
    brute = oracle.brute_partitions(pts, Z, t, 2, weights)
    assert relaxed <= brute + 1e-9
    assert relaxed <= rounded + 1e-9


def test_brute_opt_trivia():
    coincident = [Point((3, 3), i) for i in range(4)]
    val, Z = brute_opt(coincident, 1, 2, 8, 2)
    assert val == 0 and Z == (Point((3, 3)),)
    distinct = [Point((1, 1), 0), Point((8, 8), 1)]
    val, _ = brute_opt(distinct, 2, 2, 8, 2)
    assert val == 0


def test_brute_opt_two_separated_clusters(rng):
    pts = ([Point((1 + dx, 1 + dy), 10 + dx * 3 + dy) for dx in (0, 1)
            for dy in (0, 1)]
           + [Point((7 + dx, 7 + dy), 20 + dx * 3 + dy) for dx in (0, 1)
              for dy in (0, 1)])
    val, Z = brute_opt(pts, 2, 2, 8, 2)
    split = min(
        sum(min(dist_pow(p, z, 2) for z in (z1, z2)) for p in pts)
        for z1 in lattice_points(8, 2)
        for z2 in lattice_points(8, 2)
        if z1.coords < z2.coords
    )
    assert val == pytest.approx(split)


def test_brute_opt_matches_enumeration(rng):
    lattice = lattice_points(4, 2)
    for trial in range(30):
        k, r = rng.randint(1, 4), rng.choice([1, 2, 3])
        pts = rand_points(rng, rng.randint(1, 10), 4)
        val, Z = brute_opt(pts, k, r, 4, 2)
        assert len(set(Z)) == k
        assert val == pytest.approx(
            sum(min(dist_pow(p, z, r) for z in Z) for p in pts), abs=1e-9)
        want = min(sum(min(dist_pow(p, z, r) for z in combo) for p in pts)
                   for combo in itertools.combinations(lattice, k))
        assert val == pytest.approx(want, abs=1e-9)


def test_brute_opt_cap():
    pts = [Point((1, 1), 0)]
    with pytest.raises(OracleCapError):
        brute_opt(pts, 4, 2, 32, 2)


def _identity_coreset(rng, seed=3, n=25):
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                    mode=PRACTICAL, scale=1e-6)
    pts = dedup_points(clustered_points(rng, n, 8, clusters=2, spread=1.0))
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
    core = build_auto(pts, grid, params, seed=seed)
    assert len(core) == len(pts)
    assert all(w == 1.0 for _, w, _, _ in core.entries)
    return pts, core


def test_identity_coreset_zero_violations(rng):
    pts, core = _identity_coreset(rng)
    rng2 = random.Random(5)
    lattice = lattice_points(8, 2)
    centers = [tuple(rng2.sample(lattice, 2)) for _ in range(25)]
    t_values = list(range(math.ceil(len(pts) / 2), len(pts) + 1))
    report = oracle.sandwich_audit(pts, core, centers, t_values)
    assert report.violations() == 0
    assert report.violation_fraction() == 0.0


def test_corrupted_weights_reported(rng, tmp_path):
    pts, core = _identity_coreset(rng)
    doubled = WeightedCoreset(
        [(p, 2.0 * w, lvl, j) for p, w, lvl, j in core.entries], core.meta)
    rng2 = random.Random(6)
    lattice = lattice_points(8, 2)
    centers = [tuple(rng2.sample(lattice, 2)) for _ in range(15)]
    # one k = 3 set: the simplex's unit-weight value is an int
    centers.append(tuple(rng2.sample(lattice, 3)))
    t_values = list(range(math.ceil(len(pts) / 2), len(pts) + 1))
    report = oracle.sandwich_audit(pts, doubled, centers, t_values)
    assert report.violations() > 0
    assert isinstance(report.rows[-1].cost_Q, int)
    path = tmp_path / "audit.csv"
    report.write_csv(path)
    header, *rows = path.read_text().splitlines()
    assert header.split(",")[:5] == ["z_id", "t", "form", "cost_Q",
                                     "cost_coreset_relaxed"]
    assert any(row.endswith(",1") for row in rows)
    # k = 2 and k = 3 rows render cost_Q alike, as a float
    written = {}
    for row in rows:
        z_id, _, _, cost_q = row.split(",")[:4]
        written.setdefault(int(z_id), []).append(cost_q)
    for z_id in (0, len(centers) - 1):
        assert written[z_id]
        assert all(v == repr(float(v)) for v in written[z_id])


def test_exact_cost_without_capacity():
    pts = [Point((1, 1), 0), Point((4, 5), 1)]
    assert oracle.exact_cost(pts, [Point((1, 1))], INF, 2) == pytest.approx(25.0)


def test_worst_ratio_reports_infinite_ratios():
    def row(form, ratio):
        return oracle.AuditRow(0, 10.0, form, 1.0, 1.0, ratio, int(ratio > 1))

    report = oracle.AuditReport([row(oracle.SYMMETRIC_FORM, 0.5),
                                 row(oracle.SYMMETRIC_FORM, INF),
                                 row(oracle.TWO_TIER_FORM, 1.25)])
    assert report.worst_ratio(oracle.SYMMETRIC_FORM) == INF
    assert report.worst_ratio() == INF
    assert report.worst_ratio(oracle.TWO_TIER_FORM) == 1.25
    assert oracle.AuditReport([]).worst_ratio() == 0.0


def test_cost_curve_at_infinite_capacity(rng):
    pts = [Point((1, 1), 0), Point((2, 2), 1)]
    Z = [Point((1, 1)), Point((3, 3))]
    for weights in (None, {p: 1.5 for p in pts}):
        want = oracle.exact_cost(pts, Z, INF, 2, weights)
        assert oracle.CostCurve(pts, Z, 2, weights).at(INF) == want
    assert oracle.exact_cost(pts, Z, INF, 2) == 2.0
    points, core = _identity_coreset(rng)
    report = oracle.sandwich_audit(points, core, [tuple(Z)], [INF])
    assert report.rows and report.violations() == 0


def _flow_reference(points, centers, t, r, weights=None):
    """exact_cost on MinCostFlow: one supply node per distinct coordinate.

    Scaled costs as the oracle's problem (dist**r * 2**40, rounded), so the
    two optima agree; the value is summed per node, not per point.
    """
    scale = oracle.ORACLE_SCALE
    unit = weights is None
    cap = math.floor(t) if unit else round(t * scale)
    supply = {}
    for p in points:
        units = 1 if unit else round(weights[p] * scale)
        supply[p.coords] = supply.get(p.coords, 0) + units
    rows = [Point(c) for c in supply]
    n, k = len(rows), len(centers)
    net = MinCostFlow(n + k + 2)
    src, sink = n + k, n + k + 1
    handles = {}
    for i, p in enumerate(rows):
        net.add_edge(src, i, supply[p.coords], 0)
        for j, z in enumerate(centers):
            handles[i, j] = net.add_edge(i, n + j, supply[p.coords],
                                         round(dist_pow(p, z, r) * scale))
    for j in range(k):
        net.add_edge(n + j, sink, cap, 0)
    total = sum(supply.values())
    flow, _ = net.solve(src, sink, total)
    if flow < total:
        return INF
    value = 0 if unit else 0.0
    for (i, j), handle in handles.items():
        units = net.flow_on(handle)
        if units:
            cost = dist_pow(rows[i], centers[j], r)
            value += units * cost if unit else units / scale * cost
    return value


def test_transport_simplex_matches_flow_reference():
    rng = random.Random(2024)
    outcomes = {"inf": 0, "unit": 0, "weighted": 0}
    for trial in range(1200):
        k = rng.randint(1, 5)
        Delta = rng.choice([4, 8, 16])
        # small grids, duplicate points and repeated centers make ties
        pts = rand_points(rng, rng.randint(1, 24), Delta)
        pts += [Point(p.coords, 100 + i)
                for i, p in enumerate(pts[:rng.randint(0, 6)])]
        Z = [Point((rng.randint(1, Delta), rng.randint(1, Delta)))
             for _ in range(k)]
        if k > 1 and rng.random() < 0.3:
            Z[-1] = Z[0]
        r = rng.choice([1, 2, 3])
        weights = None if trial % 2 else \
            {p: rng.choice([1e-13, 0.5, 1.0, 1.5, 2.0, 3.25]) for p in pts}
        total = len(pts) if weights is None else sum(weights.values())
        # factors below 1 leave too little room: INF
        t = total / k * rng.uniform(0.8, 1.6)
        got = oracle.CostCurve(pts, Z, r, weights)._solve(t)
        want = _flow_reference(pts, Z, t, r, weights)
        if want == INF or (weights is None and r == 2):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        kind = "inf" if want == INF else \
            ("unit" if weights is None else "weighted")
        outcomes[kind] += 1
    assert min(outcomes.values()) >= 100


def test_weighted_transport_simplex_matches_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(88)
    for trial in range(40):
        k = rng.randint(2, 5)
        pts = rand_points(rng, rng.randint(2, 16), 8)
        Z = [Point((rng.randint(1, 8), rng.randint(1, 8))) for _ in range(k)]
        r = rng.choice([1, 2, 3])
        weights = {p: rng.uniform(0.1, 5.0) for p in pts}
        t = sum(weights.values()) / k * rng.uniform(1.0, 1.5)
        n = len(pts)
        c = [dist_pow(p, z, r) for p in pts for z in Z]
        a_eq = [[1.0 if col // k == i else 0.0 for col in range(n * k)]
                for i in range(n)]
        a_ub = [[1.0 if col % k == j else 0.0 for col in range(n * k)]
                for j in range(k)]
        res = optimize.linprog(c, A_ub=a_ub, b_ub=[t] * k, A_eq=a_eq,
                               b_eq=[weights[p] for p in pts], method="highs")
        assert res.status == 0
        got = oracle.CostCurve(pts, Z, r, weights)._solve(t)
        assert got == pytest.approx(res.fun, rel=1e-9)


def _distinct_centers(rng, k, Delta):
    Z = []
    while len(Z) < k:
        z = Point((rng.randint(1, Delta), rng.randint(1, Delta)))
        if z not in Z:
            Z.append(z)
    return Z


@pytest.mark.parametrize("k", [3, 4])
def test_cost_curve_matches_linprog_over_full_grids(k):
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(300 + k)
    for trial in range(6):
        pts = rand_points(rng, rng.randint(k, 14), 8)
        # repeated coordinates share a supply row
        pts += [Point(p.coords, 100 + i) for i, p in enumerate(pts[:3])]
        Z = _distinct_centers(rng, k, 8)
        r = rng.choice([1, 2, 3])
        n = len(pts)
        c = [dist_pow(p, z, r) for p in pts for z in Z]
        a_eq = [[1.0 if col // k == i else 0.0 for col in range(n * k)]
                for i in range(n)]
        a_ub = [[1.0 if col % k == j else 0.0 for col in range(n * k)]
                for j in range(k)]
        for weights in (None, {p: rng.uniform(0.5, 1.5) for p in pts}):
            w = [1.0 if weights is None else weights[p] for p in pts]
            curve = oracle.CostCurve(pts, Z, r, weights)
            # the CLI's full grid, from one capacity too small for the input
            for t in range(math.floor(sum(w) / k), math.ceil(sum(w)) + 1):
                cap = t if weights is None else t * 1.0
                res = optimize.linprog(c, A_ub=a_ub, b_ub=[cap] * k,
                                       A_eq=a_eq, b_eq=w, method="highs")
                got = curve.at(t)
                if res.status == 2:
                    assert got == INF
                else:
                    assert res.status == 0
                    assert got == pytest.approx(res.fun, rel=1e-9)


def test_cost_curve_computes_each_distance_once(monkeypatch):
    # one (row, center) pair per entry of the shared dist^r tables made
    calls = []
    real = oracle.dist_table

    def counted(rows, centers, r):
        calls.extend(itertools.product(map(tuple, rows),
                                       [z.coords for z in centers]))
        return real(rows, centers, r)

    monkeypatch.setattr(oracle, "dist_table", counted)
    rng = random.Random(17)
    pts = rand_points(rng, 30, 8)
    pts += [Point(p.coords, 100 + i) for i, p in enumerate(pts[:8])]
    rows = len({p.coords for p in pts})
    for k in (2, 3, 4):
        Z = _distinct_centers(rng, k, 8)
        for weights in (None, {p: rng.uniform(0.5, 1.5) for p in pts}):
            total = len(pts) if weights is None else sum(weights.values())
            capacities = [INF] + [total / k * f for f in
                                  (0.9, 1.0, 1.05, 1.1, 1.2, 1.3, 1.5, 2, 3)]
            calls.clear()
            curve = oracle.CostCurve(pts, Z, 3, weights)
            values = [curve.at(t) for t in capacities]
            assert values[1] == INF and values[-1] != INF
            assert len(calls) == len(set(calls)) == rows * k


def _reference_plan(costs, supply, cap):
    """The oracle's transportation simplex on dicts and lists, every cell
    explicit: ({(row, column): units} over the tree, pivot count).  The
    scalar reference of oracle._transport_plan: the same start, pricing,
    entering and leaving rules, so the same pivots and the same plan."""
    m, k = len(costs), len(costs[0])
    slack, nodes = m, m + 1      # rows are nodes 0..m, column j is node m+1+j
    table = costs + [[0] * k]
    top = max(map(max, costs))
    C = np.array(table, dtype=np.int64 if (4 * k + 2) * top < 1 << 62
                 else object)
    if k > 1:
        two = np.sort(C[:m], axis=1)[:, :2]
        order = np.argsort(two[:, 0] - two[:, 1], kind="stable").tolist()
    else:
        order = range(m)
    prefs = np.argsort(C[:m], axis=1, kind="stable").tolist()
    room = [cap] * k
    flow = {}
    for i in order:
        left = supply[i]
        for j in prefs[i]:
            if room[j]:
                take = min(left, room[j])
                flow[i, j] = take
                room[j] -= take
                left -= take
                if not left:
                    break
    for j in range(k):
        if room[j]:
            flow[slack, j] = room[j]
    cols = {}
    for i, j in flow:
        cols.setdefault(i, []).append(j)
    link = list(range(k + 1))

    def find(a):
        while link[a] != a:
            link[a] = a = link[link[a]]
        return a

    for i, cs in cols.items():
        for j in cs[1:]:
            link[find(j)] = find(cs[0])
    for j in cols.get(slack, ()):
        link[find(j)] = find(k)
    for j in range(k):
        if find(j) != find(k):
            flow[slack, j] = 0
            cols.setdefault(slack, []).append(j)
            link[find(j)] = find(k)
    anchor = np.array([cols[i][0] for i in range(nodes)])
    branch = {i: cs for i, cs in cols.items() if len(cs) > 1 or i == slack}

    def to_root(a):
        path = [a]
        while a != slack:
            a = parent[a] if a in parent else nodes + int(anchor[a])
            path.append(a)
        return path

    rows = np.arange(nodes)
    pivots = 0
    while True:
        col_rows = [[] for _ in range(k)]
        for i, cs in branch.items():
            for j in cs:
                col_rows[j].append(i)
        u, v = {slack: 0}, [None] * k
        parent = {}
        stack = [slack]
        while stack:
            a = stack.pop()
            if a < nodes:
                for j in branch[a]:
                    if v[j] is None:
                        v[j] = table[a][j] - u[a]
                        parent[nodes + j] = a
                        stack.append(nodes + j)
            else:
                for i in col_rows[a - nodes]:
                    if i not in u:
                        u[i] = table[i][a - nodes] - v[a - nodes]
                        parent[i] = a
                        stack.append(i)
        vv = np.array(v, dtype=C.dtype)
        reduced = C - (C[rows, anchor] - vv[anchor])[:, None] - vv
        e = int(reduced.argmin())
        if reduced.flat[e] >= 0:
            return flow, pivots
        pivots += 1
        i, j = divmod(e, k)
        up_i, up_j = to_root(i), to_root(nodes + j)
        while len(up_i) > 1 and len(up_j) > 1 and up_i[-2] == up_j[-2]:
            up_i.pop()
            up_j.pop()
        cycle = up_i[::-1] + up_j
        flow[i, j] = 0
        steps, theta, leave = [], None, None
        for a, b in zip(cycle, cycle[1:]):
            if a < nodes:
                steps.append(((a, b - nodes), 1))
            else:
                cell = (b, a - nodes)
                steps.append((cell, -1))
                if theta is None or flow[cell] < theta:
                    theta, leave = flow[cell], cell
        for cell, sign in steps:
            flow[cell] += sign * theta
        del flow[leave]
        if i in branch:
            branch[i].append(j)
        else:
            branch[i] = [int(anchor[i]), j]
        p, q = leave
        branch[p].remove(q)
        if anchor[p] == q:
            anchor[p] = branch[p][0]
        if p != slack and len(branch[p]) == 1:
            del branch[p]


def _reference_solve(points, centers, t, r, weights=None):
    """CostCurve._solve by its scalar reference: (the plan's positive cells
    {(row, column): units}, the value, the pivot count); the value sums
    dist_pow over the plan point by point in input order, each row handing
    its shipments to its points columns in increasing order."""
    scale = oracle.ORACLE_SCALE
    unit = weights is None
    units = [1 if unit else round(weights[p] * scale) for p in points]
    rows = dict.fromkeys(p.coords for p, x in zip(points, units) if x)
    supply = [0] * len(rows)
    rows |= dict.fromkeys(p.coords for p in points)
    index = {c: i for i, c in enumerate(rows)}
    row_of = [index[p.coords] for p in points]
    for i, x in zip(row_of, units):
        if x:
            supply[i] += x
    dist = [[dist_pow(Point(c), z, r) for z in centers] for c in rows]
    cap = math.floor(t) if unit else round(t * scale)
    if sum(supply) > len(centers) * cap:
        return None, INF, 0
    m = len(supply)
    costs = dist[:m] if r == 2 else \
        [[round(x * scale) for x in row] for row in dist[:m]]
    plan, pivots = _reference_plan(costs, supply, cap)
    cells = {cell: x for cell, x in plan.items() if x and cell[0] < m}
    shipped = [[] for _ in supply]
    for (i, j), x in sorted(cells.items()):
        shipped[i].append([j, x])
    value = 0 if unit else 0.0
    for i, x in zip(row_of, units):
        while x:
            part = shipped[i][0]
            take = min(x, part[1])
            if unit:
                value += dist[i][part[0]]
            else:
                value += take / scale * dist[i][part[0]]
            part[1] -= take
            x -= take
            if not part[1]:
                shipped[i].pop(0)
    return cells, value, pivots


def _plan_cells(curve, t):
    """The positive cells {(row, column): units} of curve's plan at t: each
    leaf row's supply on its anchor, the core's cells from the flow."""
    unit = curve.weights is None
    cap = math.floor(t) if unit else round(t * oracle.ORACLE_SCALE)
    supply = curve._supply.tolist()
    anchor, flow = oracle._transport_plan(curve._cost_matrix(),
                                          curve._supply, cap)
    core = {i for i, _ in flow}
    cells = {(i, int(anchor[i])): x for i, x in enumerate(supply)
             if i not in core}
    cells.update({(i, j): x for (i, j), x in flow.items()
                  if x and i < len(supply)})
    return cells


def test_transport_plan_matches_its_scalar_reference():
    rng = random.Random(23)
    wide = solved = pivoted = 0
    for trial in range(1000):
        k, r = rng.randint(3, 6), rng.choice([1, 2, 3, 2.5])
        Delta = 1 << 40 if trial % 10 == 0 else rng.choice([4, 8, 16])
        pts = rand_points(rng, rng.randint(1, 24), Delta)
        # repeated coordinates share a row; repeated centers tie
        pts += [Point(p.coords, 100 + i)
                for i, p in enumerate(pts[:rng.randint(0, 8)])]
        Z = [Point((rng.randint(1, Delta), rng.randint(1, Delta)))
             for _ in range(k)]
        if rng.random() < 0.3:
            Z[rng.randrange(1, k)] = Z[0]
        weights = [None, {p: 1 / 1.4333 for p in pts},
                   {p: 8.64 for p in pts},
                   {p: rng.choice([1 / 1.4333, 8.64, 1.0]) for p in pts}
                   ][trial % 4]
        total = len(pts) if weights is None else sum(weights.values())
        curve = oracle.CostCurve(pts, Z, r, weights)
        if Delta == 1 << 40 and r == 3:
            # scaled costs past 2**63: pricing on Python ints
            assert curve._cost_matrix().dtype == object
            wide += 1
        # just feasible, binding, slack
        for t in (total / k, total / k * rng.uniform(1.0, 1.3),
                  total / k * rng.uniform(1.3, 3.0)):
            t = math.ceil(t) if weights is None else t
            cells, want, pivots = _reference_solve(pts, Z, t, r, weights)
            got = curve._solve(t)
            assert (repr(got), type(got)) == (repr(want), type(want))
            if cells is not None:
                assert _plan_cells(curve, t) == cells
                pivoted += pivots > 0
                solved += 1
    assert wide >= 10 and solved >= 2000 and pivoted >= 500


def test_cost_curve_sums_never_wrap():
    # every r = 2 table entry passes the int64 gate, their sum over the
    # points passes 2**63: numpy would wrap it without a warning
    rng = random.Random(9)
    top = (1 << 30) - 64
    pts = [Point((top - rng.randint(0, 32), top - rng.randint(0, 32)), i)
           for i in range(12)]
    Z = [Point((1, 1)), Point((2, 1)), Point((1, 2))]
    curve = oracle.CostCurve(pts, Z, 2)
    assert curve._D.dtype == np.int64
    near = sum(min(dist_pow(p, z, 2) for z in Z) for p in pts)
    assert near >= 1 << 63
    assert curve.at(INF) == float(near)
    for t in (4, 5, 12):
        got = curve.at(t)
        want = _reference_solve(pts, Z, t, 2)[1]
        assert type(got) is int and got == want >= near


def test_transport_simplex_beyond_int64():
    # r = 3 on Delta = 256 puts scaled costs past 2**63, and 2,000 weights
    # up to 1e4 put the shipped units past it too
    rng = random.Random(5)
    pool = rand_points(rng, 40, 256, tagged=False)
    pts = [Point(rng.choice(pool).coords, i) for i in range(2000)]
    weights = {p: rng.uniform(1.0, 1e4) for p in pts}
    Z = [Point((rng.randint(1, 256), rng.randint(1, 256))) for _ in range(4)]
    scale = oracle.ORACLE_SCALE
    assert sum(round(w * scale) for w in weights.values()) >= 1 << 63
    assert max(round(dist_pow(p, z, 3) * scale)
               for p in pool for z in Z) >= 1 << 63
    t = sum(weights.values()) / len(Z) * 1.02
    got = oracle.exact_cost(pts, Z, t, 3, weights)
    want = _flow_reference(pts, Z, t, 3, weights)
    assert want != INF
    assert got == pytest.approx(want, rel=1e-9)
    # binding capacities: more than the nearest-center plan
    assert got > oracle.exact_cost(pts, Z, INF, 3, weights) * (1 + 1e-6)
    # squared distances past 2**63 at r = 2
    far = [Point((rng.randint(1, 1 << 33), rng.randint(1, 1 << 33)), i)
           for i in range(30)]
    got = oracle.exact_cost(far, Z, 10, 2)
    assert got > 1 << 63
    assert got == _flow_reference(far, Z, 10, 2)


def test_transport_simplex_binding_five_centers(rng):
    pts = clustered_points(rng, 500, 64, clusters=3, spread=6.0)
    Z = [Point((rng.randint(1, 64), rng.randint(1, 64))) for _ in range(5)]
    t = len(pts) // 5
    got = oracle.exact_cost(pts, Z, t, 2)
    assert got == _flow_reference(pts, Z, t, 2)
    assert got > oracle.exact_cost(pts, Z, INF, 2)


def test_sample_lattice_draws_the_lattice_sample():
    for seed in range(40):
        for Delta, d in ((1, 2), (2, 1), (4, 2), (8, 2), (4, 3)):
            lattice = lattice_points(Delta, d)
            k = 1 + seed % min(len(lattice), 5)
            want, got = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert oracle.sample_lattice(got, Delta, d, k) == \
                    tuple(want.sample(lattice, k))
    with pytest.raises(UsageError):
        oracle.sample_lattice(random.Random(1), 2, 1, 3)


@pytest.mark.parametrize("size", [10 ** 6, 2 ** 40])
@pytest.mark.parametrize("k", [1, 3, 50])
def test_draw_distinct_is_the_sample_of_a_large_population(size, k):
    for seed in range(5):
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert oracle._draw_distinct(got, size, k) == \
                want.sample(range(size), k)


def test_sample_lattice_past_the_int64_range():
    # 2**96 lattice points: range(Delta ** d) has no len() for rng.sample
    Delta, d = 2 ** 32, 3
    got = oracle.sample_lattice(random.Random(1), Delta, d, 2)
    want = oracle._draw_distinct(random.Random(1), Delta ** d, 2)
    assert got == tuple(
        Point(tuple(idx // Delta ** (d - 1 - i) % Delta + 1
                    for i in range(d))) for idx in want)
    assert all(1 <= c <= Delta for p in got for c in p.coords)
