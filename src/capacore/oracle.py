"""Ground-truth machinery for validating coresets and assignments.

CostCurve is the one cost evaluator: it sets up a (point set, centers) pair
once, in numpy arrays (each point's supply row, points with equal
coordinates sharing one, and units; the row supplies; each row's dist^r to
each center, computed once), and answers the capacitated cost at any
capacity t; exact_cost is its value at one t.  t = INF takes the
nearest-center sum, two centers an exchange-greedy prefix walk, any other
number the oracle's own primal transportation simplex (_transport_plan), an
algorithm the pipeline's shortest-path TransportSolver does not use:
integral for unit weights, the fractional relaxation for weighted inputs.
A slack row takes the capacity left free.  The start plan sends each row to
its cheapest center with room, in at most k numpy passes, so an audit whose
capacities do not bind is certified by one vectorised pricing; binding ones
pivot on a strongly feasible tree whose leaf rows stay implicit.

The dist^r table is geometry.dist_table, the one the pipeline's assignment
stage reads: the oracle's independence rests on its own solver, not on its
own distances (brute_partitions and the tests' references take theirs
from dist_pow).  Costs are exact integers for r == 2 and dist**r on a
2**40 scale otherwise (geometry.scaled_table; Python ints when int64
pricing could overflow), tight enough for the 1e-9 cross-validation
tolerance.  Values sum over the points in input order:
exactly for unit weights at r == 2, and otherwise left to right in floats
(np.cumsum or a plain loop, never the builtin sum, which compensates from
Python 3.12 on), so each value is the same float on every Python.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .assignment import integralize, fractional_assign
from .common import OracleCapError, UsageError, is_infeasible
from .geometry import Point, dist_pow, dist_table, scaled_table

INF = float("inf")

ORACLE_SCALE = 1 << 40

BRUTE_PARTITION_CAP = 10


def _transport_plan(C, supply, cap):
    """Optimal basis (anchor, flow) of one transportation problem.

    Row i < m ships supply[i] > 0 units, each of the k columns takes at most
    cap, and a unit from row i to column j costs C[i, j].  C is an
    (m + 1) x k integer array, int64 or Python ints (object), whose last
    row is a zero slack row: it ships the k * cap - sum(supply) units the
    columns keep free.  supply is int64 while its sum fits, object
    otherwise.

    Primal transportation simplex with MODI pricing.  The tree is rooted at
    the slack row and kept strongly feasible: the row of every zero-flow
    tree cell lies nearer the root than its column, and the leaving cell is
    the first blocking one met on the pivot cycle from its apex along the
    entering direction (Cunningham, Math. Programming 11, 1976), which rules
    out cycling on the degenerate instances ties produce.  A tree has at most
    k - 1 rows of degree two or more besides the slack row; every other row
    is a leaf that ships its whole supply on anchor[row].  Leaf rows stay
    implicit: flow holds, as Python ints, the units of the core's cells
    only (the slack row's and the branching rows'), a leaf row's cell
    becomes explicit when a pivot makes the row branch, and a row left with
    one cell drops back to a leaf.  A leaf's potential is read off its
    anchor, so each pricing is a few numpy passes over C, and only the core
    of columns and branching rows is walked in Python.
    """
    m, k = C.shape[0] - 1, C.shape[1]
    slack, nodes = m, m + 1      # rows are nodes 0..m, column j is node m+1+j
    total = int(supply.sum())
    anchor = np.zeros(nodes, dtype=np.intp)
    flow, branch = {}, {}

    # start: rows by decreasing regret, each to its cheapest column with
    # room, split when a column fills.  Each pass sends every row before the
    # first one that fills a column to its cheapest open column at once;
    # only that row walks its preferences, so at most k passes
    if k > 1:
        two = np.sort(C[:m], axis=1)[:, :2]
        rest = np.argsort(two[:, 0] - two[:, 1], kind="stable")
    else:
        rest = np.arange(m)
    room = [cap] * k
    while rest.size:
        cols = [j for j in range(k) if room[j]]
        pick = C[rest[:, None], cols].argmin(axis=1)
        load = np.cumsum(np.where(pick[:, None] == np.arange(len(cols)),
                                  supply[rest, None], 0), axis=0)
        # a column's load never passes the total: clip its room there
        limit = np.array([min(room[j], total) for j in cols],
                         dtype=supply.dtype)
        fills = load[np.arange(rest.size), pick] >= limit[pick]
        f = int(fills.argmax()) if fills.any() else rest.size
        anchor[rest[:f]] = np.take(cols, pick[:f])
        if f:
            for c, j in enumerate(cols):
                room[j] -= int(load[f - 1, c])
        if f == rest.size:
            break
        i, left = int(rest[f]), int(supply[rest[f]])
        cells = {}
        for j in sorted(range(k), key=C[i].tolist().__getitem__):
            if room[j]:
                cells[j] = take = min(left, room[j])
                room[j] -= take
                left -= take
                if not left:
                    break
        anchor[i] = next(iter(cells))
        if len(cells) > 1:
            branch[i] = list(cells)
            flow.update(((i, j), x) for j, x in cells.items())
        rest = rest[f + 1:]
    cells = [j for j in range(k) if room[j]]
    for j in cells:
        flow[slack, j] = room[j]
    # positive cells form a forest; zero-flow slack cells join the columns
    # cut off from the slack row (union-find over columns, the slack row k)
    link = list(range(k + 1))

    def find(a):
        while link[a] != a:
            link[a] = a = link[link[a]]
        return a

    for cs in branch.values():
        for j in cs[1:]:
            link[find(j)] = find(cs[0])
    for j in cells:
        link[find(j)] = find(k)
    for j in range(k):
        if find(j) != find(k):
            flow[slack, j] = 0
            cells.append(j)
            link[find(j)] = find(k)
    branch[slack] = cells
    anchor[slack] = cells[0]

    def to_root(a):
        # core nodes have a BFS parent; a leaf row hangs off its one column
        path = [a]
        while a != slack:
            a = parent[a] if a in parent else nodes + int(anchor[a])
            path.append(a)
        return path

    rows = np.arange(nodes)
    while True:
        # potentials over the core: the slack row, branching rows, columns
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
                        v[j] = C[a, j] - u[a]
                        parent[nodes + j] = a
                        stack.append(nodes + j)
            else:
                for i in col_rows[a - nodes]:
                    if i not in u:
                        u[i] = C[i, a - nodes] - v[a - nodes]
                        parent[i] = a
                        stack.append(i)
        vv = np.array(v, dtype=C.dtype)
        reduced = C - (C[rows, anchor] - vv[anchor])[:, None] - vv
        e = int(reduced.argmin())
        if reduced.flat[e] >= 0:
            return anchor, flow
        i, j = divmod(e, k)
        up_i, up_j = to_root(i), to_root(nodes + j)
        while len(up_i) > 1 and len(up_j) > 1 and up_i[-2] == up_j[-2]:
            up_i.pop()
            up_j.pop()
        # the cycle from its apex: down to row i, across (i, j), up again
        cycle = up_i[::-1] + up_j
        if i in branch:
            branch[i].append(j)
        else:
            # a leaf row joins the core: its one cell becomes explicit
            a = int(anchor[i])
            branch[i] = [a, j]
            flow[i, a] = int(supply[i])
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
        p, q = leave
        branch[p].remove(q)
        if anchor[p] == q:
            anchor[p] = branch[p][0]
        if p != slack and len(branch[p]) == 1:
            # back to a leaf: its whole supply on its anchor
            del flow[p, branch[p][0]]
            del branch[p]


def exact_cost(points, centers, t, r, weights=None):
    """Capacitated clustering cost at capacity t, CostCurve's value there;
    INF when no feasible partition exists.  Unit weights get the integral
    optimum, weighted inputs the fractional one (rounded_cost is the
    integralized upper bracket)."""
    return CostCurve(points, centers, r, weights).at(t)


def rounded_cost(points, centers, t, r, weights):
    """Cost of the integralized (<= k-1 splits rounded) weighted assignment."""
    frac = fractional_assign(points, weights, centers, t, r, scale=ORACLE_SCALE)
    if is_infeasible(frac):
        return INF
    return integralize(frac).cost()


def brute_partitions(points, centers, t, r, weights=None):
    """Exhaustive minimum over all capacity-feasible k-labelings (n <= 10)."""
    points = list(points)
    n, k = len(points), len(centers)
    if n > BRUTE_PARTITION_CAP:
        raise OracleCapError(f"brute_partitions caps at n={BRUTE_PARTITION_CAP}")
    cap = math.floor(t) if weights is None else t
    costs = [[dist_pow(p, z, r) for z in centers] for p in points]
    w = [1.0 if weights is None else weights[p] for p in points]
    best = INF
    for labels in itertools.product(range(k), repeat=n):
        loads = [0.0] * k
        for i, lab in enumerate(labels):
            loads[lab] += w[i]
        if any(load > cap + 1e-12 for load in loads):
            continue
        val = 0     # a left fold: builtin sum compensates from 3.12 on
        for i, lab in enumerate(labels):
            val += w[i] * costs[i][lab]
        if val < best:
            best = val
    return best


def sample_lattice(rng, Delta: int, d: int, k: int) -> tuple:
    """rng.sample of k points of the lattice [Delta]^d, listed in
    itertools.product order, without building the lattice.

    The draw takes the same indices; index idx decodes in that order,
    coordinate i being idx // Delta**(d-1-i) % Delta.  Past sys.maxsize
    lattice points, whose range has no len() for rng.sample, the indices
    come from _draw_distinct, the draw rng.sample makes on so large a
    population.
    """
    size = Delta ** d
    if k > size:
        raise UsageError(f"cannot draw {k} distinct centers from the "
                         f"{size} lattice points")
    indices = rng.sample(range(size), k) if size <= sys.maxsize \
        else _draw_distinct(rng, size, k)
    return tuple(Point(tuple(idx // Delta ** (d - 1 - i) % Delta + 1
                             for i in range(d)))
                 for idx in indices)


def _draw_distinct(rng, size: int, k: int) -> list:
    """k distinct indices below size, each rng.randrange(size), a repeat
    drawn again: the draw of rng.sample(range(size), k) wherever it keeps
    a set of the indices taken, which it does once size exceeds
    21 + 4**ceil(log4(3k)) (21 for k <= 5), so at every size past
    sys.maxsize."""
    indices, seen = [], set()
    while len(indices) < k:
        idx = rng.randrange(size)
        if idx not in seen:
            seen.add(idx)
            indices.append(idx)
    return indices


# --- sandwich audit ----------------------------------------------------------

SYMMETRIC_FORM = "symmetric"
TWO_TIER_FORM = "two-tier"

_REL_TOL = 1e-9


def _le(lhs: float, rhs: float) -> bool:
    if lhs == INF:
        return rhs == INF
    if rhs == INF:
        return True
    return lhs <= rhs * (1 + _REL_TOL) + 1e-12


def _ratio(lhs: float, rhs: float) -> float:
    if lhs == 0.0:
        return 0.0 if rhs >= 0 else INF
    if rhs == 0.0 or rhs == INF or lhs == INF:
        return INF if lhs > rhs else 0.0
    return lhs / rhs


def _left_sum(values) -> float:
    """The float sum of a float64 array, left to right as a plain loop
    adds (np.cumsum), on every Python: builtin sum compensates from 3.12
    on."""
    return float(np.cumsum(values)[-1])


def _exact_sum(values) -> int:
    """The exact sum of non-negative integers, in int64 only while no
    partial sum can pass 2**63."""
    if values.dtype != object and \
            values.size * int(values.max(initial=0)) >= 1 << 63:
        values = values.astype(object)
    return int(values.sum())


class CostCurve:
    """cost_t of one (point set, centers) pair at any number of capacities.

    The set-up runs once, in arrays: each point's supply row (points of
    equal coordinates share one) and units (1 per point, or weight *
    ORACLE_SCALE), the row supplies, and the dist^r table D of the rows.
    The rows that ship units come first, in the order of their first
    shipping point, then the rows that ship none.  D is geometry.dist_table
    of the rows: int64 for r == 2 under its int64 gate, Python ints past
    it, and dist_pow's floats for any other r.  The first solve adds the
    scaled cost matrix with its zero slack row.  Every value sums over the points in input order: exactly
    for unit weights at r == 2 (an int from the simplex), left to right in
    floats otherwise (np.cumsum), the same float on every Python.
    """

    def __init__(self, points, centers, r, weights=None):
        self.points = list(points)
        self.centers = list(centers)
        self.r = r
        self.weights = weights
        self._cache = {}
        self._k2 = None
        self._C = None
        coords = [p.coords for p in self.points]
        if weights is None:
            rows = dict.fromkeys(coords)
        else:
            w = [weights[p] for p in self.points]
            self._w = np.array(w, dtype=np.float64)
            units = np.rint(self._w * ORACLE_SCALE)
            # round(weight * ORACLE_SCALE): rint rounds half to even too
            self._units = units.astype(np.int64) \
                if np.all(np.abs(units) < 1 << 63) else \
                np.array([round(x * ORACLE_SCALE) for x in w], dtype=object)
            self._share = (self._units / ORACLE_SCALE).astype(np.float64)
            ships = self._units != 0
            rows = dict.fromkeys(itertools.compress(coords, ships.tolist()))
            m = len(rows)
            rows |= dict.fromkeys(coords)
        index = dict(zip(rows, range(len(rows))))
        self._row_of = np.fromiter(map(index.__getitem__, coords), np.intp,
                                   len(coords))
        if weights is None:
            self._total = len(coords)
            self._supply = np.bincount(self._row_of, minlength=len(rows))
        else:
            units = self._units[ships]
            self._total = _exact_sum(units)
            if self._total >= 1 << 63:
                units = units.astype(object)
            self._supply = np.zeros(m, dtype=units.dtype)
            np.add.at(self._supply, self._row_of[ships], units)
        if coords:
            self._D = dist_table(list(rows), self.centers, self.r)
            if weights is not None:
                self._Df = self._D.astype(np.float64)

    def _cost_matrix(self):
        """The shipping rows' costs, dist^r for r == 2 and round(dist^r *
        ORACLE_SCALE) (scaled_table) otherwise, over a zero slack row.
        Potentials stay within 2k tree steps of the root, so (4k + 2) * top
        bounds every reduced cost: int64 below 2**62, Python ints past
        it."""
        m, k = self._supply.size, len(self.centers)
        costs = self._D[:m] if self.r == 2 else \
            scaled_table(self._D[:m], ORACLE_SCALE)
        fits = (4 * k + 2) * int(costs.max()) < 1 << 62
        C = np.zeros((m + 1, k), dtype=np.int64 if fits else object)
        C[:m] = costs
        return C

    def at(self, t: float) -> float:
        """cost_t, INF when the capacities cannot hold the input."""
        if t not in self._cache:
            if not self.points:
                value = 0.0
            elif t == INF:
                if self.weights is not None:
                    near = self._Df.min(axis=1)[self._row_of]
                    value = _left_sum(self._w * near)
                else:
                    near = self._D.min(axis=1)[self._row_of]
                    value = _left_sum(near) if near.dtype == np.float64 \
                        else float(_exact_sum(near))
            elif len(self.centers) == 2:
                value = self._k2_at(t)
            else:
                value = self._solve(t)
            self._cache[t] = value
        return self._cache[t]

    def _k2_at(self, t: float) -> float:
        """Two centers: the nearest-center plan (base cost, per-side loads)
        and each side's switching penalties, sorted once, make each
        capacity a prefix walk over the heavier side's penalties (for unit
        weights, a prefix sum, added left to right once)."""
        unit = self.weights is None
        if self._k2 is None:
            base, tot = 0.0, [0.0, 0.0]
            counts = [0, 0]
            pens = ([], [])
            dist = self._D.tolist()
            for p, i in zip(self.points, self._row_of.tolist()):
                w = 1.0 if unit else self.weights[p]
                c0, c1 = dist[i]
                side = 0 if c0 <= c1 else 1
                tot[side] += w
                counts[side] += 1
                base += w * (c0 if side == 0 else c1)
                pens[side].append((abs(c1 - c0), w))
            pens = [sorted(side) for side in pens]
            if unit:
                pens = [list(itertools.accumulate((pen for pen, _ in side),
                                                  initial=0))
                        for side in pens]
            self._k2 = (base, tot, counts, pens)
        base, tot, counts, pens = self._k2
        cap = math.floor(t) if unit and t < INF else t
        if tot[0] + tot[1] > 2 * cap:
            return INF
        value = base
        for heavy in (0, 1):
            if tot[heavy] <= cap:
                continue
            if unit:
                value += pens[heavy][counts[heavy] - int(cap)]
            else:
                move = tot[heavy] - cap
                for pen, w in pens[heavy]:
                    take = min(w, move)
                    value += pen * take
                    move -= take
                    if move <= 1e-15:
                        break
        return value

    def _solve(self, t: float):
        """The transportation optimum at capacity t, for any number of
        centers; INF when the capacities cannot hold the input.

        Unit weights give the integral optimum at capacity floor(t) (a
        basic plan of integer data is integral); weights give the
        fractional optimum in ORACLE_SCALE units.  Each point of a row with
        one positive cell takes that cell's dist^r, in columns; only the
        points of rows split over several columns are handed their row's
        shipments, columns in increasing order, point by point in input
        order.
        """
        unit = self.weights is None
        cap = math.floor(t) if unit else round(t * ORACLE_SCALE)
        if self._total > len(self.centers) * cap:
            return INF
        m = self._supply.size
        if not m:
            return 0 if unit else 0.0
        if self._C is None:
            self._C = self._cost_matrix()
        anchor, flow = _transport_plan(self._C, self._supply, cap)
        col = np.zeros(len(self._D), dtype=np.intp)
        col[:m] = anchor[:m]
        split = {}
        for (i, j), x in sorted(flow.items()):
            if x and i < m:
                split.setdefault(i, []).append([j, x])
        for i in [i for i, parts in split.items() if len(parts) == 1]:
            col[i] = split.pop(i)[0][0]
        rows = self._row_of
        D = self._D if unit else self._Df
        vals = D[rows, col[rows]]
        if not unit:
            vals = self._share * vals
        spans = []      # (point, its parts' terms) of points over columns
        if split:
            in_split = np.zeros(len(col), dtype=bool)
            in_split[list(split)] = True
            for p in np.flatnonzero(in_split[rows]).tolist():
                i = int(rows[p])
                parts = split[i]
                x = 1 if unit else int(self._units[p])
                terms = []
                while x:
                    part = parts[0]
                    take = min(x, part[1])
                    terms.append(D[i, part[0]] if unit else
                                 take / ORACLE_SCALE * D[i, part[0]])
                    part[1] -= take
                    x -= take
                    if not part[1]:
                        parts.pop(0)
                if len(terms) > 1:
                    spans.append((p, terms))
                else:
                    vals[p] = terms[0] if terms else 0.0
        if spans:
            pieces, prev = [], 0
            for p, terms in spans:
                pieces += [vals[prev:p], terms]
                prev = p + 1
            vals = np.concatenate(pieces + [vals[prev:]])
        if unit and self.r == 2:
            return _exact_sum(vals)
        return _left_sum(vals)


@dataclass
class AuditRow:
    z_id: int
    t: float
    form: str
    cost_Q: float
    cost_coreset_relaxed: float
    ratio: float
    violated: int
    cost_coreset_rounded: float | None = None


class AuditReport:
    def __init__(self, rows):
        self.rows = rows

    def violations(self, form=None):
        rows = [r for r in self.rows if form is None or r.form == form]
        return sum(r.violated for r in rows)

    def violation_fraction(self, form=None):
        rows = [r for r in self.rows if form is None or r.form == form]
        return (sum(r.violated for r in rows) / len(rows)) if rows else 0.0

    def worst_ratio(self, form=None):
        """Largest ratio of the form's rows (inf when any ratio is infinite)."""
        rows = [r for r in self.rows if form is None or r.form == form]
        return max((r.ratio for r in rows), default=0.0)

    def write_csv(self, path, header_lines=()):
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("z_id,t,form,cost_Q,cost_coreset_relaxed,"
                     "cost_coreset_rounded,ratio,violated\n")
            for row in self.rows:
                rounded = "" if row.cost_coreset_rounded is None \
                    else repr(row.cost_coreset_rounded)
                # the simplex values unit weights as an int: one
                # rendering for every row
                fh.write(f"{row.z_id},{row.t!r},{row.form},"
                         f"{float(row.cost_Q)!r},"
                         f"{row.cost_coreset_relaxed!r},{rounded},"
                         f"{row.ratio!r},{row.violated}\n")


def sandwich_audit(points, coreset, center_sets, t_values,
                   forms=(SYMMETRIC_FORM, TWO_TIER_FORM),
                   include_rounded: bool = False) -> AuditReport:
    """Evaluate the coreset guarantee for sampled centers and capacities.

    The symmetric form checks cost_{(1+eta)t}(Q) <= (1+eps) cost_t(Q', w') and
    cost_{(1+eta)t}(Q', w') <= (1+eps) cost_t(Q); the two-tier form checks
    the (1+eta)^2 / (1+eta) staircase of the strong-coreset definition.
    """
    params = coreset.meta.params
    eps, eta, r = params.eps, params.eta, params.r
    core_pts = coreset.points()
    core_w = coreset.weights()
    rows = []
    for z_id, Z in enumerate(center_sets):
        q_curve = CostCurve(points, Z, r)
        c_curve = CostCurve(core_pts, Z, r, core_w)
        for t in t_values:
            q_t = q_curve.at(t)
            q_up = q_curve.at((1 + eta) * t)
            q_up2 = q_curve.at((1 + eta) ** 2 * t)
            c_t = c_curve.at(t)
            c_up = c_curve.at((1 + eta) * t)
            rounded = None
            if include_rounded and core_pts:
                rounded = rounded_cost(core_pts, Z, (1 + eta) * t, r, core_w)
            if SYMMETRIC_FORM in forms:
                ok1 = _le(q_up, (1 + eps) * c_t)
                ok2 = _le(c_up, (1 + eps) * q_t)
                ratio = max(_ratio(q_up, (1 + eps) * c_t),
                            _ratio(c_up, (1 + eps) * q_t))
                rows.append(AuditRow(z_id, t, SYMMETRIC_FORM, q_t, c_up, ratio,
                                     int(not (ok1 and ok2)), rounded))
            if TWO_TIER_FORM in forms:
                ok1 = _le(q_up2 / (1 + eps), c_up)
                ok2 = _le(c_up, (1 + eps) * q_t)
                ratio = max(_ratio(q_up2 / (1 + eps), c_up),
                            _ratio(c_up, (1 + eps) * q_t))
                rows.append(AuditRow(z_id, t, TWO_TIER_FORM, q_t, c_up, ratio,
                                     int(not (ok1 and ok2)), rounded))
    return AuditReport(rows)
