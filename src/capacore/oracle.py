"""Ground-truth machinery for validating coresets and assignments.

CostCurve is the one cost evaluator: it sets up a (point set, centers) pair
once, grouping points with equal coordinates into supply rows and computing
each row's dist^r to each center once, and answers the capacitated cost at
any capacity t; exact_cost is its value at one t.  t = INF takes the
nearest-center sum, two centers an exchange-greedy prefix walk, any other
number the oracle's own primal transportation simplex (_transport_plan), an
algorithm the pipeline's shortest-path TransportSolver does not use:
integral for unit weights, the fractional relaxation for weighted inputs.
A slack row takes the capacity left free.  The start plan sends each row to
its cheapest center with room, so an audit whose capacities do not bind is
certified by one vectorised pricing; binding ones pivot on a strongly
feasible tree.  Costs are exact integers for r == 2 and dist**r on a 2**40
scale otherwise (Python ints when int64 pricing could overflow), tight
enough for the 1e-9 cross-validation tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assignment import integralize, fractional_assign
from .common import OracleCapError, UsageError, is_infeasible
from .geometry import Point, dist_pow

INF = float("inf")

ORACLE_SCALE = 1 << 40

BRUTE_PARTITION_CAP = 10
BRUTE_OPT_CANDIDATE_CAP = 3_000_000


def _transport_plan(costs, supply, cap):
    """Optimal plan {(row, column): units} of one transportation problem.

    Row i ships supply[i] > 0 units, each of the k columns takes at most
    cap, and a unit from row i to column j costs the integer costs[i][j].
    A slack row (index len(costs)) ships the k * cap - sum(supply) units
    the columns keep free, at cost 0.

    Primal transportation simplex with MODI pricing.  The tree is rooted at
    the slack row and kept strongly feasible: the row of every zero-flow
    tree cell lies nearer the root than its column, and the leaving cell is
    the first blocking one met on the pivot cycle from its apex along the
    entering direction (Cunningham, Math. Programming 11, 1976), which rules
    out cycling on the degenerate instances ties produce.  A tree has at most
    k - 1 rows of degree two or more; every other row is a leaf whose
    potential is read off its one column, so each pricing is a few numpy
    passes over the (rows + 1) x k cost array and only the core of columns
    and branching rows is walked in Python.  Flows stay Python ints.
    """
    m, k = len(costs), len(costs[0])
    slack, nodes = m, m + 1      # rows are nodes 0..m, column j is node m+1+j
    table = costs + [[0] * k]
    top = max(map(max, costs))
    # potentials stay within 2k tree steps of the root: (4k + 2) * top
    # bounds every reduced cost, or pricing runs on Python ints
    C = np.array(table, dtype=np.int64 if (4 * k + 2) * top < 1 << 62
                 else object)

    # start: rows by decreasing regret, each to its cheapest column with
    # room, split when a column fills; the slack row fills the rest
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
    # positive cells form a forest; zero-flow slack cells join the columns
    # cut off from the slack row (union-find over columns, the slack row k)
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
            return flow
        i, j = divmod(e, k)
        up_i, up_j = to_root(i), to_root(nodes + j)
        while len(up_i) > 1 and len(up_j) > 1 and up_i[-2] == up_j[-2]:
            up_i.pop()
            up_j.pop()
        # the cycle from its apex: down to row i, across (i, j), up again
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
        val = sum(w[i] * costs[i][lab] for i, lab in enumerate(labels))
        if val < best:
            best = val
    return best


def lattice_points(Delta: int, d: int):
    return [Point(c) for c in itertools.product(range(1, Delta + 1), repeat=d)]


def sample_lattice(rng, Delta: int, d: int, k: int) -> tuple:
    """rng.sample(lattice_points(Delta, d), k), without building the lattice.

    The draw takes the same indices; index idx decodes in the lattice's
    itertools.product order, coordinate i being idx // Delta**(d-1-i) % Delta.
    """
    if k > Delta ** d:
        raise UsageError(f"cannot draw {k} distinct centers from the "
                         f"{Delta ** d} lattice points")
    return tuple(Point(tuple(idx // Delta ** (d - 1 - i) % Delta + 1
                             for i in range(d)))
                 for idx in rng.sample(range(Delta ** d), k))


def brute_opt(points, k, r, Delta, d):
    """Exact uncapacitated optimum over center sets from the full grid."""
    candidates = lattice_points(Delta, d)
    M = len(candidates)
    total = math.comb(M, k)
    if total > BRUTE_OPT_CANDIDATE_CAP:
        raise OracleCapError(
            f"brute_opt would enumerate {total} center sets (cap "
            f"{BRUTE_OPT_CANDIDATE_CAP})")
    pts = list(points)
    D = np.array([[dist_pow(p, z, r) for z in candidates] for p in pts],
                 dtype=float).reshape(len(pts), M)
    # center sets in lexicographic order: each prefix of k - 1 centers
    # scores every last center after its own at once
    best_val, best_combo = INF, None
    for prefix in itertools.combinations(range(M - 1), k - 1):
        first = prefix[-1] + 1 if prefix else 0
        near = D[:, prefix].min(axis=1, initial=INF)
        rest = np.minimum(near[:, None], D[:, first:]).sum(axis=0)
        j = int(rest.argmin())
        if rest[j] < best_val:
            best_val, best_combo = float(rest[j]), prefix + (first + j,)
    return best_val, tuple(candidates[j] for j in best_combo)


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


class CostCurve:
    """cost_t of one (point set, centers) pair at any number of capacities.

    The set-up runs once.  The rows that ship units (1 per point, or weight
    * ORACLE_SCALE) come first, in the order of their first shipping point,
    then the rows that ship none.  The dist^r table is numpy int64 for
    r == 2 while it fits, dist_pow otherwise.
    """

    def __init__(self, points, centers, r, weights=None):
        self.points = list(points)
        self.centers = list(centers)
        self.r = r
        self.weights = weights
        self._cache = {}
        self._k2 = None
        self._costs = None
        unit = weights is None
        self._units = [1] * len(self.points) if unit else \
            [round(weights[p] * ORACLE_SCALE) for p in self.points]
        rows = dict.fromkeys(p.coords for p, x
                             in zip(self.points, self._units) if x)
        self._supply = [0] * len(rows)
        rows |= dict.fromkeys(p.coords for p in self.points)
        index = {c: i for i, c in enumerate(rows)}
        self._row_of = [index[p.coords] for p in self.points]
        for i, x in zip(self._row_of, self._units):
            if x:
                self._supply[i] += x
        self._total = sum(self._supply)
        self._dist = self._table(list(rows))

    def _table(self, coords):
        """dist^r of each row to each center: exact integers for r == 2."""
        r = self.r
        if not coords:
            return []
        every = coords + [z.coords for z in self.centers]
        span = max(abs(x) for c in every for x in c)
        d = len(coords[0])
        if r == 2 and len(set(map(len, every))) == 1 and \
                d * (2 * span) ** 2 < 1 << 63:
            # dist_pow below rejects mixed dimensions and keeps huge ones
            # exact
            rc = np.array(coords, dtype=np.int64)
            zc = np.array([z.coords for z in self.centers],
                          dtype=np.int64).reshape(-1, d)
            return ((rc[:, None, :] - zc[None, :, :]) ** 2).sum(axis=2).tolist()
        return [[dist_pow(Point(c), z, r) for z in self.centers]
                for c in coords]

    def at(self, t: float) -> float:
        """cost_t, INF when the capacities cannot hold the input."""
        if t not in self._cache:
            if not self.points:
                value = 0.0
            elif t == INF:
                near = [min(row) for row in self._dist]
                if self.weights is None:
                    value = float(sum(near[i] for i in self._row_of))
                else:
                    value = float(sum(self.weights[p] * near[i] for p, i
                                      in zip(self.points, self._row_of)))
            elif len(self.centers) == 2:
                value = self._k2_at(t)
            else:
                value = self._solve(t)
            self._cache[t] = value
        return self._cache[t]

    def _k2_at(self, t: float) -> float:
        """Two centers: the nearest-center plan (base cost, per-side loads)
        and each side's switching penalties, sorted once, make each
        capacity a prefix walk over the heavier side's penalties."""
        unit = self.weights is None
        if self._k2 is None:
            base, tot = 0.0, [0.0, 0.0]
            counts = [0, 0]
            pens = ([], [])
            for p, i in zip(self.points, self._row_of):
                w = 1.0 if unit else self.weights[p]
                c0, c1 = self._dist[i]
                side = 0 if c0 <= c1 else 1
                tot[side] += w
                counts[side] += 1
                base += w * (c0 if side == 0 else c1)
                pens[side].append((abs(c1 - c0), w))
            self._k2 = (base, tot, counts, sorted(pens[0]), sorted(pens[1]))
        base, tot, counts, pens0, pens1 = self._k2
        cap = math.floor(t) if unit and t < INF else t
        if tot[0] + tot[1] > 2 * cap:
            return INF
        value = base
        for heavy, pens in ((0, pens0), (1, pens1)):
            if tot[heavy] <= cap:
                continue
            if unit:
                m = counts[heavy] - int(cap)
                value += sum(pen for pen, _ in pens[:m])
            else:
                move = tot[heavy] - cap
                for pen, w in pens:
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
        fractional optimum in ORACLE_SCALE units.  The value sums dist^r
        over the plan, point by point in input order.
        """
        unit = self.weights is None
        cap = math.floor(t) if unit else round(t * ORACLE_SCALE)
        if self._total > len(self.centers) * cap:
            return INF
        if not self._supply:
            return 0 if unit else 0.0
        dist = self._dist
        if self._costs is None:
            m = len(self._supply)
            self._costs = dist[:m] if self.r == 2 else \
                [[round(x * ORACLE_SCALE) for x in row] for row in dist[:m]]
        plan = _transport_plan(self._costs, self._supply, cap)
        # hand each row's shipments to its points, columns in increasing
        # order
        shipped = [[] for _ in self._supply]
        for (i, j), x in sorted(plan.items()):
            if x and i < len(shipped):
                shipped[i].append([j, x])
        value = 0 if unit else 0.0
        for i, x in zip(self._row_of, self._units):
            while x:
                part = shipped[i][0]
                take = min(x, part[1])
                if unit:
                    value += dist[i][part[0]]
                else:
                    value += take / ORACLE_SCALE * dist[i][part[0]]
                part[1] -= take
                x -= take
                if not part[1]:
                    shipped[i].pop(0)
        return value


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

    def clean(self) -> bool:
        return self.violations() == 0

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
