"""Ground-truth machinery for validating coresets and assignments.

exact_cost realizes the capacitated cost with the oracle's own transportation
flow, a general min-cost flow over n + k + 2 nodes (MinCostFlow) that shares
no code with the assignment pipeline's k-node solver: integral for unit
weights, the fractional relaxation for weighted inputs.  For k == 2 it takes
CostCurve's exchange-greedy prefix walk instead, which the tests cross-check
against both the flow and the brute-force enumeration.  Oracle flows use
exact integer costs for r == 2 and a 2**40 scale otherwise, tight enough for
the 1e-9 cross-validation tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assignment import MinCostFlow, integralize, fractional_assign
from .common import OracleCapError, UsageError, is_infeasible
from .geometry import Point, dist_pow

INF = float("inf")

ORACLE_SCALE = 1 << 40

BRUTE_PARTITION_CAP = 10
BRUTE_OPT_CANDIDATE_CAP = 3_000_000


def _scaled_cost(p: Point, z: Point, r: float) -> int:
    if r == 2:
        return dist_pow(p, z, 2) * ORACLE_SCALE
    return round(dist_pow(p, z, r) * ORACLE_SCALE)


def _cost_flow(points, centers, t, r, weights=None):
    """Transportation optimum via min-cost flow.

    Unit weights (weights None) give the integral optimum at capacity
    floor(t) (flow integrality); weights give the fractional optimum in
    ORACLE_SCALE units.
    """
    n, k = len(points), len(centers)
    if weights is None:
        supply = [1] * n
        cap = math.floor(t)
    else:
        supply = [round(weights[p] * ORACLE_SCALE) for p in points]
        cap = round(t * ORACLE_SCALE)
    total = sum(supply)
    if total > k * cap:
        return INF
    net = MinCostFlow(n + k + 2)
    src, sink = n + k, n + k + 1
    handles = {}
    for i, p in enumerate(points):
        net.add_edge(src, i, supply[i], 0)
        for j, z in enumerate(centers):
            handles[(i, j)] = net.add_edge(i, n + j, supply[i],
                                           _scaled_cost(p, z, r))
    for j in range(k):
        net.add_edge(n + j, sink, cap, 0)
    flow, _ = net.solve(src, sink, total)
    if flow < total:
        return INF
    # unit weights sum exact integer costs for r == 2
    value = 0 if weights is None else 0.0
    for i, p in enumerate(points):
        for j in range(k):
            units = net.flow_on(handles[(i, j)])
            if not units:
                continue
            if weights is None:
                if units != 1:
                    raise AssertionError("unit-weight flow must be integral")
                value += dist_pow(p, centers[j], r)
            else:
                value += units / ORACLE_SCALE * dist_pow(p, centers[j], r)
    return value


def exact_cost(points, centers, t, r, weights=None, method: str = "auto"):
    """Capacitated clustering cost; INF when no feasible partition exists.

    Unit-weight inputs get the exact integral optimum (flow integrality);
    weighted inputs get the fractional transportation optimum, with the
    integralized value available separately as an upper bracket.
    """
    points = list(points)
    if not points:
        return 0.0
    if t == INF:
        if weights is None:
            return float(sum(min(dist_pow(p, z, r) for z in centers) for p in points))
        return float(sum(weights[p] * min(dist_pow(p, z, r) for z in centers)
                         for p in points))
    if method == "auto":
        method = "greedy2" if len(centers) == 2 else "flow"
    if method == "greedy2":
        if len(centers) != 2:
            raise UsageError("greedy2 path requires exactly two centers")
        return CostCurve(points, centers, r, weights).at(t)
    return _cost_flow(points, centers, t, r, weights)


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
    D = np.empty((len(pts), M))
    for jj, z in enumerate(candidates):
        for ii, p in enumerate(pts):
            D[ii, jj] = dist_pow(p, z, r)
    best_val, best_combo = INF, None
    if k == 1:
        sums = D.sum(axis=0)
        j = int(sums.argmin())
        return float(sums[j]), (candidates[j],)
    if k == 2:
        for a in range(M - 1):
            rest = np.minimum(D[:, a:a + 1], D[:, a + 1:]).sum(axis=0)
            j = int(rest.argmin())
            if rest[j] < best_val:
                best_val, best_combo = float(rest[j]), (a, a + 1 + j)
    elif k == 3:
        for a in range(M - 2):
            for b in range(a + 1, M - 1):
                base = np.minimum(D[:, a], D[:, b])[:, None]
                rest = np.minimum(base, D[:, b + 1:]).sum(axis=0)
                j = int(rest.argmin())
                if rest[j] < best_val:
                    best_val, best_combo = float(rest[j]), (a, b, b + 1 + j)
    else:
        for combo in itertools.combinations(range(M), k):
            val = float(D[:, combo].min(axis=1).sum())
            if val < best_val:
                best_val, best_combo = val, combo
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
    """cost_t for many capacities of one (point set, centers) pair.

    For two centers the exchange structure is precomputed once (base cost,
    per-side loads, sorted switching penalties), making each capacity query
    a prefix walk instead of a fresh solve.
    """

    def __init__(self, points, centers, r, weights=None):
        self.points = list(points)
        self.centers = list(centers)
        self.r = r
        self.weights = weights
        self._cache = {}
        self._k2 = None
        if len(centers) == 2 and self.points:
            z0, z1 = centers
            unit = weights is None
            base, tot = 0.0, [0.0, 0.0]
            counts = [0, 0]
            pens = ([], [])
            for p in self.points:
                w = 1.0 if unit else weights[p]
                c0, c1 = dist_pow(p, z0, r), dist_pow(p, z1, r)
                side = 0 if c0 <= c1 else 1
                tot[side] += w
                counts[side] += 1
                base += w * (c0 if side == 0 else c1)
                pens[side].append((abs(c1 - c0), w))
            self._k2 = (base, tot, counts,
                        tuple(sorted(pens[0])), tuple(sorted(pens[1])), unit)

    def _k2_at(self, t: float) -> float:
        base, tot, counts, pens0, pens1 = self._k2[:5]
        unit = self._k2[5]
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

    def at(self, t: float) -> float:
        if t not in self._cache:
            if self._k2 is not None:
                self._cache[t] = self._k2_at(t)
            else:
                self._cache[t] = exact_cost(self.points, self.centers, t,
                                            self.r, self.weights)
        return self._cache[t]


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
                fh.write(f"{row.z_id},{row.t!r},{row.form},{row.cost_Q!r},"
                         f"{row.cost_coreset_relaxed!r},{rounded},"
                         f"{row.ratio!r},{row.violated}\n")


def sandwich_audit(points, coreset, center_sets, t_values, eps=None, eta=None,
                   forms=(SYMMETRIC_FORM, TWO_TIER_FORM),
                   include_rounded: bool = False) -> AuditReport:
    """Evaluate the coreset guarantee for sampled centers and capacities.

    The symmetric form checks cost_{(1+eta)t}(Q) <= (1+eps) cost_t(Q', w') and
    cost_{(1+eta)t}(Q', w') <= (1+eps) cost_t(Q); the two-tier form checks
    the (1+eta)^2 / (1+eta) staircase of the strong-coreset definition.
    """
    params = coreset.meta.params
    eps = params.eps if eps is None else eps
    eta = params.eta if eta is None else eta
    r = params.r
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
