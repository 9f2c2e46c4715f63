"""Capacitated assignment construction from a coreset.

Pipeline: a fractional optimum of the relaxed transportation problem
(successive shortest paths over the k center nodes, in scaled exact
integers), cycle elimination down to at most k-1 split points, rounding of
the split points to their nearest centers, per-level canonicalization by
switching tied pairs into alphabetic order, half-space extraction, and
finally the transferred assignment that extends the canonicalized coreset
assignment to the full input.

Every step reads one dist^r table per point set, geometry.dist_table (the
table the oracle reads too): an (n, k) numpy array of the points'
distances to the centers, each entry equal to dist_pow, exact integers for
r = 2.  Scaled flow costs round each entry times the scale half to even
(geometry.scaled_table), a pair key dist^r(x, z_i) - dist^r(x, z_j) is a
difference of two columns, and a point's nearest center is
geometry.nearest_centers' first argmin of its squared distances.

transfer_full runs over the input in columns: each point's part in one
pass per level (PartitionStructure.parts), each level's half-spaces as
masks, the parts' estimated region masses b by one np.bincount in entry
order (so each sum runs left to right, as a loop would add them).  Its
mapping keeps the insertion order of the per-point rule: the kept parts in
the order they first appear in the input, input order within a part, then
the points outside every kept part, whose cost() sums in that order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .common import INFEASIBLE, UsageError, is_infeasible
from .geometry import (Point, alph_less, coord_array, dist_pow, dist_table,
                       nearest_centers, scaled_table)

FLOW_SCALE = 1 << 20  # weight/cost quantization inside the flow solver


class MinCostFlow:
    """Successive shortest augmenting paths with node potentials.

    A general min-cost flow over an explicit graph.  No pipeline code calls
    it: it is the tests' reference for the oracle's transportation simplex
    (oracle._transport_plan).
    """

    def __init__(self, n: int):
        self.n = n
        self.graph = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int, cost: int):
        self.graph[u].append([v, cap, cost, len(self.graph[v]), cap])
        self.graph[v].append([u, 0, -cost, len(self.graph[u]) - 1, 0])
        return (u, len(self.graph[u]) - 1)

    def flow_on(self, handle) -> int:
        u, idx = handle
        edge = self.graph[u][idx]
        return edge[4] - edge[1]

    def solve(self, s: int, t: int, max_flow):
        """Push up to max_flow units; returns (flow, cost) in scaled units."""
        n = self.n
        flow = 0
        cost = 0
        potential = [0] * n
        while flow < max_flow:
            dist = [None] * n
            parent = [None] * n
            dist[s] = 0
            heap = [(0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if dist[u] is not None and d > dist[u]:
                    continue
                for idx, edge in enumerate(self.graph[u]):
                    v, cap, c = edge[0], edge[1], edge[2]
                    if cap <= 0:
                        continue
                    nd = d + c + potential[u] - potential[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        parent[v] = (u, idx)
                        heapq.heappush(heap, (nd, v))
            if dist[t] is None:
                break
            for v in range(n):
                if dist[v] is not None:
                    potential[v] += dist[v]
            push = max_flow - flow
            v = t
            while v != s:
                u, idx = parent[v]
                push = min(push, self.graph[u][idx][1])
                v = u
            v = t
            while v != s:
                u, idx = parent[v]
                edge = self.graph[u][idx]
                edge[1] -= push
                self.graph[v][edge[3]][1] += push
                cost += push * edge[2]
                v = u
            flow += push
        return flow, cost


class TransportSolver:
    """Min-cost transportation from points to k capacitated centers.

    Successive shortest paths in exact integers, with the points inserted
    one at a time (the few-sink transportation problem; Tokuyama & Nakano,
    SIAM J. Comput. 1995).  The residual graph is collapsed onto the k
    centers and the sink: the edge a -> b is the cheapest move of an
    inserted point from a to b, costs[q][b] - costs[q][a] over the points q
    holding units at a, read from one lazy heap per ordered pair.  Node
    potentials keep the reduced costs non-negative, so each augmenting path
    is a Dijkstra over k + 1 nodes.
    """

    def __init__(self, caps):
        k = len(caps)
        self.k = k
        self.caps = list(caps)
        self.load = [0] * k
        self.costs = []    # per inserted point: its k scaled costs
        self.shares = []   # per inserted point: {center: units}
        self._pot = [0] * (k + 1)   # centers 0..k-1, then the sink
        # _moves[a][b]: heap of (costs[q][b] - costs[q][a], q), stale once
        # q holds no units at a
        self._moves = [[[] for _ in range(k)] for _ in range(k)]

    def insert(self, costs, supply: int) -> bool:
        """Route a new point's supply; False when capacity runs out."""
        q = len(self.costs)
        self.costs.append(costs)
        self.shares.append({})
        while supply:
            path = self._shortest_path(costs)
            if path is None:
                return False
            first, moves, end = path
            push = min(supply, self.caps[end] - self.load[end],
                       *[self.shares[m][a] for a, _, m in moves])
            self._add(q, first, push)
            # in path order, so a point moved a -> b -> c never empties b
            for a, b, m in moves:
                self._add(m, b, push)
                self._take(m, a, push)
            self.load[end] += push
            supply -= push
        return True

    def _add(self, q: int, j: int, units: int):
        share = self.shares[q]
        if j in share:
            share[j] += units
            return
        share[j] = units
        c = self.costs[q]
        for b in range(self.k):
            if b != j:
                heapq.heappush(self._moves[j][b], (c[b] - c[j], q))

    def _take(self, q: int, j: int, units: int):
        share = self.shares[q]
        share[j] -= units
        if not share[j]:
            del share[j]

    def _shortest_path(self, costs):
        """Dijkstra from a new point to the sink; updates the potentials.

        Returns (first center, [(from, to, moved point)], last center), or
        None when no center has spare capacity.
        """
        k, pot, shares = self.k, self._pot, self.shares
        sink = k
        dist = [c - pot[j] for j, c in enumerate(costs)] + [None]
        via = [None] * k   # (previous center, moved point); None: direct
        todo = list(range(k + 1))
        while True:
            u = None
            for v in todo:
                if dist[v] is not None and (u is None or dist[v] < dist[u]):
                    u = v
            if u is None:
                return None
            todo.remove(u)
            if u == sink:
                break
            du = dist[u] + pot[u]
            if self.load[u] < self.caps[u]:
                nd = du - pot[sink]
                if dist[sink] is None or nd < dist[sink]:
                    dist[sink], end = nd, u
            for b in todo:
                if b == sink:
                    continue
                heap = self._moves[u][b]
                while heap and u not in shares[heap[0][1]]:
                    heapq.heappop(heap)
                if heap and du + heap[0][0] - pot[b] < dist[b]:
                    dist[b], via[b] = du + heap[0][0] - pot[b], (u, heap[0][1])
        reach = dist[sink]
        for v in range(k + 1):
            pot[v] += reach if dist[v] is None else min(dist[v], reach)
        moves = []
        v = end
        while via[v] is not None:
            a, m = via[v]
            moves.append((a, v, m))
            v = a
        moves.reverse()
        return v, moves, end


def scaled_costs(table, scale) -> list:
    """round(dist^r * scale) per entry, rows as lists of Python ints."""
    return scaled_table(table, scale).tolist()


@dataclass
class Assignment:
    centers: tuple
    r: float
    mapping: dict                 # point -> center index
    weights: dict                 # point -> weight

    def cost(self) -> float:
        # a left fold in mapping order: builtin sum compensates from 3.12 on
        total = 0
        for p, i in self.mapping.items():
            total += self.weights[p] * dist_pow(p, self.centers[i], self.r)
        return total

    def size_vector(self):
        out = [0.0] * len(self.centers)
        for p, i in self.mapping.items():
            out[i] += self.weights[p]
        return out


class FractionalAssignment:
    """Optimal relaxed assignment; shares kept in scaled integer units."""

    def __init__(self, centers, r, weights, shares, scale, solver=None):
        self.centers = tuple(centers)
        self.r = r
        self.weights = dict(weights)
        self.shares = shares  # point -> {center index: scaled units}
        self.scale = scale
        self.solver = solver

    def cost(self) -> float:
        total = 0.0
        for p, alloc in self.shares.items():
            for j, units in alloc.items():
                total += units / self.scale * dist_pow(p, self.centers[j], self.r)
        return total

    def size_vector(self):
        out = [0.0] * len(self.centers)
        for alloc in self.shares.values():
            for j, units in alloc.items():
                out[j] += units / self.scale
        return out


def fractional_assign(points, weights, centers, t_cap, r,
                      scale: int = FLOW_SCALE):
    """Min-cost transportation plan with per-center capacity t_cap."""
    pts = list(points)
    k = len(centers)
    if not k:
        raise UsageError("need at least one center")
    if math.isnan(t_cap) or t_cap == -math.inf:
        raise UsageError(f"capacity must not be NaN or -inf, got {t_cap}")
    w_scaled = {p: round(weights[p] * scale) for p in pts}
    total = sum(w_scaled.values())
    if t_cap == float("inf"):
        nearest = nearest_centers(pts, centers).tolist()
        shares = {p: {j: w_scaled[p]} for p, j in zip(pts, nearest)}
        return FractionalAssignment(centers, r, weights, shares, scale)
    table = dist_table(pts, centers, r)
    t_scaled = round(t_cap * scale)
    if total > k * t_scaled:
        return INFEASIBLE
    solver = TransportSolver([t_scaled] * k)
    for p, costs in zip(pts, scaled_costs(table, scale)):
        if not solver.insert(costs, w_scaled[p]):
            return INFEASIBLE
    # centers in index order, the order cost() and integralize walk them
    shares = {p: dict(sorted(alloc.items()))
              for p, alloc in zip(pts, solver.shares)}
    return FractionalAssignment(centers, r, weights, shares, scale, solver=solver)


def integralize(frac: FractionalAssignment, stats: dict | None = None) -> Assignment:
    """Cycle elimination, then round the <= k-1 leftover split points."""
    if is_infeasible(frac):
        raise UsageError("cannot integralize an INFEASIBLE assignment")
    shares = {p: dict(alloc) for p, alloc in frac.shares.items()}
    k = len(frac.centers)

    def find_cycle():
        # bipartite graph on split edges; any cycle alternates point/center.
        # prune to the 2-core, then a no-backtrack walk must close a cycle
        adj = {}
        for p, alloc in shares.items():
            if len(alloc) > 1:
                for j in alloc:
                    adj.setdefault(("p", p), set()).add(("c", j))
                    adj.setdefault(("c", j), set()).add(("p", p))
        leaves = [n for n, nbrs in adj.items() if len(nbrs) <= 1]
        while leaves:
            node = leaves.pop()
            for nbr in adj.pop(node, ()):
                adj[nbr].discard(node)
                if len(adj[nbr]) == 1:
                    leaves.append(nbr)
        if not adj:
            return None
        start = next(iter(adj))
        path = [start]
        index = {start: 0}
        prev = None
        while True:
            node = path[-1]
            nxt = next(nb for nb in adj[node] if nb != prev)
            if nxt in index:
                return path[index[nxt]:]
            index[nxt] = len(path)
            path.append(nxt)
            prev = node

    while True:
        cycle = find_cycle()
        if cycle is None:
            break
        if cycle[0][0] == "c":
            cycle = cycle[1:] + cycle[:1]
        m = len(cycle) // 2
        pts = [cycle[2 * i][1] for i in range(m)]
        ctrs = [cycle[2 * i + 1][1] for i in range(m)]
        # move a units p_i: ctr_i -> ctr_{i-1}; cost-neutral at optimality
        a = min(shares[pts[i]][ctrs[i]] for i in range(m))
        for i in range(m):
            take_from, give_to = ctrs[i], ctrs[i - 1]
            shares[pts[i]][take_from] -= a
            if not shares[pts[i]][take_from]:
                del shares[pts[i]][take_from]
            shares[pts[i]][give_to] = shares[pts[i]].get(give_to, 0) + a

    split = [p for p, alloc in shares.items() if len(alloc) > 1]
    if stats is not None:
        stats["splits"] = len(split)
    if len(split) > k - 1:
        raise AssertionError(
            f"cycle elimination left {len(split)} split points (> k-1)")
    nearest = dict(zip(split, nearest_centers(split, frac.centers).tolist()))
    mapping = {p: nearest[p] if p in nearest else next(iter(alloc))
               for p, alloc in shares.items()}
    return Assignment(frac.centers, frac.r, mapping, dict(frac.weights))


# --- half-spaces and regions -------------------------------------------------

@dataclass(frozen=True)
class HalfSpace:
    """Prefix of [Delta]^d under the (key, alphabetic) order for one pair."""

    zi: Point
    zj: Point
    r: float
    kind: str          # "none" | "cut" | "all"
    cut_key: object = None
    cut_point: Point = None


def extract_halfspaces(points, mapping: dict, centers, r, table=None) -> dict:
    """Cutoffs separating each assigned pair; valid once switching has run.

    table: the points' dist_table, made here when not given."""
    k = len(centers)
    if table is None:
        table = dist_table(points, centers, r)
    at = np.array([mapping[p] for p in points], dtype=np.int64)
    out = {}
    for i in range(k):
        for j in range(i + 1, k):
            mine = np.flatnonzero(at == i)
            if not len(mine):
                out[(i, j)] = HalfSpace(centers[i], centers[j], r, "none")
            elif not (at == j).any():
                out[(i, j)] = HalfSpace(centers[i], centers[j], r, "all")
            else:
                # the largest (pair key, sort key) among the points at i
                keys = table[mine, i] - table[mine, j]
                top = np.flatnonzero(keys == keys.max()).tolist()
                at_top = max(top, key=lambda t: points[mine[t]].sort_key())
                out[(i, j)] = HalfSpace(centers[i], centers[j], r, "cut",
                                        keys[at_top:at_top + 1].tolist()[0],
                                        points[mine[at_top]])
    return out


def regions(table, coords, tags, halfspaces: dict) -> np.ndarray:
    """Each row's region index in 0..k, from its dist_table row, its
    coordinates and its tag.  H_(i,j) is a mask: pair key dist^r(x, z_i) -
    dist^r(x, z_j) below cut_key, or equal to it with the sort key at most
    the cut point's; for i > j it is the complement of H_(j,i).  A row's
    region is the first i whose k-1 memberships all hold, else 0."""
    m, k = table.shape
    contains = {}
    for (i, j), hs in halfspaces.items():
        if hs.kind != "cut":
            contains[(i, j)] = np.full(m, hs.kind == "all")
            continue
        keys = table[:, i] - table[:, j]
        tied = keys == hs.cut_key
        # (coords, tag) <= the cut point's, lexicographically
        less, equal = np.zeros(m, dtype=bool), np.ones(m, dtype=bool)
        for a, c in enumerate(hs.cut_point.coords):
            less |= equal & (coords[:, a] < c)
            equal &= coords[:, a] == c
        at_most = less | (equal & (tags <= hs.cut_point.tag))
        contains[(i, j)] = (keys < hs.cut_key) | (tied & at_most)
    out = np.zeros(m, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        member = np.ones(m, dtype=bool)
        for j in range(k):
            if j != i:
                member &= contains[(i, j)] if i < j else ~contains[(j, i)]
        out[member] = i + 1
    return out


# --- canonicalization --------------------------------------------------------

def _min_cost_same_sizes(points, sizes, table):
    """Min-cost reassignment with the exact per-center point counts; table
    is the points' dist_table."""
    solver = TransportSolver(sizes)
    for costs in scaled_costs(table, FLOW_SCALE):
        if not solver.insert(costs, 1):
            raise AssertionError("size-preserving reassignment infeasible")
    return {p: next(iter(share)) for p, share in zip(points, solver.shares)}


def switch_ties(points, mapping: dict, centers, r, audit: list | None = None,
                table=None):
    """Reorder tied pairs so alphabetically smaller points sit at lower centers.

    Each scan takes the pairs (i, j) in order and the points of i in input
    order, and switches the first p with an alphabetically smaller q at j of
    equal pair key (the first such q in input order), then starts over.
    Strict key inversions cannot occur at min cost; each executed switch
    strictly decreases the rank potential, which bounds the loop.
    table: the points' dist_table, made here when not given.
    """
    k = len(centers)
    if table is None:
        table = dist_table(points, centers, r)
    rank = {p: n for n, p in enumerate(sorted(points, key=lambda q: q.sort_key()))}
    keys = {(i, j): dict(zip(points, (table[:, i] - table[:, j]).tolist()))
            for i in range(k) for j in range(i + 1, k)}
    potential = sum((k - mapping[p]) * rank[p] for p in points) \
        if audit is not None else None

    def first_switch():
        for (i, j), key in keys.items():
            theirs = {}
            for q in points:
                if mapping[q] == j:
                    theirs.setdefault(key[q], []).append(q)
            if not theirs:
                continue
            for p in points:
                if mapping[p] == i:
                    for q in theirs.get(key[p], ()):
                        if alph_less(q, p):
                            return i, j, p, q
        return None

    while (found := first_switch()) is not None:
        i, j, p, q = found
        mapping[p], mapping[q] = j, i
        if audit is not None:
            after = potential + (j - i) * (rank[q] - rank[p])
            audit.append((potential, after))
            potential = after
    return mapping


def canonicalize(by_level: dict, centers, r, audit: list | None = None):
    """Per-level size-preserving re-optimization, switching and half-spaces.

    by_level: level -> list of (point, weight) with the incoming center index
    in a parallel mapping; accepts {level: (points, weights, mapping)}.
    Returns (assignment, {level: halfspace dict}).
    """
    k = len(centers)
    out_map = {}
    out_weights = {}
    halfspaces = {}
    for lvl, (pts, weights, mapping) in sorted(by_level.items()):
        if pts:
            sizes = [0] * k
            for p in pts:
                sizes[mapping[p]] += 1
            table = dist_table(pts, centers, r)
            remapped = _min_cost_same_sizes(pts, sizes, table)
            remapped = switch_ties(pts, remapped, centers, r, audit,
                                   table=table)
        else:
            remapped, table = {}, None
        halfspaces[lvl] = extract_halfspaces(pts, remapped, centers, r,
                                             table=table)
        for p in pts:
            out_map[p] = remapped[p]
            out_weights[p] = weights[p]
    return Assignment(tuple(centers), r, out_map, out_weights), halfspaces


# --- transferred assignment over the full input ------------------------------

def transferred_assignment(region, part, b, threshold) -> np.ndarray:
    """The direct transfer rule, over points of kept parts: a point in
    region i >= 1 of its part goes to center i - 1 when the part's estimated
    mass b[part, i] reaches the part's threshold (2 xi T), every other point
    to the center of its part's heaviest region (the smallest i on ties).

    region, part: per point; b: (parts, k + 1) masses, column 0 the mass
    outside every region; threshold: per part."""
    heaviest = np.argmax(b[:, 1:], axis=1)
    enough = (region >= 1) & (b[part, region] >= threshold[part])
    return np.where(enough, region - 1, heaviest[part])


def transfer_full(full_points, coreset, halfspaces_by_level, centers):
    """Assignment of the whole input from the canonicalized coreset assignment.

    Points of kept parts follow the transferred assignment of their part;
    points outside every kept part go to their nearest center.  The input
    points and the coreset's entries share one dist^r table.
    """
    meta = coreset.meta
    params = meta.params
    structure = meta.structure
    k = len(centers)
    n = len(full_points)
    entries = coreset.entries
    points = list(full_points) + [e[0] for e in entries]
    coords = coord_array(points, params.d)
    tags = np.array([p.tag for p in points], dtype=np.int64)
    table = dist_table(coords, centers, params.r)

    # per row, the index of its kept part in part_tau's order, or -1; an
    # input point's part (i, j) is row offset[i] + j of a table over the
    # heavy cells of levels -1 .. L-1 (j ranks a heavy cell of level i - 1)
    kept = list(meta.part_tau)
    sizes = [len(structure.lattices[lvl]) for lvl in range(-1, structure.L)]
    offset = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    lookup = np.full(offset[-1], -1, dtype=np.int64)
    for m, (lvl, jj) in enumerate(kept):
        if 0 <= lvl <= structure.L and 0 <= jj < sizes[lvl]:
            lookup[offset[lvl] + jj] = m
    level, j = structure.parts(coords[:n])
    part = np.full(len(points), -1, dtype=np.int64)
    inside = np.flatnonzero(level >= 0)
    part[inside] = lookup[offset[level[inside]] + j[inside]]
    index = {kp: m for m, kp in enumerate(kept)}
    part[n:] = [index.get((lvl, jj), -1) for _, _, lvl, jj in entries]
    level = np.concatenate([level, np.array([e[2] for e in entries],
                                            dtype=np.int64)])

    region = np.zeros(len(points), dtype=np.int64)
    for lvl in np.flatnonzero(np.bincount(level[part >= 0])).tolist():
        rows = np.flatnonzero((level == lvl) & (part >= 0))
        hs = halfspaces_by_level.get(lvl)
        if hs is None:
            # a level without coreset entries: the half-spaces of no point
            hs = extract_halfspaces([], {}, centers, params.r)
        region[rows] = regions(table[rows], coords[rows], tags[rows], hs)

    # b: per kept part, the entries' weights by region, in entry order
    ent = np.arange(n, len(points))[part[n:] >= 0]
    w = np.array([e[1] for e in entries], dtype=np.float64)[ent - n]
    b = np.bincount(part[ent] * (k + 1) + region[ent], weights=w,
                    minlength=len(kept) * (k + 1)).reshape(len(kept), k + 1)
    # per kept part, 2 xi T with T = gamma T_i(o) / 2
    per_level = {lvl: 2 * params.xi * (0.5 * params.gamma
                                       * params.T(lvl, meta.o))
                 for lvl in {lvl for lvl, _ in kept}}
    threshold = np.array([per_level[lvl] for lvl, _ in kept],
                         dtype=np.float64)

    center = np.empty(n, dtype=np.int64)
    covered = np.flatnonzero(part[:n] >= 0)
    center[covered] = transferred_assignment(region[covered], part[covered],
                                             b, threshold)
    uncovered = np.flatnonzero(part[:n] < 0)
    center[uncovered] = nearest_centers(coords[uncovered], centers)

    # kept parts in order of first appearance, input order within a part,
    # then the uncovered points
    first = np.full(len(kept), n, dtype=np.int64)
    np.minimum.at(first, part[covered], covered)
    rank = np.full(n, n, dtype=np.int64)
    rank[covered] = first[part[covered]]
    order = np.argsort(rank, kind="stable").tolist()
    mapping = dict(zip([full_points[m] for m in order],
                       center[order].tolist()))
    weights = {p: 1.0 for p in full_points}
    return Assignment(tuple(centers), params.r, mapping, weights)


def assignment_from_coreset(coreset, centers, t_cap, audit: list | None = None):
    """Full pipeline on a coreset: fractional -> integral -> canonical."""
    r = coreset.meta.params.r
    pts = coreset.points()
    weights = coreset.weights()
    frac = fractional_assign(pts, weights, centers, t_cap, r)
    if is_infeasible(frac):
        return INFEASIBLE, None, None
    integral = integralize(frac)
    by_level = {}
    for p, w, lvl, j in coreset.entries:
        entry = by_level.setdefault(lvl, ([], {}, {}))
        entry[0].append(p)
        entry[1][p] = w
        entry[2][p] = integral.mapping[p]
    canonical, halfspaces = canonicalize(by_level, centers, r, audit)
    return integral, canonical, halfspaces
