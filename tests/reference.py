"""Scalar references the tests check the package against.

None of this is on a CLI path.  Each definition is the plain statement of
something the package computes another way:

- pair_key, contains, halfspace_member and region_of are the half-space
  and region definitions, one point at a time, that assignment.regions
  evaluates over rows of a dist_table;
- has_negative_residual_cycle certifies that a TransportSolver's routed
  plan is a min-cost one;
- brute_opt is the exact uncapacitated optimum over every center set of
  the grid, the OPT the coreset and partition tests scale o by;
- coreset_size_bound is the closed-form size bound of the theory schedule;
- CALIBRATED_PRACTICAL_SCALE is the practical-mode scale the sandwich
  audit tests run at.
"""

import itertools
import math

import numpy as np

from capacore.common import OracleCapError, UsageError
from capacore.geometry import Point, dist_pow
from capacore.params import THEORY

# calibrated practical-mode scale for the desk-scale sandwich audit: the
# pre-registered sweep in tests/calibration_sweep.py selected the smallest
# candidate with >= 18/20 clean seeds (3e-57 scored 19/20; 5e-57 and above
# scored 20/20; 2e-57 and below fail).  At this scale the level-L sampling
# rate is genuinely below 1 on the audit instances.
CALIBRATED_PRACTICAL_SCALE = 3e-57

BRUTE_OPT_CANDIDATE_CAP = 3_000_000


# --- half-spaces and regions -------------------------------------------------

def pair_key(x: Point, zi: Point, zj: Point, r: float):
    """dist^r(x, zi) - dist^r(x, zj); exact integer for r == 2."""
    return dist_pow(x, zi, r) - dist_pow(x, zj, r)


def contains(hs, x: Point) -> bool:
    """x lies in the HalfSpace hs: the prefix of [Delta]^d under the (pair
    key, sort key) order up to hs's cut point."""
    if hs.kind == "none":
        return False
    if hs.kind == "all":
        return True
    key = pair_key(x, hs.zi, hs.zj, hs.r)
    if key != hs.cut_key:
        return key < hs.cut_key
    return x.sort_key() <= hs.cut_point.sort_key()


def halfspace_member(halfspaces: dict, i: int, j: int, x: Point) -> bool:
    """Membership in H_(i,j); for i > j this is the complement of H_(j,i)."""
    if i < j:
        return contains(halfspaces[(i, j)], x)
    return not contains(halfspaces[(j, i)], x)


def region_of(x: Point, halfspaces: dict, k: int) -> int:
    """Region index in 0..k; region 0 collects points no center claims."""
    for i in range(k):
        if all(halfspace_member(halfspaces, i, j, x) for j in range(k) if j != i):
            return i + 1
    return 0


# --- flow optimality ---------------------------------------------------------

def has_negative_residual_cycle(solver) -> bool:
    """Bellman-Ford over a TransportSolver's residual graph on the centers
    and the sink.

    Edges are recomputed from the shares, not read from the solver's heaps;
    False certifies that the routed plan is a min-cost one.
    """
    k = solver.k
    edges = []
    for a in range(k):
        held = [c for c, share in zip(solver.costs, solver.shares) if a in share]
        for b in range(k):
            if b != a and held:
                edges.append((a, b, min(c[b] - c[a] for c in held)))
        if solver.load[a] < solver.caps[a]:
            edges.append((a, k, 0))
        if solver.load[a]:
            edges.append((k, a, 0))
    dist = [0] * (k + 1)
    for _ in range(k + 1):
        changed = False
        for u, v, c in edges:
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            return False
    return True


# --- exhaustive optimum ------------------------------------------------------

def lattice_points(Delta: int, d: int):
    """Every point of [Delta]^d, in itertools.product order."""
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
    D = np.array([[dist_pow(p, z, r) for z in candidates] for p in pts],
                 dtype=float).reshape(len(pts), M)
    # center sets in lexicographic order: each prefix of k - 1 centers
    # scores every last center after its own at once
    best_val, best_combo = math.inf, None
    for prefix in itertools.combinations(range(M - 1), k - 1):
        first = prefix[-1] + 1 if prefix else 0
        near = D[:, prefix].min(axis=1, initial=math.inf)
        rest = np.minimum(near[:, None], D[:, first:]).sum(axis=0)
        j = int(rest.argmin())
        if rest[j] < best_val:
            best_val, best_combo = float(rest[j]), prefix + (first + j,)
    return best_val, tuple(candidates[j] for j in best_combo)


# --- size bound --------------------------------------------------------------

def coreset_size_bound(params) -> int:
    """Closed-form size bound of the theory schedule (integer floor)."""
    if params.mode != THEORY:
        raise UsageError("size bound is defined for theory mode")
    k, r, d, L = params.k, params.r, params.d, params.L
    base = 8 * 10**12 * 2.0 ** (10 * (r + 10)) * r * k**6 * d
    base *= (k + params.d_pow()) ** 5 * L**10 * math.log2(k * d * L)
    return int(base / min(params.eps, params.eta) ** 4)
