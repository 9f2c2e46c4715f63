"""Parameter schedule shared by every build mode.

All thresholds keep the functional forms of the published schedule.  Theory
mode uses the absolute constants as printed; practical(c) multiplies the two
sampling budgets lambda and lambda' by c, which scales each sampling
probability phi_i, psi_i, psi'_i by exactly c before clamping while leaving
gamma, xi, T_i and the FAIL caps untouched.  Desk-scale runs therefore keep
the deterministic gate behavior of the theory schedule and expose a single
knob for how aggressively points are subsampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .common import UsageError
from .geometry import MAX_DELTA, next_pow2

THEORY = "theory"
PRACTICAL = "practical"

# hash families of the construction: h and h' estimate cell and part sizes,
# hhat samples the coreset points
FAMILIES = ("h", "hp", "hhat")


@dataclass(frozen=True)
class Params:
    k: int
    r: float
    eps: float
    eta: float
    Delta: int
    d: int
    L: int
    mode: str
    scale: float
    # derived, fixed at construction
    gamma: float
    xi: float
    lam: float
    lam_prime: float

    # --- per-level quantities ------------------------------------------
    def side(self, i: int) -> float:
        return 2.0 * self.Delta if i == -1 else self.Delta / (1 << i)

    def T(self, i: int, o: float) -> float:
        return 0.01 * o / (math.sqrt(self.d) * self.side(i)) ** self.r

    def d_pow(self) -> float:
        return self.d ** (1.5 * self.r)

    def phi(self, i: int, o: float) -> float:
        raw = 2.0 ** (2 * (self.r + 10)) * self.lam / (self.xi**3 * self.gamma * self.T(i, o))
        return min(1.0, raw)

    def psi(self, i: int, o: float) -> float:
        return min(1.0, 1e6 * self.lam_prime / self.T(i, o))

    def psi_prime(self, i: int, o: float) -> float:
        return min(1.0, 1e6 * self.lam_prime / (self.gamma * self.T(i, o)))

    def rate(self, family: str, i: int, o: float) -> float:
        """The sampling rate of a hash family at level i for guess o: psi
        for h, psi' for h' and phi for hhat."""
        rates = {"h": self.psi, "hp": self.psi_prime, "hhat": self.phi}
        if family not in rates:
            raise UsageError(f"unknown hash family {family!r}")
        return rates[family](i, o)

    # --- FAIL gates and store caps --------------------------------------
    def heavy_cell_cap(self) -> float:
        return 20000.0 * (self.k + self.d_pow()) * self.L

    def part_sum_cap(self, i: int, o: float) -> float:
        return 10000.0 * (self.k * self.L + self.d_pow()) * self.T(i, o)

    def caps(self, family: str, i: int, o: float):
        """(alpha, beta): the cell cap and light-cell point cap of a store of
        the family at level i for guess o, the one cap table of every mode.
        alpha grows with the family's sampling rate; beta is 0 for the
        counting families h and h': only hhat's points become entries."""
        rate = self.rate(family, i, o)
        T = self.T(i, o)
        alpha = 1e6 * (self.k + self.d_pow() * rate * T) * self.L**2
        if family != "hhat":
            return alpha, 0.0
        return alpha, 4e6 * (self.k + self.d_pow()) * self.L**2 * rate * T

    # --- hash construction ----------------------------------------------
    def hash_lambda(self) -> int:
        return max(4, 2 * math.ceil(self.lam / 2))

    def hash_lambda_prime(self) -> int:
        return max(4, 2 * math.ceil(self.lam_prime / 2))

    def o_grid_limit(self, n: int) -> float:
        return n * (math.sqrt(self.d) * self.Delta) ** self.r

    def serialize(self) -> str:
        pairs = [
            ("k", self.k), ("r", repr(float(self.r))),
            ("eps", repr(self.eps)), ("eta", repr(self.eta)),
            ("Delta", self.Delta), ("d", self.d),
            ("mode", self.mode), ("scale", repr(self.scale)),
        ]
        return " ".join(f"{key}={val}" for key, val in pairs)


def derive(k: int, r: float, eps: float, eta: float, Delta: int, d: int,
           mode: str = THEORY, scale: float = 1.0) -> Params:
    if k < 1 or int(k) != k:
        raise UsageError(f"k must be a positive integer, got {k}")
    if not (math.isfinite(r) and r >= 1):
        raise UsageError(f"r must be finite and >= 1, got {r}")
    for name, val in (("eps", eps), ("eta", eta)):
        if not 0.0 < val <= 0.5:
            raise UsageError(f"{name} must lie in (0, 0.5], got {val}")
    if d < 1:
        raise UsageError(f"d must be >= 1, got {d}")
    if Delta < 2 or Delta & (Delta - 1):
        raise UsageError(f"Delta must be a power of two >= 2, got {Delta}")
    if Delta > MAX_DELTA:
        # coordinates and lattices are int64 in builds and store blobs
        raise UsageError(f"Delta must be at most 2^62, got {Delta}")
    if mode not in (THEORY, PRACTICAL):
        raise UsageError(f"unknown mode {mode!r}")
    if mode == THEORY:
        scale = 1.0
    elif not (math.isfinite(scale) and scale > 0):
        raise UsageError(f"practical scale must be positive and finite, "
                         f"got {scale}")

    L = Delta.bit_length() - 1
    if k * d * L < 2:
        raise UsageError("degenerate configuration: k*d*log2(Delta) must be >= 2")
    d_pow = d ** (1.5 * r)
    gamma = 2.0 ** (-2 * (r + 10)) * min(eta / (k * L), eps / ((k + d_pow) * L))
    xi = 2.0 ** (-2 * (r + 10)) * min(eps, eta) / (k * (k + d_pow) * L**2)
    lam = scale * 1e6 * r * k**3 * d * L * math.ceil(math.log2(k * d * L))
    lam_prime = scale * 100.0 * d * L
    return Params(k=int(k), r=float(r), eps=float(eps), eta=float(eta),
                  Delta=int(Delta), d=int(d), L=L, mode=mode, scale=float(scale),
                  gamma=gamma, xi=xi, lam=lam, lam_prime=lam_prime)


def derive_rounding_delta(Delta_requested: int):
    """CLI-facing rounding of Delta to the next power of two."""
    Delta = next_pow2(Delta_requested)
    return Delta, Delta != Delta_requested


def parse_serialized(text: str) -> Params:
    kv = {}
    for tok in text.split():
        key, _, val = tok.partition("=")
        kv[key] = val
    return derive(
        k=int(kv["k"]), r=float(kv["r"]), eps=float(kv["eps"]), eta=float(kv["eta"]),
        Delta=int(kv["Delta"]), d=int(kv["d"]), mode=kv["mode"], scale=float(kv["scale"]),
    )
