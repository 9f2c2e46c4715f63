"""Lambda-wise independent Bernoulli indicator hashes over [Delta]^d.

A hash draws lambda uniform coefficients of a degree-(lambda-1) polynomial
over a prime field; distinct points encode injectively into field elements,
so any lambda of them receive jointly uniform field values.  The Bernoulli
bit compares the field value against floor(prob * modulus), which couples
hashes that share (seed, lambda): lowering prob only shrinks the accepted
prefix.  That coupling is what makes runs for different guesses o reuse one
polynomial per level.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import kernels
from .common import UsageError
from .geometry import TAG_SPACE, Point

# Mersenne primes; smallest exceeding the encoding range is selected.
PRIME_LADDER = (
    (1 << 61) - 1,
    (1 << 89) - 1,
    (1 << 107) - 1,
    (1 << 127) - 1,
    (1 << 521) - 1,
)

QUANTIZATION_LIMIT = 2.0 ** -60


class PointEncoder:
    """Injective packing of (coords, tag) into one field element."""

    def __init__(self, Delta: int, d: int):
        self.Delta = Delta
        self.d = d
        self.range = (Delta ** d) * TAG_SPACE
        for p in PRIME_LADDER:
            if p > self.range:
                self.modulus = p
                break
        else:
            raise UsageError("domain too large for the supported prime ladder")

    def encode(self, p: Point) -> int:
        acc = 0
        for c in reversed(p.coords):
            acc = acc * self.Delta + (c - 1)
        code = p.tag + 1
        if not 0 <= code < TAG_SPACE:
            raise UsageError(f"tag {p.tag} outside supported range")
        return acc * TAG_SPACE + code

    def decode(self, value: int) -> Point:
        code = value % TAG_SPACE
        acc = value // TAG_SPACE
        coords = []
        for _ in range(self.d):
            coords.append(acc % self.Delta + 1)
            acc //= self.Delta
        return Point(tuple(coords), code - 1)


def exact_threshold(prob: float, modulus: int) -> int:
    """floor(prob * modulus) computed exactly from the float's rational value."""
    if prob <= 0:
        return 0
    if prob >= 1:
        return modulus
    return int(Fraction(prob) * modulus)


class KWiseHash:
    """Bernoulli(prob) indicator with lambda-wise independent outputs."""

    def __init__(self, seed: int, lam: int, prob: float, encoder: PointEncoder):
        if lam < 4 or lam % 2:
            raise UsageError(f"lambda must be an even integer >= 4, got {lam}")
        if not 0.0 <= prob <= 1.0:
            raise UsageError(f"prob must lie in [0, 1], got {prob}")
        self.seed = seed
        self.lam = lam
        self.prob = prob
        self.encoder = encoder
        self.modulus = encoder.modulus
        self.threshold = exact_threshold(prob, self.modulus)
        self.quantization = 1.0 / self.modulus
        assert self.quantization < QUANTIZATION_LIMIT
        self._coeffs = None

    @property
    def coeffs(self):
        # degenerate probabilities never consult the polynomial
        if self._coeffs is None:
            rng = random.Random(self.seed)
            self._coeffs = tuple(rng.randrange(self.modulus) for _ in range(self.lam))
        return self._coeffs

    def field_value(self, p: Point) -> int:
        return kernels.poly_eval_one(self.coeffs, self.encoder.encode(p), self.modulus)

    def field_values(self, points) -> list:
        encs = [self.encoder.encode(p) for p in points]
        return kernels.poly_eval_batch(self.coeffs, encs, self.modulus)

    def eval(self, p: Point) -> bool:
        if self.threshold == 0:
            return False
        if self.threshold == self.modulus:
            return True
        return self.field_value(p) < self.threshold

    def eval_many(self, points) -> list:
        if self.threshold == 0:
            return [False] * len(points)
        if self.threshold == self.modulus:
            return [True] * len(points)
        t = self.threshold
        return [v < t for v in self.field_values(points)]


def kwise_new(seed: int, lam: int, prob: float, Delta: int, d: int) -> KWiseHash:
    return KWiseHash(seed, lam, prob, PointEncoder(Delta, d))
