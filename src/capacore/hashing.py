"""Lambda-wise independent field-value hashes over [Delta]^d.

A hash draws lambda uniform coefficients of a degree-(lambda-1) polynomial
over a prime field; distinct points encode injectively into field elements,
so any lambda of them receive jointly uniform field values.  The hash only
computes field values: which values a sampling rate keeps is decided by
coreset.Sampling.
"""

from __future__ import annotations

import random

import numpy as np

from . import kernels
from .common import UsageError
from .geometry import TAG_SPACE, Point, check_domain

# Mersenne primes; smallest exceeding the encoding range is selected.
PRIME_LADDER = (
    kernels.MERSENNE_61,
    (1 << 89) - 1,
    (1 << 107) - 1,
    (1 << 127) - 1,
    (1 << 521) - 1,
)

# a rate is quantized to a multiple of 1/modulus, finer than this
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
        assert 1.0 / self.modulus < QUANTIZATION_LIMIT

    def encode(self, p: Point) -> int:
        """The code of p; a point outside the domain is a usage error."""
        coords, code = p.coords, p.tag + 1
        if len(coords) != self.d or not 0 <= code < TAG_SPACE or \
                not 1 <= min(coords) <= max(coords) <= self.Delta:
            check_domain((p,), self.Delta, self.d)
        acc = 0
        for c in reversed(coords):
            acc = acc * self.Delta + (c - 1)
        return acc * TAG_SPACE + code

    def decode(self, value: int) -> Point:
        code = value % TAG_SPACE
        acc = value // TAG_SPACE
        coords = []
        for _ in range(self.d):
            coords.append(acc % self.Delta + 1)
            acc //= self.Delta
        return Point(tuple(coords), code - 1)

    def encode_columns(self, coords, tags):
        """The codes of the points whose coordinates are the rows of coords
        (n x d) and whose tags are tags (n, each in [-1, TAG_SPACE - 2]),
        as an array: uint64 when the modulus is 2**61 - 1, where every code
        fits, else Python ints (dtype object)."""
        kind = np.dtype(np.uint64 if self.modulus == kernels.MERSENNE_61
                        else object).type
        acc = np.zeros(len(tags), dtype=kind)
        for j in reversed(range(self.d)):
            acc = acc * kind(self.Delta) + (coords[:, j] - 1).astype(kind)
        return acc * kind(TAG_SPACE) + (tags + 1).astype(kind)


class KWiseHash:
    """Field values of a lambda-wise independent polynomial hash."""

    def __init__(self, seed: int, lam: int, encoder: PointEncoder):
        if lam < 4 or lam % 2:
            raise UsageError(f"lambda must be an even integer >= 4, got {lam}")
        self.seed = seed
        self.lam = lam
        self.encoder = encoder
        self.modulus = encoder.modulus
        self._coeffs = None
        self._rev = None  # the coefficients, highest degree first

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._draw()
        return self._coeffs

    def _draw(self):
        # drawn on first use: hashes whose rates are 0 or 1 are never asked
        rng = random.Random(self.seed)
        self._coeffs = tuple(rng.randrange(self.modulus) for _ in range(self.lam))
        self._rev = self._coeffs[::-1]
        return self._rev

    def field_value(self, p: Point) -> int:
        return self.code_value(self.encoder.encode(p))

    def code_value(self, code: int) -> int:
        """The field value of a point given by its encoding under this
        hash's encoder, so that hashes sharing an encoder encode it once."""
        return kernels.horner(self._rev or self._draw(), code, self.modulus)

    def field_values(self, points):
        """The field values of points, Points or the array of their codes
        under this hash's encoder (PointEncoder.encode_columns), as an array
        (kernels.poly_eval_batch)."""
        if not isinstance(points, np.ndarray):
            points = [self.encoder.encode(p) for p in points]
        return kernels.poly_eval_batch(self.coeffs, points, self.modulus)
