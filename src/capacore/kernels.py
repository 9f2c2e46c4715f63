"""Polynomial evaluation over a prime field, the package's hot loop.

`horner` evaluates a degree-(lambda-1) polynomial at one field element with
Horner's rule in pure Python, from coefficients given highest degree first;
a stream update calls it once per hashed (family, level).
`poly_eval_batch` evaluates a polynomial at a batch of points.  Over the
Mersenne prime 2**61 - 1, the modulus of every domain whose codes fit
below it, it runs Horner's rule in numpy over the whole batch at once:
each product of two field elements is split into 32-bit limbs and folded
with 2**61 = 1 (Thorup, "High Speed Hashing for Integers and Strings",
arXiv:1504.06804), so that every intermediate fits a uint64.  Larger
moduli fall back to `horner` per point.
"""

from __future__ import annotations

import numpy as np

MERSENNE_61 = (1 << 61) - 1

# every limb operand is a uint64, so that no NumPy version promotes a
# uint64 array mixed with a Python int to float64
_P = np.uint64(MERSENNE_61)
_LOW32 = np.uint64((1 << 32) - 1)
_LOW29 = np.uint64((1 << 29) - 1)
_3, _29, _32, _61 = (np.uint64(s) for s in (3, 29, 32, 61))


def active_kernel() -> str:
    return "python"


def horner(rev, x, modulus):
    """sum(rev[-1-i]*x**i) mod modulus: rev lists the coefficients from the
    highest degree down."""
    acc = 0
    for c in rev:
        acc = (acc * x + c) % modulus
    return acc


def poly_eval_batch(coeffs, xs, modulus):
    """Evaluate sum(coeffs[i]*x**i) mod modulus for every x in xs (field
    elements below modulus), as an array: uint64 in numpy over 2**61 - 1,
    else Python ints (dtype object) from `horner`."""
    if modulus == MERSENNE_61:
        return _horner61(coeffs, np.asarray(xs, dtype=np.uint64))
    rev = coeffs[::-1]
    return np.array([horner(rev, x, modulus) for x in xs], dtype=object)


def _horner61(coeffs, x):
    """Horner's rule mod 2**61 - 1 over the uint64 array x (each < 2**61).

    With acc = a1 2**32 + a0 and x = x1 2**32 + x0, acc x = a1 x1 2**64 +
    (a1 x0 + a0 x1) 2**32 + a0 x0, and mod 2**61 - 1 the terms fold to
    8 a1 x1, mid >> 29 plus (mid mod 2**29) 2**32, and a0 x0 mod 2**61 plus
    a0 x0 >> 61.  While acc <= 2**61 + 3 (so a1 <= 2**29), each term and
    their sum with the next coefficient stay below 2**64, and one fold of
    2**61 = 1 brings the sum back to at most 2**61 + 3.  A last fold and
    2**61 - 1 mapped to 0 give the residue."""
    x0, x1 = x & _LOW32, x >> _32
    x8 = x1 << _3
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        a0, a1 = acc & _LOW32, acc >> _32
        mid = a1 * x0 + a0 * x1
        lo = a0 * x0
        acc = a1 * x8 + (mid >> _29) + ((mid & _LOW29) << _32) \
            + (lo & _P) + (lo >> _61) + np.uint64(c)
        acc = (acc & _P) + (acc >> _61)
    acc = (acc & _P) + (acc >> _61)
    acc[acc == _P] = 0
    return acc
