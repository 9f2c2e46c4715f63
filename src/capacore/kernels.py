"""Polynomial evaluation over a prime field, the package's hot loop.

`poly_eval_batch` evaluates a degree-(lambda-1) polynomial per point with
Horner's rule in pure Python.
"""

from __future__ import annotations


def active_kernel() -> str:
    return "python"


def poly_eval_batch(coeffs, xs, modulus):
    """Evaluate sum(coeffs[i]*x**i) mod modulus for every x in xs."""
    rev = list(reversed(coeffs))
    out = []
    for x in xs:
        acc = 0
        for c in rev:
            acc = (acc * x + c) % modulus
        out.append(acc)
    return out

