"""Polynomial evaluation over a prime field, the package's hot loop.

`horner` evaluates a degree-(lambda-1) polynomial at one field element with
Horner's rule in pure Python, from coefficients given highest degree first;
`poly_eval_batch` applies it to a list of points.
"""

from __future__ import annotations


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
    """Evaluate sum(coeffs[i]*x**i) mod modulus for every x in xs."""
    rev = coeffs[::-1]
    return [horner(rev, x, modulus) for x in xs]
