"""Shared sentinels, errors and seed derivation."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


class UsageError(ValueError):
    """Invalid arguments (maps to CLI exit code 2)."""


class OracleCapError(UsageError):
    """A brute-force oracle was asked to exceed its documented caps (exit 4)."""


@dataclass(frozen=True)
class Fail:
    """FAIL outcome of a build or a store read, naming the gate that fired.
    A value, not an exception."""

    gate: str

    def __repr__(self):
        return f"FAIL({self.gate})"

    def __bool__(self):
        return False


def is_fail(x) -> bool:
    return isinstance(x, Fail)


class _Infeasible:
    """INFEASIBLE outcome of a capacitated assignment."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFEASIBLE"

    def __bool__(self):
        return False


INFEASIBLE = _Infeasible()


def is_infeasible(x) -> bool:
    return x is INFEASIBLE


def derive_seed(master: int, label: str) -> int:
    """Stable sub-seed for a named purpose; identical across runs/machines."""
    h = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "big") & (2**63 - 1)
