"""Inverse-probability size estimates from per-level hash subsamples.

A `SampleBank` holds, per level, the cell counts of the points its h and h'
hashes kept, with the rates psi and psi' they were kept at; every estimate
scales a count by the inverse rate.  `ExactBank` is the rate-1 bank over all
points (the "exact counts" switch that isolates structural behavior from
sampling noise).  The root-level estimate is derived from the level-0
counts, since the sampling schedule only defines hashes for levels 0..L.
"""

from __future__ import annotations

from .common import UsageError, derive_seed
from .geometry import CellId, GridHierarchy
from .hashing import PointEncoder, KWiseHash
from .partition import PartitionStructure, exact_counts


class SampleBank:
    def __init__(self, grid: GridHierarchy, psi: dict, psi_prime: dict,
                 h_cells: dict, hp_cells: dict):
        self.grid = grid
        self.psi = psi
        self.psi_prime = psi_prime
        self.h_cells = h_cells    # level -> {lattice: count kept by h}
        self.hp_cells = hp_cells  # level -> {lattice: count kept by h'}

    @classmethod
    def build(cls, points, grid: GridHierarchy, psi: dict, psi_prime: dict,
              lam_prime: int, seed: int) -> "SampleBank":
        enc = PointEncoder(grid.Delta, grid.d)
        pts = list(points)
        h_cells, hp_cells = {}, {}
        for lvl in range(0, grid.L + 1):
            for fam, rates, out in (("h", psi, h_cells), ("hp", psi_prime, hp_cells)):
                hash_ = KWiseHash(derive_seed(seed, f"{fam}:{lvl}"), lam_prime,
                                  rates[lvl], enc)
                kept = [p for p, keep in zip(pts, hash_.eval_many(pts)) if keep]
                out[lvl] = exact_counts(kept, grid, levels=[lvl])[lvl]
        return cls(grid, dict(psi), dict(psi_prime), h_cells, hp_cells)

    @classmethod
    def from_params(cls, points, grid: GridHierarchy, params, o: float, seed: int):
        psi = {lvl: params.psi(lvl, o) for lvl in range(0, grid.L + 1)}
        psip = {lvl: params.psi_prime(lvl, o) for lvl in range(0, grid.L + 1)}
        return cls.build(points, grid, psi, psip, params.hash_lambda_prime(),
                         seed)

    def _root_estimate(self) -> float:
        return sum(self.h_cells[0].values()) / self.psi[0]

    def estimate_cell(self, cell: CellId) -> float:
        if cell.level == -1:
            return self._root_estimate()
        if cell.level not in self.h_cells:
            raise UsageError(f"bank does not cover level {cell.level}")
        return self.h_cells[cell.level].get(cell.lattice, 0) / self.psi[cell.level]

    def counts_for_marking(self) -> dict:
        """Estimated cell sizes for levels -1..L-1, as mark_cells reads them."""
        out = {}
        for lvl in range(0, self.grid.L):
            inv = 1.0 / self.psi[lvl]
            out[lvl] = {lat: c * inv for lat, c in self.h_cells[lvl].items()}
        # the single root cell sits at the all-zero lattice (see geometry)
        root = self._root_estimate()
        out[-1] = {(0,) * self.grid.d: root} if root else {}
        return out

    def part_estimates(self, structure: PartitionStructure):
        """Per-level and per-part size estimates, summed over crucial cells.

        Integer counts are aggregated per crucial cell first and then scaled,
        in sorted cell order, so that every mode sums the same floats."""
        tau_union = {lvl: 0.0 for lvl in range(0, self.grid.L + 1)}
        tau_part: dict = {}
        for lvl in range(0, self.grid.L + 1):
            inv = 1.0 / self.psi_prime[lvl]
            cells = self.hp_cells[lvl]
            for lat in sorted(cells):
                part = structure.part_of_cell(CellId(lvl, lat))
                if part is not None:
                    tau_union[lvl] += cells[lat] * inv
                    tau_part[part] = tau_part.get(part, 0.0) + cells[lat] * inv
        return tau_union, tau_part


class ExactBank(SampleBank):
    """Exact counts: the SampleBank that keeps every point at rate 1."""

    def __init__(self, points, grid: GridHierarchy):
        levels = range(0, grid.L + 1)
        counts = exact_counts(list(points), grid, levels=levels)
        ones = {lvl: 1.0 for lvl in levels}
        super().__init__(grid, ones, ones, counts, counts)

    # a class-level name of its own, so it can be looked up (and traced)
    # on ExactBank itself
    part_estimates = SampleBank.part_estimates
