"""Inverse-probability size estimates from per-level hash subsamples.

A `SampleBank` holds, per level, the cell counts of the points its h and h'
hashes kept, with the rates psi and psi' they were kept at; every estimate
scales a count by the inverse rate.  `SampleBank.build` is the bank of one
guess, made from the h and h' cell data every mode produces.  `ExactBank`
is the rate-1 bank over all points, counted directly (an independent
reference for the sampled path).  The root-level estimate is derived from
the level-0 counts, since the sampling schedule only defines hashes for
levels 0..L.
"""

from __future__ import annotations

from .geometry import GridHierarchy
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
    def build(cls, sampling, o: float, data: dict) -> "SampleBank":
        """The bank of guess o from data[(family, level)] (CellData) of the
        h and h' families, at the rates sampling (coreset.Sampling) gives."""
        grid = sampling.grid
        levels = range(0, grid.L + 1)
        return cls(grid,
                   {lvl: sampling.rate("h", lvl, o) for lvl in levels},
                   {lvl: sampling.rate("hp", lvl, o) for lvl in levels},
                   {lvl: data[("h", lvl)].cells for lvl in levels},
                   {lvl: data[("hp", lvl)].cells for lvl in levels})

    def counts_for_marking(self) -> dict:
        """Estimated cell sizes for levels -1..L-1, as mark_cells reads them."""
        out = {}
        for lvl in range(0, self.grid.L):
            inv = 1.0 / self.psi[lvl]
            out[lvl] = {lat: c * inv for lat, c in self.h_cells[lvl].items()}
        # the single root cell sits at the all-zero lattice (see geometry)
        root = sum(self.h_cells[0].values()) / self.psi[0]
        out[-1] = {(0,) * self.grid.d: root} if root else {}
        return out

    def part_estimates(self, structure: PartitionStructure):
        """Per-level and per-part size estimates, summed over crucial cells.

        Each crucial cell's integer count is scaled once, and the scaled
        counts are summed left to right in sorted cell order, so that every
        mode sums the same floats.  The crucial cells of a level and their
        parts come from one PartitionStructure.crucial_ranks over the level's
        cells."""
        tau_union = {lvl: 0.0 for lvl in range(0, self.grid.L + 1)}
        tau_part: dict = {}
        for lvl in range(0, self.grid.L + 1):
            inv = 1.0 / self.psi_prime[lvl]
            cells = self.hp_cells[lvl]
            lats = list(cells)
            crucial = sorted((lat, j) for lat, j in
                             zip(lats, structure.crucial_ranks(lvl, lats))
                             if j is not None)
            for lat, j in crucial:
                est = cells[lat] * inv
                tau_union[lvl] += est
                tau_part[(lvl, j)] = tau_part.get((lvl, j), 0.0) + est
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
