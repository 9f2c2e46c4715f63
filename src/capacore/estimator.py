"""Inverse-probability size estimates from per-level hash subsamples.

A `SampleBank` holds, per level, the cell counts of the points its h and h'
hashes kept, in columns (lattices in lexicographic order, int64 counts),
with the rates psi and psi' they were kept at; every estimate scales a count
by the inverse rate.  `SampleBank.build` is the bank of one guess, made from
the h and h' cell data every mode produces.  `ExactBank` is the rate-1 bank
over all points, counted directly by partition.exact_counts (an independent
reference for the sampled path).  The root-level estimate is derived from
the level-0 counts, since the sampling schedule only defines hashes for
levels 0..L.
"""

from __future__ import annotations

import numpy as np

from .geometry import GridHierarchy
from .partition import PartitionStructure, exact_counts


class SampleBank:
    def __init__(self, grid: GridHierarchy, psi: dict, psi_prime: dict,
                 h_cells: dict, hp_cells: dict):
        self.grid = grid
        self.psi = psi
        self.psi_prime = psi_prime
        # level -> (lattices, counts) of the points kept by h, and by h'
        self.h_cells = h_cells
        self.hp_cells = hp_cells

    @classmethod
    def build(cls, sampling, o: float, data: dict) -> "SampleBank":
        """The bank of guess o from data[(family, level)] (CellData) of the
        h and h' families, at the rates sampling (coreset.Sampling) gives."""
        levels = range(0, sampling.grid.L + 1)

        def rates(fam):
            return {lvl: sampling.rate(fam, lvl, o) for lvl in levels}

        def cells(fam):
            return {lvl: (data[(fam, lvl)].lattices, data[(fam, lvl)].counts)
                    for lvl in levels}

        return cls(sampling.grid, rates("h"), rates("hp"), cells("h"),
                   cells("hp"))

    def counts_for_marking(self) -> dict:
        """Estimated cell sizes for levels -1..L-1, as mark_cells reads them:
        level -> (lattices, estimates)."""
        out = {lvl: (lats, counts * (1.0 / self.psi[lvl]))
               for lvl, (lats, counts) in self.h_cells.items()
               if lvl < self.grid.L}
        # the single root cell sits at the all-zero lattice (see geometry)
        root = int(self.h_cells[0][1].sum()) / self.psi[0]
        out[-1] = (np.zeros((1 if root else 0, self.grid.d), dtype=np.int64),
                   np.array([root] if root else [], dtype=float))
        return out

    def part_estimates(self, structure: PartitionStructure):
        """Per-level and per-part size estimates, summed over crucial cells:
        tau_union, level -> the level's estimate, and tau_part, level ->
        (js, taus), the ranks j of the level's parts (level, j) that have
        crucial cells, in increasing order, and their estimates.

        Each crucial cell's integer count is scaled once, and the scaled
        counts are summed left to right in sorted cell order, so that every
        mode sums the same floats (np.cumsum, and np.bincount for the
        parts; np.sum and np.add.reduceat sum pairwise).  The crucial cells
        of a level and their parts come from one
        PartitionStructure.crucial_ranks over the level's cells."""
        tau_union: dict = {}
        tau_part: dict = {}
        for lvl, (lats, counts) in self.hp_cells.items():
            ranks = structure.crucial_ranks(lvl, lats)
            crucial = ranks >= 0
            est = counts[crucial] * (1.0 / self.psi_prime[lvl])
            tau_union[lvl] = float(np.cumsum(est)[-1]) if len(est) else 0.0
            # bincount adds each part's weights from 0.0 in their order
            js, parts = ranks[crucial], len(structure.lattices[lvl - 1])
            taus = np.bincount(js, weights=est, minlength=parts)
            js = np.flatnonzero(np.bincount(js, minlength=parts))
            tau_part[lvl] = js, taus[js]
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
