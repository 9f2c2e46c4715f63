"""Heavy/crucial cell marking and the induced parts Q_{i,j}.

A cell is heavy when its (estimated) count reaches T_i(o) and every ancestor
is heavy; crucial cells are the non-heavy children of heavy cells (every
bottom-level cell under a heavy parent is crucial).  A point's part is read
off its root-to-leaf cell path: the first non-heavy level i together with the
rank j of its level-(i-1) parent among that level's heavy cells.

Cells are held in columns: a level's lattices are the rows of an (m, d)
int64 array in lexicographic order.  Lattices are joined through
lattice_keys, one fixed-width bytes key per row that sorts as the rows do,
so np.searchsorted finds a lattice's rank among sorted lattices for every d
and Delta.  mark_cells and crucial_ranks, the decision path's marking, run
on these arrays; PartitionStructure's tuple-set view (heavy, heavy_index,
part_of) is made on first use, for the accepted coreset.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import GridHierarchy, Point

_SIGN = np.int64(-1 << 63)


def lattice_keys(lattices) -> np.ndarray:
    """One bytes key per row of an (m, d) int64 lattice array: each
    coordinate's sign bit flipped, written big-endian, so the keys compare
    as the rows do lexicographically."""
    flipped = np.ascontiguousarray(lattices ^ _SIGN, dtype=">i8")
    return flipped.view(f"S{8 * lattices.shape[1]}").ravel()


def parents(lattices, level: int):
    """The level-(level - 1) parent of each lattice of a level >= 0: the
    root pairs level-0 lattices by (t + 1) >> 1, every other level halves
    them by t >> 1 (the parent rule of geometry.GridHierarchy)."""
    return (lattices + 1) >> 1 if level == 0 else lattices >> 1


def lattice_array(cells, d: int) -> np.ndarray:
    """Lattice tuples as an (m, d) int64 array in lexicographic order."""
    return np.array(sorted(cells), dtype=np.int64).reshape(-1, d)


class PartitionStructure:
    def __init__(self, grid: GridHierarchy, heavy: dict):
        self.grid = grid
        self.L = grid.L
        # heavy: level -> (h, d) int64 lattices in lexicographic order, for
        # levels -1 .. L-1; a level not given has none
        empty = np.empty((0, grid.d), dtype=np.int64)
        self.lattices = {**{lvl: empty for lvl in range(-1, grid.L)}, **heavy}
        self._keys: dict = {}  # level -> lattice_keys of its heavy cells

    @cached_property
    def heavy(self) -> dict:
        """level -> frozenset of heavy lattice tuples."""
        return {lvl: frozenset(map(tuple, lats.tolist()))
                for lvl, lats in self.lattices.items()}

    @cached_property
    def heavy_index(self) -> dict:
        """level -> {heavy lattice tuple: its rank j, lexicographic}."""
        return {lvl: dict(zip(map(tuple, lats.tolist()), range(len(lats))))
                for lvl, lats in self.lattices.items()}

    def heavy_count(self) -> int:
        return sum(len(lats) for lats in self.lattices.values())

    def rank(self, level: int, lattices) -> np.ndarray:
        """Per row of lattices ((m, d) int64), its rank among the heavy
        cells of level, or -1 where it is not heavy: a searchsorted join
        over lattice_keys."""
        heavy = self._keys.get(level)
        if heavy is None:
            heavy = self._keys[level] = lattice_keys(self.lattices[level])
        if not len(heavy) or not len(lattices):
            return np.full(len(lattices), -1, dtype=np.int64)
        keys = lattice_keys(lattices)
        rows = np.minimum(heavy.searchsorted(keys), len(heavy) - 1)
        return np.where(heavy[rows] == keys, rows, -1)

    def crucial_ranks(self, level: int, lattices) -> np.ndarray:
        """Per row of lattices, (m, d) int64 cells of a level >= 0: the rank
        j of the cell's heavy parent when the cell is crucial (its part is
        (level, j)), else -1."""
        ranks = self.rank(level - 1, parents(lattices, level))
        if level < self.L:
            ranks[self.rank(level, lattices) >= 0] = -1
        return ranks

    def part_of(self, p: Point):
        """Part (i, j) owning p, or None when p's root cell is not heavy.

        The levels come from one lattice path, the root from level 0 by the
        parent rule."""
        heavy = self.heavy
        path = self.grid.path_of(p.coords)
        prev = tuple([(t + 1) >> 1 for t in path[0]])
        if prev not in heavy[-1]:
            return None
        for i, lat in enumerate(path):
            if i == self.L or lat not in heavy[i]:
                return (i, self.heavy_index[i - 1][prev])
            prev = lat
        raise AssertionError("unreachable: level-L cells are never heavy")


def mark_cells(counts: dict, params, o: float, grid: GridHierarchy) -> PartitionStructure:
    """Top-down marking from per-level cell-count estimates.

    counts maps level -> (lattices, estimates): the (m, d) int64 lattices of
    the level's nonempty cells in lexicographic order and their estimates,
    for levels -1 .. L-1 (a missing level has no cell).  A level-i cell is
    heavy when its estimate reaches T_i(o) and its parent (the parent rule)
    is heavy."""
    empty = (np.empty((0, grid.d), dtype=np.int64), np.empty(0))
    structure = PartitionStructure(grid, {})
    for i in range(-1, grid.L):
        lats, est = counts.get(i, empty)
        lats = lats[est >= params.T(i, o)]
        if i >= 0 and len(lats):
            lats = lats[structure.rank(i - 1, parents(lats, i)) >= 0]
        # marked top-down: a level is set before rank first reads it
        structure.lattices[i] = lats
    return structure


def exact_counts(points, grid: GridHierarchy, levels=None) -> dict:
    """Exact per-level cell counts of a point multiset, counted point by
    point: level -> (lattices, counts), the lattices of the nonempty cells
    in lexicographic order."""
    if levels is None:
        levels = range(-1, grid.L + 1)
    out: dict = {}
    for lvl in levels:
        counter: dict = {}
        for p in points:
            lat = grid.lattice_of(p.coords, lvl)
            counter[lat] = counter.get(lat, 0) + 1
        cells = sorted(counter)
        out[lvl] = (lattice_array(cells, grid.d),
                    np.array([counter[c] for c in cells], dtype=np.int64))
    return out
