"""Heavy/crucial cell marking and the induced parts Q_{i,j}.

A cell is heavy when its (estimated) count reaches T_i(o) and every ancestor
is heavy; crucial cells are the non-heavy children of heavy cells (every
bottom-level cell under a heavy parent is crucial).  A point's part is read
off its root-to-leaf cell path: the first non-heavy level i together with the
rank j of its level-(i-1) parent among that level's heavy cells.

Cells are held in columns: a level's lattices are the rows of an (m, d)
int64 array in lexicographic order.  lattice_keys is the one place that
turns integer rows (lattices, or point coordinates beside a tag) into keys
that sort as the rows do: one int64 per row when the columns' spans fit 63
bits, else one fixed-width bytes key per row.  Every sort of rows
(sorted_runs, and point_table, the point table of every mode) and every
join of lattices (PartitionStructure.rank, a np.searchsorted over the keys
of the heavy cells and the query rows, made in one call) goes through it,
for every d and Delta.  mark_cells and crucial_ranks, the decision path's
marking, and parts, the transfer's part of every input point, run on these
arrays; PartitionStructure's tuple-set view (heavy) is made on first use,
for the coreset file.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import GridHierarchy

_SIGN = np.int64(-1 << 63)


def lattice_keys(rows) -> np.ndarray:
    """One key per row of an (m, w) int64 array, such that the keys compare
    as the rows do lexicographically.

    Each column is offset by its own minimum and takes the bits its span
    needs; when the widths add up to at most 63 bits the key is the columns
    packed into one int64, first column highest.  Offsets and widths come
    from the rows themselves, so any int64 rows have keys, and keys of two
    calls do not compare: rows joined by key are encoded in one call.
    Wider rows get a bytes key: each value's sign bit flipped, written
    big-endian."""
    m, w = rows.shape
    if not m:
        return np.empty(0, dtype=np.int64)
    cols = np.asfortranarray(rows).T  # each column contiguous
    lows = cols.min(axis=1).tolist()
    bits = [(high - low).bit_length()
            for high, low in zip(cols.max(axis=1).tolist(), lows)]
    if sum(bits) > 63:
        flipped = np.ascontiguousarray(rows ^ _SIGN, dtype=">i8")
        return flipped.view(f"S{8 * w}").ravel()
    # col - low lies in [0, 2**width), so it does not wrap
    keys = cols[0] - lows[0]
    for col, low, width in zip(cols[1:], lows[1:], bits[1:]):
        keys <<= width
        keys |= col - low
    return keys


def sorted_runs(rows):
    """(order, new) for an (m, w) int64 array: the stable order that sorts
    its rows lexicographically (np.lexsort's), and along it whether each
    row starts a run of equal rows."""
    keys = lattice_keys(rows)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return order, new


def point_table(rows):
    """The one point table builder of every mode: per distinct point of
    (m, d + 2) int64 rows (coordinates, tag, multiplicity), in sort_key
    order, the index of its first row and its rows' summed multiplicity."""
    order, new = sorted_runs(rows[:, :-1])
    starts = np.flatnonzero(new)
    mults = rows[order, -1]
    return order[starts], \
        np.add.reduceat(mults, starts) if len(mults) else mults


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

    @cached_property
    def heavy(self) -> dict:
        """level -> frozenset of heavy lattice tuples."""
        return {lvl: frozenset(map(tuple, lats.tolist()))
                for lvl, lats in self.lattices.items()}

    def heavy_count(self) -> int:
        return sum(len(lats) for lats in self.lattices.values())

    def rank(self, level: int, lattices) -> np.ndarray:
        """Per row of lattices ((m, d) int64), its rank among the heavy
        cells of level, or -1 where it is not heavy: a searchsorted join
        over the lattice_keys of the heavy cells and the rows."""
        heavy = self.lattices[level]
        if not len(heavy) or not len(lattices):
            return np.full(len(lattices), -1, dtype=np.int64)
        keys = lattice_keys(np.concatenate((heavy, lattices)))
        heavy, keys = keys[:len(heavy)], keys[len(heavy):]
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

    def parts(self, coords):
        """Per row of coords ((n, d) int64 points), its part (i, j) as two
        int64 arrays, or -1 in both where the row's root cell is not heavy.

        A part is read off the row's lattice path: the first level i whose
        cell is not heavy (level L never is), and the rank j of its parent
        among the heavy cells of level i - 1.  One rank join per level, over
        the rows still on heavy cells, whose lattices GridHierarchy.coarsen
        gives."""
        n = len(coords)
        level = np.full(n, -1, dtype=np.int64)
        part_j = np.full(n, -1, dtype=np.int64)
        lats, coarsen = self.grid.lattices(coords, self.L), self.grid.coarsen
        prev = self.rank(-1, coarsen(lats, -1))
        rows = np.flatnonzero(prev >= 0)
        prev = prev[rows]
        for i in range(self.L + 1):
            if not len(rows):
                break
            here = self.rank(i, coarsen(lats[rows], i)) if i < self.L \
                else np.full(len(rows), -1, dtype=np.int64)
            stop = here < 0
            level[rows[stop]] = i
            part_j[rows[stop]] = prev[stop]
            rows, prev = rows[~stop], here[~stop]
        return level, part_j


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
