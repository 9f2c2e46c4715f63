"""Heavy/crucial cell marking and the induced parts Q_{i,j}.

A cell is heavy when its (estimated) count reaches T_i(o) and every ancestor
is heavy; crucial cells are the non-heavy children of heavy cells (every
bottom-level cell under a heavy parent is crucial).  A point's part is read
off its root-to-leaf cell path: the first non-heavy level i together with the
rank j of its level-(i-1) parent among that level's heavy cells.
"""

from __future__ import annotations

from .geometry import GridHierarchy, Point


class PartitionStructure:
    def __init__(self, grid: GridHierarchy, heavy: dict):
        self.grid = grid
        self.L = grid.L
        # heavy: level -> set of lattice tuples, levels -1 .. L-1
        self.heavy = {lvl: frozenset(cells) for lvl, cells in heavy.items()}
        self.heavy_index = {
            lvl: {lat: j for j, lat in enumerate(sorted(cells))}
            for lvl, cells in self.heavy.items()
        }

    def heavy_count(self) -> int:
        return sum(len(c) for c in self.heavy.values())

    def crucial_ranks(self, level: int, lattices) -> list:
        """Per lattice of a level >= 0: the rank j of the cell's heavy parent
        when the cell is crucial (its part is (level, j)), else None.

        The parent follows the parent rule of the grid hierarchy (see
        geometry): the root pairs level-0 lattices by (t + 1) >> 1, every
        other level halves them by t >> 1."""
        index = self.heavy_index.get(level - 1)
        if not index:
            return [None] * len(lattices)
        heavy = self.heavy.get(level, ())
        get = index.get
        up = 1 if level == 0 else 0
        return [None if lat in heavy else get(tuple([(t + up) >> 1 for t in lat]))
                for lat in lattices]

    def part_of(self, p: Point):
        """Part (i, j) owning p, or None when p's root cell is not heavy.

        The levels come from one lattice path, the root from level 0 by the
        parent rule."""
        path = self.grid.path_of(p.coords)
        prev = tuple([(t + 1) >> 1 for t in path[0]])
        if prev not in self.heavy.get(-1, ()):
            return None
        for i, lat in enumerate(path):
            if i == self.L or lat not in self.heavy.get(i, ()):
                return (i, self.heavy_index[i - 1][prev])
            prev = lat
        raise AssertionError("unreachable: level-L cells are never heavy")


def mark_cells(counts: dict, params, o: float, grid: GridHierarchy) -> PartitionStructure:
    """Top-down marking from per-level cell-count estimates.

    counts maps level -> {lattice: estimate} and must cover every nonempty
    cell for levels -1 .. L-1 (missing cells default to estimate 0).  A
    level-i cell is heavy when its estimate reaches T_i(o) and its parent
    (by the parent rule of crucial_ranks) is heavy.
    """
    L = grid.L
    T = params.T(-1, o)
    heavy: dict = {-1: {lat for lat, est in counts.get(-1, {}).items()
                        if est >= T}}
    for i in range(0, L):
        T = params.T(i, o)
        parents = heavy[i - 1]
        up = 1 if i == 0 else 0
        heavy[i] = {lat for lat, est in counts.get(i, {}).items()
                    if est >= T and parents
                    and tuple([(t + up) >> 1 for t in lat]) in parents}
    return PartitionStructure(grid, heavy)


def exact_counts(points, grid: GridHierarchy, levels=None) -> dict:
    """Exact per-level cell counts of a point multiset."""
    if levels is None:
        levels = range(-1, grid.L + 1)
    out: dict = {}
    for lvl in levels:
        counter: dict = {}
        for p in points:
            lat = grid.lattice_of(p.coords, lvl)
            counter[lat] = counter.get(lat, 0) + 1
        out[lvl] = counter
    return out
