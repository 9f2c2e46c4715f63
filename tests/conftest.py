import math
import random

import numpy as np
import pytest

from capacore import cellstore
from capacore.geometry import SHIFT_FRAC_BITS, Point


def rand_points(rng: random.Random, n: int, Delta: int, d: int = 2,
                tagged: bool = True):
    return [
        Point(tuple(rng.randint(1, Delta) for _ in range(d)),
              i if tagged else -1)
        for i in range(n)
    ]


def clustered_points(rng: random.Random, n: int, Delta: int, d: int = 2,
                     clusters: int = 2, spread: float = 1.0):
    margin = max(1, min(Delta // 4, math.ceil(2 * spread)))
    means = [tuple(rng.randint(1 + margin, Delta - margin) for _ in range(d))
             for _ in range(clusters)]
    pts = []
    for i in range(n):
        mean = means[i % clusters]
        coords = tuple(min(Delta, max(1, round(rng.gauss(m, spread))))
                       for m in mean)
        pts.append(Point(coords, i))
    return pts


def floor_lattice(grid, coords, level: int) -> tuple:
    """The lattice of coords at level by its definition: floor division of
    the shifted 0-based coordinate by the level's side, all in units of
    2**-SHIFT_FRAC_BITS; the root is anchored Delta to the left."""
    if level == -1:
        side, anchor = (2 * grid.Delta) << SHIFT_FRAC_BITS, \
            grid.Delta << SHIFT_FRAC_BITS
    else:
        side, anchor = (grid.Delta << SHIFT_FRAC_BITS) >> level, 0
    return tuple((((c - 1) << SHIFT_FRAC_BITS) - v + anchor) // side
                 for c, v in zip(coords, grid.shift_num))


def heavy_index(structure) -> dict:
    """level -> {heavy lattice tuple: its rank j, lexicographic}."""
    return {lvl: dict(zip(map(tuple, lats.tolist()), range(len(lats))))
            for lvl, lats in structure.lattices.items()}


def part_of(structure, p):
    """The part (i, j) owning p, or None when p's root cell is not heavy:
    the scalar reference of PartitionStructure.parts.  The levels come
    from one lattice path, the root from level 0 by the parent rule."""
    heavy, index = structure.heavy, heavy_index(structure)
    path = structure.grid.path_of(p.coords)
    prev = tuple([(t + 1) >> 1 for t in path[0]])
    if prev not in heavy[-1]:
        return None
    for i, lat in enumerate(path):
        if i == structure.L or lat not in heavy[i]:
            return (i, index[i - 1][prev])
        prev = lat
    raise AssertionError("unreachable: level-L cells are never heavy")


def cell_dicts(data) -> tuple:
    """A CellData as dicts: {lattice: count}, and {lattice: its points,
    each once per copy} over the cells that list points."""
    _, cells, light = data.canonical()
    return dict(cells), dict(light)


def exact_content(blob: bytes, grid, level: int) -> tuple:
    """The content an exact message of one store carries, as dicts:
    {lattice: count}, its point rows' multiplicities summed per cell at
    level plus its residual rows, zeros dropped, and {Point: multiplicity}
    of its point rows."""
    d = grid.d
    parsed = cellstore.parse_exact(blob, grid)
    assert parsed.stores == 1
    points = {Point(tuple(r[:d]), r[d]): r[d + 1]
              for r in parsed.points.tolist()}
    counts = {}
    cells = [(grid.lattice_of(p.coords, level), m) for p, m in points.items()]
    cells += [(tuple(lat), r) for _, *lat, r in parsed.cells.tolist()]
    for lat, m in cells:
        counts[lat] = counts.get(lat, 0) + m
    return {lat: c for lat, c in counts.items() if c}, points


def read_exact(store, *blobs):
    """The CellData that exact messages of one store describe under
    store's level and caps, read as the coordinator reads its machines'
    messages (cellstore.parse_exact, cellstore.merge_exact): their point
    rows summed per point into one table in sort_key order and counted in
    their cells, and their residual rows added."""
    grid, d = store.grid, store.grid.d
    parsed = [cellstore.parse_exact(blob, grid) for blob in blobs]
    assert all(p.stores == 1 for p in parsed)
    mults = {}
    for p in parsed:
        for *coords, tag, m in p.points.tolist():
            point = Point(tuple(coords), tag)
            mults[point] = mults.get(point, 0) + m
    points = sorted(mults)
    coords = np.array([p.coords for p in points],
                      dtype=np.int64).reshape(-1, d)
    cells = np.concatenate([np.empty((0, d + 1), dtype=np.int64),
                            *(p.cells[:, 1:] for p in parsed)])
    return cellstore.merge_exact(
        store, cells, points, np.arange(len(points)),
        np.array([mults[p] for p in points], dtype=np.int64),
        grid.lattices(coords, store.level))


def part_taus(tau_part) -> dict:
    """SampleBank.part_estimates' per-level part columns as
    {(level, j): estimate}."""
    return {(lvl, j): tau for lvl, (js, taus) in tau_part.items()
            for j, tau in zip(js.tolist(), taus.tolist())}


@pytest.fixture
def rng():
    return random.Random(12345)
