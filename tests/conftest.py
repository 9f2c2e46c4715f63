import math
import random
import struct

import pytest

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


def split_exact(blob: bytes) -> tuple:
    """An exact store's serialize() blob as (its point message, its store
    message): the point message's header gives d and its number of
    rows, of d + 2 values each, and the width byte after it the bytes of
    a value."""
    d, rows = struct.unpack_from("<HI", blob, 6)
    end = 13 + rows * (d + 2) * blob[12]
    return blob[:end], blob[end:]


def part_taus(tau_part) -> dict:
    """SampleBank.part_estimates' per-level part columns as
    {(level, j): estimate}."""
    return {(lvl, j): tau for lvl, (js, taus) in tau_part.items()
            for j, tau in zip(js.tolist(), taus.tolist())}


@pytest.fixture
def rng():
    return random.Random(12345)
