import random

import numpy as np
import pytest

from capacore.geometry import (SHIFT_FRAC_BITS, GridHierarchy, Point, dist_pow,
                               sample_shift)
from capacore.params import derive
from capacore.partition import (PartitionStructure, exact_counts,
                                lattice_array, mark_cells)

from conftest import (clustered_points, floor_lattice, heavy_index, part_of,
                      rand_points)
from reference import brute_opt

PARAMS = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2)


def _structure(points, grid, o, params=PARAMS):
    counts = exact_counts(points, grid, levels=range(-1, grid.L))
    return mark_cells(counts, params, o, grid), counts


def test_single_point_tiny_o_marks_full_chain():
    grid = GridHierarchy.from_seed(5, 8, 2)
    p = Point((3, 6), 0)
    s, _ = _structure([p], grid, o=1e-9)
    for lvl in range(-1, grid.L):
        assert grid.lattice_of(p.coords, lvl) in s.heavy[lvl]
    assert s.crucial_ranks(grid.L, lattice_array(
        [grid.lattice_of(p.coords, grid.L)], 2)).tolist() == [0]
    assert part_of(s, p) == (grid.L, 0)


def test_huge_o_marks_nothing():
    grid = GridHierarchy.from_seed(5, 8, 2)
    pts = [Point((3, 6), 0), Point((4, 4), 1)]
    s, _ = _structure(pts, grid, o=1e12)
    assert s.heavy_count() == 0
    for p in pts:
        assert part_of(s, p) is None


def test_heavy_cell_count_bound_vs_opt(rng):
    # tight cluster, k=1, o = exact OPT: published bound on heavy cells
    pts = clustered_points(rng, 16, 8, clusters=1, spread=0.7)
    params = derive(k=1, r=2, eps=0.4, eta=0.4, Delta=8, d=2)
    opt, _ = brute_opt(pts, 1, 2, 8, 2)
    assert opt > 0
    grid = GridHierarchy.from_seed(11, 8, 2)
    s, _ = _structure(sorted(set(pts), key=lambda p: p.sort_key()), grid, opt,
                      params)
    bound = 2000 * (1 + 2 ** 3.0) * 3 * (opt / opt)
    assert s.heavy_count() <= bound


def test_part_of_first_level_crucial():
    grid = GridHierarchy.from_seed(2, 8, 2)
    pts = [Point((1, 1), i) for i in range(3)]
    # scan for a guess where only the root passes its threshold
    for o in [2 ** e for e in range(-20, 40)]:
        s, _ = _structure(pts, grid, o)
        if s.heavy_count() == 1:
            assert part_of(s, pts[0]) == (0, 0)
            return
    pytest.fail("no o produced a root-only marking")


def test_parts_disjoint_and_share_parent_cell(rng):
    for seed in range(8):
        grid = GridHierarchy.from_seed(seed, 16, 2)
        params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=16, d=2)
        pts = sorted(set(rand_points(rng, 60, 16)), key=lambda p: p.sort_key())
        for o in (0.5, 4, 64, 1024):
            s, _ = _structure(pts, grid, o, params)
            groups = {}
            for p in pts:
                part = part_of(s, p)
                if part is not None:
                    groups.setdefault(part, []).append(p)
            for (i, j), group in groups.items():
                parents = {grid.lattice_of(p.coords, i - 1) for p in group}
                assert len(parents) == 1
                diam_bound = (2 * (2 ** 0.5) * params.side(i)) ** 2
                for a in group:
                    for b in group:
                        assert dist_pow(a, b, 2) <= diam_bound + 1e-9


def test_determinism(rng):
    grid = GridHierarchy.from_seed(7, 8, 2)
    pts = rand_points(rng, 40, 8)
    counts = exact_counts(pts, grid, levels=range(-1, grid.L))
    a = mark_cells(counts, PARAMS, 16, grid)
    b = mark_cells(counts, PARAMS, 16, grid)
    assert a.heavy == b.heavy
    assert heavy_index(a) == heavy_index(b)


def test_small_parts_mass_bound(rng):
    # theory gamma: parts at or below 2*gamma*T_i(o) hold <= eta*n/k points
    for seed in range(6):
        grid = GridHierarchy.from_seed(seed, 8, 2)
        pts = sorted(set(rand_points(rng, 50, 8)), key=lambda p: p.sort_key())
        for o in (1, 16, 256):
            s, _ = _structure(pts, grid, o)
            small_mass = 0
            sizes = {}
            for p in pts:
                part = part_of(s, p)
                if part is not None:
                    sizes[part] = sizes.get(part, 0) + 1
            for (i, j), size in sizes.items():
                if size <= 2 * PARAMS.gamma * PARAMS.T(i, o):
                    small_mass += size
            assert small_mass <= PARAMS.eta * len(pts) / PARAMS.k


def test_heavy_index_is_lexicographic():
    grid = GridHierarchy.from_seed(3, 8, 2)
    pts = [Point((1, 1), 0), Point((8, 8), 1), Point((1, 8), 2), Point((8, 1), 3)]
    s, _ = _structure(pts, grid, o=1e-6)
    for lvl, index in heavy_index(s).items():
        ordered = sorted(index, key=lambda lat: lat)
        assert [index[lat] for lat in ordered] == list(range(len(ordered)))


def test_part_of_cell_matches_part_of(rng):
    grid = GridHierarchy.from_seed(13, 8, 2)
    pts = rand_points(rng, 30, 8)
    s, _ = _structure(sorted(set(pts), key=lambda p: p.sort_key()), grid, 8)
    for p in pts:
        part = part_of(s, p)
        if part is None:
            continue
        i, j = part
        assert s.crucial_ranks(i, lattice_array(
            [grid.lattice_of(p.coords, i)], 2)).tolist() == [j]


def test_root_heavy_whenever_o_below_opt(rng):
    # nonempty input and o <= OPT with exact counts: the root is marked heavy
    for seed in range(10):
        grid = GridHierarchy.from_seed(seed, 8, 2)
        pts = sorted({p for p in rand_points(rng, 20, 8)},
                     key=lambda p: p.sort_key())
        opt, _ = brute_opt(pts, 2, 2, 8, 2)
        if opt == 0:
            continue
        for o in (opt / 10, opt / 2, opt):
            s, _ = _structure(pts, grid, o)
            assert grid.lattice_of(pts[0].coords, -1) in s.heavy[-1]


def _walk_part(structure, grid, p):
    """Reference part of p: a walk over the floor-division lattices of its
    levels, one per level."""
    prev = floor_lattice(grid, p.coords, -1)
    if prev not in structure.heavy[-1]:
        return None
    for i in range(0, grid.L + 1):
        lat = floor_lattice(grid, p.coords, i)
        if i == grid.L or lat not in structure.heavy[i]:
            return (i, sorted(structure.heavy[i - 1]).index(prev))
        prev = lat


def _columnar_parts(structure, points):
    """PartitionStructure.parts as part_of's values."""
    level, j = structure.parts(np.array([p.coords for p in points],
                                        dtype=np.int64))
    return [None if i < 0 else (i, jj)
            for i, jj in zip(level.tolist(), j.tolist())]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("log_delta", [1, 2, 3, 6, 11, 20])
def test_part_of_matches_a_per_level_walk(d, log_delta):
    Delta = 1 << log_delta
    span = Delta << SHIFT_FRAC_BITS
    rng = random.Random(f"part:{d}:{log_delta}")
    shifts = [(0,) * d, (span - 1,) * d, sample_shift(log_delta, Delta, d)]
    coords = [(1,) * d, (Delta,) * d] + [
        tuple(rng.randint(1, Delta) for _ in range(d)) for _ in range(40)]
    points = [Point(c) for c in coords]
    levels = set()
    for shift in shifts:
        grid = GridHierarchy(Delta, d, shift)
        # random heavy markings: a few points' paths heavy down to a random
        # depth, plus stray heavy cells whose parents need not be heavy
        heavy = {lvl: set() for lvl in range(-1, grid.L)}
        heavy[-1].add(floor_lattice(grid, points[0].coords, -1))
        for p in rng.sample(points, 4):
            for lvl in range(0, rng.randint(0, grid.L)):
                heavy[lvl].add(floor_lattice(grid, p.coords, lvl))
        for p in rng.sample(points, 5):
            lvl = rng.randrange(0, grid.L)
            heavy[lvl].add(floor_lattice(grid, p.coords, lvl))
        structure = PartitionStructure(grid, {
            lvl: lattice_array(cells, d) for lvl, cells in heavy.items()})
        parts = [part_of(structure, p) for p in points]
        assert parts == [_walk_part(structure, grid, p) for p in points]
        assert _columnar_parts(structure, points) == parts
        assert heavy[-1] and all(part is not None for part in parts)
        levels.update(part[0] for part in parts)
        # a root that is not heavy owns no part
        no_root = PartitionStructure(grid, {
            lvl: lattice_array(cells if lvl >= 0 else (), d)
            for lvl, cells in heavy.items()})
        assert all(part_of(no_root, p) is None for p in points)
        assert _columnar_parts(no_root, points) == [None] * len(points)
    # the markings reach parts on more than one level (at Delta = 2 a
    # marking may leave every point on the same one)
    assert len(levels) > 1 or Delta == 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_crucial_ranks_match_a_tuple_reference(d):
    # random heavy cells on every level, parents heavy or not, so that
    # cells under light parents sit between cells under heavy ones
    Delta = 64
    rng = random.Random(f"crucial:{d}")
    grid = GridHierarchy(Delta, d, sample_shift(d, Delta, d))
    points = [tuple(rng.randint(1, Delta) for _ in range(d))
              for _ in range(200)]
    for trial in range(20):
        heavy = {lvl: {grid.lattice_of(c, lvl)
                       for c in rng.sample(points, rng.randint(0, 60))}
                 for lvl in range(-1, grid.L)}
        structure = PartitionStructure(grid, {
            lvl: lattice_array(cells, d) for lvl, cells in heavy.items()})
        for lvl in range(0, grid.L + 1):
            cells = sorted({grid.lattice_of(c, lvl) for c in points})
            index = {lat: j for j, lat in enumerate(sorted(heavy[lvl - 1]))}
            ref = [-1 if lvl < grid.L and lat in heavy[lvl] else index.get(
                tuple((t + 1) >> 1 if lvl == 0 else t >> 1 for t in lat), -1)
                for lat in cells]
            assert structure.crucial_ranks(
                lvl, lattice_array(cells, d)).tolist() == ref, (trial, lvl)
