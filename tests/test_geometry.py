import math
import random
import statistics

import numpy as np
import pytest

from capacore.common import UsageError
from capacore.geometry import (SHIFT_FRAC_BITS, GridHierarchy, Point, dist_pow,
                               format_point, next_pow2, parse_point_line,
                               read_points, sample_shift, write_points)

from conftest import floor_lattice, rand_points


def _side(grid, level: int) -> float:
    """g_level = Delta / 2**level (2*Delta at the root)."""
    return 2.0 * grid.Delta if level == -1 else grid.Delta / (1 << level)


def _cell_bounds(grid, level, lattice):
    """Per-axis [lo, hi) of the cell in real coordinates (1-based frame)."""
    if level == -1:
        side = (2 * grid.Delta) << SHIFT_FRAC_BITS
        anchor = grid.Delta << SHIFT_FRAC_BITS
    else:
        side, anchor = (grid.Delta << SHIFT_FRAC_BITS) >> level, 0
    scale = 1 << SHIFT_FRAC_BITS
    out = []
    for t, v in zip(lattice, grid.shift_num):
        lo = v - anchor + t * side
        out.append((lo / scale + 1, (lo + side) / scale + 1))
    return out


def test_dist_pow_345_triangle():
    assert dist_pow(Point((1, 1)), Point((4, 5)), 2) == 25
    assert dist_pow(Point((1, 1)), Point((4, 5)), 1) == 5
    assert dist_pow(Point((1, 1)), Point((1, 1)), 7) == 0


def test_dist_pow_exact_int_for_r2():
    assert isinstance(dist_pow(Point((1, 2)), Point((7, 3)), 2), int)


def test_dist_pow_dimension_mismatch():
    with pytest.raises(UsageError):
        dist_pow(Point((1, 1)), Point((1, 1, 1)), 2)


def test_cell_of_spec_examples():
    grid = GridHierarchy(8, 2, (0, 0))
    assert grid.lattice_of((3, 7), 0) == (0, 0)
    assert grid.lattice_of((3, 7), 2) == (1, 3)


def test_root_cell_identical_for_all_points():
    for seed in range(40):
        grid = GridHierarchy.from_seed(seed, 8, 2)
        roots = {grid.lattice_of((x, y), -1)
                 for x in range(1, 9) for y in range(1, 9)}
        assert len(roots) == 1
    # boundary shift: zero on every axis
    grid = GridHierarchy(8, 2, (0, 0))
    assert len({grid.lattice_of((x, y), -1)
                for x in range(1, 9) for y in range(1, 9)}) == 1


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("log_delta", [1, 2, 3, 6, 11, 20])
def test_path_of_equals_lattice_of_at_every_level(d, log_delta):
    Delta = 1 << log_delta
    span = Delta << SHIFT_FRAC_BITS
    rng = random.Random(f"path:{d}:{log_delta}")
    shifts = [(0,) * d, (span - 1,) * d,
              tuple(rng.choice((0, span - 1)) for _ in range(d)),
              sample_shift(log_delta, Delta, d)]
    coords = [(1,) * d, (Delta,) * d] + [
        tuple(rng.randint(1, Delta) for _ in range(d)) for _ in range(40)]
    for shift in shifts:
        grid = GridHierarchy(Delta, d, shift)
        for c in coords:
            path = grid.path_of(c)
            assert len(path) == grid.L + 1
            for level in range(0, grid.L + 1):
                assert path[level] == grid.lattice_of(c, level), (shift, c)


@pytest.mark.parametrize("d, log_delta", [
    (d, log_delta) for d in (1, 2, 3) for log_delta in (1, 2, 3, 6, 11, 20)]
    + [(1, 62)])
def test_lattices_equal_the_floor_division_definition(d, log_delta):
    # level L is c - 1 - ceil(v / 2**32) and coarser levels are shifts of
    # it; both must agree with floor division at every level, including the
    # root, for the extreme shifts 0 and span - 1 on every axis
    Delta = 1 << log_delta
    span = Delta << SHIFT_FRAC_BITS
    rng = random.Random(f"floor:{d}:{log_delta}")
    shifts = [(0,) * d, (span - 1,) * d,
              tuple(rng.choice((0, span - 1)) for _ in range(d)),
              tuple(rng.choice((1, span - (1 << SHIFT_FRAC_BITS)))
                    for _ in range(d)),
              sample_shift(log_delta, Delta, d)]
    coords = [(1,) * d, (Delta,) * d] + [
        tuple(rng.randint(1, Delta) for _ in range(d)) for _ in range(30)]
    for shift in shifts:
        grid = GridHierarchy(Delta, d, shift)
        for c in coords:
            want = [floor_lattice(grid, c, level)
                    for level in range(-1, grid.L + 1)]
            assert [grid.lattice_of(c, level)
                    for level in range(-1, grid.L + 1)] == want, (shift, c)
            assert list(grid.path_of(c)) == want[1:], (shift, c)
            assert all(-Delta <= t < Delta for t in want[-1])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("log_delta", [1, 2, 5, 16, 40, 61, 62])
def test_columnar_lattices_equal_lattice_of(d, log_delta):
    # GridHierarchy.lattices, the int64 form, and coarsen of its level-L
    # lattices, at every level from the root to L, for the extreme shifts
    # and random ones, on the domain's corners and random points
    Delta = 1 << log_delta
    span = Delta << SHIFT_FRAC_BITS
    rng = random.Random(f"columns:{d}:{log_delta}")
    shifts = [(0,) * d, (span - 1,) * d] + [
        tuple(rng.randrange(span) for _ in range(d)) for _ in range(3)]
    rows = [(1,) * d, (Delta,) * d] + [
        tuple(rng.randint(1, Delta) for _ in range(d)) for _ in range(30)]
    coords = np.array(rows, dtype=np.int64)
    for shift in shifts:
        grid = GridHierarchy(Delta, d, shift)
        finest = grid.lattices(coords, grid.L)
        for level in range(-1, grid.L + 1):
            got = grid.lattices(coords, level)
            assert got.dtype == np.int64 and got.shape == (len(rows), d)
            assert list(map(tuple, got.tolist())) == [
                grid.lattice_of(c, level) for c in rows], (shift, level)
            assert np.array_equal(grid.coarsen(finest, level), got)
        for level in (-2, grid.L + 1):
            with pytest.raises(UsageError):
                grid.lattices(coords, level)


def test_containment_chain_via_corners(rng):
    for seed in range(10):
        grid = GridHierarchy.from_seed(seed, 16, 2)
        for p in rand_points(rng, 30, 16):
            for level in range(0, grid.L + 1):
                child = grid.lattice_of(p.coords, level)
                parent = grid.lattice_of(p.coords, level - 1)
                # the parent rule: the root pairs level-0 lattices by
                # (t + 1) >> 1, every other level halves them by t >> 1
                up = 1 if level == 0 else 0
                assert tuple((t + up) >> 1 for t in child) == parent
                cb = _cell_bounds(grid, level, child)
                pb = _cell_bounds(grid, level - 1, parent)
                for (clo, chi), (plo, phi) in zip(cb, pb):
                    assert plo <= clo and chi <= phi


def test_cell_bounds_contain_point(rng):
    grid = GridHierarchy.from_seed(3, 8, 2)
    for p in rand_points(rng, 50, 8):
        for level in range(-1, grid.L + 1):
            bounds = _cell_bounds(grid, level, grid.lattice_of(p.coords, level))
            for c, (lo, hi) in zip(p.coords, bounds):
                assert lo <= c < hi


def test_same_cell_diameter(rng):
    grid = GridHierarchy.from_seed(9, 16, 2)
    pts = rand_points(rng, 120, 16)
    for level in range(0, grid.L + 1):
        cells = {}
        for p in pts:
            cells.setdefault(grid.lattice_of(p.coords, level), []).append(p)
        bound = (math.sqrt(grid.d) * _side(grid, level)) ** 2
        for group in cells.values():
            for a in group:
                for b in group:
                    assert dist_pow(a, b, 2) <= bound


@pytest.mark.parametrize("r", [1, 1.5, 2, 3])
def test_relaxed_triangle_inequality(rng, r):
    for _ in range(200):
        x, y, z = rand_points(rng, 3, 32)
        lhs = dist_pow(x, z, r)
        rhs = 2 ** (r - 1) * (dist_pow(x, y, r) + dist_pow(y, z, r))
        assert lhs <= rhs * (1 + 1e-12)


def test_sample_shift_deterministic_and_in_range():
    a = sample_shift(42, 8, 2)
    b = sample_shift(42, 8, 2)
    assert a == b
    assert all(0 <= v < (8 << 32) for v in a)
    assert sample_shift(43, 8, 2) != a


def test_sample_shift_mean_uniform():
    Delta = 8
    vals = []
    for seed in range(2500):
        vals.extend(v / (1 << 32) for v in sample_shift(seed, Delta, 2))
    mean = statistics.fmean(vals)
    stderr = Delta / math.sqrt(12 * len(vals))
    assert abs(mean - Delta / 2) <= 5 * stderr


def test_grid_validation():
    with pytest.raises(UsageError):
        GridHierarchy(6, 2, (0, 0))
    with pytest.raises(UsageError):
        GridHierarchy(8, 2, (0,))
    with pytest.raises(UsageError):
        GridHierarchy(8, 1, ((8 << 32),))
    grid = GridHierarchy(8, 2, (0, 0))
    with pytest.raises(UsageError):
        grid.lattice_of((1, 1), 4)


def test_next_pow2():
    assert next_pow2(8) == 8
    assert next_pow2(9) == 16
    assert next_pow2(1) == 1
    with pytest.raises(UsageError):
        next_pow2(0)


def test_point_file_roundtrip(tmp_path):
    pts = [Point((1, 2), 7), Point((8, 8)), Point((3, 3), 0)]
    path = tmp_path / "pts.txt"
    write_points(path, pts, ["a comment"])
    assert read_points(path) == pts


def test_parse_point_line():
    assert parse_point_line("% comment") is None
    assert parse_point_line("  ") is None
    assert parse_point_line("3 7 #12") == Point((3, 7), 12)
    assert parse_point_line("3 7") == Point((3, 7), -1)
    assert format_point(Point((3, 7), 12)) == "3 7 #12"
    assert format_point(Point((3, 7))) == "3 7"


def test_point_total_order():
    pts = [Point((2, 1), 5), Point((1, 9)), Point((2, 1), 1), Point((2, 1))]
    ordered = sorted(pts, key=lambda p: p.sort_key())
    assert ordered[0] == Point((1, 9))
    assert ordered[1:] == [Point((2, 1)), Point((2, 1), 1), Point((2, 1), 5)]
