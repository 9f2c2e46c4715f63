import itertools
import math

import numpy as np
import pytest

from capacore.common import derive_seed
from capacore.coreset import OfflineBuilder, exact_threshold
from capacore.estimator import ExactBank, SampleBank
from capacore.geometry import GridHierarchy, Point
from capacore.hashing import KWiseHash, PointEncoder
from capacore.params import PRACTICAL, derive
from capacore.partition import (PartitionStructure, exact_counts,
                                lattice_array, mark_cells)

from conftest import part_of, part_taus, rand_points

PARAMS = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2)


def _per_level(rate, levels):
    return rate if isinstance(rate, dict) else {lvl: rate for lvl in levels}


def _bank(points, grid, psi, psi_prime, seed, lam=4):
    """Test-side bank: per (family, level), the exact cell counts of the
    points whose field value lies below floor(rate * modulus)."""
    levels = range(0, grid.L + 1)
    rates = {"h": _per_level(psi, levels), "hp": _per_level(psi_prime, levels)}
    enc = PointEncoder(grid.Delta, grid.d)
    cells = {"h": {}, "hp": {}}
    for fam in cells:
        for lvl in levels:
            h = KWiseHash(derive_seed(seed, f"{fam}:{lvl}"), lam, enc)
            t = exact_threshold(rates[fam][lvl], enc.modulus)
            kept = [p for p, v in zip(points, h.field_values(points)) if v < t]
            cells[fam][lvl] = exact_counts(kept, grid, levels=[lvl])[lvl]
    return SampleBank(grid, rates["h"], rates["hp"], cells["h"], cells["hp"])


def _pipeline_bank(points, grid, params, o, seed, exact_counts=False):
    """The bank finalize_cells reads for guess o of an offline build."""
    builder = OfflineBuilder(points, grid, params, seed, exact_counts)
    data = {(fam, lvl): builder._cell_data(builder.sampling.key(fam, lvl, o))
            for fam in ("h", "hp") for lvl in range(0, grid.L + 1)}
    return SampleBank.build(builder.sampling, o, data)


def _as_dict(cells):
    """Per-level columns (lattices, values) as {lattice: value}."""
    lats, values = cells
    return dict(zip(map(tuple, lats.tolist()), values.tolist()))


def _as_dicts(per_level):
    return {lvl: _as_dict(cells) for lvl, cells in per_level.items()}


def _estimate(bank, level, lattice):
    if level == -1:
        return _as_dict(bank.counts_for_marking()[-1]).get(lattice, 0.0)
    return _as_dict(bank.h_cells[level]).get(lattice, 0) / bank.psi[level]


def _fixed_rates(params, psi, psi_prime):
    class FixedRates(type(params)):
        def psi(self, i, o):
            return psi

        def psi_prime(self, i, o):
            return psi_prime

    return FixedRates(**{f: getattr(params, f)
                         for f in params.__dataclass_fields__})


def test_rate_one_is_exact(rng):
    grid = GridHierarchy.from_seed(4, 8, 2)
    pts = rand_points(rng, 60, 8)
    bank = _bank(pts, grid, 1.0, 1.0, seed=1)
    pipeline = _pipeline_bank(pts, grid, PARAMS, 4, seed=1, exact_counts=True)
    exact = ExactBank(pts, grid)
    for lvl in range(-1, grid.L + 1):
        cells = _as_dict(exact_counts(pts, grid, levels=[lvl])[lvl])
        for lat, cnt in cells.items():
            for b in (bank, pipeline, exact):
                assert _estimate(b, lvl, lat) == cnt
    assert _as_dicts(pipeline.counts_for_marking()) == \
        _as_dicts(exact.counts_for_marking())
    assert _as_dicts(pipeline.hp_cells) == _as_dicts(exact.hp_cells)


def test_empty_cell_estimates_zero(rng):
    grid = GridHierarchy.from_seed(4, 8, 2)
    pts = [Point((1, 1), 0)]
    bank = _bank(pts, grid, 1.0, 1.0, seed=1)
    far = grid.lattice_of((8, 8), grid.L)
    assert _estimate(bank, grid.L, far) == 0.0


def test_retained_points_pass_their_hash(rng):
    # the pipeline's bank (OfflineBuilder cell data through SampleBank.build)
    # counts exactly the points an independently built hash keeps
    params = _fixed_rates(derive(k=2, r=2, eps=0.4, eta=0.4, Delta=16, d=2,
                                 mode=PRACTICAL, scale=1e-12), 0.5, 0.25)
    grid = GridHierarchy.from_seed(4, 16, 2)
    pts = rand_points(rng, 200, 16)
    bank = _pipeline_bank(pts, grid, params, 16, seed=9)
    enc = PointEncoder(16, 2)
    for lvl in range(0, grid.L + 1):
        for fam, rate, cells in (("h", 0.5, bank.h_cells), ("hp", 0.25, bank.hp_cells)):
            h = KWiseHash(derive_seed(9, f"{fam}:{lvl}"),
                          params.hash_lambda_prime(), enc)
            t = exact_threshold(rate, enc.modulus)
            kept = [p for p in pts if h.field_value(p) < t]
            assert 0 < len(kept) < len(pts)
            assert _as_dict(cells[lvl]) == \
                _as_dict(exact_counts(kept, grid, levels=[lvl])[lvl])
    assert bank.psi == {lvl: 0.5 for lvl in range(0, grid.L + 1)}
    assert bank.psi_prime == {lvl: 0.25 for lvl in range(0, grid.L + 1)}


def test_inverse_probability_variance(rng):
    # 100-point cell at rate 1/2: sampling distribution of the estimate
    grid = GridHierarchy.from_seed(4, 8, 2)
    pts = [Point((2, 2), i) for i in range(100)]
    cell = grid.lattice_of(pts[0].coords, grid.L)
    trials = 1000
    est = []
    for seed in range(trials):
        bank = _bank(pts, grid, 0.5, 1.0, seed=seed)
        est.append(_estimate(bank, grid.L, cell))
    mean = sum(est) / trials
    sigma_mean = math.sqrt(100 * (1 / 0.5 - 1)) / math.sqrt(trials)
    assert abs(mean - 100) <= 3 * sigma_mean


def test_unbiasedness_of_part_estimates(rng):
    grid = GridHierarchy.from_seed(6, 8, 2)
    pts = sorted(set(rand_points(rng, 40, 8)), key=lambda p: p.sort_key())
    o = 8
    exact = ExactBank(pts, grid)
    structure = mark_cells(exact.counts_for_marking(), PARAMS, o, grid)
    true_parts = part_taus(exact.part_estimates(structure)[1])
    if not true_parts:
        pytest.skip("instance produced no parts")
    trials = 600
    sums = {part: 0.0 for part in true_parts}
    for seed in range(trials):
        bank = _bank(pts, grid, 1.0, 0.5, seed=10_000 + seed)
        tau_part = part_taus(bank.part_estimates(structure)[1])
        for part in sums:
            sums[part] += tau_part.get(part, 0.0)
    for part, true_size in true_parts.items():
        mean = sums[part] / trials
        sigma_mean = math.sqrt(true_size * (1 / 0.5 - 1)) / math.sqrt(trials)
        assert abs(mean - true_size) <= 4 * sigma_mean


def test_part_estimates_exact_at_rate_one(rng):
    grid = GridHierarchy.from_seed(8, 8, 2)
    pts = sorted(set(rand_points(rng, 50, 8)), key=lambda p: p.sort_key())
    exact = ExactBank(pts, grid)
    structure = mark_cells(exact.counts_for_marking(), PARAMS, 4, grid)
    bank = _bank(pts, grid, 1.0, 1.0, seed=3)
    union_b, parts_b = bank.part_estimates(structure)
    union_e, parts_e = exact.part_estimates(structure)
    assert (union_b, part_taus(parts_b)) == (union_e, part_taus(parts_e))
    total = sum(1 for p in pts if part_of(structure, p) is not None)
    assert sum(union_e.values()) == total


def test_part_sums_run_left_to_right():
    # one part of 16 crucial cells, the children of the heavy level-0 cell
    # in 4-d, at psi' = 0.3: summed pairwise, as np.sum and np.add.reduceat
    # sum, their estimates give another float than left to right
    grid = GridHierarchy.from_seed(1, 8, 4)
    counts = [986, 685, 80, 783, 572, 587, 809, 897, 838, 322, 349, 712,
              359, 609, 509, 594]
    origin = np.zeros((1, 4), dtype=np.int64)
    structure = PartitionStructure(grid, {-1: origin, 0: origin})
    none = (np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64))
    cells = {lvl: none for lvl in range(0, grid.L + 1)}
    cells[1] = (lattice_array(itertools.product((0, 1), repeat=4), 4),
                np.array(counts, dtype=np.int64))
    rates = {lvl: 0.3 for lvl in cells}
    union, parts = SampleBank(grid, rates, rates, cells, cells) \
        .part_estimates(structure)
    est = [c * (1 / 0.3) for c in counts]
    left = 0.0
    for e in est:
        left += e
    assert left != np.sum(est)
    assert left != np.add.reduceat(np.array(est), [0])[0]
    assert part_taus(parts) == {(1, 0): left}
    assert union[1] == left


def test_part_with_no_crucial_cells_is_zero():
    grid = GridHierarchy.from_seed(8, 8, 2)
    pts = [Point((1, 1), 0)]
    exact = ExactBank(pts, grid)
    structure = mark_cells(exact.counts_for_marking(), PARAMS, 1e-9, grid)
    union, parts = exact.part_estimates(structure)
    assert part_taus(parts).get((0, 0), 0.0) == 0.0
    assert union[0] == 0.0


def test_goodness_audit_theory_mode(rng):
    """Theory-mode rates clamp to 1 at desk scale, so every estimate lands
    inside the goodness window; the audit asserts the 1% budget anyway."""
    violations = 0
    checks = 0
    for seed in range(20):
        grid = GridHierarchy.from_seed(seed, 8, 2)
        pts = sorted(set(rand_points(rng, 30, 8)), key=lambda p: p.sort_key())
        o = 16
        exact = ExactBank(pts, grid)
        structure = mark_cells(exact.counts_for_marking(), PARAMS, o, grid)
        true_parts = part_taus(exact.part_estimates(structure)[1])
        bank = _pipeline_bank(pts, grid, PARAMS, o, seed)
        tau_parts = part_taus(bank.part_estimates(structure)[1])
        for part, true_size in true_parts.items():
            tau = tau_parts.get(part, 0.0)
            i = part[0]
            window = 0.1 * PARAMS.gamma * PARAMS.T(i, o)
            good = (abs(tau - true_size) <= window
                    or 0.9 * true_size <= tau <= 1.1 * true_size)
            checks += 1
            violations += not good
    assert checks > 0
    assert violations / checks <= 0.01


def test_practical_rates_route_fewer_points(rng):
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                    mode=PRACTICAL, scale=1e-14)
    grid = GridHierarchy.from_seed(2, 8, 2)
    pts = rand_points(rng, 200, 8)
    dedup = sorted(set(pts), key=lambda p: p.sort_key())
    o = 1024
    assert any(params.psi(lvl, o) < 1 for lvl in range(0, grid.L + 1))
    bank = _pipeline_bank(pts, grid, params, o, seed=5)
    assert _as_dicts(bank.h_cells) == _as_dicts(_bank(
        dedup, grid, {lvl: params.psi(lvl, o) for lvl in range(0, grid.L + 1)},
        1.0, seed=5, lam=params.hash_lambda_prime()).h_cells)
    assert any(bank.h_cells[lvl][1].sum() < len(pts)
               for lvl in range(0, grid.L + 1))
