import math
import random

import pytest

import capacore
from capacore import cellstore, coreset
from capacore.common import UsageError, derive_seed, is_fail
from capacore.coreset import (OfflineBuilder, build_auto, build_for_o,
                              dedup_points, exact_threshold, o_grid,
                              read_coreset, write_coreset)
from capacore.estimator import ExactBank
from capacore.geometry import (SHIFT_FRAC_BITS, TAG_SPACE, GridHierarchy,
                               Point, sample_shift)
from capacore.hashing import KWiseHash, PointEncoder
from capacore.params import PRACTICAL, THEORY, derive
from capacore.partition import mark_cells

from conftest import (cell_dicts, clustered_points, floor_lattice, part_of,
                      part_taus, rand_points)
from reference import brute_opt, coreset_size_bound

RATE1 = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
               mode=PRACTICAL, scale=1e-6)
SAMPLING = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                  mode=PRACTICAL, scale=1e-53)


def _grid(seed, Delta=8, d=2):
    return GridHierarchy.from_seed(derive_seed(seed, "shift"), Delta, d)


@pytest.mark.parametrize("module", [capacore, cellstore, coreset],
                         ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists {missing}"


def test_rate_one_keeps_all_qualifying_points(rng):
    pts = dedup_points(rand_points(rng, 30, 8))
    grid = _grid(1)
    core = build_for_o(pts, grid, RATE1, o=4, seed=1)
    assert not is_fail(core)
    builder = OfflineBuilder(pts, grid, RATE1, 1)
    bank = ExactBank(pts, grid)
    structure = mark_cells(bank.counts_for_marking(), RATE1, 4, grid)
    expected = {p for p in pts
                if part_of(structure, p) in core.meta.part_tau}
    assert set(core.points()) == expected
    assert all(w == 1.0 for _, w, _, _ in core.entries)


def test_coreset_subset_and_weights_exact(rng):
    pts = dedup_points(rand_points(rng, 40, 8))
    grid = _grid(7)
    core = build_auto(pts, grid, SAMPLING, seed=7, exact_counts=True)
    point_set = set(pts)
    for p, w, lvl, j in core.entries:
        assert p in point_set
        assert w == 1.0 / core.meta.phi[lvl]
        assert core.meta.part_tau[(lvl, j)] >= \
            SAMPLING.gamma * SAMPLING.T(lvl, core.meta.o)


def test_sampling_membership_reproducible(rng):
    pts = dedup_points(rand_points(rng, 60, 8))
    grid = _grid(3)
    seed = 11
    core = build_auto(pts, grid, SAMPLING, seed=seed, exact_counts=True)
    o = core.meta.o
    enc = PointEncoder(8, 2)
    builder = OfflineBuilder(pts, grid, SAMPLING, seed)
    structure = core.meta.structure
    chosen = set(core.points())
    for p in pts:
        part = part_of(structure, p)
        if part is None or part not in core.meta.part_tau:
            assert p not in chosen
            continue
        lvl = part[0]
        h = KWiseHash(derive_seed(seed, f"hhat:{lvl}"),
                      SAMPLING.hash_lambda(), enc)
        t = exact_threshold(SAMPLING.phi(lvl, o), enc.modulus)
        assert (t == enc.modulus or h.field_value(p) < t) == (p in chosen)


@pytest.mark.parametrize("scale", [1e-6, 1e-53, 1e-57])
@pytest.mark.parametrize("d, log_delta", [
    (d, log_delta) for d in (1, 2, 3) for log_delta in (1, 2, 3, 6, 11, 20)]
    + [(1, 62)])
def test_offline_cell_data_matches_a_per_point_reference(d, log_delta, scale):
    # the columnar builder against a dict built point by point, for every
    # Sampling key of every guess plus the rate-0 and rate-1 keys of every
    # level; the input repeats points, whose copies count in the cells and
    # are listed in their light points, and puts several tags on one
    # coordinate tuple
    Delta = 1 << log_delta
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=d,
                    mode=PRACTICAL, scale=scale)
    rng = random.Random(f"cells:{d}:{log_delta}:{scale}")
    pool = [(1,) * d, (Delta,) * d] + [
        tuple(rng.randint(1, Delta) for _ in range(d)) for _ in range(10)]
    points = [Point(rng.choice(pool), rng.choice((-1, 0, 7, TAG_SPACE - 2)))
              for _ in range(36)]
    points += points[::5]
    distinct = sorted(set(points), key=lambda p: p.sort_key())
    span = Delta << SHIFT_FRAC_BITS
    encoder = PointEncoder(Delta, d)
    seed = log_delta + 10 * d
    keys = None
    hashed = False
    for shift in ((0,) * d, (span - 1,) * d, sample_shift(seed, Delta, d)):
        grid = GridHierarchy(Delta, d, shift)
        builder = OfflineBuilder(points, grid, params, seed, exact_counts=False)
        assert builder.points == distinct
        if keys is None:
            keys = set(builder.sampling.served(o_grid(len(distinct), params)))
            keys |= {(None, lvl, t) for lvl in range(0, grid.L + 1)
                     for t in (0, encoder.modulus)}
        values = {}
        for fam, lvl, t in keys:
            if fam is None:
                kept = distinct if t else []
            else:
                hashed = True
                if (fam, lvl) not in values:
                    lam = params.hash_lambda() if fam == "hhat" \
                        else params.hash_lambda_prime()
                    h = KWiseHash(derive_seed(seed, f"{fam}:{lvl}"), lam,
                                  encoder)
                    values[(fam, lvl)] = [h.field_value(p) for p in distinct]
                kept = [p for p, v in zip(distinct, values[(fam, lvl)])
                        if v < t]
            light: dict = {}
            for p in kept:
                light.setdefault(floor_lattice(grid, p.coords, lvl),
                                 []).extend([p] * points.count(p))
            data = builder._cell_data((fam, lvl, t))
            assert data.level == lvl
            assert cell_dicts(data) == (
                {lat: len(pts) for lat, pts in light.items()},
                {lat: tuple(pts) for lat, pts in light.items()})
    # at scale 1e-57 some rate lies strictly between 0 and 1 on every
    # instance here, so hashed keys are checked too
    assert hashed or scale != 1e-57


def test_small_o_fails_via_part_mass_gate(rng):
    pts = dedup_points(clustered_points(rng, 30, 8, clusters=2, spread=1.0))
    opt, _ = brute_opt(pts, 2, 2, 8, 2)
    assert opt > 0
    grid = _grid(5)
    result = build_for_o(pts, grid, RATE1, o=opt / 1e4, seed=5)
    assert is_fail(result)


def test_heavy_cell_gate_fires_with_reduced_cap(rng):
    # gate 1 cannot bind at desk scale with the published constant, so the
    # comparison logic is exercised through a cap-shrunk params stub
    class TinyCap(type(RATE1)):
        def heavy_cell_cap(self):
            return 2.0

    tiny = TinyCap(**{f: getattr(RATE1, f) for f in RATE1.__dataclass_fields__})
    pts = dedup_points(rand_points(rng, 30, 8))
    grid = _grid(9)
    result = build_for_o(pts, grid, tiny, o=1, seed=9)
    assert is_fail(result)


def test_no_fail_for_o_between_opt10_and_opt(rng):
    for seed in range(10):
        pts = dedup_points(clustered_points(rng, 25, 8, clusters=2, spread=1.2))
        opt, _ = brute_opt(pts, 2, 2, 8, 2)
        if opt == 0:
            continue
        grid = _grid(seed)
        for o in (opt / 10, opt / 3, opt):
            assert not is_fail(build_for_o(pts, grid, RATE1, o, seed=seed))


def test_build_auto_singleton():
    grid = _grid(2)
    core = build_auto([Point((5, 5), 0)], grid, RATE1, seed=2)
    assert len(core) == 1
    p, w, lvl, j = core.entries[0]
    assert p == Point((5, 5), 0)
    assert w == 1.0 / core.meta.phi[lvl]


def test_build_auto_deterministic(rng):
    pts = rand_points(rng, 50, 8)
    grid = _grid(4)
    a = build_auto(pts, grid, SAMPLING, seed=4, exact_counts=True)
    b = build_auto(pts, grid, SAMPLING, seed=4, exact_counts=True)
    assert a == b
    assert a.meta.o_attempts == b.meta.o_attempts


def test_selected_o_vs_opt_on_tight_clusters(rng):
    # on tight clusters the published gates keep the selected guess inside
    # [OPT/20, OPT]; wide instances would select 1 (desk-scale constants)
    hits = 0
    runs = 0
    for seed in range(30):
        pts = dedup_points(clustered_points(rng, 16, 8, clusters=2, spread=0.35))
        opt, _ = brute_opt(pts, 2, 2, 8, 2)
        if opt == 0:
            continue
        grid = _grid(seed)
        core = build_auto(pts, grid, RATE1, seed=seed)
        runs += 1
        assert core.meta.o <= opt
        if core.meta.o >= opt / 20:
            hits += 1
    assert runs >= 15
    assert hits / runs >= 0.9


def test_o_grid_follows_universe_bound():
    params = RATE1
    grid_values = o_grid(10, params)
    limit = 10 * (math.sqrt(2) * 8) ** 2
    assert grid_values[0] == 1
    assert all(b == 2 * a for a, b in zip(grid_values, grid_values[1:]))
    assert grid_values[-1] <= limit < 2 * grid_values[-1]
    assert o_grid(0, params) == []


def test_expected_size_monte_carlo(rng):
    pts = dedup_points(rand_points(rng, 40, 8))
    grid = _grid(6)
    probe = build_auto(pts, grid, SAMPLING, seed=0, exact_counts=True)
    o = probe.meta.o
    bank = ExactBank(pts, grid)
    structure = mark_cells(bank.counts_for_marking(), SAMPLING, o, grid)
    tau_part = part_taus(bank.part_estimates(structure)[1])
    expected = 0.0
    variance = 0.0
    for part, size in tau_part.items():
        if size >= SAMPLING.gamma * SAMPLING.T(part[0], o):
            phi = SAMPLING.phi(part[0], o)
            expected += phi * size
            variance += phi * (1 - phi) * size
    trials = 250
    total = 0
    for seed in range(trials):
        core = build_for_o(pts, grid, SAMPLING, o, seed=seed,
                           exact_counts=True)
        total += len(core)
    mean = total / trials
    sigma_mean = math.sqrt(max(variance, 1e-12)) / math.sqrt(trials)
    assert abs(mean - expected) <= max(3 * sigma_mean, 1e-9)


def test_theory_mode_size_bound(rng):
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2, mode=THEORY)
    bound = coreset_size_bound(params)
    for seed in range(5):
        pts = rand_points(rng, 30, 8)
        core = build_auto(pts, _grid(seed), params, seed=seed)
        assert len(core) <= bound


def test_file_roundtrip(tmp_path, rng):
    pts = dedup_points(rand_points(rng, 35, 8))
    grid = _grid(8)
    core = build_auto(pts, grid, SAMPLING, seed=8, exact_counts=True)
    path = tmp_path / "core.txt"
    write_coreset(path, core)
    back = read_coreset(path)
    assert back == core
    assert back.meta.params == core.meta.params
    assert back.meta.part_tau == core.meta.part_tau
    assert back.meta.phi == core.meta.phi
    assert back.meta.structure.heavy == core.meta.structure.heavy
    assert back.meta.o_attempts == core.meta.o_attempts
    assert back.meta.exact_counts == core.meta.exact_counts


@pytest.mark.parametrize("prefix, bad, key", [
    ("% o=", None, "o"),                           # missing
    ("% o_attempts=", "% o_attempts=1,x", "o_attempts"),
    ("% exact_counts=", None, "exact_counts"),     # missing
    ("% exact_counts=", "% exact_counts=yes", "exact_counts"),
    ("% phi.", "% phi.x=1.0", "phi.x"),
    ("% part.", "% part.1=2.0", "part.1"),
    ("% heavy.", "% heavy.-1=0,a", "heavy.-1"),
    ("% heavy.", "% heavy.-1=0", "heavy.-1"),      # a 1-d cell in 2-d
    ("% heavy.", "{line}\n{line}", "heavy.-1"),     # repeated
    ("% seed=", "{line}\n% seed=9", "seed"),        # repeated, other value
    ("% entrymeta=", "{line}\n{line}", "entrymeta"),
    (None, "% entrymeta=0,0", "entrymeta"),        # dangling at end of file
])
def test_malformed_header_is_a_usage_error(tmp_path, rng, prefix, bad, key):
    core = build_auto(dedup_points(rand_points(rng, 35, 8)), _grid(8),
                      SAMPLING, seed=8, exact_counts=True)
    path = tmp_path / "core.txt"
    write_coreset(path, core)
    lines = path.read_text().splitlines()
    if prefix is None:
        lines.append(bad)
    else:
        # bad replaces the first line with the prefix; {line} is that line
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[i:i + 1] = [] if bad is None else \
            bad.format(line=lines[i]).split("\n")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match=f"{path}: .*'{key}'"):
        read_coreset(path)


def test_repeated_entry_is_a_usage_error(tmp_path, rng):
    # a copied entry pair would add a second entry of one point, whose
    # weight the coreset's weights() could not tell apart
    core = build_auto(dedup_points(rand_points(rng, 12, 8)), _grid(8),
                      RATE1, seed=8)
    path = tmp_path / "core.txt"
    write_coreset(path, core)
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith("% entrymeta="))
    path.write_text("\n".join(lines + lines[i:i + 2]) + "\n")
    point = lines[i + 1].partition(" ")[2]
    with pytest.raises(UsageError, match=f"{path}: .*'{point}' twice"):
        read_coreset(path)
