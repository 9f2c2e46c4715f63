"""Every CellData producer lists its point table in sort_key order, so every
mode emits coreset entries in canonical (level, part, point) order without
sorting them; read_coreset, whose file may list entries in any order, is
the one place that sorts.

A scalar dict-and-sorted read-out (_from_dicts_reference) is kept here as
the reference of the stores' finalize(), which is cellstore.merge_exact
over the store's content."""

import random
from operator import itemgetter

import numpy as np
import pytest

from capacore import cellstore
from capacore.cellstore import CellData, ExactCellStore, make_store
from capacore.common import derive_seed, is_fail
from capacore.coreset import (OfflineBuilder, build_auto, dedup_points,
                              o_grid, read_coreset, write_coreset)
from capacore.distributed import ByteChannel, Coordinator, Machine, run_protocol
from capacore.geometry import GridHierarchy, Point
from capacore.params import PRACTICAL, derive
from capacore.streaming import StreamEngine

from conftest import clustered_points, rand_points, read_exact
from test_distributed import RATE1, SAMPLING, _with_caps


def _from_dicts_reference(level, d, counts, light):
    """The CellData of cell counts {lattice: count} and, per light cell, its
    signed point multiplicities {point: multiplicity}, cell by cell: each
    cell's points sorted on their own, a point of multiplicity below 1 not
    listed, the table in cell order."""
    cells = sorted(counts)
    points, mults, offsets = [], [], [0]
    for lat in cells:
        mine = light.get(lat, {})
        for p in sorted(mine):
            if mine[p] > 0:
                points.append(p)
                mults.append(mine[p])
        offsets.append(len(points))
    return CellData(level, np.array(cells, dtype=np.int64).reshape(-1, d),
                    np.array([counts[c] for c in cells], dtype=np.int64),
                    points, np.arange(len(points)),
                    np.array(mults, dtype=np.int64),
                    np.array(offsets, dtype=np.int64))


def _light_of(store) -> dict:
    """An exact store's light cells as the reference takes them: per cell
    of count at most beta, its points' multiplicities, the points grouped
    by lattice_of."""
    light = {lat: {} for lat, cnt in store.counts.items() if cnt <= store.beta}
    for p, m in store.points.items():
        lat = store.grid.lattice_of(p.coords, store.level)
        if lat in light:
            light[lat][p] = m
    return light


def _assert_table_in_order(data):
    """data's point table is strictly increasing in sort_key order, and each
    cell lists its rows of the table in increasing order."""
    keys = [p.sort_key() for p in data.points]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    ids, ends = data.ids.tolist(), data.offsets.tolist()
    for a, b in zip(ends, ends[1:]):
        assert all(x < y for x, y in zip(ids[a:b], ids[a + 1:b]))


def _assert_canonical(core):
    assert core.entries == sorted(core.entries, key=itemgetter(2, 3, 0))


def _cell_major(core) -> bool:
    """Whether a point table listed cell by cell would have put core's
    entries out of canonical order: ordered by (level, part, cell, point),
    they differ from the canonical (level, part, point)."""
    grid = core.meta.structure.grid
    return core.entries != sorted(core.entries, key=lambda e: (
        e[2], e[3], grid.lattice_of(e[0].coords, e[2]), e[0]))


# --- the stores' read-out against its scalar reference ---------------------

def _pt(*coords, tag=0):
    return Point(coords, tag)


# no shift at Delta = 8: the level-2 lattice of (x, y) is
# ((x - 1) >> 1, (y - 1) >> 1), so each point below lies in its cell
FLAT = GridHierarchy(8, 2, (0, 0))
A, B, C = (0, 1), (1, 0), (2, 2)
READOUTS = {
    # a light cell whose points all cancel lists none, beside one that lists
    "cancelled": ({A: 2, B: 1}, {A: {_pt(1, 3): 1, _pt(2, 3): -1},
                                 B: {_pt(3, 1): 1}}),
    "all-cancelled": ({A: 1}, {A: {}}),
    # a point of a negative multiplicity is not listed
    "negative": ({A: 1, C: 3}, {A: {_pt(1, 3): 2, _pt(1, 4, tag=5): -1},
                                C: {_pt(5, 5, tag=2): 1, _pt(5, 5): 2}}),
    # a cell over beta lists no points: it is not among the light cells
    "over-beta": ({A: 9, B: 1, C: 2}, {B: {_pt(3, 2): 1},
                                       C: {_pt(6, 5): 1, _pt(5, 6): 1}}),
    "empty": ({}, {}),
}


@pytest.mark.parametrize("case", sorted(READOUTS))
def test_readout_matches_the_reference(case):
    # content a merge of shard stores can hold: a cell over beta on one
    # machine ships its count alone, so a count need not sum its points
    counts, light = READOUTS[case]
    store = ExactCellStore(FLAT, 2, 1e9, 3)
    store.counts = dict(counts)
    store.points = {p: m for pts in light.values() for p, m in pts.items()}
    assert _light_of(store) == light
    got = store.finalize()
    assert got == _from_dicts_reference(2, 2, counts, light)
    _assert_table_in_order(got)
    assert got.ids.dtype == got.mults.dtype == got.offsets.dtype == np.int64
    assert got.lattices.shape == (len(counts), 2)


@pytest.mark.parametrize("d, log_delta, level", [(2, 3, 3), (1, 6, 5),
                                                 (3, 40, 38), (3, 40, 3)])
def test_readout_matches_the_reference_on_store_dicts(d, log_delta, level):
    # an exact store after inserts and deletions, several tags per
    # coordinate tuple; d = 3 at Delta = 2**40 gives (coordinates, tag)
    # rows wider than 63 bits, whose keys are bytes keys
    Delta = 1 << log_delta
    rng = random.Random(f"readout:{d}:{log_delta}:{level}")
    grid = GridHierarchy.from_seed(derive_seed(log_delta, "shift"), Delta, d)
    pool = [tuple(rng.randint(1, Delta) for _ in range(d)) for _ in range(12)]
    store = cellstore.ExactCellStore(grid, level, 1e9, 3)
    for _ in range(120):
        store.update(Point(rng.choice(pool), rng.randint(-1, 3)),
                     rng.choice((1, 1, 2, -1)))
    light = _light_of(store)
    assert len(light) < len(store.counts)  # some cell is over beta
    got = store.finalize()
    assert got == _from_dicts_reference(level, d, store.counts, light)
    assert len(got.points) > 1
    _assert_table_in_order(got)


def _check_readout(store):
    """store.finalize() equals the reference, merge_exact over the store's
    own message read as the coordinator reads it (its listed points
    counted, its residual rows added), and a FAIL one cell below its cell
    count."""
    got = store.finalize()
    assert got == _from_dicts_reference(store.level, store.grid.d,
                                        store.counts, _light_of(store))
    _assert_table_in_order(got)
    assert read_exact(store, store.serialize()) == got
    capped = ExactCellStore(store.grid, store.level, len(store.counts) - 1,
                            store.beta, store.seed)
    capped.counts, capped.points = store.counts, store.points
    failed = capped.finalize()
    assert is_fail(failed) and failed.gate == "store cell cap"
    return got


@pytest.mark.parametrize("beta", [0.5, 1, 3])
@pytest.mark.parametrize("d, log_delta", [(1, 4), (2, 3), (3, 6), (3, 40)])
def test_store_readout_on_random_signed_updates(d, log_delta, beta):
    # updates dealt to three shards at random, so a shard may see a point's
    # deletion before its insertion or without it; the last third of the
    # updates undoes the first third, so points cancel in the merge.  Level
    # 0 cells hold many points (over beta), level L one coordinate tuple
    Delta = 1 << log_delta
    rng = random.Random(f"signed:{d}:{log_delta}:{beta}")
    grid = GridHierarchy.from_seed(rng.randrange(1 << 30), Delta, d)
    pool = [Point(tuple(rng.randint(1, Delta) for _ in range(d)),
                  rng.randint(-1, 2)) for _ in range(10)]
    seen = set()
    for level in sorted({0, grid.L // 2, grid.L}):
        updates = [(rng.choice(pool), rng.choice((1, 1, 2, -1)))
                   for _ in range(40)]
        updates += [(p, -sign) for p, sign in updates[:20]]
        shards = [ExactCellStore(grid, level, 1e9, beta, 7) for _ in range(3)]
        whole = ExactCellStore(grid, level, 1e9, beta, 7)
        for p, sign in updates:
            rng.choice(shards).update(p, sign)
            whole.update(p, sign)
        merged = ExactCellStore(grid, level, 1e9, beta, 7)
        for shard in shards:
            merged.merge_in(shard)
        assert (merged.counts, merged.points) == (whole.counts, whole.points)
        empty = ExactCellStore(grid, level, 1e9, beta, 7)
        for store in shards + [merged, empty]:
            data = _check_readout(store)
            seen.add(("negative", any(m < 0 for m in store.points.values())))
            seen.add(("over beta", any(c > beta
                                       for c in store.counts.values())))
            seen.add(("lists", len(data.points) > 0))
        assert not len(empty.finalize().lattices)
    assert {("over beta", True), ("lists", beta >= 1)} <= seen
    if beta >= 1:
        assert ("negative", True) in seen
    else:  # below beta 1 no cell lists its points
        assert all(not store.points for store in shards)


# --- every producer's table is in sort_key order ----------------------------

@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_store_finalize_lists_its_table_in_order(backing):
    rng = random.Random(f"stores:{backing}")
    grid = GridHierarchy.from_seed(31, 16, 2)
    pts = rand_points(rng, 60, 16)
    listed = []
    for level in range(0, grid.L + 1):
        store = make_store(backing, grid, level, 1e6, 6, seed=level)
        for p in pts:
            store.update(p, +1)
        for p in pts[::3]:
            store.update(p, -1)
        data = store.finalize()
        assert not is_fail(data)
        _assert_table_in_order(data)
        listed.append(len(data.points))
    assert max(listed) > 1


def test_merge_exact_and_offline_cells_list_their_tables_in_order(rng):
    grid = GridHierarchy.from_seed(derive_seed(5, "shift"), 8, 2)
    pts = rand_points(rng, 40, 8)
    coord = Coordinator(SAMPLING, grid, 5, "exact", False, n_max=64)
    for shard in (pts[0::3], pts[1::3], pts[2::3]):
        coord.absorb(Machine(shard, coord), ByteChannel())
    builder = OfflineBuilder(pts, grid, SAMPLING, 5)
    for key in coord._stores:
        for data in (coord._read(key), builder._cell_data(key)):
            _assert_table_in_order(data)


# --- every mode emits canonical entries --------------------------------------
# the configurations below are where a table listed cell by cell put entries
# out of canonical order

@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_pooled_stores_emit_canonical_entries(backing):
    params = _with_caps(lambda o: 4 * o, lambda o: o / 8)
    grid = GridHierarchy.from_seed(derive_seed(12, "shift"), 8, 2)
    pts = rand_points(random.Random(12345), 40, 8)
    live = [p for i, p in enumerate(pts) if i % 4]
    stream = StreamEngine(params, grid, 12, backing=backing, n_max=64)
    stream.process_stream([(p, +1) for p in pts] + [(p, -1) for p in pts[::4]])
    coord = Coordinator(params, grid, 12, backing, False, n_max=64)
    for shard in (live[0::2], live[1::2]):
        coord.absorb(Machine(shard, coord), ByteChannel())
    cell_major = False
    for o in stream.o_values:
        for core in (stream.finalize_for_o(o), coord.finalize_for_o(o)):
            if not is_fail(core):
                _assert_canonical(core)
                cell_major |= _cell_major(core)
    assert cell_major


def test_rate_one_stores_emit_canonical_entries():
    grid = GridHierarchy.from_seed(13, 8, 2)
    engine = StreamEngine(RATE1, grid, 13, exact_counts=True, n_max=64)
    live = rand_points(random.Random(12345), 30, 8)
    engine.process_stream((p, +1) for p in live)
    cell_major = False
    for o in engine.o_values:
        core = engine.finalize_for_o(o)
        if not is_fail(core):
            _assert_canonical(core)
            cell_major |= _cell_major(core)
    assert cell_major


def test_per_guess_stream_entries_are_canonical():
    grid = GridHierarchy.from_seed(derive_seed(8, "shift"), 8, 2)
    pts = dedup_points(rand_points(random.Random(12345), 40, 8))
    engine = StreamEngine(RATE1, grid, seed=8, n_max=len(pts))
    engine.process_stream((p, +1) for p in pts)
    cell_major = False
    for o in o_grid(len(pts), RATE1):
        core = engine.finalize_for_o(o)
        if not is_fail(core):
            _assert_canonical(core)
            cell_major |= _cell_major(core)
    assert cell_major


def _wide_instance():
    """test_modes' instance whose point codes exceed 64 bits, at the scale
    where sampled h and h' counts pick a large guess: params, grid and the
    live points."""
    Delta = 1 << 15
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=2,
                    mode=PRACTICAL, scale=1e-15)
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), Delta, 2)
    live = dedup_points(clustered_points(random.Random(1), 60, Delta,
                                         spread=Delta / 64))
    return params, grid, live


def test_modes_emit_canonical_entries_where_codes_exceed_64_bits():
    params, grid, live = _wide_instance()
    churn = [Point(p.coords, 100 + i) for i, p in enumerate(live[:20])]
    engine = StreamEngine(params, grid, 1, n_max=grid.Delta ** 2)
    engine.process_stream([(p, +1) for p in live + churn]
                          + [(p, -1) for p in churn])
    dist, _ = run_protocol([live[i::3] for i in range(3)], params, 1)
    for core in (build_auto(live, grid, params, 1), engine.finalize(), dist):
        _assert_canonical(core)
        assert _cell_major(core)


# --- read_coreset is the one place that sorts ---------------------------------

def test_read_coreset_sorts_shuffled_entry_blocks(tmp_path):
    params, grid, live = _wide_instance()
    core = build_auto(live, grid, params, 1)
    assert len({e[2] for e in core.entries}) > 1
    path = tmp_path / "core.txt"
    write_coreset(path, core)
    lines = path.read_text().splitlines()
    # header lines, then one (entrymeta, entry) pair of lines per entry
    head = len(lines) - 2 * len(core.entries)
    blocks = [lines[i:i + 2] for i in range(head, len(lines), 2)]
    assert all(b[0].startswith("% entrymeta=") for b in blocks)
    random.Random(4).shuffle(blocks)
    assert blocks != [lines[i:i + 2] for i in range(head, len(lines), 2)]
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("\n".join(lines[:head] + sum(blocks, [])) + "\n")
    got = read_coreset(shuffled)
    assert got == core
    assert got.entries == core.entries
    assert got.meta.part_tau == core.meta.part_tau
