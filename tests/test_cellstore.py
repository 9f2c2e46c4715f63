import copy
import itertools
import random
import struct

import numpy as np
import pytest

from capacore import cellstore
from capacore.cellstore import (ExactCellStore, SketchCellStore, deserialize,
                                make_store)
from capacore.common import Fail, UsageError, is_fail
from capacore.geometry import TAG_SPACE, GridHierarchy, Point

from conftest import cell_dicts, exact_content, rand_points, read_exact
from reference import nominal_bytes

GRID = GridHierarchy.from_seed(21, 8, 2)
LEVEL = 2


def merge(a, b):
    """Pure merge: a copy of a with b merged in (merge_in rejects stores
    of different backings, levels, caps or seeds)."""
    out = copy.deepcopy(a)
    out.merge_in(b)
    return out


def _reference_fold(updates, grid, level, alpha, beta):
    """The CellData.canonical() of a store fed updates, or None above
    alpha cells."""
    counts = {}
    pts = {}
    for p, sign in updates:
        lat = grid.lattice_of(p.coords, level)
        counts[lat] = counts.get(lat, 0) + sign
        bucket = pts.setdefault(lat, {})
        bucket[p] = bucket.get(p, 0) + sign
    counts = {lat: c for lat, c in counts.items() if c}
    if len(counts) > alpha:
        return None
    light = {}
    for lat, cnt in counts.items():
        if cnt <= beta:
            expanded = []
            for p in sorted(pts[lat], key=lambda q: q.sort_key()):
                expanded.extend([p] * pts[lat][p])
            if expanded:
                light[lat] = tuple(expanded)
    return (level, tuple(sorted(counts.items())), tuple(sorted(light.items())))


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_insert_delete_cancels(backing):
    store = make_store(backing, GRID, LEVEL, 10, 3, seed=1)
    empty = store.finalize()
    store.update(Point((3, 3), 0), +1)
    store.update(Point((3, 3), 0), -1)
    after = store.finalize()
    assert after == empty
    assert len(after.counts) == 0


def _churned_stream(rng, pool):
    """A seeded insert/delete stream over pool, each point's updates in
    order, and its net multiset {point: multiplicity}.

    Every point in pool[0]'s cell ends with no copy, after that cell has
    emptied and refilled on the way; pool[1] is deleted before it is
    inserted; other points end with 0 or 1 copies after random churn."""
    gone = GRID.lattice_of(pool[0].coords, LEVEL)
    per_point, net = {}, {}
    for p in pool:
        m = 0 if GRID.lattice_of(p.coords, LEVEL) == gone \
            else rng.choice((0, 1, 1))
        seq = [+1] * m
        for _ in range(rng.randrange(3)):
            pos = rng.randrange(len(seq) + 1)
            seq[pos:pos] = rng.choice(([+1, -1], [-1, +1]))
        per_point[p], net[p] = seq, m
    per_point[pool[0]] = [+1, -1, +1, -1]
    per_point[pool[1]] = [-1, +1] + per_point[pool[1]]
    updates = []
    while any(per_point.values()):
        p = rng.choice([q for q, seq in per_point.items() if seq])
        updates.append((p, per_point[p].pop(0)))
    return updates, net


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_serialized_bytes_depend_on_the_net_multiset_only(backing):
    # a write path that keeps a zero record passes finalize() equality but
    # changes the blobs, hence the wire bytes
    rng = random.Random(31)
    pool = rand_points(rng, 40, 8)
    # a second point in pool[0]'s cell refills it after pool[0] leaves
    pool.insert(1, Point(pool[0].coords, 99))
    updates, net = _churned_stream(rng, pool)
    gone = GRID.lattice_of(pool[0].coords, LEVEL)
    assert all(GRID.lattice_of(p.coords, LEVEL) != gone
               for p, m in net.items() if m)
    # pool[0]'s cell is back at count 0 before the end, then written again
    count = list(itertools.accumulate(
        sign for p, sign in updates
        if GRID.lattice_of(p.coords, LEVEL) == gone))
    assert 0 in count[:-1]
    assert updates.index((pool[1], -1)) < updates.index((pool[1], +1))
    streamed = make_store(backing, GRID, LEVEL, 200, 2, seed=3)
    for p, sign in updates:
        streamed.update(p, sign)
    netted = make_store(backing, GRID, LEVEL, 200, 2, seed=3)
    for p, m in net.items():
        for _ in range(m):
            netted.update(p, +1)
    assert streamed.serialize() == netted.serialize()
    assert streamed.space_bytes() == netted.space_bytes()
    # split across two stores, a point's copies cancel only in the merge
    halves = [make_store(backing, GRID, LEVEL, 200, 2, seed=3)
              for _ in range(2)]
    for i, (p, sign) in enumerate(updates):
        halves[i % 2].update(p, sign)
    halves[0].merge_in(halves[1])
    assert halves[0].serialize() == netted.serialize()


def test_two_tags_count_two():
    store = ExactCellStore(GRID, LEVEL, 10, 5)
    store.update(Point((3, 3), 0), +1)
    store.update(Point((3, 3), 1), +1)
    cells, light = cell_dicts(store.finalize())
    lat = GRID.lattice_of((3, 3), LEVEL)
    assert cells[lat] == 2
    assert len(light[lat]) == 2


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_replay_oracle_random_stream(backing, rng):
    n_updates = 10_000 if backing == "exact" else 2_000
    pool = rand_points(rng, 300, 8)
    live = []
    updates = []
    for _ in range(n_updates):
        if live and rng.random() < 0.3:
            p = live.pop(rng.randrange(len(live)))
            updates.append((p, -1))
        else:
            p = rng.choice(pool)
            updates.append((p, +1))
            live.append(p)
    store = make_store(backing, GRID, LEVEL, alpha=200, beta=4, seed=3)
    for p, sign in updates:
        store.update(p, sign)
    got = store.finalize()
    want = _reference_fold(updates, GRID, LEVEL, 200, 4)
    assert not is_fail(got)
    assert got.canonical() == want


def test_exact_fail_iff_alpha_exceeded():
    store = ExactCellStore(GRID, 3, alpha=1, beta=1)
    store.update(Point((1, 1), 0), +1)
    assert not is_fail(store.finalize())
    store.update(Point((8, 8), 1), +1)
    assert store.finalize() == Fail("store cell cap")
    # removing one cell brings it back under the cap, deterministically
    store.update(Point((8, 8), 1), -1)
    assert not is_fail(store.finalize())


def test_sketch_fail_names_its_gate():
    # alpha 1 sizes 8 buckets per row: 3 cells peel and are over the cell
    # cap, 300 cells leave no bucket pure and the peel stops
    grid = GridHierarchy.from_seed(21, 64, 2)
    store = SketchCellStore(grid, grid.L, alpha=1, beta=1, seed=1)
    cells = [Point((x, y), 0) for x in range(1, 61, 3) for y in range(1, 46, 3)]
    for p in cells[:3]:
        store.update(p, +1)
    assert store.finalize() == Fail("store cell cap")
    for p in cells[3:]:
        store.update(p, +1)
    assert store.finalize() == Fail("sketch decoding")
    assert repr(store.finalize()) == "FAIL(sketch decoding)"
    assert not store.finalize()


def test_beta_filters_light_cells():
    store = ExactCellStore(GRID, 3, alpha=10, beta=1)
    store.update(Point((1, 1), 0), +1)
    store.update(Point((1, 2), 1), +1)  # same level-3 cell? distinct coords
    store.update(Point((8, 8), 2), +1)
    cells, light = cell_dicts(store.finalize())
    for lat, cnt in cells.items():
        if cnt <= 1:
            assert lat in light
        else:
            assert lat not in light
    assert sum(1 for cnt in cells.values() if cnt <= 1) == len(light)


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_merge_identity_commutativity(backing, rng):
    a = make_store(backing, GRID, LEVEL, 50, 3, seed=5)
    b = make_store(backing, GRID, LEVEL, 50, 3, seed=5)
    empty = make_store(backing, GRID, LEVEL, 50, 3, seed=5)
    for p in rand_points(rng, 40, 8):
        a.update(p, +1)
    for p in rand_points(rng, 30, 8):
        b.update(p, +1)
    assert merge(a, empty).finalize() == a.finalize()
    assert merge(a, b).finalize() == merge(b, a).finalize()


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_three_way_split_merge(backing, rng):
    updates = []
    for i, p in enumerate(rand_points(rng, 120, 8)):
        updates.append((p, +1))
        if i % 4 == 0:
            updates.append((p, -1))
    single = make_store(backing, GRID, LEVEL, 300, 2, seed=7)
    parts = [make_store(backing, GRID, LEVEL, 300, 2, seed=7) for _ in range(3)]
    for idx, (p, sign) in enumerate(updates):
        single.update(p, sign)
        parts[idx % 3].update(p, sign)
    merged = merge(merge(parts[0], parts[1]), parts[2])
    assert merged.finalize() == single.finalize()
    # associativity on observable content
    other = merge(parts[0], merge(parts[1], parts[2]))
    assert other.finalize() == merged.finalize()


def test_merge_parameter_mismatch():
    a = ExactCellStore(GRID, 2, 10, 1)
    b = ExactCellStore(GRID, 2, 11, 1)
    with pytest.raises(UsageError):
        merge(a, b)
    c = SketchCellStore(GRID, 2, 10, 1, seed=1)
    with pytest.raises(UsageError):
        merge(a, c)


def _read_back(store, blob):
    """The finalize() of the content that blob, store's serialize(),
    carries: a sketch deserialized, an exact message read as the
    coordinator reads it."""
    if isinstance(store, SketchCellStore):
        return deserialize(blob, store.grid).finalize()
    return read_exact(store, blob)


def _wire_store(store):
    """An exact store of store's level, caps and seed holding the content
    its serialize() carries (exact_content)."""
    back = ExactCellStore(store.grid, store.level, store.alpha, store.beta,
                          store.seed)
    back.counts, back.points = exact_content(store.serialize(), store.grid,
                                             store.level)
    return back


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_serialize_roundtrip(backing, rng):
    store = make_store(backing, GRID, LEVEL, 100, 2, seed=9)
    for p in rand_points(rng, 50, 8):
        store.update(p, +1)
    blob = store.serialize()
    assert len(blob) > 0
    assert _read_back(store, blob) == store.finalize()


def test_serialized_wire_preserves_merged_finalize(rng):
    # heavy-local cells ship without points, but cells light in the union
    # are light in every shard, so the read of the shards' messages is
    # the merged finalize output
    pts = rand_points(rng, 90, 8)
    full = ExactCellStore(GRID, LEVEL, 1000, 2)
    shards = [ExactCellStore(GRID, LEVEL, 1000, 2) for _ in range(3)]
    for i, p in enumerate(pts):
        full.update(p, +1)
        shards[i % 3].update(p, +1)
    assert read_exact(full, *(s.serialize() for s in shards)) \
        == full.finalize()


def test_sketch_recovery_success_rate(rng):
    delta = 0.05
    failures = 0
    trials = 200
    for seed in range(trials):
        store = SketchCellStore(GRID, 3, alpha=16, beta=3, seed=seed, delta=delta)
        pts = rand_points(rng, 20, 8)
        cells = {}
        for p in pts:
            lat = GRID.lattice_of(p.coords, 3)
            if len(cells) >= 16 and lat not in cells:
                continue
            cells[lat] = True
            store.update(p, +1)
        if is_fail(store.finalize()):
            failures += 1
    assert failures / trials <= delta


def test_sketch_space_meter():
    # below beta 1 a sketch has no point tables, nominally or in use
    for beta in (3, 0):
        store = SketchCellStore(GRID, 2, alpha=16, beta=beta, seed=1,
                                delta=0.05)
        nominal = nominal_bytes(store)
        for p in rand_points(random.Random(0), 30, 8):
            store.update(p, +1)
        assert 0 < store.space_bytes() <= nominal
    assert not store.point_state
    assert nominal == 40 + store.rows * store.buckets * 24
    exact = ExactCellStore(GRID, 2, 16, 3)
    exact.update(Point((1, 1), 0), +1)
    assert exact.space_bytes() > 0


def test_exact_blob_roundtrips_signed_content_at_the_wire_length():
    # a deletion before its insertion leaves a negative multiplicity; a
    # cell whose points cancel has count 0 and ships them with no residual
    # row; a cell of count 3 > beta ships none, its count a residual row
    a = Point((4, 4), 0)
    lat = GRID.lattice_of(a.coords, LEVEL)
    same = [Point(c, 1) for c in itertools.product(range(1, 9), repeat=2)
            if c != a.coords and GRID.lattice_of(c, LEVEL) == lat]
    store = ExactCellStore(GRID, LEVEL, 100, 2)
    store.update(a, +1)
    store.update(same[0], -1)
    for p in rand_points(random.Random(5), 12, 8):
        store.update(p, +1)
    heavy = GRID.lattice_of((8, 8), LEVEL)
    for tag in (50, 51, 52):
        store.update(Point((8, 8), tag), +1)
    assert lat not in store.counts and store.counts[heavy] >= 3
    cell_of = {p: GRID.lattice_of(p.coords, LEVEL) for p in store.points}
    shipped = {p: m for p, m in store.points.items()
               if store.counts.get(cell_of[p], 0) <= 2}
    assert store.points[same[0]] == -1 and same[0] in shipped
    blob = store.serialize()
    assert exact_content(blob, GRID, LEVEL) == (store.counts, shipped)
    assert read_exact(store, blob) == store.finalize()
    parsed = cellstore.parse_exact(blob, GRID)
    assert cellstore.encode_exact(parsed.points, parsed.cells, 1) == blob
    # the wire length, every value fitting one byte: the 20-byte header,
    # the point section (width byte, one row per shipped point), then the
    # residual section (width byte, one (store position, lattice, residual)
    # row per cell whose count is not its shipped points' multiplicities
    # summed)
    d = GRID.d
    residual = dict(store.counts)
    for p, m in shipped.items():
        residual[cell_of[p]] = residual.get(cell_of[p], 0) - m
    residual = {c: r for c, r in residual.items() if r}
    assert residual == {c: n for c, n in store.counts.items() if n > 2}
    assert heavy in residual and lat not in residual
    assert len(blob) == 20 + 1 + len(shipped) * (d + 2) \
        + 1 + len(residual) * (d + 2)
    assert {Point(tuple(r[:d]), r[d]): r[d + 1]
            for r in parsed.points.tolist()} == shipped
    assert [(tuple(r[1:d + 1]), r[d + 1]) for r in parsed.cells.tolist()] \
        == sorted(residual.items())
    assert not parsed.cells[:, 0].any()
    cells = set(store.counts) | set(cell_of.values())
    n = sum(map(abs, store.points.values()))
    assert len(blob) <= cellstore.machine_blob_bound(d, GRID.Delta, n,
                                                     [len(cells)])


def test_blob_bounds_are_met_when_every_cell_is_light_or_heavy():
    # the largest tag needs the point section's 8 bytes per value, and
    # n = 30 points at Delta = 8 one byte per value of the residual
    # section.  Every cell light lists every point and sends no residual
    # row: the bound of a store with no residual row.  Every cell heavy
    # (beta 0) lists none and sends one residual row per cell: the bound
    # less its n point rows
    pts = rand_points(random.Random(6), 30, 8)
    pts[7] = Point(pts[7].coords, TAG_SPACE - 2)
    n, d = len(set(pts)), GRID.d
    for beta in (100, 0):
        store = ExactCellStore(GRID, LEVEL, 100, beta)
        for p in pts:
            store.update(p, +1)
        blob = store.serialize()
        cells = len(store.counts)
        assert cells < n
        bound = cellstore.machine_blob_bound(d, GRID.Delta, n, [cells])
        assert len(blob) <= bound
        if beta:
            assert len(blob) == cellstore.machine_blob_bound(
                d, GRID.Delta, n, [0])
        else:
            assert len(blob) == bound - n * (d + 2) * 8


def _filled(backing):
    store = make_store(backing, GRID, LEVEL, 100, 2, seed=9)
    for p in rand_points(random.Random(7), 12, 8):
        store.update(p, +1)
    return store


def _reader(backing):
    """The reader of a serialized store of backing."""
    return cellstore.parse_exact if backing == "exact" else deserialize


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_blob_with_trailing_bytes_is_a_usage_error(backing):
    blob = _filled(backing).serialize()
    if backing == "exact":  # both sections hold rows
        parsed = cellstore.parse_exact(blob, GRID)
        assert len(parsed.points) and len(parsed.cells)
    for extra in (b"\0", bytes(3), bytes(8)):
        with pytest.raises(UsageError,
                           match=f"{len(extra)} bytes after the last"):
            _reader(backing)(blob + extra, GRID)


def test_point_message_with_trailing_bytes_is_a_usage_error():
    # an exact message read whole: bytes after it, a second message among
    # them, are a usage error
    blob = _filled("exact").serialize()
    assert len(cellstore.parse_exact(blob, GRID).points)
    for extra in (b"\0", bytes(3), bytes(8), blob):
        with pytest.raises(UsageError,
                           match=f"{len(extra)} bytes after the last section "
                                 f"of an exact message"):
            cellstore.parse_exact(blob + extra, GRID)


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_truncated_blob_is_a_usage_error(backing):
    blob = _filled(backing).serialize()
    read = _reader(backing)
    # cutting 1 to 16 bytes, leaving 0 to 47, and cuts between
    cuts = set(range(1, 17)) | set(range(len(blob) - 47, len(blob) + 1))
    cuts |= set(range(13, len(blob), 13))
    for cut in sorted(cuts):
        with pytest.raises(UsageError):
            read(blob[:len(blob) - cut], GRID)
    with pytest.raises(UsageError, match="truncated"):
        read(blob[:-3], GRID)
    if backing == "exact":  # every cut, in the header or either section
        for cut in range(1, len(blob) + 1):
            with pytest.raises(UsageError, match="truncated"):
                read(blob[:len(blob) - cut], GRID)


def test_truncated_point_message_is_a_usage_error():
    # a message cut in its point section: its header holds, its point
    # rows (one byte per value) fall short
    blob = _filled("exact").serialize()
    points = cellstore.parse_exact(blob, GRID).points
    assert blob[20] == 1 and len(points)
    for end in range(20, 21 + points.size):
        with pytest.raises(UsageError, match="truncated"):
            cellstore.parse_exact(blob[:end], GRID)


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_blob_of_another_dimension_is_a_usage_error(backing):
    store = _filled(backing)
    blob = store.serialize()
    grid3 = GridHierarchy.from_seed(21, 8, 3)
    with pytest.raises(UsageError, match="2-d, the grid 3-d"):
        _reader(backing)(blob, grid3)
    # the blob itself is sound
    assert _read_back(store, blob) == store.finalize()


def test_point_message_of_another_dimension_is_a_usage_error():
    # a message whose point rows and residual rows hold 3 coordinates
    parsed = cellstore.parse_exact(_filled("exact").serialize(), GRID)
    blob = cellstore.encode_exact(
        np.insert(parsed.points, 0, parsed.points[:, 0], axis=1),
        np.insert(parsed.cells, 1, parsed.cells[:, 1], axis=1), 1)
    with pytest.raises(UsageError, match="3-d, the grid 2-d"):
        cellstore.parse_exact(blob, GRID)
    back = cellstore.parse_exact(blob, GridHierarchy.from_seed(21, 8, 3))
    assert back.points.shape[1] == back.cells.shape[1] == 5


def test_a_blob_of_the_other_backing_is_a_usage_error():
    exact, sketch = (_filled(b).serialize() for b in ("exact", "sketch"))
    with pytest.raises(UsageError, match="not a sketch cell-store blob"):
        deserialize(exact, GRID)
    with pytest.raises(UsageError, match="not an exact cell-store message"):
        cellstore.parse_exact(sketch, GRID)


@pytest.mark.parametrize("beta", [0, 2, 100])
def test_merge_exact_equals_the_fold_on_signed_blobs(beta):
    # blobs of stores that saw deletions: a point's copies cancel across
    # blobs, a multiplicity and a cell count go negative, a cell's count
    # returns to 0 while its points still ship (at beta 0 the stores keep
    # and ship counts only); cell caps above, at and below the merged cell
    # count.  The fold merges the content each blob carries
    rng = random.Random(41)
    pool = rand_points(rng, 40, 8)
    pool.insert(1, Point(pool[0].coords, 99))
    updates, _ = _churned_stream(rng, pool)
    updates.append((pool[5], -1))

    def fold_and_blobs(alpha):
        parts = [ExactCellStore(GRID, LEVEL, alpha, beta, seed=3)
                 for _ in range(3)]
        for i, (p, sign) in enumerate(updates):
            parts[i % 3].update(p, sign)
        fold = ExactCellStore(GRID, LEVEL, alpha, beta, seed=3)
        for part in parts:
            fold.merge_in(_wire_store(part))
        return fold, [part.serialize() for part in parts]

    fold, _ = fold_and_blobs(200)
    cells = len(fold.counts)
    assert any(c < 0 for c in fold.counts.values())
    for alpha in (200, cells, cells - 1):
        fold, blobs = fold_and_blobs(alpha)
        want = fold.finalize()
        got = read_exact(fold, *blobs)
        assert is_fail(want) == (alpha < cells)
        if is_fail(want):
            assert is_fail(got)
            continue
        assert got == want


# the edges of each signed width: each case's values and the narrowest of
# 1, 2, 4 and 8 bytes that holds them
_EDGES = [
    ([], 1), ([0], 1), ([-1], 1), ([127], 1), ([-128], 1), ([-128, 127], 1),
    ([128], 2), ([-129], 2), ([-1, 128], 2), ([2 ** 15 - 1], 2),
    ([-2 ** 15], 2), ([2 ** 15], 4), ([-2 ** 15 - 1], 4), ([2 ** 31 - 1], 4),
    ([-2 ** 31], 4), ([2 ** 31], 8), ([-2 ** 31 - 1], 8),
    ([TAG_SPACE - 2], 8), ([1 << 62], 8), ([2 ** 63 - 1], 8), ([-2 ** 63], 8),
    ([0, 2 ** 63 - 1, -2 ** 63, 5], 8),
]


@pytest.mark.parametrize("values, width", _EDGES)
def test_a_section_takes_the_narrowest_width_that_holds_it(values, width):
    arr = np.array(values, dtype=np.int64)
    section = cellstore._narrow(arr)
    assert section[0] == width
    assert len(section) == 1 + width * len(values)
    # each value as a little-endian signed integer of that width
    assert section[1:] == b"".join(v.to_bytes(width, "little", signed=True)
                                   for v in values)
    # no narrower width holds them all
    for w in (1, 2, 4, 8):
        if w < width:
            assert any(not -(1 << 8 * w - 1) <= v < 1 << 8 * w - 1
                       for v in values)
    # read back as int64, at any offset, with bytes after the section
    blob = b"\x07" + section + b"\x01\x02"
    back, end = cellstore._wide(blob, 1, len(values))
    assert back.dtype == np.int64 and back.tolist() == values
    assert end == 1 + len(section)
    for cut in range(1, len(section) + 1):
        with pytest.raises(UsageError, match="truncated"):
            cellstore._wide(blob[:1 + len(section) - cut], 1, len(values))


def _message(points, cells, width, cell_width, stores=1, d=2):
    """An exact message written from the layout: the header (magic,
    version 6, kind 0, d, numbers of point rows, residual rows and
    stores), then each section's width byte and rows."""
    return struct.pack("<4sBBHIII", b"CSTO", 6, 0, d, len(points),
                       len(cells), stores) \
        + bytes([width]) + np.array(points, f"<i{width}").tobytes() \
        + bytes([cell_width]) + np.array(cells, f"<i{cell_width}").tobytes()


def test_exact_messages_follow_the_v6_layout():
    store = _filled("exact")
    blob = store.serialize()
    parsed = cellstore.parse_exact(blob, GRID)
    assert blob == _message(parsed.points.tolist(), parsed.cells.tolist(),
                            1, 1)
    # a residual row per cell over beta 2, at store position 0, holding its
    # count; the light cells' counts are their listed rows' multiplicities
    assert parsed.stores == 1 and parsed.cells.shape[1] == GRID.d + 2
    assert not parsed.cells[:, 0].any()
    assert {tuple(r[1:-1]): r[-1] for r in parsed.cells.tolist()} == \
        {lat: c for lat, c in store.counts.items() if c > 2}
    assert len(parsed.points) == sum(c for c in store.counts.values()
                                     if c <= 2)


def _wide_store(Delta, tag):
    """A store of a 2-d grid of Delta whose points include (Delta, Delta)
    with tag tag, and a point deleted but never inserted."""
    grid = GridHierarchy.from_seed(5, Delta, 2)
    store = ExactCellStore(grid, 1, 100, 5)
    pts = [Point((1, 1), 0), Point((Delta, Delta), tag),
           Point((Delta // 2, 1), tag // 2), Point((Delta, 1), 3)]
    for p in pts:
        store.update(p, +1)
    store.update(Point((1, Delta), 7), -1)
    return grid, store


@pytest.mark.parametrize("Delta, tag, width", [
    (8, 5, 1), (1 << 10, 300, 2), (1 << 20, 1 << 20, 4),
    (1 << 40, TAG_SPACE - 2, 8), (1 << 62, TAG_SPACE - 2, 8)])
def test_wide_values_roundtrip_and_every_cut_is_truncated(Delta, tag, width):
    # coordinates up to Delta = 2**62 and tags up to 2**32 - 2 give the
    # point section 8 bytes per value
    grid, store = _wide_store(Delta, tag)
    blob = store.serialize()
    assert blob[20] == width
    assert exact_content(blob, grid, 1) == (store.counts, store.points)
    assert read_exact(store, blob) == store.finalize()
    n = sum(map(abs, store.points.values()))
    cells = len(set(store.counts) | {grid.lattice_of(p.coords, 1)
                                     for p in store.points})
    assert len(blob) <= cellstore.machine_blob_bound(2, Delta, n, [cells])
    for cut in range(1, len(blob) + 1):
        with pytest.raises(UsageError, match="truncated"):
            cellstore.parse_exact(blob[:len(blob) - cut], grid)


@pytest.mark.parametrize("bad", [0, 3, 16])
def test_a_width_byte_other_than_1_2_4_8_is_a_usage_error(bad):
    blob = _filled("exact").serialize()
    parsed = cellstore.parse_exact(blob, GRID)
    assert len(parsed.cells)
    # the point section's width byte, and the residual section's
    second = 21 + parsed.points.size
    assert blob[20] == blob[second] == 1
    for at in (20, second):
        bent = blob[:at] + bytes([bad]) + blob[at + 1:]
        with pytest.raises(UsageError, match=f"width byte {bad} in an exact"):
            cellstore.parse_exact(bent, GRID)


def test_a_residual_section_is_read_at_its_width_and_length():
    # residual rows of either sign at each width, at store positions 0 and
    # 1 of 2; a section one row short, and bytes after it
    for cells, width in (([[0, 0, 0, 3], [1, 1, -2, -1]], 1),
                         ([[0, 0, 0, 300], [1, -4, 4, -129]], 2),
                         ([[1, 5, 5, 1 << 40]], 8)):
        blob = _message([], cells, 1, width, stores=2)
        assert cellstore.parse_exact(blob, GRID).cells.tolist() == cells
        with pytest.raises(UsageError, match="truncated"):
            cellstore.parse_exact(blob[:-4 * width], GRID)
        with pytest.raises(UsageError, match="1 bytes after the last section"):
            cellstore.parse_exact(blob + b"\0", GRID)
    empty = _message([], [], 1, 1)
    assert len(empty) == 22
    parsed = cellstore.parse_exact(empty, GRID)
    assert parsed.points.shape == parsed.cells.shape == (0, GRID.d + 2)


def _one_cell_pair():
    """Two points of one level-LEVEL cell of GRID."""
    a = Point((4, 4), 0)
    lat = GRID.lattice_of(a.coords, LEVEL)
    b = next(Point(c, 1) for c in itertools.product(range(1, 9), repeat=2)
             if c != a.coords and GRID.lattice_of(c, LEVEL) == lat)
    return a, b, lat


def test_a_cell_of_count_0_listing_points_survives_the_wire():
    # +1 of a and -1 of b net the cell to count 0: it lists both points,
    # whose multiplicities sum to its count, so it has no residual row
    a, b, lat = _one_cell_pair()
    store = ExactCellStore(GRID, LEVEL, 100, 2)
    store.update(a, +1)
    store.update(b, -1)
    store.update(Point((8, 8), 5), +1)
    assert lat not in store.counts and len(store.points) == 3
    blob = store.serialize()
    assert not len(cellstore.parse_exact(blob, GRID).cells)
    back = _wire_store(store)
    assert (back.counts, back.points) == (store.counts, store.points)
    assert read_exact(store, blob) == store.finalize()
    assert back.serialize() == blob
    # undoing both updates on either side gives the same store
    for s in (store, back):
        s.update(a, -1)
        s.update(b, +1)
    assert (back.counts, back.points) == (store.counts, store.points)
    assert len(store.points) == 1
    assert back.finalize() == store.finalize()


def test_a_point_deleted_before_its_insertion_survives_the_wire():
    a, b, lat = _one_cell_pair()
    store = ExactCellStore(GRID, LEVEL, 100, 2)
    store.update(a, -1)
    store.update(b, +1)
    store.update(b, +1)
    assert store.counts == {lat: 1} and store.points == {a: -1, b: 2}
    back = _wire_store(store)
    assert (back.counts, back.points) == (store.counts, store.points)
    assert read_exact(store, store.serialize()) == store.finalize()
    # the insertion arrives after the wire, in either store
    inserted = ExactCellStore(GRID, LEVEL, 100, 2)
    inserted.update(a, +1)
    back.merge_in(inserted)
    store.update(a, +1)
    assert (back.counts, back.points) == (store.counts, {b: 2})
    assert back.finalize() == store.finalize()
    assert cell_dicts(store.finalize()) == ({lat: 2}, {lat: (b, b)})
