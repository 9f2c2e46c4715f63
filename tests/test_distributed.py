import math
import random
import struct
from collections import Counter

import numpy as np
import pytest

from capacore.common import UsageError, derive_seed, is_fail
from capacore.coreset import (Sampling, build_auto, dedup_points,
                              exact_threshold, finalize_cells, o_grid)
from capacore.cellstore import (ExactCellStore, deserialize, encode_exact,
                                parse_exact)
from capacore.distributed import (ByteChannel, Coordinator, Machine,
                                  broadcast_blob, per_machine_byte_cap,
                                  run_protocol)
from capacore.geometry import GridHierarchy, Point
from capacore.hashing import KWiseHash, PointEncoder
from capacore.params import FAMILIES, PRACTICAL, derive
from capacore.streaming import StreamEngine

from conftest import exact_content, rand_points

RATE1 = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
               mode=PRACTICAL, scale=1e-6)
SAMPLING = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                  mode=PRACTICAL, scale=1e-53)


def _with_caps(alpha, beta=None, base=RATE1):
    """base (RATE1) whose store caps are alpha(o) and beta(o) (the
    schedule's beta when beta is None) for every family and level."""
    class Caps(type(base)):
        def caps(self, family, i, o):
            own = super().caps(family, i, o)[1]
            return alpha(o), own if beta is None else beta(o)

    return Caps(**{f: getattr(base, f) for f in base.__dataclass_fields__})


def _kept(layout, key, points) -> np.ndarray:
    """Whether a Sampling key of layout keeps each of points, by its
    (family, level) hash one point at a time."""
    fam, lvl, t = key
    if fam is None:
        return np.full(len(points), t > 0)
    hash_ = layout.sampling.hash(fam, lvl)
    return np.array([hash_.field_value(p) < t for p in points], dtype=bool)


def _reference_stores(machine, shard):
    """One exact store per store of the machine's layout, fed the points of
    shard its Sampling key keeps, point by point through update."""
    eng = machine.layout
    refs = []
    for key, store in eng._stores.items():
        ref = ExactCellStore(eng.grid, key[1], store.alpha, store.beta,
                             store.seed)
        for p, keep in zip(shard, _kept(eng, key, shard)):
            if keep:
                ref.update(p, +1)
        refs.append(ref)
    return refs


def _wire_stores(machine):
    """The stores a machine's messages describe, in layout order: each
    sketch blob deserialized, or per store position of the exact message
    an exact store of the layout's level, caps and seed fed by update the
    point rows its key keeps, with their multiplicities, whose counts then
    take the residual rows of its position."""
    layout = machine.layout
    grid, d = layout.grid, layout.grid.d
    messages = list(machine.wire_messages())
    if layout.backing == "sketch":
        return [deserialize(blob, grid) for blob in messages]
    if not layout._stores:
        assert not messages
        return []
    (message,) = messages
    blob = parse_exact(message, grid)
    assert blob.stores == len(layout._stores)
    points = [Point(tuple(r[:d]), r[d]) for r in blob.points.tolist()]
    stores = []
    for i, (key, spec) in enumerate(layout._stores.items()):
        store = ExactCellStore(grid, key[1], spec.alpha, spec.beta, spec.seed)
        for p, m, keep in zip(points, blob.points[:, d + 1].tolist(),
                              _kept(layout, key, points)):
            if keep:
                store.update(p, m)
        for _, *lat, r in blob.cells[blob.cells[:, 0] == i].tolist():
            count = store.counts.pop(tuple(lat), 0) + r
            if count:
                store.counts[tuple(lat)] = count
        stores.append(store)
    return stores


def _shipped(store):
    """An exact store's content as its own wire carries it: its counts,
    and the points of its light cells with their multiplicities."""
    return exact_content(store.serialize(), store.grid, store.level)


def _point_rows(machine) -> dict:
    """{Point: multiplicity} over the point rows of an exact machine's
    message, each point once."""
    d = machine.layout.grid.d
    (message,) = machine.wire_messages()
    rows = parse_exact(message, machine.layout.grid).points.tolist()
    table = {Point(tuple(r[:d]), r[d]): r[d + 1] for r in rows}
    assert len(table) == len(rows)
    return table


def _over_every_guess(machine, refs):
    """The Sampling keys whose reference store has more cells than the
    cell cap of every (family, guess) pair the key serves."""
    eng = machine.layout
    served = eng.sampling.served(eng.o_values)
    return [key for key, ref in zip(eng._stores, refs)
            if all(len(ref.counts) > eng.params.caps(f, key[1], o)[0]
                   for f, o in served[key])]


def _offline(points, params, seed, exact_counts):
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"),
                                   params.Delta, params.d)
    return build_auto(points, grid, params, seed, exact_counts=exact_counts)


def test_single_machine_equals_offline(rng):
    pts = dedup_points(rand_points(rng, 40, 8))
    core, comm = run_protocol([pts], RATE1, seed=1)
    offline = _offline(pts, RATE1, 1, exact_counts=False)
    assert core == offline
    assert comm > 0


@pytest.mark.parametrize("params,exact_counts", [(RATE1, False),
                                                 (SAMPLING, True)])
def test_sharding_invariance(rng, params, exact_counts):
    pts = dedup_points(rand_points(rng, 60, 8))
    offline = _offline(pts, params, 2, exact_counts)
    for s in (2, 4, 5):
        for trial in range(3):
            shuffled = list(pts)
            random.Random(100 * s + trial).shuffle(shuffled)
            shards = [shuffled[i::s] for i in range(s)]
            core, comm = run_protocol(shards, params, seed=2,
                                      exact_counts=exact_counts)
            assert core == offline
            assert comm > 0


def test_empty_shards_allowed(rng):
    pts = dedup_points(rand_points(rng, 20, 8))
    core, _ = run_protocol([pts, [], []], RATE1, seed=3)
    assert core == _offline(pts, RATE1, 3, exact_counts=False)


def test_comm_bytes_grow_with_machines_and_stay_under_cap(rng):
    pts = dedup_points(rand_points(rng, 200, 8))
    comm_by_s = {}
    for s in (1, 2, 4, 5):
        shards = [pts[i::s] for i in range(s)]
        core, comm = run_protocol(shards, RATE1, seed=4)
        comm_by_s[s] = comm
    grid = GridHierarchy.from_seed(derive_seed(4, "shift"), 8, 2)
    cap = per_machine_byte_cap(RATE1, grid, o_grid(len(pts), RATE1), len(pts))
    for s, comm in comm_by_s.items():
        assert comm <= 2 * s * cap
    # the broadcast makes the total grow with s
    assert comm_by_s[5] > comm_by_s[1]


def _fixed_width_byte_cap(params, grid, o_values, n, width=8):
    """per_machine_byte_cap with residual rows at width bytes per value:
    the broadcast and two counts; one message of a 20-byte header, two
    width bytes, 8 (d + 2) bytes per point (as its tags need 8) and per
    store at most min(n, cells) residual rows of d + 2 values."""
    d = grid.d
    served = Sampling(params, grid, 0, exact_counts=False).served(o_values)
    total = len(broadcast_blob(params, grid, 0)) + 16
    if served:
        total += 22 + n * 8 * (d + 2)
    for _, lvl, _ in served:
        cells = min(n, (2 ** lvl + 1) ** d)
        total += cells * (d + 2) * width
    return total


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("Delta", [8, 256, 1 << 40])
def test_byte_cap_is_below_the_fixed_width_cap(d, Delta):
    # store positions, lattices and counts of Delta 8 and 256 and n up to
    # 8,000 take 2 bytes at most, those of Delta 2**40 take 8
    grid = GridHierarchy.from_seed(derive_seed(4, "shift"), Delta, d)
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=d,
                    mode=PRACTICAL, scale=1e-6)
    for n in (5, 400, 8000):
        guesses = o_grid(n, params)
        stores = len(Sampling(params, grid, 0, exact_counts=False)
                     .served(guesses))
        cap = per_machine_byte_cap(params, grid, guesses, n)
        assert cap == _fixed_width_byte_cap(
            params, grid, guesses, n,
            8 if Delta > 1 << 31 else 1 if max(Delta, n, stores) < 128
            else 2)
        if Delta < 1 << 31:
            assert cap < _fixed_width_byte_cap(params, grid, guesses, n)


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_dist_equals_offline_where_wire_values_need_8_bytes(backing):
    # d = 1 at Delta = 2**40, tags up to the largest, 2**32 - 2: the exact
    # point sections take 8 bytes per value and stay under the cap
    Delta = 1 << 40
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=1,
                    mode=PRACTICAL, scale=1e-6)
    rng = random.Random(40)
    pts = dedup_points([Point((rng.randint(1, Delta),), 4294967294 - i)
                        for i in range(24)] + [Point((1,), 0),
                                               Point((Delta,), 1)])
    grid = GridHierarchy.from_seed(derive_seed(6, "shift"), Delta, 1)
    shards = [pts[0::3], pts[1::3], pts[2::3]]
    core, comm = run_protocol(shards, params, seed=6, backing=backing)
    assert core == _offline(pts, params, 6, exact_counts=False)
    if backing == "exact":
        messages = [next(iter(Machine(shard, Coordinator(
            params, grid, 6, "exact", False, n_max=len(pts))).wire_messages()))
            for shard in shards]
        assert all(message[20] == 8 for message in messages)
        assert comm <= 3 * per_machine_byte_cap(params, grid,
                                                o_grid(len(pts), params),
                                                len(pts))


def test_sketch_backing_protocol(rng):
    pts = dedup_points(rand_points(rng, 25, 8))
    core, comm = run_protocol([pts[:13], pts[13:]], RATE1, seed=5,
                              backing="sketch")
    offline = _offline(pts, RATE1, 5, exact_counts=False)
    assert core == offline
    assert comm > 0


@pytest.mark.parametrize("Delta", [8, 1 << 62])
def test_run_protocol_lays_out_the_guesses_of_its_points(rng, monkeypatch,
                                                         Delta):
    # one message per machine, of one store per Sampling key of o_grid(n)
    # for the run's n points, whatever Delta; no point lays out no store,
    # sends no message and gives the empty coreset
    sent = []
    wire = Machine.wire_messages

    def counted(machine):
        blobs = list(wire(machine))
        sent.append(len(blobs))
        return iter(blobs)

    monkeypatch.setattr(Machine, "wire_messages", counted)
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=2,
                    mode=PRACTICAL, scale=1e-6)
    grid = GridHierarchy.from_seed(derive_seed(4, "shift"), Delta, 2)
    for n in (0, 1, 30):
        pts = dedup_points(rand_points(rng, n, Delta))
        sent.clear()
        core, comm = run_protocol([pts[0::3], pts[1::3], pts[2::3]],
                                  params, seed=4)
        guesses = o_grid(len(pts), params)
        served = Sampling(params, grid, 4, exact_counts=False).served(guesses)
        assert sent == [1 if served else 0] * 3
        assert bool(served) == (n > 0)
        assert comm <= 3 * per_machine_byte_cap(params, grid, guesses,
                                                len(pts))
        assert core == _offline(pts, params, 4, exact_counts=False)
        if n == 0:
            # the broadcast, the run's point count and each shard's size
            assert len(core) == 0 and core.meta.o_attempts == ()
            assert comm == 3 * (len(broadcast_blob(params, grid, 4)) + 16)


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_machine_sends_each_distinct_store_once(rng, backing):
    # cell caps that grow with the guess: a shard is over some guesses'
    # caps and under others'; the machine sends every store all the same,
    # with the sketch backing one message each, in layout order, and with
    # the exact backing one message of every store
    params = _with_caps(lambda o: o / 2)
    pts = dedup_points(rand_points(rng, 30, 8))
    grid = GridHierarchy.from_seed(derive_seed(8, "shift"), 8, 2)
    engine = StreamEngine(params, grid, 8, backing=backing, n_max=64)
    machine = Machine(pts, engine)
    # an exact store fed point by point, or a sketch streamed the shard
    if backing == "exact":
        refs = _reference_stores(machine, pts)
    else:
        stream = StreamEngine(params, grid, 8, backing=backing, n_max=64)
        stream.process_stream((p, +1) for p in pts)
        refs = list(stream._stores.values())
    # one store per distinct Sampling key, for either backing
    triples = [(o, fam, lvl) for o in engine.o_values
               for lvl in range(0, grid.L + 1) for fam in FAMILIES]
    pooled = {engine.sampling.key(fam, lvl, o) for o, fam, lvl in triples}
    assert len({id(s) for s in engine._stores.values()}) == len(pooled)
    assert len(pooled) < len(triples)
    messages = list(machine.wire_messages())
    assert len(messages) == (1 if backing == "exact" else len(pooled))
    if backing == "sketch":
        for blob, ref in zip(messages, refs):
            assert blob == ref.serialize()
        return
    # an exact message holds per store position residual rows: a store's
    # content, read with the point rows its key keeps, is the reference
    # store's on the wire
    assert parse_exact(messages[0], grid).stores == len(pooled)
    stores = _wire_stores(machine)
    assert len(stores) == len(pooled)
    for store, ref in zip(stores, refs):
        assert _shipped(store) == _shipped(ref)


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_counting_stores_hold_and_ship_no_point(backing):
    # at k = 3 and Delta = 64 two level-6 stores serve h alone: only hhat's
    # points become entries, so after the stream and in every machine's
    # blobs those stores hold counts only, and the modes still agree
    params = derive(k=3, r=2, eps=0.4, eta=0.4, Delta=64, d=2,
                    mode=PRACTICAL, scale=1e-6)
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), 64, 2)
    pts = rand_points(random.Random(1), 100, 64)
    engine = StreamEngine(params, grid, 1, backing=backing, n_max=len(pts))
    engine.process_stream((p, +1) for p in pts)
    counting = [key for key, pairs in
                engine.sampling.served(engine.o_values).items()
                if all(fam != "hhat" for fam, _ in pairs)]
    assert len(counting) == 2

    def cells_and_points(store):
        if backing == "exact":
            return store.counts, store.points
        return store.cell_state, store.point_state

    for key in counting:
        cells, points = cells_and_points(engine._stores[key])
        assert cells and not points
    coord = Coordinator(params, grid, 1, backing, n_max=len(pts))
    for shard in (pts[i::4] for i in range(4)):
        machine = Machine(shard, coord)
        for key, store in zip(coord._stores, _wire_stores(machine)):
            if key in counting:
                cells, points = cells_and_points(store)
                assert cells and not points
        coord.absorb(machine, ByteChannel())
    offline = build_auto(pts, grid, params, 1, exact_counts=False)
    for other in (engine.finalize(), coord.finalize()):
        assert other == offline
        assert other.meta.part_tau == offline.meta.part_tau
        assert other.meta.structure.heavy == offline.meta.structure.heavy


def test_absorb_rejects_a_machine_with_another_store_layout(rng):
    # a larger n_max adds guesses, and with them Sampling keys after the
    # others; caps that do not depend on the guess keep every store that
    # both layouts have mergeable, so only the number of stores differs.
    # The raise leaves the coordinator as it was
    params = _with_caps(lambda o: 6, lambda o: 2, SAMPLING)
    pts = dedup_points(rand_points(rng, 20, 8))
    grid = GridHierarchy.from_seed(derive_seed(8, "shift"), 8, 2)
    for n_max in (32, 8000):
        coord = Coordinator(params, grid, 8, "exact", False, n_max=64)
        layout = StreamEngine(params, grid, 8, n_max=n_max)
        machine = Machine(pts, layout)
        assert len(layout._stores) != len(coord._stores)
        channel = ByteChannel()
        with pytest.raises(ValueError, match="another engine"):
            coord.absorb(machine, channel)
        assert coord.net == 0 and channel.total() == 0
        assert all(not store.counts and not store.points
                   for store in coord._stores.values())
        assert not coord._points and not any(coord._residuals.values())


GRID8 = GridHierarchy.from_seed(derive_seed(8, "shift"), 8, 2)


def _rebuilt(messages, points=None, cells=None, stores=None):
    """A machine's one message with its point rows, residual rows or store
    count replaced where given."""
    blob = parse_exact(messages[0], GRID8)
    return [encode_exact(blob.points if points is None else points,
                         blob.cells if cells is None else cells,
                         blob.stores if stores is None else stores)]


def _one_more_column(messages):
    points = parse_exact(messages[0], GRID8).points
    return _rebuilt(messages, np.column_stack((points[:, :1], points)),
                    np.empty((0, 5), dtype=np.int64))


def _one_row_bent(messages, column, value):
    points = parse_exact(messages[0], GRID8).points.copy()
    points[-1, column] = value
    return _rebuilt(messages, points)


def _residual_rows(messages, *positions):
    """The message with one residual row of count 1 in cell (0, 0) per
    store position of positions, in their order."""
    return _rebuilt(messages, cells=np.array(
        [[i, 0, 0, 1] for i in positions], dtype=np.int64).reshape(-1, 4))


# RATE1 lays out 4 stores on GRID8, and its machines send no residual row
MALFORMED = {
    "point-row-of-multiplicity-0": (
        lambda m: _one_row_bent(m, 3, 0), "multiplicity below 1"),
    "point-row-outside-the-domain": (
        lambda m: _one_row_bent(m, 0, 9), "outside the domain"),
    # the residual section's width byte and the last point byte cut
    "truncated-point-message": (lambda m: [m[0][:-2]], "truncated"),
    # 8 bytes between the sections: the residual width byte reads 0
    "point-message-with-trailing-bytes": (
        lambda m: [m[0][:-1] + bytes(8) + m[0][-1:]], "width byte 0"),
    "point-message-of-another-dimension": (_one_more_column,
                                           "3-d, the grid 2-d"),
    "store-count-other-than-the-layouts": (
        lambda m: _rebuilt(m, stores=5), "of 5 stores for 4 stores"),
    "store-position-past-the-store-count": (
        lambda m: _residual_rows(m, 0, 4), "store position outside"),
    "store-positions-out-of-order": (
        lambda m: _residual_rows(m, 1, 0), "out of store order"),
    "truncated-residual-section": (
        lambda m: [_residual_rows(m, 0)[0][:-1]], "truncated"),
    "trailing-bytes": (
        lambda m: [m[0] + bytes(8)],
        "8 bytes after the last section of an exact message"),
    "a-second-message": (lambda m: m * 2, "2 exact messages"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_coordinator_rejects_malformed_exact_messages(rng, monkeypatch,
                                                      case):
    # each is a usage error that leaves the coordinator as it was; the
    # machine's own messages are then taken in
    tamper, why = MALFORMED[case]
    pts = dedup_points(rand_points(rng, 30, 8))
    coord = Coordinator(RATE1, GRID8, 8, "exact", False, n_max=len(pts))
    machine = Machine(pts, coord)
    wire = Machine.wire_messages
    messages = list(wire(machine))
    monkeypatch.setattr(Machine, "wire_messages",
                        lambda self: iter(tamper(messages)))
    with pytest.raises(UsageError, match=why):
        coord.absorb(machine, ByteChannel())
    assert coord.net == 0 and not coord._points
    assert not any(coord._residuals.values())
    monkeypatch.setattr(Machine, "wire_messages", wire)
    coord.absorb(machine, ByteChannel())
    assert coord.finalize() == _offline(pts, RATE1, 8, exact_counts=False)


@pytest.mark.parametrize("beta", [None, 1])
@pytest.mark.parametrize("Delta,scale", [(8, 1e-53), (1 << 16, 1e-53),
                                         (1 << 62, 1e-6)])
def test_exact_machine_blobs_equal_stores_fed_point_by_point(rng, Delta,
                                                             scale, beta):
    # hashed keys, keys that keep every point and, below Delta 2**62, keys
    # that keep none; beta = 1 ships no point of a cell of count 2.  For
    # every key the content a machine's messages carry equals an exact
    # store fed the shard point by point, and the point rows are exactly
    # the rows some store lists
    base = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=2,
                  mode=PRACTICAL, scale=scale)
    params = _with_caps(lambda o: math.inf,
                        None if beta is None else (lambda o: beta), base)
    grid = GridHierarchy.from_seed(derive_seed(15, "shift"), Delta, 2)
    pts = rand_points(rng, 40, Delta)
    # a second copy of a point, and a point sharing its level-L cell
    pts += [pts[0], Point(pts[0].coords, 99)]
    layout = StreamEngine(params, grid, 15, n_max=64)
    for shard in ([], pts[:20], pts):
        machine = Machine(shard, layout)
        keys = list(layout._stores)
        assert any(key[2] == 0 for key in keys) == (Delta < 1 << 62)
        assert {key[0] is None for key in keys} == {False, True}
        refs = _reference_stores(machine, shard)
        stores = _wire_stores(machine)
        assert len(stores) == len(keys)
        listed = {}
        for key, store, ref in zip(keys, stores, refs):
            assert _shipped(store) == _shipped(ref), key
            if key[2] == 0:  # a key that keeps none ships an empty store
                assert not store.counts and not store.points
            listed.update(_shipped(store)[1])
        assert _point_rows(machine) == listed
    # the stores that keep every point count the repeated point twice, as
    # every mode counts copies, and ship it once, in one row of
    # multiplicity 2, unless beta = 1 leaves its cell's points out
    keep_all = [store for key, store in zip(keys, stores)
                if key[0] is None and key[2]]
    assert keep_all
    for store in keep_all:
        lat = grid.lattice_of(pts[0].coords, store.level)
        assert store.counts[lat] >= 3
        assert store.points.get(pts[0]) == (None if beta == 1 else 2)
    # the point rows: one row, or at beta = 1 none, since every store
    # that keeps the point counts at least 2 in its cell
    assert _point_rows(machine).get(pts[0]) == (None if beta == 1 else 2)


def test_one_machine_ships_each_point_once_for_every_keep_all_store(rng):
    # RATE1 keeps every point at every level, in L + 1 stores whose caps
    # list every cell's points.  Every wire value fits one byte: the
    # machine sends one message, each point's d + 2 bytes once in its
    # point section, and an empty residual section
    pts = dedup_points(rand_points(rng, 60, 8))
    grid = GridHierarchy.from_seed(derive_seed(4, "shift"), 8, 2)
    coord = Coordinator(RATE1, grid, 4, "exact", False, n_max=len(pts))
    machine = Machine(pts, coord)
    assert [key[:2] for key in coord._stores] == \
        [(None, lvl) for lvl in range(grid.L + 1)]
    (message,) = machine.wire_messages()
    d = grid.d
    assert len(message) == 20 + 1 + len(pts) * (d + 2) + 1
    assert message[-1:] == b"\x01"
    assert parse_exact(message, grid).stores == grid.L + 1
    assert set(_point_rows(machine)) == set(pts)
    for store in _wire_stores(machine):
        assert set(store.points) == set(pts)
        assert sum(store.counts.values()) == len(pts)
    # the wire total: the broadcast, the two counts and the message
    channel = ByteChannel()
    bcast = broadcast_blob(RATE1, grid, 4)
    channel.send_to_machine(bcast + struct.pack("<q", len(pts)))
    coord.absorb(machine, channel)
    assert channel.total() == len(bcast) + 16 + len(message)
    assert coord.finalize() == _offline(pts, RATE1, 4, exact_counts=False)


def _recorded(monkeypatch):
    """The list that each Machine.wire_messages call from now on appends
    its messages to."""
    sent = []
    wire = Machine.wire_messages

    def recorded(machine):
        sent.append(list(wire(machine)))
        return iter(sent[-1])

    monkeypatch.setattr(Machine, "wire_messages", recorded)
    return sent


@pytest.mark.parametrize("exact_counts", [False, True])
def test_rate_one_store_messages_are_headers_and_comm_is_exact(
        rng, monkeypatch, exact_counts):
    # RATE1 keeps every point in stores whose caps make every cell light,
    # so each machine's one message lists its whole shard in its point
    # section and has an empty residual section (width byte 1, no row):
    # the stores are in its header alone, as its store count.  comm is
    # exactly the broadcasts, the shard sizes and the messages: a 20-byte
    # header, two width bytes and the point rows
    pts = dedup_points(rand_points(rng, 60, 8))
    grid = GridHierarchy.from_seed(derive_seed(4, "shift"), 8, 2)
    sent = _recorded(monkeypatch)
    bcast = len(broadcast_blob(RATE1, grid, 4)) + 8
    for s in (1, 3, 4):
        sent.clear()
        core, comm = run_protocol([pts[i::s] for i in range(s)], RATE1,
                                  seed=4, exact_counts=exact_counts)
        assert core == _offline(pts, RATE1, 4, exact_counts)
        assert [len(messages) for messages in sent] == [1] * s
        blobs = [parse_exact(message, grid) for (message,) in sent]
        assert sorted(Point(tuple(r[:2]), r[2]) for blob in blobs
                      for r in blob.points.tolist()) == sorted(pts)
        for (message,), blob in zip(sent, blobs):
            assert message[-1:] == b"\x01" and blob.cells.shape == (0, 4)
            assert len(message) == 22 + len(blob.points) * 4
        assert comm == s * (bcast + 8) + sum(len(m) for (m,) in sent)


def _split_cell(layout, shards):
    """Whether some cell of a listing store is over its beta on one shard
    and holds 1 to beta points on another (reference stores fed each
    shard)."""
    refs = [_reference_stores(Machine(shard, layout), shard)
            for shard in shards]
    for i, store in enumerate(layout._stores.values()):
        counts = [ref[i].counts for ref in refs]
        for lat in set().union(*counts):
            got = [c.get(lat, 0) for c in counts]
            if store.beta >= 1 and max(got) > store.beta \
                    and any(1 <= c <= store.beta for c in got):
                return True
    return False


def _outcome(build):
    """build()'s coreset, or the message of its all-FAIL error."""
    try:
        return build()
    except RuntimeError as err:
        return str(err)


@pytest.mark.parametrize("exact_counts", [False, True])
@pytest.mark.parametrize("beta", [1, 2, 3])
def test_small_beta_machines_ship_residual_rows_and_the_modes_agree(
        exact_counts, beta):
    # at beta 1 to 3, 100 points of an 8 x 8 grid (tags 0 and 1, some
    # listed twice) put cells over beta on one machine that hold at most
    # beta points on the other, and some points in no light cell of their
    # machine: the machines ship nonzero residual rows.  Every key reads
    # alike at the coordinator and in a stream engine, every guess has one
    # outcome, and the offline, stream and dist builds agree: with exact
    # counts a coreset, with sampled counts the one all-FAIL error
    base = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                  mode=PRACTICAL, scale=1e-57)
    params = _with_caps(lambda o: math.inf, lambda o: beta, base)
    rng = random.Random(1)
    pts = [Point((rng.randint(1, 8), rng.randint(1, 8)), rng.randint(0, 1))
           for _ in range(100)]
    shards = [pts[0::2], pts[1::2]]
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), 8, 2)
    coord = Coordinator(params, grid, 1, "exact", exact_counts,
                        n_max=len(pts))
    stream = StreamEngine(params, grid, 1, "exact", exact_counts,
                          n_max=len(pts))
    stream.process_stream((p, +1) for p in pts)
    assert _split_cell(coord, shards)
    residual = 0
    for shard in shards:
        machine = Machine(shard, coord)
        (message,) = machine.wire_messages()
        residual += len(parse_exact(message, grid).cells)
        coord.absorb(machine, ByteChannel())
    assert residual
    for key in coord._stores:
        got, want = coord._cell_data(key), stream._cell_data(key)
        assert is_fail(got) == is_fail(want), key
        assert is_fail(got) or got.canonical() == want.canonical(), key
    for o in stream.o_values:
        assert _same_outcome(coord.finalize_for_o(o),
                             stream.finalize_for_o(o)), o
    outcomes = [_outcome(lambda: build_auto(pts, grid, params, 1,
                                            exact_counts)),
                _outcome(stream.finalize), _outcome(coord.finalize),
                _outcome(lambda: run_protocol(shards, params, 1,
                                              exact_counts=exact_counts)[0])]
    assert all(out == outcomes[0] for out in outcomes)
    assert isinstance(outcomes[0], str) != exact_counts
    if exact_counts:
        assert len(outcomes[0]) > 0


def test_a_kept_row_missing_from_the_point_table_is_a_usage_error(
        rng, monkeypatch):
    # a machine that leaves a row out of its point rows and counts it in a
    # residual row of every store instead: at RATE1 its cells are light on
    # the machine, where a residual row makes up a light cell's count.
    # absorb rejects that and leaves the coordinator as it was; the
    # machine's own message is then taken in
    pts = dedup_points(rand_points(rng, 30, 8))
    coord = Coordinator(RATE1, GRID8, 8, "exact", False, n_max=len(pts))
    machine = Machine(pts, coord)
    wire = Machine.wire_messages
    (message,) = wire(machine)
    blob = parse_exact(message, GRID8)
    assert len(blob.points) == len(pts) and not len(blob.cells)
    *coords, tag, mult = blob.points[-1].tolist()
    tampered = encode_exact(blob.points[:-1], np.array(
        [[i, *GRID8.lattice_of(coords, key[1]), mult]
         for i, key in enumerate(coord._stores)], dtype=np.int64),
        blob.stores)
    monkeypatch.setattr(Machine, "wire_messages",
                        lambda self: iter([tampered]))
    with pytest.raises(UsageError, match="residual row counts a cell of "
                                         "at most its store's beta"):
        coord.absorb(machine, ByteChannel())
    assert coord.net == 0 and not coord._points
    assert not any(coord._residuals.values())
    monkeypatch.setattr(Machine, "wire_messages", wire)
    coord.absorb(machine, ByteChannel())
    assert coord.finalize() == _offline(pts, RATE1, 8, exact_counts=False)


@pytest.mark.parametrize("Delta", [8, 1 << 16])
def test_sketch_machine_blobs_equal_a_stream_engine_fed_the_shard(rng, Delta):
    # the reference routes each point by bisection (StreamEngine.process),
    # the machine by the columns' keep rule; keys that keep none, keys that
    # keep every point and hashed keys
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=2,
                    mode=PRACTICAL, scale=1e-53)
    grid = GridHierarchy.from_seed(derive_seed(17, "shift"), Delta, 2)
    pts = rand_points(rng, 40, Delta)
    # a second copy of a point (multiplicity 2), and a point sharing its
    # level-L cell
    pts += [pts[0], Point(pts[0].coords, 99)]
    layout = StreamEngine(params, grid, 17, backing="sketch", n_max=64)
    keys = list(layout._stores)
    assert any(key[2] == 0 for key in keys)
    assert {key[0] is None for key in keys} == {False, True}
    for shard in ([], pts[:20], pts):
        reference = StreamEngine(params, grid, 17, backing="sketch", n_max=64)
        reference.process_stream((p, +1) for p in shard)
        messages = list(Machine(shard, layout).wire_messages())
        assert len(messages) == len(keys)
        for key, blob, ref in zip(keys, messages,
                                  reference._stores.values()):
            assert blob == ref.serialize(), key
    # the machine writes none of the layout's stores
    assert all(not store.cell_state for store in layout._stores.values())


def test_run_protocol_builds_one_stream_engine(rng, monkeypatch):
    # the coordinator lays out every machine: one engine per run
    built = []
    init = StreamEngine.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(StreamEngine, "__init__", counted)
    pts = dedup_points(rand_points(rng, 30, 8))
    for backing in ("exact", "sketch"):
        built.clear()
        run_protocol([pts[0::3], pts[1::3], pts[2::3]], RATE1, seed=18,
                     backing=backing)
        assert built == [Coordinator]


def _own_caps_outcome(params, grid, seed, live, o, exact_counts):
    """The reference outcome of guess o: finalize_cells over one exact store
    per (family, level) under the guess's own caps; FAIL when one of them
    FAILs."""
    enc = PointEncoder(grid.Delta, grid.d)
    data = {}
    for fam in FAMILIES:
        lam = params.hash_lambda() if fam == "hhat" \
            else params.hash_lambda_prime()
        for lvl in range(0, grid.L + 1):
            hash_ = KWiseHash(derive_seed(seed, f"{fam}:{lvl}"), lam, enc)
            if fam == "hhat":
                rate = params.phi(lvl, o)
            elif exact_counts:
                rate = 1.0
            else:
                rate = params.psi(lvl, o) if fam == "h" \
                    else params.psi_prime(lvl, o)
            t = exact_threshold(rate, enc.modulus)
            ref = ExactCellStore(grid, lvl, *params.caps(fam, lvl, o))
            for p in live:
                if t == enc.modulus or hash_.field_value(p) < t:
                    ref.update(p, +1)
            data[(fam, lvl)] = ref.finalize()
            if is_fail(data[(fam, lvl)]):
                return data[(fam, lvl)]
    sampling = Sampling(params, grid, seed, exact_counts)
    return finalize_cells(sampling, o, _reader(sampling, o, data), len(live))


def _reader(sampling, o, data):
    """The read function of guess o that gives data[(family, level)] in the
    order finalize_cells reads them (families, then levels), checking the
    Sampling key each read asks for; two (family, level)s with one key may
    hold different caps here, so the read goes by position."""
    reads = iter(data.items())

    def read(key):
        (fam, lvl), cells = next(reads)
        assert key == sampling.key(fam, lvl, o)
        return cells
    return read


def _same_outcome(got, want):
    if is_fail(want):
        return got == want  # the same gate
    return not is_fail(got) and got == want \
        and got.meta.part_tau == want.meta.part_tau \
        and got.meta.structure.heavy == want.meta.structure.heavy


@pytest.mark.parametrize("backing,alpha", [
    ("exact", None), ("sketch", None), ("exact", 6), ("sketch", 6)],
    ids=["exact", "sketch", "exact-cap6", "sketch-cap6"])
def test_pooled_stores_read_like_one_store_per_guess(rng, backing, alpha):
    # caps that grow with the guess and cross the instance's cell counts
    # (alpha) and per-cell point counts (beta); a constant cell cap of 6
    # makes some machine stores over every guess they serve
    params = _with_caps((lambda o: 4 * o) if alpha is None else
                        (lambda o: alpha), lambda o: o / 8)
    grid = GridHierarchy.from_seed(derive_seed(12, "shift"), 8, 2)
    pts = rand_points(rng, 40, 8)
    live = [p for i, p in enumerate(pts) if i % 4]
    updates = [(p, +1) for p in pts] + [(p, -1) for p in pts[::4]]
    stream = StreamEngine(params, grid, 12, backing=backing, n_max=64)
    stream.process_stream(updates)
    coord = Coordinator(params, grid, 12, backing, False, n_max=64)
    over = []
    for shard in (live[0::2], live[1::2]):
        machine = Machine(shard, coord)
        over += _over_every_guess(machine, _reference_stores(machine, shard))
        coord.absorb(machine, ByteChannel())
    assert over or alpha is None
    outcomes = []
    for o in stream.o_values:
        want = _own_caps_outcome(params, grid, 12, live, o, False)
        got = stream.finalize_for_o(o)
        assert _same_outcome(got, want), o
        assert _same_outcome(coord.finalize_for_o(o), want), o
        outcomes.append(got.gate if is_fail(got) else len(want))
    if alpha is not None:
        return
    # the caps bind on small guesses and both gates fire
    assert "store cell cap" in outcomes
    assert "light-point recovery cap" in outcomes
    assert any(isinstance(x, int) and x > 0 for x in outcomes)


def test_families_share_a_store_at_rate_one(rng):
    # exact counts keep every point in h and h': one store per level serves
    # both families for every guess
    engine = StreamEngine(RATE1, GridHierarchy.from_seed(13, 8, 2), 13,
                          exact_counts=True, n_max=64)
    live = rand_points(rng, 30, 8)
    engine.process_stream((p, +1) for p in live)
    for lvl in range(0, engine.grid.L + 1):
        assert len({id(engine._stores[engine.sampling.key(fam, lvl, o)])
                    for fam in ("h", "hp") for o in engine.o_values}) == 1
    keys = {engine.sampling.key(fam, lvl, o) for o in engine.o_values
            for lvl in range(0, engine.grid.L + 1) for fam in FAMILIES}
    assert len(engine._stores) == len(keys)
    for o in engine.o_values:
        want = _own_caps_outcome(RATE1, engine.grid, 13, live, o, True)
        assert _same_outcome(engine.finalize_for_o(o), want), o


def test_stream_finalize_reads_each_store_once(rng):
    # cell caps that FAIL the first guesses, each of which reads every
    # (family, level) it uses: the reads are cached per finalize
    params = _with_caps(lambda o: 4 * o)
    grid = GridHierarchy.from_seed(14, 8, 2)
    engine = StreamEngine(params, grid, 14, n_max=64)
    engine.process_stream((p, +1) for p in rand_points(rng, 40, 8))
    reads = Counter()

    def spy(key, store):
        finalize = store.finalize

        def traced():
            reads[key] += 1
            return finalize()
        return traced

    for key, store in engine._stores.items():
        store.finalize = spy(key, store)
    for _ in range(2):
        core = engine.finalize()
        assert len(core.meta.o_attempts) > 1
        used = {engine.sampling.key(fam, lvl, o) for o in core.meta.o_attempts
                for lvl in range(0, grid.L + 1) for fam in FAMILIES}
        assert reads == Counter(used)
        # an update makes the next finalize read the stores again
        engine.process(Point((1, 1), 99), +1)
        engine.process(Point((1, 1), 99), -1)
        reads.clear()
    # so does a merge: a coordinator finalized between two machines
    pts = rand_points(rng, 40, 8)
    coord = Coordinator(RATE1, grid, 14, "exact", False, n_max=64)
    for end in (20, 40):
        coord.absorb(Machine(pts[end - 20:end], coord), ByteChannel())
        assert coord.finalize() == build_auto(pts[:end], grid, RATE1, 14,
                                              exact_counts=False)


def _all_fail(build, gate="store cell cap"):
    """The all-FAIL error of build, which names gate."""
    with pytest.raises(RuntimeError, match=f"failed at the {gate}$") as err:
        build()
    return str(err.value)


def test_machine_fail_propagates(rng):
    # a cell cap of 0.5 binds on every nonempty store: dist, offline and
    # stream builds FAIL every guess alike, with one error
    tiny = _with_caps(lambda o: 0.5)
    pts = dedup_points(rand_points(rng, 10, 8))
    grid = GridHierarchy.from_seed(derive_seed(6, "shift"), 8, 2)
    errors = {_all_fail(lambda: run_protocol([pts], tiny, seed=6)),
              _all_fail(lambda: build_auto(pts, grid, tiny, 6,
                                           exact_counts=False))}
    for backing in ("exact", "sketch"):
        engine = StreamEngine(tiny, grid, 6, backing=backing, n_max=64)
        engine.process_stream((p, +1) for p in pts)
        errors.add(_all_fail(engine.finalize))
    # a sketch that decodes more cells than its cap FAILs at the cap too
    errors.add(_all_fail(lambda: run_protocol(
        [pts[:5], pts[5:]], tiny, seed=6, backing="sketch")))
    assert len(errors) == 1


def test_sketch_decoding_fail_propagates(rng):
    # cell caps that hold every cell of the coarser levels and one cell at
    # the finest: an exact store there is over its cap, a sketch sized for
    # one cell (72 buckets) cannot peel over a hundred cells, and every
    # build names the first gate its guesses meet
    base = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=16, d=2,
                  mode=PRACTICAL, scale=1e-6)

    class Caps(type(base)):
        def caps(self, family, i, o):
            beta = super().caps(family, i, o)[1]
            return ((2 ** i + 1) ** 2 if i < self.L else 1), beta

    params = Caps(**{f: getattr(base, f) for f in base.__dataclass_fields__})
    pts = dedup_points(rand_points(rng, 200, 16))
    grid = GridHierarchy.from_seed(derive_seed(6, "shift"), 16, 2)
    errors = {}
    for backing, gate in (("exact", "store cell cap"),
                          ("sketch", "sketch decoding")):
        engine = StreamEngine(params, grid, 6, backing=backing,
                              n_max=len(pts))
        engine.process_stream((p, +1) for p in pts)
        errors[backing] = {
            _all_fail(engine.finalize, gate),
            _all_fail(lambda: run_protocol([pts[0::2], pts[1::2]], params,
                                           seed=6, backing=backing), gate)}
    errors["exact"].add(_all_fail(lambda: build_auto(pts, grid, params, 6)))
    assert [len(e) for e in errors.values()] == [1, 1]


def test_dist_fails_when_the_union_is_over_the_cell_cap():
    # 12 points in 12 level-L cells: each 6-point shard is under a cell cap
    # of 6 for every guess, the union is over it
    capped = _with_caps(lambda o: 6)
    pts = [Point((x, y), x) for x, y in zip(range(1, 9), (1, 3, 5, 7) * 2)]
    pts += [Point((x, 8), 8 + x) for x in range(1, 5)]
    grid = GridHierarchy.from_seed(derive_seed(6, "shift"), 8, 2)
    engine = StreamEngine(capped, grid, 6, n_max=64)
    engine.process_stream((p, +1) for p in pts)
    coord = Coordinator(capped, grid, 6, "exact", False, n_max=64)
    for shard in (pts[0::2], pts[1::2]):
        machine = Machine(shard, coord)
        assert all(len(store.counts) <= 6
                   for store in _wire_stores(machine))
        coord.absorb(machine, ByteChannel())
    _all_fail(lambda: build_auto(pts, grid, capped, 6, exact_counts=False))
    _all_fail(engine.finalize)
    _all_fail(coord.finalize)
    _all_fail(lambda: run_protocol([pts[0::2], pts[1::2]], capped, seed=6))


def test_broadcast_blob_contains_shift():
    grid = GridHierarchy.from_seed(derive_seed(7, "shift"), 8, 2)
    blob = broadcast_blob(RATE1, grid, 7)
    assert len(blob) > 8


def test_broadcast_blob_packs_lattice_offsets_up_to_delta_2_62():
    # shift numerators reach Delta * 2**32; the integer offsets the lattices
    # use fit int64 up to Delta = 2**62, in the same 8 bytes per axis
    Delta = 1 << 62
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=2,
                    mode=PRACTICAL, scale=1e-6)
    grid = GridHierarchy(Delta, 2, ((Delta << 32) - 1, 1))
    blob = broadcast_blob(params, grid, 7)
    (n_cfg,) = struct.unpack_from("<I", blob)
    assert len(blob) == 4 + n_cfg + 16
    assert struct.unpack_from("<2q", blob, 4 + n_cfg) == grid.off == (Delta, 1)


def test_protocol_on_larger_domain(rng):
    params64 = derive(k=3, r=1, eps=0.3, eta=0.3, Delta=64, d=2,
                      mode=PRACTICAL, scale=1e-6)
    pts = dedup_points(rand_points(rng, 120, 64))
    grid = GridHierarchy.from_seed(derive_seed(9, "shift"), 64, 2)
    offline = build_auto(pts, grid, params64, 9, exact_counts=False)
    core, comm = run_protocol([pts[0::3], pts[1::3], pts[2::3]], params64,
                              seed=9)
    assert core == offline
    assert comm > 0


def test_nonempty_input_fails_in_every_mode_instead_of_empty_coreset():
    # sampled counts at this scale keep no point in the h-sample, so no cell
    # is heavy and every guess would accept an empty coreset
    params = derive(k=3, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                    mode=PRACTICAL, scale=3e-57)
    pts = dedup_points(rand_points(random.Random(1), 300, 8))
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), 8, 2)
    with pytest.raises(RuntimeError):
        build_auto(pts, grid, params, 1, exact_counts=False)
    engine = StreamEngine(params, grid, 1, n_max=len(pts))
    engine.process_stream((p, +1) for p in pts)
    with pytest.raises(RuntimeError):
        engine.finalize()
    with pytest.raises(RuntimeError):
        run_protocol([pts[0::2], pts[1::2]], params, 1)


@pytest.mark.parametrize("bad,why", [
    *(pytest.param(Point((1, 1), tag), "tag outside", id=str(tag))
      for tag in (-2, 2 ** 32 - 1, 2 ** 40, 2 ** 70)),
    pytest.param(Point((0, 3)), "lies outside", id="x=0"),
    pytest.param(Point((9, 3)), "lies outside", id="x=Delta+1"),
    pytest.param(Point((1, 2, 3)), "has 3 coordinates", id="3-d"),
    pytest.param(Point((1,)), "has 1 coordinates", id="1-d"),
    pytest.param(Point((1.5, 2), 0), "not an integer", id="x=1.5"),
    pytest.param(Point((2.0, 3)), "not an integer", id="x=2.0"),
    pytest.param(Point((1, 1), 0.5), "not an integer", id="tag=0.5")])
def test_out_of_range_tag_is_rejected_in_every_mode(rng, bad, why):
    # a tag outside its range, a coordinate outside [1, Delta], a point of
    # the wrong dimension and a coordinate or tag that is not an integer
    # (even one of integral value) raise check_domain's error in every mode;
    # RATE1 hashes no level, SAMPLING does: either way the stream raises
    # before the engine's net count or any store changes
    pts = dedup_points(rand_points(rng, 10, 8)) + [bad]
    grid = GridHierarchy.from_seed(derive_seed(16, "shift"), 8, 2)
    for params in (RATE1, SAMPLING):
        for backing in ("exact", "sketch"):
            engine = StreamEngine(params, grid, 16, backing=backing, n_max=64)
            engine.process_stream((p, +1) for p in pts[:-1])
            blobs = [store.serialize() for store in engine._stores.values()]
            with pytest.raises(UsageError, match=why):
                engine.process(bad, +1)
            assert engine.net == len(pts) - 1
            assert [store.serialize()
                    for store in engine._stores.values()] == blobs
        with pytest.raises(UsageError, match=why):
            build_auto(pts, grid, params, 16)
        # a shard mixing the bad point with good ones, and one of it alone
        for shards in ([pts[:5], pts[5:]], [pts[:-1], [bad]]):
            for backing in ("exact", "sketch"):
                with pytest.raises(UsageError, match=why):
                    run_protocol(shards, params, 16, backing=backing)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_numpy_integer_points_give_one_coreset_in_every_mode(backing):
    # numpy int64 coordinates and tags are read as Python ints: at
    # Delta = 2**40, d = 1, the codes and the sketch's cell codes pass
    # int64 without an overflow warning, and every mode gives the coreset
    # of the same Python-int points
    Delta = 1 << 40
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=1,
                    mode=PRACTICAL, scale=3e-64)
    rng = random.Random(1)
    pts = dedup_points([Point((rng.randint(1, Delta),), rng.randint(-1, 5))
                        for _ in range(16)])
    wide = [Point((np.int64(p.coords[0]),), np.int64(p.tag)) for p in pts]
    want = _offline(pts, params, 1, exact_counts=True)
    assert len(want) > 0
    assert _offline(wide, params, 1, exact_counts=True) == want
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), Delta, 1)
    engine = StreamEngine(params, grid, 1, backing, True, n_max=len(pts))
    engine.process_stream((p, +1) for p in wide)
    assert engine.finalize() == want
    core, _ = run_protocol([wide[0::2], wide[1::2]], params, 1, backing,
                           exact_counts=True)
    assert core == want


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_coordinator_rejects_stream_updates(rng, backing):
    # machine messages are a coordinator's only input: an update neither
    # counts nor reaches a store
    pts = dedup_points(rand_points(rng, 12, 8))
    grid = GridHierarchy.from_seed(derive_seed(3, "shift"), 8, 2)
    coord = Coordinator(RATE1, grid, 3, backing, False, n_max=len(pts) + 1)
    coord.absorb(Machine(pts, coord), ByteChannel())
    want = coord.finalize()
    with pytest.raises(UsageError, match="machine messages"):
        coord.process(Point((8, 8), 0), +1)
    with pytest.raises(UsageError, match="machine messages"):
        coord.process_stream([(Point((8, 8), 0), +1)])
    assert coord.net == len(pts)
    assert coord.finalize() == want
