import pickle
import random

import pytest

from capacore.common import UsageError, derive_seed, is_fail
from capacore.coreset import build_auto, build_for_o, dedup_points, o_grid
from capacore.geometry import GridHierarchy, Point
from capacore.params import PRACTICAL, derive
from capacore.streaming import (StreamEngine, parse_update_line, read_stream,
                                write_stream)

from conftest import rand_points
from reference import nominal_bytes

RATE1 = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
               mode=PRACTICAL, scale=1e-6)
SAMPLING = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                  mode=PRACTICAL, scale=1e-53)


def _grid(seed, Delta=8, d=2):
    return GridHierarchy.from_seed(derive_seed(seed, "shift"), Delta, d)


def _random_stream(rng, n_updates, Delta=8, delete_frac=0.3):
    pool = rand_points(rng, max(4, n_updates), Delta)
    live, updates = [], []
    for _ in range(n_updates):
        if live and rng.random() < delete_frac:
            p = live.pop(rng.randrange(len(live)))
            updates.append((p, -1))
        else:
            p = pool.pop()
            updates.append((p, +1))
            live.append(p)
    return updates, live


def test_insert_then_delete_is_empty():
    grid = _grid(1)
    engine = StreamEngine(RATE1, grid, seed=1, n_max=64)
    empty = StreamEngine(RATE1, grid, seed=1, n_max=64).finalize()
    engine.process(Point((3, 3), 0), +1)
    engine.process(Point((3, 3), 0), -1)
    assert engine.finalize() == empty
    assert len(engine.finalize()) == 0


def test_empty_stream_returns_empty_coreset():
    engine = StreamEngine(RATE1, _grid(2), seed=2, n_max=64)
    core = engine.finalize()
    assert len(core) == 0
    assert core.meta.o_attempts == ()


@pytest.mark.parametrize("params,exact_counts", [(RATE1, False),
                                                 (SAMPLING, True)])
def test_pure_insertions_match_offline(rng, params, exact_counts):
    grid = _grid(3)
    pts = dedup_points(rand_points(rng, 60, 8))
    engine = StreamEngine(params, grid, seed=3, exact_counts=exact_counts,
                          n_max=len(pts))
    for p in pts:
        engine.process(p, +1)
    stream_core = engine.finalize()
    offline_core = build_auto(pts, grid, params, seed=3,
                              exact_counts=exact_counts)
    assert stream_core == offline_core
    assert stream_core.meta.o_attempts == offline_core.meta.o_attempts


@pytest.mark.parametrize("params,exact_counts", [(RATE1, False),
                                                 (SAMPLING, True)])
def test_interleaved_stream_matches_offline(rng, params, exact_counts):
    for seed in range(6):
        grid = _grid(100 + seed)
        updates, live = _random_stream(rng, 300)
        engine = StreamEngine(params, grid, seed=seed,
                              exact_counts=exact_counts, n_max=400)
        engine.process_stream(updates)
        stream_core = engine.finalize()
        offline_core = build_auto(sorted(live, key=lambda p: p.sort_key()),
                                  grid, params, seed=seed,
                                  exact_counts=exact_counts)
        assert stream_core == offline_core


@pytest.mark.parametrize("backing", ["exact", "sketch"])
@pytest.mark.parametrize("Delta", [8, 64, 1 << 16])
def test_routing_writes_exactly_the_stores_keeps_selects(rng, Delta, backing):
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=2,
                    mode=PRACTICAL, scale=1e-53)
    grid = _grid(30 + Delta, Delta)
    # at Delta 2**16, Delta**2 * 2**32 tag codes exceed 2**61 - 1: the
    # modulus is 2**89 - 1 and field values pass one 64-bit word
    wide = Delta > 1 << 8
    n_max, n_updates = (64, 60) if wide else (8000, 200)
    modulus = (1 << 89) - 1 if wide else (1 << 61) - 1
    engine = StreamEngine(params, grid, seed=30, backing=backing, n_max=n_max)
    assert engine.sampling.modulus == modulus
    keys = list(engine._stores)
    hashed = [key for key in keys if key[0] is not None]
    # rates strictly between 0 and 1, several thresholds on one hash, and
    # stores that keep nothing
    assert len(hashed) > len({key[:2] for key in hashed}) > 0
    assert any(key[2] == 0 for key in keys)
    updates, _ = _random_stream(rng, n_updates, Delta=Delta)
    engine.process_stream(updates)
    # reference: every store fed through the keep rule, one key at a time
    reference = StreamEngine(params, grid, seed=30, backing=backing,
                             n_max=n_max)
    values = []

    def keeps(key, p):
        family, level, t = key
        if family is None:
            return t > 0
        values.append(reference.sampling.hash(family, level).field_value(p))
        return values[-1] < t

    for p, sign in updates:
        for key, store in reference._stores.items():
            if keeps(key, p):
                store.update(p, sign)
    assert list(reference._stores) == keys
    assert (max(values) >= 1 << 64) == wide
    for key, store in engine._stores.items():
        assert store.serialize() == reference._stores[key].serialize(), key
        if key[2] == 0:
            assert len(store.finalize().counts) == 0


def test_deleted_points_leave_no_hash_state():
    # the stream-dist-8k parameters, where the stream hashes on four
    # (family, level) pairs
    params = derive(k=3, r=2, eps=0.4, eta=0.4, Delta=64, d=2,
                    mode=PRACTICAL, scale=1e-6)
    grid = _grid(40, Delta=64)
    engine = StreamEngine(params, grid, seed=40, n_max=12000)
    empty = engine.space_bytes()
    assert engine._hashed
    # one update pair draws every hash's coefficients
    engine.process_stream([(Point((1, 1), -1), +1), (Point((1, 1), -1), -1)])
    hash_state = pickle.dumps(engine.sampling)
    pts = [Point((1 + i % 64, 1 + (i * 7) % 64), i) for i in range(2000)]
    engine.process_stream([(p, +1) for p in pts])
    engine.process_stream([(p, -1) for p in pts])
    assert engine.space_bytes() == empty
    assert pickle.dumps(engine.sampling) == hash_state
    assert len(engine.finalize()) == 0


def test_order_invariance(rng):
    grid = _grid(5)
    updates, live = _random_stream(rng, 200)
    a = StreamEngine(RATE1, grid, seed=5, n_max=300)
    a.process_stream(updates)
    # permute across points while keeping each point's own updates in order,
    # which respects the delete-after-insert guarantee
    per_point = {}
    for upd in updates:
        per_point.setdefault(upd[0], []).append(upd)
    order = list(per_point)
    random.Random(17).shuffle(order)
    reordered = []
    queues = {p: list(seq) for p, seq in per_point.items()}
    while any(queues.values()):
        for p in order:
            if queues[p]:
                reordered.append(queues[p].pop(0))
    b = StreamEngine(RATE1, grid, seed=5, n_max=300)
    b.process_stream(reordered)
    assert a.finalize() == b.finalize()


def test_rate_one_stream_equals_exact_count_offline(rng):
    grid = _grid(6)
    pts = dedup_points(rand_points(rng, 50, 8))
    engine = StreamEngine(RATE1, grid, seed=6, exact_counts=False,
                          n_max=len(pts))
    for p in pts:
        engine.process(p, +1)
    stream_core = engine.finalize()
    offline_core = build_auto(pts, grid, RATE1, seed=6, exact_counts=True)
    # with every rate clamped to 1 the sampled estimates are exact counts
    o = stream_core.meta.o
    if all(RATE1.psi(l, o) == 1.0 and RATE1.psi_prime(l, o) == 1.0
           for l in range(0, grid.L + 1)):
        assert stream_core == offline_core


def test_per_o_finalize_and_select(rng):
    grid = _grid(8)
    pts = dedup_points(rand_points(rng, 40, 8))
    engine = StreamEngine(RATE1, grid, seed=8, n_max=len(pts))
    for p in pts:
        engine.process(p, +1)
    # the engine laid out the guesses of n_max = len(pts) = net
    guesses = o_grid(len(pts), RATE1)
    assert engine.o_values == guesses
    results = {o: engine.finalize_for_o(o) for o in guesses}
    o_sel = next(o for o in guesses if not is_fail(results[o]))
    auto = engine.finalize()
    assert o_sel == auto.meta.o
    assert results[o_sel].entries == auto.entries
    for o in guesses:
        offline = build_for_o(pts, grid, RATE1, o, seed=8, exact_counts=False)
        # a FAIL compares by its gate
        assert results[o] == offline


def test_sketch_backing_stream_matches_exact_backing(rng):
    grid = _grid(9)
    pts = dedup_points(rand_points(rng, 25, 8))
    exact_engine = StreamEngine(RATE1, grid, seed=9, backing="exact",
                                n_max=len(pts))
    sketch_engine = StreamEngine(RATE1, grid, seed=9, backing="sketch",
                                 n_max=len(pts))
    for p in pts:
        exact_engine.process(p, +1)
        sketch_engine.process(p, +1)
    a = exact_engine.finalize()
    b = sketch_engine.finalize()
    assert a == b
    # space meter: allocated bytes stay under the nominal sketch budget
    actual = sketch_engine.space_bytes()
    nominal = 0
    seen = set()
    for store in sketch_engine._stores.values():
        if id(store) not in seen:
            seen.add(id(store))
            nominal += nominal_bytes(store)
    assert 0 < actual <= nominal


def test_net_count_guard(rng):
    grid = _grid(10)
    engine = StreamEngine(RATE1, grid, seed=10, n_max=2)
    for p in rand_points(rng, 5, 8):
        engine.process(p, +1)
    with pytest.raises(UsageError):
        engine.finalize()
    with pytest.raises(UsageError):
        engine.process(Point((1, 1), 99), 0)
    # more deletions than insertions: no coreset, not the empty one
    for backing in ("exact", "sketch"):
        engine = StreamEngine(RATE1, _grid(8), seed=10, backing=backing,
                              n_max=4)
        engine.process(Point((1, 1), 0), -1)
        with pytest.raises(UsageError, match="net point count -1"):
            engine.finalize()
        # a turnstile stream may delete before it inserts
        engine.process(Point((1, 1), 0), +1)
        assert engine.finalize().meta.o == 0.0


def test_stream_file_roundtrip(tmp_path):
    updates = [(Point((1, 2), 0), +1), (Point((3, 4), 1), +1),
               (Point((1, 2), 0), -1)]
    path = tmp_path / "stream.txt"
    write_stream(path, updates)
    assert read_stream(path) == updates
    assert parse_update_line("+ 1 2 #0") == (Point((1, 2), 0), 1)
    assert parse_update_line("− 1 2 #0") == (Point((1, 2), 0), -1)
    assert parse_update_line("% comment") is None
    with pytest.raises(UsageError):
        parse_update_line("* 1 2")


def test_finalize_is_idempotent(rng):
    grid = _grid(11)
    updates, _ = _random_stream(rng, 150)
    for backing in ("exact", "sketch"):
        engine = StreamEngine(RATE1, grid, seed=11, backing=backing, n_max=200)
        engine.process_stream(updates)
        first = engine.finalize()
        second = engine.finalize()
        assert first == second
        # finalize must not consume store state
        third = engine.finalize_for_o(first.meta.o)
        assert third == first


def test_equivalence_on_larger_domain_and_3d(rng):
    # deeper hierarchy (L=6) with active sampling
    params64 = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=64, d=2,
                      mode=PRACTICAL, scale=1e-53)
    grid = GridHierarchy.from_seed(derive_seed(21, "shift"), 64, 2)
    updates, live = _random_stream(rng, 400, Delta=64)
    engine = StreamEngine(params64, grid, seed=21, exact_counts=True, n_max=500)
    engine.process_stream(updates)
    offline = build_auto(sorted(live, key=lambda p: p.sort_key()), grid,
                         params64, seed=21, exact_counts=True)
    assert engine.finalize() == offline

    # three dimensions
    params3d = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=16, d=3,
                      mode=PRACTICAL, scale=1e-6)
    grid3 = GridHierarchy.from_seed(derive_seed(22, "shift"), 16, 3)
    pts = dedup_points([Point((rng.randint(1, 16), rng.randint(1, 16),
                               rng.randint(1, 16)), i) for i in range(80)])
    engine3 = StreamEngine(params3d, grid3, seed=22, n_max=len(pts))
    for p in pts:
        engine3.process(p, +1)
    offline3 = build_auto(pts, grid3, params3d, seed=22, exact_counts=False)
    assert engine3.finalize() == offline3
