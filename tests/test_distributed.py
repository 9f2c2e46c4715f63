import random

import pytest

from capacore.common import derive_seed, is_fail
from capacore.coreset import build_auto, dedup_points, o_grid
from capacore.distributed import (broadcast_blob, per_machine_byte_cap,
                                  run_protocol)
from capacore.geometry import GridHierarchy
from capacore.params import PRACTICAL, derive
from capacore.streaming import StreamEngine

from conftest import rand_points

RATE1 = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
               mode=PRACTICAL, scale=1e-6)
SAMPLING = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                  mode=PRACTICAL, scale=1e-53)


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
    cap = per_machine_byte_cap(RATE1, grid, o_grid(len(pts), RATE1))
    for s, comm in comm_by_s.items():
        assert comm <= 2 * s * cap
    # the broadcast makes the total grow with s
    assert comm_by_s[5] > comm_by_s[1]


def test_sketch_backing_protocol(rng):
    pts = dedup_points(rand_points(rng, 25, 8))
    core, comm = run_protocol([pts[:13], pts[13:]], RATE1, seed=5,
                              backing="sketch")
    offline = _offline(pts, RATE1, 5, exact_counts=False)
    assert core == offline
    assert comm > 0


def test_machine_fail_propagates(rng):
    class TinyAlpha(type(RATE1)):
        def alpha(self, i, o):
            return 0.5

        def alpha_prime(self, i, o):
            return 0.5

        def alpha_hat(self, i, o):
            return 0.5

    tiny = TinyAlpha(**{f: getattr(RATE1, f)
                        for f in RATE1.__dataclass_fields__})
    pts = dedup_points(rand_points(rng, 10, 8))
    core, comm = run_protocol([pts], tiny, seed=6)
    assert is_fail(core)
    assert comm > 0


def test_broadcast_blob_contains_shift():
    grid = GridHierarchy.from_seed(derive_seed(7, "shift"), 8, 2)
    blob = broadcast_blob(RATE1, grid, 7)
    assert len(blob) > 8


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
    core, _ = run_protocol([pts[0::2], pts[1::2]], params, 1)
    assert is_fail(core)
