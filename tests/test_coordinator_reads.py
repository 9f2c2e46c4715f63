"""Property test: a coordinator's read of every store equals the finalize()
of an empty store into which the store each machine's messages describe
was merged, with either backing: a sketch blob deserialized, or the
residual rows of a store's position in an exact message read with the
point rows of that message that its Sampling key keeps."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from capacore.common import derive_seed, is_fail  # noqa: E402
from capacore.distributed import ByteChannel, Coordinator, Machine  # noqa: E402
from capacore.geometry import GridHierarchy, Point  # noqa: E402
from capacore.streaming import StreamEngine  # noqa: E402

from test_distributed import (RATE1, SAMPLING, _wire_stores,  # noqa: E402
                              _with_caps)

# tags 0..2 on an 8 x 8 grid: a shard lists some points twice
POINTS = st.builds(Point, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                   st.integers(0, 2))
SHARDS = st.lists(st.lists(POINTS, max_size=25), min_size=1, max_size=4)
# no caps of their own, or a cell cap and a light-point cap that bind
CAPS = st.sampled_from([None, (2, 1), (6, 2), (40, 3)])
PARAMS = st.sampled_from(["rate1", "sampling"])

TWICE = [[Point((1, 1), 0), Point((1, 1), 0), Point((1, 2), 0),
          Point((5, 5), 1)], [], [Point((1, 1), 0), Point((8, 8), 2)]]


def _check_reads_equal_the_fold(backing, shards, caps, base, seed):
    params = RATE1 if base == "rate1" else SAMPLING
    if caps is not None:
        params = _with_caps(lambda o: caps[0], lambda o: caps[1], params)
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
    coord = Coordinator(params, grid, seed, backing, False, n_max=64)
    # empty stores of the coordinator's layout, merged into machine by
    # machine
    fold = StreamEngine(params, grid, seed, backing, False, n_max=64)
    for shard in shards:
        machine = Machine(shard, coord)
        shipped = _wire_stores(machine)
        assert len(shipped) == len(fold._stores)
        for store, wire in zip(fold._stores.values(), shipped):
            store.merge_in(wire)
        coord.absorb(machine, ByteChannel())
    assert list(coord._stores) == list(fold._stores)
    for key, store in fold._stores.items():
        want, got = store.finalize(), coord._cell_data(key)
        if is_fail(want):
            assert is_fail(got), key
            continue
        assert not is_fail(got), key
        # light points in their order, each copy listed
        assert got.canonical() == want.canonical(), key


@settings(max_examples=60, deadline=None)
@given(shards=SHARDS, caps=CAPS, base=PARAMS, seed=st.integers(0, 100))
@example(shards=TWICE, caps=None, base="rate1", seed=1)
@example(shards=TWICE, caps=(2, 1), base="sampling", seed=2)
def test_exact_coordinator_reads_equal_the_fold(shards, caps, base, seed):
    _check_reads_equal_the_fold("exact", shards, caps, base, seed)


# sketch decoding makes each example several times slower
@settings(max_examples=15, deadline=None)
@given(shards=SHARDS, caps=CAPS, base=PARAMS, seed=st.integers(0, 100))
@example(shards=TWICE, caps=(2, 1), base="rate1", seed=1)
def test_sketch_coordinator_reads_equal_the_fold(shards, caps, base, seed):
    _check_reads_equal_the_fold("sketch", shards, caps, base, seed)
