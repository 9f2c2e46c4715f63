"""partition.lattice_keys against np.lexsort and tuples, on int64 rows of
every width the modes use (d = 1..4), whose columns' spans together fall on
either side of 63 bits: int64 extremes, negative values, ties and empty
arrays included."""

import random

import numpy as np
import pytest

from capacore.geometry import GridHierarchy
from capacore.partition import PartitionStructure, lattice_keys, sorted_runs

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

LOW, HIGH = -(1 << 63), (1 << 63) - 1


@st.composite
def int64_rows(draw):
    """An (m, d) int64 array: each column spans 2**bits values from its own
    low end, with bits drawn so that the columns' spans add up to either
    side of 63 bits; an int64-extreme row may join, and some rows are
    repeated."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(0, 30))
    cols = []
    for _ in range(d):
        bits = draw(st.integers(0, min(64, 64 // d + 8)))
        low = draw(st.integers(LOW, HIGH - (1 << bits) + 1))
        cols.append(st.integers(low, low + (1 << bits) - 1))
    rows = draw(st.lists(st.tuples(*cols), min_size=m, max_size=m))
    if rows and draw(st.booleans()) and draw(st.booleans()):
        rows.append(draw(st.tuples(*[st.sampled_from([LOW, HIGH, -1, 0])] * d)))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=m))
    return np.array(rows, dtype=np.int64).reshape(-1, d)


def _fits(rows) -> bool:
    """Whether the columns' spans, in bits, add up to at most 63."""
    return sum((max(col) - min(col)).bit_length()
               for col in rows.T.tolist()) <= 63


@settings(max_examples=300, deadline=None)
@given(rows=int64_rows(), seed=st.integers(0, 1 << 32))
@example(rows=np.empty((0, 3), dtype=np.int64), seed=1)
@example(rows=np.array([[LOW, HIGH], [HIGH, LOW], [LOW, HIGH]]), seed=1)
@example(rows=np.array([[0, 0, 1 << 40], [1 << 40, 1, 0], [3, 1 << 40, 7]]),
         seed=1)
@example(rows=np.array([[-5], [LOW], [HIGH], [-5]]), seed=1)
def test_keys_sort_and_join_as_the_rows_do(rows, seed):
    m, d = rows.shape
    keys = lattice_keys(rows)
    assert len(keys) == m
    # int64 keys whenever the spans fit, bytes keys otherwise
    assert (keys.dtype == np.int64) == (not m or _fits(rows))
    order = np.lexsort(rows.T[::-1])
    assert np.argsort(keys, kind="stable").tolist() == order.tolist()
    # equal keys exactly where the rows are equal
    tuples = list(map(tuple, rows.tolist()))
    assert (keys[:, None] == keys[None, :]).tolist() == \
        [[a == b for b in tuples] for a in tuples]
    runs, new = sorted_runs(rows)
    assert runs.tolist() == order.tolist()
    assert new.tolist() == [i == 0 or tuples[order[i]] != tuples[order[i - 1]]
                            for i in range(m)]

    # rank: the heavy cells are a subset of the distinct rows, in order
    distinct = sorted(set(tuples))
    heavy = sorted(random.Random(seed).sample(
        distinct, random.Random(seed + 1).randint(0, len(distinct))))
    grid = GridHierarchy.from_seed(1, 8, d)
    structure = PartitionStructure(
        grid, {0: np.array(heavy, dtype=np.int64).reshape(-1, d)})
    index = {cell: j for j, cell in enumerate(heavy)}
    # the whole array, and a part whose spans need not cover the heavy ones
    for part in (slice(None), slice(m // 2)):
        assert structure.rank(0, rows[part]).tolist() == \
            [index.get(cell, -1) for cell in tuples[part]]
