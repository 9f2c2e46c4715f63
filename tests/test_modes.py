"""Property test: offline, stream and dist builds agree on random streams."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from capacore.common import FAIL, derive_seed  # noqa: E402
from capacore.coreset import build_auto  # noqa: E402
from capacore.distributed import run_protocol  # noqa: E402
from capacore.geometry import GridHierarchy, Point  # noqa: E402
from capacore.params import PRACTICAL, derive  # noqa: E402
from capacore.streaming import StreamEngine  # noqa: E402

DELTA = 8
COORDS = st.tuples(st.integers(1, DELTA), st.integers(1, DELTA))


@st.composite
def streams(draw):
    """Distinct live points, and an insert/delete stream whose net multiset
    is exactly those points: churn points are inserted and deleted later."""
    live = [Point(c, i) for i, c in enumerate(
        draw(st.lists(COORDS, min_size=1, max_size=30)))]
    churn = [Point(c, len(live) + i) for i, c in enumerate(
        draw(st.lists(COORDS, max_size=10)))]
    updates = draw(st.permutations([(p, +1) for p in live + churn]))
    for p in churn:
        after = updates.index((p, +1)) + 1
        updates.insert(draw(st.integers(after, len(updates))), (p, -1))
    return live, updates, draw(st.integers(1, 3))


def _or_fail(build):
    try:
        return build()
    except RuntimeError:  # every guess FAILed
        return FAIL


def _check_modes_agree(backing, scale, exact_counts, case, seed):
    live, updates, machines = case
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=DELTA, d=2,
                    mode=PRACTICAL, scale=scale)
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), DELTA, 2)
    offline = _or_fail(lambda: build_auto(live, grid, params, seed,
                                          exact_counts=exact_counts))
    engine = StreamEngine(params, grid, seed, backing=backing,
                          exact_counts=exact_counts,
                          n_max=max(DELTA ** 2, len(updates)))
    engine.process_stream(updates)
    stream = _or_fail(engine.finalize)
    dist = _or_fail(lambda: run_protocol(
        [live[i::machines] for i in range(machines)], params, seed,
        backing=backing, exact_counts=exact_counts)[0])
    for other in (stream, dist):
        assert other == offline
        if offline is not FAIL:
            # __eq__ compares entries only; the partition must agree too
            assert other.meta.part_tau == offline.meta.part_tau
            assert other.meta.structure.heavy == offline.meta.structure.heavy


# at Delta=8, scale 1e-53 puts psi and psi' below 1 and 1e-57 puts phi below 1
@pytest.mark.parametrize("scale", [1e-6, 1e-53, 1e-57])
@pytest.mark.parametrize("exact_counts", [False, True])
@settings(max_examples=40, deadline=None)
@given(case=streams(), seed=st.integers(0, 1000))
def test_offline_stream_dist_build_the_same_coreset(scale, exact_counts, case, seed):
    _check_modes_agree("exact", scale, exact_counts, case, seed)


# the sketch backing through the same stores and wire; decoding makes each
# example several times slower, hence fewer examples
@pytest.mark.parametrize("scale", [1e-6, 1e-53, 1e-57])
@pytest.mark.parametrize("exact_counts", [False, True])
@settings(max_examples=15, deadline=None)
@given(case=streams(), seed=st.integers(0, 1000))
def test_sketch_backing_builds_the_same_coreset(scale, exact_counts, case, seed):
    _check_modes_agree("sketch", scale, exact_counts, case, seed)
