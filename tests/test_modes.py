"""Offline, stream and dist builds agree: a property test on random
streams whose live points may have copies, a case of copies only, and
fixed cases whose point codes exceed 64 bits."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from capacore.common import derive_seed  # noqa: E402
from capacore.coreset import (build_auto, dedup_points,  # noqa: E402
                              write_coreset)
from capacore.distributed import run_protocol  # noqa: E402
from capacore.geometry import GridHierarchy, Point  # noqa: E402
from capacore.params import PRACTICAL, derive  # noqa: E402
from capacore.streaming import StreamEngine  # noqa: E402

from conftest import clustered_points  # noqa: E402

DELTA = 8
COORDS = st.tuples(st.integers(1, DELTA), st.integers(1, DELTA))


@st.composite
def streams(draw):
    """Live points, each listed one to three times (equal coordinates and
    tag), and an insert/delete stream whose net multiset is exactly those
    points: churn points are inserted and deleted later."""
    distinct = draw(st.lists(COORDS, min_size=1, max_size=30))
    copies = draw(st.lists(st.integers(1, 3), min_size=len(distinct),
                           max_size=len(distinct)))
    live = [Point(c, i) for i, (c, m) in enumerate(zip(distinct, copies))
            for _ in range(m)]
    churn = [Point(c, len(live) + i) for i, c in enumerate(
        draw(st.lists(COORDS, max_size=10)))]
    updates = draw(st.permutations([(p, +1) for p in live + churn]))
    for p in churn:
        after = updates.index((p, +1)) + 1
        updates.insert(draw(st.integers(after, len(updates))), (p, -1))
    return live, updates, draw(st.integers(1, 3))


def _or_fail(build):
    """The coreset of build, or its all-FAIL error (every guess FAILed)."""
    try:
        return build()
    except RuntimeError as err:
        return str(err)


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
    # an all-FAIL error reads the same in stream and dist, and in every
    # mode with the exact backing (a sketch may FAIL at its decoding)
    assert dist == stream
    if isinstance(offline, str):
        assert isinstance(stream, str)
        assert stream == offline or backing == "sketch"
        return
    assert stream == offline
    # __eq__ compares entries only; the partition must agree too
    for other in (stream, dist):
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


@pytest.mark.parametrize("scale,exact_counts", [(1e-63, True), (1e-15, False)])
def test_modes_agree_where_codes_exceed_64_bits(scale, exact_counts):
    # Delta 2**15 in 2-d takes the 2**89 - 1 modulus, so every hash runs the
    # per-point Python Horner: at 1e-63 phi < 1 keeps part of the level-15
    # points, at 1e-15 the sampled h and h' counts pick a large guess
    Delta = 1 << 15
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=2,
                    mode=PRACTICAL, scale=scale)
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), Delta, 2)
    live = dedup_points(clustered_points(random.Random(1), 60, Delta,
                                         spread=Delta / 64))
    churn = [Point(p.coords, 100 + i) for i, p in enumerate(live[:20])]
    updates = [(p, +1) for p in live + churn] + [(p, -1) for p in churn]
    offline = build_auto(live, grid, params, 1, exact_counts=exact_counts)
    engine = StreamEngine(params, grid, 1, exact_counts=exact_counts,
                          n_max=Delta ** 2)
    assert engine.sampling.modulus == (1 << 89) - 1
    engine.process_stream(updates)
    dist, _ = run_protocol([live[i::3] for i in range(3)], params, 1,
                           exact_counts=exact_counts)
    assert len(offline) < len(live) if exact_counts else offline.meta.o > 1
    for other in (engine.finalize(), dist):
        assert other == offline
        assert other.meta.part_tau == offline.meta.part_tau
        assert other.meta.structure.heavy == offline.meta.structure.heavy


@pytest.mark.parametrize("backing", ["exact", "sketch"])
def test_copies_count_alike_in_every_mode(backing):
    # 30 untagged coordinate pairs, each listed 4 times: every copy counts
    # in the cells, so the modes agree on part_tau, and every kept point
    # weighs its 4 copies (rates are 1 at this scale)
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=16, d=2,
                    mode=PRACTICAL, scale=1e-6)
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), 16, 2)
    coords = random.Random(1).sample(
        [(x, y) for x in range(1, 17) for y in range(1, 17)], 30)
    pts = [Point(c) for _ in range(4) for c in coords]
    offline = build_auto(pts, grid, params, 1, exact_counts=True)
    engine = StreamEngine(params, grid, 1, backing=backing, exact_counts=True,
                          n_max=len(pts))
    engine.process_stream((p, +1) for p in pts)
    dist, _ = run_protocol([pts[i::3] for i in range(3)], params, 1,
                           backing=backing, exact_counts=True)
    assert len(offline) == 30 and offline.total_weight() == 120
    for other in (engine.finalize(), dist):
        assert other == offline
        assert other.meta.part_tau == offline.meta.part_tau


# Delta = 2**40 at d = 1 and d = 3: d * (L + 2) bits exceed 63 at d = 3, so
# no lattice packs into one int64 key.  With exact counts at these scales
# phi < 1 at the finest level, where every entry lies; sampled counts at
# 1e-6 keep every rate at 1.
@pytest.mark.parametrize("d,scale,exact_counts,backing", [
    (1, 3e-64, True, "exact"), (1, 3e-64, True, "sketch"),
    (1, 1e-6, False, "exact"),
    (3, 3e-69, True, "exact"), (3, 3e-69, True, "sketch"),
    (3, 1e-6, False, "exact")])
def test_modes_agree_in_other_dimensions(d, scale, exact_counts, backing):
    Delta = 1 << 40
    params = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=Delta, d=d,
                    mode=PRACTICAL, scale=scale)
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), Delta, d)
    live = dedup_points(clustered_points(random.Random(d), 16, Delta, d=d,
                                         spread=Delta / 64))
    churn = [Point(p.coords, 100 + i) for i, p in enumerate(live[:6])]
    updates = [(p, +1) for p in live + churn] + [(p, -1) for p in churn]
    offline = build_auto(live, grid, params, 1, exact_counts=exact_counts)
    engine = StreamEngine(params, grid, 1, backing=backing,
                          exact_counts=exact_counts, n_max=len(live) + 6)
    engine.process_stream(updates)
    dist, _ = run_protocol([live[i::3] for i in range(3)], params, 1,
                           backing=backing, exact_counts=exact_counts)
    assert 0 < len(offline) and (len(offline) < len(live)) == exact_counts
    for other in (engine.finalize(), dist):
        assert other == offline
        assert other.meta.part_tau == offline.meta.part_tau
        assert other.meta.structure.heavy == offline.meta.structure.heavy


def test_library_defaults_give_one_coreset_file(tmp_path):
    # every builder defaults to sampled counts, so the files, which record
    # exact_counts, agree
    pts = dedup_points(clustered_points(random.Random(5), 400, 64,
                                        clusters=3, spread=6.0))
    params = derive(k=3, r=2, eps=0.4, eta=0.4, Delta=64, d=2,
                    mode=PRACTICAL, scale=1e-6)
    grid = GridHierarchy.from_seed(derive_seed(1, "shift"), 64, 2)
    engine = StreamEngine(params, grid, 1, n_max=len(pts))
    engine.process_stream((p, +1) for p in pts)
    cores = {"offline": build_auto(pts, grid, params, 1),
             "stream": engine.finalize(),
             "dist": run_protocol([pts[i::3] for i in range(3)], params,
                                  1)[0]}
    texts = set()
    for mode, core in cores.items():
        write_coreset(tmp_path / mode, core)
        texts.add((tmp_path / mode).read_text())
    assert len(texts) == 1
