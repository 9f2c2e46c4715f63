"""Golden digests at sampling rates below 1.

Cross-mode tests cannot see a drift that every mode shares, such as a float
sum taken in another order.  These digests pin the outputs of seeded builds
and part estimates to the values of the dict-based decision path that
summed each part left to right, so a change of order, of rounding or of
gates shows here:

* builds at Delta = 8 and scales 1e-53 and 1e-57 with both count modes: at
  1e-57 with exact counts phi is 1/1.4333 at the finest level, so weights
  are not integers; with sampled counts every guess FAILs and the all-FAIL
  text is pinned.  Offline, stream and dist give the one digest.
* the part estimates of sampled banks at scale 1e-19, where psi' is
  1/1.0596, 1/4.2386, 1/16.9542 or 1/67.8168 at some levels, over the
  marking of exact counts: every estimate is a non-integer.
"""

import hashlib
import random

import pytest

from capacore.common import derive_seed
from capacore.coreset import OfflineBuilder, build_auto, dedup_points
from capacore.distributed import run_protocol
from capacore.estimator import ExactBank, SampleBank
from capacore.geometry import GridHierarchy
from capacore.params import PRACTICAL, derive
from capacore.partition import mark_cells
from capacore.streaming import StreamEngine

from conftest import clustered_points, part_taus

DELTA = 8

# (scale, exact_counts, seed) -> sha256 of the build (_digest)
BUILDS = {
    (1e-53, False, 1): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-53, False, 2): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-53, False, 3): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-53, True, 1): 'dd4ea8d911779438676e6e8b96d10c0cc2eea944b5458f976f48ba478675c5f6',
    (1e-53, True, 2): 'd837052d5ef2a7404f7ba3a875e84736bb209af504cdb9cf8b58b741ccecd726',
    (1e-53, True, 3): 'c4936c0e8d224c50b8df964d2a71eb9635ee0ad7e8075bc2af8f8c4f61cc8d75',
    (1e-57, False, 1): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-57, False, 2): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-57, False, 3): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-57, True, 1): 'e5d4d79443b014d132a75d26cf0fb19f5c58b41f1899f37a6ed65a66ac4bc016',
    (1e-57, True, 2): '07b74abdc60945a215e5e63e581cf8b904a90b5f76681cdb4845d3c058e576d0',
    (1e-57, True, 3): '6fa08934277a0fafa67bc2a8eb02b5bef124a69b077f3b88c4972fe5c3871ea7',
}

# (seed, o) -> sha256 of the part estimates at scale 1e-19 (sampled counts)
ESTIMATES = {
    (1, 64): '575c8eaac760b06d19ffb08bd03a49c1d30cc35ab06ad9c8c744c38252e3b750',
    (1, 256): '61978c1bffe99431ef77a56b98f8e69079b74bbd7a6016707840e3ea7b588762',
    (1, 1024): '03648cadee0adcccba2f78b82e2fdb52addeac39b2ecfcc10496ca860d85a2a9',
    (2, 64): '8961fabf1522ca7c140f6a2ded0e11f56104073d1c7fc40486f092138c68f9bf',
    (2, 256): 'dbd39cfa6f20b28fdc6c4a382b58160a741599456e74e02715b162c3b560c707',
    (2, 1024): 'f71ff1ff35b5ad17ee7542b1782da2ee1b24eb6d4847503a8e9fada699528bdf',
    (3, 64): '18fa8eab9af54c021872b5bc072baa8ae551baf73b8ee61f2055abe69bdd86ef',
    (3, 256): '809fce35e465b17e5331972a2b79755951b365d2edfafa3c05032cf252b21e00',
    (3, 1024): '5984e19833a646e5cae4ffe7174e796449a496477348c90dc6fab005634c06da',
}


def _params(scale):
    return derive(k=2, r=2, eps=0.4, eta=0.4, Delta=DELTA, d=2,
                  mode=PRACTICAL, scale=scale)


def _points(seed, n):
    return dedup_points(clustered_points(random.Random(f"golden:{seed}"), n,
                                         DELTA, clusters=2, spread=1.5))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(build) -> str:
    """The digest of a coreset (its canonical() entries, o and shift, its
    part_tau and its heavy cells), or of the all-FAIL error build raises."""
    try:
        core = build()
    except RuntimeError as err:
        return _sha(str(err))
    meta = core.meta
    return _sha(repr((core.canonical(), sorted(meta.part_tau.items()),
                      sorted((lvl, sorted(cells)) for lvl, cells
                             in meta.structure.heavy.items()))))


@pytest.mark.parametrize("scale,exact_counts,seed", sorted(BUILDS))
def test_builds_match_their_golden_digest(scale, exact_counts, seed):
    params = _params(scale)
    pts = _points(seed, 40)
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), DELTA, 2)

    def stream():
        engine = StreamEngine(params, grid, seed, exact_counts=exact_counts,
                              n_max=len(pts))
        engine.process_stream((p, +1) for p in pts)
        return engine.finalize()

    builds = {
        "offline": lambda: build_auto(pts, grid, params, seed,
                                      exact_counts=exact_counts),
        "stream": stream,
        "dist": lambda: run_protocol([pts[i::3] for i in range(3)], params,
                                     seed, exact_counts=exact_counts)[0],
    }
    for mode, build in builds.items():
        assert _digest(build) == BUILDS[(scale, exact_counts, seed)], mode


@pytest.mark.parametrize("seed,o", sorted(ESTIMATES))
def test_part_estimates_match_their_golden_digest(seed, o):
    params = _params(1e-19)
    pts = _points(seed, 300)
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), DELTA, 2)
    builder = OfflineBuilder(pts, grid, params, seed, exact_counts=False)
    data = {(fam, lvl): builder._cell_data(builder.sampling.key(fam, lvl, o))
            for fam in ("h", "hp") for lvl in range(0, grid.L + 1)}
    bank = SampleBank.build(builder.sampling, o, data)
    assert any(0 < rate < 1 for rate in bank.psi_prime.values())
    structure = mark_cells(ExactBank(pts, grid).counts_for_marking(), params,
                           o, grid)
    union, parts = bank.part_estimates(structure)
    parts = part_taus(parts)
    assert parts and all(tau != int(tau) for tau in parts.values())
    assert _sha(repr((sorted(union.items()), sorted(parts.items())))) == \
        ESTIMATES[(seed, o)]
