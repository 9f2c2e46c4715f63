"""Pre-registered calibration sweep for the practical-mode scale.

Run manually: python3 tests/calibration_sweep.py

Protocol (fixed before looking at any results):
  * instance family: Delta=8, d=2, n=36 Gaussian pairs (2 clusters,
    spread 1.2), k=2, r=2, eps=eta=0.5, exact counts on;
  * per seed in 0..19: build with practical(c), audit the symmetric-form
    sandwich over 200 sampled center sets x the full integer t-grid;
    a seed is clean when no (Z, t) pair violates either inequality;
  * the selected scale is the smallest c in CANDIDATES with >= 18/20
    clean seeds.  The result is frozen into
    tests/reference.py's CALIBRATED_PRACTICAL_SCALE and asserted by the
    acceptance suite.
"""

import math
import random
import sys
import time

sys.path.insert(0, "tests")

from capacore import oracle
from capacore.common import derive_seed
from capacore.coreset import build_auto, dedup_points
from capacore.geometry import GridHierarchy
from capacore.params import PRACTICAL, derive

from conftest import clustered_points
from reference import lattice_points

CANDIDATES = [1e-58, 3e-58, 1e-57, 2e-57, 3e-57, 5e-57, 7e-57,
              1e-56, 1e-55, 1e-54, 1e-53, 1e-52, 1e-12, 1e-6]
SEEDS = range(20)
N_CENTERS = 200
N_POINTS = 36


def seed_clean(seed: int, scale: float) -> bool:
    params = derive(k=2, r=2, eps=0.5, eta=0.5, Delta=8, d=2,
                    mode=PRACTICAL, scale=scale)
    inst_rng = random.Random(derive_seed(seed, "calib-instance"))
    pts = dedup_points(clustered_points(inst_rng, N_POINTS, 8,
                                        clusters=2, spread=1.2))
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), 8, 2)
    core = build_auto(pts, grid, params, seed=seed, exact_counts=True)
    z_rng = random.Random(derive_seed(seed, "calib-centers"))
    lattice = lattice_points(8, 2)
    centers = [tuple(z_rng.sample(lattice, 2)) for _ in range(N_CENTERS)]
    n = len(pts)
    t_values = list(range(math.ceil(n / 2), n + 1))
    report = oracle.sandwich_audit(pts, core, centers, t_values,
                                   forms=(oracle.SYMMETRIC_FORM,))
    return report.violations() == 0


def main():
    results = {}
    for scale in CANDIDATES:
        t0 = time.time()
        clean = sum(seed_clean(seed, scale) for seed in SEEDS)
        results[scale] = clean
        print(f"c={scale:8.0e}  clean seeds {clean}/20  "
              f"({time.time() - t0:.1f}s)")
    chosen = next((c for c in CANDIDATES if results[c] >= 18), None)
    print(f"\nselected scale: {chosen}")


if __name__ == "__main__":
    main()
