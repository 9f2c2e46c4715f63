import itertools
import math
import random

import numpy as np
import pytest

from capacore import kernels
from capacore.common import UsageError
from capacore.coreset import exact_threshold
from capacore.geometry import Point
from capacore.hashing import KWiseHash, PointEncoder

from conftest import rand_points


def _hash(seed, lam, Delta, d=2):
    return KWiseHash(seed, lam, PointEncoder(Delta, d))


def _keeps(h, rate, points):
    """The keep rule at rate: a field value below floor(rate * modulus)."""
    t = exact_threshold(rate, h.modulus)
    return [v < t for v in h.field_values(points)]


def test_degenerate_probabilities():
    h = _hash(1, 4, 8)
    for x in range(1, 9):
        for y in range(1, 9):
            v = h.field_value(Point((x, y)))
            assert v < exact_threshold(1.0, h.modulus)
            assert not v < exact_threshold(0.0, h.modulus)


def test_eval_deterministic():
    a = _hash(5, 8, 16)
    b = _hash(5, 8, 16)
    pts = [Point((x, y), t) for x in range(1, 17) for y in range(1, 5)
           for t in (-1, 0, 3)]
    assert a.field_values(pts).tolist() == b.field_values(pts).tolist()
    assert _keeps(a, 0.37, pts) == _keeps(b, 0.37, pts)
    for p in pts[:20]:
        assert a.field_value(p) == a.field_values([p])[0]


@pytest.mark.parametrize("Delta", [8, 1 << 16])
def test_field_values_are_the_polynomial_at_the_encoding(Delta):
    # Delta 2**16 takes the 2**89 - 1 modulus: values beyond one 64-bit word
    h = _hash(7, 6, Delta)
    pts = rand_points(random.Random(3), 30, Delta)
    want = [sum(c * pow(h.encoder.encode(p), i, h.modulus)
                for i, c in enumerate(h.coeffs)) % h.modulus for p in pts]
    assert h.field_values(pts).tolist() == want
    assert [h.field_value(p) for p in pts] == want
    assert [h.code_value(h.encoder.encode(p)) for p in pts] == want


M61 = (1 << 61) - 1


@pytest.mark.parametrize("lam", [4, 3888])
def test_numpy_kernel_equals_horner_bit_for_bit(lam):
    # 0, 1, p - 1, the largest code of domains whose codes fit below p
    # (Delta**d * 2**32 - 1), random codes; random coefficients and the
    # largest ones, which make every limb product as large as it gets
    rng = random.Random(lam)
    largest = []
    for Delta, d in ((8, 2), (1 << 14, 2), (1 << 9, 3), (1 << 28, 1)):
        enc = PointEncoder(Delta, d)
        assert enc.modulus == M61 and enc.range == Delta ** d << 32
        largest.append(enc.range - 1)
    xs = [0, 1, M61 - 1] + largest + [rng.randrange(M61) for _ in range(40)]
    for coeffs in (tuple(rng.randrange(M61) for _ in range(lam)),
                   (M61 - 1,) * lam):
        got = kernels.poly_eval_batch(coeffs, np.array(xs, dtype=np.uint64),
                                      M61)
        assert got.dtype == np.uint64
        assert got.tolist() == [kernels.horner(coeffs[::-1], x, M61)
                                for x in xs]


def test_numpy_kernel_reduces_a_fold_past_2_61():
    # at x = p - 2 the limb sum of (p - 2) x plus this constant term is
    # 3 * 2**61 - 1, whose fold of 2**61 = 1 is 2**61 + 1: the value 2 only
    # after the kernel's last fold
    x, c = M61 - 2, 2305843009213693949
    got = kernels.poly_eval_batch((c, M61 - 2), np.array([x], np.uint64), M61)
    assert got.tolist() == [((M61 - 2) * x + c) % M61] == [2]


@pytest.mark.parametrize("Delta,d", [(8, 2), (1 << 14, 2), (1 << 16, 2),
                                     (1 << 9, 3)])
def test_encode_columns_equals_encode(Delta, d):
    # 2**16 in 2-d takes the 2**89 - 1 modulus: codes and field values are
    # Python ints there, from the per-point Horner
    enc = PointEncoder(Delta, d)
    pts = rand_points(random.Random(4), 30, Delta, d)
    pts += [Point((1,) * d, -1), Point((Delta,) * d, (1 << 32) - 2)]
    coords = np.array([p.coords for p in pts], dtype=np.int64)
    tags = np.array([p.tag for p in pts], dtype=np.int64)
    codes = enc.encode_columns(coords, tags)
    assert codes.dtype == (np.uint64 if enc.modulus == M61 else object)
    assert codes.tolist() == [enc.encode(p) for p in pts]
    h = KWiseHash(11, 6, enc)
    assert h.field_values(codes).tolist() == h.field_values(pts).tolist() \
        == [h.field_value(p) for p in pts]


def test_validation():
    with pytest.raises(UsageError):
        _hash(1, 3, 8)
    with pytest.raises(UsageError):
        PointEncoder(8, 2).encode(Point((1, 1), 1 << 33))


def test_quantization_bound():
    mod = PointEncoder(8, 2).modulus
    assert 1.0 / mod < 2.0 ** -60
    assert abs(exact_threshold(0.123456, mod) / mod - 0.123456) <= 1.0 / mod


def test_exact_threshold():
    mod = (1 << 61) - 1
    assert exact_threshold(0.0, mod) == 0
    assert exact_threshold(1.0, mod) == mod
    assert exact_threshold(0.5, mod) == mod // 2  # floor of an odd modulus / 2
    # rates outside [0, 1] clamp to keeping none or every point
    assert exact_threshold(-0.5, mod) == 0
    assert exact_threshold(1.5, mod) == mod


def test_encoding_injective_and_invertible():
    enc = PointEncoder(4, 2)
    seen = set()
    for x in range(1, 5):
        for y in range(1, 5):
            for t in (-1, 0, 1, 77):
                p = Point((x, y), t)
                code = enc.encode(p)
                assert code not in seen
                seen.add(code)
                assert enc.decode(code) == p


def test_marginal_rate():
    prob = 0.25
    h = _hash(77, 16, 1024)
    rng = random.Random(0)
    pts = rand_points(rng, 100_000, 1024)
    hits = sum(_keeps(h, prob, pts))
    rate = hits / len(pts)
    sigma = math.sqrt(prob * (1 - prob) / len(pts))
    assert abs(rate - prob) <= 3 * sigma


def test_tag_only_difference_marginal():
    # points sharing coords but differing in tag must hash independently
    prob = 0.5
    h = _hash(3, 8, 8)
    pts = [Point((4, 4), t) for t in range(20_000)]
    rate = sum(_keeps(h, prob, pts)) / len(pts)
    sigma = math.sqrt(prob * (1 - prob) / len(pts))
    assert abs(rate - prob) <= 3 * sigma


def test_lambda4_exhaustive_joint_independence():
    """All bit patterns of 4-point tuples over a 16-point domain are uniform."""
    domain = [Point((x, y)) for x in range(1, 5) for y in range(1, 5)]
    quads = list(itertools.combinations(range(16), 4))
    counts = {q: [0] * 16 for q in quads}
    n_seeds = 200
    for seed in range(n_seeds):
        bits = _keeps(_hash(seed, 4, 4), 0.5, domain)
        for q in quads:
            pattern = (bits[q[0]] << 3) | (bits[q[1]] << 2) \
                | (bits[q[2]] << 1) | bits[q[3]]
            counts[q][pattern] += 1
    expected = n_seeds / 16
    worst = 0.0
    for q in quads:
        chi2 = sum((c - expected) ** 2 / expected for c in counts[q])
        worst = max(worst, chi2)
    # chi-square df=15, p ~ 2.6e-6 critical value; 1820 dependent tuples
    assert worst < 54.0


def test_pairwise_covariance():
    prob = 0.5
    pts = [Point((x, y)) for x in range(1, 6) for y in range(1, 3)]
    n_seeds = 300
    prods = {pair: 0 for pair in itertools.combinations(range(len(pts)), 2)}
    singles = [0] * len(pts)
    for seed in range(n_seeds):
        bits = [int(b) for b in _keeps(_hash(1000 + seed, 4, 8), prob, pts)]
        for i, b in enumerate(bits):
            singles[i] += b
        for (i, j) in prods:
            prods[(i, j)] += bits[i] * bits[j]
    sigma = math.sqrt(prob * prob * (1 - prob * prob) / n_seeds)
    for (i, j), total in prods.items():
        cov = total / n_seeds - (singles[i] / n_seeds) * (singles[j] / n_seeds)
        assert abs(cov) <= 4.5 * sigma  # 45 simultaneous checks


def test_coupled_thresholds_are_nested():
    # same seed + lambda, lower rate: accepted set shrinks (prefix property)
    enc = PointEncoder(32, 2)
    hi = KWiseHash(9, 8, enc)
    lo = KWiseHash(9, 8, enc)
    pts = [Point((x, y)) for x in range(1, 33) for y in range(1, 9)]
    kept_lo, kept_hi = _keeps(lo, 0.2, pts), _keeps(hi, 0.6, pts)
    assert 0 < sum(kept_lo) < sum(kept_hi) < len(pts)
    for accepted_lo, accepted_hi in zip(kept_lo, kept_hi):
        if accepted_lo:
            assert accepted_hi


def test_eval_identical_across_processes():
    import subprocess
    import sys

    snippet = (
        "from capacore.coreset import exact_threshold\n"
        "from capacore.hashing import KWiseHash, PointEncoder\n"
        "from capacore.geometry import Point\n"
        "h = KWiseHash(424242, 8, PointEncoder(16, 2))\n"
        "t = exact_threshold(0.37, h.modulus)\n"
        "pts = [Point((x, y), x * y) for x in range(1, 17) for y in range(1, 5)]\n"
        "print(''.join(str(int(v < t)) for v in h.field_values(pts)))\n"
    )
    runs = {
        subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                       text=True, check=True).stdout
        for _ in range(2)
    }
    assert len(runs) == 1
    local = _hash(424242, 8, 16)
    pts = [Point((x, y), x * y) for x in range(1, 17) for y in range(1, 5)]
    expected = "".join(str(int(b)) for b in _keeps(local, 0.37, pts)) + "\n"
    assert runs == {expected}
