import math

import pytest

from capacore.common import UsageError
from capacore.params import (PRACTICAL, THEORY, derive, derive_rounding_delta,
                             parse_serialized)

from reference import coreset_size_bound


def test_lambda_formula_spec_example():
    p = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2)
    assert p.L == 3
    assert p.lam == 1e6 * 2 * 8 * 2 * 3 * math.ceil(math.log2(2 * 2 * 3))
    assert p.lam_prime == 100 * 2 * 3


def test_threshold_doubling():
    p = derive(k=3, r=2, eps=0.3, eta=0.2, Delta=16, d=2)
    for o in (1, 7, 300):
        for i in range(0, p.L + 1):
            assert p.T(i, o) == pytest.approx(2 ** p.r * p.T(i - 1, o))


def test_gamma_xi_formulas():
    p = derive(k=2, r=2, eps=0.4, eta=0.3, Delta=8, d=2)
    d_pow = 2 ** 3.0
    gamma = 2.0 ** -24 * min(0.3 / (2 * 3), 0.4 / ((2 + d_pow) * 3))
    xi = 2.0 ** -24 * min(0.4, 0.3) / (2 * (2 + d_pow) * 9)
    assert p.gamma == pytest.approx(gamma, rel=0)
    assert p.xi == pytest.approx(xi, rel=0)


def test_practical_scales_probabilities_linearly():
    p_th = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2, mode=THEORY)
    c = 1e-6
    p_pr = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                  mode=PRACTICAL, scale=c)
    for o in (1, 64, 4096):
        for i in range(0, p_th.L + 1):
            raw_phi = 2.0 ** (2 * (p_th.r + 10)) * p_th.lam / (
                p_th.xi ** 3 * p_th.gamma * p_th.T(i, o))
            assert p_pr.phi(i, o) == min(1.0, c * raw_phi)
            raw_psi = 1e6 * p_th.lam_prime / p_th.T(i, o)
            assert p_pr.psi(i, o) == min(1.0, c * raw_psi)
            raw_psip = 1e6 * p_th.lam_prime / (p_th.gamma * p_th.T(i, o))
            assert p_pr.psi_prime(i, o) == min(1.0, c * raw_psip)
    # gamma, xi and the caps keep their theory values
    assert p_pr.gamma == p_th.gamma and p_pr.xi == p_th.xi
    assert p_pr.heavy_cell_cap() == p_th.heavy_cell_cap()
    assert p_pr.part_sum_cap(2, 16) == p_th.part_sum_cap(2, 16)


def test_probabilities_positive_and_monotone_in_o():
    p = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
               mode=PRACTICAL, scale=1e-55)
    for i in range(0, p.L + 1):
        last_phi = last_psi = last_psip = 2.0
        for o in (1, 2, 8, 64, 1024, 10**6):
            phi, psi, psip = p.phi(i, o), p.psi(i, o), p.psi_prime(i, o)
            for v in (phi, psi, psip):
                assert 0 < v <= 1
            assert phi <= last_phi and psi <= last_psi and psip <= last_psip
            last_phi, last_psi, last_psip = phi, psi, psip


def test_monotone_in_scale():
    args = dict(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2, mode=PRACTICAL)
    lo = derive(scale=1e-56, **args)
    hi = derive(scale=1e-54, **args)
    for i in range(0, lo.L + 1):
        assert lo.phi(i, 16) <= hi.phi(i, 16)


def test_caps_formulas():
    p = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2)
    d_pow = 8.0
    assert p.heavy_cell_cap() == 20000 * (2 + d_pow) * 3
    o = 32
    for i in range(0, 4):
        assert p.part_sum_cap(i, o) == 10000 * (2 * 3 + d_pow) * p.T(i, o)
    # theory rates are 1 here; scale 1e-58 puts every rate below 1
    sampled = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                     mode=PRACTICAL, scale=1e-58)
    for q in (p, sampled):
        for i in range(0, 4):
            for fam, rate in (("h", q.psi(i, o)), ("hp", q.psi_prime(i, o)),
                              ("hhat", q.phi(i, o))):
                assert q.rate(fam, i, o) == rate
                alpha, beta = q.caps(fam, i, o)
                assert alpha == 1e6 * (2 + d_pow * rate * q.T(i, o)) * 9
                if fam == "hhat":
                    assert beta == 4e6 * (2 + d_pow) * 9 * rate * q.T(i, o)
                else:
                    assert beta == 0.0
    assert max(sampled.psi(0, o), sampled.psi_prime(0, o),
               sampled.phi(0, o)) < 1
    with pytest.raises(UsageError):
        p.caps("g", 0, o)
    with pytest.raises(UsageError):
        p.rate("g", 0, o)


def test_hash_lambda_even_and_clamped():
    p = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
               mode=PRACTICAL, scale=1e-55)
    assert p.hash_lambda() == 4
    assert p.hash_lambda_prime() == 4
    p2 = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                mode=PRACTICAL, scale=1e-6)
    assert p2.hash_lambda() % 2 == 0 and p2.hash_lambda() >= 4
    assert p2.hash_lambda() == 384


def test_size_bound_formula_and_monotonicity():
    p = derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2)
    expected = (8 * 10**12 * 2.0 ** 120 * 2 * 2**6 * 2
                * (2 + 8.0) ** 5 * 3**10 * math.log2(12)) / 0.4**4
    assert coreset_size_bound(p) == pytest.approx(expected, rel=1e-12)
    tighter = derive(k=2, r=2, eps=0.2, eta=0.2, Delta=8, d=2)
    assert coreset_size_bound(tighter) >= coreset_size_bound(p)
    with pytest.raises(UsageError):
        coreset_size_bound(derive(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2,
                                  mode=PRACTICAL, scale=0.5))


def test_validation_errors():
    good = dict(k=2, r=2, eps=0.4, eta=0.4, Delta=8, d=2)
    derive(**good)
    for bad in (dict(good, k=0), dict(good, r=0.5), dict(good, eps=0.6),
                dict(good, eta=0.0), dict(good, Delta=6), dict(good, d=0),
                dict(good, mode="weird")):
        with pytest.raises(UsageError):
            derive(**bad)
    with pytest.raises(UsageError):
        derive(mode=PRACTICAL, scale=-1.0, **good)
    # non-finite r and scale, and Delta past the int64 lattice range
    for bad in (dict(good, r=math.nan), dict(good, r=math.inf),
                dict(good, Delta=1 << 63), dict(good, Delta=1 << 64)):
        with pytest.raises(UsageError):
            derive(**bad)
    for scale in (math.nan, math.inf):
        with pytest.raises(UsageError):
            derive(mode=PRACTICAL, scale=scale, **good)
    assert derive(**dict(good, Delta=1 << 62)).L == 62


def test_delta_rounding():
    assert derive_rounding_delta(8) == (8, False)
    assert derive_rounding_delta(9) == (16, True)


def test_serialization_roundtrip():
    p = derive(k=3, r=1.5, eps=0.25, eta=0.125, Delta=16, d=3,
               mode=PRACTICAL, scale=1e-7)
    q = parse_serialized(p.serialize())
    assert q == p
