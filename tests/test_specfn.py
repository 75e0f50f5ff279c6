import math

import numpy as np
import pytest

from nodal_census import bessel_j, bessel_zero, faber_krahn_floor, kernel_eval
from nodal_census.specfn import bessel_j_orders

from oracles import mp_band_kernel, mp_bessel, mp_bessel_zero, mp_kernel


def test_bessel_pinned_values():
    assert bessel_j(0, 0.0) == 1.0
    assert abs(bessel_j(0, 2.4048)) < 1e-3
    assert bessel_j(0, 1.0) == pytest.approx(0.7651976866, abs=1e-9)
    assert bessel_j(1, 0.0) == 0.0


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 7, 20, 57, 131, 0.5, 1.5, 7.5, 60.5, 199.5])
def test_bessel_matches_series_oracle(nu):
    # 10 pi and 10.5 pi sit on either side of the half-integer sweep's
    # switch between the sin x and cos x closed forms
    xs = np.concatenate([
        [0.0, 1e-300, 1e-60, 0.3], np.geomspace(1.0, 1000.0, 13), [10.0 * math.pi, 10.5 * math.pi]
    ])
    ref = np.array([mp_bessel(nu, float(x)) for x in xs])
    for x, want in zip(xs, ref):
        assert abs(bessel_j(nu, float(x)) - want) <= 1e-10
    if nu == int(nu):
        assert np.all(np.abs(bessel_j_orders(int(nu), xs)[:, int(nu)] - ref) <= 1e-10)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(201, 1.0)


def test_three_term_recurrence():
    xs = np.linspace(0.1, 100.0, 57)
    for nu in range(1, 21):
        jm = np.array([bessel_j(nu - 1, x) for x in xs])
        j0 = np.array([bessel_j(nu, x) for x in xs])
        jp = np.array([bessel_j(nu + 1, x) for x in xs])
        lhs = jm + jp
        rhs = (2.0 * nu / xs) * j0
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        assert np.all(np.abs(lhs - rhs) <= 1e-8 * np.maximum(scale, 1e-3))


def test_bessel_zero_values():
    assert bessel_zero(0, 1) == pytest.approx(2.4048, abs=1e-3)
    assert bessel_zero(0.5, 1) == pytest.approx(math.pi, abs=1e-9)
    assert bessel_zero(0, 2) == pytest.approx(5.5201, abs=1e-3)
    # zeros past x = 12 are bracketed from one sweep over the scan points
    far = [(nu, k) for nu in (0, 0.5, 10, 10.5) for k in (1, 5, 50)]
    for nu, k in [(0, 1), (0, 2), (1, 1), (3, 5), (0.5, 4), (10, 2), *far]:
        z = bessel_zero(nu, k)
        assert z == pytest.approx(mp_bessel_zero(nu, k), abs=1e-9)
        assert abs(bessel_j(nu, z)) < 1e-8


def test_faber_krahn_floor():
    # the report's faber_krahn fold reads these floors: pinned to the last bit
    assert faber_krahn_floor(2) == 18.168414535536805
    assert faber_krahn_floor(3) == 129.8787880453381
    t0 = faber_krahn_floor(2)
    assert t0 == pytest.approx(18.168, abs=1e-2)
    assert t0 == pytest.approx(math.pi * bessel_zero(0, 1) ** 2, abs=1e-9)
    assert faber_krahn_floor(3) == pytest.approx((4.0 * math.pi / 3.0) * math.pi**3, abs=1e-2)
    floors = [faber_krahn_floor(n) for n in (2, 3, 4)]
    assert floors[0] < floors[1] < floors[2]


def test_kernel_closed_forms():
    for r in (0.5, 1.0, 3.7, 20.0):
        assert kernel_eval(2, 1.0, r) == pytest.approx(bessel_j(0, r), abs=1e-12)
    assert kernel_eval(3, 1.0, 2.0) == pytest.approx(math.sin(2.0) / 2.0, abs=1e-8)
    assert kernel_eval(2, 0.0, 1.0) == pytest.approx(2.0 * bessel_j(1, 1.0), abs=1e-6)


@pytest.mark.parametrize("dim,alpha", [(2, 1.0), (2, 0.5), (2, 0.0), (3, 1.0), (3, 0.3)])
def test_kernel_unit_at_origin(dim, alpha):
    assert kernel_eval(dim, alpha, 0.0) == 1.0


@pytest.mark.parametrize("dim,alpha", [(2, 0.5), (2, 0.25), (3, 0.5), (3, 1.0)])
def test_kernel_matches_quadrature_oracle(dim, alpha):
    for r in (0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 50.0):
        want = mp_kernel(dim, r) if alpha == 1.0 else mp_band_kernel(dim, alpha, r)
        assert abs(kernel_eval(dim, alpha, r) - want) <= 1e-8


@pytest.mark.parametrize("dim,alpha", [(2, 1.0), (2, 0.5), (3, 1.0)])
def test_kernel_bounded_by_one(dim, alpha):
    rs = np.arange(0.0, 200.0, 0.5)
    vals = kernel_eval(dim, alpha, rs)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
