import math

import numpy as np
import pytest

from nodal_census import faber_krahn_floor
from nodal_census.specfn import _FIRST_ZEROS, bessel_j_orders

from oracles import mp_bessel, mp_bessel_zero


def test_bessel_pinned_values():
    j = bessel_j_orders(1, np.array([0.0, 1.0, 2.4048]))
    assert j[0, 0] == 1.0
    assert j[0, 1] == 0.0
    assert j[1, 0] == pytest.approx(0.7651976866, abs=1e-9)
    assert abs(j[2, 0]) < 1e-3


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 7, 20, 57, 131, 200])
def test_bessel_matches_series_oracle(nu):
    xs = np.concatenate([[0.0, 1e-300, 1e-60, 0.3], np.geomspace(1.0, 1000.0, 13)])
    ref = np.array([mp_bessel(nu, float(x)) for x in xs])
    assert np.all(np.abs(bessel_j_orders(nu, xs)[:, nu] - ref) <= 1e-10)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_j_orders(0, np.array([-1.0]))
    with pytest.raises(ValueError):
        bessel_j_orders(-1, np.array([1.0]))
    with pytest.raises(ValueError):
        bessel_j_orders(1, np.ones((2, 2)))


def test_three_term_recurrence():
    # the sweep runs this recurrence downward; its rescaling and Neumann
    # normalization must keep it
    xs = np.linspace(0.1, 100.0, 57)
    j = bessel_j_orders(21, xs)
    for nu in range(1, 21):
        lhs = j[:, nu - 1] + j[:, nu + 1]
        rhs = (2.0 * nu / xs) * j[:, nu]
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        assert np.all(np.abs(lhs - rhs) <= 1e-8 * np.maximum(scale, 1e-3))


def test_bessel_zero_values():
    # the floors' first zeros of J_0 and J_{1/2} are constants, pinned to
    # the bits a bisection found, each within 1e-9 of the true zero
    assert _FIRST_ZEROS == {2: 2.4048255576957445, 3: 3.1415926535898056}
    assert _FIRST_ZEROS[2] == pytest.approx(mp_bessel_zero(0, 1), abs=1e-9)
    assert _FIRST_ZEROS[3] == pytest.approx(mp_bessel_zero(0.5, 1), abs=1e-9)
    assert abs(bessel_j_orders(0, np.array([_FIRST_ZEROS[2]]))[0, 0]) < 1e-9


def test_faber_krahn_floor():
    # the report's faber_krahn fold reads these floors: pinned to the last bit
    assert faber_krahn_floor(2) == 18.168414535536805
    assert faber_krahn_floor(3) == 129.8787880453381
    assert faber_krahn_floor(2) == pytest.approx(math.pi * mp_bessel_zero(0, 1) ** 2, abs=1e-9)
    assert faber_krahn_floor(3) == pytest.approx((4.0 * math.pi / 3.0) * math.pi**3, abs=1e-9)
    for n in (1, 4):
        with pytest.raises(ValueError, match="dimensions 2 and 3"):
            faber_krahn_floor(n)
