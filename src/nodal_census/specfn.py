"""Bessel functions of the first kind, their zeros, and annulus covariance kernels.

Everything here is plain double-precision numerics with one algorithm per
order class.  Integer orders: the ascending power series for x <= 12, and
beyond it Miller's backward recurrence (`bessel_j_orders`) started above
max(n, x) and normalized by the Neumann sum; a scalar J_n is one column of
that sweep.  Half-integer orders: the spherical Bessel recurrence against
the closed forms of j_0 and j_1 (the series for x <= 12 below the order).
Accuracy contract: absolute error <= 1e-10 for J_nu on x in [0, 1000] with
integer or half-integer order nu <= 200, and <= 1e-9 for zero locations.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_j",
    "bessel_j_orders",
    "bessel_zero",
    "faber_krahn_floor",
    "kernel_eval",
]

_MAX_ORDER = 200.0
_RESCALE_LIMIT = 1e250
_RESCALE = 1e-250


def _is_half_integer(nu: float) -> bool:
    return abs(2.0 * nu - round(2.0 * nu)) < 1e-12 and abs(nu - round(nu)) > 0.25


def _is_integer(nu: float) -> bool:
    return abs(nu - round(nu)) < 1e-12


def _validate_order(nu: float) -> float:
    if not (0.0 <= nu <= _MAX_ORDER):
        raise ValueError(f"order nu={nu} outside supported range [0, {_MAX_ORDER:.0f}]")
    if not (_is_integer(nu) or _is_half_integer(nu)):
        raise ValueError(f"order nu={nu} must be an integer or half-integer")
    return float(nu)


def _series_j(nu: float, x: float) -> float:
    """Ascending power series; accurate for x <= 12 (any supported order)."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 0
    while k < 80:
        k += 1
        term *= -q / (k * (nu + k))
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            break
    log_pre = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    if log_pre < -745.0:
        return 0.0
    return math.exp(log_pre) * total


def _sph_pair(x: float) -> tuple[float, float]:
    """Spherical Bessel j_0, j_1 from trigonometric closed forms."""
    j0 = math.sin(x) / x
    j1 = (math.sin(x) / x - math.cos(x)) / x
    return j0, j1


def _spherical_j(n: int, x: float) -> float:
    """Spherical Bessel j_n via forward or Miller recurrence against sin x / x."""
    j0, j1 = _sph_pair(x)
    if n == 0:
        return j0
    if n == 1:
        return j1
    if x >= n + 0.5:
        jm, jc = j0, j1
        for k in range(1, n):
            jm, jc = jc, ((2.0 * k + 1.0) / x) * jc - jm
        return jc
    m = n + int(math.sqrt(40.0 * n)) + 15
    jp = 0.0
    jc = 1e-300
    target = 0.0
    got0 = 1e-300
    got1 = 1e-300
    for k in range(m, 0, -1):
        jm = ((2.0 * k + 1.0) / x) * jc - jp
        jp, jc = jc, jm
        if k - 1 == n:
            target = jc
        if k - 1 == 1:
            got1 = jc
        if abs(jc) > _RESCALE_LIMIT:
            jc *= _RESCALE
            jp *= _RESCALE
            target *= _RESCALE
            got1 *= _RESCALE
    got0 = jc
    # normalize against whichever closed form is better conditioned
    if abs(j0) >= abs(j1):
        return target * (j0 / got0)
    return target * (j1 / got1)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x).

    Supports integer and half-integer orders 0 <= nu <= 200 and x >= 0.
    Absolute error <= 1e-10 on x in [0, 1000].
    """
    nu = _validate_order(nu)
    x = float(x)
    if x < 0.0:
        raise ValueError(f"negative argument x={x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if _is_integer(nu):
        n = int(round(nu))
        if x <= 12.0:
            return _series_j(float(n), x)
        return float(bessel_j_orders(n, np.array([x]))[0, n])
    # half-integer: route through spherical Bessel functions
    n = int(round(nu - 0.5))
    if x <= 12.0 and x < nu:
        return _series_j(nu, x)
    return math.sqrt(2.0 * x / math.pi) * _spherical_j(n, x)


def bessel_j_orders(nmax: int, x: np.ndarray) -> np.ndarray:
    """All integer orders at once: returns a (len(x), nmax+1) matrix of J_n(x).

    Vectorized Miller backward recurrence with per-node rescaling and
    Neumann-sum normalization, started above max(nmax, max x).  Each node
    is swept independently, so a value does not depend on the other nodes
    beyond the shared start order.  This is the only integer-order path
    past the power series: the plane-wave sampler and scalar `bessel_j`
    both read it.
    """
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if np.any(x < 0.0):
        raise ValueError("negative arguments in x")
    npts = x.shape[0]
    out = np.zeros((npts, nmax + 1), dtype=np.float64)
    zero = x == 0.0
    out[zero, 0] = 1.0
    live = ~zero
    if not np.any(live):
        return out
    xv = x[live]
    inv_x = 1.0 / xv
    # the backward sweep settles onto J_n only where J_n decays with n, at
    # orders above x, so it starts above the largest x as well as nmax
    top = max(nmax, math.ceil(float(xv.max())))
    m = top + int(math.sqrt(40.0 * max(top, 1))) + 15
    if m % 2 == 1:
        m += 1
    jp = np.zeros_like(xv)
    jc = np.full_like(xv, 1e-300)
    neumann = np.zeros_like(xv)
    stored = np.zeros((xv.shape[0], nmax + 1), dtype=np.float64)
    for k in range(m, 0, -1):
        jp, jc = jc, (2.0 * k) * inv_x * jc - jp
        order = k - 1
        if order <= nmax:
            stored[:, order] = jc
        if order > 0 and order % 2 == 0:
            neumann += 2.0 * jc
        big = np.abs(jc) > _RESCALE_LIMIT
        if big.any():
            jc[big] *= _RESCALE
            jp[big] *= _RESCALE
            neumann[big] *= _RESCALE
            stored[big, :] *= _RESCALE
    neumann += jc
    stored /= neumann[:, None]
    out[live, :] = stored
    return out


def bessel_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu, located to 1e-9 by bracketed bisection.

    Sign changes are scanned left to right starting at x = max(nu, 0.5) with a
    step well under the minimal spacing of consecutive zeros, so no zero can
    be skipped; failure to find the bracket raises rather than returning junk.
    """
    nu = _validate_order(nu)
    if k < 1:
        raise ValueError("zero index k must be >= 1")
    step = 1.2
    a = max(nu, 0.5)
    fa = bessel_j(nu, a)
    found = 0
    bracket = None
    guard = int((k * (math.pi + 1.0) + 10.0 * (1.0 + nu ** (1.0 / 3.0))) / step) + 200
    for _ in range(guard):
        b = a + step
        fb = bessel_j(nu, b)
        if fa == 0.0:
            bracket = (a - 1e-9, a + 1e-9)
            found += 1
        elif fa * fb < 0.0:
            found += 1
            bracket = (a, b)
        if found == k:
            break
        a, fa = b, fb
    else:
        raise RuntimeError(f"failed to bracket zero #{k} of J_{nu}")
    lo, hi = bracket
    flo = bessel_j(nu, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = bessel_j(nu, mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def faber_krahn_floor(n: int) -> float:
    """Minimal possible volume of a nodal domain in dimension n (unit wavenumber).

    Equals the volume of the ball whose first Dirichlet eigenvalue is 1:
    pi^(n/2) / Gamma(n/2 + 1) * j^n where j is the first zero of J_{n/2-1}.
    """
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    j1 = bessel_zero(0.5 * n - 1.0, 1)
    return math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0) * j1**n


def _scaled_jn(nu: float, x: float) -> float:
    """J_nu(x) / x^nu, continued through x = 0 by the entire power series."""
    if x < 0.5:
        q = 0.25 * x * x
        term = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
        total = term
        for k in range(1, 30):
            term *= -q / (k * (nu + k))
            total += term
            if abs(term) < 1e-20:
                break
        return total
    return bessel_j(nu, x) / x**nu


def _scaled_jn_many(nu: float, xs: np.ndarray) -> np.ndarray:
    """`_scaled_jn` at each of `xs`; an integer order takes every x > 12
    from one Miller sweep instead of a sweep per point."""
    out = np.empty_like(xs)
    swept = (xs > 12.0) & _is_integer(nu)
    if np.any(swept):
        n = int(round(nu))
        x = xs[swept]
        out[swept] = bessel_j_orders(n, x)[:, n] / x**nu
    rest = np.flatnonzero(~swept)
    out[rest] = [_scaled_jn(nu, x) for x in xs[rest].tolist()]
    return out


def kernel_eval(n: int, alpha: float, r) -> float | np.ndarray:
    """Covariance kernel of the band-limited field: radial Fourier average.

    For alpha = 1 this is the spherical-measure transform
    Gamma(n/2) (2/r)^(n/2-1) J_{n/2-1}(r); for alpha < 1 the s^(n-1)-weighted
    radial average of that transform over s in [alpha, 1], which closes to

        n Gamma(n/2) 2^(n/2-1) [S(r) - alpha^n S(alpha r)] / (1 - alpha^n)

    with S(x) = J_{n/2}(x)/x^(n/2).  K(0) = 1 exactly and K is even in r.
    """
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    rr = np.asarray(r, dtype=np.float64)
    if np.any(rr < 0.0):
        raise ValueError("kernel argument r must be >= 0")
    scalar = rr.ndim == 0
    flat = np.atleast_1d(rr).ravel()
    if alpha == 1.0:
        nu = 0.5 * n - 1.0
        pre = math.gamma(0.5 * n) * 2.0**nu
        out = pre * _scaled_jn_many(nu, flat)
    else:
        nu = 0.5 * n
        pre = n * math.gamma(0.5 * n) * 2.0 ** (0.5 * n - 1.0) / (1.0 - alpha**n)
        out = pre * (_scaled_jn_many(nu, flat) - alpha**n * _scaled_jn_many(nu, alpha * flat))
    out[flat == 0.0] = 1.0
    if scalar:
        return float(out[0])
    return out.reshape(np.atleast_1d(rr).shape)
