"""Bessel functions of the first kind, their zeros, and annulus covariance kernels.

Everything here is plain double-precision numerics with one algorithm per
regime, the same for integer and half-integer orders: the ascending power
series for x <= 12, and beyond it one vectorized Miller backward sweep
(`_sweep`) started above max(n, x), normalized by the Neumann sum for
integer orders and by the closed forms of J_{1/2} and J_{-1/2} for
half-integer ones; a scalar J_nu is one column of that sweep.
Accuracy contract: absolute error <= 1e-10 for J_nu on x in [0, 1000] with
integer or half-integer order nu <= 200, and <= 1e-9 for zero locations.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

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


def _validate_order(nu: float) -> float:
    if not (0.0 <= nu <= _MAX_ORDER):
        raise ValueError(f"order nu={nu} outside supported range [0, {_MAX_ORDER:.0f}]")
    if not (abs(nu - round(nu)) < 1e-12 or _is_half_integer(nu)):
        raise ValueError(f"order nu={nu} must be an integer or half-integer")
    return float(nu)


def _series_sum(nu: float, x: float) -> float:
    """J_nu(x) (2/x)^nu Gamma(nu+1) as its power series; accurate for x <= 12."""
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
    return total


def _series_j(nu: float, x: float) -> float:
    """Ascending power series; accurate for x <= 12 (any supported order)."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    total = _series_sum(nu, x)
    log_pre = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    if log_pre < -745.0:
        return 0.0
    return math.exp(log_pre) * total


def _split_order(nu: float) -> tuple[int, float]:
    """An order as n + offset, with offset 0 or 1/2."""
    offset = 0.5 if _is_half_integer(nu) else 0.0
    return int(round(nu - offset)), offset


def _sweep(nmax: int, offset: float, x: np.ndarray) -> np.ndarray:
    """J_{n+offset}(x) for n = 0..nmax at each of `x` (offset 0 or 1/2).

    Vectorized Miller backward recurrence with per-node rescaling, started
    above max(nmax, max x).  Integer orders are normalized by the Neumann
    sum J_0 + 2 (J_2 + J_4 + ...) = 1; half-integer orders take one more
    step, to J_{-1/2}, and are scaled to the closed form of J_{1/2} or
    J_{-1/2}, sqrt(2/(pi x)) times sin x or cos x, whichever is larger.
    Each node is swept independently, so a value does not depend on the
    other nodes beyond the shared start order m = top + floor(sqrt(40 top))
    + 15, made even, with top = max(nmax, ceil(max x)).  Every batch whose
    arguments are at most nmax therefore starts at the same m and gives each
    argument the row it gets when swept alone.  The plane-wave sampler's
    cell-center table leans on this: its truncation N = ceil(R + 7 R^(1/3)
    + 10) exceeds the window radius R, and no in-window radius exceeds R,
    so every batch of in-window radii starts at the m of N alone (218 on
    the 40 pi desk) and gives each radius one row.
    """
    out = np.zeros((x.shape[0], nmax + 1), dtype=np.float64)
    # Below 1e-50 every J_{n+offset}(x) lies within sqrt(x) of its value at
    # x = 0, and one step of the sweep, a factor of up to 2m/x, could carry
    # a value at the rescale limit past the largest double.
    tiny = x < 1e-50
    if not offset:
        out[tiny, 0] = 1.0
    live = ~tiny
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
    for k in range(m, -1 if offset else 0, -1):
        jp, jc = jc, (2.0 * (k + offset)) * inv_x * jc - jp
        order = k - 1
        if 0 <= order <= nmax:
            stored[:, order] = jc
        if not offset and order > 0 and order % 2 == 0:
            neumann += 2.0 * jc
        big = np.abs(jc) > _RESCALE_LIMIT
        if big.any():
            jc[big] *= _RESCALE
            jp[big] *= _RESCALE
            neumann[big] *= _RESCALE
            stored[big, :] *= _RESCALE
    if offset:
        # jp is J_{1/2} and jc is J_{-1/2}, both up to the same factor
        sin, cos = np.sin(xv), np.cos(xv)
        use_sin = np.abs(sin) >= np.abs(cos)
        closed = np.where(use_sin, sin, cos) * np.sqrt(2.0 / (math.pi * xv))
        stored *= (closed / np.where(use_sin, jp, jc))[:, None]
    else:
        neumann += jc
        stored /= neumann[:, None]
    out[live, :] = stored
    return out


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x).

    Supports integer and half-integer orders 0 <= nu <= 200 and x >= 0.
    Absolute error <= 1e-10 on x in [0, 1000].
    """
    nu = _validate_order(nu)
    x = float(x)
    if x < 0.0:
        raise ValueError(f"negative argument x={x}")
    n, offset = _split_order(nu)
    if x <= 12.0:
        return _series_j(n + offset, x)
    return float(_sweep(n, offset, np.array([x]))[0, n])


def bessel_j_orders(nmax: int, x: np.ndarray) -> np.ndarray:
    """All integer orders at once: returns a (len(x), nmax+1) matrix of J_n(x).

    One Miller sweep over every node, the same one that scalar `bessel_j`
    and `kernel_eval` read past the power series at any order.
    """
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if np.any(x < 0.0):
        raise ValueError("negative arguments in x")
    return _sweep(nmax, 0.0, x)


def _scan(nu: float, x: float, step: float, count: int) -> Iterator[tuple[float, float]]:
    """(x, J_nu(x)) at `count` scan points from `x` on, each the last plus
    `step`, lazily: the power series one point at a time up to x = 12, then
    one sweep over every point past it."""
    n, offset = _split_order(nu)
    for left in range(count, 0, -1):
        if x > 12.0:
            xs = [x]
            for _ in range(left - 1):
                xs.append(xs[-1] + step)
            yield from zip(xs, _sweep(n, offset, np.array(xs))[:, n].tolist())
            return
        yield x, _series_j(n + offset, x)
        x += step


def bessel_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu, located to 1e-9 by bracketed bisection.

    Sign changes are scanned left to right starting at x = max(nu, 0.5) with a
    step well under the minimal spacing of consecutive zeros, so no zero can
    be skipped; failure to find the bracket raises rather than returning junk.
    The scan reads the power series point by point up to x = 12 and one
    Miller sweep over all its points beyond; the bisection stays scalar.
    """
    nu = _validate_order(nu)
    if k < 1:
        raise ValueError("zero index k must be >= 1")
    step = 1.2
    found = 0
    bracket = None
    guard = int((k * (math.pi + 1.0) + 10.0 * (1.0 + nu ** (1.0 / 3.0))) / step) + 200
    scan = _scan(nu, max(nu, 0.5), step, guard + 1)
    a, fa = next(scan)
    for b, fb in scan:
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


@functools.cache
def faber_krahn_floor(n: int) -> float:
    """Minimal possible volume of a nodal domain in dimension n (unit wavenumber).

    Equals the volume of the ball whose first Dirichlet eigenvalue is 1:
    pi^(n/2) / Gamma(n/2 + 1) * j^n where j is the first zero of J_{n/2-1}.
    Kept per dimension: every report fold reads it, and the zero's scan and
    bisection take about 47 power-series sums.
    """
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    j1 = bessel_zero(0.5 * n - 1.0, 1)
    return math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0) * j1**n


def _scaled_jn_many(nu: float, xs: np.ndarray) -> np.ndarray:
    """J_nu(x) / x^nu at each of `xs`, continued through x = 0 by its limit
    1 / (2^nu Gamma(nu+1)): the power series for x <= 12, one sweep above."""
    out = np.empty_like(xs)
    swept = xs > 12.0
    if np.any(swept):
        n, offset = _split_order(nu)
        x = xs[swept]
        out[swept] = _sweep(n, offset, x)[:, n] / x**nu
    rest = np.flatnonzero(~swept)
    limit = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
    out[rest] = [limit * _series_sum(nu, x) for x in xs[rest].tolist()]
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
