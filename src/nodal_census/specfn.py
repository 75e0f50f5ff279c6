"""Bessel functions of the first kind, and the Faber-Krahn floors.

`bessel_j_orders` gives J_n(x) for every integer order n <= nmax at once,
from one vectorized Miller backward sweep (`_sweep`) started above
max(nmax, x) and normalized by the Neumann sum.  Accuracy contract: absolute
error <= 1e-10 on x in [0, 1000] for orders n <= 200.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_j_orders",
    "faber_krahn_floor",
]

_RESCALE_LIMIT = 1e250
_RESCALE = 1e-250

# The first positive zeros of J_0 and J_{1/2}, as a bracketed bisection
# found them; each lies within 1e-9 of the true zero (2.404825557695773 and
# pi), and the floors that reports fold are computed from these bits.
_FIRST_ZEROS = {2: 2.4048255576957445, 3: 3.1415926535898056}


def _sweep(nmax: int, x: np.ndarray) -> np.ndarray:
    """J_n(x) for n = 0..nmax at each of `x`.

    Vectorized Miller backward recurrence with per-node rescaling, started
    above max(nmax, max x) and normalized by the Neumann sum
    J_0 + 2 (J_2 + J_4 + ...) = 1.  Each node is swept independently, so a
    value does not depend on the other nodes beyond the shared start order
    m = top + floor(sqrt(40 top)) + 15, made even, with
    top = max(nmax, ceil(max x)).  Every batch whose
    arguments are at most nmax therefore starts at the same m and gives each
    argument the row it gets when swept alone.  The plane-wave sampler's
    cell-center table leans on this: its truncation N = ceil(R + 7 R^(1/3)
    + 10) exceeds the window radius R, and no in-window radius exceeds R,
    so every batch of in-window radii starts at the m of N alone (218 on
    the 40 pi desk) and gives each radius one row.
    """
    out = np.zeros((x.shape[0], nmax + 1), dtype=np.float64)
    # Below 1e-50 every J_n(x) lies within sqrt(x) of its value at x = 0,
    # and one step of the sweep, a factor of up to 2m/x, could carry a value
    # at the rescale limit past the largest double.
    tiny = x < 1e-50
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
    for k in range(m, 0, -1):
        jp, jc = jc, (2.0 * k) * inv_x * jc - jp
        order = k - 1
        if 0 <= order <= nmax:
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


def bessel_j_orders(nmax: int, x: np.ndarray) -> np.ndarray:
    """All integer orders at once: returns a (len(x), nmax+1) matrix of J_n(x),
    from one Miller sweep over every node."""
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if np.any(x < 0.0):
        raise ValueError("negative arguments in x")
    return _sweep(nmax, x)


def faber_krahn_floor(n: int) -> float:
    """Minimal possible volume of a nodal domain in dimension n = 2 or 3
    (unit wavenumber).

    Equals the volume of the ball whose first Dirichlet eigenvalue is 1:
    pi^(n/2) / Gamma(n/2 + 1) * j^n where j is the first zero of J_{n/2-1}.
    """
    if n not in _FIRST_ZEROS:
        raise ValueError(f"the Faber-Krahn floor is kept for dimensions 2 and 3, not {n}")
    return math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0) * _FIRST_ZEROS[n] ** n
