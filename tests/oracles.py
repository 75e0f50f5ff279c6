"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the package's own numerics: Bessel
values and zeros come from mpmath at 30 digits, integrals from scipy
quadrature, grid labeling from a recursive flood fill or from breadth-first
search over every same-sign node pair, and graph components from
breadth-first search.  Two exceptions keep an earlier implementation as the
reference.  The sandwich oracle is the key-sort `sandwich_check_many`: it
shares the package's node-distance convention and verdict record, and counts
every (center, label) pair by materialising and sorting their keys.  The
torus oracle is the full-grid band-limited sampler: it shares the package's
mode table and draw order, and runs one `np.fft.ifftn` over the whole
spectrum.
"""

from __future__ import annotations

import math
import sys
from collections import deque

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from nodal_census import PlanarWindow, SandwichVerdict, Torus
from nodal_census.nodal import _node_distances, default_center, domain_distance_extrema
from nodal_census.sampler import torus_modes

mp.mp.dps = 30


def mp_bessel(order: float, x: float) -> float:
    return float(mp.besselj(order, x))


def mp_bessel_zero(order: float, k: int) -> float:
    return float(mp.besseljzero(order, k))


def mp_kernel(n: int, r: float) -> float:
    """Spherical-measure covariance kernel Gamma(n/2) (2/r)^(n/2-1) J_{n/2-1}(r)."""
    if r == 0.0:
        return 1.0
    nu = 0.5 * n - 1.0
    return float(mp.gamma(0.5 * n) * (2.0 / r) ** nu * mp.besselj(nu, r))


def mp_band_kernel(n: int, alpha: float, r: float) -> float:
    """Annulus-average kernel: s^(n-1)-weighted mean of mp_kernel(n, s r)."""
    if r == 0.0:
        return 1.0
    num = mp.quad(lambda s: s ** (n - 1) * mp_kernel(n, float(s) * r), [alpha, 1.0])
    den = mp.quad(lambda s: s ** (n - 1), [alpha, 1.0])
    return float(num / den)


def kac_rice_length_density() -> float:
    """Expected nodal length per unit area for the planar unit-wavenumber field.

    Derived from scratch: the field has unit variance (kernel value at 0) and
    per-component gradient variance sigma2 = -K''(0); the level-zero surface
    density is p_F(0) * E|grad F|, with the gradient a 2-D centered Gaussian.
    Both factors are evaluated numerically here, none assumed.
    """
    var0 = float(mp.besselj(0, 0))
    sigma2 = -float(mp.diff(lambda t: mp.besselj(0, t), 0, 2))
    p0 = 1.0 / math.sqrt(2.0 * math.pi * var0)
    # |grad F| in polar coordinates: density r/sigma2 * exp(-r^2 / (2 sigma2)).
    # The tail beyond r=40 is below exp(-1600); a finite interval keeps the
    # quadrature error estimate meaningful (the infinite-interval transform
    # reports ~3e-9 even though the value is converged).
    e_grad, err = quad(
        lambda r: r * (r / sigma2) * math.exp(-r * r / (2.0 * sigma2)),
        0.0,
        40.0,
    )
    assert err < 1e-10
    return p0 * e_grad


def flood_fill_labels(signs: np.ndarray) -> np.ndarray:
    """Recursive 4-connected component labels in row-major discovery order."""
    n0, n1 = signs.shape
    labels = np.full((n0, n1), -1, dtype=np.int64)
    sys.setrecursionlimit(max(10000, 4 * n0 * n1 + 100))

    def fill(i: int, j: int, lab: int, s: int) -> None:
        if not (0 <= i < n0 and 0 <= j < n1):
            return
        if labels[i, j] != -1 or signs[i, j] != s:
            return
        labels[i, j] = lab
        fill(i - 1, j, lab, s)
        fill(i + 1, j, lab, s)
        fill(i, j - 1, lab, s)
        fill(i, j + 1, lab, s)

    nxt = 0
    for i in range(n0):
        for j in range(n1):
            if labels[i, j] == -1:
                fill(i, j, nxt, signs[i, j])
                nxt += 1
    return labels


def bfs_components(n: int, edges) -> np.ndarray:
    """Component labels of the graph on nodes 0..n-1 by breadth-first search,
    numbered in order of each component's smallest node."""
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    labels = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = nxt
        queue = deque([start])
        while queue:
            for y in adjacent[queue.popleft()]:
                if labels[y] == -1:
                    labels[y] = nxt
                    queue.append(y)
        nxt += 1
    return labels


def node_pair_labels(pos: np.ndarray, wraps) -> np.ndarray:
    """Sign-component labels of a grid by breadth-first search over one edge
    per same-sign pair of axis neighbours, including the pair across the seam
    of every axis whose `wraps` entry is true; numbered in order of each
    component's smallest node (row-major)."""
    idx = np.arange(pos.size).reshape(pos.shape)
    us, vs = [], []
    for ax in range(pos.ndim):
        lo = [slice(None)] * pos.ndim
        hi = [slice(None)] * pos.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        same = pos[tuple(lo)] == pos[tuple(hi)]
        us.append(idx[tuple(lo)][same])
        vs.append(idx[tuple(hi)][same])
        if wraps[ax]:
            last = [slice(None)] * pos.ndim
            first = [slice(None)] * pos.ndim
            last[ax] = -1
            first[ax] = 0
            same = pos[tuple(last)] == pos[tuple(first)]
            us.append(idx[tuple(last)][same])
            vs.append(idx[tuple(first)][same])
    edges = zip(np.concatenate(us).tolist(), np.concatenate(vs).tolist())
    return bfs_components(pos.size, edges).reshape(pos.shape)


def full_grid_torus_values(model, grid, stream) -> np.ndarray:
    """Band-limited torus values from the whole (n,)*dim spectrum and one
    `np.fft.ifftn`, with the same modes and draws as `sample_band_limited`."""
    modes, _ = torus_modes(grid, model.alpha)
    gen = stream.generator()
    nonzero = ~np.all(modes == 0, axis=1)
    a = gen.standard_normal(modes.shape[0])
    b = np.zeros(modes.shape[0])
    b[nonzero] = gen.standard_normal(int(np.sum(nonzero)))
    norm = 1.0 / math.sqrt(modes.shape[0])
    n = grid.n_intervals
    spec = np.zeros((n,) * grid.dim, dtype=np.complex128)
    twist = np.exp(1j * math.pi * np.sum(modes, axis=1) / n)
    amp = 0.5 * (a - 1j * b) * twist
    amp[~nonzero] *= 2.0  # zero mode has no conjugate partner
    idx_pos = tuple(np.mod(modes[:, d], n) for d in range(grid.dim))
    idx_neg = tuple(np.mod(-modes[:, d], n) for d in range(grid.dim))
    np.add.at(spec, idx_pos, amp)
    np.add.at(spec, idx_neg, np.conj(amp))
    zero_self = ~nonzero
    if np.any(zero_self):
        # the m = 0 entry was added twice
        spec[(0,) * grid.dim] /= 2.0
    return np.fft.ifftn(spec).real * (n**grid.dim) * norm


def _lattice_offsets(grid, r: float):
    """Integer offsets m with |m h| <= r, plus the strict |m h| < r flag."""
    h = grid.spacing
    reach = int(math.floor(r / h)) + 1
    rng = np.arange(-reach, reach + 1)
    mi, mj = np.meshgrid(rng, rng, indexing="ij")
    norm = np.hypot(mi, mj) * h
    keep = norm <= r
    return mi[keep], mj[keep], (norm[keep] < r)


def sandwich_keys_oracle(dec, geometries, thresholds, center=None) -> list:
    """Sandwich verdicts from sorted (center, label) keys: the reference the
    per-offset counting of stats.sandwich_check_many must match exactly."""
    grid = dec.sample.grid
    if not isinstance(grid, (PlanarWindow, Torus)) or dec.labels.ndim != 2:
        raise ValueError("sandwich checking runs on planar and 2-D torus grids")
    if center is None:
        center = default_center(grid)
    labels = dec.labels
    n0, n1 = labels.shape
    flat = labels.ravel()
    nlab = len(dec.domains)
    node_count = np.bincount(flat, minlength=nlab)
    areas = dec.areas()

    dist = _node_distances(grid, center).ravel()
    verdicts = []
    for r, R in geometries:
        if not (0.0 < r < R):
            raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
        if isinstance(grid, PlanarWindow):
            for c in center:
                if c - (R + r) < -1e-9 or c + (R + r) > grid.side + 1e-9:
                    raise ValueError(f"B(center, R+r) with R+r={R + r} leaves the window")
        else:
            if R + r > 0.5 * grid.side + 1e-9:
                raise ValueError(f"R+r={R + r} exceeds half the torus side")
        mi, mj, strict = _lattice_offsets(grid, r)
        K = int(np.count_nonzero(strict))
        centers_idx = np.nonzero(dist <= R + r)[0]
        in_lo = dist[centers_idx] <= R - r
        ci, cj = np.divmod(centers_idx, n1)
        ti = ci[:, None] + mi[None, :]
        tj = cj[:, None] + mj[None, :]
        rows = np.broadcast_to(np.arange(centers_idx.shape[0])[:, None], ti.shape)
        strict2 = np.broadcast_to(strict[None, :], ti.shape)
        if isinstance(grid, Torus):
            ti = np.mod(ti, n0)
            tj = np.mod(tj, n1)
            valid = np.ones(ti.shape, dtype=bool)
        else:
            valid = (ti >= 0) & (ti < n0) & (tj >= 0) & (tj < n1)
        lab = flat[ti[valid] * n1 + tj[valid]]
        keys = rows[valid].astype(np.int64) * nlab + lab
        keys_any = np.unique(keys)
        keys_strict, cnt = np.unique(keys[strict2[valid]], return_counts=True)
        lab_any = keys_any % nlab
        lab_str = keys_strict % nlab
        row_str = keys_strict // nlab
        full = cnt == node_count[lab_str]
        full_in_lo = full & in_lo[row_str]
        dmax_ok_cache = None
        for t in thresholds:
            ok = areas <= t
            lower_count = int(np.count_nonzero(full_in_lo & ok[lab_str]))
            upper_count = int(np.count_nonzero(ok[lab_any]))
            if dmax_ok_cache is None:
                _, dmax = domain_distance_extrema(dec, center)
                dmax_ok_cache = dmax < R
            middle = int(np.count_nonzero(dmax_ok_cache & ok))
            holds = lower_count <= middle * K and middle * K <= upper_count
            verdicts.append(
                SandwichVerdict(
                    r=float(r),
                    R=float(R),
                    t=float(t),
                    lower=lower_count / K,
                    middle=middle,
                    upper=upper_count / K,
                    holds=bool(holds),
                )
            )
    return verdicts
