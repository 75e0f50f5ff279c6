"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the package's own numerics: Bessel
values and zeros come from mpmath at 30 digits, integrals from scipy
quadrature, grid labeling from a recursive flood fill or from breadth-first
search over every same-sign node pair, graph components from
breadth-first search, and the geometry of one marching-squares cell from
polygons cut along its crossing segments.  Two exceptions keep an earlier implementation as the
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
from nodal_census.nodal import domain_distance_extrema
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


def _shoelace(polygon) -> float:
    return 0.5 * abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                         in zip(polygon, polygon[1:] + polygon[:1])))


def cell_geometry(values, labels, d0: float, d1: float, center_positive: bool):
    """Marching-squares geometry of one cell, from first principles.

    Corners A, B, C, D sit at (0, 0), (d0, 0), (d0, d1), (0, d1) and carry
    `values` and `labels`; a value >= 0 is positive.  On each edge whose
    corners differ in sign the linear interpolant vanishes at one crossing
    point.  The crossing points split the boundary A -> B -> C -> D -> A
    into arcs of one sign.  With two crossings, one straight segment joins
    them and cuts the cell into the polygons of the two arcs.  With four (a
    saddle), the two corners whose sign differs from the center's are cut
    off, each by the segment joining the crossings next to it, and the
    other two corners share the rest of the cell, the channel.

    A region's area (shoelace formula) is split equally among the distinct
    labels of its corners; a segment's length goes to every distinct label
    on either side of it; each segment is a contour of its own.  Returns
    (area by label, perimeter by label, contours as sorted (positive
    labels, negative labels), contour count by label, total length).
    """
    corners = [(0.0, 0.0), (d0, 0.0), (d0, d1), (0.0, d1)]
    positive = [v >= 0 for v in values]
    # the boundary walk as (point, corner index, or None at a crossing)
    walk = []
    for i in range(4):
        j = (i + 1) % 4
        walk.append((corners[i], i))
        if positive[i] != positive[j]:
            s = values[i] / (values[i] - values[j])
            (x0, y0), (x1, y1) = corners[i], corners[j]
            walk.append(((x0 + s * (x1 - x0), y0 + s * (y1 - y0)), None))
    # regions as (polygon, corner indices); segments as (end, end, region, region)
    crossings = [n for n, (_, corner) in enumerate(walk) if corner is None]
    if not crossings:
        regions, segments = [(corners, [0, 1, 2, 3])], []
    else:
        arcs = []
        for start, stop in zip(crossings, crossings[1:] + [crossings[0] + len(walk)]):
            stretch = [walk[n % len(walk)] for n in range(start, stop + 1)]
            arcs.append(([pt for pt, _ in stretch], [c for _, c in stretch if c is not None]))
        if len(arcs) == 2:
            regions = arcs
            segments = [(arcs[0][0][0], arcs[0][0][-1], 0, 1)]
        else:
            cut = [arc for arc in arcs if positive[arc[1][0]] != center_positive]
            kept = [arc for arc in arcs if positive[arc[1][0]] == center_positive]
            channel = (kept[0][0] + kept[1][0], kept[0][1] + kept[1][1])
            regions = [*cut, channel]
            segments = [(arc[0][0], arc[0][-1], n, 2) for n, arc in enumerate(cut)]

    area: dict[int, float] = {}
    for polygon, members in regions:
        owners = sorted({labels[c] for c in members})
        for lab in owners:
            area[lab] = area.get(lab, 0.0) + _shoelace(polygon) / len(owners)
    perimeter: dict[int, float] = {}
    contours = []
    counts: dict[int, int] = {}
    total = 0.0
    for p, q, r1, r2 in segments:
        length = math.dist(p, q)
        total += length
        plus, minus = set(), set()
        for members in (regions[r1][1], regions[r2][1]):
            (plus if positive[members[0]] else minus).update(labels[c] for c in members)
        for lab in plus | minus:
            perimeter[lab] = perimeter.get(lab, 0.0) + length
            counts[lab] = counts.get(lab, 0) + 1
        contours.append((tuple(sorted(plus)), tuple(sorted(minus))))
    return area, perimeter, sorted(contours), counts, total


def critical_cells_brute_force(values, grid, center=None, radius=None) -> int:
    """Cells whose two discrete gradient components both change sign, one
    cell at a time: cell (i, j) has nodes i, i+1 and j, j+1 (modulo the
    node count on a torus) and its center half a spacing past node (i, j),
    at distance math.hypot on a window, the minimal image on a torus."""
    n0, n1 = values.shape
    torus = isinstance(grid, Torus)
    rows, cols = (n0, n1) if torus else (n0 - 1, n1 - 1)
    h = grid.spacing
    offset = 0.5 * h if torus else 0.0
    count = 0
    for i in range(rows):
        for j in range(cols):
            i1, j1 = (i + 1) % n0, (j + 1) % n1
            v00, v10 = values[i, j], values[i1, j]
            v01, v11 = values[i, j1], values[i1, j1]
            x_turns = (v10 - v00 >= 0) != (v11 - v01 >= 0)
            y_turns = (v01 - v00 >= 0) != (v11 - v10 >= 0)
            if not (x_turns and y_turns):
                continue
            if radius is not None:
                d = [abs((k + 0.5) * h + offset - c) for k, c in zip((i, j), center)]
                if torus:
                    d = [min(x, grid.side - x) for x in d]
                    dist = math.sqrt(d[0] ** 2 + d[1] ** 2)
                else:
                    dist = math.hypot(*d)
                if dist > radius:
                    continue
            count += 1
    return count


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
        center = grid.center
    labels = dec.labels
    n0, n1 = labels.shape
    flat = labels.ravel()
    nlab = len(dec.domains)
    node_count = np.bincount(flat, minlength=nlab)
    areas = dec.areas()

    dist = grid.node_distances(center).ravel()
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
