"""Nodal domain decomposition and geometry on sampled grids.

A decomposition labels every grid node with its connected sign component
(4-connectivity, 6 in three dimensions; value exactly 0 counts as positive)
and then measures each domain.  One connected-components routine,
`_components`, finds both the domains (over same-sign node pairs) and the
crossing contours (over the crossing points each segment joins), and also
decides whether the nesting graph is a forest.  The measures:

* area: member-node count times cell volume (exact per-cell solid angles on
  the sphere), the primary estimator;
* refined_area: the area of the piecewise-linear interpolant's sign region,
  accumulated cell by cell from the marching-squares clipping -- used where
  sub-cell sensitivity matters (perturbation matching);
* perimeter: total marching-squares segment length adjacent to the domain,
  with linear interpolation of edge crossings;
* boundary_components: number of connected crossing contours touching the
  domain, traced through shared cell-edge crossing points.

The ambiguous saddle cell (equal diagonal signs) is resolved by the sign of
the field at the cell center when the sample carries spectral coefficients,
and by connecting the positive corners otherwise.  Note the node labeling is
sign-symmetric 4-connected and therefore splits BOTH diagonals of a saddle;
the traced contour can join two node-labeled domains of the saddle's
connected sign.  Segment lengths and cell areas are then attributed to every
adjacent label, which keeps totals conserved.

Ball restriction (N and N*) uses node membership: a domain lies in B(u, r)
iff all its nodes do (strict inequality), and meets the closed ball iff some
node is within r.  Tori measure distance through the minimal image.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec, LatLongSphere, PlanarWindow, Torus
from .sampler import FieldSample, evaluate_at

__all__ = [
    "DomainRecord",
    "NodalDecomposition",
    "NestingGraph",
    "label_domains",
    "measure_domains",
    "restrict_counts",
    "domain_distance_extrema",
    "default_center",
    "nesting_graph",
    "nesting_is_forest",
    "perturbation_stability",
    "critical_cell_count",
    "synthetic_sample",
]


@dataclass
class DomainRecord:
    label: int
    sign: int
    area: float
    node_count: int
    touches_window: bool
    perimeter: float = 0.0
    boundary_components: int = 0
    refined_area: float = 0.0


@dataclass
class NodalDecomposition:
    sample: FieldSample
    labels: np.ndarray
    domains: list[DomainRecord]
    connectivity: str
    measured: bool = False
    total_nodal_length: float | None = None
    # contour adjacency, one entry per traced contour: (positive labels, negative labels)
    contour_adjacency: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)
    _extrema_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def areas(self) -> np.ndarray:
        return np.array([d.area for d in self.domains])


@dataclass
class NestingGraph:
    labels: np.ndarray
    edges: list[tuple[int, int]]
    degrees: np.ndarray
    interior: bool


def synthetic_sample(values, grid: GridSpec) -> FieldSample:
    """Wrap a raw value array as a sample (no model, no off-grid evaluation)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    return FieldSample(values=values, grid=grid, model=None, stream=None, coeffs=None)


def _wrap_axes(grid: GridSpec) -> tuple[bool, ...]:
    if isinstance(grid, Torus):
        return (True,) * grid.dim
    if isinstance(grid, LatLongSphere):
        return (False, True)
    return (False, False)


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of the graph on nodes 0..n-1 with edges (u, v).

    Labels 0..K-1 number the components in order of their smallest node.
    Hook and pointer jump (Shiloach & Vishkin, J. Algorithms 3, 1982): each
    root hooks to the smallest root it touches, pointer jumping flattens the
    trees, and the rounds repeat until every edge joins equal roots.  A
    parent is never larger than its child, so each root ends as the smallest
    node of its component.
    """
    root = np.arange(n)
    ru, rv = u, v
    while np.count_nonzero(ru != rv):
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = root[root]
        while np.count_nonzero(jumped != root):
            root = jumped
            jumped = root[root]
        ru, rv = root[u], root[v]
    rank = (root == np.arange(n)).cumsum() - 1
    return rank[root]


def label_domains(sample: FieldSample) -> NodalDecomposition:
    """Partition the grid into sign components.

    4-connected (6-connected for 3-D tori), zero values positive, adjacency
    wrapping on periodic axes.  Fills the count-based record fields; the
    marching-squares fields arrive with measure_domains.
    """
    grid = sample.grid
    v = np.asarray(sample.values)
    if v.shape != grid.shape:
        raise ValueError(f"values shape {v.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field values must be finite")
    pos = v >= 0
    idx = np.arange(v.size).reshape(v.shape)
    wraps = _wrap_axes(grid)
    us, vs = [], []
    for ax in range(v.ndim):
        lo = [slice(None)] * v.ndim
        hi = [slice(None)] * v.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        same = pos[tuple(lo)] == pos[tuple(hi)]
        us.append(idx[tuple(lo)][same])
        vs.append(idx[tuple(hi)][same])
        if wraps[ax]:
            last = [slice(None)] * v.ndim
            first = [slice(None)] * v.ndim
            last[ax] = -1
            first[ax] = 0
            same = pos[tuple(last)] == pos[tuple(first)]
            us.append(idx[tuple(last)][same])
            vs.append(idx[tuple(first)][same])
    labels = _components(v.size, np.concatenate(us), np.concatenate(vs))
    labels = labels.reshape(v.shape).astype(np.int32)
    domains = _count_records(sample, labels, pos)
    conn = "6-connected" if v.ndim == 3 else "4-connected"
    return NodalDecomposition(sample=sample, labels=labels, domains=domains, connectivity=conn)


def _count_records(sample: FieldSample, labels: np.ndarray, pos: np.ndarray) -> list[DomainRecord]:
    grid = sample.grid
    flat = labels.ravel()
    counts = np.bincount(flat)
    k = counts.shape[0]
    # every node of a domain carries the domain's sign
    positive = np.empty(k, dtype=bool)
    positive[flat] = pos.ravel()
    signs = np.where(positive, 1, -1)

    if isinstance(grid, LatLongSphere):
        w = np.broadcast_to(grid.row_cell_areas()[:, None], grid.shape)
        areas = np.bincount(flat, weights=w.ravel(), minlength=k)
    else:
        areas = counts * grid.spacing**labels.ndim

    touches = np.zeros(k, dtype=bool)
    if isinstance(grid, PlanarWindow):
        edge = np.zeros(labels.shape, dtype=bool)
        edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
        touches[labels[edge]] = True

    return [
        DomainRecord(
            label=lab,
            sign=int(signs[lab]),
            area=float(areas[lab]),
            node_count=int(counts[lab]),
            touches_window=bool(touches[lab]),
        )
        for lab in range(k)
    ]


@functools.lru_cache(maxsize=8)
def _cell_tables(grid: GridSpec):
    """Per-row metric and per-axis center tables of the marching cells of a
    2-D grid: (d0, d1, area, cu, cv).

    Cell (i, j) has corners A = (i, j), B = (i+1, j), C = (i+1, j+1) and
    D = (i, j+1), indices taken modulo the node shape on a wrapped axis.
    Its side lengths d0[i], d1[i] and its area[i] depend on its row alone,
    and its center is (cu[i], cv[j]), so the tables grow with the side of
    the grid, not its area.  They depend on the grid alone: built once per
    grid and shared read-only by every measure_domains call on it.
    """
    if isinstance(grid, (PlanarWindow, Torus)):
        n = grid.n_intervals
        h = grid.spacing
        d0 = np.full(n, h)
        d1 = np.full(n, h)
        area = np.full(n, h * h)
        if isinstance(grid, PlanarWindow):
            cu = (np.arange(n) + 0.5) * h
        else:
            cu = ((np.arange(n) + 1.0) * h) % grid.side
        cv = cu
    else:
        dth = math.pi / grid.n_lat
        dph = 2.0 * math.pi / grid.n_lon
        theta_mid = (np.arange(grid.n_lat - 1) + 1.0) * dth
        d0 = np.full(theta_mid.size, dth)
        d1 = np.sin(theta_mid) * dph
        area = dph * (np.cos(theta_mid - 0.5 * dth) - np.cos(theta_mid + 0.5 * dth))
        cu = theta_mid
        cv = ((np.arange(grid.n_lon) + 1.0) * dph) % (2.0 * math.pi)
    for table in (d0, d1, area, cu, cv):
        table.setflags(write=False)
    return d0, d1, area, cu, cv


def measure_domains(dec: NodalDecomposition) -> NodalDecomposition:
    """Complete the decomposition's geometry: perimeters, refined areas,
    boundary components, contour adjacency, and the total crossing length.

    Idempotent; returns the same decomposition object.
    """
    if dec.measured:
        return dec
    if dec.labels.ndim == 3:
        _measure_faces_3d(dec)
        dec.measured = True
        return dec

    grid = dec.sample.grid
    values = np.asarray(dec.sample.values, dtype=np.float64)
    vals = values.ravel()
    labs = dec.labels.ravel()
    n0, n1 = dec.labels.shape
    k = len(dec.domains)
    d0_row, d1_row, area_row, cu, cv = _cell_tables(grid)
    rows, cols = area_row.size, cv.size
    # node signs with the first row/column repeated past a wrapped edge, so
    # the corners of every cell are four shifted slices
    pos = values >= 0
    wrap_rows, wrap_cols = _wrap_axes(grid)
    if wrap_rows:
        pos = np.concatenate([pos, pos[:1]], axis=0)
    if wrap_cols:
        pos = np.concatenate([pos, pos[:, :1]], axis=1)
    pattern = (
        pos[:rows, :cols] * 1
        + pos[1 : rows + 1, :cols] * 2
        + pos[1 : rows + 1, 1 : cols + 1] * 4
        + pos[:rows, 1 : cols + 1] * 8
    ).ravel()
    crossing = (pattern != 0) & (pattern != 15)

    refined = np.zeros(k)
    uniform = ~crossing
    refined += np.bincount(
        dec.labels[:rows, :cols].ravel()[uniform],
        weights=np.repeat(area_row, cols)[uniform],
        minlength=k,
    )

    cidx = np.nonzero(crossing)[0]
    ci, cj = np.divmod(cidx, cols)
    # corner node indices; a node index is also the id of the edge to its
    # +i neighbour, and n0 * n1 plus it the id of the edge to its +j one
    ci1 = (ci + 1) % n0
    cj1 = (cj + 1) % n1
    fa = ci * n1 + cj
    fb = ci1 * n1 + cj
    fc = ci1 * n1 + cj1
    fd = ci * n1 + cj1
    e_base = n0 * n1
    # saddle resolution: field sign at the cell center when evaluable
    center_pos = np.ones(cidx.shape[0], dtype=bool)
    saddle = (pattern[cidx] == 5) | (pattern[cidx] == 10)
    if np.any(saddle) and dec.sample.coeffs is not None and dec.sample.model is not None:
        centers = np.stack([cu[ci[saddle]], cv[cj[saddle]]], axis=1)
        center_pos[saddle] = evaluate_at(dec.sample, centers) >= 0

    va = vals[fa].tolist()
    vb = vals[fb].tolist()
    vc = vals[fc].tolist()
    vd = vals[fd].tolist()
    la = labs[fa].tolist()
    lb = labs[fb].tolist()
    lc = labs[fc].tolist()
    ld = labs[fd].tolist()
    eab = fa.tolist()
    ebc = (e_base + fb).tolist()
    ecd = fd.tolist()
    eda = (e_base + fa).tolist()
    pat = pattern[cidx].tolist()
    d0s = d0_row[ci].tolist()
    d1s = d1_row[ci].tolist()
    areas_c = area_row[ci].tolist()
    cpos = center_pos.tolist()

    perimeter = [0.0] * k
    ref = refined.tolist()
    total_len = 0.0
    # `ends` holds each segment's two crossing-point edge ids, `segments` its
    # (positive labels, negative labels)
    ends: list[int] = []
    segments: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    hypot = math.hypot

    for i in range(len(pat)):
        p = pat[i]
        d0 = d0s[i]
        d1 = d1s[i]
        ca = areas_c[i]
        if p == 5 or p == 10:
            a_, b_, c_, d_ = va[i], vb[i], vc[i], vd[i]
            t_ab = a_ / (a_ - b_)
            t_bc = b_ / (b_ - c_)
            t_cd = d_ / (d_ - c_)
            t_da = a_ / (a_ - d_)
            sa_i = p == 5  # True when A and C are the positive diagonal
            if cpos[i] == sa_i:
                # A-C connected through the cell; B and D are pinched off
                iso = ((lb[i], eab[i], t_ab, 0.0, ebc[i], 1.0, t_bc, 0.5 * (1.0 - t_ab) * t_bc),
                       (ld[i], ecd[i], t_cd, 1.0, eda[i], 0.0, t_da, 0.5 * t_cd * (1.0 - t_da)))
                ch1, ch2 = la[i], lc[i]
                iso_positive = not sa_i
            else:
                iso = ((la[i], eda[i], 0.0, t_da, eab[i], t_ab, 0.0, 0.5 * t_ab * t_da),
                       (lc[i], ebc[i], 1.0, t_bc, ecd[i], t_cd, 1.0,
                        0.5 * (1.0 - t_bc) * (1.0 - t_cd)))
                ch1, ch2 = lb[i], ld[i]
                iso_positive = sa_i
            channel = (ch1,) if ch1 == ch2 else (ch1, ch2)
            tri_total = 0.0
            for lab_i, e1, u1, v1, e2, u2, v2, tri in iso:
                seg_len = hypot((u2 - u1) * d0, (v2 - v1) * d1)
                total_len += seg_len
                perimeter[lab_i] += seg_len
                for labc in channel:
                    perimeter[labc] += seg_len
                ends += (e1, e2)
                if iso_positive:
                    segments.append(((lab_i,), channel))
                else:
                    segments.append((channel, (lab_i,)))
                ref[lab_i] += tri * ca
                tri_total += tri
            rest = (1.0 - tri_total) * ca
            if ch1 == ch2:
                ref[ch1] += rest
            else:
                ref[ch1] += 0.5 * rest
                ref[ch2] += 0.5 * rest
            continue

        a_, b_, c_, d_ = va[i], vb[i], vc[i], vd[i]
        if p == 1 or p == 14:  # A cut off
            t_da = a_ / (a_ - d_)
            t_ab = a_ / (a_ - b_)
            e1, u1, v1, e2, u2, v2 = eda[i], 0.0, t_da, eab[i], t_ab, 0.0
            frac = 0.5 * t_ab * t_da
            one, other = la[i], lb[i]
        elif p == 2 or p == 13:  # B cut off
            t_ab = a_ / (a_ - b_)
            t_bc = b_ / (b_ - c_)
            e1, u1, v1, e2, u2, v2 = eab[i], t_ab, 0.0, ebc[i], 1.0, t_bc
            frac = 0.5 * (1.0 - t_ab) * t_bc
            one, other = lb[i], la[i]
        elif p == 4 or p == 11:  # C cut off
            t_bc = b_ / (b_ - c_)
            t_cd = d_ / (d_ - c_)
            e1, u1, v1, e2, u2, v2 = ebc[i], 1.0, t_bc, ecd[i], t_cd, 1.0
            frac = 0.5 * (1.0 - t_bc) * (1.0 - t_cd)
            one, other = lc[i], la[i]
        elif p == 8 or p == 7:  # D cut off
            t_cd = d_ / (d_ - c_)
            t_da = a_ / (a_ - d_)
            e1, u1, v1, e2, u2, v2 = ecd[i], t_cd, 1.0, eda[i], 0.0, t_da
            frac = 0.5 * t_cd * (1.0 - t_da)
            one, other = ld[i], la[i]
        elif p == 6 or p == 9:  # A,D | B,C split
            t_ab = a_ / (a_ - b_)
            t_cd = d_ / (d_ - c_)
            e1, u1, v1, e2, u2, v2 = eab[i], t_ab, 0.0, ecd[i], t_cd, 1.0
            frac = 0.5 * (t_ab + t_cd)
            one, other = la[i], lb[i]
        else:  # p == 3 or p == 12: A,B | C,D split
            t_bc = b_ / (b_ - c_)
            t_da = a_ / (a_ - d_)
            e1, u1, v1, e2, u2, v2 = ebc[i], 1.0, t_bc, eda[i], 0.0, t_da
            frac = 0.5 * (t_bc + t_da)
            one, other = la[i], ld[i]
        seg_len = hypot((u2 - u1) * d0, (v2 - v1) * d1)
        total_len += seg_len
        perimeter[one] += seg_len
        perimeter[other] += seg_len
        ends += (e1, e2)
        one_positive = p in (1, 2, 4, 8, 3, 9)
        # `one` is the label on the A/B/C/D-arc side listed above; its sign
        # follows from the pattern: cut-off patterns 1,2,4,8 isolate a positive
        # corner, 9 puts +A on the `one` side, 3 puts +A,B there.
        if one_positive:
            segments.append(((one,), (other,)))
        else:
            segments.append(((other,), (one,)))
        ref[one] += frac * ca
        ref[other] += (1.0 - frac) * ca

    # contours are the components of the segments over their crossing
    # points, numbered by smallest edge id
    ids, point = np.unique(np.array(ends, dtype=np.int64), return_inverse=True)
    contour = _components(ids.shape[0], point[0::2], point[1::2])
    n_contours = int(contour.max(initial=-1)) + 1
    label_contours: list[set[int]] = [set() for _ in range(k)]
    plus_by_contour: list[set[int]] = [set() for _ in range(n_contours)]
    minus_by_contour: list[set[int]] = [set() for _ in range(n_contours)]
    for c, (plus, minus) in zip(contour[point[0::2]].tolist(), segments):
        for lab_i in plus:
            label_contours[lab_i].add(c)
            plus_by_contour[c].add(lab_i)
        for lab_i in minus:
            label_contours[lab_i].add(c)
            minus_by_contour[c].add(lab_i)

    dec.contour_adjacency = [
        (tuple(sorted(plus)), tuple(sorted(minus)))
        for plus, minus in zip(plus_by_contour, minus_by_contour)
    ]
    for rec in dec.domains:
        rec.perimeter = perimeter[rec.label]
        rec.boundary_components = len(label_contours[rec.label])
        rec.refined_area = ref[rec.label]
    dec.total_nodal_length = total_len
    dec.measured = True
    return dec


def _measure_faces_3d(dec: NodalDecomposition) -> None:
    """3-D tori: boundary surface by face counting (marching squares is
    2-D only).  Each sign-changing lattice face contributes h^2 to both
    adjacent domains; contour tracing is not attempted."""
    grid = dec.sample.grid
    h2 = grid.spacing**2
    pos = dec.sample.values >= 0
    labs = dec.labels
    k = len(dec.domains)
    perimeter = np.zeros(k)
    nfaces = 0
    for ax in range(3):
        rolled = np.roll(pos, -1, axis=ax)
        face = pos != rolled
        nfaces += int(np.sum(face))
        perimeter += np.bincount(labs[face].ravel(), minlength=k) * h2
        perimeter += np.bincount(np.roll(labs, -1, axis=ax)[face].ravel(), minlength=k) * h2
    for rec in dec.domains:
        rec.perimeter = float(perimeter[rec.label])
        rec.boundary_components = 0
        rec.refined_area = rec.area
    dec.total_nodal_length = nfaces * h2


def default_center(grid: GridSpec) -> tuple[float, ...]:
    """Reference center used for ball statistics: the window/torus center, or
    the equatorial point (pi/2, pi) on the sphere."""
    if isinstance(grid, LatLongSphere):
        return (0.5 * math.pi, math.pi)
    return grid.center


def _node_distances(grid: GridSpec, center) -> np.ndarray:
    if isinstance(grid, PlanarWindow):
        xx, yy = grid.node_coords()
        return np.hypot(xx - center[0], yy - center[1])
    if isinstance(grid, Torus):
        c = grid.axis_coords()
        acc = np.zeros(grid.shape)
        for ax in range(grid.dim):
            d = np.abs(c - center[ax])
            d = np.minimum(d, grid.side - d)
            acc = acc + (d.reshape([-1 if a == ax else 1 for a in range(grid.dim)])) ** 2
        return np.sqrt(acc)
    theta = grid.colatitudes()[:, None]
    phi = grid.longitudes()[None, :]
    ct, st = math.cos(center[0]), math.sin(center[0])
    cosd = ct * np.cos(theta) + st * np.sin(theta) * np.cos(phi - center[1])
    return np.arccos(np.clip(cosd, -1.0, 1.0))


def domain_distance_extrema(dec: NodalDecomposition, center) -> tuple[np.ndarray, np.ndarray]:
    """Per-domain (min, max) node distance from `center`."""
    key = tuple(round(float(c), 12) for c in center)
    hit = dec._extrema_cache.get(key)
    if hit is not None:
        return hit
    dist = _node_distances(dec.sample.grid, center).ravel()
    k = len(dec.domains)
    dmin = np.full(k, np.inf)
    dmax = np.zeros(k)
    flat = dec.labels.ravel()
    np.minimum.at(dmin, flat, dist)
    np.maximum.at(dmax, flat, dist)
    dec._extrema_cache[key] = (dmin, dmax)
    return dmin, dmax


def restrict_counts(
    dec: NodalDecomposition, center, R: float, t: float
) -> tuple[int, int]:
    """(N, N*) domain counts with area <= t: fully inside the open ball
    B(center, R), and intersecting the closed ball.  Node membership decides
    both.  Planar balls must sit inside the window; torus distances use the
    minimal image, so any radius is legal and large ones saturate.
    """
    grid = dec.sample.grid
    if isinstance(grid, LatLongSphere):
        raise ValueError("ball restriction is defined for planar and torus grids")
    if R <= 0:
        raise ValueError("ball radius must be positive")
    if isinstance(grid, PlanarWindow):
        for c in center:
            if c - R < -1e-9 or c + R > grid.side + 1e-9:
                raise ValueError(
                    f"ball of radius {R} at {tuple(center)} is not contained in the window"
                )
    dmin, dmax = domain_distance_extrema(dec, center)
    areas = dec.areas()
    ok = areas <= t
    n_full = int(np.sum(ok & (dmax < R)))
    n_meet = int(np.sum(ok & (dmin <= R)))
    return n_full, n_meet


def nesting_graph(dec: NodalDecomposition) -> NestingGraph:
    """Adjacency of domains across traced contours (planar windows only)."""
    if not isinstance(dec.sample.grid, PlanarWindow):
        raise ValueError("nesting graph is defined for planar windows")
    measure_domains(dec)
    edges = set()
    for plus, minus in dec.contour_adjacency:
        for p in plus:
            for m in minus:
                edges.add((p, m) if p < m else (m, p))
    edge_list = sorted(edges)
    k = len(dec.domains)
    degrees = np.zeros(k, dtype=np.int64)
    for a, b in edge_list:
        degrees[a] += 1
        degrees[b] += 1
    interior = not any(d.touches_window for d in dec.domains)
    return NestingGraph(
        labels=np.arange(k), edges=edge_list, degrees=degrees, interior=interior
    )


def nesting_is_forest(dec: NodalDecomposition) -> bool:
    """True when the nesting edges among interior domains contain no cycle."""
    graph = nesting_graph(dec)
    interior = [not d.touches_window for d in dec.domains]
    edges = np.array(
        [(a, b) for a, b in graph.edges if interior[a] and interior[b]], dtype=np.int64
    ).reshape(-1, 2)
    # a simple graph is a forest exactly when #edges == #nodes - #components
    k = len(dec.domains)
    n_components = int(_components(k, edges[:, 0], edges[:, 1]).max()) + 1
    return edges.shape[0] == k - n_components


def _combine_coeffs(c1: dict | None, c2: dict | None, b: float) -> dict | None:
    if c1 is None or c2 is None:
        return None
    out = dict(c1)
    for key in ("a", "b", "z"):
        if key in c1 and isinstance(c1[key], np.ndarray):
            out[key] = c1[key] + b * c2[key]
    return out


def perturbation_stability(
    base: NodalDecomposition, direction: FieldSample, b: float
) -> list[tuple[int, int, float, float]]:
    """Match interior domains of F (the decomposition `base`) against those
    of F + b*G.

    Matching is by maximal node overlap, ties to the smaller perturbed label.
    Returns (label, matched_label, |area change|, perimeter) per interior
    domain of F, with the area change measured on the refined (sub-cell)
    estimator so that changes below one cell are visible.
    """
    if b < 0:
        raise ValueError("perturbation size must be >= 0")
    sample = base.sample
    if direction.grid != sample.grid or direction.model != sample.model:
        raise ValueError("perturbation direction must share the sample's model and grid")
    measure_domains(base)
    pert_sample = FieldSample(
        values=sample.values + b * direction.values,
        grid=sample.grid,
        model=sample.model,
        stream=None,
        coeffs=_combine_coeffs(sample.coeffs, direction.coeffs, b),
    )
    pert = measure_domains(label_domains(pert_sample))

    k2 = len(pert.domains)
    pairs = base.labels.ravel().astype(np.int64) * k2 + pert.labels.ravel()
    uniq, counts = np.unique(pairs, return_counts=True)
    b_lab = uniq // k2
    p_lab = uniq % k2
    order = np.lexsort((p_lab, -counts, b_lab))
    best: dict[int, int] = {}
    for pos_i in order.tolist():
        bl = int(b_lab[pos_i])
        if bl not in best:
            best[bl] = int(p_lab[pos_i])

    out = []
    for rec in base.domains:
        if rec.touches_window:
            continue
        match = best[rec.label]
        delta = abs(rec.refined_area - pert.domains[match].refined_area)
        out.append((rec.label, match, delta, rec.perimeter))
    return out


def critical_cell_count(sample: FieldSample, center=None, radius: float | None = None) -> int:
    """Cells of the dual grid where both discrete gradient components change
    sign -- a grid proxy for critical points, used as an upper-bound density
    for domain counts."""
    grid = sample.grid
    v = sample.values
    if isinstance(grid, PlanarWindow):
        sgx = np.diff(v, axis=0) >= 0
        sgy = np.diff(v, axis=1) >= 0
        crit = (sgx[:, :-1] != sgx[:, 1:]) & (sgy[:-1, :] != sgy[1:, :])
        if radius is not None:
            h = grid.spacing
            n = crit.shape[0]
            cc = (np.arange(n) + 0.5) * h
            xx, yy = np.meshgrid(cc, cc, indexing="ij")
            crit = crit & (np.hypot(xx - center[0], yy - center[1]) <= radius)
        return int(np.sum(crit))
    if isinstance(grid, Torus) and grid.dim == 2:
        sgx = (np.roll(v, -1, axis=0) - v) >= 0
        sgy = (np.roll(v, -1, axis=1) - v) >= 0
        crit = (sgx != np.roll(sgx, -1, axis=1)) & (sgy != np.roll(sgy, -1, axis=0))
        if radius is not None:
            h = grid.spacing
            cc = (np.arange(crit.shape[0]) + 1.0) * h
            acc = np.zeros(crit.shape)
            for ax, c0 in enumerate(center):
                d = np.abs(cc - c0)
                d = np.minimum(d, grid.side - d)
                acc = acc + d.reshape([-1 if a == ax else 1 for a in range(2)]) ** 2
            crit = crit & (np.sqrt(acc) <= radius)
        return int(np.sum(crit))
    raise ValueError("critical cell counting is defined for planar and 2-D torus grids")
