"""Nodal domain decomposition and geometry on sampled grids.

A decomposition labels every grid node with its connected sign component
(4-connectivity, 6 in three dimensions; value exactly 0 counts as positive)
and then measures each domain.  One connected-components routine,
`_components`, finds both the domains and the crossing contours (over the
crossing points each segment joins).  Domains are the components of
same-sign runs, the stretches of one sign along the last axis, joined where
they touch on another axis.  On a 160^3 torus the run graph has about a
seventh of the nodes and a tenth of the same-sign node pairs.  Each domain's
smallest node starts a run, so the labels keep the order of the domains'
smallest nodes.
The measures:

* area: member-node count times cell volume (exact per-cell solid angles on
  the sphere), the primary estimator;
* refined_area: the area of the piecewise-linear interpolant's sign region,
  accumulated cell by cell from the marching-squares clipping -- used where
  sub-cell sensitivity matters (perturbation matching, where the perturbed
  field is labelled and gets refined areas only, from `_refined_areas`);
* perimeter: total marching-squares segment length adjacent to the domain,
  with linear interpolation of edge crossings;
* boundary_components: number of connected crossing contours touching the
  domain, traced through shared cell-edge crossing points and counted as the
  distinct (contour, label) pairs of the segments beside it.

Marching squares measures only the crossing cells (corners of both signs);
a uniform cell adds its area to its corners' label.  A crossing cell falls
in one of 32 classes, its corner-sign pattern plus 16 when the field is
non-negative at its center.  One set of read-only class tables gives each
class its segments, the corners on each side and the slots of its area
shares, and two marching paths read it.  At `_TABLE_MIN_CELLS` crossing
cells and above, `_march_table` measures all of them with a few numpy
passes; below it, `_march_loop` visits them one by one through the tables'
Python rows, because every numpy step has a fixed cost of some microseconds
that a small field (a 4x4 window has at most 9 crossing cells) cannot
repay.  The two give the same numbers, bit for bit.

The ambiguous saddle cell (equal diagonal signs) is resolved by the sign of
the field at the cell center when the sample carries spectral coefficients
(every sampled field does, also one reloaded from a container), and by
connecting the positive corners on a synthetic field.  Note the node
labeling is sign-symmetric 4-connected and therefore splits BOTH diagonals
of a saddle; the traced contour can join two node-labeled domains of the
saddle's connected sign.  Segment lengths and cell areas are then attributed
to every adjacent label, which keeps totals conserved.

Ball restriction (N and N*) uses node membership: a domain lies in B(u, r)
iff all its nodes do (strict inequality), and meets the closed ball iff some
node is within r.  Tori measure distance through the minimal image.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grids import GridSpec, LatLongSphere, PlanarWindow, Torus
from .sampler import FieldSample, evaluate_at

__all__ = [
    "DomainRecord",
    "NodalDecomposition",
    "label_domains",
    "measure_domains",
    "restrict_counts",
    "domain_distance_extrema",
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
    measured: bool = False
    total_nodal_length: float | None = None
    _extrema_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def areas(self) -> np.ndarray:
        return np.array([d.area for d in self.domains])


def synthetic_sample(values, grid: GridSpec) -> FieldSample:
    """Wrap a raw value array as a sample (no model, no off-grid evaluation)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    return FieldSample(values=values, grid=grid, model=None, stream=None, coeffs=None)


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

    The components are found over runs, the maximal stretches of one sign
    along the last axis (Wu, Otoo & Suzuki, Pattern Anal. Appl. 12, 2009),
    numbered in row-major order of their first nodes.  A neighbour pair on
    another axis joins the runs of its two nodes; where neither node starts a
    run, it joins the same two runs as the pair before it on the last axis,
    so only pairs with a run start become edges.  The smallest node of a
    domain starts a run, so numbering domains by their smallest run keeps
    the row-major order of their smallest nodes.
    """
    grid = sample.grid
    v = np.asarray(sample.values)
    if v.shape != grid.shape:
        raise ValueError(f"values shape {v.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field values must be finite")
    pos = v >= 0
    start = np.ones(v.shape, dtype=bool)
    np.not_equal(pos[..., 1:], pos[..., :-1], out=start[..., 1:])
    run = start.cumsum().reshape(v.shape)
    run -= 1
    wraps = grid.wraps
    us, vs = [], []
    if wraps[-1]:
        same = pos[..., -1] == pos[..., 0]
        us.append(run[..., -1][same])
        vs.append(run[..., 0][same])
    for ax in range(v.ndim - 1):
        pairs = [(slice(None, -1), slice(1, None))]
        if wraps[ax]:
            pairs.append((-1, 0))
        for lo, hi in pairs:
            lo = (slice(None),) * ax + (lo,)
            hi = (slice(None),) * ax + (hi,)
            edge = (pos[lo] == pos[hi]) & (start[lo] | start[hi])
            us.append(run[lo][edge])
            vs.append(run[hi][edge])
    runs = int(run.flat[-1]) + 1
    domain = _components(runs, np.concatenate(us), np.concatenate(vs)).astype(np.int32)
    labels = domain[run]
    domains = _count_records(sample, labels, domain, pos[start])
    return NodalDecomposition(sample=sample, labels=labels, domains=domains)


def _count_records(
    sample: FieldSample, labels: np.ndarray, run_domain: np.ndarray, run_positive: np.ndarray
) -> list[DomainRecord]:
    grid = sample.grid
    flat = labels.ravel()
    counts = np.bincount(flat)
    k = counts.shape[0]
    # every node of a domain carries the sign of its runs
    positive = np.empty(k, dtype=bool)
    positive[run_domain] = run_positive
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
        cu = (np.arange(n) + (0.5 if isinstance(grid, PlanarWindow) else 1.0)) * h
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


# Marching squares runs the per-cell loop below this many crossing cells and
# the class-table pass at or above it: each numpy step of the table pass has a
# fixed cost of a few microseconds, which a handful of cells cannot repay.
# The two took equal time at 200-300 crossing cells on a 2-core Xeon VM.
_TABLE_MIN_CELLS = 256


class _Cells(NamedTuple):
    """The crossing cells of a 2-D decomposition, in row-major cell order.

    The rows of `values` and `labels` are corners A, B, C, D and the rows of
    `edges` the edges AB, BC, CD, DA; an edge id names the crossing point on
    that edge and is shared with the neighbouring cell.  Cells without a
    crossing only add their area to the label of their corners, listed in
    `uniform_labels` and `uniform_areas`.  Edge ids lie below `n_edges`.
    """

    k: int
    n_edges: int
    uniform_labels: np.ndarray
    uniform_areas: np.ndarray
    pattern: np.ndarray  # corner sign bits A=1, B=2, C=4, D=8
    saddle: np.ndarray
    center_pos: np.ndarray
    values: np.ndarray  # (4, n) corner values
    labels: np.ndarray  # (4, n) corner labels
    edges: np.ndarray  # (4, n) edge ids
    d0: np.ndarray
    d1: np.ndarray
    area: np.ndarray


class _Geometry(NamedTuple):
    """Per-label lists (Python floats and ints) and the total crossing length."""

    perimeter: list
    refined_area: list
    boundary_components: list
    total_length: float


def measure_domains(dec: NodalDecomposition) -> NodalDecomposition:
    """Complete the decomposition's geometry: perimeters, refined areas,
    boundary components and the total crossing length.

    Idempotent; returns the same decomposition object.
    """
    if dec.measured:
        return dec
    if dec.labels.ndim == 3:
        _measure_faces_3d(dec)
        dec.measured = True
        return dec
    cells = _crossing_cells(dec)
    march = _march_table if cells.pattern.shape[0] >= _TABLE_MIN_CELLS else _march_loop
    geometry = march(cells)
    for rec in dec.domains:
        rec.perimeter = geometry.perimeter[rec.label]
        rec.boundary_components = geometry.boundary_components[rec.label]
        rec.refined_area = geometry.refined_area[rec.label]
    dec.total_nodal_length = geometry.total_length
    dec.measured = True
    return dec


# node offsets of corners A, B, C, D from a cell's first node, and the
# corner and axis (0 for +i, 1 for +j) of edges AB, BC, CD, DA
_CORNER_DI = np.array([[0], [1], [1], [0]])
_CORNER_DJ = np.array([[0], [0], [1], [1]])
_EDGE_START = np.array([0, 1, 3, 0])
_EDGE_AXIS = np.array([[0], [1], [0], [1]])


def _wrap_extended(a: np.ndarray, wraps) -> np.ndarray:
    """A 2-D node array with its first row/column repeated past each wrapped
    edge, so every cell's corners lie in it."""
    if wraps[0]:
        a = np.concatenate([a, a[:1]], axis=0)
    if wraps[1]:
        a = np.concatenate([a, a[:, :1]], axis=1)
    return a


def _crossing_cells(dec: NodalDecomposition) -> _Cells:
    grid = dec.sample.grid
    values = np.asarray(dec.sample.values, dtype=np.float64)
    n0, n1 = dec.labels.shape
    d0_row, d1_row, area_row, cu, cv = _cell_tables(grid)
    rows, cols = area_row.size, cv.size
    # the corners of every cell are four shifted slices of the node signs
    pos = _wrap_extended(values >= 0, grid.wraps)
    pattern = (
        pos[:rows, :cols] * 1
        + pos[1 : rows + 1, :cols] * 2
        + pos[1 : rows + 1, 1 : cols + 1] * 4
        + pos[:rows, 1 : cols + 1] * 8
    ).ravel()
    crossing = (pattern != 0) & (pattern != 15)
    uniform = ~crossing

    cidx = np.nonzero(crossing)[0]
    ci, cj = np.divmod(cidx, cols)
    pattern = pattern[cidx]
    # corner node indices; a node index is also the id of the edge to its
    # +i neighbour, and n0 * n1 plus it the id of the edge to its +j one
    corners = ((ci + _CORNER_DI) % n0) * n1 + (cj + _CORNER_DJ) % n1
    edges = corners[_EDGE_START] + _EDGE_AXIS * (n0 * n1)
    # saddle resolution: field sign at the cell center when evaluable
    center_pos = np.ones(cidx.shape[0], dtype=bool)
    saddle = (pattern == 5) | (pattern == 10)
    if np.any(saddle) and dec.sample.coeffs is not None:
        centers = np.stack([cu[ci[saddle]], cv[cj[saddle]]], axis=1)
        center_pos[saddle] = evaluate_at(dec.sample, centers) >= 0

    return _Cells(
        k=len(dec.domains),
        n_edges=2 * n0 * n1,
        uniform_labels=dec.labels[:rows, :cols].ravel()[uniform],
        uniform_areas=np.repeat(area_row, cols)[uniform],
        pattern=pattern,
        saddle=saddle,
        center_pos=center_pos,
        values=values.ravel()[corners],
        labels=dec.labels.ravel()[corners],
        edges=edges,
        d0=d0_row[ci],
        d1=d1_row[ci],
        area=area_row[ci],
    )


def _label_sums(labels: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Per-label sums of `weights`, each label's added in input order (float
    zeros also for empty input, where bincount alone gives integers)."""
    return np.bincount(labels, weights=weights, minlength=k).astype(np.float64, copy=False)


def _segment_contours(ends: np.ndarray, n_edges: int) -> np.ndarray:
    """Contour of each segment, given its two crossing-point edge ids (below
    `n_edges`) in `ends[2s]`, `ends[2s + 1]`: the components of the segments
    over their crossing points, numbered by smallest edge id."""
    # crossing points numbered in edge-id order, without sorting the ids
    seen = np.zeros(n_edges, dtype=bool)
    seen[ends] = True
    number = seen.cumsum()
    number -= 1
    point = number[ends]
    contour = _components(int(number[-1]) + 1, point[0::2], point[1::2])
    return contour[point[0::2]]


def _march_loop(cells: _Cells) -> _Geometry:
    """Marching squares one crossing cell at a time.  A cell's row of
    `_CLASS_ROWS` says what to measure; the loop evaluates the table pass's
    expressions and adds them up in its order."""
    k = cells.k
    perimeter = [0.0] * k
    ref = _label_sums(cells.uniform_labels, cells.uniform_areas, k).tolist()
    total_len = 0.0
    # per segment: its two crossing-point edge ids and the labels beside it
    ends: list[int] = []
    beside: list[tuple[int, ...]] = []
    hypot = math.hypot
    columns = (cells.pattern, cells.center_pos, cells.values.T, cells.labels.T, cells.edges.T,
               cells.d0, cells.d1, cells.area)
    for pattern, center_pos, x, lab, edge_id, d0, d1, ca in zip(*(c.tolist() for c in columns)):
        live, crossing, (o1, o2, _, _), cols = _CLASS_ROWS[pattern + 16 * center_pos]
        t = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]  # t, then 1 - t, on AB, BC, CD, DA
        for e, p, q in crossing:
            te = t[e] = x[p] / (x[p] - x[q])
            t[e + 4] = 1.0 - te
        u = (t[0], 1.0, t[2], 0.0)  # the crossing points; A = (0, 0), C = (1, 1)
        v = (0.0, t[1], 1.0, t[3])
        for e1, e2, c1, c2, c3 in live:
            seg_len = hypot((u[e2] - u[e1]) * d0, (v[e2] - v[e1]) * d1)
            total_len += seg_len
            one, other, other2 = lab[c1], lab[c2], lab[c3]
            perimeter[one] += seg_len
            perimeter[other] += seg_len
            if other == other2:
                channel = (other,)
            else:
                perimeter[other2] += seg_len
                channel = (other, other2)
            ends += (edge_id[e1], edge_id[e2])
            beside.append((one, *channel))
        f = _fraction(cols[0], t)
        ref[lab[o1]] += f * ca
        if len(live) == 1:
            ref[lab[o2]] += (1.0 - f) * ca
            continue
        # a saddle: two corner cuts, and the labels of its one channel share the rest
        g = _fraction(cols[1], t)
        ref[lab[o2]] += g * ca
        share = (1.0 - (f + g)) * ca / len(channel)
        for label in channel:
            ref[label] += share

    contour = _segment_contours(np.array(ends, dtype=np.int64), cells.n_edges)
    # each distinct (contour, label) pair is one boundary component of the label
    boundary = [0] * k
    for _, lab_i in {(c, lab_i) for c, labs in zip(contour.tolist(), beside) for lab_i in labs}:
        boundary[lab_i] += 1
    return _Geometry(
        perimeter=perimeter, refined_area=ref, boundary_components=boundary, total_length=total_len
    )


def _class_tables():
    """Read-only tables of the 32 crossing classes, pattern + 16 * (center >= 0).

    Returns (segment edges, segment sides, area corners, fraction rows).  A
    cell has up to two segments; each segment lists its two edges and three
    corners: its `one` side, then one or two corners of the other side
    (repeated when one).  A single-segment class repeats its segment in the
    unused second slot, so no slot reads an edge without a crossing.  A
    cell's four refined-area slots name the corner whose label takes each
    share, and its two fraction rows index the per-cell fractions of
    `_march_table`: the corner cuts A, B, C, D (0-3), the AB|CD and BC|DA
    splits (4, 5), and 6 plus any of these for its complement.  Saddles
    (5, 10) cut off the two corners whose sign differs from the center's, and
    the channel of the other two takes the rest of the cell.  Classes 0, 15,
    16 and 31 never cross.  These tables are the one description of the
    classes; `_march_loop` reads them as Python rows.
    """
    a, b, c, d = range(4)
    ab, bc, cd, da = range(4)
    cut = {a: (da, ab), b: (ab, bc), c: (bc, cd), d: (cd, da)}
    # a pattern and its complement: edges, one, other, fraction
    single = {
        (1, 14): (cut[a], a, b, a),
        (2, 13): (cut[b], b, a, b),
        (4, 11): (cut[c], c, a, c),
        (8, 7): (cut[d], d, a, d),
        (9, 6): ((ab, cd), a, b, 4),
        (3, 12): ((bc, da), a, d, 5),
    }
    seg_edges = np.zeros((32, 2, 2), dtype=np.intp)
    seg_sides = np.zeros((32, 2, 3), dtype=np.intp)
    area_corners = np.zeros((32, 4), dtype=np.intp)
    frac_cols = np.zeros((32, 2), dtype=np.intp)
    for center in (0, 16):
        for pair, (edges, one, other, col) in single.items():
            for p in pair:
                cls = p + center
                seg_edges[cls] = edges
                seg_sides[cls] = (one, other, other)
                area_corners[cls] = (one, other, other, other)
                frac_cols[cls] = (col, 6 + col)
        for p in (5, 10):
            cls = p + center
            iso, channel = ((b, d), (a, c)) if (p == 5) == bool(center) else ((a, c), (b, d))
            for s, corner in enumerate(iso):
                seg_edges[cls, s] = cut[corner]
                seg_sides[cls, s] = (corner, *channel)
            area_corners[cls] = (*iso, *channel)
            frac_cols[cls] = iso
    tables = (seg_edges, seg_sides, area_corners, frac_cols)
    for table in tables:
        table.setflags(write=False)
    return tables


_SEG_EDGES, _SEG_SIDES, _AREA_CORNERS, _FRAC_COLS = _class_tables()
# corner-cut fractions (0.5 * x) * y of corners A, B, C, D, as rows of
# [t_ab, t_bc, t_cd, t_da, 1 - t_ab, 1 - t_bc, 1 - t_cd, 1 - t_da]
_CORNER_X = [0, 4, 5, 2]
_CORNER_Y = [3, 1, 6, 7]
# corners (p, q) of edges AB, BC, CD, DA; a crossing lies at x[p] / (x[p] - x[q])
_EDGE_ENDS = ((0, 1), (1, 2), (3, 2), (0, 3))


def _class_rows():
    """The class tables as one Python row per class, for `_march_loop`:
    (live segments as (e1, e2, one, other, other), crossing edges as
    (edge, p, q), area-owner corners, fraction columns)."""
    for edges, sides, owners, cols in zip(*(t.tolist() for t in _class_tables())):
        # a single-segment class repeats its segment in the second slot
        live = tuple((*e, *s) for e, s in zip(edges, sides))[: 1 + (edges[1] != edges[0])]
        crossing = tuple((e, *_EDGE_ENDS[e]) for seg in live for e in seg[:2])
        yield live, crossing, tuple(owners), tuple(cols)


_CLASS_ROWS = tuple(_class_rows())


def _fraction(col: int, t: list) -> float:
    """Fraction column `col` < 6 of `_class_tables` for one cell, by the
    table pass's expressions, from its edge crossings t and 1 - t."""
    if col >= 4:  # the AB|CD or BC|DA split
        return 0.5 * (t[col - 4] + t[col - 2])
    return (0.5 * t[_CORNER_X[col]]) * t[_CORNER_Y[col]]


def _pick(rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """out[i, s] = rows[slots[i, s], i] for per-cell rows of shape (m, n)."""
    n = rows.shape[1]
    return rows.ravel()[slots * n + np.arange(n)[:, None]]


def _edge_crossings(values: np.ndarray) -> np.ndarray:
    """Crossing fractions t of the edges AB, BC, CD, DA from the (4, n)
    corner values, as (4, n) rows; inf or nan on edges without a crossing."""
    a, b, c, d = values
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([a / (a - b), b / (b - c), d / (d - c), a / (a - d)])


def _refined_areas(cells: _Cells, t: np.ndarray) -> np.ndarray:
    """Per-label refined areas of a decomposition, from its crossing cells
    and their edge crossings t: each uniform cell's area goes to its label,
    and each crossing cell's area is split as its class's area slots say.
    The numbers of `_march_loop`, bit for bit, at any number of cells."""
    n = cells.pattern.shape[0]
    cls = cells.pattern + 16 * cells.center_pos
    saddle = cells.saddle
    with np.errstate(invalid="ignore"):  # edges without a crossing
        tt = np.concatenate([t, 1.0 - t])
        frac = np.concatenate([(0.5 * tt[_CORNER_X]) * tt[_CORNER_Y], 0.5 * (t[:2] + t[2:])])
        frac = np.concatenate([frac, 1.0 - frac])
    f = _pick(frac, _FRAC_COLS[cls])
    ca = cells.area
    rest = (1.0 - (f[:, 0] + f[:, 1])) * ca
    owner = _pick(cells.labels, _AREA_CORNERS[cls])
    shared = owner[:, 2] == owner[:, 3]
    half = 0.5 * rest
    share = np.column_stack([f * ca[:, None], np.where(shared, rest, half), half])
    every = np.ones(n, dtype=bool)
    gets = np.stack([every, every, saddle, saddle & ~shared], axis=1)
    return _label_sums(
        np.concatenate([cells.uniform_labels, owner[gets]]),
        np.concatenate([cells.uniform_areas, share[gets]]),
        cells.k,
    )


def _march_table(cells: _Cells) -> _Geometry:
    """Marching squares over all crossing cells at once, by crossing class.

    The same numbers as `_march_loop`, bit for bit: every value is computed
    by the loop's expression, and each bincount adds a label's
    contributions in the loop's order (cell by cell, then slot by slot).
    """
    n, k = cells.pattern.shape[0], cells.k
    cls = cells.pattern + 16 * cells.center_pos
    saddle = cells.saddle
    t = _edge_crossings(cells.values)
    # crossing point of each edge AB, BC, CD, DA; A = (0, 0), C = (1, 1)
    zero, one = np.zeros(n), np.ones(n)
    u = np.stack([t[0], one, t[2], zero])
    v = np.stack([zero, t[1], one, t[3]])

    live = np.stack([np.ones(n, dtype=bool), saddle], axis=1)
    edges = _SEG_EDGES[cls].reshape(n, 4)
    e1, e2 = edges[:, 0::2], edges[:, 1::2]
    du = (_pick(u, e2) - _pick(u, e1)) * cells.d0[:, None]
    dv = (_pick(v, e2) - _pick(v, e1)) * cells.d1[:, None]
    lengths = np.array(list(map(math.hypot, du[live].tolist(), dv[live].tolist())))
    seg_len = np.zeros((n, 2))
    seg_len[live] = lengths

    sides = _pick(cells.labels, _SEG_SIDES[cls].reshape(n, 6)).reshape(n, 2, 3)
    # a channel of one label is adjacent once
    touch = np.stack([live, live, live & (sides[:, :, 2] != sides[:, :, 1])], axis=2)
    adjacent = sides[touch]
    perimeter = _label_sums(adjacent, np.broadcast_to(seg_len[:, :, None], sides.shape)[touch], k)
    refined = _refined_areas(cells, t)

    ends = _pick(cells.edges, edges).reshape(n, 2, 2)[live].ravel()
    by_segment = np.zeros((n, 2), dtype=np.int64)
    by_segment[live] = _segment_contours(ends, cells.n_edges)
    segment_contour = np.broadcast_to(by_segment[:, :, None], sides.shape)[touch]
    # each distinct (contour, label) pair is one boundary component of the label
    pairs = np.unique(segment_contour * k + adjacent)
    return _Geometry(
        perimeter=perimeter.tolist(),
        refined_area=refined.tolist(),
        boundary_components=np.bincount(pairs % k, minlength=k).tolist(),
        total_length=float(np.cumsum(np.concatenate([[0.0], lengths]))[-1]),
    )


def _measure_faces_3d(dec: NodalDecomposition) -> None:
    """3-D tori: boundary surface by face counting (marching squares is
    2-D only).  Each sign-changing lattice face contributes h^2 to both
    adjacent domains; contour tracing is not attempted.

    Face counting measures |nu_1| + |nu_2| + |nu_3| per unit area of a
    surface with unit normal nu, so on an isotropic field it overstates the
    surface area by the Crofton factor 3/2: its expected density is
    (3/2) (2/pi) sqrt(lam/3) for mean squared frequency lam, against the
    Kac-Rice area density (2/pi) sqrt(lam/3)."""
    grid = dec.sample.grid
    h2 = grid.spacing**2
    pos = dec.sample.values >= 0
    labs = dec.labels.ravel()
    k = len(dec.domains)
    perimeter = np.zeros(k)
    nfaces = 0
    for ax in range(3):
        face = np.flatnonzero(pos != np.roll(pos, -1, axis=ax))
        nfaces += face.shape[0]
        # the node after each face on axis `ax`, wrapping at the last index
        n = pos.shape[ax]
        stride = math.prod(pos.shape[ax + 1 :])
        after = face + stride
        after[face // stride % n == n - 1] -= n * stride
        perimeter += np.bincount(labs[face], minlength=k) * h2
        perimeter += np.bincount(labs[after], minlength=k) * h2
    for rec in dec.domains:
        rec.perimeter = float(perimeter[rec.label])
        rec.boundary_components = 0
        rec.refined_area = rec.area
    dec.total_nodal_length = nfaces * h2


def domain_distance_extrema(dec: NodalDecomposition, center) -> tuple[np.ndarray, np.ndarray]:
    """Per-domain (min, max) node distance from `center`."""
    key = tuple(round(float(c), 12) for c in center)
    hit = dec._extrema_cache.get(key)
    if hit is not None:
        return hit
    dist = dec.sample.grid.node_distances(center).ravel()
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
        grid.require_ball(center, R, f"ball of radius {R} at {tuple(center)}")
    dmin, dmax = domain_distance_extrema(dec, center)
    areas = dec.areas()
    ok = areas <= t
    n_full = int(np.sum(ok & (dmax < R)))
    n_meet = int(np.sum(ok & (dmin <= R)))
    return n_full, n_meet


def perturbation_stability(
    base: NodalDecomposition, direction: FieldSample, b: float
) -> list[tuple[int, int, float, float]]:
    """Match interior domains of F (the decomposition `base`) against those
    of F + b*G.

    Matching is by maximal node overlap, ties to the smaller perturbed label.
    Returns (label, matched_label, |area change|, perimeter) per interior
    domain of F, with the area change measured on the refined (sub-cell)
    estimator so that changes below one cell are visible.  F + b*G is
    labelled and gets its refined areas only (on a 3-D torus, where face
    counting sets refined_area = area, its count areas), not a full
    measure_domains: the check reads nothing else of it.
    """
    if b < 0:
        raise ValueError("perturbation size must be >= 0")
    sample = base.sample
    if direction.grid != sample.grid or direction.model != sample.model:
        raise ValueError("perturbation direction must share the sample's model and grid")
    measure_domains(base)
    coeffs = None
    if sample.coeffs is not None and direction.coeffs is not None:
        coeffs = {key: c + b * direction.coeffs[key] for key, c in sample.coeffs.items()}
    pert_sample = FieldSample(
        values=sample.values + b * direction.values,
        grid=sample.grid,
        model=sample.model,
        stream=None,
        coeffs=coeffs,
    )
    pert = label_domains(pert_sample)
    if pert.labels.ndim == 3:  # face counting: the refined area is the count area
        pert_areas = [rec.area for rec in pert.domains]
    else:
        cells = _crossing_cells(pert)
        pert_areas = _refined_areas(cells, _edge_crossings(cells.values)).tolist()

    k2 = len(pert.domains)
    pairs = base.labels.ravel().astype(np.int64) * k2 + pert.labels.ravel()
    uniq, counts = np.unique(pairs, return_counts=True)
    b_lab = uniq // k2
    p_lab = uniq % k2
    order = np.lexsort((p_lab, -counts, b_lab))
    # every base label has a node, so the first row of each base label in
    # this order is its match, and the i-th such row belongs to label i
    first = np.r_[True, b_lab[order[1:]] != b_lab[order[:-1]]]
    best = p_lab[order[first]].tolist()

    out = []
    for rec in base.domains:
        if rec.touches_window:
            continue
        match = best[rec.label]
        delta = abs(rec.refined_area - pert_areas[match])
        out.append((rec.label, match, delta, rec.perimeter))
    return out


def critical_cell_count(sample: FieldSample, center=None, radius: float | None = None) -> int:
    """Cells of the dual grid where both discrete gradient components change
    sign -- a grid proxy for critical points, used as an upper-bound density
    for domain counts; with a radius, only cells centered within it of
    `center` count (default the grid's center; minimal image on a torus)."""
    grid = sample.grid
    if not isinstance(grid, (PlanarWindow, Torus)) or grid.dim != 2:
        raise ValueError("critical cell counting is defined for planar and 2-D torus grids")
    v = _wrap_extended(sample.values, grid.wraps)
    sgx = np.diff(v, axis=0) >= 0
    sgy = np.diff(v, axis=1) >= 0
    crit = (sgx[:, :-1] != sgx[:, 1:]) & (sgy[:-1, :] != sgy[1:, :])
    if radius is not None:  # the dual cells are the marching cells
        _, _, _, cu, cv = _cell_tables(grid)
        center = grid.center if center is None else center
        crit &= grid.node_distances(center, (cu, cv)) <= radius
    return int(np.sum(crit))
