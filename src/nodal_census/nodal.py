"""Nodal domain decomposition and geometry on sampled grids.

A decomposition labels every grid node with its connected sign component
(4-connectivity, 6 in three dimensions; value exactly 0 counts as positive)
and then measures each domain.  One connected-components routine,
`_components`, finds both the domains and the crossing contours (over the
crossing points each segment joins); it takes each edge as its (larger,
smaller) node pair and, after one hook round, recurses on the graph of the
round's roots.  Domains are the components of
same-sign runs, the stretches of one sign along the last axis, joined where
they touch on another axis.  On a 160^3 torus the run graph has about a
seventh of the nodes and a tenth of the same-sign node pairs.  Each domain's
smallest node starts a run, so the labels keep the order of the domains'
smallest nodes.  A domain's node count and sign come from its runs too: the
sum of their lengths and the sign of any one of them.
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
non-negative at its center.  One set of read-only class tables, one row
per segment slot, gives each class its segments, the corners on each side,
the fraction each segment cuts off and the corners that take the area
shares, and two marching paths read it.  The sign pattern of every cell
and the saddle resolution (one `evaluate_at` call on all saddle centers,
whose radial factors the samplers gather from their cell-center tables)
are found once for the whole field, by `_cell_signs`, and every caller of
the cell builders (`measure_domains`, and the refined-area pass of
`perturbation_stability`) hands them in.  At `_TABLE_MIN_CELLS` crossing
cells and above, `_march_table` takes the cells in bands of whole cell rows of
about `_BAND_CELLS` cells, so every per-cell and per-segment temporary has
the size of one band.  It expands a band's crossing cells into segment
rows (two for a saddle, one for any other crossing cell), in cell order,
and measures all rows with a few numpy passes that gather each row's table
entries and corner data.  A band adds its uniform cells' areas and its
segments' lengths to the per-label sums, in order, and keeps its segments'
area shares, adjacent labels and crossing points for one fold at the end:
the shares follow every uniform cell, and the contours join across bands.
No temporary of the bands has the size of the grid's edge ids: a band's
uniform cells are its label image with a spare label on the crossing
cells, and the crossing points are numbered band by band, each band in
the window of edge ids of its own node rows (see `_segment_contours`).
Below `_TABLE_MIN_CELLS`, `_march_loop` visits the cells one by one
through the tables' Python rows, because every numpy step has a fixed cost
of some microseconds that a small field (a 4x4 window has at most 9
crossing cells) cannot repay.  The two give the same numbers, bit for bit,
at any band size.  The
loop takes each segment length from `math.hypot`; the table pass from
`_hypot`, a numpy replica of CPython's algorithm for two coordinates
(Dekker's exact products, a compensated sum and one correction step) that
matched `math.hypot` bit for bit under CPython 3.10, 3.11, 3.12 and 3.13.

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
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .grids import GridSpec, LatLongSphere, PlanarWindow, Torus
from .sampler import FieldSample, evaluate_at

__all__ = [
    "DomainRecord",
    "NodalDecomposition",
    "label_domains",
    "measure_domains",
    "domain_max_distance",
    "perturbation_stability",
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


def _components(n: int, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Connected components of the graph on nodes 0..n-1 with edges
    (hi, lo), where every `hi` is at least its `lo`.

    Labels 0..K-1 number the components in order of their smallest node.
    One hook and pointer jump round (Shiloach & Vishkin, J. Algorithms 3,
    1982): each node hooks to the smallest of its smaller neighbours, and
    pointer jumping flattens the trees.  A parent is never larger than its
    child, so each root is the smallest node of its tree, and the smallest
    node of a component is a root.  The roots are numbered in order, by a
    scatter over the roots (a `cumsum` over all nodes took three times as
    long), and each edge becomes the edge between its ends' root numbers,
    which joins the same components.  If any edge still joins two roots,
    the graph of roots is labelled the same way and its labels composed
    with the roots' numbers.  So each level runs over the roots of the
    level before only: on the 1.2M-edge run graph of a 160^3 torus, 597k
    runs leave about 7k roots and a quarter of the edges after the first
    level.  The live edges are taken by index, `flatnonzero` and a gather
    per end, a third of the cost of a boolean mask per end there.
    """
    root = np.arange(n)
    np.minimum.at(root, hi, lo)
    jumped = root[root]
    while np.count_nonzero(jumped != root):
        root = jumped
        jumped = root[root]
    roots = np.flatnonzero(root == np.arange(n))
    label = np.empty(n, dtype=np.intp)
    label[roots] = np.arange(roots.shape[0])
    label = label[root]
    del root, jumped
    hi = label[hi]
    lo = label[lo]
    live = np.flatnonzero(hi != lo)
    if live.shape[0]:
        hi = hi[live]
        lo = lo[live]
        label = _components(roots.shape[0], np.maximum(hi, lo), np.minimum(hi, lo))[label]
    return label


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

    Edges read the int32 run map at flat node indices, not through boolean
    masks of its strided slabs, and reach `_components` as intp pairs
    (larger run, smaller run): a pair's node one step further along an
    axis has the larger run, except across a wrap seam, whose pairs are
    swapped.  Each array goes once read, the run map before the components
    are found and the edge arrays inside them.  The label image, node counts
    and signs come from the runs, not the nodes: on the 160^3 torus the
    transient is about 47.5 MB (tracemalloc).
    """
    grid = sample.grid
    v = np.asarray(sample.values)
    if v.shape != grid.shape:
        raise ValueError(f"values shape {v.shape} does not match grid {grid.shape}")
    if not np.isfinite(v).all():
        raise ValueError("field values must be finite")
    pos = v >= 0
    start = np.ones(v.shape, dtype=bool)
    np.not_equal(pos[..., 1:], pos[..., :-1], out=start[..., 1:])
    run = np.cumsum(start, dtype=np.int32).reshape(v.shape)
    run -= 1
    flat = run.ravel()
    larger, smaller = [], []
    for ax, wraps in enumerate(grid.wraps):
        n_ax = v.shape[ax]
        inner = math.prod(v.shape[ax + 1 :])
        # (first, length, step): nodes first:first+length on ax pair with step on
        pairs = [(0, n_ax - 1, 1)] if ax < v.ndim - 1 else []
        if wraps:
            pairs.append((n_ax - 1, 1, 1 - n_ax))
        for first, length, step in pairs:
            lo = (slice(None),) * ax + (slice(first, first + length),)
            hi = (slice(None),) * ax + (slice(first + step, first + step + length),)
            edge = (pos[lo] == pos[hi]) & (start[lo] | start[hi])
            # flat index of each edge's lo node; the branches skip zero terms
            at = edge.ravel().nonzero()[0]
            if ax:
                at += at // (length * inner) * ((n_ax - length) * inner)
            if first:
                at += first * inner
            near, far = flat[at], flat[at + step * inner]
            if step < 0:  # across the seam the far node has the smaller run
                near, far = far, near
            larger.append(far)
            smaller.append(near)
    runs = int(flat[-1]) + 1
    del run, flat
    # the edges reach _components through a list emptied in the call, so no
    # reference stays here and each array goes as soon as it is read (a call
    # hands its arguments over to the callee under CPython 3.11 and later)
    edges = [np.concatenate(larger, dtype=np.intp), np.concatenate(smaller, dtype=np.intp)]
    del larger, smaller
    domain = _components(runs, edges.pop(0), edges.pop()).astype(np.int32)
    # a domain's nodes are its runs' nodes, and each node has its run's sign
    starts = start.ravel().nonzero()[0]
    lengths = np.concatenate((starts[1:], (v.size,))) - starts
    labels = np.repeat(domain, lengths).reshape(v.shape)
    counts = np.bincount(domain, weights=lengths).astype(np.int64)
    positive = np.empty(counts.shape[0], dtype=bool)
    positive[domain] = pos.ravel()[starts]
    domains = _count_records(sample, labels, counts, positive)
    return NodalDecomposition(sample=sample, labels=labels, domains=domains)


def _count_records(
    sample: FieldSample, labels: np.ndarray, counts: np.ndarray, positive: np.ndarray
) -> list[DomainRecord]:
    grid = sample.grid
    flat = labels.ravel()
    k = counts.shape[0]
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
    """Per-row metric, per-axis center and per-axis node tables of the
    marching cells of a 2-D grid: (d0, d1, area, cu, cv, node_i, node_j).

    Cell (i, j) has corners A = (i, j), B = (i+1, j), C = (i+1, j+1) and
    D = (i, j+1), indices taken modulo the node shape on a wrapped axis:
    corner (i, j) is node node_i[i] + node_j[j], with node_i[i] = (i mod
    n0) * n1 and node_j[j] = j mod n1.  Its side lengths d0[i], d1[i] and
    its area[i] depend on its row alone, and its center is (cu[i], cv[j])
    from `grid.cell_centers()`, so the tables grow with the side of the
    grid, not its area.  They depend on the grid alone: built once per grid
    and shared read-only by every measure_domains call on it.
    """
    cu, cv = grid.cell_centers()
    if isinstance(grid, (PlanarWindow, Torus)):
        h = grid.spacing
        d0 = np.full(cu.size, h)
        d1 = np.full(cu.size, h)
        area = np.full(cu.size, h * h)
    else:
        dth = math.pi / grid.n_lat
        dph = 2.0 * math.pi / grid.n_lon
        d0 = np.full(cu.size, dth)
        d1 = np.sin(cu) * dph
        area = dph * (np.cos(cu - 0.5 * dth) - np.cos(cu + 0.5 * dth))
    n0, n1 = grid.shape
    tables = (d0, d1, area, cu, cv, np.arange(cu.size + 1) % n0 * n1, np.arange(cv.size + 1) % n1)
    for table in tables:
        table.setflags(write=False)
    return tables


# Marching squares runs the per-cell loop below this many crossing cells and
# the class-table pass at or above it: each numpy step of the table pass has a
# fixed cost of a few microseconds, which a handful of cells cannot repay.
# The two took equal time at 200-300 crossing cells on a 2-core Xeon VM.
# The loop takes all cells at once; the table pass takes them in bands.
_TABLE_MIN_CELLS = 256
# The table pass takes the cells in bands of whole cell rows of about this
# many cells (at least one row): 10 bands of 40 rows on the 400x800 sphere, 2
# on the 200x200-cell desk.  Every per-cell and per-segment temporary then has
# the size of one band and stays in cache.  Whole-grid temporaries, about 75k
# rows each on the sphere, were trimmed by the allocator and faulted back in
# on every realization.  On l = 80 spheres, bands of 16k to 128k cells took
# about the same time; 8k-cell bands and one whole-grid band were slower.
_BAND_CELLS = 32768


class _Signs(NamedTuple):
    """The whole-field part of marching squares: each cell's corner-sign
    pattern, a (rows, cols) uint8 image of the cells in row-major order, the
    number of crossing cells, and the flat indices of the saddle cells with
    the sign of the field at their centers, in cell order (both None on a
    field without coefficients, whose saddles connect their positive corners)."""

    pattern: np.ndarray
    crossing: int
    saddle_cells: np.ndarray | None
    saddle_pos: np.ndarray | None


class _Cells(NamedTuple):
    """The crossing cells of a band of whole cell rows of a 2-D
    decomposition, in row-major cell order.

    The rows of `values` and `labels` are corners A, B, C, D and the rows of
    `edges` the edges AB, BC, CD, DA; an edge id names the crossing point on
    that edge and is shared with the neighbouring cell.  The id of the edge
    from node v to its +i neighbour is 2v, to its +j neighbour 2v + 1, so
    the edges of each node row fill one stretch of 2 n1 ids, n1 the row's
    node count (`nodes` is the node shape), so they lie below 2 n0 n1.
    Cells without a crossing only add their area to the label of their
    corners: `uniform_labels` is the band's label image in row-major cell
    order, the label of corner A on a uniform cell and k on a crossing one,
    and `uniform_areas` the area of a cell in each of the band's rows.
    """

    k: int
    nodes: tuple[int, int]
    uniform_labels: np.ndarray
    uniform_areas: np.ndarray
    pattern: np.ndarray  # uint8 corner sign bits A=1, B=2, C=4, D=8
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
    signs = _cell_signs(dec)
    if signs.crossing < _TABLE_MIN_CELLS:
        geometry = _march_loop(_crossing_cells(dec, signs))
    else:
        geometry = _march_table(_cell_bands(dec, signs))
    for rec in dec.domains:
        rec.perimeter = geometry.perimeter[rec.label]
        rec.boundary_components = geometry.boundary_components[rec.label]
        rec.refined_area = geometry.refined_area[rec.label]
    dec.total_nodal_length = geometry.total_length
    dec.measured = True
    return dec


# row and column offsets of corners A, B, C, D from a cell's first node, and
# the corner and axis (0 for +i, 1 for +j) of edges AB, BC, CD, DA
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


def _cell_signs(dec: NodalDecomposition) -> _Signs:
    """The corner-sign pattern of every cell, and the saddle resolution: one
    `evaluate_at` call on all saddle centers of the field, which reads the
    model's cell-center table (no Bessel sweep or Legendre recursion).  A
    pattern ors four shifted uint8 sign slices."""
    sample = dec.sample
    cu, cv = _cell_tables(sample.grid)[3:5]
    rows, cols = cu.size, cv.size
    pos = _wrap_extended(np.asarray(sample.values) >= 0, sample.grid.wraps).view(np.uint8)
    pattern = (
        pos[:rows, :cols]
        | pos[1 : rows + 1, :cols] << 1
        | pos[1 : rows + 1, 1 : cols + 1] << 2
        | pos[:rows, 1 : cols + 1] << 3
    )
    crossing = np.count_nonzero((pattern != 0) & (pattern != 15))
    saddle_cells = saddle_pos = None
    if sample.coeffs is not None:
        saddle_cells = np.flatnonzero((pattern == 5) | (pattern == 10))
        if saddle_cells.size:
            si, sj = np.divmod(saddle_cells, cols)
            saddle_pos = evaluate_at(sample, np.stack([cu[si], cv[sj]], axis=1)) >= 0
    return _Signs(pattern, crossing, saddle_cells, saddle_pos)


def _crossing_cells(
    dec: NodalDecomposition, signs: _Signs, first: int = 0, last: int | None = None
) -> _Cells:
    """The crossing cells of cell rows first..last - 1 (default all rows) of
    a 2-D decomposition, and the label image and row areas of the band,
    given the field's `_cell_signs`.  The corner node ids add the grid's
    wrapping node tables at a cell's row and column and the next ones, so no
    per-cell index is taken modulo."""
    values = np.asarray(dec.sample.values, dtype=np.float64)
    k = len(dec.domains)
    d0_row, d1_row, area_row, _, _, node_i, node_j = _cell_tables(dec.sample.grid)
    rows, cols = signs.pattern.shape
    if last is None:
        last = rows
    pattern = signs.pattern[first:last]
    crossing = (pattern != 0) & (pattern != 15)

    cidx = np.flatnonzero(crossing)
    ci, cj = np.divmod(cidx, cols)
    if first:
        ci += first
    pattern = pattern.take(cidx)
    # corner node indices; twice a node index is the id of the edge to its
    # +i neighbour, and one more the id of the edge to its +j one
    corners = node_i[ci + _CORNER_DI] + node_j[cj + _CORNER_DJ]
    edges = corners[_EDGE_START] * 2 + _EDGE_AXIS
    # saddle resolution: field sign at the cell center when evaluable
    center_pos = np.ones(cidx.shape[0], dtype=bool)
    saddle = (pattern == 5) | (pattern == 10)
    if signs.saddle_pos is not None:
        before = int(np.searchsorted(signs.saddle_cells, first * cols))
        center_pos[saddle] = signs.saddle_pos[before : before + np.count_nonzero(saddle)]

    return _Cells(
        k=k,
        nodes=dec.labels.shape,
        # np.add.at adds by intp labels faster than by int32 ones
        uniform_labels=np.where(crossing, np.intp(k), dec.labels[first:last, :cols]).ravel(),
        uniform_areas=area_row[first:last],
        pattern=pattern,
        saddle=saddle,
        center_pos=center_pos,
        values=values.take(corners),
        labels=dec.labels.take(corners),
        edges=edges,
        d0=d0_row[ci],
        d1=d1_row[ci],
        area=area_row[ci],
    )


def _cell_bands(dec: NodalDecomposition, signs: _Signs) -> Iterator[_Cells]:
    """The crossing cells of a 2-D decomposition, given its `_cell_signs`,
    in bands of whole cell rows of about `_BAND_CELLS` cells, in row order,
    each made when it is needed."""
    rows, cols = signs.pattern.shape
    step = max(1, _BAND_CELLS // cols)
    for first in range(0, rows, step):
        yield _crossing_cells(dec, signs, first, min(first + step, rows))


def _add_uniform(sums: np.ndarray, cells: _Cells) -> None:
    """Add each uniform cell's area to the label of its corners, in row-major
    order, into k + 1 sums: the crossing cells' areas go to the spare sum k.
    The row areas are repeated along the flat label image, which takes
    `np.add.at`'s fast path; the row areas broadcast over a 2-D label index
    take its slow one (330 against 55 us on a 32k-cell band)."""
    cols = cells.uniform_labels.shape[0] // cells.uniform_areas.shape[0]
    np.add.at(sums, cells.uniform_labels, np.repeat(cells.uniform_areas, cols))


def _segment_contours(bands: list, nodes: tuple[int, int]) -> np.ndarray:
    """Contour of each segment: the components of the segments over their
    crossing points.  `bands` lists the bands of cell rows from the first
    row on, each as (rows, ends), a segment's two crossing-point edge ids in
    `ends[2s]`, `ends[2s + 1]` (see `_Cells`); `nodes` is the node shape.

    A band of cell rows first..last - 1 has its crossing points on the
    edges of node rows first..last, a window of 2 n1 ids a row.  They are
    numbered in id order after the points of the bands above, through
    arrays the size of the window, so none spans the grid's edge ids.  The
    window's head row, node row `first`, is the band above's tail row: its
    +j points keep the numbers that band gave them.  On a grid whose rows
    wrap, the last band's tail row is node row 0, and its +j points keep
    the numbers the first band gave them (a single band has the row as its
    own head row)."""
    n0, n1 = nodes
    width = 2 * n1
    numbers = []
    count = first = 0
    for rows, ends in bands:
        size = (rows + 1) * width
        head, tail = slice(1, width, 2), slice(rows * width + 1, size, 2)
        slot = ends - first * width if first else ends
        wraps = first > 0 and first + rows == n0
        if wraps:  # node row 0 lies below the window's start
            slot = np.where(slot < 0, slot + n0 * width, slot)
        seen = np.zeros(size, dtype=bool)
        seen[slot] = True
        if first:
            seen[head] = False
        if wraps:
            seen[tail] = False
        # a scatter over the seen ids (a cumsum over the window took three times as long)
        ids = np.flatnonzero(seen)
        number = np.empty(size, dtype=np.int32)
        number[ids] = np.arange(count, count + ids.shape[0], dtype=np.int32)
        count += ids.shape[0]
        if first:
            number[head] = above
        else:
            top = number[head]
        if wraps:
            number[tail] = top
        above = number[tail]
        numbers.append(number[slot])
        first += rows
    # intp points: np.minimum.at takes its slow path on int32 edges
    point = np.concatenate(numbers, dtype=np.intp)
    a, b = point[0::2], point[1::2]
    return _components(count, np.maximum(a, b), np.minimum(a, b))[a]


def _march_loop(cells: _Cells) -> _Geometry:
    """Marching squares one crossing cell at a time.  A cell's row of
    `_CLASS_ROWS` says what to measure; the loop evaluates the table pass's
    expressions and adds them up in its order."""
    k = cells.k
    perimeter = [0.0] * k
    # the uniform cells' areas, each label's added in row-major order (the
    # spare sum k takes the crossing cells'), as `_add_uniform` adds them
    rows = cells.uniform_areas.shape[0]
    cols = cells.uniform_labels.shape[0] // rows
    ref = np.bincount(cells.uniform_labels, np.repeat(cells.uniform_areas, cols), k + 1).tolist()
    total_len = 0.0
    # per segment: its two crossing-point edge ids and the labels beside it
    ends: list[int] = []
    beside: list[tuple[int, ...]] = []
    hypot = math.hypot
    columns = (cells.pattern, cells.center_pos, cells.values.T, cells.labels.T, cells.edges.T,
               cells.d0, cells.d1, cells.area)
    for pattern, center_pos, x, lab, edge_id, d0, d1, ca in zip(*(c.tolist() for c in columns)):
        live, crossing, (o1, o2), cols = _CLASS_ROWS[pattern + 16 * center_pos]
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

    contour = _segment_contours([(rows, np.array(ends, dtype=np.intp))], cells.nodes)
    # each distinct (contour, label) pair is one boundary component of the label
    boundary = [0] * k
    for _, lab_i in {(c, lab_i) for c, labs in zip(contour.tolist(), beside) for lab_i in labs}:
        boundary[lab_i] += 1
    return _Geometry(
        perimeter=perimeter, refined_area=ref[:k], boundary_components=boundary,
        total_length=total_len,
    )


def _class_tables():
    """Read-only tables of the 32 crossing classes, cls = pattern + 16 *
    (center >= 0), with one row per segment slot: row 2 * cls + s is slot s
    of class cls.  Every crossing class fills slot 0; saddles (5, 10) also
    fill slot 1.

    Returns (segment edges, segment sides, area corners, fraction columns).
    A slot lists its segment's two edges and three corners: its `one` side,
    then one or two corners of the other side (repeated when one).  Its
    fraction column names the fraction of the cell it cuts off (see
    `_fraction`): the corner cuts A, B, C, D (0-3) or the AB|CD and BC|DA
    splits (4, 5).  Its two area corners take the area shares: in slot 0 of
    a single-segment class the fraction and the rest of the cell; in a
    saddle's slot 0 its two corner cuts, and in its slot 1 the two corners
    of its channel, which share the rest.  Saddles cut off the two corners
    whose sign differs from the center's.  Classes 0, 15, 16 and 31 never
    cross.  These tables are the one description of the classes;
    `_march_loop` reads them as Python rows.
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
    seg_edges = np.zeros((64, 2), dtype=np.intp)
    seg_sides = np.zeros((64, 3), dtype=np.intp)
    area_corners = np.zeros((64, 2), dtype=np.intp)
    frac_cols = np.zeros(64, dtype=np.intp)
    for center in (0, 16):
        for pair, (edges, one, other, col) in single.items():
            for p in pair:
                row = 2 * (p + center)
                seg_edges[row] = edges
                seg_sides[row] = (one, other, other)
                area_corners[row] = (one, other)
                frac_cols[row] = col
        for p in (5, 10):
            row = 2 * (p + center)
            iso, channel = ((b, d), (a, c)) if (p == 5) == bool(center) else ((a, c), (b, d))
            for s, corner in enumerate(iso):
                seg_edges[row + s] = cut[corner]
                seg_sides[row + s] = (corner, *channel)
                frac_cols[row + s] = corner
            area_corners[row : row + 2] = (iso, channel)
    tables = (seg_edges, seg_sides, area_corners, frac_cols)
    for table in tables:
        table.setflags(write=False)
    return tables


# the table pass gathers with `take`: it copies these tables' short rows
# about ten times faster than indexing does, and flat elements a fifth faster
_SEG_EDGES, _SEG_SIDES, _AREA_CORNERS, _FRAC_COLS = _class_tables()
# the operands p, q of fraction columns 0-5, as rows of
# [t_ab, t_bc, t_cd, t_da, 1 - t_ab, 1 - t_bc, 1 - t_cd, 1 - t_da]
_FRAC_P = [0, 4, 5, 2, 0, 1]
_FRAC_Q = [3, 1, 6, 7, 2, 3]
# the same operands as the edge of each t, and whether it is read as 1 - t
_FRAC_EDGES = np.array([_FRAC_P, _FRAC_Q]).T % 4
_FRAC_COMPLEMENT = np.array([_FRAC_P, _FRAC_Q]).T >= 4
# per edge AB, BC, CD, DA: whether it runs along +j, and the coordinate its
# crossing points share, v on AB and CD, u on BC and DA
_EDGE_ALONG_J = np.array([False, True, False, True])
_EDGE_FAR = np.array([0.0, 1.0, 1.0, 0.0])
# corners (p, q) of edges AB, BC, CD, DA; a crossing lies at x[p] / (x[p] - x[q])
_EDGE_ENDS = ((0, 1), (1, 2), (3, 2), (0, 3))


def _class_rows():
    """The class tables as one Python row per class, for `_march_loop`:
    (live segments as (e1, e2, one, other, other), crossing edges as
    (edge, p, q), the two area corners of slot 0, fraction columns)."""
    edges, sides, owners, cols = (t.tolist() for t in _class_tables())
    for cls in range(32):
        slots = range(2 * cls, 2 * cls + 1 + (cls % 16 in (5, 10)))
        live = tuple((*edges[row], *sides[row]) for row in slots)
        crossing = tuple((e, *_EDGE_ENDS[e]) for seg in live for e in seg[:2])
        yield live, crossing, tuple(owners[2 * cls]), tuple(cols[row] for row in slots)


_CLASS_ROWS = tuple(_class_rows())


def _fraction(col: int, t: list) -> float:
    """Fraction column `col` of `_class_tables` for one cell, by the table
    pass's expressions, from its edge crossings t and 1 - t: a corner cut
    (0.5 * p) * q, or a split 0.5 * (p + q), of its operands p and q."""
    p, q = t[_FRAC_P[col]], t[_FRAC_Q[col]]
    if col >= 4:
        return 0.5 * (p + q)
    return (0.5 * p) * q


def _edge_crossings(values: np.ndarray) -> np.ndarray:
    """Crossing fractions t of the edges AB, BC, CD, DA from the (4, n)
    corner values, as (4, n) rows; inf or nan on edges without a crossing."""
    a, b, c, d = values
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([a / (a - b), b / (b - c), d / (d - c), a / (a - d)])


def _segment_rows(cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """One row per segment of the crossing cells, in cell order with a
    saddle's slot 0 before its slot 1: the cell of each row, and its row
    2 * class + slot of the class tables."""
    saddle = cells.saddle
    cell = np.repeat(np.arange(saddle.shape[0]), 1 + saddle)
    row = 2 * (cells.pattern + 16 * cells.center_pos)[cell]
    # the j-th saddle's slot 1 lies j + 1 rows past its cell
    row[np.flatnonzero(saddle) + np.arange(1, np.count_nonzero(saddle) + 1)] += 1
    return cell, row


def _area_shares(
    cells: _Cells, t: np.ndarray, cell: np.ndarray, row: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (label, area) stream of the segment rows (cell, row) of a band,
    from its edge crossings t.  A row reads the one fraction f its slot cuts
    off; a single-segment cell gives f * ca and (1 - f) * ca to its two area
    corners, a saddle's slot 0 its two corner cuts and its slot 1 the rest to
    its channel's label(s)."""
    n = cells.pattern.shape[0]
    col = _FRAC_COLS[row]
    # each row's two operands: t on their edges, or 1 - t where read so
    operands = t.take(_FRAC_EDGES.take(col, axis=0) * n + cell[:, None])
    p, q = np.where(_FRAC_COMPLEMENT.take(col, axis=0), 1.0 - operands, operands).T
    f = np.where(col >= 4, 0.5 * (p + q), (0.5 * p) * q)
    ca = cells.area[cell]
    share = np.column_stack([f * ca, (1.0 - f) * ca])
    owner = cells.labels.take(_AREA_CORNERS.take(row, axis=0) * n + cell[:, None])
    # a saddle's slot 0 takes both corner cuts, its slot 1 the rest
    second = np.flatnonzero(row & 1)
    share[second - 1, 1] = share[second, 0]
    rest = (1.0 - (f[second - 1] + f[second])) * ca[second]
    shared = owner[second, 0] == owner[second, 1]
    share[second] = np.where(shared, rest, 0.5 * rest)[:, None]
    gets = np.ones(owner.shape, dtype=bool)
    gets[second[shared], 1] = False
    gets = gets.ravel()
    return owner.ravel().compress(gets), share.ravel().compress(gets)


def _refined_areas(bands: Iterable[_Cells]) -> np.ndarray:
    """Per-label refined areas of a decomposition from its cell bands (see
    `_cell_bands`), and nothing else of its geometry: the uniform cells of
    every band first, in row-major order, then the segment rows in cell
    order, which is the order `_march_loop` adds them in.  `np.add.at` adds
    one by one in input order, as bincount does, so the sums continue across
    bands.  The numbers of `_march_loop`, bit for bit, at any number of
    cells and bands."""
    refined, shares = None, []
    for cells in bands:
        if refined is None:
            refined = np.zeros(cells.k + 1)
        _add_uniform(refined, cells)
        shares.append(_area_shares(cells, _edge_crossings(cells.values), *_segment_rows(cells)))
    for owner, share in shares:
        np.add.at(refined, owner, share)
    return refined[: cells.k]


def _square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * x as an exact sum z + zz: Veltkamp's split of x into 26-bit
    halves and Dekker's (1971) product of the halves."""
    t = x * 134217729.0  # 2**27 + 1
    hi = t - (t - x)
    lo = x - hi
    p = hi * hi
    q = hi * lo
    q += q
    z = p + q
    zz = p - z
    zz += q
    lo *= lo
    zz += lo
    return z, zz


_FLOAT64 = np.finfo(np.float64)


def _hypot(du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Elementwise `math.hypot(du, dv)`, bit for bit, by CPython's algorithm
    for two coordinates: both scaled by the power of two that puts the larger
    in [0.5, 1), squared exactly, added to 1.0 with a fast two-sum whose
    round-offs are collected apart, the root taken and corrected by one
    step against its own exact square.  A pair whose larger magnitude is
    zero, subnormal or not finite goes through `math.hypot` itself."""
    a, b = np.abs(du), np.abs(dv)
    m = np.maximum(a, b)
    _, e = np.frexp(m)
    odd = np.flatnonzero(~((m >= _FLOAT64.smallest_normal) & (m <= _FLOAT64.max)))
    if odd.size:  # regular stand-ins, overwritten by math.hypot at the end
        a[odd] = b[odd] = 0.5
        e[odd] = 0
    scale = np.ldexp(1.0, -e)
    a *= scale
    b *= scale
    za, zza = _square(a)
    zb, zzb = _square(b)
    csum = 1.0 + za
    frac2 = (1.0 - csum) + za
    s = csum + zb
    frac2 += (csum - s) + zb
    frac1 = zza + zzb
    h = np.sqrt(s - 1.0 + (frac1 + frac2))
    zh, zzh = _square(h)  # the correction step adds -h * h
    csum = s - zh
    frac2 += (s - csum) - zh
    frac1 -= zzh
    h += (csum - 1.0 + (frac1 + frac2)) / (2.0 * h)
    with np.errstate(over="ignore"):  # past the largest double, inf as math.hypot gives
        h /= scale
    if odd.size:
        h[odd] = list(map(math.hypot, du[odd].tolist(), dv[odd].tolist()))
    return h


def _march_table(bands: Iterable[_Cells]) -> _Geometry:
    """Marching squares over the crossing cells of each band (see
    `_cell_bands`) at once, one row per segment (see `_segment_rows`), each
    reading its flat class-table rows.  A band adds its uniform cells' areas,
    its segment lengths to the perimeters beside them and to the running
    total; it keeps its segments' area shares, which follow every uniform
    cell, and its adjacent labels and segment ends, for the contours that
    join across bands.  One fold at the end adds the shares and counts the
    boundary components.

    The same numbers as `_march_loop`, bit for bit: every value is computed
    by the loop's expression, and `np.add.at` adds a label's contributions
    one by one in the loop's order (segment by segment, side by side), across
    bands.  Segment lengths come from `_hypot`, a numpy replica of the
    algorithm of `math.hypot`, which the loop calls; the replica matched
    `math.hypot` bit for bit under CPython 3.10, 3.11, 3.12 and 3.13.
    """
    refined = perimeter = None
    shares, segments, ends = [], [], []
    total = 0.0
    for cells in bands:
        if refined is None:
            refined, perimeter = np.zeros(cells.k + 1), np.zeros(cells.k)
        n = cells.pattern.shape[0]
        cell, row = _segment_rows(cells)
        t = _edge_crossings(cells.values)
        _add_uniform(refined, cells)
        shares.append(_area_shares(cells, t, cell, row))
        # each segment's two edges, and their crossing points (u, v): on AB,
        # BC, CD, DA at (t, 0), (1, t), (t, 1), (0, t), with A = (0, 0), C = (1, 1);
        # t is gathered once per end, and each coordinate is t or the constant
        edge = _SEG_EDGES.take(row, axis=0)
        at = edge * n + cell[:, None]
        along_j, far, t_end = _EDGE_ALONG_J[edge], _EDGE_FAR[edge], t.take(at)
        u = np.where(along_j, far, t_end)
        v = np.where(along_j, t_end, far)
        du = (u[:, 1] - u[:, 0]) * cells.d0[cell]
        dv = (v[:, 1] - v[:, 0]) * cells.d1[cell]
        lengths = _hypot(du, dv)
        total = float(np.cumsum(np.concatenate([[total], lengths]))[-1])
        sides = cells.labels.take(_SEG_SIDES.take(row, axis=0) * n + cell[:, None])
        # a channel of one label is adjacent once: a segment has two or three
        # labels beside it, and repeats its length and later its contour as
        # often (`np.repeat` took an eighth of the time of a masked broadcast)
        touch = np.ones(sides.shape, dtype=bool)
        np.not_equal(sides[:, 2], sides[:, 1], out=touch[:, 2])
        adjacent = sides.ravel().compress(touch.ravel())
        beside = touch[:, 2] + 2
        np.add.at(perimeter, adjacent, np.repeat(lengths, beside))
        segments.append((adjacent, beside))
        ends.append((cells.uniform_areas.shape[0], cells.edges.take(at).ravel()))
    k = cells.k
    for owner, share in shares:
        np.add.at(refined, owner, share)
    adjacent, beside = (np.concatenate(s) for s in zip(*segments))
    contour = _segment_contours(ends, cells.nodes)
    # each distinct (contour, label) pair is one boundary component of the label
    pairs = np.sort(np.repeat(contour, beside) * k + adjacent)
    distinct = np.ones(pairs.shape, dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=distinct[1:])
    return _Geometry(
        perimeter=perimeter.tolist(),
        refined_area=refined[:k].tolist(),
        boundary_components=np.bincount(pairs[distinct] % k, minlength=k).tolist(),
        total_length=total,
    )


def _measure_faces_3d(dec: NodalDecomposition) -> None:
    """3-D tori: boundary surface by face counting (marching squares is
    2-D only).  Each sign-changing lattice face contributes h^2 to both
    adjacent domains; contour tracing is not attempted.

    Face counting measures |nu_1| + |nu_2| + |nu_3| per unit area of a
    surface with unit normal nu, so on an isotropic field it overstates the
    surface area by the Crofton factor 3/2: its expected density is
    (3/2) (2/pi) sqrt(lam/3) for mean squared frequency lam, against the
    Kac-Rice area density (2/pi) sqrt(lam/3).

    Only the node before each face is read.  Every axis of a 3-D torus
    wraps, so a lattice line along an axis is a cycle, and on it the label
    changes exactly at the faces (neighbours of one sign share a label,
    neighbours of opposite signs cannot).  Going round the cycle, each label
    is entered as often as it is left: for every label and axis, the faces
    with the label before them are as many as those with it after them.
    The one-sided count, added twice, gives the same sums in the same order
    as reading both sides would.  This needs every axis to wrap: on an open
    line the two end labels would break the balance."""
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
        side = np.bincount(labs[face], minlength=k) * h2
        perimeter += side
        perimeter += side
    for rec in dec.domains:
        rec.perimeter = float(perimeter[rec.label])
        rec.boundary_components = 0
        rec.refined_area = rec.area
    dec.total_nodal_length = nfaces * h2


def domain_max_distance(dec: NodalDecomposition, dist: np.ndarray) -> np.ndarray:
    """Per-domain largest node distance, given `dist`, the grid's node
    distances from a center (`grid.node_distances`)."""
    dmax = np.zeros(len(dec.domains))
    np.maximum.at(dmax, dec.labels.ravel(), dist.ravel())
    return dmax


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
        pert_areas = _refined_areas(_cell_bands(pert, _cell_signs(pert))).tolist()

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
