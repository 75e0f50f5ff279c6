import hashlib
import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import nodal_census
import oracles
from nodal_census import (
    BandLimitedTorus,
    LatLongSphere,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    Torus,
    domain_table_csv,
    evaluate_at,
    label_domains,
    measure_domains,
    perturbation_stability,
    sample_field,
    synthetic_sample,
)
from nodal_census import nodal
from nodal_census.engine import PERTURBATION_B, PERTURBATION_STREAM_BASE
from nodal_census.nodal import (
    _AREA_CORNERS,
    _FRAC_COLS,
    _SEG_EDGES,
    _SEG_SIDES,
    _TABLE_MIN_CELLS,
    _cell_bands,
    _cell_signs,
    _cell_tables,
    _class_tables,
    _components,
    _crossing_cells,
    _hypot,
    _march_loop,
    _march_table,
    _refined_areas,
)
from nodal_census.sampler import torus_modes


_MODULES = ("nodal", "stats", "sampler", "io", "engine", "grids", "specfn", "cli", "svg")


@pytest.mark.parametrize(
    "module",
    [nodal_census] + [importlib.import_module(f"nodal_census.{name}") for name in _MODULES],
    ids=("package",) + _MODULES,
)
def test_export_lists_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _graph_cases():
    rng = np.random.default_rng(11)
    for n, m in ((1, 0), (9, 0), (60, 40), (300, 200), (300, 600), (2000, 1900)):
        yield pytest.param(n, rng.integers(0, n, size=(m, 2)), id=f"random-{n}-{m}")
    n = 101
    zigzag = [n - 1 - i // 2 if i % 2 else i // 2 for i in range(n)]  # 0, n-1, 1, n-2, ...
    yield pytest.param(n, list(zip(zigzag, zigzag[1:])), id="zigzag-path")
    yield pytest.param(40, [(39, i) for i in range(39)], id="star-largest-centre")
    yield pytest.param(
        13,
        [(0, 1), (1, 2), (2, 0), (5, 5), (3, 4), (4, 3), (3, 4), (9, 7), (8, 9), (7, 8), (12, 12)],
        id="cycles-loops-duplicates",
    )
    yield pytest.param(6, [(4, 1)], id="isolated-nodes")
    # `_components` drops the joined edges after each round; these random
    # graphs take four and five hook rounds, the grid's node-pair graph three
    for n, m in ((600, 511), (700, 512), (20000, 15000)):
        yield pytest.param(n, rng.integers(0, n, size=(m, 2)), id=f"random-{n}-{m}")
    pos = rng.normal(size=(50, 50)) >= 0
    node = np.arange(pos.size).reshape(pos.shape)
    pairs = [(lo[same], hi[same]) for lo, hi, same in (
        (node[:-1], node[1:], pos[:-1] == pos[1:]),
        (node[:, :-1], node[:, 1:], pos[:, :-1] == pos[:, 1:]))]
    yield pytest.param(pos.size, np.concatenate([np.stack(p, axis=1) for p in pairs]),
                       id="grid-node-pairs-50x50")
    n = 1025
    zigzag = [n - 1 - i // 2 if i % 2 else i // 2 for i in range(n)]
    yield pytest.param(n, list(zip(zigzag, zigzag[1:])), id="zigzag-path-long")
    yield pytest.param(n, [(7, 7)] * 512 + [(3, 5)], id="many-loops")
    yield pytest.param(0, [], id="empty")
    # the roots of a path after one hook round are its local minima, joined
    # in path order; putting a new larger node between every two nodes makes
    # the old path the roots of the new one, so each widening of a zigzag
    # (two levels of `_components`) adds a level
    path = [63 - i // 2 if i % 2 else i // 2 for i in range(64)]
    for _ in range(2):
        k = len(path)
        path = [x for i, m in enumerate(path) for x in (m, k + i)][:-1]
    yield pytest.param(len(path), list(zip(path, path[1:])), id="widened-zigzag-path")


@pytest.mark.parametrize("n, edges", _graph_cases())
def test_components_match_breadth_first_search(n, edges):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    labels = _components(n, edges.max(1), edges.min(1))
    np.testing.assert_array_equal(labels, oracles.bfs_components(n, edges.tolist()))


def _snake(n):
    """A one-node-wide positive path through rows 1, 3, 5, ... of an n x n
    negative field, turning at alternate ends."""
    values = -np.ones((n, n))
    for r in range(1, n - 1, 2):
        values[r, 1 : n - 1] = 1.0
        if r + 2 < n - 1:
            values[r + 1, n - 2 if (r // 2) % 2 == 0 else 1] = 1.0
    return values


def _labeling_cases():
    rng = np.random.default_rng(29)
    planar = PlanarWindow(side=15.0, spacing=0.5)
    sphere = LatLongSphere(n_lat=14, n_lon=24)
    torus2 = Torus(side=12.0, spacing=0.5)
    torus3 = Torus(side=5.0, spacing=0.5, dim=3)
    for name, grid in (("planar", planar), ("sphere", sphere), ("torus2", torus2),
                       ("torus3", torus3)):
        fields = [rng.normal(size=grid.shape) + bias for bias in (0.0, 0.4, -0.4)]
        yield pytest.param(grid, fields, id=f"random-{name}")
    small = Torus(side=2.0, spacing=0.5)
    yield pytest.param(small, [rng.normal(size=small.shape) for _ in range(200)],
                       id="random-small-tori")

    row = -np.ones(sphere.shape)
    row[5] = 1.0
    yield pytest.param(sphere, [row, -row], id="row-joined-to-itself")
    seam0 = -np.ones(torus2.shape)
    seam0[0, 4] = seam0[-1, 4] = 1.0
    cube = -np.ones(torus3.shape)
    cube[0, 3, 4] = cube[-1, 3, 4] = 1.0
    yield pytest.param(torus2, [seam0, seam0.T], id="axis0-seam-torus2")
    yield pytest.param(torus3, [cube, cube.transpose(1, 0, 2)], id="axis0-seam-torus3")
    wrap = -np.ones(sphere.shape)
    wrap[5, :2] = wrap[5, -3:] = 1.0
    yield pytest.param(sphere, [wrap, -wrap], id="last-seam-sphere")
    yield pytest.param(torus2, [seam0.T[::-1]], id="last-seam-torus2")
    yield pytest.param(torus3, [cube.transpose(2, 1, 0)], id="last-seam-torus3")
    snake = _snake(31)
    comb = -np.ones((31, 31))
    comb[1:30, 1] = 1.0
    comb[1:30:2, 1:30] = 1.0
    yield pytest.param(planar, [snake, snake.T, snake[::-1, ::-1].T, comb, comb[:, ::-1].T],
                       id="snake-and-comb")
    yield pytest.param(torus2, [_snake(24), _snake(24).T], id="snake-torus2")
    for name, grid in (("planar", planar), ("sphere", sphere), ("torus2", torus2),
                       ("torus3", torus3)):
        yield pytest.param(grid, [np.ones(grid.shape), -np.ones(grid.shape)], id=f"one-sign-{name}")


@pytest.mark.parametrize("grid, fields", _labeling_cases())
def test_labels_match_node_pair_oracle(grid, fields, monkeypatch):
    def ordered_components(n, hi, lo):
        # every edge arrives larger run first, also the pairs across a seam
        assert np.all(hi >= lo)
        return _components(n, hi, lo)

    monkeypatch.setattr(nodal, "_components", ordered_components)
    for values in fields:
        labels = label_domains(synthetic_sample(values, grid)).labels
        assert labels.dtype == np.int32
        expected = oracles.node_pair_labels(values >= 0, grid.wraps)
        np.testing.assert_array_equal(labels, expected)


def _count_cases():
    yield from _labeling_cases()
    tiny = PlanarWindow(side=1.5, spacing=0.5)
    rng = np.random.default_rng(31)
    fields = rng.choice([-1.0, 0.0, 1.0], size=(3000,) + tiny.shape)
    yield pytest.param(tiny, list(fields), id="random-4x4")


@pytest.mark.parametrize("grid, fields", _count_cases())
def test_counts_and_signs_match_node_oracle(grid, fields):
    # counts and signs are read off the runs; the oracle reads every node
    for values in fields:
        dec = label_domains(synthetic_sample(values, grid))
        counts = [d.node_count for d in dec.domains]
        assert counts == np.bincount(dec.labels.ravel()).tolist()
        assert all(type(c) is int for c in counts)
        assert sum(counts) == values.size
        signs = np.array([d.sign for d in dec.domains])
        np.testing.assert_array_equal(signs[dec.labels], np.where(values >= 0, 1, -1))


def _geometry(dec):
    return (
        [(d.perimeter, d.refined_area, d.boundary_components) for d in dec.domains],
        dec.total_nodal_length,
    )


def test_cell_tables_are_shared_read_only():
    samples = [
        sample_field(PlaneWave2D(), PlanarWindow(side=4 * math.pi, spacing=2 * math.pi / 8),
                     RngStream(2, 0)),
        sample_field(PlaneWave2D(), PlanarWindow(side=4 * math.pi, spacing=2 * math.pi / 10),
                     RngStream(2, 0)),
        sample_field(SphericalHarmonic(degree=6), LatLongSphere(n_lat=24, n_lon=48),
                     RngStream(2, 0)),
    ]
    fresh = []
    for sample in samples:
        _cell_tables.cache_clear()
        fresh.append(_geometry(measure_domains(label_domains(sample))))
    _cell_tables.cache_clear()
    for _ in range(2):
        for sample, expected in zip(samples, fresh):
            assert _geometry(measure_domains(label_domains(sample))) == expected
    for sample in samples:
        grid = sample.grid
        for table, expected in zip(_cell_tables(grid), _cell_tables.__wrapped__(grid)):
            np.testing.assert_array_equal(table, expected)
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
    assert _cell_tables.cache_info().currsize == 3


def _types(x):
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_types(y) for y in x]
    return type(x).__name__


def _assert_marches_agree(cells):
    """The class-table pass gives the loop's geometry: the same values, bit
    for bit, held in the same Python types."""
    loop, table = _march_loop(cells), _march_table([cells])
    assert table == loop
    assert _types(table) == _types(loop)
    return loop


def _cells(values, grid=None, center_pos=None):
    values = np.asarray(values, dtype=np.float64)
    grid = grid or PlanarWindow(side=0.5 * (values.shape[0] - 1), spacing=0.5)
    dec = label_domains(synthetic_sample(values, grid))
    cells = _crossing_cells(dec, _cell_signs(dec))
    if center_pos is not None:
        cells = cells._replace(center_pos=np.full(cells.pattern.shape, center_pos) | ~cells.saddle)
    return cells


@pytest.mark.parametrize("center_pos", [False, True])
@pytest.mark.parametrize("pattern", range(16))
def test_marches_agree_on_every_single_cell_class(pattern, center_pos):
    # corners A, B, C, D of the one cell are nodes (0, 0), (1, 0), (1, 1), (0, 1)
    magnitude = np.array([[0.3, 0.9], [0.7, 0.45]])
    bits = np.array([[1, 8], [2, 4]])
    values = np.where(pattern & bits, magnitude, -magnitude)
    cells = _cells(values, center_pos=center_pos)
    assert cells.pattern.tolist() == ([] if pattern in (0, 15) else [pattern])
    _assert_marches_agree(cells)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("center_pos", [False, True])
def test_marches_agree_on_saddles_with_shared_labels(sign, center_pos):
    # the middle cell is a saddle whose diagonal A, C joins the border, so
    # its channel (centre of A's sign) or its two cut-off corners (centre of
    # B's sign) carry one label
    values = sign * np.array([
        [0.5, 0.8, 0.6, 0.9],
        [0.7, 0.4, -0.3, 0.5],
        [0.6, -0.6, 0.2, 0.8],
        [0.9, 0.5, 0.7, 0.6],
    ])
    cells = _cells(values, center_pos=center_pos)
    middle = np.flatnonzero(cells.saddle)
    assert middle.size == 1
    a, _, c, _ = cells.labels[:, middle[0]]
    assert a == c
    geometry = _assert_marches_agree(cells)
    assert geometry.total_length > 0.0


def test_marches_agree_without_crossing_cells():
    cells = _cells(np.ones((5, 5)))
    assert cells.pattern.size == 0
    geometry = _assert_marches_agree(cells)
    assert geometry.total_length == 0.0
    assert geometry.boundary_components == [0]


@pytest.mark.parametrize("case", ["desk", "sphere-l40", "torus-2d"])
def test_marches_agree_on_sampled_fields(case, desk_grid):
    model, grid = {
        "desk": (PlaneWave2D(), desk_grid),
        "sphere-l40": (SphericalHarmonic(degree=40), LatLongSphere(n_lat=80, n_lon=160)),
        "torus-2d": (BandLimitedTorus(dim=2, alpha=0.0),
                     Torus(side=40 * math.pi, spacing=2 * math.pi / 8)),
    }[case]
    dec = label_domains(sample_field(model, grid, RngStream(8, 0)))
    cells = _crossing_cells(dec, _cell_signs(dec))
    assert cells.pattern.size > 1000
    _assert_marches_agree(cells)


def test_marches_agree_on_random_small_fields():
    rng = np.random.default_rng(21)
    grid = PlanarWindow(side=1.5, spacing=0.5)
    for _ in range(3000):
        values = rng.choice([-1.0, 1.0], size=(4, 4)) * rng.uniform(0.1, 1.0, size=(4, 4))
        cells = _cells(values, grid)
        # both saddle resolutions, as on coefficient-carrying fields
        cells = cells._replace(center_pos=rng.random(cells.pattern.shape) < 0.5)
        _assert_marches_agree(cells)


def test_marches_agree_on_saddle_dense_fields():
    # random signs give thousands of saddles, many of whose channels carry
    # one label, at far more than _TABLE_MIN_CELLS crossing cells: the only
    # fields where the table pass meets saddle segment rows in bulk
    rng = np.random.default_rng(41)
    grid = PlanarWindow(side=31.5, spacing=0.5)
    saddles = shared = 0
    for _ in range(20):
        values = rng.choice([-1.0, 1.0], size=(64, 64)) * rng.uniform(0.1, 1.0, size=(64, 64))
        cells = _cells(values, grid)
        cells = cells._replace(center_pos=rng.random(cells.pattern.shape) < 0.5)
        assert cells.pattern.size >= _TABLE_MIN_CELLS
        _assert_marches_agree(cells)
        # the channel joins A and C where the center takes their sign
        a, b, c, d = cells.labels
        on_ac = (cells.pattern == 5) == cells.center_pos
        saddles += int(np.count_nonzero(cells.saddle))
        shared += int(np.count_nonzero(cells.saddle & np.where(on_ac, a == c, b == d)))
    assert saddles > 5000
    assert shared > 500


def _band_cases(desk_grid):
    """(case, decomposition, cell signs) of the band-boundary test: sampled
    fields resolve their saddles at the cell center; the saddle-dense random
    fields take random saddle resolutions."""
    sampled = {
        "desk": (PlaneWave2D(), desk_grid),
        "sphere-l40": (SphericalHarmonic(degree=40), LatLongSphere(n_lat=80, n_lon=160)),
        "torus-2d": (BandLimitedTorus(dim=2, alpha=0.0),
                     Torus(side=40 * math.pi, spacing=2 * math.pi / 8)),
    }
    for case, (model, grid) in sampled.items():
        dec = label_domains(sample_field(model, grid, RngStream(8, 0)))
        signs = nodal._cell_signs(dec)
        assert signs.saddle_cells.size > 0
        yield case, dec, signs
    rng = np.random.default_rng(47)
    grid = PlanarWindow(side=31.5, spacing=0.5)
    for _ in range(3):
        values = rng.choice([-1.0, 1.0], size=(64, 64)) * rng.uniform(0.1, 1.0, size=(64, 64))
        dec = label_domains(synthetic_sample(values, grid))
        signs = nodal._cell_signs(dec)
        saddle_cells = np.flatnonzero((signs.pattern == 5) | (signs.pattern == 10))
        yield "saddle-dense", dec, signs._replace(
            saddle_cells=saddle_cells, saddle_pos=rng.random(saddle_cells.size) < 0.5)


def test_bands_match_one_band(desk_grid, monkeypatch):
    # bands of one to three cell rows put a band boundary between every few
    # rows: the bands split the one band's cells, in order, and the table
    # pass and the refined-only pass fold them to its geometry, bit for bit
    seen = set()
    for case, dec, signs in _band_cases(desk_grid):
        rows, cols = signs.pattern.shape
        whole = _crossing_cells(dec, signs)
        expected = _march_table([whole])
        assert expected == _march_loop(whole)
        for band_cells, band_rows in ((1, 1), (cols // 2, 1), (2 * cols, 2), (3 * cols + 1, 3)):
            monkeypatch.setattr(nodal, "_BAND_CELLS", band_cells)
            bands = list(_cell_bands(dec, signs))
            monkeypatch.undo()
            assert len(bands) == -(-rows // band_rows)
            assert all(band.k == whole.k and band.nodes == whole.nodes for band in bands)
            for name in whole._fields[2:]:
                got = np.concatenate([getattr(band, name) for band in bands], axis=-1)
                np.testing.assert_array_equal(got, getattr(whole, name), err_msg=name)
                assert got.dtype == getattr(whole, name).dtype, name
            geometry = _march_table(bands)
            assert geometry == expected
            assert _types(geometry) == _types(expected)
            assert _refined_areas(bands).tolist() == expected.refined_area
        seen.add(case)
    assert seen == {"desk", "sphere-l40", "torus-2d", "saddle-dense"}


def _recorded_contours(monkeypatch, march, cells):
    """The segment ends of each band that `march` hands to
    `_segment_contours`, and the contour it gets for each segment."""
    calls = []
    real = nodal._segment_contours

    def recording(bands, nodes):
        contour = real(bands, nodes)
        calls.append(([ends for _, ends in bands], contour))
        return contour

    monkeypatch.setattr(nodal, "_segment_contours", recording)
    march(cells)
    monkeypatch.undo()
    (band_ends, contour), = calls
    return band_ends, contour


def _same_partition(x, y) -> bool:
    x, y = list(x), list(y)
    return len(set(zip(x, y))) == len(set(x)) == len(set(y))


def test_contours_match_union_find_oracle(monkeypatch):
    # the crossing points are numbered band by band, each band in its own
    # window of edge ids; the segments must still fall into the contours a
    # union-find over the points gives, across band boundaries and across
    # the row seam of a 2-D torus, whose last band's bottom row is row 0
    n = 160
    sphere = label_domains(sample_field(SphericalHarmonic(degree=80),
                                        LatLongSphere(n_lat=400, n_lon=800), RngStream(7000, 0)))
    torus = label_domains(sample_field(BandLimitedTorus(dim=2, alpha=0.0),
                                       Torus(side=40 * math.pi, spacing=2 * math.pi / 8),
                                       RngStream(7000, 0)))
    assert torus.labels.shape == (n, n)
    for dec, band_cells in ((sphere, None), (sphere, 1), (torus, None), (torus, 1),
                            (torus, 3 * n + 1)):
        if band_cells is not None:
            monkeypatch.setattr(nodal, "_BAND_CELLS", band_cells)
        bands = list(_cell_bands(dec, _cell_signs(dec)))
        monkeypatch.undo()
        band_ends, contour = _recorded_contours(monkeypatch, _march_table, bands)
        ends = np.concatenate(band_ends)
        assert _same_partition(contour.tolist(), oracles.contour_partition(ends))
        band = np.repeat(np.arange(len(bands)), [e.size // 2 for e in band_ends])
        spans = np.unique(np.stack([contour, band]), axis=1)[0]
        if len(bands) > 1:  # some contours run through several bands
            assert np.count_nonzero(spans[1:] == spans[:-1]) > 10
        if dec is torus:  # crossing points on the seam, read by the last band
            assert np.count_nonzero((band_ends[-1] % 2 == 1) & (band_ends[-1] < 2 * n)) > 10
    # the per-cell loop numbers its single band the same way
    rng = np.random.default_rng(59)
    grid = PlanarWindow(side=1.5, spacing=0.5)
    for _ in range(300):
        values = rng.choice([-1.0, 1.0], size=(4, 4)) * rng.uniform(0.1, 1.0, size=(4, 4))
        cells = _cells(values, grid)
        cells = cells._replace(center_pos=rng.random(cells.pattern.shape) < 0.5)
        for march in (_march_loop, _march_one_band):
            band_ends, contour = _recorded_contours(monkeypatch, march, cells)
            ends = np.concatenate(band_ends)
            assert _same_partition(contour.tolist(), oracles.contour_partition(ends))


def test_measure_evaluates_saddle_centers_once_per_field(desk_grid, monkeypatch):
    # splitting the saddles across bands would multiply the evaluations, and
    # each batch that misses the cell-center table would pay a whole sweep
    calls = []

    def counting(sample, points):
        calls.append(points.shape[0])
        return nodal_census.sampler.evaluate_at(sample, points)

    monkeypatch.setattr(nodal, "evaluate_at", counting)
    monkeypatch.setattr(nodal, "_BAND_CELLS", 1)  # one cell row a band
    for model, grid in (
        (PlaneWave2D(), desk_grid),
        (SphericalHarmonic(degree=40), LatLongSphere(n_lat=80, n_lon=160)),
        (BandLimitedTorus(dim=2, alpha=0.0), Torus(side=40 * math.pi, spacing=2 * math.pi / 8)),
    ):
        dec = label_domains(sample_field(model, grid, RngStream(8, 0)))
        saddles = nodal._cell_signs(dec).saddle_cells.size
        assert saddles > 0
        calls.clear()
        measure_domains(dec)
        assert calls == [saddles]
        calls.clear()
        direction = sample_field(model, grid, RngStream(8, PERTURBATION_STREAM_BASE))
        perturbation_stability(dec, direction, PERTURBATION_B[0])
        assert len(calls) == 1  # the perturbed field's; the base is measured
        calls.clear()


def _table_pairs(monkeypatch, cells):
    """The (du, dv) arrays `_march_table` hands to `_hypot` on `cells`."""
    pairs = []

    def recording(du, dv):
        pairs.append((du.copy(), dv.copy()))
        return _hypot(du, dv)

    monkeypatch.setattr(nodal, "_hypot", recording)
    _march_table([cells])
    monkeypatch.undo()
    (du, dv), = pairs
    return du, dv


def _assert_hypot_bits(du, dv):
    du, dv = np.asarray(du, dtype=np.float64), np.asarray(dv, dtype=np.float64)
    want = np.array(list(map(math.hypot, du.tolist(), dv.tolist())), dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _hypot(du, dv)
    assert got.dtype == np.float64 and got.shape == du.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_hypot_matches_math_hypot_bits_on_seeded_pairs():
    rng = np.random.default_rng(2026)
    n = 1_000_000
    du, dv = (rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n) for _ in range(2))
    _assert_hypot_bits(du, dv)


def test_hypot_matches_math_hypot_bits_on_sphere_segments(monkeypatch):
    grid = LatLongSphere(n_lat=400, n_lon=800)
    dec = label_domains(sample_field(SphericalHarmonic(degree=80), grid, RngStream(7, 0)))
    du, dv = _table_pairs(monkeypatch, _crossing_cells(dec, _cell_signs(dec)))
    assert du.size > 50_000
    _assert_hypot_bits(du, dv)


@pytest.mark.parametrize("du, dv", [
    ([0.0], [0.0]),
    ([-0.0], [0.0]),
    ([0.7, 1e-200, 3e250], [0.7, 1e-200, 3e250]),
    ([-3.0], [4.0]),
    ([5e-324], [0.0]),
    ([2.2250738585072014e-308], [1e-310]),
    ([1e308], [1e308]),
    ([math.inf, -1.0, math.nan, math.nan], [math.nan, -math.inf, 2.0, 0.0]),
    ([1.0, 0.0, -2.5, 5e-324], [1e-300, -0.0, 1e-310, -5e-324]),
    ([], []),
    ([0.3], [0.4]),
], ids=["zero", "signed-zero", "equal", "3-4-5", "subnormal", "least-normal", "overflow",
        "not-finite", "mixed", "empty", "one"])
def test_hypot_matches_math_hypot_bits_on_edge_cases(du, dv):
    _assert_hypot_bits(du, dv)


def test_marches_agree_on_zero_length_segments(monkeypatch):
    # a zero node counts as positive: where it is a cell's only non-negative
    # corner, its two crossing points both lie on it and the segment between
    # them has length hypot(0, 0), which `_hypot` hands to `math.hypot`
    rng = np.random.default_rng(53)
    values = rng.choice([-1.0, 1.0], size=(32, 32)) * rng.uniform(0.1, 1.0, size=(32, 32))
    values.ravel()[rng.choice(values.size, size=150, replace=False)] = 0.0
    cells = _cells(values, PlanarWindow(side=15.5, spacing=0.5))
    assert cells.pattern.size >= _TABLE_MIN_CELLS
    du, dv = _table_pairs(monkeypatch, cells)
    assert np.count_nonzero((du == 0.0) & (dv == 0.0)) > 10
    _assert_marches_agree(cells)
    # a 4x4 window with a zero corner amid negative neighbours, on the loop
    values = -rng.uniform(0.1, 1.0, size=(4, 4))
    values[1, 2] = 0.0
    values[3, 0] = 0.8
    cells = _cells(values, PlanarWindow(side=1.5, spacing=0.5))
    assert cells.pattern.size < _TABLE_MIN_CELLS
    du, dv = _table_pairs(monkeypatch, cells)
    assert np.count_nonzero((du == 0.0) & (dv == 0.0)) == 4
    geometry = _assert_marches_agree(cells)
    assert geometry.total_length > 0.0


@pytest.mark.parametrize("case", ["torus", "sphere", "planar"])
def test_crossing_cells_match_per_cell_oracle(case):
    # the last row or column of cells on a wrapped axis (both torus axes, the
    # sphere's longitude) takes corners from the first; both marches read
    # the same cells, so a seam fault here is otherwise seen only by a digest
    sphere = LatLongSphere(n_lat=12, n_lon=24)
    window = PlanarWindow(side=4 * math.pi, spacing=2 * math.pi / 8)
    model, grid, small = {
        "torus": (BandLimitedTorus(dim=2, alpha=0.0),
                  Torus(side=40 * math.pi, spacing=2 * math.pi / 8), Torus(side=12.0, spacing=0.5)),
        "sphere": (SphericalHarmonic(degree=6), sphere, sphere),
        "planar": (PlaneWave2D(), window, window),
    }[case]
    # sampled fields resolve saddles at the cell center; random signs on a
    # small grid put crossings and saddles on every seam
    rng = np.random.default_rng(37)
    samples = [sample_field(model, grid, RngStream(37, i)) for i in range(2)]
    signs = rng.choice([-1.0, 1.0], size=(3, *small.shape))
    samples += [synthetic_sample(s * rng.uniform(0.1, 1.0, size=small.shape), small)
                for s in signs]
    saddles = 0
    for sample in samples:
        dec = label_domains(sample)
        cells = _crossing_cells(dec, _cell_signs(dec))
        expected = oracles.crossing_cells(dec)
        assert list(expected) == list(cells._fields)
        for name, want in expected.items():
            got = getattr(cells, name)
            if name in ("uniform_areas", "d0", "d1", "area"):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)
            else:
                np.testing.assert_array_equal(got, want, err_msg=name)
            assert np.asarray(got).dtype == np.asarray(want).dtype, name
        saddles += int(np.count_nonzero(cells.saddle))
    assert saddles > 0


def _march_one_band(cells):
    return _march_table([cells])


@pytest.mark.parametrize("march", [_march_loop, _march_one_band], ids=["loop", "table"])
@pytest.mark.parametrize("magnitude", [
    [[0.3, 0.9], [0.7, 0.45]],
    [[1.0, 1.0], [1.0, 1.0]],
    [[1e-3, 2.0], [0.05, 0.8]],
], ids=["uneven", "equal", "skewed"])
def test_class_rows_match_cell_geometry_oracle(march, magnitude):
    # every class of one cell, pattern + 16 * center sign, with sides
    # d0 != d1 so the two axes cannot be swapped unseen
    d0, d1 = 0.5, 0.8
    bits = np.array([[1, 8], [2, 4]])
    corners = ((0, 0), (1, 0), (1, 1), (0, 1))
    for cls in range(32):
        pattern, center_pos = cls % 16, cls >= 16
        values = np.where(pattern & bits, magnitude, -np.asarray(magnitude))
        dec = label_domains(synthetic_sample(values, PlanarWindow(side=0.5, spacing=0.5)))
        cells = _crossing_cells(dec, _cell_signs(dec))
        n, m = cells.pattern.size, cells.uniform_areas.size
        cells = cells._replace(d0=np.full(n, d0), d1=np.full(n, d1), area=np.full(n, d0 * d1),
                               uniform_areas=np.full(m, d0 * d1),
                               center_pos=np.full(n, center_pos))
        area, perimeter, counts, total = oracles.cell_geometry(
            [float(values[c]) for c in corners], [int(dec.labels[c]) for c in corners],
            d0, d1, center_pos)
        geometry = march(cells)
        labels = range(cells.k)
        assert geometry.refined_area == pytest.approx([area.get(i, 0.0) for i in labels],
                                                      rel=1e-12), cls
        assert geometry.perimeter == pytest.approx([perimeter.get(i, 0.0) for i in labels],
                                                   rel=1e-12), cls
        assert geometry.total_length == pytest.approx(total, rel=1e-12), cls
        assert geometry.boundary_components == [counts.get(i, 0) for i in labels], cls


def _refined_only(dec):
    return _refined_areas(_cell_bands(dec, _cell_signs(dec))).tolist()


@pytest.mark.parametrize("case, table", [
    ("desk", True), ("window-3pi", False), ("sphere-l20", True), ("torus-2d", True),
])
def test_refined_areas_match_measure_on_sampled_fields(case, table, desk_grid, monkeypatch):
    model, grid = {
        "desk": (PlaneWave2D(), desk_grid),
        "window-3pi": (PlaneWave2D(), PlanarWindow(side=3 * math.pi, spacing=2 * math.pi / 10)),
        "sphere-l20": (SphericalHarmonic(degree=20), LatLongSphere(n_lat=40, n_lon=80)),
        "torus-2d": (BandLimitedTorus(dim=2, alpha=1.0),
                     Torus(side=40 * math.pi, spacing=2 * math.pi / 10)),
    }[case]
    # seed 43 puts a saddle among the 65 crossing cells of the 3pi window
    dec = label_domains(sample_field(model, grid, RngStream(43, 0)))
    cells = _crossing_cells(dec, _cell_signs(dec))
    # the table pass measures at _TABLE_MIN_CELLS crossing cells, the loop below
    assert (cells.pattern.size >= _TABLE_MIN_CELLS) == table
    assert np.any(cells.saddle)
    expected = [d.refined_area for d in measure_domains(dec).domains]
    assert _refined_only(dec) == expected
    # the perturbation's refined-only pass, under a band for every cell row
    monkeypatch.setattr(nodal, "_BAND_CELLS", 1)
    assert _refined_only(dec) == expected


def test_saddle_centers_read_the_cell_center_tables(desk_grid, monkeypatch):
    # once a grid's cell-center table exists, a measured field and both
    # perturbed fields gather their saddle rows from it: a silent fallback to
    # the sweep would keep every byte and lose the time
    sphere = LatLongSphere(n_lat=80, n_lon=160)
    cases = []
    for model, grid in ((PlaneWave2D(), desk_grid), (SphericalHarmonic(degree=40), sphere)):
        sample = sample_field(model, grid, RngStream(7000, 0))
        direction = sample_field(model, grid, RngStream(7000, PERTURBATION_STREAM_BASE))
        nodal_census.sampler._grid_table(model.center_table, grid)
        cases.append((sample, direction))
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("bessel_j_orders", "legendre_matrix"):
        monkeypatch.setattr(nodal_census.sampler, name,
                            counted(name, getattr(nodal_census.sampler, name)))
    for sample, direction in cases:
        dec = label_domains(sample)
        assert nodal._cell_signs(dec).saddle_cells.size > 0
        measure_domains(dec)
        for b in PERTURBATION_B:
            perturbation_stability(dec, direction, b)
    assert calls == []
    # the counters see a batch that misses the tables
    for sample, _ in cases:
        evaluate_at(sample, np.array([[0.1, 0.1]]))
    assert calls == ["bessel_j_orders", "legendre_matrix"]


def test_refined_areas_match_measure_on_synthetic_saddles():
    # no coefficients: every saddle connects its positive corners
    rng = np.random.default_rng(23)
    grid = PlanarWindow(side=5.5, spacing=0.5)
    saddles = 0
    for _ in range(200):
        values = rng.choice([-1.0, 1.0], size=(12, 12)) * rng.uniform(0.1, 1.0, size=(12, 12))
        dec = label_domains(synthetic_sample(values, grid))
        saddles += int(np.count_nonzero(_crossing_cells(dec, _cell_signs(dec)).saddle))
        assert _refined_only(dec) == [d.refined_area for d in measure_domains(dec).domains]
    assert saddles > 1000


# sha256 of the measure outputs below; the code that also built the contour
# adjacency gave the same value
_MEASURE_DIGEST = "1f613b3ff845a4b5f1461fe8c6956705c8084924beb1a080188ab3221a00c840"


def test_measure_bytes_match_golden_digest(desk_grid):
    """The labels, domain table, refined areas and nodal length of fixed
    inputs hash to a pinned value: desk (seed 7, index 0), an l = 40 sphere
    and a 2-D torus on the table pass; twenty sampled 5pi windows (saddles
    resolved at the cell center) and 200 seeded random 4x4 windows on the
    per-cell loop.  Only a declared estimator change (ROADMAP item 1)
    updates `_MEASURE_DIGEST`, by hand."""
    digest = hashlib.sha256()

    def feed(sample):
        dec = measure_domains(label_domains(sample))
        digest.update(dec.labels.tobytes())
        digest.update(domain_table_csv(dec).encode())
        digest.update(repr([d.refined_area for d in dec.domains]).encode())
        digest.update(repr(dec.total_nodal_length).encode())

    feed(sample_field(PlaneWave2D(), desk_grid, RngStream(7, 0)))
    feed(sample_field(SphericalHarmonic(degree=40), LatLongSphere(n_lat=80, n_lon=160),
                      RngStream(7, 0)))
    feed(sample_field(BandLimitedTorus(dim=2, alpha=0.0),
                      Torus(side=40 * math.pi, spacing=2 * math.pi / 8), RngStream(7, 0)))
    small = PlanarWindow(side=5 * math.pi, spacing=2 * math.pi / 10)
    for i in range(20):
        feed(sample_field(PlaneWave2D(), small, RngStream(7, i)))
    rng = np.random.default_rng(7)
    tiny = PlanarWindow(side=1.5, spacing=0.5)
    for _ in range(200):
        values = rng.choice([-1.0, 1.0], size=(4, 4)) * rng.uniform(0.1, 1.0, size=(4, 4))
        feed(synthetic_sample(values, tiny))
    assert digest.hexdigest() == _MEASURE_DIGEST


def test_sphere_measure_transient_memory():
    # the table pass runs over bands of about 32k cells, and of each band
    # keeps only what the final fold reads (the area shares, adjacent labels
    # and ends of its segments, about 75k segments in all); the crossing
    # points are numbered in windows of one band's edge ids, with no array
    # over all 640k of them: about 13.2 MB here
    grid = LatLongSphere(n_lat=400, n_lon=800)
    dec = label_domains(sample_field(SphericalHarmonic(degree=80), grid, RngStream(7, 0)))
    tracemalloc.start()
    try:
        measure_domains(dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15.8e6


def test_torus_label_transient_memory(torus160_sample):
    # the run map goes before the components are found, counts come from
    # the runs, and the edges arrive ordered, held by _components alone,
    # which keeps only the live ones after the first hook round: about
    # 47.5 MB here
    tracemalloc.start()
    try:
        label_domains(torus160_sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 54e6


def test_torus_measure_transient_memory(torus160_sample):
    # face counting reads only the node before each face: about 17 MB here
    dec = label_domains(torus160_sample)
    tracemalloc.start()
    try:
        measure_domains(dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19.5e6


def test_class_tables_are_read_only():
    fresh = _class_tables()
    for table, expected in zip((_SEG_EDGES, _SEG_SIDES, _AREA_CORNERS, _FRAC_COLS), fresh):
        np.testing.assert_array_equal(table, expected)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def _sinsin_torus(side, spacing, dim=2):
    grid = Torus(side=side, spacing=spacing, dim=dim)
    axes = np.meshgrid(*([grid.axis_coords()] * dim), indexing="ij")
    values = np.ones_like(axes[0])
    for a in axes:
        values = values * np.sin(a)
    return synthetic_sample(values, grid)


def test_constant_field_single_domain():
    grid = PlanarWindow(side=2.0, spacing=0.5)
    dec = label_domains(synthetic_sample(np.ones((5, 5)), grid))
    assert dec.n_domains == 1
    assert dec.domains[0].sign == 1
    assert dec.domains[0].touches_window


def test_checkerboard_is_four_connected():
    grid = PlanarWindow(side=0.5, spacing=0.5)
    dec = label_domains(synthetic_sample(np.array([[1.0, -1.0], [-1.0, 1.0]]), grid))
    assert dec.n_domains == 4
    assert all(d.touches_window for d in dec.domains)


def test_torus_quadrants_match_flood_fill():
    sample = _sinsin_torus(2 * math.pi, 2 * math.pi / 64)
    dec = measure_domains(label_domains(sample))
    oracle = oracles.flood_fill_labels(np.sign(sample.values).astype(int))
    assert dec.n_domains == 4
    assert np.array_equal(dec.labels, oracle)
    np.testing.assert_allclose(dec.areas(), math.pi**2, rtol=1e-12)
    for d in dec.domains:
        assert d.perimeter == pytest.approx(4 * math.pi, rel=0.02)
        assert not d.touches_window


def test_single_cell_island_geometry():
    grid = PlanarWindow(side=2.0, spacing=0.5)
    values = -np.ones((5, 5))
    values[2, 2] = 1.0
    dec = measure_domains(label_domains(synthetic_sample(values, grid)))
    assert dec.n_domains == 2
    island = dec.domains[1]
    assert not island.touches_window
    assert island.area == grid.spacing**2
    # marching squares cuts the four corner cells diagonally
    assert island.perimeter == pytest.approx(2 * math.sqrt(2) * grid.spacing, abs=1e-12)
    assert 0.0 < island.perimeter <= 4 * grid.spacing
    assert island.boundary_components == 1
    assert dec.domains[0].boundary_components == 1


def test_partition_invariants(mini_ensemble):
    for dec in mini_ensemble:
        counts = np.bincount(dec.labels.ravel(), minlength=dec.n_domains)
        assert counts.sum() == dec.labels.size
        pos = dec.sample.values > 0
        for rec in dec.domains:
            assert counts[rec.label] == rec.node_count
            mask = dec.labels == rec.label
            assert np.all(pos[mask] == (rec.sign == 1))


def test_measure_is_idempotent(mini_ensemble):
    dec = mini_ensemble[0]
    before = [(d.perimeter, d.boundary_components, d.refined_area) for d in dec.domains]
    measure_domains(dec)
    after = [(d.perimeter, d.boundary_components, d.refined_area) for d in dec.domains]
    assert before == after


def test_sphere_areas_close(sphere_l8_dec):
    assert sphere_l8_dec.areas().sum() == pytest.approx(4 * math.pi, abs=1e-6)


def test_three_dim_octants():
    dec = measure_domains(label_domains(_sinsin_torus(2 * math.pi, 2 * math.pi / 16, dim=3)))
    assert dec.n_domains == 8
    np.testing.assert_allclose(dec.areas(), math.pi**3, rtol=1e-12)
    for d in dec.domains:
        assert d.perimeter == pytest.approx(6 * math.pi**2, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_torus_3d_faces_match_two_sided_oracle(n):
    # h^2 is inexact, so the order of the float additions shows.  One sign
    # percolates at 6-connectivity unless it is rare, so the biased fields
    # give many small domains; exact zeros count positive, and the slab
    # leaves lines of one sign on two axes
    grid = Torus(side=n * math.pi / 4, spacing=math.pi / 4, dim=3)
    assert grid.shape == (n, n, n)
    rng = np.random.default_rng(n)
    fields = [rng.normal(size=grid.shape) + bias for bias in (0.0, 1.0, -1.0)]
    fields.append(rng.integers(-1, 2, size=grid.shape).astype(float))
    slab = -np.ones(grid.shape)
    slab[0] = 1.0
    fields.append(slab)
    domains = []
    for values in fields:
        dec = measure_domains(label_domains(synthetic_sample(values, grid)))
        perimeter, total = oracles.face_perimeters_3d(dec)
        assert [d.perimeter for d in dec.domains] == perimeter.tolist()
        assert dec.total_nodal_length == total
        domains.append(dec.n_domains)
    assert max(domains) >= n**3 // 12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("grid", [PlanarWindow(side=3.0, spacing=0.5),
                                  Torus(side=2.0, spacing=0.5, dim=3)], ids=["planar", "torus3"])
def test_label_domains_rejects_non_finite_values(grid, bad):
    values = np.ones(grid.shape)
    values.flat[values.size // 2] = bad
    with pytest.raises(ValueError, match="finite"):
        label_domains(synthetic_sample(values, grid))


@pytest.mark.parametrize("seed", [7000, 7001, 7002])
def test_torus_3d_face_area_matches_kac_rice(seed):
    """Face-count surface density on the 160^3 shell torus against Kac-Rice.

    Along axis d the field is a stationary Gaussian process with covariance
    rho_d(t) = mean cos(xi_d t) over the modes, so (Rice) its zeros have
    density sqrt(-rho_d''(0)) / pi = sqrt(lam / 3) / pi, where lam is the
    mean |xi|^2 (the mode set is symmetric under axis permutations).  Each
    zero on a lattice line is one face of area h^2 per h^2 of cross-section,
    so the face area per unit volume is 3 sqrt(lam / 3) / pi: the Kac-Rice
    surface density (2 / pi) sqrt(lam / 3) times the Crofton factor 3/2.
    Sampled at spacing h, adjacent nodes differ in sign with probability
    arccos(rho_d(h)) / pi (Sheppard), which gives the lattice's own
    expectation; the continuum value sits 0.7% above it here.
    """
    grid = Torus(side=40 * math.pi, spacing=math.pi / 4, dim=3)
    sample = sample_field(BandLimitedTorus(dim=3, alpha=1.0), grid, RngStream(seed, 0))
    dec = measure_domains(label_domains(sample))
    density = dec.total_nodal_length / grid.side**3
    xi = torus_modes(grid, 1.0)[0] * (2 * math.pi / grid.side)
    lam = float(np.mean(np.sum(xi**2, axis=1)))
    assert density == pytest.approx(1.5 * (2 / math.pi) * math.sqrt(lam / 3), rel=0.02)
    h = grid.spacing
    lattice = sum(math.acos(float(np.mean(np.cos(xi[:, d] * h)))) for d in range(3))
    assert density == pytest.approx(lattice / (math.pi * h), rel=0.005)


def test_annuli_boundary_components():
    # the disc and the outer domain touch one contour, each annulus two
    grid = PlanarWindow(side=4.0, spacing=0.25)
    xx, yy = grid.node_coords()
    r = np.hypot(xx - 2.0, yy - 2.0)
    values = np.where(r < 0.7, 1.0, np.where(r < 1.3, -1.0, np.where(r < 1.9, 1.0, -1.0)))
    dec = measure_domains(label_domains(synthetic_sample(values, grid)))
    assert dec.n_domains == 4
    assert [d.boundary_components for d in dec.domains] == [1, 2, 2, 1]


def test_perturbation_zero_is_identity(mini_ensemble):
    dec = mini_ensemble[0]
    direction = sample_field(PlaneWave2D(), dec.sample.grid, RngStream(3, 2**32))
    for label, match, delta, perimeter in perturbation_stability(dec, direction, 0.0):
        assert match == label
        assert delta == 0.0
        assert perimeter > 0.0


def test_perturbation_small_shift_stays_subcell(mini_ensemble):
    dec = mini_ensemble[0]
    direction = sample_field(PlaneWave2D(), dec.sample.grid, RngStream(3, 2**32))
    result = perturbation_stability(dec, direction, 1e-3)
    assert result
    h = dec.sample.grid.spacing
    assert all(delta < h * h for _, _, delta, _ in result)


def test_perturbation_rejects_bad_arguments(mini_ensemble):
    dec = mini_ensemble[0]
    direction = sample_field(PlaneWave2D(), dec.sample.grid, RngStream(3, 2**32))
    with pytest.raises(ValueError, match=">= 0"):
        perturbation_stability(dec, direction, -1e-3)
    other = sample_field(PlaneWave2D(), PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 10),
                         RngStream(3, 2**32))
    with pytest.raises(ValueError, match="share"):
        perturbation_stability(dec, other, 1e-3)


def _perturbation_case(case, desk_grid):
    """(base decomposition, direction) of each perturbation oracle case."""
    if case == "synthetic":
        rng = np.random.default_rng(31)
        grid = PlanarWindow(side=20.0, spacing=0.5)
        base, direction = (synthetic_sample(rng.standard_normal(grid.shape), grid)
                           for _ in range(2))
        return label_domains(base), direction
    model, grid = {
        "desk": (PlaneWave2D(), desk_grid),
        "sphere-l20": (SphericalHarmonic(degree=20), LatLongSphere(n_lat=40, n_lon=80)),
        "torus-2d": (BandLimitedTorus(dim=2, alpha=1.0),
                     Torus(side=40 * math.pi, spacing=2 * math.pi / 10)),
        "torus-3d": (BandLimitedTorus(dim=3, alpha=1.0),
                     Torus(side=40 * math.pi, spacing=2 * math.pi / 8, dim=3)),
    }[case]
    seed = 7 if case == "desk" else 4
    base = label_domains(sample_field(model, grid, RngStream(seed, 0)))
    return base, sample_field(model, grid, RngStream(seed, PERTURBATION_STREAM_BASE))


@pytest.mark.parametrize("case", ["desk", "sphere-l20", "torus-2d", "synthetic", "torus-3d"])
def test_perturbation_matches_full_measure_oracle(case, desk_grid):
    base, direction = _perturbation_case(case, desk_grid)
    for b in PERTURBATION_B:
        result = perturbation_stability(base, direction, b)
        expected = oracles.perturbation_stability_oracle(base, direction, b)
        assert result
        assert result == expected
        assert _types(result) == _types(expected)


def test_critical_cells_bound_domain_count(mini_ensemble):
    for dec in mini_ensemble:
        crit = oracles.critical_cells_brute_force(dec.sample.values, dec.sample.grid)
        assert crit >= dec.n_domains
