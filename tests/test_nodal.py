import hashlib
import math

import numpy as np
import pytest

import oracles
from nodal_census import (
    BandLimitedTorus,
    DomainRecord,
    LatLongSphere,
    NodalDecomposition,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    Torus,
    critical_cell_count,
    domain_table_csv,
    label_domains,
    measure_domains,
    nesting_graph,
    nesting_is_forest,
    perturbation_stability,
    restrict_counts,
    sample_field,
    synthetic_sample,
)
from nodal_census.nodal import (
    _AREA_CORNERS,
    _FRAC_COLS,
    _ONE_POSITIVE,
    _SEG_EDGES,
    _SEG_SIDES,
    _cell_tables,
    _class_tables,
    _components,
    _crossing_cells,
    _march_loop,
    _march_table,
)


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


@pytest.mark.parametrize("n, edges", _graph_cases())
def test_components_match_breadth_first_search(n, edges):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    labels = _components(n, edges[:, 0], edges[:, 1])
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
def test_labels_match_node_pair_oracle(grid, fields):
    for values in fields:
        labels = label_domains(synthetic_sample(values, grid)).labels
        assert labels.dtype == np.int32
        expected = oracles.node_pair_labels(values >= 0, grid.wraps)
        np.testing.assert_array_equal(labels, expected)


def _geometry(dec):
    return (
        [(d.perimeter, d.refined_area, d.boundary_components) for d in dec.domains],
        dec.contour_adjacency,
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
    loop, table = _march_loop(cells), _march_table(cells)
    assert table == loop
    assert _types(table) == _types(loop)
    return loop


def _cells(values, grid=None, center_pos=None):
    values = np.asarray(values, dtype=np.float64)
    grid = grid or PlanarWindow(side=0.5 * (values.shape[0] - 1), spacing=0.5)
    cells = _crossing_cells(label_domains(synthetic_sample(values, grid)))
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
    assert geometry.contour_adjacency == []


@pytest.mark.parametrize("case", ["desk", "sphere-l40", "torus-2d"])
def test_marches_agree_on_sampled_fields(case, desk_grid):
    model, grid = {
        "desk": (PlaneWave2D(), desk_grid),
        "sphere-l40": (SphericalHarmonic(degree=40), LatLongSphere(n_lat=80, n_lon=160)),
        "torus-2d": (BandLimitedTorus(dim=2, alpha=0.0),
                     Torus(side=40 * math.pi, spacing=2 * math.pi / 8)),
    }[case]
    cells = _crossing_cells(label_domains(sample_field(model, grid, RngStream(8, 0))))
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


@pytest.mark.parametrize("march", [_march_loop, _march_table], ids=["loop", "table"])
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
        cells = _crossing_cells(dec)
        n, m = cells.pattern.size, cells.uniform_areas.size
        cells = cells._replace(d0=np.full(n, d0), d1=np.full(n, d1), area=np.full(n, d0 * d1),
                               uniform_areas=np.full(m, d0 * d1),
                               center_pos=np.full(n, center_pos))
        area, perimeter, contours, counts, total = oracles.cell_geometry(
            [float(values[c]) for c in corners], [int(dec.labels[c]) for c in corners],
            d0, d1, center_pos)
        geometry = march(cells)
        labels = range(cells.k)
        assert geometry.refined_area == pytest.approx([area.get(i, 0.0) for i in labels],
                                                      rel=1e-12), cls
        assert geometry.perimeter == pytest.approx([perimeter.get(i, 0.0) for i in labels],
                                                   rel=1e-12), cls
        assert geometry.total_length == pytest.approx(total, rel=1e-12), cls
        assert sorted(geometry.contour_adjacency) == contours, cls
        assert geometry.boundary_components == [counts.get(i, 0) for i in labels], cls


# sha256 of the measure outputs below; the per-cell loop gave the same value
# when it still spelled out each sign pattern
_MEASURE_DIGEST = "9737663cd9b130cbaddd7090ee63f843819410b69a42eea133ce13d563e9b4a8"


def test_measure_bytes_match_golden_digest(desk_grid):
    """The labels, domain table, refined areas, nodal length and contour
    adjacency of fixed inputs hash to a pinned value: desk (seed 7, index
    0), an l = 40 sphere and a 2-D torus on the table pass; twenty sampled
    5pi windows (saddles resolved at the cell center) and 200 seeded random
    4x4 windows on the per-cell loop.  Only a declared estimator change
    (ROADMAP item 1) updates `_MEASURE_DIGEST`, by hand."""
    digest = hashlib.sha256()

    def feed(sample):
        dec = measure_domains(label_domains(sample))
        digest.update(dec.labels.tobytes())
        digest.update(domain_table_csv(dec).encode())
        digest.update(repr([d.refined_area for d in dec.domains]).encode())
        digest.update(repr(dec.total_nodal_length).encode())
        digest.update(repr(dec.contour_adjacency).encode())

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


def test_class_tables_are_read_only():
    fresh = _class_tables()
    for table, expected in zip((_SEG_EDGES, _SEG_SIDES, _AREA_CORNERS, _FRAC_COLS, _ONE_POSITIVE),
                               fresh):
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
    assert nesting_graph(dec).edges == [(0, 1)]


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
    xi = sample.coeffs["modes"] * (2 * math.pi / grid.side)
    lam = float(np.mean(np.sum(xi**2, axis=1)))
    assert density == pytest.approx(1.5 * (2 / math.pi) * math.sqrt(lam / 3), rel=0.02)
    h = grid.spacing
    lattice = sum(math.acos(float(np.mean(np.cos(xi[:, d] * h)))) for d in range(3))
    assert density == pytest.approx(lattice / (math.pi * h), rel=0.005)


def test_restrict_counts_quadrant():
    grid = PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 8)
    xx, yy = grid.node_coords()
    dec = label_domains(synthetic_sample(np.sin(xx) * np.sin(yy), grid))
    # ball of radius 1 at the first quadrant's center: the quadrant meets it
    # but its corner nodes stick out, and no other domain reaches in
    assert restrict_counts(dec, (math.pi / 2, math.pi / 2), 1.0, math.inf) == (0, 1)


def test_restrict_counts_saturate_and_monotone():
    dec = label_domains(_sinsin_torus(4 * math.pi, 2 * math.pi / 8))
    center = dec.sample.grid.center
    assert dec.n_domains == 16
    assert restrict_counts(dec, center, 100.0, math.inf) == (16, 16)
    n1, m1 = restrict_counts(dec, center, 2.0, math.inf)
    n2, m2 = restrict_counts(dec, center, 5.0, math.inf)
    assert n1 <= n2 and m1 <= m2


def test_restrict_counts_rejects_escaping_ball():
    grid = PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 8)
    dec = label_domains(synthetic_sample(np.ones((9, 9)), grid))
    with pytest.raises(ValueError, match="does not fit in the window"):
        restrict_counts(dec, (1.0, 1.0), 2.0, math.inf)


def test_nesting_annuli_form_a_path():
    grid = PlanarWindow(side=4.0, spacing=0.25)
    xx, yy = grid.node_coords()
    r = np.hypot(xx - 2.0, yy - 2.0)
    values = np.where(r < 0.7, 1.0, np.where(r < 1.3, -1.0, np.where(r < 1.9, 1.0, -1.0)))
    dec = label_domains(synthetic_sample(values, grid))
    graph = nesting_graph(dec)
    assert dec.n_domains == 4
    assert graph.edges == [(0, 1), (1, 2), (2, 3)]
    assert sorted(graph.degrees.tolist()) == [1, 1, 2, 2]
    assert not graph.interior
    assert nesting_is_forest(dec)


def test_nesting_cycle_is_not_a_forest():
    # one contour between positive {0, 2} and negative {1, 3}: the nesting
    # edges 0-1, 1-2, 2-3, 3-0 close a cycle among interior domains
    grid = PlanarWindow(side=2.0, spacing=0.5)
    domains = [
        DomainRecord(label=i, sign=(-1) ** i, area=1.0, node_count=1, touches_window=False)
        for i in range(4)
    ]
    dec = NodalDecomposition(
        sample=synthetic_sample(np.ones((5, 5)), grid),
        labels=np.zeros((5, 5), dtype=np.int32),
        domains=domains,
        connectivity="4-connected",
        measured=True,
        contour_adjacency=[((0, 2), (1, 3))],
    )
    assert nesting_graph(dec).edges == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert not nesting_is_forest(dec)
    # a domain on the window edge leaves the interior graph: a path remains
    domains[3].touches_window = True
    assert nesting_is_forest(dec)


def test_nesting_boundary_cut_domains():
    grid = PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 8)
    xx, yy = grid.node_coords()
    dec = label_domains(synthetic_sample(np.sin(xx) * np.sin(yy), grid))
    graph = nesting_graph(dec)
    assert all(d.touches_window for d in dec.domains)
    assert not graph.interior


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


@pytest.mark.parametrize("grid, center", [
    (PlanarWindow(side=6.0, spacing=0.25), None),
    (Torus(side=6.0, spacing=0.25), None),
    (Torus(side=6.0, spacing=0.25), (0.4, 5.3)),
], ids=["plane", "torus", "torus-off-centre"])
def test_critical_cells_match_brute_force(grid, center):
    rng = np.random.default_rng(17)
    for _ in range(3):
        sample = synthetic_sample(rng.standard_normal(grid.shape), grid)
        for radius in (None, 1.3, 2.9):
            expected = oracles.critical_cells_brute_force(
                sample.values, grid, center or grid.center, radius)
            assert critical_cell_count(sample, center, radius) == expected
        assert 0 < critical_cell_count(sample, center, 1.3) < critical_cell_count(sample)


def test_critical_cells_bound_domain_count(mini_ensemble):
    for dec in mini_ensemble:
        assert critical_cell_count(dec.sample) >= dec.n_domains
