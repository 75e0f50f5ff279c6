import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from nodal_census import (
    BandLimitedTorus,
    LatLongSphere,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    Torus,
    evaluate_at,
    helmholtz_residual,
    label_domains,
    model_from_dict,
    sample_field,
    spherical_laplacian_residual,
    synthetic_sample,
)
from nodal_census.engine import COVARIANCE_LAGS, PERTURBATION_STREAM_BASE
from nodal_census.sampler import (
    _grid_table,
    _probe_points,
    build_plane_wave_basis,
    covariance_probe_means,
    legendre_matrix,
    plane_wave_truncation,
    torus_modes,
)
from nodal_census.specfn import bessel_j_orders
from nodal_census.stats import mean_stderr
from nodal_census import sampler

TINY = PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 10)
TORUS_L = 40 * math.pi


def test_center_value_is_first_gaussian_draw():
    sample = sample_field(PlaneWave2D(), TINY, RngStream(5, 0))
    first = RngStream(5, 0).generator().standard_normal(1)[0]
    assert sample.values[5, 5] == first


def test_sampling_is_bitwise_deterministic():
    a = sample_field(PlaneWave2D(), TINY, RngStream(9, 3))
    b = sample_field(PlaneWave2D(), TINY, RngStream(9, 3))
    assert np.array_equal(a.values, b.values)
    c = sample_field(PlaneWave2D(), TINY, RngStream(9, 4))
    assert not np.array_equal(a.values, c.values)


def test_stream_independence():
    n = 1000
    x = np.empty(n)
    y = np.empty(n)
    for i in range(n):
        x[i] = sample_field(PlaneWave2D(), TINY, RngStream(21, i)).values[5, 5]
        y[i] = sample_field(PlaneWave2D(), TINY, RngStream(21, n + i)).values[5, 5]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_unit_variance_and_gaussian_marginal():
    n = 2000
    probes = np.empty((n, 3))
    for i in range(n):
        v = sample_field(PlaneWave2D(), TINY, RngStream(13, i)).values
        probes[i] = (v[5, 5], v[2, 7], v[8, 3])
    var = probes.var(axis=0, ddof=1)
    se = var * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - 1.0) <= 3.0 * se)
    z = probes[:, 0]
    skew = np.mean(z**3) / np.mean(z**2) ** 1.5
    kurt = np.mean(z**4) / np.mean(z**2) ** 2 - 3.0
    assert abs(skew) <= 3.0 * math.sqrt(6.0 / n)
    assert abs(kurt) <= 3.0 * math.sqrt(24.0 / n)


def test_plane_wave_covariance_short_lags():
    samples = [sample_field(PlaneWave2D(), TINY, RngStream(17, i)) for i in range(600)]
    means, stderrs = mean_stderr([covariance_probe_means(s, (0.0, 1.0)) for s in samples])
    for mean, stderr, target in zip(means, stderrs, (1.0, 0.7651976866)):
        assert abs(mean - target) <= 3.0 * stderr


def test_evaluate_at_matches_grid_values():
    sample = sample_field(PlaneWave2D(), TINY, RngStream(2, 0))
    xx, yy = TINY.node_coords()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    np.testing.assert_allclose(evaluate_at(sample, pts), sample.values.ravel(), atol=1e-10)


def test_grid_tables_are_shared_read_only():
    # Each model's per-grid table is built on the first draw and shared by
    # the later ones: read-only and bit-equal to its uncached public builder.
    sphere = LatLongSphere(n_lat=24, n_lon=48)
    torus = Torus(side=TORUS_L, spacing=2 * math.pi / 8)
    harmonic = SphericalHarmonic(degree=6)
    band = BandLimitedTorus(dim=2, alpha=1.0)
    for model, grid in ((PlaneWave2D(), TINY), (harmonic, sphere), (band, torus)):
        sample_field(model, grid, RngStream(1, 0))
        assert _grid_table(model.table, grid) is _grid_table(model.table, grid)

    basis, ref = _grid_table(PlaneWave2D().table, TINY), build_plane_wave_basis(TINY)
    pairs = [(basis.cos_basis, ref.cos_basis), (basis.sin_basis, ref.sin_basis)]
    legendre = _grid_table(harmonic.table, sphere)
    pairs.append((legendre, legendre_matrix(6, np.cos(sphere.colatitudes()))))
    (modes, lo), (ref_modes, ref_lo) = _grid_table(band.table, torus), torus_modes(torus, 1.0)
    assert lo == ref_lo
    pairs.append((modes, ref_modes))
    for table, expected in pairs:
        assert table.dtype == expected.dtype
        np.testing.assert_array_equal(table, expected)
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0


# the smoke desk, and 21 cells a side: the window center is a cell center
CENTER_TABLE_WINDOWS = [
    PlanarWindow(side=18 * math.pi, spacing=2 * math.pi / 10),
    PlanarWindow(side=10.5, spacing=0.5),
]


@pytest.mark.parametrize("grid", CENTER_TABLE_WINDOWS, ids=["desk-18pi", "odd-21"])
def test_plane_wave_basis_matches_column_oracle(grid):
    # the basis is built in blocks of nodes (8,281 nodes on the smoke desk,
    # 484 in the odd window, neither a whole number of blocks); every value
    # is the one the column-by-column build gives, and the shared table is
    # C-ordered and read-only
    table = PlaneWave2D().table(grid)
    built = build_plane_wave_basis(grid)
    expected = oracles.plane_wave_basis_columns(grid)
    for basis in (table, built):
        for got, want in zip((basis.cos_basis, basis.sin_basis), expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
    assert not table.cos_basis.flags.writeable and not table.sin_basis.flags.writeable


def _under_blas_threads(threads: int, script: str) -> str:
    """Standard output of `script` in a fresh interpreter whose BLAS runs
    `threads` threads: the variables are set before numpy loads."""
    src = str(Path(sampler.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


_BLOCKED_AGAINST_WHOLE = """
import json, math
from nodal_census import PlanarWindow, PlaneWave2D, RngStream
from nodal_census.sampler import _grid_table
model, out = PlaneWave2D(), {}
for n in (201, 91, 26):
    grid = PlanarWindow(side=(n - 1) * math.pi / 5, spacing=2 * math.pi / 10)
    basis = _grid_table(model.table, grid)
    coeffs = [model.draw(grid, RngStream(7, i)) for i in range(3)]
    fields = model.synthesize(grid, *coeffs)
    out[n] = [basis.cos_basis.shape[0]] + [
        (basis.cos_basis @ c["a"] + basis.sin_basis @ c["b"]).tobytes()
        == v.reshape(-1).tobytes() for c, v in zip(coeffs, fields)
    ]
print(json.dumps(out))
"""


def test_blocked_synthesis_is_the_whole_table_product_on_one_blas_thread():
    # One pass in blocks of 1,024 rows, three fields at once, gives each
    # field the bytes of cos_basis @ a + sin_basis @ b, on the desk (whose
    # last block has 465 rows), a 91^2 window and one smaller than a block.
    out = json.loads(_under_blas_threads(1, _BLOCKED_AGAINST_WHOLE))
    assert out == {"201": [201**2, True, True, True], "91": [91**2, True, True, True],
                   "26": [26**2, True, True, True]}
    assert 201**2 % sampler._BASIS_BLOCK == 465 and sampler._BASIS_BLOCK % 4 == 0


_DESK_FIELD_DIGESTS = """
import hashlib, math
from nodal_census import PlanarWindow, PlaneWave2D, RngStream, sample_field
grid = PlanarWindow(side=40 * math.pi, spacing=2 * math.pi / 10)
for i in range(12):
    values = sample_field(PlaneWave2D(), grid, RngStream(7, i)).values
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_desk_fields_do_not_depend_on_blas_threads():
    # The whole-table product under 2 BLAS threads splits its rows where a
    # 4-row group does not start, and changed 5 of these 12 fields in their
    # last digits; each blocked product runs on one thread.
    one, two = (_under_blas_threads(t, _DESK_FIELD_DIGESTS).split() for t in (1, 2))
    assert len(one) == 12
    assert one == two


@pytest.mark.parametrize("model, grid", [
    (PlaneWave2D(), PlanarWindow(side=18 * math.pi, spacing=2 * math.pi / 10)),
    (SphericalHarmonic(degree=6), LatLongSphere(n_lat=24, n_lon=48)),
    (BandLimitedTorus(dim=2, alpha=1.0), Torus(side=TORUS_L, spacing=2 * math.pi / 8)),
], ids=["plane", "sphere", "torus"])
def test_sample_field_streams_together_are_the_streams_alone(model, grid):
    # a realization's field and its perturbation direction, as the engine
    # draws them in one call, are the samples each stream gives alone
    streams = [RngStream(7, 3), RngStream(7, PERTURBATION_STREAM_BASE + 3)]
    together = sample_field(model, grid, *streams)
    assert isinstance(together, list) and len(together) == 2
    for sample, stream in zip(together, streams):
        alone = sample_field(model, grid, stream)
        assert sample.stream == stream and sample.grid == grid and sample.model == model
        assert sample.values.shape == grid.shape
        assert sample.values.tobytes() == alone.values.tobytes()
        assert all(np.array_equal(sample.coeffs[k], alone.coeffs[k]) for k in alone.coeffs)


def test_covariance_probe_rows_are_the_sweeps(monkeypatch):
    # the plane wave reads the probes' rows from its per-(grid, lags) table:
    # each is the row a sweep over every probe gives, and so are the means
    grid = PlanarWindow(side=18 * math.pi, spacing=2 * math.pi / 10)
    model = PlaneWave2D()
    radii, rows = _grid_table(model.probe_table, grid, COVARIANCE_LAGS)
    assert _grid_table(model.probe_table, grid, COVARIANCE_LAGS)[1] is rows
    assert not rows.flags.writeable
    cx, cy = grid.center
    pts = _probe_points(grid, COVARIANCE_LAGS)
    r = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    n_trunc = plane_wave_truncation(grid.max_radius())
    assert rows[np.searchsorted(radii, r)].tobytes() == bessel_j_orders(n_trunc, r).tobytes()
    samples = [sample_field(model, grid, RngStream(11, i)) for i in range(3)]
    fast = [covariance_probe_means(s, COVARIANCE_LAGS) for s in samples]
    monkeypatch.setattr(sampler, "_table_rows", lambda table, at: None)
    for sample, means in zip(samples, fast):
        assert covariance_probe_means(sample, COVARIANCE_LAGS).tobytes() == means.tobytes()


def _center_points(grid):
    cu, cv = grid.cell_centers()
    return np.stack([np.repeat(cu, cv.size), np.tile(cv, cu.size)], axis=1)


@pytest.mark.parametrize("grid", CENTER_TABLE_WINDOWS, ids=["desk-18pi", "odd-21"])
def test_plane_wave_center_table_rows_are_the_sweeps(grid):
    # every cell-center radius is below the window radius R < N, so every
    # batch of them starts its sweep at the same order: a row depends on its
    # radius alone
    radii, rows = _grid_table(PlaneWave2D().center_table, grid)
    assert not rows.flags.writeable
    n_trunc = plane_wave_truncation(grid.max_radius())
    for i in range(radii.size):
        assert np.array_equal(rows[i], bessel_j_orders(n_trunc, radii[i : i + 1])[0])
    cx, cy = grid.center
    pts = _center_points(grid)
    r = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    assert np.array_equal(rows[np.searchsorted(radii, r)], bessel_j_orders(n_trunc, r))
    assert (radii[0] == 0.0) == (grid.n_intervals % 2 == 1)


def test_sphere_center_table_rows_are_legendre_rows():
    grid = LatLongSphere(n_lat=40, n_lon=80)
    theta, rows = _grid_table(SphericalHarmonic(degree=8).center_table, grid)
    assert not rows.flags.writeable
    assert np.array_equal(theta, grid.cell_centers()[0])
    for i in range(theta.size):
        assert np.array_equal(rows[i], legendre_matrix(8, np.cos(theta[i : i + 1]))[0])
    np.testing.assert_array_equal(rows, legendre_matrix(8, np.cos(theta)))


@pytest.mark.parametrize("model, grid, extra", [
    (PlaneWave2D(), CENTER_TABLE_WINDOWS[0], "nodes"),
    (PlaneWave2D(), CENTER_TABLE_WINDOWS[0], "beyond"),
    (PlaneWave2D(), CENTER_TABLE_WINDOWS[1], "nodes"),
    (SphericalHarmonic(degree=8), LatLongSphere(n_lat=40, n_lon=80), "nodes"),
], ids=["desk-18pi-nodes", "desk-18pi-beyond", "odd-21-nodes", "sphere-nodes"])
def test_evaluate_at_gathers_the_sweep_values(model, grid, extra, monkeypatch):
    # a batch of cell centers reads the table; one with any other point is
    # swept whole, as before: both give the sweep's values, bit for bit
    sample = sample_field(model, grid, RngStream(11, 0))
    centers = _center_points(grid)[::7]
    if extra == "nodes":  # the first, middle and last node of each axis
        axes = grid.axes()
        other = np.stack([axes[0][[0, axes[0].size // 2, -1]], axes[1][[0, 3, -1]]], axis=1)
    else:  # past the window radius, which raises the sweep's start order
        other = np.array([[grid.side * 1.2, grid.side * 1.3]])
    batches = [centers, np.concatenate([centers, other]), np.concatenate([other, centers])]
    fast = [evaluate_at(sample, pts) for pts in batches]
    monkeypatch.setattr(sampler, "_table_rows", lambda table, at: None)
    for pts, values in zip(batches, fast):
        assert evaluate_at(sample, pts).tobytes() == values.tobytes()


@pytest.mark.parametrize("model, grid, message", [
    (PlaneWave2D(), Torus(side=TORUS_L, spacing=2 * math.pi / 8), "needs a PlanarWindow grid"),
    (BandLimitedTorus(dim=2), TINY, "needs a Torus grid of matching dimension"),
    (BandLimitedTorus(dim=3), Torus(side=TORUS_L, spacing=2 * math.pi / 8),
     "needs a Torus grid of matching dimension"),
    (SphericalHarmonic(degree=2), TINY, "needs a LatLongSphere grid"),
    ("plane_wave", TINY, "unknown model"),
], ids=["plane-on-torus", "band-on-plane", "band-wrong-dim", "harmonic-on-plane", "unknown"])
def test_sample_field_rejects_model_grid_mismatch(model, grid, message):
    with pytest.raises(ValueError, match=message):
        sample_field(model, grid, RngStream(0, 0))


def test_window_radius_guard():
    big = PlanarWindow(side=700 * (2 * math.pi / 10), spacing=2 * math.pi / 10)
    with pytest.raises(ValueError, match="at most 300"):
        sample_field(PlaneWave2D(), big, RngStream(0, 0))


def test_torus_opposite_faces_bitwise():
    model = BandLimitedTorus(dim=2, alpha=0.0)
    grid = Torus(side=TORUS_L, spacing=2 * math.pi / 8)
    sample = sample_field(model, grid, RngStream(11, 0))
    pts = np.array(
        [[0.0, 5.0], [TORUS_L, 5.0], [7.0, 0.0], [7.0, TORUS_L]]
    )
    vals = evaluate_at(sample, pts)
    assert vals[0] == vals[1]
    assert vals[2] == vals[3]


def _oracle_cases():
    for alpha in (0.0, 0.7, 1.0):
        yield pytest.param(3, 160, alpha, None, id=f"3-160-{alpha}")
    # a legal 3-D torus has n >= 160; the blocks split axis 1: 164 is no
    # multiple of 3, a block of 1 is one axis-1 index, and a block wider
    # than n holds the whole grid
    yield pytest.param(3, 164, 0.5, None, id="3-164-0.5")
    yield pytest.param(3, 164, 0.5, 3, id="3-164-0.5-block3")
    yield pytest.param(3, 160, 0.7, 1, id="3-160-0.7-block1")
    yield pytest.param(3, 164, 1.0, 256, id="3-164-1.0-block256")
    for n in (160, 164, 225):
        for alpha in (0.0, 0.5, 0.9, 0.99, 1.0):
            yield pytest.param(2, n, alpha, None, id=f"2-{n}-{alpha}")


@pytest.mark.parametrize("dim, n, alpha, block", _oracle_cases())
def test_torus_values_match_full_grid_oracle(dim, n, alpha, block, monkeypatch):
    # the pruned, blocked transform must give ifftn's bytes, not just close values
    if block is not None:
        monkeypatch.setattr(sampler, "_TORUS_BLOCK", block)
    model = BandLimitedTorus(dim=dim, alpha=alpha)
    grid = Torus(side=TORUS_L, spacing=TORUS_L / n, dim=dim)
    stream = RngStream(7, n)
    values = sample_field(model, grid, stream).values
    expected = oracles.full_grid_torus_values(model, grid, stream)
    assert values.dtype == np.float64
    assert values.flags.c_contiguous
    assert values.shape == (n,) * dim
    assert np.array_equal(values, expected)
    assert values.tobytes() == expected.tobytes()


def test_torus_synthesis_transient_memory(torus160_sample):
    # the axis-0 inverse-FFT pass runs one block of axis-1 indices at a
    # time: about 53.1 MB here, against 98.5 MB for whole-grid passes
    model, grid = torus160_sample.model, torus160_sample.grid
    tracemalloc.start()
    try:
        sample = sample_field(model, grid, RngStream(7, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 55e6
    assert np.array_equal(sample.values, torus160_sample.values)


@pytest.mark.parametrize("dim, alpha", [(2, 0.0), (3, 1.0)])
def test_torus_evaluation_does_not_depend_on_the_batch(dim, alpha):
    grid = Torus(side=TORUS_L, spacing=2 * math.pi / 8, dim=dim)
    sample = sample_field(BandLimitedTorus(dim=dim, alpha=alpha), grid, RngStream(5, dim))
    pts = np.random.default_rng(dim).uniform(0.0, TORUS_L, size=(32, dim))
    whole = evaluate_at(sample, pts)
    for size in (8, 1):
        parts = [evaluate_at(sample, pts[i : i + size]) for i in range(0, 32, size)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

def test_torus_3d_values_and_faces():
    grid = Torus(side=TORUS_L, spacing=math.pi / 4, dim=3)
    sample = sample_field(BandLimitedTorus(dim=3, alpha=1.0), grid, RngStream(7, 0))
    rng = np.random.default_rng(160)
    nodes = rng.integers(0, grid.n_intervals, size=(200, 3))
    vals = evaluate_at(sample, grid.axis_coords()[nodes])
    np.testing.assert_allclose(vals, sample.values[tuple(nodes.T)], rtol=0, atol=1e-10)
    pts = rng.uniform(0.0, TORUS_L, size=(50, 3))
    for ax in range(3):
        low, high = pts.copy(), pts.copy()
        low[:, ax] = 0.0
        high[:, ax] = TORUS_L
        assert np.array_equal(evaluate_at(sample, low), evaluate_at(sample, high))


def test_torus_covariance_matches_band_kernel():
    """2000 samples against the annulus kernel, by quadrature, at three lags."""
    model = BandLimitedTorus(dim=2, alpha=0.0)
    grid = Torus(side=TORUS_L, spacing=2 * math.pi / 8)
    lags = (1.0, 2.0, 5.0)
    rows = np.array(
        [covariance_probe_means(sample_field(model, grid, RngStream(11, i)), lags)
         for i in range(2000)]
    )
    means = rows.mean(axis=0)
    stderrs = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    for lag, mean, stderr in zip(lags, means, stderrs):
        assert abs(mean - oracles.mp_band_kernel(2, 0.0, lag)) <= 3.0 * stderr


def test_torus_node_variance():
    model = BandLimitedTorus(dim=2, alpha=0.0)
    grid = Torus(side=TORUS_L, spacing=2 * math.pi / 8)
    n = 2000
    vals = np.array(
        [sample_field(model, grid, RngStream(29, i)).values[40, 95] for i in range(n)]
    )
    var = vals.var(ddof=1)
    assert abs(var - 1.0) <= 3.0 * var * math.sqrt(2.0 / (n - 1))


def test_torus_alpha_one_shell():
    model = BandLimitedTorus(dim=2, alpha=1.0)
    grid = Torus(side=TORUS_L, spacing=2 * math.pi / 8)
    sample = sample_field(model, grid, RngStream(3, 0))
    assert np.isfinite(sample.values).all()
    # every kept frequency sits in the shell [1 - 2pi/L, 1]
    xi = torus_modes(grid, 1.0)[0] * (2 * math.pi / TORUS_L)
    norms = np.hypot(xi[:, 0], xi[:, 1])
    assert np.all(norms >= 1.0 - 2 * math.pi / TORUS_L - 1e-12)
    assert np.all(norms <= 1.0 + 1e-12)


def test_torus_empty_band_names_minimal_side():
    # at side 41pi the annulus [0.997, 1] misses every lattice frequency
    grid = Torus(side=41 * math.pi, spacing=2 * math.pi / 8)
    with pytest.raises(ValueError, match="increase the side"):
        sample_field(BandLimitedTorus(dim=2, alpha=0.997), grid, RngStream(0, 0))


def test_torus_too_small_rejected():
    grid = Torus(side=20 * math.pi, spacing=2 * math.pi / 8)
    with pytest.raises(ValueError, match="too small"):
        sample_field(BandLimitedTorus(dim=2, alpha=0.0), grid, RngStream(0, 0))


def test_sphere_pole_equator_isotropy():
    model = model_from_dict({"type": "spherical_harmonic", "degree": 8})
    grid = LatLongSphere(n_lat=40, n_lon=80)
    n = 2000
    probes = np.array(
        [
            (s.values[0, 0], s.values[20, 0])
            for s in (sample_field(model, grid, RngStream(19, i)) for i in range(n))
        ]
    )
    var = probes.var(axis=0, ddof=1)
    se = var * math.sqrt(2.0 / (n - 1))
    assert abs(var[0] - var[1]) <= 3.0 * math.hypot(se[0], se[1])
    assert np.all(np.abs(var - 1.0) <= 3.0 * se)


def test_sphere_degree_one_has_two_domains():
    grid = LatLongSphere(n_lat=8, n_lon=16)
    for i in range(10):
        sample = sample_field(model_from_dict(
            {"type": "spherical_harmonic", "degree": 1}), grid, RngStream(4, i))
        assert label_domains(sample).n_domains == 2


def test_sphere_laplacian_second_order():
    model = model_from_dict({"type": "spherical_harmonic", "degree": 8})
    coarse = spherical_laplacian_residual(
        sample_field(model, LatLongSphere(n_lat=40, n_lon=80), RngStream(2, 0))
    )
    fine = spherical_laplacian_residual(
        sample_field(model, LatLongSphere(n_lat=80, n_lon=160), RngStream(2, 0))
    )
    assert 3.0 <= coarse / fine <= 5.0


def test_sphere_resolution_guard():
    with pytest.raises(ValueError):
        sample_field(
            model_from_dict({"type": "spherical_harmonic", "degree": 8}),
            LatLongSphere(n_lat=16, n_lon=16),
            RngStream(0, 0),
        )


def test_helmholtz_exact_lattice_eigenfunction():
    grid = PlanarWindow(side=10 * math.pi, spacing=2 * math.pi / 10)
    xx, _ = grid.node_coords()
    res = helmholtz_residual(synthetic_sample(np.sin(xx), grid))
    h = grid.spacing
    expected = abs(1.0 - 2.0 * (1.0 - math.cos(h)) / (h * h))
    assert res == pytest.approx(expected, rel=1e-12)


def test_helmholtz_zero_field_rejected():
    grid = PlanarWindow(side=2.0, spacing=0.5)
    with pytest.raises(ValueError, match="zero norm"):
        helmholtz_residual(synthetic_sample(np.zeros((5, 5)), grid))


def test_model_validation():
    with pytest.raises(ValueError):
        model_from_dict({"type": "band_limited", "dim": 2, "alpha": 1.5})
    with pytest.raises(ValueError):
        model_from_dict({"type": "band_limited", "dim": 4, "alpha": 0.5})
    with pytest.raises(ValueError):
        model_from_dict({"type": "spherical_harmonic", "degree": 0})
    for d in (
        {"type": "plane_wave"},
        {"type": "band_limited", "dim": 3, "alpha": 0.25},
        {"type": "spherical_harmonic", "degree": 12},
    ):
        assert model_from_dict(d).to_dict() == d
