import math
import tracemalloc

import numpy as np
import pytest

import oracles
from nodal_census import (
    BandLimitedTorus,
    EmpiricalCdf,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    Torus,
    boundary_and_joint_distributions,
    faber_krahn_check,
    ks_distance,
    label_domains,
    nodal_length_density,
    ns_constant_estimate,
    psi_estimate,
    sandwich_check_many,
    sample_field,
    synthetic_sample,
)
from nodal_census.engine import DEFAULT_SANDWICH_GEOMETRIES
from nodal_census.stats import _lattice_offsets, _row_runs, census_record, fold_boundary

FK_FLOOR = 18.168414535536805


def _sinsin_torus(side, spacing):
    grid = Torus(side=side, spacing=spacing)
    c = grid.axis_coords()
    xx, yy = np.meshgrid(c, c, indexing="ij")
    return synthetic_sample(np.sin(xx) * np.sin(yy), grid)


def _island_dec(n_cells):
    """One rectangular positive island of `n_cells` grid cells, area n*h^2."""
    grid = PlanarWindow(side=4.0, spacing=0.5)
    values = -np.ones(grid.shape)
    values[4, 3 : 3 + n_cells] = 1.0
    return label_domains(synthetic_sample(values, grid))


class TestEmpiricalCdf:
    def test_step_values(self):
        cdf = EmpiricalCdf.from_values([1.0, 2.0, 3.0])
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(1.0) == pytest.approx(1 / 3)
        assert cdf.evaluate(2.5) == pytest.approx(2 / 3)
        assert cdf.evaluate(3.0) == 1.0
        assert cdf.evaluate(100.0) == 1.0

    def test_monotone_and_right_continuous(self):
        cdf = EmpiricalCdf.from_values([3.0, 1.0, 1.0, 2.0])
        assert np.all(np.diff(cdf.fractions) >= 0)
        eps = 1e-12
        grid = np.concatenate([cdf.breakpoints, cdf.breakpoints + eps])
        assert np.all(cdf.evaluate(grid) >= cdf.evaluate(grid - eps) - 1e-15)
        assert cdf.evaluate(1.0) == cdf.evaluate(1.0 + eps)

    def test_dict_round_trip(self):
        cdf = EmpiricalCdf.from_values([0.5, 0.5, 4.0])
        back = EmpiricalCdf.from_dict(cdf.to_dict())
        assert np.array_equal(back.breakpoints, cdf.breakpoints)
        assert np.array_equal(back.fractions, cdf.fractions)
        assert back.total_count == cdf.total_count

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_values([])


def test_ks_distance_cases():
    a = EmpiricalCdf.from_values([1.0])
    b = EmpiricalCdf.from_values([2.0])
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, b) == 1.0
    c = EmpiricalCdf.from_values([1.0, 2.0])
    assert ks_distance(c, b) == pytest.approx(0.5)


def test_psi_from_island_areas():
    decs = [_island_dec(k) for k in (1, 2, 3)]
    h = decs[0].sample.grid.spacing
    cdf = psi_estimate(decs, volume_scale=1.0 / h**2)
    np.testing.assert_allclose(cdf.breakpoints, [1.0, 2.0, 3.0])
    assert cdf.evaluate(2.5) == pytest.approx(2 / 3)
    doubled = psi_estimate(decs, volume_scale=2.0 / h**2)
    np.testing.assert_allclose(doubled.breakpoints, [2.0, 4.0, 6.0])


def test_psi_requires_interior_domains():
    grid = PlanarWindow(side=2.0, spacing=0.5)
    dec = label_domains(synthetic_sample(np.ones((5, 5)), grid))
    with pytest.raises(ValueError, match="no interior domains"):
        psi_estimate([dec])
    with pytest.raises(ValueError, match="volume scale"):
        psi_estimate([dec], volume_scale=0.0)
    with pytest.raises(ValueError, match="at least one"):
        psi_estimate([])
    other = label_domains(synthetic_sample(np.ones((7, 7)), PlanarWindow(side=3.0, spacing=0.5)))
    with pytest.raises(ValueError, match="different models or grids"):
        psi_estimate([dec, other])


def test_sandwich_brackets_ball_count():
    dec = label_domains(_sinsin_torus(4 * math.pi, 2 * math.pi / 8))
    verdicts = sandwich_check_many(
        dec, [(math.pi / 4, 1.5 * math.pi), (math.pi / 2, 1.5 * math.pi)], [math.inf]
    )
    for v in verdicts:
        assert v.holds
        assert v.lower <= v.middle <= v.upper
        assert v.middle == 4
        assert v.upper - v.lower >= 0


def test_sandwich_threshold_cuts_counts():
    dec = label_domains(_sinsin_torus(4 * math.pi, 2 * math.pi / 8))
    small, big = sandwich_check_many(
        dec, [(math.pi / 2, 1.5 * math.pi)], [1.0, math.inf]
    )
    assert small.holds and big.holds
    assert small.middle == 0  # every quadrant has area pi^2 > 1
    assert small.upper <= big.upper


def _sandwich_cases():
    thresholds = (20.0, 50.0, math.inf)
    desk = PlanarWindow(side=40 * math.pi, spacing=2 * math.pi / 10)
    for i in range(2):
        sample = sample_field(PlaneWave2D(), desk, RngStream(7, i))
        yield f"desk-{i}", sample, DEFAULT_SANDWICH_GEOMETRIES, thresholds, None
    torus = Torus(side=40 * math.pi, spacing=2 * math.pi / 8)
    sample = sample_field(BandLimitedTorus(dim=2, alpha=0.0), torus, RngStream(5, 0))
    # the balls around (0.5, 124.0) cross the wrap on both axes
    yield "torus-wrap", sample, DEFAULT_SANDWICH_GEOMETRIES, thresholds, (0.5, 124.0)
    small = PlanarWindow(side=18 * math.pi, spacing=2 * math.pi / 10)
    sample = sample_field(PlaneWave2D(), small, RngStream(9, 0))
    h = small.spacing
    # B(c, R + r) reaches the window edge; r below h leaves K = 1; r = 5h
    # puts the offsets (5, 0) and (3, 4) on the circle: closed, not strict
    yield "window-edge", sample, ((math.pi, 8 * math.pi),), thresholds, None
    yield "r-below-spacing", sample, ((0.5 * h, 10.0),), thresholds, None
    yield "r-on-lattice", sample, ((5 * h, 12.0),), thresholds, None


@pytest.fixture(scope="module")
def sandwich_cases():
    return {name: (label_domains(s), g, t, c) for name, s, g, t, c in _sandwich_cases()}


@pytest.mark.parametrize(
    "case", ["desk-0", "desk-1", "torus-wrap", "window-edge", "r-below-spacing", "r-on-lattice"]
)
def test_sandwich_matches_key_sort_oracle(sandwich_cases, case):
    dec, geometries, thresholds, center = sandwich_cases[case]
    grid = dec.sample.grid
    if case == "r-below-spacing":
        assert _lattice_offsets(grid, geometries[0][0])[2] == 1
    if case == "r-on-lattice":
        mi, _, K, _ = _lattice_offsets(grid, geometries[0][0])
        assert mi.size - K == 12
    if case == "window-edge":
        (r, R), = geometries
        assert R + r == pytest.approx(0.5 * grid.side, abs=1e-9)
    verdicts = sandwich_check_many(dec, geometries, thresholds, center=center)
    expected = oracles.sandwich_keys_oracle(dec, geometries, thresholds, center=center)
    assert len(verdicts) == len(geometries) * len(thresholds)
    assert verdicts == expected


def _random_sandwich_case(seed):
    """A seeded planar window or 2-D torus with blobs of a few nodes, a
    radius in [0.3h, 6h] (5h or another lattice radius in two cases of
    three, so the closed ring is mostly not empty), an off-center center
    and, half the time, R + r at the window edge or half the torus side."""
    rng = np.random.default_rng(seed)
    h = 0.5
    n = int(rng.integers(36, 60))
    grid = Torus(side=n * h, spacing=h) if seed % 2 else PlanarWindow(side=n * h, spacing=h)
    values = rng.standard_normal(grid.shape)
    for _ in range(int(rng.integers(0, 4))):
        values = values + sum(np.roll(values, s, axis=a) for s in (1, -1) for a in (0, 1))
    if seed % 3 == 0:
        r = 5 * h
    elif seed % 3 == 1:
        p, q = rng.integers(0, 5, size=2)
        r = max(math.hypot(p, q), 1.0) * h
    else:
        r = float(rng.uniform(0.3, 6.0)) * h
    if isinstance(grid, Torus):
        center = tuple(rng.uniform(0.0, grid.side, size=2))
        room = 0.5 * grid.side
    else:
        center = tuple(rng.uniform(0.4 * grid.side, 0.6 * grid.side, size=2))
        room = min(min(c, grid.side - c) for c in center)
    R = room - r if rng.random() < 0.5 else float(rng.uniform(r, room - r))
    dec = label_domains(synthetic_sample(values, grid))
    thresholds = (float(np.median(dec.areas())), math.inf)
    return dec, ((r, R),), thresholds, center


@pytest.mark.parametrize("seed", range(24))
def test_sandwich_matches_key_sort_oracle_on_random_cases(seed):
    dec, geometries, thresholds, center = _random_sandwich_case(seed)
    (r, _), = geometries
    mi, mj, K, _ = _lattice_offsets(dec.sample.grid, r)
    offsets = list(zip(mi.tolist(), mj.tolist()))
    rebuilt = [
        [(i, j) for i, a, b in _row_runs(mi[part], mj[part]) for j in range(a, b + 1)]
        for part in (slice(None, K), slice(K, None))
    ]
    assert rebuilt == [offsets[:K], offsets[K:]]
    verdicts = sandwich_check_many(dec, geometries, thresholds, center=center)
    assert verdicts == oracles.sandwich_keys_oracle(dec, geometries, thresholds, center=center)


def test_sandwich_transient_memory():
    # the counts live in one int32 cube per geometry; gathering every
    # (center, offset) pair at once would need several times the memory
    desk = PlanarWindow(side=40 * math.pi, spacing=2 * math.pi / 10)
    dec = label_domains(sample_field(PlaneWave2D(), desk, RngStream(7, 0)))
    tracemalloc.start()
    try:
        sandwich_check_many(dec, DEFAULT_SANDWICH_GEOMETRIES, (20.0, 50.0, math.inf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def test_sandwich_geometry_guards():
    dec = label_domains(_sinsin_torus(4 * math.pi, 2 * math.pi / 8))
    with pytest.raises(ValueError, match="0 < r < R"):
        sandwich_check_many(dec, [(2.0, 1.0)], [math.inf])
    with pytest.raises(ValueError, match="half the torus side"):
        sandwich_check_many(dec, [(math.pi, 6 * math.pi)], [math.inf])
    grid = PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 8)
    decp = label_domains(synthetic_sample(np.ones((9, 9)), grid))
    with pytest.raises(ValueError, match="does not fit in the window"):
        sandwich_check_many(decp, [(1.0, math.pi)], [math.inf])


def test_faber_krahn_flags_small_quadrants():
    grid = PlanarWindow(side=4 * math.pi, spacing=2 * math.pi / 16)
    xx, yy = grid.node_coords()
    dec = label_domains(synthetic_sample(np.sin(xx) * np.sin(yy), grid))
    min_area, violations = faber_krahn_check([dec], margin=0.10)
    assert min_area == pytest.approx(math.pi**2, rel=1e-12)
    assert len(violations) == 6
    for seed, index, label, area in violations:
        assert seed is None and index is None
        assert area < 0.9 * FK_FLOOR


def test_faber_krahn_guards():
    with pytest.raises(ValueError, match="at least one"):
        faber_krahn_check([])
    dec = label_domains(_sinsin_torus(4 * math.pi, 2 * math.pi / 8))
    with pytest.raises(ValueError, match="margin"):
        faber_krahn_check([dec], margin=1.5)
    grid = PlanarWindow(side=2.0, spacing=0.5)
    touch = label_domains(synthetic_sample(np.ones((5, 5)), grid))
    with pytest.raises(ValueError, match="no interior domains"):
        faber_krahn_check([touch])


def test_boundary_distribution_single_island():
    dec = _island_dec(1)
    h = dec.sample.grid.spacing
    perim_cdf, pairs = boundary_and_joint_distributions([dec])
    assert perim_cdf.breakpoints.size == 1
    assert perim_cdf.breakpoints[0] == pytest.approx(2 * math.sqrt(2) * h, abs=1e-12)
    assert perim_cdf.fractions[0] == 1.0
    assert pairs == [(h * h, perim_cdf.breakpoints[0])]


def _sorted_pairs(records, radius):
    pairs = []
    for r in records:
        for a, p, t, d in zip(r["areas"], r["perimeters"], r["touches"], r["dmax"]):
            if not t and (radius is None or d < radius):
                pairs.append((a, p))
    return sorted(pairs)


@pytest.mark.parametrize("radius", [None, 8.0], ids=["window", "ball"])
def test_fold_boundary_pairs_sort_like_sorted(radius, mini_ensemble):
    # the joint sample is sorted(zip(areas, perimeters)) of the interior
    # domains, as Python float tuples; tied areas are ordered by perimeter,
    # and equal pairs (0.0 and -0.0 alike) keep their record order
    records = [
        {"areas": [2.0, 1.0, 2.0, 3.0, 1.0, 0.0], "perimeters": [5.0, 4.0, 3.0, 1.0, 4.5, -0.0],
         "touches": [False, False, False, True, False, False],
         "dmax": [1.0, 2.0, 3.0, 0.5, 9.0, 1.0]},
        {"areas": [2.0, 1.0, -0.0, 2.0], "perimeters": [3.0, 4.5, 0.0, 4.0],
         "touches": [False, False, False, False], "dmax": [2.0, 5.0, 0.5, 3.5]},
    ]
    grid = mini_ensemble[0].sample.grid
    records.extend(census_record(dec, grid.center) for dec in mini_ensemble)
    perimeters, pairs = fold_boundary(records, radius)
    expected = _sorted_pairs(records, radius)
    assert pairs == expected
    assert [tuple(map(float.__repr__, p)) for p in pairs] == [
        tuple(map(float.__repr__, p)) for p in expected]
    assert all(type(p) is tuple and list(map(type, p)) == [float, float] for p in pairs)
    assert perimeters.to_dict() == EmpiricalCdf.from_values([p for _, p in expected]).to_dict()
    assert len(pairs) > len(_sorted_pairs(records[:2], radius))  # and the mini ensemble's
    ones = [(1.0, 4.0), (1.0, 4.5), (1.0, 4.5)] if radius is None else [(1.0, 4.0), (1.0, 4.5)]
    assert pairs[:len(ones) + 6] == [(0.0, -0.0), (-0.0, 0.0), *ones,
                                     (2.0, 3.0), (2.0, 3.0), (2.0, 4.0), (2.0, 5.0)]


def test_ensemble_distributions(mini_ensemble):
    psi = psi_estimate(mini_ensemble)
    perim_cdf, pairs = boundary_and_joint_distributions(mini_ensemble)
    assert psi.evaluate(0.9 * FK_FLOOR) == 0.0
    assert perim_cdf.evaluate(13.6) == 0.0
    # discrete isoperimetric sanity with a 5% slack for marching-squares bias
    for area, perim in pairs:
        assert perim * perim >= 4 * math.pi * area * 0.95


def test_nodal_length_of_straight_stripes():
    grid = Torus(side=4 * math.pi, spacing=2 * math.pi / 16)
    c = grid.axis_coords()
    xx, _ = np.meshgrid(c, c, indexing="ij")
    dec = label_domains(synthetic_sample(np.sin(xx), grid))
    mean, err = nodal_length_density([dec])
    assert mean == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert err == 0.0


def test_ns_density_of_lattice_field():
    dec = label_domains(_sinsin_torus(64 * math.pi, 2 * math.pi / 8))
    est = ns_constant_estimate([dec], radii=(45.0, 90.0))
    assert est.radii == [45.0, 90.0]
    assert est.ratio_means[0] <= est.ratio_means[1]
    assert all(m >= 0 for m in est.ratio_means)
    assert est.pooled == est.ratio_means[-1]
    # exact density is 1/pi^2; the finite-ball estimate misses boundary cells
    assert est.pooled == pytest.approx(1.0 / math.pi**2, rel=0.10)


def test_ns_guards(mini_ensemble, sphere_l8_dec):
    with pytest.raises(ValueError, match="at least one radius"):
        ns_constant_estimate(mini_ensemble, radii=())
    with pytest.raises(ValueError, match="planar and torus"):
        ns_constant_estimate([sphere_l8_dec], radii=(1.0,))
    with pytest.raises(ValueError, match="does not fit"):
        ns_constant_estimate(mini_ensemble, radii=(20.0,))
    # wider than half the side, the ball overlaps itself across the wrap
    torus = label_domains(_sinsin_torus(4 * math.pi, 2 * math.pi / 8))
    with pytest.raises(ValueError, match="half the torus side"):
        ns_constant_estimate([torus], radii=(5.0, 10.0))


def test_domain_density_below_critical_density(mini_ensemble):
    est = ns_constant_estimate(mini_ensemble, radii=(8.0, 12.0))
    side = mini_ensemble[0].sample.grid.side
    crit = np.mean([oracles.critical_cells_brute_force(d.sample.values, d.sample.grid) / side**2
                    for d in mini_ensemble])
    assert 0.0 < est.pooled <= crit
