"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints as a single pass/fail line under `pytest -v`.  The heavy
ensembles are session fixtures shared across tests; every expected value is
either exact, derived from an in-tree oracle, or carries the stated
statistical tolerance.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from nodal_census import (
    EnsembleConfig,
    LatLongSphere,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    faber_krahn_check,
    helmholtz_residual,
    ks_distance,
    label_domains,
    measure_domains,
    nodal_length_density,
    ns_constant_estimate,
    perturbation_stability,
    psi_estimate,
    run_ensemble,
    sample_field,
    sandwich_check_many,
    synthetic_sample,
)
from nodal_census.io import canonical_json, read_json
from nodal_census.sampler import covariance_probe_means
from conftest import DESK_M, DESK_SEED

AREA_FLOOR = 18.168414535536805


@pytest.fixture(scope="session")
def desk_psi(desk_grid, desk_ensemble):
    center = desk_grid.center
    radius = 0.5 * desk_grid.side - 2.0 * desk_grid.spacing
    return psi_estimate(desk_ensemble, window=(center, radius))


def test_criterion_01_minimum_area_floor(desk_grid, desk_ensemble):
    min_area, violations = faber_krahn_check(desk_ensemble, margin=0.10)
    assert violations == [], f"areas below 0.90*floor: {violations}"
    assert min_area >= 0.90 * AREA_FLOOR

    coarse_min = min(
        rec.area
        for dec in desk_ensemble[:10]
        for rec in dec.domains
        if not rec.touches_window
    )
    fine_grid = PlanarWindow(side=desk_grid.side, spacing=2 * math.pi / 20)
    fine_min = math.inf
    for i in range(10):
        dec = label_domains(sample_field(PlaneWave2D(), fine_grid, RngStream(DESK_SEED, i)))
        fine_min = min(
            fine_min,
            min(rec.area for rec in dec.domains if not rec.touches_window),
        )
    assert abs(fine_min - AREA_FLOOR) < abs(coarse_min - AREA_FLOOR), (
        f"refinement moved the minimum from {coarse_min:.4f} to {fine_min:.4f}, "
        f"away from {AREA_FLOOR:.4f}"
    )


def test_criterion_02_sandwich_holds_everywhere(desk_ensemble):
    verdicts = [
        v
        for dec in desk_ensemble
        for v in sandwich_check_many(
            dec, [(5.0, 15.0), (8.0, 20.0)], [20.0, 50.0, math.inf]
        )
    ]
    assert len(verdicts) == 600
    failing = [v for v in verdicts if not v.holds]
    assert not failing, f"{len(failing)}/600 sandwich verdicts failed, first: {failing[0]}"


def test_criterion_03_covariance_matches_bessel():
    lags = (1.0, 2.4048, 5.0)
    targets = [float(oracles.mp_bessel(0, lag)) for lag in lags]
    grid = PlanarWindow(side=9 * math.pi, spacing=2 * math.pi / 10)
    model = PlaneWave2D()
    rows = np.empty((2000, len(lags)))
    for i in range(rows.shape[0]):
        sample = sample_field(model, grid, RngStream(11, i))
        rows[i] = covariance_probe_means(sample, lags)
    means = rows.mean(axis=0)
    stderrs = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    for lag, mean, err, target in zip(lags, means, stderrs, targets):
        assert abs(mean - target) <= 3.0 * err, (
            f"lag {lag}: {mean:.5f} vs {target:.5f} (3 stderr = {3 * err:.5f})"
        )


def test_criterion_04_discretization_order():
    side = 8 * math.pi
    ratios = []
    for seed in range(10):
        coarse = helmholtz_residual(
            sample_field(PlaneWave2D(), PlanarWindow(side=side, spacing=2 * math.pi / 10),
                         RngStream(seed, 0))
        )
        fine = helmholtz_residual(
            sample_field(PlaneWave2D(), PlanarWindow(side=side, spacing=2 * math.pi / 20),
                         RngStream(seed, 0))
        )
        ratios.append(coarse / fine)
    mean_ratio = float(np.mean(ratios))
    assert 3.5 <= mean_ratio <= 4.5, f"mean residual ratio {mean_ratio:.3f}"


def test_criterion_05_density_stable_across_radii(desk_ensemble):
    est = ns_constant_estimate(desk_ensemble, radii=(10.0, 15.0, 20.0))
    assert est.pooled > 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            gap = abs(est.ratio_means[i] - est.ratio_means[j])
            tol = 3.0 * (
                math.hypot(est.ratio_stderrs[i], est.ratio_stderrs[j])
                + 1.0 / min(est.radii[i], est.radii[j])
            )
            assert gap <= tol, (
                f"R={est.radii[i]:g} vs R={est.radii[j]:g}: gap {gap:.5f} > {tol:.5f}"
            )


def test_criterion_06_area_cdf_structure(desk_psi):
    assert np.all(np.diff(desk_psi.fractions) >= 0)
    value_at_17 = desk_psi.evaluate(17.0)
    assert value_at_17 == 0.0, (
        f"psi(17.0) = {value_at_17:.6f} with {desk_psi.total_count} domains; "
        f"smallest areas observed: {np.round(desk_psi.breakpoints[:5], 4).tolist()}"
    )
    assert desk_psi.evaluate(float(desk_psi.breakpoints[-1])) == 1.0
    assert desk_psi.evaluate(50.0) - desk_psi.evaluate(19.0) > 0.0


def test_criterion_07_sphere_matches_plane(desk_psi):
    degree = 80
    grid = LatLongSphere(n_lat=400, n_lon=800)
    model = SphericalHarmonic(degree=degree)
    decs = [
        label_domains(sample_field(model, grid, RngStream(0, i))) for i in range(50)
    ]
    sphere_psi = psi_estimate(decs, volume_scale=float(degree * (degree + 1)))
    ks = ks_distance(sphere_psi, desk_psi)
    assert ks <= 0.10, f"KS distance {ks:.4f} over {sphere_psi.total_count} domains"


def test_criterion_08_boundary_length_density(desk_ensemble):
    target = oracles.kac_rice_length_density()
    assert abs(target - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-6
    mean, stderr = nodal_length_density(desk_ensemble)
    assert abs(mean - target) <= 0.05 * target, (
        f"length density {mean:.5f} +- {stderr:.5f} vs {target:.5f}"
    )


def test_criterion_09_labeling_matches_flood_fill():
    grid = PlanarWindow(side=1.5, spacing=0.5)
    for code in range(1 << 16):
        bits = (code >> np.arange(16)) & 1
        signs = (2 * bits - 1).reshape(4, 4)
        dec = label_domains(synthetic_sample(signs.astype(np.float64), grid))
        expected = oracles.flood_fill_labels(signs)
        assert np.array_equal(dec.labels, expected), f"disagreement on matrix {code}"


def test_criterion_10_perturbation_scaling(desk_grid, desk_ensemble):
    dec = desk_ensemble[0]
    direction = sample_field(PlaneWave2D(), desk_grid, RngStream(DESK_SEED, 2**32))
    medians = []
    for b in (1e-3, 5e-4):
        deltas = [delta for _, _, delta, _ in perturbation_stability(dec, direction, b)]
        medians.append(float(np.median(deltas)))
    ratio = medians[0] / medians[1]
    assert 1.5 <= ratio <= 2.5, f"median area-change ratio {ratio:.3f} (medians {medians})"


def test_criterion_11_runs_are_byte_identical(desk_grid, tmp_path):
    def run(outdir: Path) -> str:
        config = EnsembleConfig(
            model=PlaneWave2D(),
            grid=desk_grid,
            realizations=DESK_M,
            master_seed=DESK_SEED,
            radii=(10.0, 15.0, 20.0),
            output_dir=str(outdir),
        )
        run_ensemble(config)
        report = read_json(outdir / "report.json")
        report.pop("timing")
        return canonical_json(report)

    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a) == run(b)
    for name in ("psi.csv", "ns.csv", "joint.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    csvs_a = sorted((a / "realizations").glob("*.csv"))
    assert len(csvs_a) == DESK_M
    for csv_a in csvs_a:
        assert csv_a.read_bytes() == (b / "realizations" / csv_a.name).read_bytes()
