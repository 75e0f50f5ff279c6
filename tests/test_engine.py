import json
import math
import time
from pathlib import Path

import pytest

from nodal_census import (
    BandLimitedTorus,
    EnsembleConfig,
    EnsembleFailure,
    LatLongSphere,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    Torus,
    boundary_and_joint_distributions,
    faber_krahn_check,
    label_domains,
    load_field,
    measure_domains,
    nodal_length_density,
    ns_constant_estimate,
    psi_estimate,
    resume_ensemble,
    run_ensemble,
    sample_field,
)
from nodal_census import engine, sampler
from nodal_census.io import canonical_json, joint_csv, read_json, text_sha256, write_json
from nodal_census.stats import census_record, fold_boundary

GRID = PlanarWindow(side=9 * math.pi, spacing=2 * math.pi / 10)


def _config(outdir, realizations=6, **overrides):
    kw = dict(
        model=PlaneWave2D(),
        grid=GRID,
        realizations=realizations,
        master_seed=3,
        radii=(5.0, 8.0),
        thresholds=(17.0, 50.0, math.inf),
        checks=("covariance", "faber_krahn", "helmholtz", "perturbation", "sandwich"),
        sandwich_geometries=((1.0, 4.5),),
        output_dir=str(outdir),
    )
    kw.update(overrides)
    return EnsembleConfig(**kw)


def _stripped(outdir) -> str:
    report = read_json(Path(outdir) / "report.json")
    report.pop("timing")
    return canonical_json(report)


def test_report_identical_across_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_ensemble(_config(a))
    run_ensemble(_config(b))
    assert _stripped(a) == _stripped(b)
    for name in ("psi.csv", "ns.csv", "joint.csv", "sandwich.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    for csv_a in sorted((a / "realizations").glob("*.csv")):
        csv_b = b / "realizations" / csv_a.name
        assert csv_a.read_bytes() == csv_b.read_bytes()
    assert read_json(a / "manifest.json") == read_json(b / "manifest.json")


@pytest.mark.parametrize("deltas, ratio", [
    ({1e-3: 0.0, 5e-4: 0.25}, 0.0),
    ({1e-3: 0.25, 5e-4: 0.0}, None),
])
def test_perturbation_ratio_of_a_zero_median(tmp_path, monkeypatch, deltas, ratio):
    # 0.0 / m is a ratio; only a 0.0 median at b = 5e-4 leaves it undefined
    assert tuple(deltas) == engine.PERTURBATION_B
    monkeypatch.setattr(
        engine, "perturbation_stability", lambda dec, direction, b: [(0, 0, deltas[b])]
    )
    config = _config(tmp_path, checks=("perturbation",))
    sample = sample_field(config.model, config.grid, RngStream(config.master_seed, 0))
    out = engine._run_checks(config, sample, label_domains(sample), 0)["perturbation"]
    assert out["medians"] == list(deltas.values())
    assert out["ratio"] == ratio


def test_report_independent_of_worker_count(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("NODAL_CENSUS_THREADS", "1")
    run_ensemble(_config(a, realizations=4))
    # Three workers race to build the plane-wave basis on a cleared memo;
    # the slowed build widens the race.  The basis is built exactly once.
    builds = []
    basis_block = sampler._basis_block

    def slow_block(*args):
        builds.append(args)
        time.sleep(0.05)
        return basis_block(*args)

    sampler._built_table.cache_clear()
    monkeypatch.setattr(sampler, "_basis_block", slow_block)
    monkeypatch.setenv("NODAL_CENSUS_THREADS", "3")
    run_ensemble(_config(b, realizations=4))
    assert len(builds) == 1
    assert _stripped(a) == _stripped(b)


def test_worker_count_env_guard(monkeypatch):
    monkeypatch.setenv("NODAL_CENSUS_THREADS", "0")
    with pytest.raises(ValueError):
        engine.worker_count()


def test_realization_prefix_is_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_ensemble(_config(a, realizations=1, checks=(), radii=(), thresholds=()))
    run_ensemble(_config(b, realizations=2, checks=(), radii=(), thresholds=()))
    assert (a / "realizations" / "00000.csv").read_bytes() == (
        b / "realizations" / "00000.csv"
    ).read_bytes()


def test_resume_recomputes_missing_and_tampered(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_ensemble(_config(a, realizations=4))
    run_ensemble(_config(b, realizations=4))

    (a / "realizations" / "00002.csv").unlink()
    tampered = a / "realizations" / "00001.csv"
    tampered.write_text(tampered.read_text() + "999,+,1.0,1.0,1,false\n")
    # a sidecar torn by a crash mid-write counts as missing
    torn = a / "realizations" / "00003.json"
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])

    resume_ensemble(_config(a, realizations=4), a)
    assert _stripped(a) == _stripped(b)
    assert (a / "realizations" / "00001.csv").read_bytes() == (
        b / "realizations" / "00001.csv"
    ).read_bytes()


def test_resume_ignores_sidecar_of_another_config(tmp_path, monkeypatch, fail_realizations):
    # Realization 1 fails, leaving its slot to a forged sidecar from another
    # seed whose table checksum matches; resume must recompute it.
    a, b = tmp_path / "a", tmp_path / "b"
    config = _config(a, realizations=10, checks=(), radii=(), thresholds=())

    fail_realizations(1)
    run_ensemble(config)
    monkeypatch.undo()
    stale = (
        "label,sign,area,perimeter,boundary_components,touches_window\n"
        "0,+,0.001,0.1,1,false\n"
    )
    (a / "realizations" / "00001.csv").write_text(stale)
    write_json(a / "realizations" / "00001.json", {
        "index": 1,
        "master_seed": 99,
        "csv_sha256": text_sha256(stale),
        "payload": {"areas": [1e-3], "perimeters": [0.1], "touches": [False], "dmax": [1.0],
                    "nodal_length": 0.1, "checks": {}},
    })

    resume_ensemble(config, a)
    run_ensemble(_config(b, realizations=10, checks=(), radii=(), thresholds=()))
    assert _stripped(a) == _stripped(b)


def test_resume_ignores_sidecar_without_this_engine_version(tmp_path):
    # Two sidecars with this config's hash and a matching table checksum,
    # one stamped with another engine version and one with none, carry a
    # forged payload, and a third is a JSON list; resume must recompute all
    # three.
    a, b = tmp_path / "a", tmp_path / "b"
    config = _config(a, realizations=4, checks=(), radii=(), thresholds=())
    run_ensemble(config)
    for index, version in ((1, engine.ENGINE_VERSION + 1), (2, None)):
        path = a / "realizations" / f"{index:05d}.json"
        sidecar = read_json(path)
        assert sidecar["version"] == engine.ENGINE_VERSION
        sidecar["payload"]["nodal_length"] *= 2.0
        if version is None:
            del sidecar["version"]
        else:
            sidecar["version"] = version
        write_json(path, sidecar)
    write_json(a / "realizations" / "00003.json", [1, 2])

    resume_ensemble(config, a)
    run_ensemble(_config(b, realizations=4, checks=(), radii=(), thresholds=()))
    assert _stripped(a) == _stripped(b)


@pytest.mark.parametrize("forge", [
    lambda payload: None,
    lambda payload: [payload],
    lambda payload: {k: v for k, v in payload.items() if k != "touches"},
    lambda payload: dict(payload, checks={}),
], ids=["null", "list", "no-touches", "no-check-result"])
def test_resume_recomputes_a_malformed_payload(tmp_path, forge):
    # The table checksum matches, but the payload lacks what the fold reads;
    # resume must recompute the realization, not crash in the fold.
    a, b = tmp_path / "a", tmp_path / "b"
    config = _config(a, realizations=3, checks=("helmholtz",), thresholds=())
    run_ensemble(config)
    path = a / "realizations" / "00001.json"
    sidecar = read_json(path)
    write_json(path, dict(sidecar, payload=forge(sidecar["payload"])))

    resume_ensemble(config, a)
    run_ensemble(_config(b, realizations=3, checks=("helmholtz",), thresholds=()))
    assert _stripped(a) == _stripped(b)
    assert read_json(path) == sidecar


def _sphere_config(outdir):
    return EnsembleConfig(
        model=SphericalHarmonic(degree=4),
        grid=LatLongSphere(n_lat=20, n_lon=40),
        realizations=3,
        master_seed=5,
        checks=("helmholtz",),
        output_dir=str(outdir),
    )


def _payloads(outdir) -> list[dict]:
    return [read_json(p)["payload"] for p in sorted((outdir / "realizations").glob("*.json"))]


def test_sidecars_carry_dmax_only_where_a_ball_reads_it(tmp_path):
    # dmax feeds the planar and torus ball restrictions; a sphere run has none
    run_ensemble(_sphere_config(tmp_path / "sphere"))
    run_ensemble(_config(tmp_path / "plane", realizations=2, checks=()))
    run_ensemble(EnsembleConfig(
        model=BandLimitedTorus(dim=2, alpha=1.0),
        grid=Torus(side=40 * math.pi, spacing=2 * math.pi / 10),
        realizations=1,
        master_seed=5,
        output_dir=str(tmp_path / "torus"),
    ))
    assert [("dmax" in p) for p in _payloads(tmp_path / "sphere")] == [False] * 3
    for name, count in (("plane", 2), ("torus", 1)):
        payloads = _payloads(tmp_path / name)
        assert len(payloads) == count
        assert all(len(p["dmax"]) == len(p["areas"]) for p in payloads)


def test_resume_folds_sphere_sidecars_written_with_dmax(tmp_path, monkeypatch):
    # Sphere sidecars from before dmax was dropped there still carry it; a
    # resume reuses them and folds the report a fresh run folds.
    a, b = tmp_path / "a", tmp_path / "b"
    run_ensemble(_sphere_config(a))
    run_ensemble(_sphere_config(b))
    for path in sorted((a / "realizations").glob("*.json")):
        sidecar = read_json(path)
        index = sidecar["index"]
        sample = sample_field(SphericalHarmonic(degree=4), LatLongSphere(n_lat=20, n_lon=40),
                              RngStream(5, index))
        sidecar["payload"]["dmax"] = census_record(label_domains(sample), columns=("dmax",))["dmax"]
        write_json(path, sidecar)

    def boom(*args, **kwargs):
        raise AssertionError("every sidecar must be reused")

    monkeypatch.setattr(engine, "sample_field", boom)
    resume_ensemble(_sphere_config(a), a)
    assert _stripped(a) == _stripped(b)
    assert all("dmax" in p for p in _payloads(a))


def test_resume_complete_run_never_samples(tmp_path, monkeypatch):
    a = tmp_path / "a"
    run_ensemble(_config(a, realizations=3))
    before = _stripped(a)

    def boom(*args, **kwargs):
        raise AssertionError("resume of a complete run must not sample")

    monkeypatch.setattr(engine, "sample_field", boom)
    resume_ensemble(_config(a, realizations=3), a)
    assert _stripped(a) == before


def test_resume_complete_run_builds_no_basis(tmp_path, monkeypatch):
    a = tmp_path / "a"
    run_ensemble(_config(a, realizations=3))
    before = _stripped(a)

    def boom(*args):
        raise AssertionError("resume of a complete run must not build a basis")

    sampler._built_table.cache_clear()
    monkeypatch.setattr(sampler, "_basis_block", boom)
    resume_ensemble(_config(a, realizations=3), a)
    assert _stripped(a) == before


def test_resume_validates_directory(tmp_path):
    a = tmp_path / "a"
    run_ensemble(_config(a, realizations=2))
    with pytest.raises(ValueError, match="config hash mismatch"):
        resume_ensemble(_config(a, realizations=2, master_seed=4), a)
    with pytest.raises(ValueError, match="no manifest"):
        resume_ensemble(_config(tmp_path / "empty", realizations=2), tmp_path / "empty")
    manifest = read_json(a / "manifest.json")
    write_json(a / "manifest.json", {**manifest, "version": engine.ENGINE_VERSION + 1})
    with pytest.raises(ValueError, match="engine version mismatch"):
        resume_ensemble(_config(a, realizations=2), a)


def test_single_failure_is_logged(tmp_path, fail_realizations):
    fail_realizations(3)
    report = run_ensemble(
        _config(tmp_path / "a", realizations=10, checks=(), thresholds=())
    ).report
    assert report["realizations_completed"] == 9
    assert report["failures"] == [{"index": 3, "error": "RuntimeError: injected"}]


def test_too_many_failures_abort(tmp_path, fail_realizations):
    fail_realizations(3, 7)
    with pytest.raises(EnsembleFailure, match="2/10"):
        run_ensemble(_config(tmp_path / "a", realizations=10, checks=(), thresholds=()))


def test_no_interior_domain_failure_says_why(tmp_path):
    # no domain of a shell torus fits in a ball of radius 2 (area 12.6, below
    # the Faber-Krahn floor of 18.2), so every one reaches past the psi radius
    config = EnsembleConfig(
        model=BandLimitedTorus(dim=2, alpha=1.0),
        grid=Torus(side=40 * math.pi, spacing=math.pi / 4, dim=2),
        realizations=2,
        master_seed=7,
        psi_radius=2.0,
        output_dir=str(tmp_path / "a"),
    )
    with pytest.raises(EnsembleFailure) as info:
        run_ensemble(config)
    message = str(info.value)
    assert message.startswith("no interior domains in any realization: psi radius 2.0, ")
    seen = sum(
        label_domains(sample_field(config.model, config.grid, RngStream(7, i))).n_domains
        for i in range(2)
    )
    assert f"2 realizations folded, {seen} domains seen, each touching the window" in message
    assert message.endswith("or reaching past the psi radius")


def test_config_hash_ignores_output_dir(tmp_path):
    c1 = _config(tmp_path / "x")
    c2 = _config(tmp_path / "y")
    assert c1.config_hash() == c2.config_hash()
    assert "output_dir" not in c1.to_dict()
    assert _config(tmp_path / "x", master_seed=4).config_hash() != c1.config_hash()


def test_keep_fields_writes_containers(tmp_path):
    a = tmp_path / "a"
    run_ensemble(
        _config(a, realizations=1, checks=(), radii=(), thresholds=(), keep_fields=True)
    )
    sample = load_field(a / "fields" / "00000.ncfs")
    assert sample.grid == GRID
    assert sample.stream.stream_id == 0


def test_resume_keeps_fields_in_the_resumed_directory(tmp_path, monkeypatch):
    # A config rebuilt from the manifest carries no output_dir; the fields a
    # resume redraws still belong under the directory being resumed.
    a, cwd = tmp_path / "a", tmp_path / "cwd"
    run_ensemble(
        _config(a, realizations=2, checks=(), radii=(), thresholds=(), keep_fields=True)
    )
    (a / "realizations" / "00001.csv").unlink()
    (a / "fields" / "00001.ncfs").unlink()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    resume_ensemble(EnsembleConfig.from_dict(read_json(a / "manifest.json")["config"]), a)
    assert load_field(a / "fields" / "00001.ncfs").stream.stream_id == 1
    assert list(cwd.iterdir()) == []


def test_config_validation():
    bad = [
        dict(realizations=0),
        dict(thresholds=(50.0, 17.0)),
        dict(checks=("nonsense",)),
        dict(checks=("helmholtz", "helmholtz")),
        dict(radii=(20.0,)),
        dict(checks=("sandwich",), thresholds=()),
        dict(sandwich_geometries=((4.5, 1.0),)),
        dict(grid=PlanarWindow(side=4 * math.pi, spacing=2 * math.pi / 10),
             checks=("covariance",), radii=(), thresholds=(), sandwich_geometries=()),
    ]
    for overrides in bad:
        with pytest.raises(ValueError):
            _config("unused", **overrides).validate()

    sphere = EnsembleConfig(
        model=SphericalHarmonic(degree=4),
        grid=LatLongSphere(n_lat=20, n_lon=40),
        realizations=2,
        master_seed=0,
        radii=(1.0,),
    )
    with pytest.raises(ValueError, match="planar and torus"):
        sphere.validate()


def test_psi_window_default_hugs_the_boundary(tmp_path):
    config = _config(tmp_path / "a")
    assert config.effective_psi_radius() == pytest.approx(
        0.5 * GRID.side - 2.0 * GRID.spacing
    )


def test_report_folds_like_the_library(tmp_path):
    # One fold behind both: the report and its exports equal the library
    # estimators on the same decompositions, exactly.
    a = tmp_path / "a"
    config = _config(a, realizations=3, checks=("faber_krahn",), thresholds=())
    run_ensemble(config)
    report = read_json(a / "report.json")

    samples = [sample_field(config.model, GRID, RngStream(3, i)) for i in range(3)]
    decs = [measure_domains(label_domains(sample)) for sample in samples]
    window = (GRID.center, config.effective_psi_radius())

    psi = psi_estimate(decs, window=window).to_dict()
    assert {key: report["psi"][key] for key in psi} == psi
    perimeters, pairs = boundary_and_joint_distributions(decs, window=window)
    assert report["boundary"] == perimeters.to_dict()
    assert (a / "joint.csv").read_text() == joint_csv(pairs)
    assert report["ns"] == ns_constant_estimate(decs, config.radii).to_dict()
    mean, stderr = nodal_length_density(decs)
    assert report["nodal_length_density"] == {"mean": mean, "stderr": stderr}
    min_area, violations = faber_krahn_check(decs, margin=0.10)
    assert report["checks"]["faber_krahn"]["min_area"] == min_area
    assert report["checks"]["faber_krahn"]["violations"] == [list(v) for v in violations]


def _assert_exports_share_the_report_text(run) -> None:
    outdir = run.output_dir
    report = json.loads((outdir / "report.json").read_text(), parse_float=str)
    psi = report["psi"]
    rows = zip(psi["breakpoints"], psi["fractions"], psi["stderr"])
    assert (outdir / "psi.csv").read_text().splitlines() == ["t,psi_hat,stderr", *map(",".join, rows)]
    _, pairs = fold_boundary(run.records, run.config.effective_psi_radius())
    assert (outdir / "joint.csv").read_text().splitlines() == [
        "area,perimeter", *(f"{a!r},{p!r}" for a, p in pairs)]
    assert canonical_json(run.report) == canonical_json(read_json(outdir / "report.json"))


def _sphere_l8_config(outdir):
    return EnsembleConfig(model=SphericalHarmonic(degree=8), grid=LatLongSphere(n_lat=40, n_lon=80),
                          realizations=3, master_seed=6, output_dir=str(outdir))


@pytest.mark.parametrize("make_config", [_config, _sphere_l8_config], ids=["desk", "sphere"])
def test_exports_share_the_report_text(tmp_path, make_config):
    # Each psi and boundary float is rendered once: every psi.csv row is the
    # text report.json gives its breakpoint, fraction and stderr, and every
    # joint.csv field is the repr of its pair, fresh and resumed alike.
    config = make_config(tmp_path)
    _assert_exports_share_the_report_text(run_ensemble(config))
    (tmp_path / "realizations" / "00001.json").unlink()
    _assert_exports_share_the_report_text(resume_ensemble(config, tmp_path))
