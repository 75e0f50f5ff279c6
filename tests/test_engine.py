import hashlib
import json
import math
import re
import shutil
import time
from pathlib import Path

import numpy as np
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
from nodal_census import engine, io, sampler
from nodal_census.io import (
    canonical_json, joint_csv, read_domain_table, read_json, text_sha256, write_json,
)
from nodal_census.stats import fold_boundary

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


def _forged(sidecar: dict, forge) -> dict:
    """`sidecar` with `forge` applied to its payload, which is stored as its
    canonical JSON text; the payload checksum is left as it was."""
    return dict(sidecar, payload=canonical_json(forge(json.loads(sidecar["payload"]))))


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
    out = engine._run_checks(config, sample, label_domains(sample), sample)["perturbation"]
    assert out["medians"] == list(deltas.values())
    assert out["ratio"] == ratio


def test_perturbation_direction_is_its_own_stream(tmp_path, monkeypatch):
    # the engine draws a realization and its direction in one call; the
    # direction is the field its stream gives alone
    seen = []
    check = engine.perturbation_stability

    def recording(dec, direction, b):
        seen.append((dec.sample, direction))
        return check(dec, direction, b)

    monkeypatch.setattr(engine, "perturbation_stability", recording)
    config = _config(tmp_path, realizations=2, checks=("perturbation",))
    run_ensemble(config)
    assert len(seen) == 2 * len(engine.PERTURBATION_B)
    for sample, direction in seen:
        index = sample.stream.stream_id
        alone = sample_field(config.model, config.grid, RngStream(
            config.master_seed, engine.PERTURBATION_STREAM_BASE + index))
        assert direction.stream == alone.stream
        assert direction.values.tobytes() == alone.values.tobytes()
        base = sample_field(config.model, config.grid, RngStream(config.master_seed, index))
        assert sample.values.tobytes() == base.values.tobytes()


def test_config_hashed_once_per_run(tmp_path, monkeypatch):
    # fresh and resumed runs hash the config once and stamp that hash into
    # the manifest, every sidecar and the report
    calls = []
    hash_config = engine.hash_config

    def counting(config):
        calls.append(config)
        return hash_config(config)

    monkeypatch.setattr(engine, "hash_config", counting)
    a = tmp_path / "a"
    config = _config(a, realizations=3)
    run_ensemble(config)
    assert len(calls) == 1
    (a / "realizations" / "00001.json").unlink()
    resume_ensemble(config, a)
    assert len(calls) == 2
    stamped = {read_json(path)["config_hash"] for path in (a / "realizations").glob("*.json")}
    assert stamped == {read_json(a / "report.json")["config_hash"], hash_config(config.to_dict())}


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
    # Realization 1 fails, leaving its slot to the pair of a complete run with
    # another seed: version, index and both checksums hold, and only the
    # config hash tells it apart.  Resume must recompute it.
    a, b, other = tmp_path / "a", tmp_path / "b", tmp_path / "other"
    config = _config(a, realizations=10, checks=(), radii=(), thresholds=())

    fail_realizations(1)
    run_ensemble(config)
    monkeypatch.undo()
    run_ensemble(
        _config(other, realizations=10, master_seed=4, checks=(), radii=(), thresholds=())
    )
    for name in ("00001.csv", "00001.json"):
        shutil.copyfile(other / "realizations" / name, a / "realizations" / name)

    resume_ensemble(config, a)
    run_ensemble(_config(b, realizations=10, checks=(), radii=(), thresholds=()))
    assert _stripped(a) == _stripped(b)


def test_resume_ignores_sidecar_without_this_engine_version(tmp_path):
    # Two sidecars with this config's hash and matching checksums, one
    # stamped with another engine version and one with none, carry a forged
    # payload, and a third is a JSON list; resume must recompute all three.
    a, b = tmp_path / "a", tmp_path / "b"
    config = _config(a, realizations=4, checks=(), radii=(), thresholds=())
    run_ensemble(config)
    for index, version in ((1, engine.ENGINE_VERSION + 1), (2, None)):
        path = a / "realizations" / f"{index:05d}.json"
        sidecar = read_json(path)
        assert sidecar["version"] == engine.ENGINE_VERSION
        sidecar = _forged(sidecar, lambda p: dict(p, nodal_length=2.0 * p["nodal_length"]))
        sidecar["payload_sha256"] = text_sha256(sidecar["payload"])
        if version is None:
            del sidecar["version"]
        else:
            sidecar["version"] = version
        write_json(path, sidecar)
    write_json(a / "realizations" / "00003.json", [1, 2])

    resume_ensemble(config, a)
    run_ensemble(_config(b, realizations=4, checks=(), radii=(), thresholds=()))
    assert _stripped(a) == _stripped(b)


@pytest.mark.parametrize("forge, restamp", [
    (lambda payload: None, False),
    (lambda payload: [payload], False),
    (lambda payload: {k: v for k, v in payload.items() if k != "nodal_length"}, False),
    (lambda payload: dict(payload, checks={}), False),
    (lambda payload: [payload], True),
    (lambda payload: dict(payload, checks={}), True),
    (lambda payload: {k: v for k, v in payload.items() if k != "nodal_length"}, True),
    (lambda payload: {k: v for k, v in payload.items() if k != "dmax"}, True),
], ids=["null", "list", "no-nodal_length", "no-check-result", "list-restamped",
        "no-check-result-restamped", "no-nodal_length-restamped", "no-dmax-restamped"])
def test_resume_recomputes_a_malformed_payload(tmp_path, forge, restamp):
    # The table checksum matches, but the payload lacks what the fold reads;
    # resume must recompute the realization, not crash in the fold.  With
    # the payload checksum restamped, the payload's shape is checked.
    a, b = tmp_path / "a", tmp_path / "b"
    config = _config(a, realizations=3, checks=("helmholtz",), thresholds=())
    run_ensemble(config)
    path = a / "realizations" / "00001.json"
    sidecar = read_json(path)
    forged = _forged(sidecar, forge)
    if restamp:
        forged["payload_sha256"] = text_sha256(forged["payload"])
    write_json(path, forged)

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


def test_sidecars_carry_dmax_only_where_a_ball_reads_it(tmp_path):
    # dmax feeds the planar and torus ball restrictions; a sphere run has none.
    # The table holds the per-domain columns, and no payload repeats them.
    run_ensemble(_sphere_config(tmp_path / "sphere"))
    run_ensemble(_config(tmp_path / "plane", realizations=2, checks=()))
    run_ensemble(EnsembleConfig(
        model=BandLimitedTorus(dim=2, alpha=1.0),
        grid=Torus(side=40 * math.pi, spacing=2 * math.pi / 10),
        realizations=1,
        master_seed=5,
        output_dir=str(tmp_path / "torus"),
    ))
    for name, count in (("sphere", 3), ("plane", 2), ("torus", 1)):
        paths = sorted((tmp_path / name / "realizations").glob("*.json"))
        assert len(paths) == count
        for path in paths:
            sidecar = read_json(path)
            payload = json.loads(sidecar["payload"])
            assert sidecar["payload"] == canonical_json(payload)
            assert sidecar["payload_sha256"] == text_sha256(sidecar["payload"])
            assert sorted(payload) == (["checks", "nodal_length"] if name == "sphere"
                                       else ["checks", "dmax", "nodal_length"])
            if name != "sphere":
                rows = path.with_suffix(".csv").read_text().splitlines()[1:]
                assert len(payload["dmax"]) == len(rows)


def test_fresh_and_resumed_records_read_the_table(tmp_path, monkeypatch):
    # one source for the per-domain columns: every folded record, sampled or
    # reused, is parsed from its table's text by the one reader
    read = []

    def reading(text):
        read.append(text)
        return read_domain_table(text)

    monkeypatch.setattr(engine, "read_domain_table", reading)
    config = _config(tmp_path, realizations=3, checks=(), thresholds=())
    fresh = run_ensemble(config)
    tables = sorted(p.read_text() for p in (tmp_path / "realizations").glob("*.csv"))
    assert sorted(read) == tables  # in any order: workers may run in parallel
    read.clear()
    (tmp_path / "realizations" / "00001.json").unlink()
    resumed = resume_ensemble(config, tmp_path)
    assert sorted(read) == tables
    assert resumed.records == fresh.records


@pytest.mark.parametrize("forge", [
    lambda payload: dict(payload, dmax=[0.0] * len(payload["dmax"])),
    lambda payload: dict(payload, nodal_length=2.0 * payload["nodal_length"]),
    lambda payload: dict(payload, checks={"helmholtz": {"residual": 0.5}}),
], ids=["dmax", "nodal_length", "check-result"])
def test_resume_recomputes_a_forged_payload(tmp_path, forge):
    # The table checksum matches and the payload is complete, but a value
    # differs from the one its checksum was taken over; resume must
    # recompute the realization rather than fold the forged value.
    a, b = tmp_path / "a", tmp_path / "b"
    config = _config(a, realizations=3, checks=("helmholtz",), thresholds=())
    run_ensemble(config)
    path = a / "realizations" / "00001.json"
    sidecar = read_json(path)
    write_json(path, _forged(sidecar, forge))

    resume_ensemble(config, a)
    run_ensemble(_config(b, realizations=3, checks=("helmholtz",), thresholds=()))
    assert _stripped(a) == _stripped(b)
    assert read_json(path) == sidecar


@pytest.mark.parametrize("make_config", [_config, _sphere_config], ids=["desk", "sphere"])
def test_resume_recomputes_an_old_shape_sidecar(tmp_path, make_config):
    # A sidecar whose payload is an object that repeats the table's columns,
    # with no payload checksum, is recomputed and rewritten to the same bytes.
    a = tmp_path / "a"
    config = make_config(a)
    run_ensemble(config)
    before = _stripped(a)
    path = a / "realizations" / "00001.json"
    fresh = path.read_bytes()
    sidecar = read_json(path)
    table = read_domain_table(path.with_suffix(".csv").read_text())
    del sidecar["payload_sha256"]
    write_json(path, dict(sidecar, payload=dict(json.loads(sidecar["payload"]), **table)))

    resume_ensemble(config, a)
    assert path.read_bytes() == fresh
    assert _stripped(a) == before


def _interior_area(spell):
    """A table forge that respells the area field of the first interior
    domain's row with `spell`."""
    def forge(table: bytes) -> bytes:
        lines = table.split(b"\n")
        row = next(i for i, line in enumerate(lines) if line.endswith(b",false"))
        fields = lines[row].split(b",")
        fields[2] = spell(fields[2])
        lines[row] = b",".join(fields)
        return b"\n".join(lines)
    return forge


@pytest.mark.parametrize("forge", [
    lambda text: text.replace(b"\n1,", b"\n1,\xff", 1),
    lambda text: text.replace(b"\n1,", b"\n1,0,", 1),
    lambda text: text.replace(b"label,", b"lbl,", 1),
    _interior_area(lambda area: b"nan"),
    _interior_area(lambda area: b"inf"),
    _interior_area(lambda area: re.sub(rb"(\d)(\d)", rb"\1_\2", area, count=1)),
    _interior_area(lambda area: b" " + area),
    _interior_area(lambda area: b"+" + area),
], ids=["bad-utf8", "ragged-row", "wrong-header", "nan-area", "inf-area", "underscore",
        "whitespace", "leading-plus"])
def test_resume_recomputes_a_table_the_reader_refuses(tmp_path, forge):
    # The sidecar's table checksum is restamped over the forged bytes, so
    # only the table reader refuses them; resume must recompute the
    # realization, not crash.  An interior area respelled with an
    # underscore, whitespace or a leading "+" reads as the same float, and
    # one respelled "nan" would reach the report's emitter.
    a, b = tmp_path / "a", tmp_path / "b"
    config = _config(a, realizations=3, checks=("helmholtz",), thresholds=())
    run_ensemble(config)
    csv_path = a / "realizations" / "00001.csv"
    fresh = csv_path.read_bytes()
    forged = forge(fresh)
    assert forged != fresh
    csv_path.write_bytes(forged)
    sidecar = read_json(csv_path.with_suffix(".json"))
    write_json(csv_path.with_suffix(".json"), dict(sidecar, csv_sha256=hashlib.sha256(forged).hexdigest()))

    resume_ensemble(config, a)
    run_ensemble(_config(b, realizations=3, checks=("helmholtz",), thresholds=()))
    assert _stripped(a) == _stripped(b)
    assert csv_path.read_bytes() == fresh


def test_resume_checks_the_table_bytes(tmp_path):
    # A table rewritten with CRLF line ends reads as the same text, but its
    # bytes miss the checksum; resume must recompute it.
    a = tmp_path / "a"
    config = _config(a, realizations=2, checks=(), thresholds=())
    run_ensemble(config)
    csv_path = a / "realizations" / "00001.csv"
    fresh = csv_path.read_bytes()
    csv_path.write_bytes(fresh.replace(b"\n", b"\r\n"))
    assert csv_path.read_text() == fresh.decode()

    resume_ensemble(config, a)
    assert csv_path.read_bytes() == fresh


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


def test_each_distinct_report_float_is_rendered_once(tmp_path, monkeypatch):
    # One rendering for the six psi and boundary columns: every distinct bit
    # pattern among them is rendered once, and every value with that pattern
    # shares its string, on a fresh run and on a resume of it.
    rendered = []
    render = io._rendered

    def counting(arrays):
        texts = render(arrays)
        rendered.append(len({id(t) for text in texts for t in text}))
        return texts

    monkeypatch.setattr(io, "_rendered", counting)
    config = _sphere_l8_config(tmp_path)
    run_ensemble(config)
    report = read_json(tmp_path / "report.json")
    values = np.array([x for cdf in ("psi", "boundary")
                       for name in ("breakpoints", "fractions", "stderr") for x in report[cdf][name]])
    distinct = np.unique(values.view(np.int64)).size
    assert distinct < values.size  # the two CDFs share values
    assert sum(rendered) == distinct
    rendered.clear()
    resume_ensemble(config, tmp_path)
    assert sum(rendered) == distinct
