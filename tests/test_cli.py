import argparse
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nodal_census
from nodal_census import (
    LatLongSphere,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    faber_krahn_check,
    label_domains,
    load_field,
    measure_domains,
    psi_estimate,
    sample_field,
)
from nodal_census import cli
from nodal_census.cli import main, parse_length
from nodal_census.io import (
    canonical_json, domain_table_csv, psi_csv, read_json, text_sha256, write_json,
)
from nodal_census.stats import EmpiricalCdf

ALL_COMMANDS = (
    "sample", "nodal", "psi", "ns", "sandwich", "faber-krahn", "sphere-compare", "report",
)


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_help_exits_cleanly(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert command in capsys.readouterr().out


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().out


def test_parse_length_grammar():
    assert parse_length("40pi") == 40 * math.pi
    assert parse_length("2pi/10") == 2 * math.pi / 10
    assert parse_length("pi") == math.pi
    assert parse_length("pi/4") == math.pi / 4
    assert parse_length("3") == 3.0
    assert parse_length("0.5") == 0.5
    assert parse_length("inf") == math.inf
    for bad in ("abc", "pi/0", "", "2x"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_length(bad)


def test_bad_flag_value_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--window", "junk", "--out", "x"])
    assert exc.value.code == 2


def test_unknown_model_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--model", "laplace", "--out", "x"])
    assert exc.value.code == 2


def test_sample_then_nodal_round_trip(tmp_path, capsys):
    field = tmp_path / "f.ncfs"
    table = tmp_path / "t.csv"
    assert main(["sample", "--window", "2pi", "--seed", "5", "--out", str(field)]) == 0
    assert main(["nodal", "--in", str(field), "--out", str(table)]) == 0
    capsys.readouterr()

    dec = measure_domains(label_domains(load_field(field)))
    assert table.read_text() == domain_table_csv(dec)


def test_failed_out_write_keeps_old_file(tmp_path, monkeypatch, capsys):
    # The CLI writes through a sibling temp file too: a write whose final
    # rename fails leaves the previous --out file as it was.
    field = tmp_path / "f.ncfs"
    table = tmp_path / "t.csv"
    assert main(["sample", "--window", "2pi", "--seed", "5", "--out", str(field)]) == 0
    table.write_text("old\n")

    def no_rename(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", no_rename)
    with pytest.raises(OSError, match="No space"):
        main(["nodal", "--in", str(field), "--out", str(table)])
    monkeypatch.undo()
    capsys.readouterr()

    assert table.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.ncfs", "f.ncfs.json", "t.csv"]


def test_sample_requires_out():
    assert main(["sample", "--window", "2pi"]) == 2


def test_nodal_requires_input():
    assert main(["nodal"]) == 2
    assert main(["nodal", "--in", "does-not-exist.ncfs"]) == 2


def test_psi_run_writes_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["psi", "--window", "9pi", "--M", "2", "--seed", "3",
               "--out", str(out), "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["realizations"] == 2
    assert summary["domains"] >= 1
    assert (out / "psi.csv").exists()
    assert (out / "psi.svg").exists()
    assert (out / "report.json").exists()

    again = tmp_path / "run2"
    assert main(["psi", "--window", "9pi", "--M", "2", "--seed", "3",
                 "--out", str(again), "--format", "csv-only"]) == 0
    capsys.readouterr()
    assert (again / "psi.csv").exists()
    assert not (again / "psi.svg").exists()
    assert (again / "psi.csv").read_bytes() == (out / "psi.csv").read_bytes()


SVG_CDFS = {
    "single": [3.5],
    "ties": [1.0] * 40 + [2.0] * 25 + [2.5] * 20 + [7.25] * 15,
    "gamma": np.random.default_rng(11).gamma(2.0, 12.0, 300).tolist(),
}


@pytest.mark.parametrize("name, digest", [
    ("single", "d9d2c3807533a8a9669a7e337a524d0a27b0c68d5e5cdcad52f9ed48a8a79208"),
    ("ties", "ad7a946285284b0c9ab8f98831cb1394b9a2e9c546bf0617ec7f9cc94ccbab09"),
    ("gamma", "cd0b389fd1a5f64b726bd8649d049dd0f5e2ad37d6b5bf04ac79a98c584830f1"),
])
def test_psi_svg_bytes_are_pinned(tmp_path, capsys, monkeypatch, name, digest):
    # the plot psi writes for a fixed CDF, pinned by the sha256 of its text
    rep = SimpleNamespace(psi=EmpiricalCdf.from_values(SVG_CDFS[name]), output_dir=tmp_path,
                          report={"realizations_completed": 1, "psi": {"largest_jump": 0.0}})
    monkeypatch.setattr(cli, "run_ensemble", lambda cfg: rep)
    assert main(["psi", "--window", "9pi", "--out", str(tmp_path)]) == 0
    assert text_sha256((tmp_path / "psi.svg").read_text()) == digest


def test_psi_requires_window(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["psi", "--M", "2", "--out", str(out)]) == 2
    assert "--window" in capsys.readouterr().err
    assert not out.exists()


def test_ns_reports_density(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["ns", "--window", "9pi", "--M", "2", "--seed", "3",
               "--radii", "5,8", "--out", str(out), "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["radii"] == [5.0, 8.0]
    assert summary["pooled"] > 0
    assert (out / "ns.csv").exists()


def test_sandwich_default_window(capsys):
    rc = main(["sandwich", "--r", "5", "--R", "15", "--seed", "1", "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    (verdict,) = summary["verdicts"]
    assert verdict["holds"] is True
    assert verdict["lower"] <= verdict["middle"] <= verdict["upper"]


def test_sandwich_requires_radii():
    with pytest.raises(SystemExit) as exc:
        main(["sandwich", "--R", "15"])
    assert exc.value.code == 2


def test_faber_krahn_small_run(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["faber-krahn", "--window", "9pi", "--M", "3", "--seed", "3",
               "--out", str(out), "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] == []
    assert summary["min_area"] > summary["bound"]
    assert summary["realizations"] == 3


def test_faber_krahn_margin_guard(tmp_path):
    assert main(["faber-krahn", "--window", "9pi", "--M", "1",
                 "--out", str(tmp_path / "x"), "--margin", "1.5"]) == 2


def test_faber_krahn_rejects_non_planar_models(tmp_path, capsys):
    sphere, torus = tmp_path / "sphere", tmp_path / "torus"
    assert main(["faber-krahn", "--model", "sphere", "--degree", "4", "--M", "1",
                 "--out", str(sphere)]) == 2
    assert main(["faber-krahn", "--model", "torus", "--window", "9pi", "--M", "1",
                 "--out", str(torus)]) == 2
    assert "planar windows" in capsys.readouterr().err
    assert not sphere.exists() and not torus.exists()


def test_faber_krahn_ignores_stale_sidecar(tmp_path, capsys, fail_realizations):
    # Realization 1 fails, so the sidecar pair already on disk for it is not
    # part of the report; its forged tiny area must not reach the minimum.
    fail_realizations(1)
    out = tmp_path / "run"
    (out / "realizations").mkdir(parents=True)
    stale = (
        "label,sign,area,perimeter,boundary_components,touches_window\n"
        "0,+,0.001,0.1,1,false\n"
    )
    (out / "realizations" / "00001.csv").write_text(stale)
    write_json(out / "realizations" / "00001.json", {
        "index": 1,
        "master_seed": 3,
        "csv_sha256": text_sha256(stale),
        "payload": {"areas": [1e-3], "perimeters": [0.1], "touches": [False], "dmax": [1.0],
                    "nodal_length": 0.1, "checks": {}},
    })

    assert main(["faber-krahn", "--window", "9pi", "--M", "10", "--seed", "3",
                 "--out", str(out), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)

    grid = PlanarWindow(side=parse_length("9pi"), spacing=parse_length("2pi/10"))
    decs = [
        label_domains(sample_field(PlaneWave2D(), grid, RngStream(3, i)))
        for i in range(10)
        if i != 1
    ]
    min_area, violations = faber_krahn_check(decs, margin=0.10)
    assert summary["realizations"] == 9
    assert summary["min_area"] == min_area
    assert summary["violations"] == [list(v) for v in violations]


def test_report_reaggregates(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["psi", "--window", "9pi", "--M", "2", "--seed", "3",
                 "--out", str(out), "--format", "csv-only"]) == 0
    capsys.readouterr()
    torn = out / "realizations" / "00001.json"
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
    assert main(["report", "--dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "realizations: 2" in text
    assert main(["report", "--dir", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize("manifest, reason", [
    ([], "is not a JSON object"), ({"version": 1}, "lacks 'config'"), ("run", "is not a JSON object"),
], ids=["list", "no-config", "string"])
def test_report_refuses_a_malformed_manifest(tmp_path, capsys, manifest, reason):
    write_json(tmp_path / "manifest.json", manifest)
    assert main(["report", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'manifest.json'} {reason}\n"


def test_report_names_a_key_the_manifest_config_lacks(tmp_path, capsys):
    write_json(tmp_path / "manifest.json", {"config": {}})
    assert main(["report", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'manifest.json'}: config lacks 'model'\n"


def test_report_json_prints_the_report_file(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["psi", "--window", "9pi", "--M", "1", "--seed", "3",
                 "--out", str(run), "--format", "csv-only"]) == 0
    cfg = tmp_path / "cfg.json"
    write_json(cfg, dict(read_json(run / "manifest.json")["config"],
                         checks=["faber_krahn", "helmholtz"]))
    out = tmp_path / "checked"
    assert main(["psi", "--config", str(cfg), "--out", str(out), "--format", "csv-only"]) == 0
    capsys.readouterr()
    assert main(["report", "--dir", str(out), "--json"]) == 0
    assert capsys.readouterr().out.encode("ascii") == (out / "report.json").read_bytes()
    assert main(["report", "--dir", str(out)]) == 0
    checks = read_json(out / "report.json")["checks"]
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("check ")]
    assert lines == [f"check {name}: {canonical_json(checks[name])}" for name in sorted(checks)]
    assert len(lines) == 2


def test_sphere_compare_against_planar_run(tmp_path, capsys):
    planar = tmp_path / "planar"
    assert main(["psi", "--window", "9pi", "--M", "2", "--seed", "3",
                 "--out", str(planar), "--format", "csv-only"]) == 0
    capsys.readouterr()
    sphere = tmp_path / "sphere"
    rc = main(["sphere-compare", "--model", "sphere", "--degree", "1", "--M", "2",
               "--seed", "0", "--planar-report", str(planar), "--out", str(sphere),
               "--json"])
    assert rc == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    comparison = read_json(sphere / "comparison.json")
    assert comparison["planar_hash_ok"] is True
    assert 0.0 <= comparison["ks_distance"] <= 1.0
    assert comparison["volume_scale"] == 2
    assert summary["sphere_breakpoints"] >= 1
    assert summary["planar_breakpoints"] >= 1
    # degree-1 harmonics split the sphere into two hemispheres of area 2pi;
    # on the l(l+1) scale both domains land at 4pi
    psi_lines = (sphere / "sphere-psi.csv").read_text().splitlines()
    scaled = [float(line.split(",")[0]) for line in psi_lines[1:]]
    assert all(abs(t - 4 * math.pi) <= 0.05 * 4 * math.pi for t in scaled)


def test_sphere_compare_scales_areas_before_binning(tmp_path, capsys):
    # Two areas one ulp apart can land on the same product once scaled, so a
    # CDF binned first and scaled after repeats a breakpoint; at degree 12
    # the first field already has such a pair.
    planar = tmp_path / "planar"
    assert main(["psi", "--window", "9pi", "--M", "1", "--seed", "3",
                 "--out", str(planar), "--format", "csv-only"]) == 0
    sphere = tmp_path / "sphere"
    assert main(["sphere-compare", "--model", "sphere", "--degree", "12", "--M", "6",
                 "--seed", "0", "--planar-report", str(planar), "--out", str(sphere)]) == 0
    text = (sphere / "sphere-psi.csv").read_text()
    ts = [float(line.split(",")[0]) for line in text.splitlines()[1:]]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    model, grid = SphericalHarmonic(degree=12), LatLongSphere(n_lat=60, n_lon=120)
    decs = [label_domains(sample_field(model, grid, RngStream(0, i))) for i in range(6)]
    psi = psi_estimate(decs, volume_scale=12 * 13)
    assert text == psi_csv(psi.breakpoints, psi.fractions, psi.stderr)


def test_sphere_compare_flags_tampered_report(tmp_path, capsys):
    planar = tmp_path / "planar"
    assert main(["psi", "--window", "9pi", "--M", "2", "--seed", "3",
                 "--out", str(planar), "--format", "csv-only"]) == 0
    report = read_json(planar / "report.json")
    # The hash covers the config dict as stored, so even a key the config
    # loader would ignore moves it.
    forged = (dict(report, config_hash="0" * 16),
              dict(report, config=dict(report["config"], unknown=1)))
    for i, tampered in enumerate(forged):
        write_json(planar / "report.json", tampered)
        sphere = tmp_path / f"sphere{i}"
        rc = main(["sphere-compare", "--model", "sphere", "--degree", "1", "--M", "2",
                   "--seed", "0", "--planar-report", str(planar), "--out", str(sphere)])
        assert rc == 0
        assert "does not match" in capsys.readouterr().err
        assert read_json(sphere / "comparison.json")["planar_hash_ok"] is False


def test_sphere_compare_requires_inputs(tmp_path):
    assert main(["sphere-compare", "--model", "sphere", "--M", "1",
                 "--planar-report", str(tmp_path)]) == 2
    assert main(["sphere-compare", "--model", "sphere", "--degree", "1", "--M", "1"]) == 2


@pytest.mark.parametrize("report, reason", [
    ({}, "lacks 'config'"), ({"config": {}}, "lacks 'psi'"), ([1], "is not a JSON object"),
], ids=["empty", "no-psi", "list"])
def test_sphere_compare_refuses_a_malformed_report(tmp_path, capsys, report, reason):
    write_json(tmp_path / "report.json", report)
    assert main(["sphere-compare", "--model", "sphere", "--degree", "1", "--M", "1",
                 "--planar-report", str(tmp_path), "--out", str(tmp_path / "sphere")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'report.json'} {reason}\n"
    assert not (tmp_path / "sphere").exists()


@pytest.mark.parametrize("psi, reason", [
    ({}, "lacks 'breakpoints'"), ([], "is not a JSON object"),
], ids=["no-breakpoints", "list"])
def test_sphere_compare_refuses_a_malformed_planar_psi(tmp_path, capsys, psi, reason):
    write_json(tmp_path / "report.json", {"config": {}, "psi": psi})
    assert main(["sphere-compare", "--model", "sphere", "--degree", "1", "--M", "1",
                 "--planar-report", str(tmp_path), "--out", str(tmp_path / "sphere")]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {tmp_path / 'report.json'}: psi {reason}\n")
    assert not (tmp_path / "sphere").exists()


def test_sphere_compare_rejects_config(tmp_path):
    # sphere-compare builds its own spherical config, so a config file is a
    # usage error rather than a flag it silently ignores.
    with pytest.raises(SystemExit) as exc:
        main(["sphere-compare", "--config", "cfg.json", "--model", "sphere", "--degree", "1",
              "--M", "1", "--planar-report", str(tmp_path)])
    assert exc.value.code == 2


def test_zero_realizations_exit_two(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["psi", "--window", "9pi", "--M", "0", "--out", str(run)]) == 2
    assert "at least one realization" in capsys.readouterr().err
    assert not (run / "report.json").exists()
    assert main(["psi", "--window", "9pi", "--M", "1", "--seed", "3",
                 "--out", str(run), "--format", "csv-only"]) == 0
    # --M 0 overrides the count a config file gives
    cfg = tmp_path / "cfg.json"
    write_json(cfg, read_json(run / "manifest.json")["config"])
    assert main(["psi", "--config", str(cfg), "--M", "0",
                 "--out", str(tmp_path / "from-config")]) == 2
    sphere = tmp_path / "sphere"
    assert main(["sphere-compare", "--model", "sphere", "--degree", "1", "--M", "0",
                 "--planar-report", str(run), "--out", str(sphere)]) == 2
    assert not (sphere / "report.json").exists()


def test_runs_without_scipy_or_mpmath(tmp_path):
    # The runtime dependencies are numpy alone: importing the package and a
    # small psi run must work with scipy and mpmath unimportable.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
        "import nodal_census\n"
        "from nodal_census.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(nodal_census.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script, "psi", "--window", "9pi", "--M", "1",
         "--out", str(tmp_path / "run"), "--format", "csv-only"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "run" / "psi.csv").exists()


@pytest.mark.parametrize("config, reason", [
    ({"model": {"type": "plane_wave"}}, " lacks 'grid'"),
    ({"model": {"type": "spherical_harmonic"}, "grid": {"type": "sphere"},
      "realizations": 1, "master_seed": 0}, ": model lacks 'degree'"),
    ({"model": {"type": "plane_wave"}, "grid": {"type": "planar", "side": 30.0},
      "realizations": 1, "master_seed": 0}, ": grid lacks 'spacing'"),
    ({"model": 5, "grid": {"type": "planar", "side": 30.0, "spacing": 0.5},
      "realizations": 1, "master_seed": 0}, ": model is not a JSON object"),
    ({"model": {"type": "plane_wave"}, "grid": [30.0],
      "realizations": 1, "master_seed": 0}, ": grid is not a JSON object"),
], ids=["no-grid", "model-no-degree", "grid-no-spacing", "model-number", "grid-list"])
def test_psi_refuses_a_malformed_config_file(tmp_path, capsys, config, reason):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, config)
    assert main(["psi", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}{reason}\n"
    assert not (tmp_path / "run").exists()
