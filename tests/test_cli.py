import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
from nodal_census.cli import main, parse_length
from nodal_census.io import domain_table_csv, psi_csv, read_json, text_sha256, write_json

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
    assert text == psi_csv(psi_estimate(decs, volume_scale=12 * 13))


def test_sphere_compare_flags_tampered_report(tmp_path, capsys):
    planar = tmp_path / "planar"
    assert main(["psi", "--window", "9pi", "--M", "2", "--seed", "3",
                 "--out", str(planar), "--format", "csv-only"]) == 0
    report = read_json(planar / "report.json")
    report["config_hash"] = "0" * 16
    write_json(planar / "report.json", report)
    sphere = tmp_path / "sphere"
    rc = main(["sphere-compare", "--model", "sphere", "--degree", "1", "--M", "2",
               "--seed", "0", "--planar-report", str(planar), "--out", str(sphere)])
    assert rc == 0
    assert "does not match" in capsys.readouterr().err
    assert read_json(sphere / "comparison.json")["planar_hash_ok"] is False


def test_sphere_compare_requires_inputs(tmp_path):
    assert main(["sphere-compare", "--model", "sphere", "--M", "1",
                 "--planar-report", str(tmp_path)]) == 2
    assert main(["sphere-compare", "--model", "sphere", "--degree", "1", "--M", "1"]) == 2


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
