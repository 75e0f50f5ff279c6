import builtins
import errno
import json
import math
import struct

import numpy as np
import pytest

import nodal_census.io
from nodal_census import (
    BandLimitedTorus,
    LatLongSphere,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    Torus,
    label_domains,
    load_field,
    measure_domains,
    sample_field,
    synthetic_sample,
    write_field,
)
from nodal_census.io import (
    canonical_json,
    domain_table_csv,
    file_sha256,
    float_token,
    fnv1a64,
    joint_csv,
    ns_csv,
    psi_csv,
    read_json,
    sandwich_csv,
    text_sha256,
    write_json,
    write_text,
)
from nodal_census.stats import (
    boundary_and_joint_distributions,
    ns_constant_estimate,
    psi_estimate,
    sandwich_check_many,
)


def test_fnv1a64_reference_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("a") == fnv1a64(b"a")


def test_canonical_json_is_sorted_and_spells_inf():
    s = canonical_json({"b": math.inf, "a": [1.0, -math.inf]})
    assert s == '{"a":[1.0,"-inf"],"b":"inf"}'
    with pytest.raises(ValueError, match="NaN"):
        canonical_json({"x": math.nan})


def test_float_tokens_round_trip():
    for x in (0.0, -1.5, 1 / 3, math.pi, math.inf, -math.inf, 1e-300):
        assert float(float_token(x)) == x
    assert float_token(math.inf) == "inf"
    assert float("3.25") == 3.25


def test_write_json_layout(tmp_path):
    p = tmp_path / "x.json"
    write_json(p, {"b": 2, "a": 1})
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert read_json(p) == {"a": 1, "b": 2}


def test_field_container_round_trip(tmp_path):
    grid = PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 10)
    sample = sample_field(PlaneWave2D(), grid, RngStream(12, 34))
    path = tmp_path / "field.ncfs"
    write_field(sample, path)

    back = load_field(path)
    assert np.array_equal(back.values, sample.values)
    assert back.grid == grid
    assert back.model == sample.model
    assert back.stream == RngStream(12, 34)
    assert back.coeffs.keys() == sample.coeffs.keys()
    for key, coeffs in sample.coeffs.items():
        assert np.array_equal(back.coeffs[key], coeffs)

    synthetic = tmp_path / "synthetic.ncfs"
    write_field(synthetic_sample(sample.values, grid), synthetic)
    assert load_field(synthetic).coeffs is None

    sidecar = read_json(tmp_path / "field.ncfs.json")
    assert sidecar["kind"] == "field-sample"
    assert sidecar["seed"] == {"master_seed": 12, "stream_id": 34}
    assert sidecar["index"] == 34


def test_field_container_rejects_corruption(tmp_path):
    grid = PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 10)
    sample = sample_field(PlaneWave2D(), grid, RngStream(1, 0))
    path = tmp_path / "field.ncfs"
    write_field(sample, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ncfs"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="bad magic"):
        load_field(bad_magic)

    bad_version = tmp_path / "bad_version.ncfs"
    bad_version.write_bytes(raw[:4] + struct.pack("<I", 99) + raw[8:])
    with pytest.raises(ValueError, match="version"):
        load_field(bad_version)

    truncated = tmp_path / "truncated.ncfs"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_field(truncated)

    # a synthetic container with bytes after its values, or a header shape
    # that is not its grid's
    grid9 = PlanarWindow(side=4.0, spacing=0.5)
    write_field(synthetic_sample(np.arange(81.0).reshape(9, 9), grid9), tmp_path / "nine.ncfs")
    nine = (tmp_path / "nine.ncfs").read_bytes()
    trailing = tmp_path / "trailing.ncfs"
    trailing.write_bytes(nine + bytes(8))
    with pytest.raises(ValueError, match="bytes after the value payload"):
        load_field(trailing)
    assert b'"shape":[9,9]' in nine
    reshaped = tmp_path / "reshaped.ncfs"
    reshaped.write_bytes(nine.replace(b'"shape":[9,9]', b'"shape":[9,8]'))
    with pytest.raises(ValueError, match="does not match the grid"):
        load_field(reshaped)
    assert load_field(tmp_path / "nine.ncfs").values.shape == (9, 9)

    # a header that is not an object, or lacks a key `load_field` reads
    (hlen,) = struct.unpack("<Q", nine[8:16])
    header = json.loads(nine[16 : 16 + hlen])
    headers = {"not a JSON object": [1, 2]}
    for key in ("dtype", "grid", "shape", "model"):
        headers[repr(key)] = {k: v for k, v in header.items() if k != key}
    for message, bad in headers.items():
        hbytes = canonical_json(bad).encode()
        cut = tmp_path / "cut.ncfs"
        cut.write_bytes(nine[:8] + struct.pack("<Q", len(hbytes)) + hbytes + nine[16 + hlen :])
        with pytest.raises(ValueError, match=message):
            load_field(cut)

    # a seed that is not an object, or lacks a key `load_field` reads
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    seeds = {"seed is not a JSON object": [1, 0]}
    for key in ("master_seed", "stream_id"):
        seeds[repr(key)] = {k: v for k, v in header["seed"].items() if k != key}
    for message, bad in seeds.items():
        hbytes = canonical_json({**header, "seed": bad}).encode()
        cut = tmp_path / "cut.ncfs"
        cut.write_bytes(raw[:8] + struct.pack("<Q", len(hbytes)) + hbytes + raw[16 + hlen :])
        with pytest.raises(ValueError, match=message):
            load_field(cut)

    # values that are not the field the stored model and seed draw
    sample.values[0, 0] += 1e-6
    write_field(sample, tmp_path / "foreign.ncfs")
    with pytest.raises(ValueError, match="model and seed"):
        load_field(tmp_path / "foreign.ncfs")


@pytest.mark.parametrize("model, grid, index", [
    (PlaneWave2D(), PlanarWindow(side=40 * math.pi, spacing=2 * math.pi / 10), 0),
    (SphericalHarmonic(degree=20), LatLongSphere(n_lat=100, n_lon=200), 2),
    (BandLimitedTorus(dim=2, alpha=1.0), Torus(side=40 * math.pi, spacing=2 * math.pi / 8), 0),
], ids=["plane", "sphere", "torus"])
def test_reloaded_field_measures_as_in_memory(tmp_path, model, grid, index):
    # saddle cells are resolved from the coefficients, so a container must
    # restore them for its domain table to match the in-memory one
    sample = sample_field(model, grid, RngStream(7, index))
    write_field(sample, tmp_path / "field.ncfs")
    back = load_field(tmp_path / "field.ncfs")
    table = domain_table_csv(measure_domains(label_domains(sample)))
    assert domain_table_csv(measure_domains(label_domains(back))) == table


class _FullDisk:
    """File wrapper whose `fail_at`-th write fails as a full disk would."""

    def __init__(self, fh, fail_at=2):
        self.fh = fh
        self.fail_at = fail_at
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


def test_failed_field_write_keeps_old_container(tmp_path, monkeypatch):
    grid = PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 10)
    old = sample_field(PlaneWave2D(), grid, RngStream(3, 0))
    path = tmp_path / "field.ncfs"
    write_field(old, path)
    raw = path.read_bytes()

    monkeypatch.setattr(nodal_census.io, "open",
                        lambda *a, **k: _FullDisk(builtins.open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space"):
        write_field(sample_field(PlaneWave2D(), grid, RngStream(3, 1)), path)
    monkeypatch.undo()

    assert path.read_bytes() == raw
    back = load_field(path)
    assert np.array_equal(back.values, old.values)
    assert back.stream == RngStream(3, 0)
    assert read_json(tmp_path / "field.ncfs.json")["index"] == 0
    assert not (tmp_path / "field.ncfs.tmp").exists()


def test_failed_text_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    write_text(path, "old\n")
    monkeypatch.setattr(nodal_census.io, "open",
                        lambda *a, **k: _FullDisk(builtins.open(*a, **k), fail_at=1),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        write_text(path, "new\n")
    monkeypatch.undo()

    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_domain_table_csv_layout():
    grid = PlanarWindow(side=2.0, spacing=0.5)
    values = -np.ones((5, 5))
    values[2, 2] = 1.0
    dec = measure_domains(label_domains(synthetic_sample(values, grid)))
    text = domain_table_csv(dec)
    lines = text.splitlines()
    assert lines[0] == "label,sign,area,perimeter,boundary_components,touches_window"
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert fields[0] == "1" and fields[1] == "+"
    assert float(fields[2]) == 0.25
    assert float(fields[3]) == pytest.approx(2 * math.sqrt(2) * 0.5)
    assert fields[4] == "1" and fields[5] == "false"
    assert text == domain_table_csv(dec)


def test_stat_csv_exports(mini_ensemble):
    psi = psi_estimate(mini_ensemble)
    lines = psi_csv(psi).splitlines()
    assert lines[0] == "t,psi_hat,stderr"
    assert len(lines) == 1 + psi.breakpoints.size
    t0, f0, _ = lines[1].split(",")
    assert float(t0) == psi.breakpoints[0]
    assert float(f0) == psi.fractions[0]

    est = ns_constant_estimate(mini_ensemble, radii=(8.0, 12.0))
    nlines = ns_csv(est).splitlines()
    assert nlines[0] == "R,ratio_mean,ratio_stderr"
    assert [float(l.split(",")[0]) for l in nlines[1:]] == [8.0, 12.0]

    _, pairs = boundary_and_joint_distributions(mini_ensemble)
    jlines = joint_csv(pairs).splitlines()
    assert jlines[0] == "area,perimeter"
    assert len(jlines) == 1 + len(pairs)
    parsed = [tuple(map(float, l.split(","))) for l in jlines[1:]]
    assert parsed == sorted(parsed)


def test_sandwich_csv_spells_infinity(mini_ensemble):
    verdicts = sandwich_check_many(mini_ensemble[0], [(2.0, 8.0)], [50.0, math.inf])
    lines = sandwich_csv(verdicts).splitlines()
    assert lines[0] == "r,R,t,lower,middle,upper,holds"
    ts = [l.split(",")[2] for l in lines[1:]]
    assert ts == ["50.0", "inf"]
    assert all(float(t) in (50.0, math.inf) for t in ts)
    assert {l.split(",")[6] for l in lines[1:]} <= {"true", "false"}


def test_hash_helpers_agree(tmp_path):
    text = "nodal census\n"
    p = tmp_path / "t.txt"
    p.write_text(text)
    assert file_sha256(p) == text_sha256(text)
