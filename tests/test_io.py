import builtins
import errno
import hashlib
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nodal_census.io
from nodal_census import (
    BandLimitedTorus,
    EnsembleConfig,
    LatLongSphere,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    Torus,
    engine,
    label_domains,
    load_field,
    measure_domains,
    run_ensemble,
    sample_field,
    synthetic_sample,
    write_field,
)
from nodal_census.io import (
    FloatColumn,
    canonical_json,
    domain_table_csv,
    file_sha256,
    float_columns,
    fnv1a64,
    json_text,
    joint_csv,
    ns_csv,
    psi_csv,
    read_domain_table,
    read_json,
    sandwich_csv,
    text_sha256,
    write_json,
    write_text,
)
from nodal_census.stats import (
    EmpiricalCdf,
    boundary_and_joint_distributions,
    census_record,
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


def test_write_json_layout(tmp_path):
    p = tmp_path / "x.json"
    write_json(p, {"b": 2, "a": 1})
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert read_json(p) == {"a": 1, "b": 2}


def _jsonable(obj):
    """Recursively map values into strict JSON, spelling out infinities: the
    values the stdlib reference encodes."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            raise ValueError("NaN has no canonical JSON form")
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


# The stdlib layout each of the emitter's two renderings reproduces.
LAYOUTS = {"indented": {"indent": 2}, "compact": {"separators": (",", ":")}}


def _reference_json(obj, layout="indented") -> str:
    """The stdlib rendering of `obj` that the emitter reproduces byte for
    byte: a `write_json` file in the indented layout, `canonical_json` in
    the compact one."""
    text = json.dumps(_jsonable(obj), sort_keys=True, ensure_ascii=True, allow_nan=False,
                      **LAYOUTS[layout])
    return text + "\n" if layout == "indented" else text


def _emitted(obj, layout, tmp_path) -> bytes:
    """The emitter's bytes for `obj`: the file `write_json` writes, or
    `canonical_json`."""
    if layout == "compact":
        return canonical_json(obj).encode("ascii")
    write_json(tmp_path / "x.json", obj)
    return (tmp_path / "x.json").read_bytes()


JSON_CORPUS = [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}]},
    [[1.0, 2.0], [3.5, [4.25, []]]], (1.0, (2.0, 3.0), ()),
    {3: "int key", 2.5: "float key", None: "none key", True: "bool key", 2: "a", "2": "b"},
    {"\u00e9": "na\u00efve \u2603 \x00 \"quoted\" \\ \n\t", "k": "\U0001f600"},
    [True, False, None], [1, 2.5, 3, -0.0], [np.float64(1.5), np.int64(-7), 2.0, np.float32(0.1)],
    np.array([0.1, 2.0, -3.5]), np.array([[1.0, 2.0], [3.0, 4.0]]), np.arange(4), np.array([]),
    [-0.0, 5e-324, 1e300, -1e300, 1.0, 0.1], [1.0, math.inf, -math.inf], np.array([math.inf, 1.0]),
    math.inf, -math.inf, 0.1, -0.0, "top", 7, np.int64(7), None, True,
    {"nested": {"deeper": [{"x": np.float64(2.5), "y": [np.float64(-math.inf)]}]}},
    [True, False, False], {"touches": [[False], [True, True]]},
]


@pytest.mark.parametrize("obj", JSON_CORPUS)
def test_write_json_matches_the_stdlib(tmp_path, obj):
    assert _emitted(obj, "indented", tmp_path) == _reference_json(obj).encode("ascii")
    assert json_text(obj) + "\n" == _reference_json(obj)


@pytest.mark.parametrize("obj", JSON_CORPUS)
def test_canonical_json_matches_the_stdlib(tmp_path, obj):
    assert _emitted(obj, "compact", tmp_path) == _reference_json(obj, "compact").encode("ascii")


NAN_OBJECTS = [math.nan, [1.0, math.nan], {"x": np.float64(math.nan)}, np.array([0.5, math.nan]),
               FloatColumn([0.5, math.nan])]


def _refuses_nan(obj, layout, tmp_path):
    with pytest.raises(ValueError, match="NaN"):
        _reference_json(obj, layout)
    with pytest.raises(ValueError, match="NaN"):
        _emitted(obj, layout, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("obj", NAN_OBJECTS)
def test_write_json_refuses_nan(tmp_path, obj):
    _refuses_nan(obj, "indented", tmp_path)


@pytest.mark.parametrize("obj", NAN_OBJECTS)
def test_canonical_json_refuses_nan(tmp_path, obj):
    _refuses_nan(obj, "compact", tmp_path)


FLOAT_COLUMNS = [[], [0.1], [-0.0, 5e-324, 1e300, -1e300, 1.0, 0.1], [1.0, math.inf, -math.inf]]


@pytest.mark.parametrize("values", FLOAT_COLUMNS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_float_column_emits_like_its_floats(tmp_path, values, layout):
    # a pre-rendered column gives the float path's bytes, with its text or
    # after the text is released, and with infinities spelled out
    column = FloatColumn(values)
    expected = _emitted({"c": values, "n": [values, 2.5]}, layout, tmp_path)
    assert _emitted({"c": column, "n": [column, 2.5]}, layout, tmp_path) == expected
    assert expected == _reference_json({"c": values, "n": [values, 2.5]}, layout).encode("ascii")
    column.text = None
    assert _emitted({"c": column, "n": [column, 2.5]}, layout, tmp_path) == expected


def test_float_columns_share_one_rendering(tmp_path):
    # Awkward columns rendered together: -0.0 in one column and 0.0 in
    # another keep their own text, subnormal and huge values, repeats inside
    # one column, and a boundary value psi lacks.  Every text is its value's
    # repr, and each distinct bit pattern is rendered once: all values with
    # it share one string.
    values = [[-0.0, 5e-324, 0.5, 0.5, 1e300], [0.25, 0.5, 0.5, 1.0, 1.0],
              [0.0, 5e-324, 2.5, 1e300], [0.1, 0.1, 0.1]]
    columns = float_columns(*values)
    assert columns == values
    for column, floats in zip(columns, values):
        assert isinstance(column, FloatColumn)
        assert {type(x) for x in column} == {float}
        assert column.text == list(map(float.__repr__, floats))
    text = [(struct.pack("<d", x), t) for column in columns for x, t in zip(column, column.text)]
    assert len({id(t) for _, t in text}) == len({bits for bits, _ in text}) == 9
    assert len({(bits, id(t)) for bits, t in text}) == 9
    assert [column.text for column in float_columns([0.5, -0.0], [], [0.0])] == [
        ["0.5", "-0.0"], [], ["0.0"]]
    assert FloatColumn(values[0]).text == columns[0].text
    for layout in LAYOUTS:
        expected = _reference_json(dict(zip("abcd", values)), layout).encode("ascii")
        assert _emitted(dict(zip("abcd", columns)), layout, tmp_path) == expected
    refused = float_columns([0.5, math.nan], [0.5])
    assert refused[0].text == ["0.5", "nan"]
    for layout in LAYOUTS:
        with pytest.raises(ValueError, match="NaN"):
            _emitted({"psi": refused[0], "boundary": refused[1]}, layout, tmp_path)


UNSERIALIZABLE = [{1, 2}, [np.bool_(True)], {"x": object()}]


def _refuses_unserializable(obj, layout, tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        _reference_json(obj, layout)
    with pytest.raises(TypeError, match="not JSON serializable"):
        _emitted(obj, layout, tmp_path)


@pytest.mark.parametrize("obj", UNSERIALIZABLE)
def test_write_json_refuses_what_the_stdlib_refuses(tmp_path, obj):
    _refuses_unserializable(obj, "indented", tmp_path)


@pytest.mark.parametrize("obj", UNSERIALIZABLE)
def test_canonical_json_refuses_what_the_stdlib_refuses(tmp_path, obj):
    _refuses_unserializable(obj, "compact", tmp_path)


def test_zero_dimensional_array_is_refused():
    for render in (canonical_json, json_text):
        with pytest.raises(TypeError):
            render(np.array(1.5))


@pytest.fixture(scope="module")
def run_json_files(tmp_path_factory):
    """(path, object) for every JSON file a desk run with containers and an
    l = 40 sphere run write: manifests, sidecars, container sidecars and
    reports."""
    root = tmp_path_factory.mktemp("runs")
    written = []

    def recording(path, obj):
        written.append((Path(path), obj))
        write_json(path, obj)

    desk = EnsembleConfig(
        model=PlaneWave2D(), grid=PlanarWindow(side=40 * math.pi, spacing=2 * math.pi / 10),
        realizations=2, master_seed=7, radii=(10.0, 15.0, 20.0),
        thresholds=(20.0, 50.0, math.inf), checks=engine.CHECK_NAMES, keep_fields=True,
        output_dir=str(root / "desk"),
    )
    sphere = EnsembleConfig(
        model=SphericalHarmonic(degree=40), grid=LatLongSphere(n_lat=200, n_lon=400),
        realizations=2, master_seed=7, checks=("helmholtz",), output_dir=str(root / "sphere"),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "write_json", recording)
        mp.setattr(nodal_census.io, "write_json", recording)
        run_ensemble(desk)
        run_ensemble(sphere)
    return written


def test_write_json_matches_the_stdlib_on_run_files(run_json_files):
    names = [path.name for path, _ in run_json_files]
    assert names.count("report.json") == names.count("manifest.json") == 2
    assert names.count("00000.json") == names.count("00001.json") == 2
    assert names.count("00000.ncfs.json") == 1
    for path, obj in run_json_files:
        assert path.read_bytes() == _reference_json(obj).encode("ascii"), path
        assert path.read_bytes() == _reference_json(read_json(path)).encode("ascii"), path


def test_canonical_json_matches_the_stdlib_on_run_files(run_json_files):
    for path, obj in run_json_files:
        for value in (obj, read_json(path)):
            assert canonical_json(value) == _reference_json(value, "compact"), path
    (sidecar,) = [path for path, _ in run_json_files if path.name == "00000.ncfs.json"]
    raw = sidecar.with_name("00000.ncfs").read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = raw[16 : 16 + hlen]
    assert header == _reference_json(json.loads(header), "compact").encode("ascii")


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
    # version 1 containers carry no checksum
    bad_version.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    with pytest.raises(ValueError, match="unsupported container version 1"):
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
    for key in ("dtype", "grid", "shape", "model", "values_sha256"):
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


def test_field_container_checksums_every_value(tmp_path):
    # node (2, 3) is none of the first, middle and last nodes that the model
    # check evaluates; with its top byte flipped, -0.978 reads as -1.76e308
    grid = PlanarWindow(side=2 * math.pi, spacing=2 * math.pi / 10)
    sample = sample_field(PlaneWave2D(), grid, RngStream(1, 0))
    path = tmp_path / "field.ncfs"
    write_field(sample, path)
    raw = bytearray(path.read_bytes())
    payload = len(raw) - sample.values.nbytes
    raw[payload + 8 * (2 * 11 + 3) + 7] ^= 0x40
    flipped = tmp_path / "flipped.ncfs"
    flipped.write_bytes(raw)
    assert np.frombuffer(raw, dtype="<f8", offset=payload)[2 * 11 + 3] < -1e308
    with pytest.raises(ValueError, match="values_sha256 checksum"):
        load_field(flipped)

    # the checksum is the SHA-256 of the payload as written
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    assert header["values_sha256"] == hashlib.sha256(raw[payload:]).hexdigest()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_field_copies_no_payload(tmp_path, torus160_sample):
    # the payload and its checksum come from the array's own buffer;
    # `.tobytes()` held a second copy of the values here
    nbytes = torus160_sample.values.nbytes
    peak = _traced_peak(lambda: write_field(torus160_sample, tmp_path / "torus.ncfs"))
    assert peak <= 0.1 * nbytes


def test_load_field_reads_into_the_values(tmp_path, torus160_sample):
    # the payload is read into the returned array; a `bytes` read and its
    # `.copy()` held the values twice here
    path = tmp_path / "torus.ncfs"
    write_field(torus160_sample, path)
    nbytes = torus160_sample.values.nbytes
    assert _traced_peak(lambda: load_field(path)) <= 1.2 * nbytes


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


def test_domain_table_csv_measures_first():
    # An unmeasured decomposition gets its perimeters and boundary counts,
    # not the zeros its records start with.
    grid = PlanarWindow(side=4 * math.pi, spacing=2 * math.pi / 10)
    sample = sample_field(PlaneWave2D(), grid, RngStream(3, 0))
    expected = domain_table_csv(measure_domains(label_domains(sample)))
    assert domain_table_csv(label_domains(sample)) == expected


@pytest.mark.parametrize("case", ["sphere", "desk", "torus-2d"])
def test_read_domain_table_gives_the_census_record_columns(case, sphere_l8_dec, desk_grid):
    # the fold reads the table back: the same plain floats and bools, bit
    # for bit, that census_record builds from the decomposition
    if case == "sphere":
        dec = sphere_l8_dec
    else:
        model, grid = {
            "desk": (PlaneWave2D(), desk_grid),
            "torus-2d": (BandLimitedTorus(dim=2, alpha=1.0),
                         Torus(side=40 * math.pi, spacing=2 * math.pi / 10)),
        }[case]
        dec = measure_domains(label_domains(sample_field(model, grid, RngStream(7, 0))))
    columns = ("areas", "perimeters", "touches")
    record = census_record(dec, columns=columns)
    table = read_domain_table(domain_table_csv(dec))
    assert table == record
    assert {type(x) for x in table["areas"] + table["perimeters"]} == {float}
    assert {type(x) for x in table["touches"]} == {bool}
    if case == "desk":  # both spellings of touches_window are read back
        assert any(record["touches"]) and not all(record["touches"])


@pytest.mark.parametrize("text, match", [
    ("label,sign,area,perimeter\n0,+,1.0,2.0\n", "wrong header"),
    ("label,sign,area,perimeter,boundary_components,touches_window\n0,+,1.0,2.0,1\n", "ragged"),
    ("label,sign,area,perimeter,boundary_components,touches_window\n0,+,1.0,2.0,1,false,x\n",
     "ragged"),
    ("label,sign,area,perimeter,boundary_components,touches_window\n0,+,1.0,2.0,1,yes\n",
     "touches_window"),
    ("label,sign,area,perimeter,boundary_components,touches_window\n0,+,one,2.0,1,false\n",
     "could not convert"),
    ("label,sign,area,perimeter,boundary_components,touches_window\n0,+,1.0,2.0,1,false",
     "final newline"),
    ("label,sign,area,perimeter,boundary_components,touches_window\n", "values to unpack"),
    *((f"label,sign,area,perimeter,boundary_components,touches_window\n0,+,1.5,2.0,1,false\n"
       f"1,-,{area},{perimeter},1,false\n", "never writes") for area, perimeter in [
        ("nan", "2.0"), ("1.0", "inf"), ("-inf", "2.0"), ("1.0", "Infinity"), ("1_0.5", "2.0"),
        (" 7.25", "2.0"), ("7.25", "2.0\t"), ("+7.25", "2.0"), ("1.0", "+2.0"), ("7.25", "２.0")]),
], ids=["wrong-header", "short-row", "long-row", "touches", "float", "no-newline", "no-row",
        "nan", "inf", "minus-inf", "infinity", "underscore", "leading-space", "trailing-tab",
        "plus-area", "plus-perimeter", "non-ascii-digit"])
def test_read_domain_table_rejects_what_the_writer_never_writes(text, match):
    with pytest.raises(ValueError, match=match):
        read_domain_table(text)


def test_read_domain_table_reads_every_spelling_repr_writes():
    # exponents carry their own sign; only a leading "+" is refused
    floats = [5e-324, 1e-05, 1e+300, 0.1, 12.566370614359172, 2.0]
    rows = [f"{i},+,{x!r},{y!r},1,true" for i, (x, y) in enumerate(zip(floats, floats[::-1]))]
    table = read_domain_table("\n".join([nodal_census.io._TABLE_HEADER, *rows]) + "\n")
    assert table == {"areas": floats, "perimeters": floats[::-1], "touches": [True] * 6}


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


def _psi_csv_reference(cdf) -> str:
    lines = ["t,psi_hat,stderr"]
    for t, f, e in zip(cdf.breakpoints, cdf.fractions, cdf.stderr):
        lines.append(f"{float(t)!r},{float(f)!r},{float(e)!r}")
    return "\n".join(lines) + "\n"


def _joint_csv_reference(pairs) -> str:
    lines = ["area,perimeter"]
    for a, p in pairs:
        lines.append(f"{float(a)!r},{float(p)!r}")
    return "\n".join(lines) + "\n"


def test_stat_csv_exports_match_the_scalar_rendering(mini_ensemble):
    values = np.array([5e-324, 0.1, 1 / 3, 2.5, 2.5, 1e300])
    single = np.array([1e-45, 0.1, 1 / 3, 2.5, 3e38], dtype=np.float32)
    cdfs = [psi_estimate(mini_ensemble), EmpiricalCdf.from_values(values),
            EmpiricalCdf(breakpoints=single, fractions=single, total_count=5, stderr=single)]
    for cdf in cdfs:
        assert psi_csv(cdf) == _psi_csv_reference(cdf)
    _, pairs = boundary_and_joint_distributions(mini_ensemble)
    table = np.array(pairs)
    for form in (pairs, table, [tuple(row) for row in table], np.array([[-0.0, 5e-324]])):
        assert joint_csv(form) == _joint_csv_reference(form)


def test_exports_take_text_from_float_columns():
    # psi_csv joins a dict's pre-rendered columns; joint_csv takes a value's
    # text from the column entry it is found at only when the bits agree, so
    # -0.0 and 0.0 stay apart and a value the column lacks is rendered
    cdf = EmpiricalCdf.from_values([0.5, 1 / 3, 2.5])
    columns = dict(zip(("breakpoints", "fractions", "stderr"),
                       float_columns(cdf.breakpoints, cdf.fractions, cdf.stderr)))
    assert psi_csv(columns) == psi_csv(cdf) == _psi_csv_reference(cdf)
    columns["fractions"].text = ["a", "b", "c"]
    assert psi_csv(columns).splitlines()[1:] == [f"{t!r},{f},{e!r}" for t, f, e in zip(
        cdf.breakpoints.tolist(), "abc", cdf.stderr.tolist())]
    areas, perimeters = FloatColumn([0.0, 1 / 3]), FloatColumn([-0.0, 2.5])
    areas.text, perimeters.text = ["zero", "third"], ["minus zero", "two and a half"]
    pairs = [(-0.0, 0.0), (0.0, -0.0), (1 / 3, 2.5), (7.0, 5e-324)]
    assert joint_csv(pairs, areas, perimeters).splitlines() == [
        "area,perimeter", "-0.0,0.0", "zero,minus zero", "third,two and a half", "7.0,5e-324"]
    assert joint_csv(pairs, FloatColumn([]), None) == _joint_csv_reference(pairs)


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
