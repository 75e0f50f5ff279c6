"""File formats: field containers, domain tables, CSV exports, JSON helpers.

Everything written here is deterministic byte-for-byte given the same inputs:
floats are rendered with `repr` (shortest round trip), JSON is sorted, and
infinities are spelled "inf"/"-inf" so that canonical hashing stays inside
strict JSON.  All JSON text comes from one emitter, `_emit_json`, in two
layouts: the compact hashing form, `canonical_json` (config hashes,
container headers, sidecar payloads), and the stdlib's two-space
indented layout, `json_text`, which `write_json` writes for every JSON file
(reports, sidecars, manifests, comparisons, container sidecars).  The
emitter formats each list of plain floats in one join rather than one call
per element.

A domain table has one writer, `domain_table_csv`, and one reader,
`read_domain_table`, which gives back the census record's per-domain columns
bit for bit: each float is written as its shortest round-trip `repr`.

Each float that `report.json`, `psi.csv` and `joint.csv` print is rendered
once.  A `FloatColumn` is a list of floats that carries their text, and
`psi_csv`, `joint_csv` and the emitter join that text.  `float_columns` is
the only way to build one: it renders its columns in one `_rendered` pass,
which keys the values on their float64 bits, renders each distinct pattern
once and hands every value its pattern's text.  The engine builds all eight
columns the three files print (the breakpoints, fractions and stderrs of the
psi and boundary CDFs, and the joint sample's areas and perimeters) in one
`float_columns` call, so a value that occurs in several columns, as every
joint value and nearly every boundary fraction does, is rendered once; each
CSV is a row-by-row join of its columns' text.  Every all-float CSV export,
`ns_csv` too, is such a join (`_joined`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .grids import grid_from_dict, json_object
from .nodal import measure_domains
from .sampler import FieldSample, RngStream, evaluate_at, model_from_dict

__all__ = [
    "FNV_OFFSET",
    "FNV_PRIME",
    "fnv1a64",
    "canonical_json",
    "write_text",
    "json_text",
    "write_json",
    "read_json",
    "json_object",
    "write_field",
    "load_field",
    "domain_table_csv",
    "read_domain_table",
    "psi_csv",
    "ns_csv",
    "joint_csv",
    "FloatColumn",
    "float_columns",
    "sandwich_csv",
    "file_sha256",
    "text_sha256",
]

MAGIC = b"NCFS"
CONTAINER_VERSION = 2
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data) -> int:
    """64-bit FNV-1a over bytes (str input is encoded as UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _U64
    return h


@contextlib.contextmanager
def _replacing(path: Path, mode: str, **kwargs):
    """Open a sibling temp file for writing and move it over `path` once the
    block exits cleanly, so a crash mid-write leaves either the old file or
    none, never a torn one.  A write that raises removes its temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Write `text` to `path` through a sibling temp file (see `_replacing`)."""
    with _replacing(Path(path), "w", newline="\n") as fh:
        fh.write(text)


def _rendered(arrays: list[np.ndarray]) -> list[list[str]]:
    """The one rendering of report floats: the shortest round-trip `repr` of
    every value of each 1-D float64 array.  Each distinct bit pattern among
    all the arrays is rendered once, and every value takes its pattern's
    text by a gather, so equal values across arrays share one string;
    keying on bits keeps -0.0 apart from 0.0."""
    bits, inverse = np.unique(np.concatenate(arrays).view(np.int64), return_inverse=True)
    text = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    ends = np.cumsum([a.size for a in arrays])
    return [text[part].tolist() for part in np.split(inverse, ends[:-1])]


class FloatColumn(list):
    """A list of plain floats that carries their text, the shortest
    round-trip `repr` of each, from `_rendered`, the one rendering every
    float export shares; `float_columns` builds it.  Every reader, the
    stdlib encoder included, sees the floats; `_emit_json`, `psi_csv` and
    `joint_csv` join `text` instead of rendering each float again.  Treat it
    as read-only, and set `text` to None once the files that share it are
    written."""

    __slots__ = ("text",)

    def __init__(self, values: np.ndarray, text: list[str]):
        super().__init__(values.tolist())
        self.text = text


def float_columns(*columns) -> list[FloatColumn]:
    """Each of `columns` as a `FloatColumn`, all rendered in one `_rendered`
    pass: a float that occurs in several columns, or several times in one,
    is rendered once and every occurrence shares its text."""
    arrays = [np.asarray(column, dtype=np.float64) for column in columns]
    return list(map(FloatColumn, arrays, _rendered(arrays)))


def _emit_json(obj, pad: str | None, out: list) -> None:
    """Append the JSON text of `obj` to `out`: keys sorted and stringified,
    tuples and arrays as lists, ASCII only, floats as their shortest
    round-trip `repr`, infinities spelled "inf"/"-inf" and NaN refused.
    `pad` is the indent of the line `obj` starts on in the stdlib's
    two-space layout, or None for the compact layout.  A list of finite
    plain floats is rendered in one join; a `FloatColumn` lends its text to
    that join."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            raise ValueError("NaN has no canonical JSON form")
        out.append(float.__repr__(x) if math.isfinite(x) else '"inf"' if x > 0 else '"-inf"')
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            obj = list(obj.tolist())
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = None if pad is None else pad + "  "
        brk = "" if pad is None else "\n" + inner
        end = "" if pad is None else "\n" + pad
        if isinstance(obj, dict):
            colon = ":" if pad is None else ": "
            sep = "{" + brk
            for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
                out.append(sep + encode_basestring_ascii(key) + colon)
                _emit_json(value, inner, out)
                sep = "," + brk
            out.append(end + "}")
        elif isinstance(obj, FloatColumn) and obj.text is not None and all(map(math.isfinite, obj)):
            out.append("[" + brk + ("," + brk).join(obj.text) + end + "]")
        elif set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            out.append("[" + brk + ("," + brk).join(map(float.__repr__, obj)) + end + "]")
        else:
            sep = "[" + brk
            for value in obj:
                out.append(sep)
                _emit_json(value, inner, out)
                sep = "," + brk
            out.append(end + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """Compact, sorted, ASCII JSON; the hashing form."""
    out = []
    _emit_json(obj, None, out)
    return "".join(out)


def json_text(obj) -> str:
    """Sorted JSON in the stdlib's two-space indented layout, without a
    final newline: the values of `canonical_json`, laid out as `write_json`
    writes them."""
    out = []
    _emit_json(obj, "", out)
    return "".join(out)


def write_json(path, obj) -> None:
    """Write `json_text(obj)` plus a newline to `path` through a sibling
    temp file.  The text is built as a list of pieces, each run of plain
    floats formatted in bulk, where the stdlib's indented encoder would
    visit every element in Python."""
    write_text(path, json_text(obj) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_field(sample: FieldSample, path) -> None:
    """Write the self-describing binary container plus its JSON sidecar.

    Layout: magic "NCFS", u32 version, u64 header length, canonical-JSON
    header (dtype/shape/grid/model/seed/values_sha256), then the values as
    little-endian float64 in C order.  `values_sha256` is the SHA-256 of
    that payload; the payload is written from the array's own buffer, with
    no bytes copy.  Spectral coefficients are not stored: `load_field`
    redraws them from the model and seed, so a reloaded sample is measured
    and evaluated off-grid exactly as the one written.
    The container goes through a sibling temp file, so a failed write leaves
    the previous container at `path` intact.
    """
    path = Path(path)
    seed = None
    if sample.stream is not None:
        seed = {"master_seed": sample.stream.master_seed,
                "stream_id": sample.stream.stream_id}
    values = np.ascontiguousarray(sample.values, dtype="<f8")
    header = {
        "dtype": "<f8",
        "shape": list(sample.values.shape),
        "grid": sample.grid.to_dict(),
        "model": sample.model.to_dict() if sample.model is not None else None,
        "seed": seed,
        "values_sha256": hashlib.sha256(values.data).hexdigest(),
    }
    hbytes = canonical_json(header).encode("utf-8")
    with _replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CONTAINER_VERSION))
        fh.write(struct.pack("<Q", len(hbytes)))
        fh.write(hbytes)
        fh.write(values.data)
    sidecar = {
        "kind": "field-sample",
        "version": CONTAINER_VERSION,
        "model": header["model"],
        "seed": seed,
        "index": seed["stream_id"] if seed else None,
    }
    write_json(path.with_name(path.name + ".json"), sidecar)


def load_field(path) -> FieldSample:
    """Read a container whose header shape is its grid's shape, whose file
    ends with the value payload and whose payload hashes to the header's
    `values_sha256`; a sampled field's coefficients are redrawn from its
    model and seed and checked against the stored values at a few nodes.
    The payload is read straight into the returned array."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path} is not a field container (bad magic)")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CONTAINER_VERSION:
            raise ValueError(f"unsupported container version {version}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json_object(json.loads(fh.read(hlen).decode("utf-8")), f"{path}: header",
                             "dtype", "grid", "shape", "model", "values_sha256")
        seed = header.get("seed")
        if seed is not None:
            json_object(seed, f"{path}: header seed", "master_seed", "stream_id")
        if header["dtype"] != "<f8":
            raise ValueError(f"unsupported dtype {header['dtype']}")
        grid = grid_from_dict(header["grid"], f"{path}: header grid")
        shape = tuple(header["shape"])
        if shape != grid.shape:
            raise ValueError(f"{path}: header shape {shape} does not match the grid's {grid.shape}")
        values = np.empty(shape, dtype="<f8")
        if fh.readinto(values.data) != values.nbytes:
            raise ValueError(f"{path}: truncated payload")
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the value payload")
    if hashlib.sha256(values.data).hexdigest() != header["values_sha256"]:
        raise ValueError(f"{path}: values do not match the header's values_sha256 checksum")
    model = None if header["model"] is None else model_from_dict(
        header["model"], f"{path}: header model")
    stream = RngStream(seed["master_seed"], seed["stream_id"]) if seed is not None else None
    sample = FieldSample(values=values, grid=grid, model=model, stream=stream)
    if model is not None and stream is not None:
        sample.coeffs = model.draw(grid, stream)
        # the first, middle and last node along every axis
        nodes = tuple(np.array([0, n // 2, n - 1]) for n in shape)
        points = np.stack([c[i] for c, i in zip(grid.axes(), nodes)], axis=1)
        if not np.allclose(evaluate_at(sample, points), values[nodes], rtol=0.0, atol=1e-8):
            raise ValueError(f"{path}: values disagree with the field its model and seed draw")
    return sample


_TABLE_HEADER = "label,sign,area,perimeter,boundary_components,touches_window"
_TOUCHES = {"true": True, "false": False}


def domain_table_csv(dec) -> str:
    """Pinned per-domain table; one row per label in label order.  Measures
    the decomposition first if it is not yet measured."""
    measure_domains(dec)
    lines = [_TABLE_HEADER]
    for rec in dec.domains:
        lines.append(
            f"{rec.label},{'+' if rec.sign > 0 else '-'},{rec.area!r},"
            f"{rec.perimeter!r},{rec.boundary_components},"
            f"{'true' if rec.touches_window else 'false'}"
        )
    return "\n".join(lines) + "\n"


# the bytes of float fields that `repr` wrote, joined by commas: no
# underscore, whitespace, or letter of "nan" and "inf"
_FIELD_BYTES = b"0123456789.e+-,"


def read_domain_table(text: str) -> dict:
    """The census record columns of a `domain_table_csv` text: `areas`,
    `perimeters` and `touches`, in label order, as the plain floats and
    bools `stats.census_record` builds.  Raises ValueError for a text whose
    header differs, whose rows are ragged, or whose fields do not parse,
    and for a float field the writer never writes, though `float` reads
    it: a non-finite value, an underscore, whitespace or a leading "+"."""
    lines = text.split("\n")
    if lines[0] != _TABLE_HEADER or lines[-1] != "":
        raise ValueError("not a domain table: wrong header or no final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != 6 for row in rows):
        raise ValueError("ragged domain table row")
    _, _, areas, perimeters, _, touches = zip(*rows)  # refuses a table with no row
    try:
        touches = list(map(_TOUCHES.__getitem__, touches))
    except KeyError as exc:
        raise ValueError(f"bad touches_window field {exc}") from None
    record = {
        "areas": list(map(float, areas)),
        "perimeters": list(map(float, perimeters)),
        "touches": touches,
    }
    fields = ",".join(areas + perimeters)
    if fields.encode().translate(None, _FIELD_BYTES) or fields[0] == "+" or ",+" in fields:
        raise ValueError("a float field the domain table writer never writes")
    return record


def _joined(header: str, *columns) -> str:
    """`header`, then one row per index: the text of each column's value
    there, comma-joined.  Columns that all carry their text, as the
    engine's `float_columns` give them, are joined as they are; otherwise
    every column is rendered in one `float_columns` call."""
    if not all(isinstance(column, FloatColumn) and column.text is not None for column in columns):
        columns = float_columns(*columns)
    return "\n".join([header, *map(",".join, zip(*(column.text for column in columns)))]) + "\n"


def psi_csv(breakpoints, fractions, stderr) -> str:
    """One row per breakpoint of a CDF's three columns: t, psi_hat and
    stderr."""
    return _joined("t,psi_hat,stderr", breakpoints, fractions, stderr)


def ns_csv(est) -> str:
    """One row per radius of an `NsEstimate`: R, ratio_mean and ratio_stderr."""
    return _joined("R,ratio_mean,ratio_stderr", est.radii, est.ratio_means, est.ratio_stderrs)


def joint_csv(areas, perimeters) -> str:
    """One row per (area, perimeter) pair of the joint sample's two columns,
    such as `pairs[:, 0]` and `pairs[:, 1]` of `stats.fold_boundary`."""
    return _joined("area,perimeter", areas, perimeters)


def sandwich_csv(verdicts) -> str:
    lines = ["r,R,t,lower,middle,upper,holds"]
    for v in verdicts:
        lines.append(
            f"{v.r!r},{v.R!r},{v.t!r},{v.lower!r},{v.middle},"
            f"{v.upper!r},{'true' if v.holds else 'false'}"
        )
    return "\n".join(lines) + "\n"


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
