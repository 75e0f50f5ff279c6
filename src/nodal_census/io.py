"""File formats: field containers, domain tables, CSV exports, JSON helpers.

Everything written here is deterministic byte-for-byte given the same inputs:
floats are rendered with `repr` (shortest round trip), JSON is sorted, and
infinities are spelled "inf"/"-inf" so that canonical hashing stays inside
strict JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .grids import grid_from_dict
from .sampler import FieldSample, RngStream, evaluate_at, model_from_dict

__all__ = [
    "FNV_OFFSET",
    "FNV_PRIME",
    "fnv1a64",
    "canonical_json",
    "write_text",
    "write_json",
    "read_json",
    "float_token",
    "write_field",
    "load_field",
    "domain_table_csv",
    "psi_csv",
    "ns_csv",
    "joint_csv",
    "sandwich_csv",
    "file_sha256",
    "text_sha256",
]

MAGIC = b"NCFS"
CONTAINER_VERSION = 1
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


def _jsonable(obj):
    """Recursively map values into strict JSON, spelling out infinities."""
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


def canonical_json(obj) -> str:
    """Compact, sorted, ASCII JSON; the hashing form."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


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


def write_json(path, obj) -> None:
    write_text(path, json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                                ensure_ascii=True, allow_nan=False) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def float_token(x: float) -> str:
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def write_field(sample: FieldSample, path) -> None:
    """Write the self-describing binary container plus its JSON sidecar.

    Layout: magic "NCFS", u32 version, u64 header length, canonical-JSON
    header (dtype/shape/grid/model/seed), then the values as little-endian
    float64 in C order.  Spectral coefficients are not stored: `load_field`
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
    header = {
        "dtype": "<f8",
        "shape": list(sample.values.shape),
        "grid": sample.grid.to_dict(),
        "model": sample.model.to_dict() if sample.model is not None else None,
        "seed": seed,
    }
    hbytes = canonical_json(header).encode("utf-8")
    with _replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CONTAINER_VERSION))
        fh.write(struct.pack("<Q", len(hbytes)))
        fh.write(hbytes)
        fh.write(np.ascontiguousarray(sample.values, dtype="<f8").tobytes())
    sidecar = {
        "kind": "field-sample",
        "version": CONTAINER_VERSION,
        "model": header["model"],
        "seed": seed,
        "index": seed["stream_id"] if seed else None,
    }
    write_json(path.with_name(path.name + ".json"), sidecar)


def load_field(path) -> FieldSample:
    """Read a container whose header shape is its grid's shape and whose
    file ends with the value payload; a sampled field's coefficients are
    redrawn from its model and seed and checked against the stored values
    at a few nodes."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path} is not a field container (bad magic)")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CONTAINER_VERSION:
            raise ValueError(f"unsupported container version {version}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        for key in ("dtype", "grid", "shape", "model"):
            if key not in header:
                raise ValueError(f"{path}: header lacks {key!r}")
        seed = header.get("seed")
        if seed is not None:
            if not isinstance(seed, dict):
                raise ValueError(f"{path}: header seed is not a JSON object")
            for key in ("master_seed", "stream_id"):
                if key not in seed:
                    raise ValueError(f"{path}: header seed lacks {key!r}")
        if header["dtype"] != "<f8":
            raise ValueError(f"unsupported dtype {header['dtype']}")
        grid = grid_from_dict(header["grid"])
        shape = tuple(header["shape"])
        if shape != grid.shape:
            raise ValueError(f"{path}: header shape {shape} does not match the grid's {grid.shape}")
        count = int(np.prod(shape))
        payload = fh.read(count * 8)
        if len(payload) != count * 8:
            raise ValueError(f"{path}: truncated payload")
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the value payload")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    model = model_from_dict(header["model"]) if header["model"] is not None else None
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


def domain_table_csv(dec) -> str:
    """Pinned per-domain table; one row per label in label order."""
    lines = ["label,sign,area,perimeter,boundary_components,touches_window"]
    for rec in dec.domains:
        lines.append(
            f"{rec.label},{'+' if rec.sign > 0 else '-'},{rec.area!r},"
            f"{rec.perimeter!r},{rec.boundary_components},"
            f"{'true' if rec.touches_window else 'false'}"
        )
    return "\n".join(lines) + "\n"


def psi_csv(cdf) -> str:
    lines = ["t,psi_hat,stderr"]
    for t, f, e in zip(cdf.breakpoints, cdf.fractions, cdf.stderr):
        lines.append(f"{float(t)!r},{float(f)!r},{float(e)!r}")
    return "\n".join(lines) + "\n"


def ns_csv(est) -> str:
    lines = ["R,ratio_mean,ratio_stderr"]
    for r, m, e in zip(est.radii, est.ratio_means, est.ratio_stderrs):
        lines.append(f"{r!r},{m!r},{e!r}")
    return "\n".join(lines) + "\n"


def joint_csv(pairs) -> str:
    lines = ["area,perimeter"]
    for a, p in pairs:
        lines.append(f"{float(a)!r},{float(p)!r}")
    return "\n".join(lines) + "\n"


def sandwich_csv(verdicts) -> str:
    lines = ["r,R,t,lower,middle,upper,holds"]
    for v in verdicts:
        lines.append(
            f"{v.r!r},{v.R!r},{float_token(v.t)},{v.lower!r},{v.middle},"
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
