"""Output checks: digests of what a run wrote, and per-realization invariants.

A run directory's digest covers report.json without its "timing" key, every
realizations/*.csv and every CSV export; a library run's digest covers each
kept decomposition's label array and domain table.  Digests are compared
only for the default seed.  The invariants below hold for any seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from nodal_census import PlanarWindow, domain_table_csv
from nodal_census.io import file_sha256

from tracing import wraps


def without_timing(report_path: Path) -> str:
    with open(report_path) as fh:
        report = json.load(fh)
    report.pop("timing", None)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def export_names(outdir: Path) -> list[str]:
    return sorted(p.name for p in outdir.glob("*.csv"))


def run_digest(outdir: Path) -> str:
    h = hashlib.sha256()
    h.update(without_timing(outdir / "report.json").encode())
    tables = [f"realizations/{p.name}" for p in sorted((outdir / "realizations").glob("*.csv"))]
    for name in tables + export_names(outdir):
        h.update(b"\0" + name.encode() + b"\0" + (outdir / name).read_bytes())
    return h.hexdigest()


def library_digest(decs) -> str:
    h = hashlib.sha256()
    for dec in decs:
        h.update(dec.labels.astype("<i4").tobytes())
        h.update(domain_table_csv(dec).encode())
    return h.hexdigest()


def sidecar_status(outdir: Path, realizations: int):
    """(path, ok) per sidecar: ok when its csv_sha256 matches its CSV.  A
    missing pair is a failed realization, which the report already lists."""
    for i in range(realizations):
        csv_path = outdir / "realizations" / f"{i:05d}.csv"
        json_path = outdir / "realizations" / f"{i:05d}.json"
        if json_path.exists():
            with open(json_path) as fh:
                yield json_path, json.load(fh)["csv_sha256"] == file_sha256(csv_path)


def flood_fill_labels(signs: np.ndarray) -> np.ndarray:
    """Reference 4-connected labelling of a planar grid, numbered in
    row-major order of first appearance."""
    n0, n1 = signs.shape
    labels = np.full(signs.shape, -1, dtype=np.int64)
    nxt = 0
    for i in range(n0):
        for j in range(n1):
            if labels[i, j] >= 0:
                continue
            labels[i, j] = nxt
            stack = [(i, j)]
            while stack:
                a, b = stack.pop()
                for c, d in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
                    if 0 <= c < n0 and 0 <= d < n1 and labels[c, d] < 0 and signs[c, d] == signs[a, b]:
                        labels[c, d] = nxt
                        stack.append((c, d))
            nxt += 1
    return labels


def labels_consistent(dec) -> bool:
    """Same-sign neighbours share a label, every label has one sign, and
    labels run 0..K-1 in row-major order of first appearance."""
    pos = dec.sample.values >= 0
    labels = dec.labels
    for ax, wrap in enumerate(wraps(dec.sample.grid)):
        link = pos == np.roll(pos, -1, axis=ax)
        if not wrap:
            last = [slice(None)] * pos.ndim
            last[ax] = -1
            link[tuple(last)] = False  # np.roll paired the last slice with the first
        if np.any(labels[link] != np.roll(labels, -1, axis=ax)[link]):
            return False
    flat = labels.ravel()
    uniq, first = np.unique(flat, return_index=True)
    if not np.array_equal(uniq, np.arange(uniq.size)) or np.any(np.diff(first) <= 0):
        return False
    return bool(np.array_equal(pos.ravel()[first][flat], pos.ravel()))


def library_ok(dec) -> bool:
    """Planar windows match the flood fill, other grids have consistent
    labels; 2-D grids tile their area with refined areas, and 3-D tori count
    each sign-changing face once per side."""
    grid = dec.sample.grid
    if isinstance(grid, PlanarWindow):
        if not np.array_equal(dec.labels, flood_fill_labels(dec.sample.values >= 0)):
            return False
    elif not labels_consistent(dec):
        return False
    if dec.labels.ndim == 3:
        perimeters = sum(rec.perimeter for rec in dec.domains)
        return math.isclose(perimeters, 2.0 * dec.total_nodal_length, rel_tol=1e-9)
    refined = sum(rec.refined_area for rec in dec.domains)
    return math.isclose(refined, grid.side**2, rel_tol=1e-9)
