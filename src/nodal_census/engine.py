"""Ensemble orchestration: seeds, workers, persistence, and report assembly.

A run directory holds `manifest.json` (config echo, config hash, version),
`realizations/#####.csv` (the pinned per-domain tables), `realizations/
#####.json` (per-realization sidecars carrying the engine version, the
config hash, the table checksum, the payload checksum and, as payload, the
canonical JSON text of what the table lacks: the census record's
`nodal_length`, its `dmax` where a fold reads it, and the check results),
`report.json`, and the CSV exports.  The table is the only on-disk home of
the per-domain columns: fresh and resumed realizations alike fold the record
`io.read_domain_table` reads from the table's text, joined with the
payload.  Both checksums cover text exactly as stored, so a resume checks
them without rendering anything.  `dmax` is stored only on planar and torus
runs (`effective_psi_radius` is set); a sphere has no ball restriction.  The
report payload is a pure fold of those records sorted by index, through the
same `stats` estimators the library calls, so it is byte-identical across
execution orders, worker counts, and fresh-vs-resumed runs; wall-clock
numbers live only under the "timing" key.

The config hash deliberately excludes `output_dir`: it identifies what was
computed, not where it landed, which is what both resume validation and the
cross-directory determinism contract need.

The engine holds no per-grid table: each realization calls `sample_field`
once, for its field and, when the perturbation check runs, its direction
field (stream `PERTURBATION_STREAM_BASE + index`), which a plane wave
synthesizes in one pass over its basis.  The sampler builds the grid's
table on the first draw and shares it read-only across realizations, worker
threads and later runs on the same grid.  A resume that reuses every
realization never samples, so it builds no table.  A run computes its
config hash once and stamps it into every sidecar and the report.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import GridSpec, LatLongSphere, PlanarWindow, grid_from_dict
from .io import (
    canonical_json,
    domain_table_csv,
    float_columns,
    fnv1a64,
    joint_csv,
    ns_csv,
    psi_csv,
    read_domain_table,
    read_json,
    sandwich_csv,
    text_sha256,
    write_field,
    write_json,
    write_text,
)
from .nodal import label_domains, measure_domains, perturbation_stability
from .sampler import (
    RngStream,
    SpectralModel,
    covariance_probe_means,
    helmholtz_residual,
    model_from_dict,
    sample_field,
)
from .stats import (
    EmpiricalCdf,
    NsEstimate,
    SandwichVerdict,
    census_record,
    fold_boundary,
    fold_faber_krahn,
    fold_nodal_length,
    fold_ns,
    fold_psi,
    mean_stderr,
    sandwich_check_many,
)

__all__ = [
    "CHECK_NAMES",
    "EnsembleConfig",
    "EnsembleFailure",
    "EnsembleReport",
    "hash_config",
    "run_ensemble",
    "resume_ensemble",
    "worker_count",
]

ENGINE_VERSION = 1
CHECK_NAMES = ("covariance", "faber_krahn", "helmholtz", "perturbation", "sandwich")
DEFAULT_SANDWICH_GEOMETRIES = ((5.0, 15.0), (8.0, 20.0))
COVARIANCE_LAGS = (1.0, 2.4048, 5.0)
PERTURBATION_B = (1e-3, 5e-4)
FK_MARGIN = 0.10
# Direction fields for the perturbation check draw from streams disjoint
# from the realization streams (which are the plain indices 0..M-1).
PERTURBATION_STREAM_BASE = 2**32
_CDF_COLUMNS = ("breakpoints", "fractions", "stderr")


def hash_config(config: dict) -> str:
    """The 16-hex-digit FNV-1a hash of a config dict's canonical JSON, as
    stamped into manifests, sidecars and reports."""
    return f"{fnv1a64(canonical_json(config)):016x}"


class EnsembleFailure(RuntimeError):
    """Raised when the ensemble cannot produce a trustworthy report."""


@dataclass
class EnsembleConfig:
    model: SpectralModel
    grid: GridSpec
    realizations: int
    master_seed: int
    radii: tuple = ()
    thresholds: tuple = ()
    checks: tuple = ()
    output_dir: str = ""
    psi_radius: float | None = None
    sandwich_geometries: tuple = DEFAULT_SANDWICH_GEOMETRIES
    keep_fields: bool = False

    def validate(self) -> None:
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master seed must fit in 64 bits")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ValueError(f"unknown check {name!r}")
        if len(set(self.checks)) != len(self.checks):
            raise ValueError("duplicate check names")
        thr = [float(t) for t in self.thresholds]
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError("thresholds must be strictly increasing")
        sphere = isinstance(self.grid, LatLongSphere)
        if sphere:
            if self.radii:
                raise ValueError("ball-count radii apply to planar and torus grids only")
            if self.psi_radius is not None:
                raise ValueError("psi_radius applies to planar and torus grids only")
            for name in ("covariance", "faber_krahn", "sandwich"):
                if name in self.checks:
                    raise ValueError(f"check {name!r} applies to planar grids only")
            return
        center = self.grid.center
        for radius in self.radii:
            if radius <= 0:
                raise ValueError("radii must be positive")
            self.grid.require_ball(center, radius, f"ball-count radius {radius}")
        if self.psi_radius is not None:
            if self.psi_radius <= 0:
                raise ValueError("psi_radius must be positive")
            self.grid.require_ball(center, self.psi_radius, f"psi_radius {self.psi_radius}")
        if "sandwich" in self.checks:
            if not self.thresholds:
                raise ValueError("the sandwich check needs thresholds")
            for r, R in self.sandwich_geometries:
                if not 0 < r < R:
                    raise ValueError(f"need 0 < r < R in sandwich geometry ({r}, {R})")
                self.grid.require_ball(center, R + r, f"sandwich reach R+r {R + r}")
        if "covariance" in self.checks:
            if not isinstance(self.grid, PlanarWindow):
                raise ValueError("the covariance check runs on planar windows")
            if self.grid.side < 5.0 * max(COVARIANCE_LAGS):
                raise ValueError("window too small for the covariance probe set")
        if "faber_krahn" in self.checks and not isinstance(self.grid, PlanarWindow):
            raise ValueError("the minimum-area check runs on planar windows")
        if "sandwich" in self.checks and self.grid.dim != 2:
            raise ValueError("the sandwich check runs on 2-D grids")

    def effective_psi_radius(self) -> float | None:
        if isinstance(self.grid, LatLongSphere):
            return None
        if self.psi_radius is not None:
            return self.psi_radius
        return 0.5 * self.grid.side - 2.0 * self.grid.spacing

    def to_dict(self) -> dict:
        # output_dir intentionally omitted; see the module docstring.
        return {
            "model": self.model.to_dict(),
            "grid": self.grid.to_dict(),
            "realizations": self.realizations,
            "master_seed": self.master_seed,
            "radii": [float(r) for r in self.radii],
            "thresholds": [float(t) for t in self.thresholds],
            "checks": sorted(self.checks),
            "psi_radius": self.psi_radius,
            "sandwich_geometries": [[float(r), float(R)] for r, R in self.sandwich_geometries],
            "keep_fields": self.keep_fields,
        }

    @classmethod
    def from_dict(cls, d: dict, output_dir: str = "") -> "EnsembleConfig":
        return cls(
            model=model_from_dict(d["model"]),
            grid=grid_from_dict(d["grid"]),
            realizations=int(d["realizations"]),
            master_seed=int(d["master_seed"]),
            radii=tuple(float(r) for r in d.get("radii", [])),
            thresholds=tuple(float(t) for t in d.get("thresholds", [])),
            checks=tuple(sorted(d.get("checks", []))),
            output_dir=output_dir or d.get("output_dir", ""),
            psi_radius=d.get("psi_radius"),
            sandwich_geometries=tuple(
                (float(r), float(R)) for r, R in d.get("sandwich_geometries", DEFAULT_SANDWICH_GEOMETRIES)
            ),
            keep_fields=bool(d.get("keep_fields", False)),
        )

    def config_hash(self) -> str:
        return hash_config(self.to_dict())


@dataclass
class EnsembleReport:
    config: EnsembleConfig
    report: dict
    psi: EmpiricalCdf
    boundary: EmpiricalCdf
    ns: NsEstimate | None
    output_dir: Path
    # the census records the report folded, in index order, each with its "index"
    records: list[dict]


def worker_count() -> int:
    env = os.environ.get("NODAL_CENSUS_THREADS")
    if env is not None:
        n = int(env)
        if n < 1:
            raise ValueError("NODAL_CENSUS_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _realization_paths(outdir: Path, index: int) -> tuple[Path, Path]:
    base = outdir / "realizations"
    return base / f"{index:05d}.csv", base / f"{index:05d}.json"


def _run_checks(config: EnsembleConfig, sample, dec, direction) -> dict:
    out = {}
    if "sandwich" in config.checks:
        thresholds = [float(t) for t in config.thresholds]
        verdicts = sandwich_check_many(dec, config.sandwich_geometries, thresholds)
        out["sandwich"] = {"verdicts": [v.to_dict() for v in verdicts]}
    if "helmholtz" in config.checks:
        out["helmholtz"] = {"residual": float(helmholtz_residual(sample))}
    if "covariance" in config.checks:
        probe = covariance_probe_means(sample, COVARIANCE_LAGS)
        out["covariance"] = {"lags": list(COVARIANCE_LAGS), "probe_means": probe.tolist()}
    if "perturbation" in config.checks:
        medians = []
        for b in PERTURBATION_B:
            matches = perturbation_stability(dec, direction, b)
            deltas = [m[2] for m in matches]
            medians.append(float(np.median(deltas)) if deltas else None)
        ratio = None
        if medians[0] is not None and medians[1]:
            ratio = medians[0] / medians[1]
        out["perturbation"] = {"b": list(PERTURBATION_B), "medians": medians, "ratio": ratio}
    return out


def _payload_columns(config: EnsembleConfig) -> tuple:
    """The census record columns the domain table lacks, which the payload
    carries: `nodal_length`, and `dmax` where a ball restriction reads it."""
    if config.effective_psi_radius() is None:
        return ("nodal_length",)
    return ("dmax", "nodal_length")


def _payload_complete(config: EnsembleConfig, payload) -> bool:
    """Whether `payload` is a dict holding every record column and check
    result the fold reads; its values are checked by the sidecar's payload
    checksum."""
    if not isinstance(payload, dict) or not all(c in payload for c in _payload_columns(config)):
        return False
    checks = payload.get("checks")
    # faber_krahn folds the record columns; every other check stores a result
    stored = [name for name in config.checks if name != "faber_krahn"]
    return isinstance(checks, dict) and all(name in checks for name in stored)


def _realize(config: EnsembleConfig, index: int, outdir: Path) -> tuple[str, dict]:
    stream = RngStream(config.master_seed, index)
    if "perturbation" in config.checks:
        sample, direction = sample_field(
            config.model, config.grid, stream,
            RngStream(config.master_seed, PERTURBATION_STREAM_BASE + index),
        )
    else:
        sample, direction = sample_field(config.model, config.grid, stream), None
    dec = label_domains(sample)
    measure_domains(dec)
    payload = census_record(dec, columns=_payload_columns(config))
    payload["checks"] = _run_checks(config, sample, dec, direction)
    csv_text = domain_table_csv(dec)
    if config.keep_fields:
        fields_dir = outdir / "fields"
        fields_dir.mkdir(parents=True, exist_ok=True)
        write_field(sample, fields_dir / f"{index:05d}.ncfs")
    return csv_text, payload


def _persist(
    outdir: Path, config: EnsembleConfig, index: int, csv_text: str, payload: dict, config_hash: str
) -> None:
    csv_path, json_path = _realization_paths(outdir, index)
    write_text(csv_path, csv_text)
    payload_text = canonical_json(payload)
    sidecar = {
        "version": ENGINE_VERSION,
        "index": index,
        "master_seed": config.master_seed,
        "config_hash": config_hash,
        "csv_sha256": text_sha256(csv_text),
        "payload_sha256": text_sha256(payload_text),
        "payload": payload_text,
    }
    write_json(json_path, sidecar)


def _record(csv_text: str, payload: dict) -> dict:
    """The census record a realization folds: its domain table's columns,
    as the one table reader gives them, joined with its payload."""
    return dict(payload, **read_domain_table(csv_text))


def _stored_record(config: EnsembleConfig, config_hash: str, outdir: Path, index: int):
    """The record of realization `index` as stored under `outdir`, or None
    when it must be recomputed: a table or sidecar that is missing or
    unreadable, a sidecar that is not a JSON object, was written by another
    engine version or for another config, or whose table or payload
    checksum disagrees, a payload without a record column or check result
    the fold reads, and a table the reader refuses.  Each checksum is taken
    over the text as stored: the table is read once, as bytes, whose UTF-8
    text is parsed, and the payload is stored as its canonical JSON text, so
    checking it renders nothing."""
    csv_path, json_path = _realization_paths(outdir, index)
    try:
        sidecar = read_json(json_path)
        if not isinstance(sidecar, dict) or sidecar.get("version") != ENGINE_VERSION:
            return None
        if sidecar.get("index") != index or sidecar.get("config_hash") != config_hash:
            return None
        table = csv_path.read_bytes()
        if sidecar.get("csv_sha256") != hashlib.sha256(table).hexdigest():
            return None
        text = sidecar.get("payload")
        if not isinstance(text, str) or sidecar.get("payload_sha256") != text_sha256(text):
            return None
        payload = json.loads(text)
        if not _payload_complete(config, payload):
            return None
        return _record(table.decode("utf-8"), payload)
    except (OSError, ValueError):  # missing, torn, or refused by a reader
        return None


def _execute(config: EnsembleConfig, config_hash: str, outdir: Path, reuse: dict) -> tuple[dict, list]:
    """Fold records by index: `reuse`'s records as given, and every other
    realization sampled, persisted and read back through `_record`."""
    def run_one(index: int):
        if index in reuse:
            return index, reuse[index], None
        try:
            csv_text, payload = _realize(config, index, outdir)
            _persist(outdir, config, index, csv_text, payload, config_hash)
            return index, _record(csv_text, payload), None
        except Exception as exc:  # noqa: BLE001 - failure isolation contract
            return index, None, f"{type(exc).__name__}: {exc}"

    indices = range(config.realizations)
    workers = worker_count()
    if workers == 1:
        # on the calling thread: under glibc a pool thread allocates from an
        # arena of its own, which held 10-13 MB more peak RSS on l = 80
        # sphere and 40pi desk runs
        outcomes = [run_one(i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_one, indices))
    records = {i: r for i, r, err in outcomes if err is None}
    failures = sorted((i, err) for i, r, err in outcomes if err is not None)
    if len(failures) > 0.10 * config.realizations:
        lines = "; ".join(f"#{i}: {err}" for i, err in failures[:5])
        raise EnsembleFailure(
            f"{len(failures)}/{config.realizations} realizations failed ({lines})"
        )
    return records, failures


def _summarize_checks(config: EnsembleConfig, records: list[dict]) -> dict:
    out = {}
    if "faber_krahn" in config.checks:
        ids = [(config.master_seed, p["index"]) for p in records]
        out["faber_krahn"] = fold_faber_krahn(records, ids, FK_MARGIN, config.grid.dim)
    if "sandwich" in config.checks:
        total = holding = 0
        for p in records:
            for v in p["checks"]["sandwich"]["verdicts"]:
                total += 1
                holding += bool(v["holds"])
        out["sandwich"] = {"total": total, "holding": holding, "all_hold": holding == total}
    if "helmholtz" in config.checks:
        mean, err = mean_stderr([p["checks"]["helmholtz"]["residual"] for p in records])
        out["helmholtz"] = {"mean_residual": mean, "stderr": err}
    if "covariance" in config.checks:
        means, errs = mean_stderr([p["checks"]["covariance"]["probe_means"] for p in records])
        out["covariance"] = {
            "lags": list(COVARIANCE_LAGS),
            "means": means.tolist(),
            "stderrs": errs.tolist(),
        }
    if "perturbation" in config.checks:
        rows = [
            p["checks"]["perturbation"]["medians"]
            for p in records
            if all(m is not None for m in p["checks"]["perturbation"]["medians"])
        ]
        ratios = [
            p["checks"]["perturbation"]["ratio"]
            for p in records
            if p["checks"]["perturbation"]["ratio"] is not None
        ]
        rmean, rerr = mean_stderr(ratios) if ratios else (None, None)
        out["perturbation"] = {
            "b": list(PERTURBATION_B),
            "median_means": np.array(rows).mean(axis=0).tolist() if rows else None,
            "ratio_mean": rmean,
            "ratio_stderr": rerr,
        }
    return out


def _assemble(
    config: EnsembleConfig, config_hash: str, outdir: Path, records: dict, failures: list,
    wall: float,
) -> EnsembleReport:
    if not records:
        raise EnsembleFailure("no realizations completed")
    ordered = [dict(records[i], index=i) for i in sorted(records)]
    psi_r = config.effective_psi_radius()
    try:
        psi = fold_psi(ordered, psi_r)
    except ValueError:
        seen = sum(len(p["areas"]) for p in ordered)
        raise EnsembleFailure(
            f"no interior domains in any realization: psi radius {psi_r}, {len(ordered)} "
            f"realizations folded, {seen} domains seen, each touching the window or "
            "reaching past the psi radius"
        ) from None
    boundary, pairs = fold_boundary(ordered, psi_r)
    largest_jump = float(np.max(np.diff(np.concatenate([[0.0], psi.fractions]))))
    # each distinct float of the six psi and boundary columns is rendered
    # once, and report.json, psi.csv and joint.csv are joined from that text
    columns = float_columns(
        *(getattr(cdf, name) for cdf in (psi, boundary) for name in _CDF_COLUMNS))
    psi_dict = dict(zip(_CDF_COLUMNS, columns[:3]), total_count=psi.total_count)
    boundary_dict = dict(zip(_CDF_COLUMNS, columns[3:]), total_count=boundary.total_count)
    ns = fold_ns(ordered, config.radii, config.grid.dim) if config.radii else None
    length_mean, length_err = fold_nodal_length(ordered, config.grid)
    report = {
        "version": ENGINE_VERSION,
        "config": config.to_dict(),
        "config_hash": config_hash,
        "realizations_completed": len(ordered),
        "failures": [{"index": i, "error": err} for i, err in failures],
        "psi": dict(psi_dict, largest_jump=largest_jump, window_radius=psi_r),
        "boundary": boundary_dict,
        "ns": ns.to_dict() if ns is not None else None,
        "nodal_length_density": {"mean": length_mean, "stderr": length_err},
        "checks": _summarize_checks(config, ordered),
        "timing": {
            "wall_seconds": wall,
            "mean_seconds_per_realization": wall / max(len(ordered), 1),
        },
    }
    write_json(outdir / "report.json", report)
    write_text(outdir / "psi.csv", psi_csv(psi_dict))
    write_text(outdir / "joint.csv", joint_csv(
        pairs, psi_dict["breakpoints"], boundary_dict["breakpoints"]))
    for column in columns:  # written: the report keeps the floats only
        column.text = None
    if ns is not None:
        write_text(outdir / "ns.csv", ns_csv(ns))
    if "sandwich" in config.checks:
        verdicts = [
            SandwichVerdict(**dict(v, t=float(v["t"])))
            for p in ordered
            for v in p["checks"]["sandwich"]["verdicts"]
        ]
        write_text(outdir / "sandwich.csv", sandwich_csv(verdicts))
    return EnsembleReport(
        config=config, report=report, psi=psi, boundary=boundary, ns=ns, output_dir=outdir,
        records=ordered,
    )


def run_ensemble(config: EnsembleConfig) -> EnsembleReport:
    """Fresh run: sample every realization, persist tables, assemble the report."""
    config.validate()
    outdir = Path(config.output_dir)
    (outdir / "realizations").mkdir(parents=True, exist_ok=True)
    config_hash = config.config_hash()
    write_json(
        outdir / "manifest.json",
        {"version": ENGINE_VERSION, "config": config.to_dict(), "config_hash": config_hash},
    )
    start = time.monotonic()
    records, failures = _execute(config, config_hash, outdir, reuse={})
    return _assemble(config, config_hash, outdir, records, failures, time.monotonic() - start)


def resume_ensemble(config: EnsembleConfig, partial_dir) -> EnsembleReport:
    """Complete a partial run: recompute only missing or corrupted realizations.

    The partial directory must carry a manifest of this `ENGINE_VERSION`
    whose config hash matches.
    Every realization `_stored_record` refuses is recomputed, so torn,
    stale and tampered realizations, and those stored in an older sidecar
    shape, are recomputed; every other one is folded from its table and
    payload as stored.
    """
    config.validate()
    outdir = Path(partial_dir)
    manifest_path = outdir / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"{outdir} has no manifest.json to resume from")
    manifest = read_json(manifest_path)
    if manifest.get("version") != ENGINE_VERSION:
        raise ValueError(
            f"engine version mismatch: manifest has {manifest.get('version')}, "
            f"this engine is version {ENGINE_VERSION}"
        )
    config_hash = config.config_hash()
    if manifest.get("config_hash") != config_hash:
        raise ValueError(
            f"config hash mismatch: manifest has {manifest.get('config_hash')}, "
            f"resume config hashes to {config_hash}"
        )
    stored = {i: _stored_record(config, config_hash, outdir, i) for i in range(config.realizations)}
    reuse = {i: record for i, record in stored.items() if record is not None}
    start = time.monotonic()
    records, failures = _execute(config, config_hash, outdir, reuse)
    return _assemble(config, config_hash, outdir, records, failures, time.monotonic() - start)
