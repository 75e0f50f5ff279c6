"""Spans around the calls into each layer, and the exact work counts.

The traced pass times the program itself.  `traced_engine` replaces, for
its duration, the layer functions that `nodal_census.engine` imports by name
with versions that open a span around each call; `run_ensemble` then runs
as usual and every call it makes into a layer sits in a span.  Whatever the
engine spends beyond the layers is the remainder between its
per-realization time and the layers' self times.  On the library path,
`library_call` makes the calls itself, each in a span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

import numpy as np

from nodal_census import (
    LatLongSphere,
    Torus,
    label_domains,
    measure_domains,
    sample_field,
    synthetic_sample,
)

LAYERS = ("sampler", "nodal", "stats", "io", "engine")
_NULL = contextlib.nullcontext()

# nodal_census.engine name -> (span, argument that holds the realization
# index).  A name the engine no longer has is skipped and reported.
ENGINE_SPANS = {
    "_realize": ("engine.realization", 1),
    "_persist": ("engine.persist", 2),
    "build_plane_wave_basis": ("sampler.basis", None),
    "sample_field": ("sampler.sample", None),
    "helmholtz_residual": ("sampler.helmholtz", None),
    "spherical_laplacian_residual": ("sampler.helmholtz", None),
    "covariance_probe_means": ("sampler.covariance", None),
    "label_domains": ("nodal.label", None),
    "measure_domains": ("nodal.measure", None),
    "domain_distance_extrema": ("nodal.extrema", None),
    "perturbation_stability": ("nodal.perturbation", None),
    "sandwich_check_many": ("stats.sandwich", None),
    "domain_table_csv": ("io.table_csv", None),
    "text_sha256": ("io.sha256", None),
    "write_json": ("io.write_json", None),
    "psi_csv": ("io.export_csv", None),
    "joint_csv": ("io.export_csv", None),
    "ns_csv": ("io.export_csv", None),
    "sandwich_csv": ("io.export_csv", None),
}


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, run,
    realization], plus the sort keys the sandwich check hands to np.unique.

    Return values of the spans named in `capture` are kept in `captured`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.realization = None
        self.capture: set[str] = set()
        self.captured: list = []
        self.sandwich_keys = 0
        self.sandwich_key_bytes = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run, self.realization])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def current(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def wrap(self, fn, name: str, index_arg: int | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if index_arg is not None:
                self.realization = args[index_arg]
            with self.span(name):
                out = fn(*args, **kwargs)
            if index_arg is not None:
                self.realization = None
            if name in self.capture:
                self.captured.append(out)
            return out

        return traced

    def self_ms(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(span[2] - span[1] - c) / 1e6 for span, c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class NullTracer:
    def span(self, name: str):
        return _NULL


class _KeyCountingNumpy:
    """numpy as nodal_census.stats sees it, except that np.unique counts the
    elements and bytes it is given while a stats.sandwich span is open."""

    def __init__(self, tr: Tracer):
        self._tr = tr

    def __getattr__(self, name):
        return getattr(np, name)

    def unique(self, ar, *args, **kwargs):
        if self._tr.current() == "stats.sandwich":
            arr = np.asarray(ar)
            self._tr.sandwich_keys += arr.size
            self._tr.sandwich_key_bytes += arr.nbytes
        return np.unique(ar, *args, **kwargs)


@contextlib.contextmanager
def traced_engine(tr: Tracer):
    """Span-wrap the engine's layer calls while the block runs; yields the
    names in ENGINE_SPANS the engine does not have.  The engine must run on
    one thread meanwhile: the tracer keeps a single stack of open spans."""
    from nodal_census import engine, stats

    saved = {name: getattr(engine, name) for name in ENGINE_SPANS if hasattr(engine, name)}
    for name, fn in saved.items():
        setattr(engine, name, tr.wrap(fn, *ENGINE_SPANS[name]))
    stats_np, stats.np = stats.np, _KeyCountingNumpy(tr)
    try:
        yield sorted(set(ENGINE_SPANS) - set(saved))
    finally:
        stats.np = stats_np
        for name, fn in saved.items():
            setattr(engine, name, fn)


def library_call(spec, source, tr):
    """One realization on the library path: make the field, label, measure.

    `source` is the stream of a sampled model or, for the model-free tiny
    workload, the node values themselves.
    """
    with tr.span("engine.realization"):
        if spec.model is None:
            sample = synthetic_sample(source, spec.grid)
        else:
            with tr.span("sampler.sample"):
                sample = sample_field(spec.model, spec.grid, source)
        with tr.span("nodal.label"):
            dec = label_domains(sample)
        with tr.span("nodal.measure"):
            measure_domains(dec)
    return dec


# ---- exact work counts, computed from the inputs the program was given ----


def wraps(grid) -> tuple[bool, ...]:
    if isinstance(grid, Torus):
        return (True,) * grid.dim
    if isinstance(grid, LatLongSphere):
        return (False, True)
    return (False, False)


def _extend(pos: np.ndarray, periodic) -> np.ndarray:
    """Append the first slice along every periodic axis, so neighbours are
    plain shifted slices."""
    for ax, wrap in enumerate(periodic):
        if wrap:
            pos = np.concatenate([pos, np.take(pos, [0], axis=ax)], axis=ax)
    return pos


def work_counts(values: np.ndarray, grid, n_domains: int) -> dict:
    """Nodes, same-sign edges, domains, and the cells measure handles one by
    one: 2-D crossing and saddle cells, or sign-changing faces in 3-D."""
    pos = values >= 0
    periodic = wraps(grid)
    same = 0
    for ax, wrap in enumerate(periodic):
        if wrap:
            same += int(np.count_nonzero(pos == np.roll(pos, -1, axis=ax)))
        else:
            same += int(np.count_nonzero(np.diff(pos.astype(np.int8), axis=ax) == 0))
    if pos.ndim == 2:
        ext = _extend(pos, periodic)
        pattern = (
            ext[:-1, :-1].astype(np.int8)
            + 2 * ext[1:, :-1]
            + 4 * ext[1:, 1:]
            + 8 * ext[:-1, 1:]
        )
        crossing = int(np.count_nonzero((pattern != 0) & (pattern != 15)))
        saddle = int(np.count_nonzero((pattern == 5) | (pattern == 10)))
    else:
        crossing = sum(int(np.count_nonzero(pos != np.roll(pos, -1, axis=ax))) for ax in range(3))
        saddle = 0
    return {
        "nodal.nodes": int(values.size),
        "nodal.same_sign_edges": same,
        "nodal.domains": int(n_domains),
        "nodal.crossing_cells": crossing,
        "nodal.saddle_cells": saddle,
    }
