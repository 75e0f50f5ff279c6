"""Workload definitions for the census benchmark.

Each workload is a model, a grid and the checks the engine runs on it, in two
sizes: ``full`` (what the benchmark measures) and ``smoke`` (a reduced copy
that exercises the same harness paths in seconds).  desk-census and
sphere-plain go through the engine (run_ensemble, resume_ensemble); the
other two call the library directly, tiny-sampled because it has no model
and torus3d-160 because its two percolating domains leave the engine's
report with no interior domain to fold.  The benchmark seed only picks
master seeds and tiny-grid magnitudes; the program receives nothing but the
generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nodal_census import (
    BandLimitedTorus,
    EnsembleConfig,
    LatLongSphere,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    Torus,
)
from nodal_census.engine import CHECK_NAMES
from nodal_census.sampler import build_plane_wave_basis, legendre_matrix, torus_modes

DEFAULT_SEED = 7
NAMES = ("desk-census", "sphere-plain", "tiny-sampled", "torus3d-160")
SIZES = ("full", "smoke")
TINY_PATTERNS = 1 << 16
# A full sweep of the 2^16 patterns takes ~29 s of calls on a 2-core Xeon
# VM, more than a run measures; half of them, in seeded order, take ~15 s.
TINY_CALLS = TINY_PATTERNS // 2


@dataclass(frozen=True)
class Spec:
    name: str
    size: str
    model: object
    grid: object
    # engine workloads: realizations per run_ensemble call; library
    # workloads: leading inputs kept for the fold, digest and work counts
    batch: int
    radii: tuple = ()
    thresholds: tuple = ()
    checks: tuple = ()
    # library workloads: the number of inputs a run calls, or 0 for as many
    # as fit in the run's time
    calls: int = 0

    @property
    def engine(self) -> bool:
        return self.name in ("desk-census", "sphere-plain")

    def config(self, master_seed: int, outdir) -> EnsembleConfig:
        return EnsembleConfig(
            model=self.model,
            grid=self.grid,
            realizations=self.batch,
            master_seed=master_seed,
            radii=self.radii,
            thresholds=self.thresholds,
            checks=self.checks,
            output_dir=str(outdir),
        )


def spec(name: str, size: str) -> Spec:
    """The workload `name` at `size`."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    full = size == "full"
    if name == "desk-census":
        side = 40 * math.pi if full else 18 * math.pi  # 18pi is the least side R+r = 28 fits
        return Spec(
            name, size, PlaneWave2D(), PlanarWindow(side=side, spacing=2 * math.pi / 10),
            batch=4 if full else 2,
            radii=(10.0, 15.0, 20.0), thresholds=(20.0, 50.0, math.inf), checks=CHECK_NAMES,
        )
    if name == "sphere-plain":
        degree = 80 if full else 8
        return Spec(
            name, size, SphericalHarmonic(degree=degree),
            LatLongSphere(n_lat=5 * degree, n_lon=10 * degree),
            batch=4 if full else 2,
        )
    if name == "torus3d-160":
        # 40pi at spacing pi/4 is the smallest legal torus; smoke drops to 2-D.
        dim = 3 if full else 2
        return Spec(
            name, size, BandLimitedTorus(dim=dim, alpha=1.0),
            Torus(side=40 * math.pi, spacing=math.pi / 4, dim=dim),
            batch=1,
        )
    if name == "tiny-sampled":
        return Spec(
            name, size, None, PlanarWindow(side=1.5, spacing=0.5),
            batch=2048 if full else 64, calls=TINY_CALLS if full else 256,
        )
    raise ValueError(f"unknown workload {name!r}")


def build_tables(s: Spec):
    """The per-grid table a run pays for before its first realization."""
    if isinstance(s.model, PlaneWave2D):
        return build_plane_wave_basis(s.grid)
    if isinstance(s.model, SphericalHarmonic):
        return legendre_matrix(s.model.degree, np.cos(s.grid.colatitudes()))
    if isinstance(s.model, BandLimitedTorus):
        return torus_modes(s.grid, s.model.alpha)
    return None


def master_seed(seed: int, k: int) -> int:
    """Master seed of the k-th ensemble of a run (k < 1000)."""
    return seed * 1000 + k


def library_source(s: Spec, seed: int):
    """Function n -> the n-th input of a library workload.

    tiny-sampled walks the 2^16 sign patterns in a seeded order, so its first
    TINY_CALLS inputs are distinct patterns chosen by the seed; pattern p sets
    node k positive when bit k of p is set, with one magnitude per node drawn
    from the seed.  torus3d-160 draws realization n of the run's first
    master seed.
    """
    if s.model is not None:
        master = master_seed(seed, 0)
        return lambda n: RngStream(master, n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(TINY_PATTERNS)
    codes = np.arange(TINY_PATTERNS)[:, None]
    signs = 2.0 * ((codes >> np.arange(16)) & 1) - 1.0
    values = (signs * rng.uniform(0.1, 1.0, size=(TINY_PATTERNS, 16))).reshape(-1, 4, 4)
    return lambda n: values[order[n % TINY_PATTERNS]]
