"""Gaussian random wave samplers.

Three spectral models, all unit variance with wavenumber fixed at 1:

* ``PlaneWave2D`` -- the isotropic monochromatic wave, built from the exact
  Bessel-Fourier series about the window center with truncation
  N = ceil(R + 7 R^(1/3) + 10); covariance J_0(|x - y|).
* ``BandLimitedTorus`` -- a sum over torus lattice frequencies with
  alpha <= |xi| <= 1 (for alpha = 1, the shell [1 - 2 pi/L, 1]); evaluated on
  the grid by an inverse FFT, so opposite faces agree by construction.  The
  transform is pruned: every |m_d| <= L / 2 pi, so on each leading axis only
  the rows holding a mode are transformed, and the values are byte-identical
  to one ``np.fft.ifftn`` over the full spectrum.
* ``SphericalHarmonic`` -- degree-l random harmonic sqrt(4 pi/(2l+1)) sum of
  L2-orthonormal real harmonics with iid N(0,1) coefficients.

Each model gives its per-grid `table`, its coefficient `draw` (grid checks,
then Gaussian draws), its values on the grid (`synthesize`) and at arbitrary
points (`evaluate`).  `sample_field` draws, then synthesizes, for one stream
or several on the same grid.  A sample's coefficients are its Gaussian draws
alone; the truncation, modes and norm follow from the model and the grid.

Randomness comes from a counter-based Philox generator keyed by
(master_seed, stream_id), so realization i of a run is reproducible in
isolation and independent across i.

Each model's per-grid table (the plane-wave basis, the Legendre matrix, the
torus modes) is built once per grid per process, on first use, and shared
read-only by every later draw on that grid, from any thread; no sampler
takes a table argument.  The public builders (`build_plane_wave_basis`,
`legendre_matrix`, `torus_modes`) stay uncached.  The plane-wave basis,
two node-major arrays of N + 1 and N orders (85 MB on the 40 pi desk), is
built in blocks of `_BASIS_BLOCK` nodes: a block runs the angle recurrence
through every order into (order, node) scratch rows and is copied in
transposed, which took about half the time of writing one strided column
per order over all nodes (95 against 180 ms), with the same bytes.

Plane-wave synthesis is one pass over the basis in the same blocks of
`_BASIS_BLOCK` rows: each block's ``cos_block @ a + sin_block @ b`` runs for
every requested field while the block is still in cache, so a realization
and its perturbation direction stream the 85 MB basis once, not twice.  A
block that starts on a multiple of 4 rows gives the bytes of the whole-table
product on one BLAS thread.  The bytes also do not depend on the BLAS
thread count: under OPENBLAS_NUM_THREADS=2, a 1,024-row mat-vec ran on one
thread (process CPU time equal to wall time) where the whole-table one ran
on two, and on the desk the whole-table product under 2-4 threads changed 5
of 12 seed-7 fields in their last digits, the blocked pass none.

The plane wave and the harmonic keep a second per-grid table for `evaluate`,
their radial factor at the grid's cell centers (`grid.cell_centers()`, where
marching squares resolves its saddle cells): J_0..J_N at the distinct
cell-center radii (6,448 on the 40 pi desk, 6.8 MB, from one sweep of about
20 ms), and the Legendre matrix at the cell-center colatitudes (399 on the
l = 80 sphere, 0.26 MB).  It is built the same way, on the first `evaluate`
on the grid, never by a draw.  The plane wave keeps a third, the same rows
at the covariance probes of one set of lags, built on the first
`covariance_probe_means` for them.  A batch whose every radius (colatitude)
is a key of the table it reads gathers its rows; any other batch, such as a
reloaded field's check nodes, is swept whole.  The rows are the ones the
sweep gives: `legendre_matrix` works point by point, and every in-window
radius is below the truncation N, which fixes the Bessel sweep's start
order (see `specfn._sweep`).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec, LatLongSphere, PlanarWindow, Torus, json_object
from .specfn import bessel_j_orders

__all__ = [
    "RngStream",
    "PlaneWave2D",
    "BandLimitedTorus",
    "SphericalHarmonic",
    "SpectralModel",
    "FieldSample",
    "PlaneWaveBasis",
    "build_plane_wave_basis",
    "sample_field",
    "evaluate_at",
    "helmholtz_residual",
    "spherical_laplacian_residual",
    "covariance_probe_means",
    "model_from_dict",
]

_MAX_PLANE_RADIUS = 300.0
_MIN_TORUS_SIDE = 20.0 * 2.0 * math.pi
# axis-1 indices per block of the torus's axis-0 inverse-FFT pass
_TORUS_BLOCK = 4
# nodes per block of the plane-wave basis build and of synthesis: on the
# 40 pi desk, blocks of 1,024 nodes built the basis in about half the time
# of one strided column per order over all nodes, and 2,048 and 16,384 took
# longer.  Synthesis needs a multiple of 4: a BLAS mat-vec block starting
# elsewhere regroups its rows and can change the last digit of a value.
_BASIS_BLOCK = 1024


@dataclass(frozen=True)
class RngStream:
    """Counter-based splittable stream: (master_seed, stream_id) -> Philox key."""

    master_seed: int
    stream_id: int

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream id must be non-negative")

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


@dataclass
class FieldSample:
    """One realization: node values plus enough provenance to reproduce it.

    `coeffs` holds the model's Gaussian draws; synthetic fields, built
    directly from a value array, have neither model nor coeffs and fall back
    to the coefficient-free code paths downstream.
    """

    values: np.ndarray
    grid: GridSpec
    model: SpectralModel | None
    stream: RngStream | None = None
    coeffs: dict | None = field(default=None, repr=False)


def plane_wave_truncation(max_radius: float) -> int:
    if max_radius > _MAX_PLANE_RADIUS:
        raise ValueError(
            f"window reaches radius {max_radius:.1f} from its center; "
            f"the Bessel series sampler supports at most {_MAX_PLANE_RADIUS:.0f}"
        )
    return int(math.ceil(max_radius + 7.0 * max_radius ** (1.0 / 3.0) + 10.0))


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Per-grid Bessel/angular basis: a field's values are
    cos_basis @ a + sin_basis @ b, taken in row blocks (`PlaneWave2D.synthesize`).

    cos_basis[:, 0] = J_0(r); cos_basis[:, n] = sqrt(2) J_n(r) cos(n theta);
    sin_basis[:, n-1] = sqrt(2) J_n(r) sin(n theta), all about the window
    center.  Rows are flattened grid nodes.
    """

    cos_basis: np.ndarray
    sin_basis: np.ndarray


def _basis_block(r: np.ndarray, theta: np.ndarray, n_trunc: int):
    """Cosine/sine basis rows for the given polar coordinates.

    A lattice repeats each radius many times, so the Bessel sweep runs on the
    distinct radii and each node gathers its radius's row.  The nodes go in
    blocks of `_BASIS_BLOCK`: a block runs the angle recurrence through every
    order into (order, node) scratch rows, which are copied into the
    node-major basis transposed.  Each value is the expression the
    recurrence gives node by node, sqrt(2) J_n(r) times cos or sin of n theta.
    """
    radii, node_radius = np.unique(r, return_inverse=True)
    jmat = bessel_j_orders(n_trunc, radii)
    scaled = math.sqrt(2.0) * jmat[:, 1:]
    npts = r.shape[0]
    cos_b = np.empty((npts, n_trunc + 1), dtype=np.float64)
    sin_b = np.empty((npts, n_trunc), dtype=np.float64)
    cos_s = np.empty((n_trunc + 1, _BASIS_BLOCK))
    sin_s = np.empty((n_trunc, _BASIS_BLOCK))
    for lo in range(0, npts, _BASIS_BLOCK):
        at = node_radius[lo : lo + _BASIS_BLOCK]
        size = at.shape[0]
        cos_n, sin_n = cos_s[:, :size], sin_s[:, :size]
        jn = scaled.take(at, axis=0).T
        c1 = np.cos(theta[lo : lo + size])
        s1 = np.sin(theta[lo : lo + size])
        cn, sn = c1, s1
        cos_n[0] = jmat[at, 0]
        for n in range(1, n_trunc + 1):
            np.multiply(jn[n - 1], cn, out=cos_n[n])
            np.multiply(jn[n - 1], sn, out=sin_n[n - 1])
            if n < n_trunc:
                cn, sn = cn * c1 - sn * s1, sn * c1 + cn * s1
        cos_b[lo : lo + size] = cos_n.T
        sin_b[lo : lo + size] = sin_n.T
    return cos_b, sin_b


def build_plane_wave_basis(grid: PlanarWindow) -> PlaneWaveBasis:
    if not isinstance(grid, PlanarWindow):
        raise ValueError("plane-wave sampling needs a PlanarWindow grid")
    n_trunc = plane_wave_truncation(grid.max_radius())
    cx, cy = grid.center
    xx, yy = grid.node_coords()
    dx = (xx - cx).ravel()
    dy = (yy - cy).ravel()
    cos_b, sin_b = _basis_block(np.hypot(dx, dy), np.arctan2(dy, dx), n_trunc)
    return PlaneWaveBasis(cos_basis=cos_b, sin_basis=sin_b)


@dataclass(frozen=True)
class PlaneWave2D:
    def to_dict(self) -> dict:
        return {"type": "plane_wave"}

    def table(self, grid: PlanarWindow) -> PlaneWaveBasis:
        basis = build_plane_wave_basis(grid)
        basis.cos_basis.setflags(write=False)
        basis.sin_basis.setflags(write=False)
        return basis

    def draw(self, grid: PlanarWindow, stream: RngStream) -> dict:
        """Coefficients (a_0, a_1..a_N, b_1..b_N) in that order, so the value
        at the window-center node is exactly the first Gaussian draw."""
        if not isinstance(grid, PlanarWindow):
            raise ValueError("plane-wave sampling needs a PlanarWindow grid")
        n_trunc = plane_wave_truncation(grid.max_radius())
        gen = stream.generator()
        a = gen.standard_normal(n_trunc + 1)
        b = gen.standard_normal(n_trunc)
        return {"a": a, "b": b}

    def synthesize(self, grid: PlanarWindow, *coeffs: dict) -> list[np.ndarray]:
        """The values of each coefficient set, from one pass over the basis:
        every block of `_BASIS_BLOCK` rows gives its part of every field."""
        basis = _grid_table(self.table, grid)
        fields = [np.empty(grid.shape) for _ in coeffs]
        flat = [values.reshape(-1) for values in fields]
        for lo in range(0, basis.cos_basis.shape[0], _BASIS_BLOCK):
            cos_rows = basis.cos_basis[lo : lo + _BASIS_BLOCK]
            sin_rows = basis.sin_basis[lo : lo + _BASIS_BLOCK]
            for values, c in zip(flat, coeffs):
                np.add(cos_rows @ c["a"], sin_rows @ c["b"], out=values[lo : lo + _BASIS_BLOCK])
        return fields

    def _radial_table(self, grid: PlanarWindow, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values of the radii `r`, sorted, and J_0..J_N at each
        of them, from one sweep."""
        radii = np.unique(r)
        jmat = bessel_j_orders(plane_wave_truncation(grid.max_radius()), radii)
        radii.setflags(write=False)
        jmat.setflags(write=False)
        return radii, jmat

    def center_table(self, grid: PlanarWindow) -> tuple[np.ndarray, np.ndarray]:
        """The radial table of the cell centers about the window center."""
        cx, cy = grid.center
        cu, cv = grid.cell_centers()
        return self._radial_table(grid, np.hypot(cu[:, None] - cx, cv[None, :] - cy))

    def probe_table(self, grid: PlanarWindow, lags: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The radial table of the covariance probes for `lags`."""
        cx, cy = grid.center
        pts = _probe_points(grid, lags)
        return self._radial_table(grid, np.hypot(pts[:, 0] - cx, pts[:, 1] - cy))

    def evaluate(self, grid: PlanarWindow, coeffs: dict, pts: np.ndarray, table=None) -> np.ndarray:
        """Values at `pts`; their J_0..J_N rows are gathered from the radial
        `table` (by default the cell-center table) when every radius is one
        of its keys, and swept otherwise."""
        cx, cy = grid.center
        dx = pts[:, 0] - cx
        dy = pts[:, 1] - cy
        r = np.hypot(dx, dy)
        theta = np.arctan2(dy, dx)
        n_trunc = plane_wave_truncation(grid.max_radius())
        if table is None:
            table = _grid_table(self.center_table, grid)
        jmat = _table_rows(table, r)
        if jmat is None:
            jmat = bessel_j_orders(n_trunc, r)
        a, b = coeffs["a"], coeffs["b"]
        ns = np.arange(1, n_trunc + 1)
        ang = np.outer(theta, ns)
        vals = jmat[:, 0] * a[0]
        vals = vals + math.sqrt(2.0) * np.sum(
            jmat[:, 1:] * (np.cos(ang) * a[1:] + np.sin(ang) * b), axis=1
        )
        return vals


def torus_modes(grid: Torus, alpha: float) -> tuple[np.ndarray, float]:
    """Half-lattice frequency indices with alpha <= |2 pi m / L| <= 1.

    Returns an (n_modes, dim) integer array in lexicographic order (the draw
    order) and the lower band edge actually used.  For alpha = 1 the band is
    the shell [1 - 2 pi/L, 1].  Only one of each +/-m pair is kept (their
    cosine/sine spans coincide); m = 0 enters only when alpha = 0.
    """
    two_pi = 2.0 * math.pi
    lo = 1.0 - two_pi / grid.side if alpha == 1.0 else alpha
    mmax = int(math.floor(grid.side / two_pi))
    rng = np.arange(-mmax, mmax + 1)
    # "ij" meshgrid raveled in C order lists the lattice lexicographically
    lattice = np.stack([m.ravel() for m in np.meshgrid(*[rng] * grid.dim, indexing="ij")], axis=1)
    norms = np.sqrt(np.sum(lattice.astype(np.float64) ** 2, axis=1)) * (two_pi / grid.side)
    in_band = (norms >= lo - 1e-12) & (norms <= 1.0 + 1e-12)
    # half-lattice: first nonzero component positive (m = 0 has first 0)
    first = lattice[np.arange(lattice.shape[0]), np.argmax(lattice != 0, axis=1)]
    keep = (first > 0) | ((first == 0) & (alpha == 0.0))
    return lattice[in_band & keep], lo


def _ifft_rows(x: np.ndarray, rows: np.ndarray, axis: int, n: int) -> np.ndarray:
    """Inverse FFT along `axis` of `x` placed at `rows` of n rows of zeros."""
    full = np.zeros(x.shape[:axis] + (n,) + x.shape[axis + 1 :], dtype=np.complex128)
    full[(slice(None),) * axis + (rows,)] = x
    return np.fft.ifft(full, axis=axis, out=full)


@dataclass(frozen=True)
class BandLimitedTorus:
    dim: int = 2
    alpha: float = 0.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"band-limited model dimension {self.dim} unsupported")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")

    def to_dict(self) -> dict:
        return {"type": "band_limited", "dim": self.dim, "alpha": self.alpha}

    def table(self, grid: Torus) -> tuple[np.ndarray, float]:
        modes, lo = torus_modes(grid, self.alpha)
        modes.setflags(write=False)
        return modes, lo

    def draw(self, grid: Torus, stream: RngStream) -> dict:
        """One cosine draw per mode in mode order, then one sine draw per
        nonzero mode (the m = 0 sine coefficient is 0)."""
        if not isinstance(grid, Torus) or grid.dim != self.dim:
            raise ValueError("band-limited sampling needs a Torus grid of matching dimension")
        if grid.side < _MIN_TORUS_SIDE - 1e-9:
            raise ValueError(
                f"torus side {grid.side:.2f} too small for the lattice spectral measure; "
                f"need at least {_MIN_TORUS_SIDE:.2f}"
            )
        modes, lo = _grid_table(self.table, grid)
        if modes.shape[0] == 0:
            raise ValueError(
                f"no torus frequencies in the band [{lo:.4f}, 1]; "
                f"increase the side beyond {2.0 * math.pi / max(1.0 - self.alpha, 1e-9):.2f}"
            )
        gen = stream.generator()
        nonzero = ~np.all(modes == 0, axis=1)
        a = gen.standard_normal(modes.shape[0])
        b = np.zeros(modes.shape[0])
        b[nonzero] = gen.standard_normal(int(np.sum(nonzero)))
        return {"a": a, "b": b}

    def synthesize(self, grid: Torus, coeffs: dict) -> np.ndarray:
        """The field on the torus nodes via an inverse FFT.

        The node phases 2 pi m (j + 1/2) / n are handled exactly by a
        half-cell phase twist on the spectral array, so the construction is
        a finite trigonometric sum with genuine torus frequencies.

        The inverse FFT is pruned (Markel 1971).  The spectrum holds, on each
        leading axis, only the sorted distinct rows m_d mod n that carry a
        mode; the last axis stays full length.  The 1-D inverse transforms
        then run in ``np.fft.ifftn``'s order, last axis first, and before
        each earlier axis's pass the result is scattered into rows of zeros
        of full length on that axis.  ``ifftn`` transforms each line on its
        own and an all-zero line stays zero, so every line that can be
        nonzero sees the input it would see in the full transform, and the
        values are byte-identical to ``ifftn`` of the full (n,)*dim
        spectrum.  On the 160^3 torus this is 33,841 line transforms
        instead of 76,800, with no full-size spectrum.

        The last-axis pass runs in place in the pruned spectrum, and in 3-D
        the axis-1 pass runs whole, on the pruned rows of axis 0.  The
        axis-0 pass runs on one block of ``_TORUS_BLOCK`` axis-1 indices at
        a time: every axis-0 line lies inside one block, so it sees the same
        input, and each block's scaled real part fills whole rows of the
        last axis in the values.  Each pass runs in place (``out=``): about
        51 MiB of transients on the 160^3 torus (tracemalloc).
        """
        modes = _grid_table(self.table, grid)[0]
        nonzero = ~np.all(modes == 0, axis=1)
        norm = 1.0 / math.sqrt(modes.shape[0])
        n = grid.n_intervals
        k = modes.shape[0]
        twist = np.exp(1j * math.pi * np.sum(modes, axis=1) / n)
        amp = 0.5 * (coeffs["a"] - 1j * coeffs["b"]) * twist
        amp[~nonzero] *= 2.0  # zero mode has no conjugate partner
        # leading axes keep only their rows holding a mode (+m or -m, mod n)
        rows = []
        idx_pos = []
        idx_neg = []
        for d in range(grid.dim - 1):
            row, at = np.unique(np.mod(np.concatenate([modes[:, d], -modes[:, d]]), n),
                                return_inverse=True)
            rows.append(row)
            idx_pos.append(at[:k])
            idx_neg.append(at[k:])
        idx_pos.append(np.mod(modes[:, -1], n))
        idx_neg.append(np.mod(-modes[:, -1], n))
        spec = np.zeros(tuple(row.shape[0] for row in rows) + (n,), dtype=np.complex128)
        np.add.at(spec, tuple(idx_pos), amp)
        np.add.at(spec, tuple(idx_neg), np.conj(amp))
        if not np.all(nonzero):
            # the m = 0 entry (row 0 on every axis) was added twice
            spec[(0,) * grid.dim] /= 2.0
        # ifftn's passes, last axis first, over the lines that can be nonzero
        np.fft.ifft(spec, out=spec)
        for d in range(grid.dim - 2, 0, -1):
            spec = _ifft_rows(spec, rows[d], d, n)
        values = np.empty((n,) * grid.dim)
        for lo in range(0, n, _TORUS_BLOCK):
            block = (slice(None), slice(lo, lo + _TORUS_BLOCK))
            y = _ifft_rows(spec[block], rows[0], 0, n)
            values[block] = y.real * n**grid.dim * norm
        return values

    def evaluate(self, grid: Torus, coeffs: dict, pts: np.ndarray) -> np.ndarray:
        modes = _grid_table(self.table, grid)[0]
        norm = 1.0 / math.sqrt(modes.shape[0])
        xi = modes.astype(np.float64) * (2.0 * math.pi / grid.side)
        # canonicalize into one period so x and x + L give bit-identical values
        x = np.mod(pts, grid.side)
        # per-axis and per-row sums, not BLAS products, whose rounding follows
        # the batch: a point's value does not depend on the others in the call
        phase = x[:, :1] * xi[:, 0]
        for ax in range(1, grid.dim):
            phase += x[:, ax : ax + 1] * xi[:, ax]
        cos, sin = np.cos(phase), np.sin(phase)
        return norm * ((cos * coeffs["a"]).sum(axis=1) + (sin * coeffs["b"]).sum(axis=1))


def legendre_matrix(degree: int, cos_theta: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values Pbar_{l m}(cos theta), m = 0..l.

    Normalized so Pbar_{l0}^2 + 2 sum_{m>=1} Pbar_{lm}^2 = (2l+1)/(4 pi)
    (the addition theorem); computed by the standard stable three-term
    recurrence in l after walking the sectoral diagonal, all in the scaled
    regime so degree ~200 stays far from overflow.  The recurrence steps
    every order at once: order m joins it at l = m + 2.
    """
    ct = np.asarray(cos_theta, dtype=np.float64)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    out = np.empty((degree + 1, ct.shape[0]), dtype=np.float64)  # row m
    pmm = np.full_like(ct, 1.0 / math.sqrt(4.0 * math.pi))
    out[0] = pmm
    for m in range(1, degree + 1):
        pmm = pmm * st * math.sqrt((2.0 * m + 1.0) / (2.0 * m))
        out[m] = pmm
    ms = np.arange(degree)
    p_prev = out[:degree].copy()
    p_cur = (np.sqrt(2.0 * ms + 3.0)[:, None] * ct) * p_prev
    for l in range(2, degree + 1):
        m = ms[: l - 1]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        bcoef = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        p_next = a * (ct * p_cur[: l - 1] - bcoef * p_prev[: l - 1])
        p_prev[: l - 1] = p_cur[: l - 1]
        p_cur[: l - 1] = p_next
    out[:degree] = p_cur
    return out.T.copy()


@dataclass(frozen=True)
class SphericalHarmonic:
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("spherical harmonic degree must be >= 1")

    def to_dict(self) -> dict:
        return {"type": "spherical_harmonic", "degree": self.degree}

    def table(self, grid: LatLongSphere) -> np.ndarray:
        legendre = legendre_matrix(self.degree, np.cos(grid.colatitudes()))
        legendre.setflags(write=False)
        return legendre

    def draw(self, grid: LatLongSphere, stream: RngStream) -> dict:
        """Grid resolution below 4*degree nodes per great circle (2*n_lat
        meridian nodes, n_lon equatorial nodes) is rejected.  Draw order:
        the m = 0 coefficient, then the l cosine coefficients, then the l
        sine coefficients."""
        if not isinstance(grid, LatLongSphere):
            raise ValueError("spherical harmonic sampling needs a LatLongSphere grid")
        l = self.degree
        need = 4 * l
        if 2 * grid.n_lat < need or grid.n_lon < need:
            raise ValueError(
                f"sphere grid {grid.n_lat}x{grid.n_lon} under-resolves degree {l}: "
                f"need n_lat >= {need // 2} and n_lon >= {need}"
            )
        return {"z": stream.generator().standard_normal(2 * l + 1)}

    def synthesize(self, grid: LatLongSphere, coeffs: dict) -> np.ndarray:
        l = self.degree
        legendre = _grid_table(self.table, grid)
        z = coeffs["z"]
        scale = math.sqrt(4.0 * math.pi / (2.0 * l + 1.0))
        half = grid.n_lon // 2 + 1
        spec = np.zeros((grid.n_lat, half), dtype=np.complex128)
        spec[:, 0] = scale * z[0] * legendre[:, 0]
        ms = np.arange(1, l + 1)
        twist = np.exp(1j * math.pi * ms / grid.n_lon)
        cpart = z[1 : l + 1]
        spart = z[l + 1 :]
        spec[:, 1 : l + 1] = (
            scale * math.sqrt(2.0) * legendre[:, 1:] * (0.5 * (cpart - 1j * spart) * twist)
        )
        return np.fft.irfft(spec, n=grid.n_lon, axis=1) * grid.n_lon

    def center_table(self, grid: LatLongSphere) -> tuple[np.ndarray, np.ndarray]:
        """The cell-center colatitudes and the Legendre matrix at them."""
        theta = grid.cell_centers()[0]
        legendre = legendre_matrix(self.degree, np.cos(theta))
        theta.setflags(write=False)
        legendre.setflags(write=False)
        return theta, legendre

    def evaluate(self, grid: LatLongSphere, coeffs: dict, pts: np.ndarray) -> np.ndarray:
        l = self.degree
        z = coeffs["z"]
        leg = _table_rows(_grid_table(self.center_table, grid), pts[:, 0])
        if leg is None:
            leg = legendre_matrix(l, np.cos(pts[:, 0]))
        ang = np.outer(pts[:, 1], np.arange(1, l + 1))
        scale = math.sqrt(4.0 * math.pi / (2.0 * l + 1.0))
        return scale * (
            z[0] * leg[:, 0]
            + math.sqrt(2.0)
            * np.sum(leg[:, 1:] * (np.cos(ang) * z[1 : l + 1] + np.sin(ang) * z[l + 1 :]), axis=1)
        )


SpectralModel = PlaneWave2D | BandLimitedTorus | SphericalHarmonic


def model_from_dict(d: dict, where: str = "model") -> SpectralModel:
    """The model `d` describes; ValueError naming `where` if `d` is malformed."""
    kind = json_object(d, where).get("type")
    if kind == "plane_wave":
        return PlaneWave2D()
    if kind == "band_limited":
        return BandLimitedTorus(dim=int(d.get("dim", 2)), alpha=float(d.get("alpha", 0.0)))
    if kind == "spherical_harmonic":
        return SphericalHarmonic(degree=int(json_object(d, where, "degree")["degree"]))
    raise ValueError(f"unknown model type {kind!r}")


_TABLE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=8)
def _built_table(build, model: SpectralModel, grid: GridSpec, *args):
    return build(model, grid, *args)


def _grid_table(build, grid: GridSpec, *args):
    """What the model method `build` (`table`, `center_table` or
    `probe_table`, bound to its model) gives for `grid` and `args`, built on
    the first call for an equal model, method, grid and args and shared
    read-only after; the lock makes it built once.  The memo keys the
    unbound method and the model, as a bound method compares its model by
    identity."""
    with _TABLE_LOCK:
        return _built_table(build.__func__, build.__self__, grid, *args)


def _table_rows(table: tuple[np.ndarray, np.ndarray], at: np.ndarray) -> np.ndarray | None:
    """The rows of a cell-center table at each of `at`, or None unless
    every one of them is a key of the table exactly."""
    keys, rows = table
    idx = np.searchsorted(keys, at)
    np.minimum(idx, keys.size - 1, out=idx)
    if not np.array_equal(keys[idx], at):
        return None
    return rows[idx]


def sample_field(model: SpectralModel, grid: GridSpec, stream: RngStream, *streams: RngStream):
    """Draw the model's coefficients for the grid, then synthesize its values.

    Given further streams, it returns a list of samples, one per stream in
    order, each the sample `stream` alone would give; the plane wave
    synthesizes them together, in one pass over its basis.
    """
    if not isinstance(model, SpectralModel):
        raise ValueError(f"unknown model {model!r}")
    streams = (stream, *streams)
    coeffs = [model.draw(grid, s) for s in streams]
    if isinstance(model, PlaneWave2D):
        fields = model.synthesize(grid, *coeffs)
    else:
        fields = [model.synthesize(grid, c) for c in coeffs]
    samples = [FieldSample(v, grid, model, s, c) for v, s, c in zip(fields, streams, coeffs)]
    return samples if len(samples) > 1 else samples[0]


def evaluate_at(sample: FieldSample, points: np.ndarray) -> np.ndarray:
    """Evaluate the realization at arbitrary coordinates from its coefficients.

    Exact (same finite series as the grid values); needs the coefficients,
    which every sampled field carries, also one reloaded from a container.
    """
    if sample.coeffs is None:
        raise ValueError("sample carries no spectral coefficients (a synthetic field?)")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return sample.model.evaluate(sample.grid, sample.coeffs, pts)


def helmholtz_residual(sample: FieldSample) -> float:
    """Relative 5-point residual ||lap F + F|| / ||F|| (wavenumber 1).

    Planar windows use interior nodes only; tori use all nodes with wrap;
    a sphere gets `spherical_laplacian_residual`.  A second-order scheme, so
    the value tracks h^2/12 on smooth data and drops ~4x when the spacing
    halves.
    """
    grid = sample.grid
    f = sample.values
    if isinstance(grid, LatLongSphere):
        return spherical_laplacian_residual(sample)
    if isinstance(grid, PlanarWindow):
        h = grid.spacing
        lap = (
            f[2:, 1:-1] + f[:-2, 1:-1] + f[1:-1, 2:] + f[1:-1, :-2] - 4.0 * f[1:-1, 1:-1]
        ) / (h * h)
        res = lap + f[1:-1, 1:-1]
        ref = float(np.linalg.norm(f[1:-1, 1:-1]))
    elif isinstance(grid, Torus):
        h = grid.spacing
        lap = -2.0 * grid.dim * f
        for ax in range(grid.dim):
            lap = lap + np.roll(f, 1, axis=ax) + np.roll(f, -1, axis=ax)
        lap /= h * h
        res = lap + f
        ref = float(np.linalg.norm(f))
    else:
        raise ValueError(f"no helmholtz residual for grid {grid!r}")
    if ref == 0.0:
        raise ValueError("field has zero norm; residual undefined")
    return float(np.linalg.norm(res)) / ref


def spherical_laplacian_residual(sample: FieldSample) -> float:
    """Relative residual ||lap_S f + l(l+1) f|| / (l(l+1) ||f||).

    Flux-form finite differences on colatitude rows with sin(theta) >= 0.2
    (near-pole rows are excluded: the 1/sin^2 longitude term amplifies their
    truncation error and would mask the second-order convergence).
    """
    grid = sample.grid
    if not isinstance(grid, LatLongSphere) or not isinstance(sample.model, SphericalHarmonic):
        raise ValueError("spherical residual needs a sphere grid and harmonic model")
    l = sample.model.degree
    lam = l * (l + 1.0)
    f = sample.values
    theta = grid.colatitudes()
    dth = math.pi / grid.n_lat
    dph = 2.0 * math.pi / grid.n_lon
    sin_c = np.sin(theta)[1:-1, None]
    sin_up = np.sin(theta[1:-1] + 0.5 * dth)[:, None]
    sin_dn = np.sin(theta[1:-1] - 0.5 * dth)[:, None]
    d_theta = (
        sin_up * (f[2:, :] - f[1:-1, :]) - sin_dn * (f[1:-1, :] - f[:-2, :])
    ) / (dth * dth * sin_c)
    d_phi = (np.roll(f, 1, axis=1) + np.roll(f, -1, axis=1) - 2.0 * f)[1:-1, :] / (
        dph * dph * sin_c * sin_c
    )
    res = d_theta + d_phi + lam * f[1:-1, :]
    band = (sin_c >= 0.2).ravel()
    ref = float(np.linalg.norm(f[1:-1, :][band, :]))
    if ref == 0.0:
        raise ValueError("field has zero norm; residual undefined")
    return float(np.linalg.norm(res[band, :])) / (lam * ref)


_PROBE_FRACTIONS = (
    (0.20, 0.20), (0.20, 0.50), (0.20, 0.80), (0.50, 0.35),
    (0.50, 0.65), (0.80, 0.20), (0.80, 0.50), (0.80, 0.80),
)


def _probe_points(grid: PlanarWindow | Torus, lags: tuple) -> np.ndarray:
    """The fixed probe set x0, then its copy x0 + lag e1 for each lag."""
    lags = np.asarray(lags, dtype=np.float64)
    side = grid.side
    base = np.full((len(_PROBE_FRACTIONS), grid.dim), 0.5 * side)
    base[:, :2] = np.array(_PROBE_FRACTIONS) * side
    if isinstance(grid, PlanarWindow) and np.max(base[:, 0]) + np.max(lags) > side:
        raise ValueError("probe set plus maximal lag leaves the window")
    shifted = np.tile(base, (lags.shape[0], 1))
    shifted[:, 0] += np.repeat(lags, base.shape[0])
    return np.concatenate([base, shifted])


def covariance_probe_means(sample: FieldSample, lags) -> np.ndarray:
    """Mean of F(x0) F(x0 + lag e1) over the fixed probe set, one realization.

    The base probes and every lagged copy are evaluated at once.  A plane
    wave gathers their J_0..J_N rows from its per-(grid, lags) probe table,
    the rows a sweep over the probes gives, so no realization sweeps.
    """
    grid = sample.grid
    if not isinstance(grid, (PlanarWindow, Torus)):
        raise ValueError("covariance probing is only defined for planar and torus grids")
    lags = tuple(float(lag) for lag in lags)
    pts = _probe_points(grid, lags)
    if isinstance(sample.model, PlaneWave2D) and sample.coeffs is not None:
        table = _grid_table(sample.model.probe_table, grid, lags)
        v = sample.model.evaluate(grid, sample.coeffs, pts, table)
    else:
        v = evaluate_at(sample, pts)
    n_probes = len(_PROBE_FRACTIONS)
    return np.mean(v[:n_probes] * v[n_probes:].reshape(-1, n_probes), axis=1)
