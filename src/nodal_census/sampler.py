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

Randomness comes from a counter-based Philox generator keyed by
(master_seed, stream_id), so realization i of a run is reproducible in
isolation and independent across i.

Each model's per-grid table (the plane-wave basis, the Legendre matrix, the
torus modes) is built once per grid per process, on the first draw, and
shared read-only by every later draw on that grid, from any thread; no
sampler takes a table argument.  The public builders
(`build_plane_wave_basis`, `legendre_matrix`, `torus_modes`) stay uncached.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec, LatLongSphere, PlanarWindow, Torus
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
    "sample_plane_wave",
    "sample_band_limited",
    "sample_spherical_harmonic",
    "sample_field",
    "evaluate_at",
    "helmholtz_residual",
    "spherical_laplacian_residual",
    "empirical_covariance",
    "CovarianceEstimate",
    "model_from_dict",
]

_MAX_PLANE_RADIUS = 300.0
_MIN_TORUS_SIDE = 20.0 * 2.0 * math.pi


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


@dataclass(frozen=True)
class PlaneWave2D:
    def to_dict(self) -> dict:
        return {"type": "plane_wave"}


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


@dataclass(frozen=True)
class SphericalHarmonic:
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("spherical harmonic degree must be >= 1")

    def to_dict(self) -> dict:
        return {"type": "spherical_harmonic", "degree": self.degree}


SpectralModel = PlaneWave2D | BandLimitedTorus | SphericalHarmonic


def model_from_dict(d: dict) -> SpectralModel:
    kind = d.get("type")
    if kind == "plane_wave":
        return PlaneWave2D()
    if kind == "band_limited":
        return BandLimitedTorus(dim=int(d.get("dim", 2)), alpha=float(d.get("alpha", 0.0)))
    if kind == "spherical_harmonic":
        return SphericalHarmonic(degree=int(d["degree"]))
    raise ValueError(f"unknown model type {kind!r}")


@dataclass
class FieldSample:
    """One realization: node values plus enough provenance to reproduce it.

    `model` is None for synthetic fields built directly from a value array;
    those cannot be evaluated off-grid and fall back to the coefficient-free
    code paths downstream.
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
    """Per-grid Bessel/angular basis so each realization is two mat-vecs.

    cos_basis[:, 0] = J_0(r); cos_basis[:, n] = sqrt(2) J_n(r) cos(n theta);
    sin_basis[:, n-1] = sqrt(2) J_n(r) sin(n theta), all about the window
    center.  Rows are flattened grid nodes.
    """

    n_trunc: int
    cos_basis: np.ndarray
    sin_basis: np.ndarray


def _basis_block(r: np.ndarray, theta: np.ndarray, n_trunc: int):
    """Cosine/sine basis rows for the given polar coordinates.

    A lattice repeats each radius many times, so the Bessel sweep runs on the
    distinct radii and each order's column is gathered back onto the nodes.
    """
    radii, node_radius = np.unique(r, return_inverse=True)
    jmat = bessel_j_orders(n_trunc, radii)
    npts = r.shape[0]
    cos_b = np.empty((npts, n_trunc + 1), dtype=np.float64)
    sin_b = np.empty((npts, n_trunc), dtype=np.float64)
    cos_b[:, 0] = jmat[node_radius, 0]
    c1 = np.cos(theta)
    s1 = np.sin(theta)
    cn = c1.copy()
    sn = s1.copy()
    root2 = math.sqrt(2.0)
    for n in range(1, n_trunc + 1):
        jn = jmat[node_radius, n]
        cos_b[:, n] = root2 * jn * cn
        sin_b[:, n - 1] = root2 * jn * sn
        if n < n_trunc:
            cn, sn = cn * c1 - sn * s1, sn * c1 + cn * s1
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
    return PlaneWaveBasis(n_trunc=n_trunc, cos_basis=cos_b, sin_basis=sin_b)


def sample_plane_wave(model: PlaneWave2D, grid: PlanarWindow, stream: RngStream) -> FieldSample:
    """Draw one random plane wave on the window.

    Coefficients are drawn in a fixed order (a_0, a_1..a_N, b_1..b_N), so the
    value at the window-center node is exactly the first Gaussian draw.
    """
    basis = _grid_table(model, grid)
    n_trunc = basis.n_trunc
    gen = stream.generator()
    a = gen.standard_normal(n_trunc + 1)
    b = gen.standard_normal(n_trunc)
    values = basis.cos_basis @ a + basis.sin_basis @ b
    values = values.reshape(grid.shape)
    coeffs = {"a": a, "b": b, "n_trunc": n_trunc}
    return FieldSample(values=values, grid=grid, model=model, stream=stream, coeffs=coeffs)


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
    if grid.dim == 2:
        m1, m2 = np.meshgrid(rng, rng, indexing="ij")
        lattice = np.stack([m1.ravel(), m2.ravel()], axis=1)
    else:
        m1, m2, m3 = np.meshgrid(rng, rng, rng, indexing="ij")
        lattice = np.stack([m1.ravel(), m2.ravel(), m3.ravel()], axis=1)
    norms = np.sqrt(np.sum(lattice.astype(np.float64) ** 2, axis=1)) * (two_pi / grid.side)
    in_band = (norms >= lo - 1e-12) & (norms <= 1.0 + 1e-12)
    # half-lattice: first nonzero component positive
    keep = np.zeros(lattice.shape[0], dtype=bool)
    for d in range(grid.dim):
        col = lattice[:, d]
        earlier_zero = np.ones(lattice.shape[0], dtype=bool)
        for e in range(d):
            earlier_zero &= lattice[:, e] == 0
        keep |= earlier_zero & (col > 0)
    if alpha == 0.0:
        keep |= np.all(lattice == 0, axis=1)
    sel = lattice[in_band & keep]
    order = np.lexsort(tuple(sel[:, d] for d in range(grid.dim - 1, -1, -1)))
    return sel[order], lo


def sample_band_limited(model: BandLimitedTorus, grid: Torus, stream: RngStream) -> FieldSample:
    """Draw one band-limited field on the torus via an inverse FFT.

    The node phases 2 pi m (j + 1/2) / n are handled exactly by a half-cell
    phase twist on the spectral array, so the construction is a finite
    trigonometric sum with genuine torus frequencies.

    The inverse FFT is pruned (Markel 1971).  The spectrum holds, on each
    leading axis, only the sorted distinct rows m_d mod n that carry a mode;
    the last axis stays full length.  The 1-D inverse transforms then run in
    ``np.fft.ifftn``'s order, last axis first, and before each earlier axis's
    pass the result is scattered into rows of zeros of full length on that
    axis.  ``ifftn`` transforms each line on its own and an all-zero line
    stays zero, so every line that can be nonzero sees the input it would see
    in the full transform, and the values are byte-identical to ``ifftn`` of
    the full (n,)*dim spectrum.  On the 160^3 torus this is 33,841 line
    transforms instead of 76,800, with no full-size spectrum.
    """
    if not isinstance(grid, Torus) or grid.dim != model.dim:
        raise ValueError("band-limited sampling needs a Torus grid of matching dimension")
    if grid.side < _MIN_TORUS_SIDE - 1e-9:
        raise ValueError(
            f"torus side {grid.side:.2f} too small for the lattice spectral measure; "
            f"need at least {_MIN_TORUS_SIDE:.2f}"
        )
    modes, lo = _grid_table(model, grid)
    if modes.shape[0] == 0:
        raise ValueError(
            f"no torus frequencies in the band [{lo:.4f}, 1]; "
            f"increase the side beyond {2.0 * math.pi / max(1.0 - model.alpha, 1e-9):.2f}"
        )
    gen = stream.generator()
    nonzero = ~np.all(modes == 0, axis=1)
    a = gen.standard_normal(modes.shape[0])
    b = np.zeros(modes.shape[0])
    b[nonzero] = gen.standard_normal(int(np.sum(nonzero)))
    norm = 1.0 / math.sqrt(modes.shape[0])
    n = grid.n_intervals
    k = modes.shape[0]
    twist = np.exp(1j * math.pi * np.sum(modes, axis=1) / n)
    amp = 0.5 * (a - 1j * b) * twist
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
    x = np.fft.ifft(spec)
    for d in range(grid.dim - 2, -1, -1):
        full = np.zeros(x.shape[:d] + (n,) + x.shape[d + 1 :], dtype=np.complex128)
        full[(slice(None),) * d + (rows[d],)] = x
        x = np.fft.ifft(full, axis=d)
    values = x.real * n**grid.dim
    values *= norm
    coeffs = {"modes": modes, "a": a, "b": b, "norm": norm}
    return FieldSample(values=values, grid=grid, model=model, stream=stream, coeffs=coeffs)


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


def sample_spherical_harmonic(
    model: SphericalHarmonic, grid: LatLongSphere, stream: RngStream
) -> FieldSample:
    """Draw one random spherical harmonic of the model's degree.

    Grid resolution below 4*degree nodes per great circle (2*n_lat meridian
    nodes, n_lon equatorial nodes) is rejected.  Coefficient draw order:
    the m = 0 coefficient, then the l cosine coefficients, then the l sine
    coefficients.
    """
    if not isinstance(grid, LatLongSphere):
        raise ValueError("spherical harmonic sampling needs a LatLongSphere grid")
    l = model.degree
    need = 4 * l
    if 2 * grid.n_lat < need or grid.n_lon < need:
        raise ValueError(
            f"sphere grid {grid.n_lat}x{grid.n_lon} under-resolves degree {l}: "
            f"need n_lat >= {need // 2} and n_lon >= {need}"
        )
    legendre = _grid_table(model, grid)
    gen = stream.generator()
    z = gen.standard_normal(2 * l + 1)
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
    values = np.fft.irfft(spec, n=grid.n_lon, axis=1) * grid.n_lon
    coeffs = {"z": z, "degree": l}
    return FieldSample(values=values, grid=grid, model=model, stream=stream, coeffs=coeffs)


_TABLE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=4)
def _built_table(model: SpectralModel, grid: GridSpec):
    if isinstance(model, PlaneWave2D):
        table = build_plane_wave_basis(grid)
        arrays = (table.cos_basis, table.sin_basis)
    elif isinstance(model, SphericalHarmonic):
        table = legendre_matrix(model.degree, np.cos(grid.colatitudes()))
        arrays = (table,)
    else:
        table = torus_modes(grid, model.alpha)
        arrays = table[:1]
    for array in arrays:
        array.setflags(write=False)
    return table


def _grid_table(model: SpectralModel, grid: GridSpec):
    """The model's per-grid table, built on the first call for a (model,
    grid) and shared read-only after: the plane-wave basis, the Legendre
    matrix at the grid's colatitudes, or the torus modes and band edge.
    The lock makes concurrent first calls build the table once."""
    with _TABLE_LOCK:
        return _built_table(model, grid)


def sample_field(model: SpectralModel, grid: GridSpec, stream: RngStream) -> FieldSample:
    """Dispatch to the sampler matching the model type."""
    if isinstance(model, PlaneWave2D):
        return sample_plane_wave(model, grid, stream)
    if isinstance(model, BandLimitedTorus):
        return sample_band_limited(model, grid, stream)
    if isinstance(model, SphericalHarmonic):
        return sample_spherical_harmonic(model, grid, stream)
    raise ValueError(f"unknown model {model!r}")


def evaluate_at(sample: FieldSample, points: np.ndarray) -> np.ndarray:
    """Evaluate the realization at arbitrary coordinates from its coefficients.

    Exact (same finite series as the grid values); needs the in-memory
    coefficients, which file round trips do not preserve.
    """
    if sample.coeffs is None:
        raise ValueError("sample carries no spectral coefficients (loaded from file?)")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if isinstance(sample.model, PlaneWave2D):
        cx, cy = sample.grid.center
        dx = pts[:, 0] - cx
        dy = pts[:, 1] - cy
        r = np.hypot(dx, dy)
        theta = np.arctan2(dy, dx)
        n_trunc = sample.coeffs["n_trunc"]
        jmat = bessel_j_orders(n_trunc, r)
        a = sample.coeffs["a"]
        b = sample.coeffs["b"]
        ns = np.arange(1, n_trunc + 1)
        ang = np.outer(theta, ns)
        vals = jmat[:, 0] * a[0]
        vals = vals + math.sqrt(2.0) * np.sum(
            jmat[:, 1:] * (np.cos(ang) * a[1:] + np.sin(ang) * b), axis=1
        )
        return vals
    if isinstance(sample.model, BandLimitedTorus):
        modes = sample.coeffs["modes"]
        xi = modes.astype(np.float64) * (2.0 * math.pi / sample.grid.side)
        # canonicalize into one period so x and x + L give bit-identical values
        phase = np.mod(pts, sample.grid.side) @ xi.T
        return sample.coeffs["norm"] * (
            np.cos(phase) @ sample.coeffs["a"] + np.sin(phase) @ sample.coeffs["b"]
        )
    if isinstance(sample.model, SphericalHarmonic):
        l = sample.model.degree
        z = sample.coeffs["z"]
        leg = legendre_matrix(l, np.cos(pts[:, 0]))
        ang = np.outer(pts[:, 1], np.arange(1, l + 1))
        scale = math.sqrt(4.0 * math.pi / (2.0 * l + 1.0))
        return scale * (
            z[0] * leg[:, 0]
            + math.sqrt(2.0)
            * np.sum(leg[:, 1:] * (np.cos(ang) * z[1 : l + 1] + np.sin(ang) * z[l + 1 :]), axis=1)
        )
    raise ValueError(f"off-grid evaluation undefined for model {sample.model!r}")


def helmholtz_residual(sample: FieldSample) -> float:
    """Relative 5-point residual ||lap F + F|| / ||F|| (wavenumber 1).

    Planar windows use interior nodes only; tori use all nodes with wrap.
    A second-order scheme, so the value tracks h^2/12 on smooth data and
    drops ~4x when the spacing halves.
    """
    grid = sample.grid
    f = sample.values
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
        raise ValueError("helmholtz residual is defined for planar and torus grids")
    if ref == 0.0:
        raise ValueError("field has zero norm; residual undefined")
    return float(np.linalg.norm(res)) / ref


def spherical_laplacian_residual(sample: FieldSample, min_sin: float = 0.2) -> float:
    """Relative residual ||lap_S f + l(l+1) f|| / (l(l+1) ||f||).

    Flux-form finite differences on colatitude rows with sin(theta) >= min_sin
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
    band = (sin_c >= min_sin).ravel()
    ref = float(np.linalg.norm(f[1:-1, :][band, :]))
    if ref == 0.0:
        raise ValueError("field has zero norm; residual undefined")
    return float(np.linalg.norm(res[band, :])) / (lam * ref)


@dataclass
class CovarianceEstimate:
    lags: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    n_samples: int
    n_probes: int


_PROBE_FRACTIONS = (
    (0.20, 0.20), (0.20, 0.50), (0.20, 0.80), (0.50, 0.35),
    (0.50, 0.65), (0.80, 0.20), (0.80, 0.50), (0.80, 0.80),
)


def covariance_probe_means(sample: FieldSample, lags) -> np.ndarray:
    """Mean of F(x0) F(x0 + lag e1) over the fixed probe set, one realization."""
    grid = sample.grid
    if not isinstance(grid, (PlanarWindow, Torus)):
        raise ValueError("covariance probing is only defined for planar and torus grids")
    lags = np.asarray(lags, dtype=np.float64)
    side = grid.side
    dim = grid.dim
    base = np.full((len(_PROBE_FRACTIONS), dim), 0.5 * side)
    base[:, :2] = np.array(_PROBE_FRACTIONS) * side
    if isinstance(grid, PlanarWindow) and np.max(base[:, 0]) + np.max(lags) > side:
        raise ValueError("probe set plus maximal lag leaves the window")
    step = np.zeros(dim)
    out = np.empty(lags.shape[0])
    v0 = evaluate_at(sample, base)
    for j, lag in enumerate(lags):
        step[0] = lag
        out[j] = float(np.mean(v0 * evaluate_at(sample, base + step)))
    return out


def empirical_covariance(samples: list[FieldSample], lags) -> CovarianceEstimate:
    """Monte Carlo covariance at the given lags along the first axis.

    Averages F(x0) F(x0 + lag e1) over a fixed probe set and the sample list;
    stderr is the realization-to-realization scatter of the per-sample probe
    mean (probes within one sample are correlated, samples are not).
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    grid = samples[0].grid
    model = samples[0].model
    for s in samples[1:]:
        if s.grid != grid or s.model != model:
            raise ValueError("samples disagree on model or grid")
    lags = np.asarray(lags, dtype=np.float64)
    per_sample = np.stack([covariance_probe_means(s, lags) for s in samples])
    est = per_sample.mean(axis=0)
    err = per_sample.std(axis=0, ddof=1) / math.sqrt(len(samples))
    return CovarianceEstimate(
        lags=lags, estimates=est, stderrs=err, n_samples=len(samples),
        n_probes=len(_PROBE_FRACTIONS),
    )
