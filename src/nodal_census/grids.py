"""Grid geometries fields are sampled on.

Three families: a planar square window (corner-noded, so an even side/spacing
ratio puts a node exactly at the window center), a flat torus in two or three
dimensions (cell-centered nodes, periodic adjacency), and a latitude-longitude
sphere grid (cell-centered, periodic in longitude, exact per-cell solid
angles).

Everything the statistics need to know about the manifold a grid samples
is answered by the grid itself:

* `dim` and `shape`: the dimension and the node array shape;
* `wraps`: one flag per axis, True where adjacency is periodic;
* `volume`: the total volume (area on the plane and sphere);
* `center`: the reference point of ball statistics;
* `axes()`: the node coordinates along each axis;
* `cell_centers()`: the center coordinates of the marching cells along
  each axis, the cells between neighbouring nodes (and across the wrap on
  a periodic axis); `nodal` and the samplers' cell-center tables both read
  them, so every saddle center `nodal` evaluates is a key of those tables;
* `node_distances(center)`: the distance of every node from a point
  (minimal image on the torus, great-circle on the sphere);
* `require_ball(center, radius, what)`: raise unless the ball is one the
  ball statistics may use (planar and torus grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "PlanarWindow", "Torus", "LatLongSphere", "grid_from_dict"]

_MAX_SPACING = 2.0 * math.pi / 8.0


def _check_spacing(spacing: float) -> None:
    if not (0.0 < spacing <= _MAX_SPACING * (1.0 + 1e-12)):
        raise ValueError(
            f"grid spacing {spacing} too coarse; need 0 < h <= 2*pi/8 = {_MAX_SPACING:.6f}"
        )


def _intervals(side: float, spacing: float, min_n: int = 1) -> int:
    n = round(side / spacing)
    if n < min_n or abs(side - n * spacing) > 1e-9 * side:
        raise ValueError(f"window side {side} is not an integral multiple of spacing {spacing}")
    return n


@dataclass(frozen=True)
class PlanarWindow:
    """Square window [0, side]^2 with nodes at (i*h, j*h), 0 <= i, j <= side/h."""

    side: float
    spacing: float

    dim = 2
    wraps = (False, False)

    def __post_init__(self):
        _check_spacing(self.spacing)
        _intervals(self.side, self.spacing)

    @property
    def n_intervals(self) -> int:
        return _intervals(self.side, self.spacing)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.n_intervals + 1
        return (n, n)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * self.side, 0.5 * self.side)

    @property
    def volume(self) -> float:
        return self.side**2

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n_intervals + 1, dtype=np.float64) * self.spacing

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.axis_coords(),) * 2

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        return ((np.arange(self.n_intervals) + 0.5) * self.spacing,) * 2

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")

    def node_distances(self, center) -> np.ndarray:
        x, y = self.axes()
        return np.hypot(x[:, None] - center[0], y[None, :] - center[1])

    def require_ball(self, center, radius: float, what: str) -> None:
        """Raise ValueError unless B(center, radius) lies in the window."""
        if any(c - radius < -1e-9 or c + radius > self.side + 1e-9 for c in center):
            raise ValueError(f"{what} does not fit in the window")

    def max_radius(self) -> float:
        """Distance from the window center to the farthest node (a corner)."""
        return 0.5 * self.side * math.sqrt(2.0)

    def to_dict(self) -> dict:
        return {"type": "planar", "side": self.side, "spacing": self.spacing}


@dataclass(frozen=True)
class Torus:
    """Flat torus [0, side)^dim with cell-centered nodes at ((i + 1/2) * h, ...)."""

    side: float
    spacing: float
    dim: int = 2

    def __post_init__(self):
        _check_spacing(self.spacing)
        if self.dim not in (2, 3):
            raise ValueError(f"torus dimension {self.dim} unsupported; use 2 or 3")
        _intervals(self.side, self.spacing, min_n=2)

    @property
    def n_intervals(self) -> int:
        return _intervals(self.side, self.spacing, min_n=2)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_intervals,) * self.dim

    @property
    def center(self) -> tuple[float, ...]:
        return (0.5 * self.side,) * self.dim

    @property
    def wraps(self) -> tuple[bool, ...]:
        return (True,) * self.dim

    @property
    def volume(self) -> float:
        return self.side**self.dim

    def axis_coords(self) -> np.ndarray:
        return (np.arange(self.n_intervals, dtype=np.float64) + 0.5) * self.spacing

    def axes(self) -> tuple[np.ndarray, ...]:
        return (self.axis_coords(),) * self.dim

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """Cell n - 1 on each axis spans the wrap; its center is the side."""
        return ((np.arange(self.n_intervals) + 1.0) * self.spacing,) * self.dim

    def node_distances(self, center) -> np.ndarray:
        """Minimal-image distances."""
        acc = np.zeros(self.shape)
        for ax, c in enumerate(self.axes()):
            d = np.abs(c - center[ax])
            d = np.minimum(d, self.side - d)
            acc = acc + (d.reshape([-1 if a == ax else 1 for a in range(self.dim)])) ** 2
        return np.sqrt(acc)

    def require_ball(self, center, radius: float, what: str) -> None:
        """Raise ValueError when the radius exceeds half the side: a wider
        ball overlaps itself across the wrap."""
        if radius > 0.5 * self.side + 1e-9:
            raise ValueError(f"{what} exceeds half the torus side")

    def to_dict(self) -> dict:
        return {"type": "torus", "side": self.side, "spacing": self.spacing, "dim": self.dim}


@dataclass(frozen=True)
class LatLongSphere:
    """Unit sphere on an n_lat x n_lon grid of cell centers.

    Colatitude cell i spans [i, i+1] * pi/n_lat; nodes sit at cell centers so
    no node coincides with a pole.  Longitude wraps.  Cell solid angles are
    the exact integrals dphi * (cos(theta_top) - cos(theta_bottom)); they sum
    to 4*pi to rounding, which the area-closure invariant leans on.
    """

    n_lat: int
    n_lon: int

    dim = 2
    wraps = (False, True)
    volume = 4.0 * math.pi
    # the equatorial point (colatitude pi/2, longitude pi)
    center = (0.5 * math.pi, math.pi)

    def __post_init__(self):
        if self.n_lat < 2 or self.n_lon < 4:
            raise ValueError("sphere grid needs n_lat >= 2 and n_lon >= 4")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_lat, self.n_lon)

    def colatitudes(self) -> np.ndarray:
        return (np.arange(self.n_lat, dtype=np.float64) + 0.5) * (math.pi / self.n_lat)

    def longitudes(self) -> np.ndarray:
        return (np.arange(self.n_lon, dtype=np.float64) + 0.5) * (2.0 * math.pi / self.n_lon)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return self.colatitudes(), self.longitudes()

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """The n_lat - 1 colatitudes between node rows (the polar caps
        hold no cell) and the n_lon longitudes between node columns, the
        last one across the wrap at 0."""
        dth = math.pi / self.n_lat
        dph = 2.0 * math.pi / self.n_lon
        return (
            (np.arange(self.n_lat - 1) + 1.0) * dth,
            ((np.arange(self.n_lon) + 1.0) * dph) % (2.0 * math.pi),
        )

    def row_cell_areas(self) -> np.ndarray:
        """Solid angle of one cell in each colatitude row."""
        edges = np.arange(self.n_lat + 1, dtype=np.float64) * (math.pi / self.n_lat)
        dphi = 2.0 * math.pi / self.n_lon
        return dphi * (np.cos(edges[:-1]) - np.cos(edges[1:]))

    def node_distances(self, center) -> np.ndarray:
        """Great-circle distances from center = (colatitude, longitude)."""
        theta = self.colatitudes()[:, None]
        phi = self.longitudes()[None, :]
        ct, st = math.cos(center[0]), math.sin(center[0])
        cosd = ct * np.cos(theta) + st * np.sin(theta) * np.cos(phi - center[1])
        return np.arccos(np.clip(cosd, -1.0, 1.0))

    def to_dict(self) -> dict:
        return {"type": "sphere", "n_lat": self.n_lat, "n_lon": self.n_lon}


GridSpec = PlanarWindow | Torus | LatLongSphere


def json_object(obj, where, *keys) -> dict:
    """`obj`, a JSON value read from `where`, when it is an object holding
    every one of `keys`; else ValueError naming `where` and what it lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where} lacks {key!r}")
    return obj


def grid_from_dict(d: dict, where: str = "grid") -> GridSpec:
    """The grid `d` describes; ValueError naming `where` if `d` is malformed."""
    kind = json_object(d, where).get("type")
    if kind == "planar":
        json_object(d, where, "side", "spacing")
        return PlanarWindow(side=float(d["side"]), spacing=float(d["spacing"]))
    if kind == "torus":
        json_object(d, where, "side", "spacing")
        return Torus(side=float(d["side"]), spacing=float(d["spacing"]), dim=int(d.get("dim", 2)))
    if kind == "sphere":
        json_object(d, where, "n_lat", "n_lon")
        return LatLongSphere(n_lat=int(d["n_lat"]), n_lon=int(d["n_lon"]))
    raise ValueError(f"unknown grid type {kind!r}")
