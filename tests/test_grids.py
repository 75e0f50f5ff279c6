import itertools
import math

import numpy as np
import pytest

from nodal_census import LatLongSphere, PlanarWindow, Torus, grid_from_dict


def test_planar_nodes_include_both_edges():
    g = PlanarWindow(side=2.0, spacing=0.5)
    xs = g.axis_coords()
    assert xs[0] == 0.0 and xs[-1] == 2.0
    assert len(xs) == 5
    assert g.shape == (5, 5)
    assert g.center == (1.0, 1.0)
    assert g.max_radius() == pytest.approx(math.sqrt(2.0))


def test_planar_rejects_bad_geometry():
    with pytest.raises(ValueError):
        PlanarWindow(side=2.0, spacing=0.3)  # not an integral multiple
    with pytest.raises(ValueError):
        PlanarWindow(side=8.0, spacing=2 * math.pi / 7)  # coarser than 8 per wavelength


def test_torus_nodes_are_cell_centered():
    g = Torus(side=4 * math.pi, spacing=math.pi / 4)
    xs = g.axis_coords()
    assert len(xs) == 16
    assert xs[0] == pytest.approx(math.pi / 8)
    assert xs[-1] == pytest.approx(4 * math.pi - math.pi / 8)
    # one period only: no duplicated seam node
    assert (xs < 4 * math.pi).all()


def test_torus_dims():
    g3 = Torus(side=2 * math.pi, spacing=math.pi / 8, dim=3)
    assert g3.shape == (16, 16, 16)
    with pytest.raises(ValueError):
        Torus(side=2 * math.pi, spacing=math.pi / 8, dim=4)


def test_sphere_grid_weights_close():
    g = LatLongSphere(n_lat=24, n_lon=48)
    theta = g.colatitudes()
    assert theta[0] == pytest.approx(math.pi / 48)
    assert len(theta) == 24 and len(g.longitudes()) == 48
    total = np.sum(g.row_cell_areas()) * g.n_lon
    assert total == pytest.approx(4 * math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        LatLongSphere(n_lat=1, n_lon=8)


PLANE = PlanarWindow(side=4.0, spacing=0.5)
TORUS = Torus(side=4 * math.pi, spacing=math.pi / 4)
TORUS3 = Torus(side=2 * math.pi, spacing=math.pi / 8, dim=3)
SPHERE = LatLongSphere(n_lat=10, n_lon=20)
GRIDS = [PLANE, TORUS, TORUS3, SPHERE]
GRID_IDS = ["plane", "torus", "torus3", "sphere"]


@pytest.mark.parametrize("grid", GRIDS)
def test_grid_dict_round_trip(grid):
    assert grid_from_dict(grid.to_dict()) == grid


@pytest.mark.parametrize(
    "grid, dim, wraps, volume, center",
    [
        (PLANE, 2, (False, False), 16.0, (2.0, 2.0)),
        (TORUS, 2, (True, True), 16 * math.pi**2, (2 * math.pi, 2 * math.pi)),
        (TORUS3, 3, (True, True, True), 8 * math.pi**3, (math.pi, math.pi, math.pi)),
        (SPHERE, 2, (False, True), 4 * math.pi, (0.5 * math.pi, math.pi)),
    ],
    ids=GRID_IDS,
)
def test_grid_geometry(grid, dim, wraps, volume, center):
    assert grid.dim == dim == len(grid.shape)
    assert grid.wraps == wraps
    assert grid.volume == pytest.approx(volume, rel=1e-15)
    assert grid.center == pytest.approx(center, rel=1e-15)


def _brute_distances(grid, center):
    """Node distances one node at a time, from first principles."""
    out = np.empty(grid.shape)
    if isinstance(grid, PlanarWindow):
        xs = grid.axis_coords()
        for i, j in itertools.product(range(len(xs)), repeat=2):
            out[i, j] = math.hypot(xs[i] - center[0], xs[j] - center[1])
    elif isinstance(grid, Torus):
        xs = grid.axis_coords()
        shifts = list(itertools.product((-grid.side, 0.0, grid.side), repeat=grid.dim))
        for idx in itertools.product(range(len(xs)), repeat=grid.dim):
            out[idx] = min(
                math.sqrt(sum((xs[i] + s - c) ** 2 for i, s, c in zip(idx, shift, center)))
                for shift in shifts
            )
    else:
        def unit(theta, phi):
            return np.array([
                math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)
            ])

        c = unit(*center)
        for i, theta in enumerate(grid.colatitudes()):
            for j, phi in enumerate(grid.longitudes()):
                chord = float(np.linalg.norm(unit(theta, phi) - c))
                out[i, j] = 2.0 * math.asin(0.5 * chord)
    return out


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("where", ["center", "off-center"])
def test_node_distances_match_brute_force(grid, where):
    center = grid.center if where == "center" else tuple(0.3 + 0.7 * k for k in range(grid.dim))
    np.testing.assert_allclose(
        grid.node_distances(center), _brute_distances(grid, center), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("grid", GRIDS[:3], ids=GRID_IDS[:3])
def test_require_ball_edge(grid):
    half = 0.5 * grid.side
    grid.require_ball(grid.center, half, "ball")
    with pytest.raises(ValueError, match="ball (does not fit in the window|exceeds half)"):
        grid.require_ball(grid.center, half + 2e-9, "ball")
