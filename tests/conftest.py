import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nodal_census import (
    BandLimitedTorus,
    LatLongSphere,
    PlanarWindow,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    Torus,
    engine,
    label_domains,
    measure_domains,
    sample_field,
)

DESK_SEED = 7
DESK_M = 100


@pytest.fixture(scope="session")
def desk_grid():
    return PlanarWindow(side=40 * math.pi, spacing=2 * math.pi / 10)


@pytest.fixture(scope="session")
def desk_ensemble(desk_grid):
    """The canonical acceptance ensemble: 100 plane-wave realizations, seed 7."""
    model = PlaneWave2D()
    decs = []
    for i in range(DESK_M):
        sample = sample_field(model, desk_grid, RngStream(DESK_SEED, i))
        dec = label_domains(sample)
        measure_domains(dec)
        decs.append(dec)
    return decs


@pytest.fixture(scope="session")
def sphere_l8_dec():
    sample = sample_field(SphericalHarmonic(degree=8), LatLongSphere(n_lat=40, n_lon=80),
                          RngStream(6, 0))
    return measure_domains(label_domains(sample))


@pytest.fixture(scope="session")
def torus160_sample():
    """The seed-7 160^3 shell torus, the largest field a realization draws;
    drawing it also builds the grid's mode table, so a traced call after
    this one sees only its own arrays."""
    return sample_field(BandLimitedTorus(dim=3, alpha=1.0),
                        Torus(side=40 * math.pi, spacing=math.pi / 4, dim=3), RngStream(7, 0))


@pytest.fixture(scope="session")
def mini_ensemble():
    """Five realizations on a small window; enough for estimator plumbing tests."""
    grid = PlanarWindow(side=9 * math.pi, spacing=2 * math.pi / 10)
    model = PlaneWave2D()
    decs = []
    for i in range(5):
        sample = sample_field(model, grid, RngStream(3, i))
        dec = label_domains(sample)
        measure_domains(dec)
        decs.append(dec)
    return decs


@pytest.fixture
def fail_realizations(monkeypatch):
    """`fail(*indices)` makes the engine's draw for those realizations raise.

    The realization's own stream comes first in the engine's draw; a
    perturbation direction's stream, at 2**32 and up, follows it.
    """

    def fail(*indices):
        draw = engine.sample_field

        def failing(model, grid, stream, *streams):
            if stream.stream_id in indices:
                raise RuntimeError("injected")
            return draw(model, grid, stream, *streams)

        monkeypatch.setattr(engine, "sample_field", failing)

    return fail
