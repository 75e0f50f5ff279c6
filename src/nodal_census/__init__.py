"""Monte Carlo census of nodal domains of Gaussian random waves.

Sampling (plane waves, band-limited torus fields, spherical harmonics),
grid decomposition into signed domains with area and boundary measurement,
and ensemble statistics: the empirical domain-area CDF, domain density per
unit ball volume, count sandwich bounds, and minimum-area floor checks.
"""

from .engine import EnsembleConfig, EnsembleFailure, EnsembleReport, resume_ensemble, run_ensemble
from .grids import LatLongSphere, PlanarWindow, Torus, grid_from_dict
from .io import domain_table_csv, load_field, write_field
from .nodal import (
    DomainRecord,
    NodalDecomposition,
    label_domains,
    measure_domains,
    perturbation_stability,
    synthetic_sample,
)
from .sampler import (
    BandLimitedTorus,
    FieldSample,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    evaluate_at,
    helmholtz_residual,
    model_from_dict,
    sample_field,
    spherical_laplacian_residual,
)
from .specfn import faber_krahn_floor
from .stats import (
    EmpiricalCdf,
    NsEstimate,
    SandwichVerdict,
    boundary_and_joint_distributions,
    faber_krahn_check,
    ks_distance,
    nodal_length_density,
    ns_constant_estimate,
    psi_estimate,
    sandwich_check_many,
)

__version__ = "0.1.0"

__all__ = [
    "BandLimitedTorus",
    "DomainRecord",
    "EmpiricalCdf",
    "EnsembleConfig",
    "EnsembleFailure",
    "EnsembleReport",
    "FieldSample",
    "LatLongSphere",
    "NodalDecomposition",
    "NsEstimate",
    "PlanarWindow",
    "PlaneWave2D",
    "RngStream",
    "SandwichVerdict",
    "SphericalHarmonic",
    "Torus",
    "boundary_and_joint_distributions",
    "domain_table_csv",
    "evaluate_at",
    "faber_krahn_check",
    "faber_krahn_floor",
    "grid_from_dict",
    "helmholtz_residual",
    "ks_distance",
    "label_domains",
    "load_field",
    "measure_domains",
    "model_from_dict",
    "nodal_length_density",
    "ns_constant_estimate",
    "perturbation_stability",
    "psi_estimate",
    "resume_ensemble",
    "run_ensemble",
    "sample_field",
    "sandwich_check_many",
    "spherical_laplacian_residual",
    "synthetic_sample",
    "write_field",
    "__version__",
]
