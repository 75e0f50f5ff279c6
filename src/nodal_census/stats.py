"""Ensemble statistics over nodal decompositions.

The estimators here turn per-realization decompositions into the objects the
whole study is about: the empirical distribution of domain areas, the domain
density (count per unit ball volume), the integral-geometric sandwich bound,
the minimum-area floor check, and boundary-length distributions.

Every ensemble estimator is a fold over per-realization census records
(`census_record`): per-domain area, perimeter, window contact and largest
distance from the ball center, plus the total nodal length.  The public
functions build records from decompositions; the engine folds the records it
persisted as sidecars, so library, report and CLI numbers agree exactly.

Counting conventions shared by everything in this module: a domain is
"interior" when it does not touch the window edge, and it lies "in B(c, R)"
when every one of its nodes does (strict inequality).  Both follow the node
membership rule of the decomposition layer, so estimator outputs are exact
functions of the labeled grid.

The sandwich bound deserves a note.  For a fixed decomposition, with centers
u running over grid nodes and K = #{lattice offsets m : |m h| < r},

    lower = (1/K) * sum over nodes u in B(c, R - r) of N(t; u, r)
    upper = (1/K) * sum over nodes u in B(c, R + r) of N*(t; u, r)

satisfy lower <= N(t; R) <= upper *exactly*, not just up to discretization:
any domain counted at some u in the lower sum lies in B(c, R), and can be
counted by at most K centers (pin one node x0 of the domain; every counting
center is within r of x0, and those centers form a translate of the offset
lattice).  Conversely every domain in B(c, R) is hit by at least the K
centers x0 + m h, all of which lie in B(c, R + r).  The verdicts are
therefore computed in integer arithmetic and must hold on every sample.

The counts come from a hit matrix, one row per center in B(c, R + r) and one
column per label found within reach of those centers.  The label image is
padded by that reach (wrapped on a torus, a sentinel label outside a window)
and each lattice offset m adds 1 to (u, label at u + m h) for every center u
at once; a center meets exactly one node per offset, so no two additions of
one offset land in the same cell.  The strict offsets (|m h| < r) go first:
at that point a domain is inside the open disk around u exactly when its
hits equal its node count, which gives N(t; u, r).  Then the offsets with
|m h| = r are added, and a domain meets the closed disk exactly when its
hits are positive, which gives N*(t; u, r).  Each threshold then sums the
per-label column totals of the domains with area <= t.  Every step is an
integer count of the same (center, offset, label) triples the bound speaks
of, so the verdicts are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .grids import LatLongSphere, PlanarWindow, Torus
from .nodal import NodalDecomposition, domain_distance_extrema, measure_domains
from .specfn import faber_krahn_floor

__all__ = [
    "RECORD_COLUMNS",
    "EmpiricalCdf",
    "NsEstimate",
    "SandwichVerdict",
    "psi_estimate",
    "ns_constant_estimate",
    "sandwich_check",
    "sandwich_check_many",
    "faber_krahn_check",
    "boundary_and_joint_distributions",
    "ks_distance",
    "nodal_length_density",
    "census_record",
    "fold_psi",
    "fold_boundary",
    "fold_ns",
    "fold_nodal_length",
    "fold_faber_krahn",
    "mean_stderr",
]


@dataclass
class EmpiricalCdf:
    """Right-continuous step CDF with breakpoints at observed values."""

    breakpoints: np.ndarray
    fractions: np.ndarray
    total_count: int
    stderr: np.ndarray

    @classmethod
    def from_values(cls, values) -> "EmpiricalCdf":
        values = np.sort(np.asarray(values, dtype=np.float64), axis=None)
        if values.size == 0:
            raise ValueError("cannot build an empirical CDF from zero values")
        # the CDF at each distinct value is the share of values up to its last copy
        last = np.append(values[1:] != values[:-1], True)
        points = values[last]
        frac = (np.flatnonzero(last) + 1) / values.size
        err = np.sqrt(frac * (1.0 - frac) / values.size)
        return cls(breakpoints=points, fractions=frac, total_count=int(values.size), stderr=err)

    def evaluate(self, t) -> np.ndarray | float:
        t_arr = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.breakpoints, t_arr, side="right") - 1
        out = np.where(idx >= 0, self.fractions[np.maximum(idx, 0)], 0.0)
        return float(out) if np.isscalar(t) else out

    def to_dict(self) -> dict:
        return {
            "breakpoints": self.breakpoints.tolist(),
            "fractions": self.fractions.tolist(),
            "total_count": self.total_count,
            "stderr": self.stderr.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EmpiricalCdf":
        return cls(
            breakpoints=np.asarray(d["breakpoints"], dtype=np.float64),
            fractions=np.asarray(d["fractions"], dtype=np.float64),
            total_count=int(d["total_count"]),
            stderr=np.asarray(d["stderr"], dtype=np.float64),
        )


@dataclass
class NsEstimate:
    radii: list[float]
    ratio_means: list[float]
    ratio_stderrs: list[float]
    pooled: float
    pooled_stderr: float

    def to_dict(self) -> dict:
        return {
            "radii": self.radii,
            "ratio_means": self.ratio_means,
            "ratio_stderrs": self.ratio_stderrs,
            "pooled": self.pooled,
            "pooled_stderr": self.pooled_stderr,
        }


@dataclass
class SandwichVerdict:
    r: float
    R: float
    t: float
    lower: float
    middle: int
    upper: float
    holds: bool

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "R": self.R,
            "t": self.t,
            "lower": self.lower,
            "middle": self.middle,
            "upper": self.upper,
            "holds": self.holds,
        }


def _check_same_ensemble(decs: list[NodalDecomposition]) -> None:
    if not decs:
        raise ValueError("need at least one decomposition")
    grid = decs[0].sample.grid
    model = decs[0].sample.model
    for dec in decs[1:]:
        if dec.sample.grid != grid or dec.sample.model != model:
            raise ValueError("decompositions come from different models or grids")


RECORD_COLUMNS = ("areas", "perimeters", "touches", "dmax", "nodal_length")


def census_record(dec: NodalDecomposition, center=None, columns=RECORD_COLUMNS) -> dict:
    """The per-realization census record every ensemble estimator folds.

    Per-domain columns in label order -- `areas`, `perimeters`, `touches`
    (the domain meets the window edge) and `dmax` (largest node distance
    from `center`, the grid's default center when None) -- plus the scalar
    `nodal_length`.  The engine persists the full record as a sidecar
    payload; `columns` picks the keys to build, so a library estimator pays
    only for the columns it reads.
    """
    if "perimeters" in columns or "nodal_length" in columns:
        measure_domains(dec)
    record = {}
    if "areas" in columns:
        record["areas"] = [d.area for d in dec.domains]
    if "perimeters" in columns:
        record["perimeters"] = [d.perimeter for d in dec.domains]
    if "touches" in columns:
        record["touches"] = [d.touches_window for d in dec.domains]
    if "dmax" in columns:
        if center is None:
            center = dec.sample.grid.center
        record["dmax"] = domain_distance_extrema(dec, center)[1].tolist()
    if "nodal_length" in columns:
        record["nodal_length"] = float(dec.total_nodal_length)
    return record


def _records(decs: list[NodalDecomposition], columns, window=None) -> list[dict]:
    _check_same_ensemble(decs)
    center = None
    if window is not None:
        center = window[0]
        columns += ("dmax",)
    return [census_record(dec, center, columns) for dec in decs]


def _interior(records, key: str, radius):
    """The `key` column of the interior domains, restricted to those fully
    in B(center, R) when a radius is given (`dmax` holds distances from that
    center), in record then label order."""
    for r in records:
        if radius is None:
            keep = [not t for t in r["touches"]]
        else:
            keep = [not t and d < radius for t, d in zip(r["touches"], r["dmax"])]
        yield from compress(r[key], keep)


def mean_stderr(values):
    """Mean and standard error along the first axis (floats for 1-D input);
    a single value has standard error 0."""
    arr = np.asarray(values, dtype=np.float64)
    mean = arr.mean(axis=0)
    if len(arr) > 1:
        err = arr.std(axis=0, ddof=1) / math.sqrt(len(arr))
    else:
        err = np.zeros(arr.shape[1:])
    if arr.ndim == 1:
        return float(mean), float(err)
    return mean, err


def _ball_volume(dim: int, radius: float) -> float:
    if dim == 2:
        return math.pi * radius * radius
    return 4.0 * math.pi * radius**3 / 3.0


def fold_psi(records, radius=None, volume_scale: float = 1.0) -> EmpiricalCdf:
    """Empirical CDF of (scaled) interior domain areas, within `radius` of
    the records' center when given."""
    values = np.fromiter(_interior(records, "areas", radius), np.float64) * volume_scale
    if values.size == 0:
        raise ValueError("no interior domains in the requested window; nothing to estimate")
    return EmpiricalCdf.from_values(values)


def fold_boundary(records, radius=None):
    """Perimeter CDF and the sorted joint (area, perimeter) sample of the
    interior domains, restricted like fold_psi."""
    areas = list(_interior(records, "areas", radius))
    perims = list(_interior(records, "perimeters", radius))
    if not perims:
        raise ValueError("no interior domains in the requested window; nothing to estimate")
    return EmpiricalCdf.from_values(perims), sorted(zip(areas, perims))


def fold_ns(records, radii, dim: int) -> NsEstimate:
    """Mean of N(F; R) / Vol B(R) per radius, counting the domains whose
    `dmax` is below R."""
    radii = sorted(float(r) for r in radii)
    ratios = np.empty((len(records), len(radii)))
    for i, record in enumerate(records):
        dmax = np.asarray(record["dmax"], dtype=np.float64)
        for j, radius in enumerate(radii):
            ratios[i, j] = np.count_nonzero(dmax < radius) / _ball_volume(dim, radius)
    means, errs = mean_stderr(ratios)
    return NsEstimate(
        radii=radii,
        ratio_means=means.tolist(),
        ratio_stderrs=errs.tolist(),
        pooled=float(means[-1]),
        pooled_stderr=float(errs[-1]),
    )


def fold_nodal_length(records, grid) -> tuple[float, float]:
    """Mean and stderr of total crossing length per unit grid volume."""
    return mean_stderr([r["nodal_length"] / grid.volume for r in records])


def fold_faber_krahn(records, ids, margin: float = 0.10, dim: int = 2) -> dict:
    """Minimum interior domain area against the eigenvalue-1 area floor.

    `ids` holds one (master_seed, index) per record.  A violation is an
    interior domain with area below (1 - margin) times the floor, listed as
    [master_seed, index, label, area]; `min_area` is None when no domain is
    interior.
    """
    if not (0.0 < margin < 1.0):
        raise ValueError("margin must be in (0, 1)")
    floor = faber_krahn_floor(dim)
    bound = (1.0 - margin) * floor
    min_area = None
    violations = []
    for (seed, index), record in zip(ids, records):
        for label, (area, touches) in enumerate(zip(record["areas"], record["touches"])):
            if touches:
                continue
            if min_area is None or area < min_area:
                min_area = area
            if area < bound:
                violations.append([seed, index, label, area])
    return {"floor": floor, "margin": margin, "min_area": min_area, "violations": violations}


def psi_estimate(
    decs: list[NodalDecomposition], window=None, volume_scale: float = 1.0
) -> EmpiricalCdf:
    """Empirical CDF of (scaled) interior domain areas.

    `window` is an optional (center, R) ball restriction; `volume_scale`
    multiplies areas before binning (use l(l+1) to put degree-l spherical
    areas on the planar scale).
    """
    if volume_scale <= 0:
        raise ValueError("volume scale must be positive")
    records = _records(decs, ("areas", "touches"), window)
    return fold_psi(records, None if window is None else window[1], volume_scale)


def ns_constant_estimate(
    decs: list[NodalDecomposition], radii, center=None
) -> NsEstimate:
    """Domain density: mean of N(F; R) / Vol B(R) per radius.

    The pooled estimate is the largest-radius mean (the best-converged one);
    its standard error comes from realization scatter.
    """
    _check_same_ensemble(decs)
    radii = sorted(float(r) for r in radii)
    if not radii:
        raise ValueError("need at least one radius")
    grid = decs[0].sample.grid
    if isinstance(grid, LatLongSphere):
        raise ValueError("domain density estimation runs on planar and torus grids")
    if center is None:
        center = grid.center
    for radius in radii:
        grid.require_ball(center, radius, f"ball of radius {radius}")
    records = [census_record(dec, center, ("dmax",)) for dec in decs]
    return fold_ns(records, radii, grid.dim)


def _lattice_offsets(grid, r: float):
    """Integer offsets (mi, mj) with |m h| <= r, the K strict ones
    (|m h| < r) first, then K and a bound `reach` on every |m_i|."""
    h = grid.spacing
    reach = int(math.floor(r / h)) + 1
    rng = np.arange(-reach, reach + 1)
    mi, mj = np.meshgrid(rng, rng, indexing="ij")
    norm = np.hypot(mi, mj).ravel() * h
    strict = norm < r
    keep = np.concatenate([np.flatnonzero(strict), np.flatnonzero(~strict & (norm <= r))])
    return mi.ravel()[keep], mj.ravel()[keep], int(np.count_nonzero(strict)), reach


def sandwich_check_many(
    dec: NodalDecomposition, geometries, thresholds, center=None
) -> list[SandwichVerdict]:
    """Sandwich verdicts for every (r, R) geometry and threshold t.

    One pass of ball-count gathering per geometry serves all thresholds; see
    the module docstring for how the counts are made and why the verdicts
    are exact integer statements.
    """
    grid = dec.sample.grid
    if not isinstance(grid, (PlanarWindow, Torus)) or grid.dim != 2:
        raise ValueError("sandwich checking runs on planar and 2-D torus grids")
    if center is None:
        center = grid.center
    labels = dec.labels
    n1 = labels.shape[1]
    nlab = len(dec.domains)
    # label nlab marks the padding outside a window; no threshold admits it
    node_count = np.bincount(labels.ravel(), minlength=nlab + 1)
    areas = dec.areas()
    dist = grid.node_distances(center).ravel()
    dmax = domain_distance_extrema(dec, center)[1]
    verdicts = []
    for r, R in geometries:
        if not (0.0 < r < R):
            raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
        grid.require_ball(center, R + r, f"B(center, R+r) with R+r={R + r}")
        mi, mj, K, reach = _lattice_offsets(grid, r)
        centers_idx = np.flatnonzero(dist <= R + r)
        in_lo = dist[centers_idx] <= R - r
        ci, cj = np.divmod(centers_idx, n1)
        if isinstance(grid, Torus):
            padded = np.pad(labels, reach, mode="wrap")
        else:
            padded = np.pad(labels, reach, constant_values=nlab)
        # the image the offsets reach from the centers, in local label ids
        i0, j0 = ci.min(), cj.min()
        box = padded[i0 : ci.max() + 2 * reach + 1, j0 : cj.max() + 2 * reach + 1]
        present = np.zeros(nlab + 1, dtype=bool)
        present[box] = True
        glob = np.flatnonzero(present)
        local = np.cumsum(present) - 1
        nloc = glob.size
        image = local[box].ravel()
        width = box.shape[1]
        base = (ci - i0 + reach) * width + (cj - j0 + reach)
        rows = np.arange(centers_idx.size) * nloc
        # counts[c, l]: offsets from center c whose node carries local label l
        counts = np.zeros((centers_idx.size, nloc), dtype=np.int32)
        hits = counts.reshape(-1)
        offsets = mi * width + mj
        for off in offsets[:K]:
            hits[rows + image[base + off]] += 1
        # N: the domains all of whose nodes lie in the open r-disk
        lower_cols = np.count_nonzero(counts[in_lo] == node_count[glob], axis=0)
        for off in offsets[K:]:
            hits[rows + image[base + off]] += 1
        # N*: the domains that meet the closed r-disk
        upper_cols = np.count_nonzero(counts, axis=0)
        for t in thresholds:
            ok = areas <= t
            local_ok = np.append(ok, False)[glob]
            lower_count = int(lower_cols[local_ok].sum())
            upper_count = int(upper_cols[local_ok].sum())
            middle = int(np.count_nonzero((dmax < R) & ok))
            holds = lower_count <= middle * K and middle * K <= upper_count
            verdicts.append(
                SandwichVerdict(
                    r=float(r),
                    R=float(R),
                    t=float(t),
                    lower=lower_count / K,
                    middle=middle,
                    upper=upper_count / K,
                    holds=bool(holds),
                )
            )
    return verdicts


def sandwich_check(dec: NodalDecomposition, r: float, R: float, t: float, center=None):
    return sandwich_check_many(dec, [(r, R)], [t], center=center)[0]


def faber_krahn_check(decs: list[NodalDecomposition], margin: float = 0.10):
    """Minimum interior domain area against the eigenvalue-1 area floor.

    Returns (min_area, violations); a violation is any interior domain with
    area below (1 - margin) times the floor, reported as
    (master_seed, stream_id, label, area).
    """
    records = _records(decs, ("areas", "touches"))
    ids = []
    for dec in decs:
        stream = dec.sample.stream
        ids.append((stream.master_seed, stream.stream_id) if stream else (None, None))
    fk = fold_faber_krahn(records, ids, margin, decs[0].sample.grid.dim)
    if fk["min_area"] is None:
        raise ValueError("no interior domains; minimum area undefined")
    return fk["min_area"], [tuple(v) for v in fk["violations"]]


def boundary_and_joint_distributions(decs: list[NodalDecomposition], window=None):
    """Perimeter CDF and the joint (area, perimeter) sample, interior domains
    only, optionally restricted to a (center, R) ball like psi_estimate."""
    records = _records(decs, ("areas", "perimeters", "touches"), window)
    return fold_boundary(records, None if window is None else window[1])


def ks_distance(a: EmpiricalCdf, b: EmpiricalCdf) -> float:
    """Sup-distance between two step CDFs over their merged breakpoints."""
    if a.total_count == 0 or b.total_count == 0:
        raise ValueError("empty CDF")
    merged = np.union1d(a.breakpoints, b.breakpoints)
    return float(np.max(np.abs(a.evaluate(merged) - b.evaluate(merged))))


def nodal_length_density(decs: list[NodalDecomposition]) -> tuple[float, float]:
    """Mean and stderr of total crossing length per unit area."""
    return fold_nodal_length(_records(decs, ("nodal_length",)), decs[0].sample.grid)
