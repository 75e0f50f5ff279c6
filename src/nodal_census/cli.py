"""Command-line surface: sampling, decomposition, and ensemble statistics.

Length-like flag values use a pi-rational grammar ("40pi", "2pi/10", "pi/4",
plain decimals, "inf"), so configs stay exact in the natural units.  Exit
codes: 0 success, 2 invalid usage or config, 3 ensemble/runtime failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from .engine import (
    EnsembleConfig,
    EnsembleFailure,
    hash_config,
    run_ensemble,
    resume_ensemble,
)
from .grids import LatLongSphere, PlanarWindow, Torus
from .io import (
    canonical_json,
    domain_table_csv,
    json_object,
    json_text,
    load_field,
    psi_csv,
    read_json,
    sandwich_csv,
    write_field,
    write_json,
    write_text,
)
from .nodal import label_domains
from .sampler import (
    BandLimitedTorus,
    PlaneWave2D,
    RngStream,
    SphericalHarmonic,
    sample_field,
)
from .stats import EmpiricalCdf, fold_faber_krahn, fold_psi, ks_distance, sandwich_check_many
from .svg import step_plot_svg

__all__ = ["main", "parse_length"]

_PI_RE = re.compile(
    r"^(?P<coef>\d+(?:\.\d+)?)?(?P<pi>pi)?(?:/(?P<div>\d+(?:\.\d+)?))?$"
)


class UsageError(Exception):
    """Flag/config validation problem: maps to exit code 2."""


def parse_length(token: str) -> float:
    """Parse "40pi", "2pi/10", "pi/4", "0.5", "inf" to a float."""
    tok = token.strip().lower().replace(" ", "")
    if tok in ("inf", "infinity"):
        return math.inf
    m = _PI_RE.match(tok)
    if not m or (m.group("coef") is None and m.group("pi") is None):
        raise argparse.ArgumentTypeError(f"cannot parse length {token!r}")
    value = float(m.group("coef")) if m.group("coef") else 1.0
    if m.group("pi"):
        value *= math.pi
    if m.group("div"):
        div = float(m.group("div"))
        if div == 0:
            raise argparse.ArgumentTypeError(f"zero divisor in {token!r}")
        value /= div
    return value


def _length_list(token: str) -> tuple:
    return tuple(parse_length(part) for part in token.split(",") if part)


def _emit(args, summary: dict, human_lines) -> None:
    if getattr(args, "json", False):
        print(json_text(summary))
    else:
        for line in human_lines:
            print(line)


def _build_model(args):
    if args.model == "rpw":
        return PlaneWave2D()
    if args.model == "torus":
        return BandLimitedTorus(dim=args.dim, alpha=args.alpha)
    if args.model == "sphere":
        if args.degree is None:
            raise UsageError("--degree is required for the sphere model")
        return SphericalHarmonic(degree=args.degree)
    raise UsageError(f"unknown model {args.model!r}")


def _build_grid(args, model, default_window: float | None = None):
    if isinstance(model, SphericalHarmonic):
        # ~10 nodes per wavelength at degree l, matching the default planar h.
        n_lat = args.nlat if args.nlat else max(5 * model.degree, 8)
        n_lon = args.nlon if args.nlon else max(10 * model.degree, 16)
        return LatLongSphere(n_lat=n_lat, n_lon=n_lon)
    window = args.window if args.window is not None else default_window
    if window is None:
        raise UsageError("--window is required (e.g. --window 40pi)")
    spacing = args.h if args.h is not None else parse_length("2pi/10")
    if isinstance(model, BandLimitedTorus):
        return Torus(side=window, spacing=spacing, dim=model.dim)
    return PlanarWindow(side=window, spacing=spacing)


def _ensemble_config(args, radii=(), default_window: float | None = None) -> EnsembleConfig:
    if args.config:
        d = read_json(args.config)
        cfg = EnsembleConfig.from_dict(d, where=args.config)
        if args.M is not None:
            cfg.realizations = args.M
        if args.seed is not None:
            cfg.master_seed = args.seed
        if radii and not cfg.radii:
            cfg.radii = tuple(radii)
    else:
        model = _build_model(args)
        grid = _build_grid(args, model, default_window=default_window)
        cfg = EnsembleConfig(
            model=model,
            grid=grid,
            realizations=args.M if args.M is not None else 1,
            master_seed=args.seed if args.seed is not None else 0,
            radii=tuple(radii),
        )
    cfg.output_dir = args.out or cfg.output_dir or f"ncrun-{cfg.config_hash()[:12]}"
    return cfg


def _single_sample(args, default_window: float | None = None):
    if getattr(args, "infile", None):
        return load_field(args.infile)
    model = _build_model(args)
    grid = _build_grid(args, model, default_window=default_window)
    stream = RngStream(args.seed if args.seed is not None else 0, args.index)
    return sample_field(model, grid, stream)


def cmd_sample(args) -> int:
    if not args.out:
        raise UsageError("--out is required (path of the field container)")
    sample = _single_sample(args)
    write_field(sample, args.out)
    summary = {
        "out": args.out,
        "shape": list(sample.values.shape),
        "model": sample.model.to_dict(),
        "master_seed": sample.stream.master_seed,
        "index": sample.stream.stream_id,
    }
    _emit(args, summary, [f"wrote {args.out} ({'x'.join(map(str, sample.values.shape))} nodes)"])
    return 0


def cmd_nodal(args) -> int:
    if not args.infile:
        raise UsageError("--in is required (a saved field container)")
    sample = load_field(args.infile)
    dec = label_domains(sample)
    csv_text = domain_table_csv(dec)
    if args.out:
        write_text(args.out, csv_text)
    summary = {
        "in": args.infile,
        "out": args.out,
        "n_domains": dec.n_domains,
        "interior": sum(not d.touches_window for d in dec.domains),
    }
    human = [f"{dec.n_domains} domains ({summary['interior']} interior)"]
    if args.out:
        human.append(f"wrote {args.out}")
    elif not args.json:
        human = [csv_text.rstrip("\n")]
    _emit(args, summary, human)
    return 0


def cmd_psi(args) -> int:
    cfg = _ensemble_config(args)
    rep = run_ensemble(cfg)
    outdir = rep.output_dir
    if args.format != "csv-only":
        write_text(outdir / "psi.svg", step_plot_svg(rep.psi))
    summary = {
        "out": str(outdir),
        "realizations": rep.report["realizations_completed"],
        "domains": rep.psi.total_count,
        "min_area": float(rep.psi.breakpoints[0]),
        "max_area": float(rep.psi.breakpoints[-1]),
        "largest_jump": rep.report["psi"]["largest_jump"],
    }
    human = [
        f"psi over {rep.psi.total_count} interior domains "
        f"({rep.report['realizations_completed']} realizations)",
        f"area range [{summary['min_area']:.6g}, {summary['max_area']:.6g}]",
        f"wrote {outdir}/psi.csv" + ("" if args.format == "csv-only" else f" and {outdir}/psi.svg"),
    ]
    _emit(args, summary, human)
    return 0


def cmd_ns(args) -> int:
    radii = args.radii if args.radii else (10.0, 15.0, 20.0)
    cfg = _ensemble_config(args, radii=radii)
    rep = run_ensemble(cfg)
    summary = dict(rep.ns.to_dict(), out=str(rep.output_dir))
    human = [
        f"R={r:g}: {m:.6f} +- {e:.6f}"
        for r, m, e in zip(rep.ns.radii, rep.ns.ratio_means, rep.ns.ratio_stderrs)
    ]
    human.append(f"pooled density {rep.ns.pooled:.6f} +- {rep.ns.pooled_stderr:.6f}")
    human.append(f"wrote {rep.output_dir}/ns.csv")
    _emit(args, summary, human)
    return 0


DESK_WINDOW = "40pi"


def cmd_sandwich(args) -> int:
    sample = _single_sample(args, default_window=parse_length(DESK_WINDOW))
    dec = label_domains(sample)
    thresholds = args.t if args.t else (math.inf,)
    verdicts = sandwich_check_many(dec, [(args.r, args.R)], thresholds)
    csv_text = sandwich_csv(verdicts)
    if args.out:
        write_text(args.out, csv_text)
    summary = {"verdicts": [v.to_dict() for v in verdicts], "out": args.out}
    human = [
        f"r={v.r:g} R={v.R:g} t={v.t:g}: {v.lower:.4f} <= {v.middle} <= {v.upper:.4f}"
        f" holds={'true' if v.holds else 'false'}"
        for v in verdicts
    ]
    if args.out:
        human.append(f"wrote {args.out}")
    _emit(args, summary, human)
    return 0


def cmd_faber_krahn(args) -> int:
    if not (0.0 < args.margin < 1.0):
        raise UsageError("--margin must be in (0, 1)")
    cfg = _ensemble_config(args, default_window=parse_length(DESK_WINDOW))
    if not isinstance(cfg.grid, PlanarWindow):
        raise UsageError("the minimum-area check runs on planar windows (--model rpw)")
    rep = run_ensemble(cfg)
    ids = [(cfg.master_seed, r["index"]) for r in rep.records]
    fk = fold_faber_krahn(rep.records, ids, args.margin)
    min_area, floor = fk["min_area"], fk["floor"]
    bound = (1.0 - args.margin) * floor
    summary = dict(
        fk,
        bound=bound,
        realizations=rep.report["realizations_completed"],
        out=str(rep.output_dir),
    )
    if min_area is None:
        human = ["no interior domains observed"]
    else:
        human = [
            f"minimum interior area {min_area:.6f} (floor {floor:.6f}, bound {bound:.6f})",
            f"violations: {len(fk['violations'])}",
        ]
    _emit(args, summary, human)
    return 0


def cmd_sphere_compare(args) -> int:
    if args.degree is None:
        raise UsageError("--degree is required")
    if not args.planar_report:
        raise UsageError("--planar-report is required (a planar run directory or report.json)")
    planar_path = Path(args.planar_report)
    if planar_path.is_dir():
        planar_path = planar_path / "report.json"
    planar = json_object(read_json(planar_path), planar_path, "config", "psi")
    stored = planar.get("config_hash")
    recomputed = hash_config(planar["config"])
    hash_ok = stored == recomputed
    if not hash_ok:
        print(
            f"warning: planar report config hash {stored} does not match its config "
            f"(expected {recomputed}); comparing anyway",
            file=sys.stderr,
        )
    planar_cdf = EmpiricalCdf.from_dict(planar["psi"], f"{planar_path}: psi")
    model = SphericalHarmonic(degree=args.degree)
    grid = _build_grid(args, model)
    cfg = EnsembleConfig(
        model=model,
        grid=grid,
        realizations=args.M if args.M is not None else 50,
        master_seed=args.seed if args.seed is not None else 0,
    )
    cfg.output_dir = args.out or f"ncrun-{cfg.config_hash()[:12]}"
    rep = run_ensemble(cfg)
    scale = args.degree * (args.degree + 1)
    sphere_cdf = fold_psi(rep.records, None, scale)
    ks = ks_distance(sphere_cdf, planar_cdf)
    write_text(rep.output_dir / "sphere-psi.csv",
               psi_csv(sphere_cdf.breakpoints, sphere_cdf.fractions, sphere_cdf.stderr))
    comparison = {
        "ks_distance": ks,
        "degree": args.degree,
        "volume_scale": scale,
        "sphere_breakpoints": len(sphere_cdf.breakpoints),
        "planar_breakpoints": len(planar_cdf.breakpoints),
        "planar_report": str(planar_path),
        "planar_hash_ok": hash_ok,
    }
    write_json(rep.output_dir / "comparison.json", comparison)
    summary = dict(comparison, out=str(rep.output_dir))
    human = [
        f"KS distance {ks:.4f} (sphere {len(sphere_cdf.breakpoints)} breakpoints, "
        f"planar {len(planar_cdf.breakpoints)})",
        f"wrote {rep.output_dir}/sphere-psi.csv and {rep.output_dir}/comparison.json",
    ]
    _emit(args, summary, human)
    return 0


def cmd_report(args) -> int:
    rundir = Path(args.dir)
    manifest_path = rundir / "manifest.json"
    if not manifest_path.exists():
        raise UsageError(f"{rundir} has no manifest.json")
    manifest = json_object(read_json(manifest_path), manifest_path, "config")
    cfg = EnsembleConfig.from_dict(manifest["config"], str(rundir), f"{manifest_path}: config")
    rep = resume_ensemble(cfg, rundir)
    checks = rep.report["checks"]
    human = [
        f"realizations: {rep.report['realizations_completed']} "
        f"(failures: {len(rep.report['failures'])})",
        f"psi: {rep.psi.total_count} domains, "
        f"area range [{rep.psi.breakpoints[0]:.6g}, {rep.psi.breakpoints[-1]:.6g}]",
    ]
    if rep.ns is not None:
        human.append(f"pooled density {rep.ns.pooled:.6f} +- {rep.ns.pooled_stderr:.6f}")
    for name, body in sorted(checks.items()):
        human.append(f"check {name}: {canonical_json(body)}")
    human.append(f"report: {rundir}/report.json")
    _emit(args, rep.report, human)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--out", default=None, help="output path or directory")
    p.add_argument("--json", action="store_true", help="print a JSON summary to stdout")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("rpw", "torus", "sphere"), default="rpw",
                   help="field model (default rpw)")
    p.add_argument("--window", type=parse_length, default=None,
                   help="window/torus side, pi grammar (e.g. 40pi)")
    p.add_argument("--h", type=parse_length, default=None,
                   help="grid spacing, pi grammar (default 2pi/10)")
    p.add_argument("--dim", type=int, choices=(2, 3), default=2, help="torus dimension")
    p.add_argument("--alpha", type=float, default=1.0, help="torus band lower edge")
    p.add_argument("--degree", type=int, default=None, help="spherical harmonic degree")
    p.add_argument("--nlat", type=int, default=None, help="sphere latitude rows")
    p.add_argument("--nlon", type=int, default=None, help="sphere longitude columns")


def _add_ensemble_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON ensemble config file")
    p.add_argument("--M", type=int, default=None, help="number of realizations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodal-census",
        description="Monte Carlo census of nodal domains of Gaussian random waves",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("sample", help="draw one field realization to a container file")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--index", type=int, default=0, help="realization stream index")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("nodal", help="decompose a saved field into a domain table")
    _add_common(p)
    p.add_argument("--in", dest="infile", default=None, help="field container path")
    p.set_defaults(func=cmd_nodal)

    p = sub.add_parser("psi", help="empirical domain-area CDF over an ensemble")
    _add_model_flags(p)
    _add_ensemble_flags(p)
    _add_common(p)
    p.add_argument("--format", choices=("full", "csv-only"), default="full",
                   help="csv-only suppresses the SVG plot")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("ns", help="domain density per unit ball volume")
    _add_model_flags(p)
    _add_ensemble_flags(p)
    _add_common(p)
    p.add_argument("--radii", type=_length_list, default=None,
                   help="comma-separated ball radii (default 10,15,20)")
    p.set_defaults(func=cmd_ns)

    p = sub.add_parser("sandwich", help="integral-geometric count bounds on one sample")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--in", dest="infile", default=None, help="field container path")
    p.add_argument("--index", type=int, default=0, help="realization stream index")
    p.add_argument("--r", type=parse_length, required=True, help="averaging ball radius")
    p.add_argument("--R", type=parse_length, required=True, help="counting ball radius")
    p.add_argument("--t", type=_length_list, default=None,
                   help="comma-separated area thresholds (default inf)")
    p.set_defaults(func=cmd_sandwich)

    p = sub.add_parser("faber-krahn", help="minimum interior domain area vs the floor")
    _add_model_flags(p)
    _add_ensemble_flags(p)
    _add_common(p)
    p.add_argument("--margin", type=float, default=0.10,
                   help="relative grid-bias margin below the floor (default 0.1)")
    p.set_defaults(func=cmd_faber_krahn)

    p = sub.add_parser("sphere-compare",
                       help="spherical ensemble CDF vs a planar report, KS distance")
    _add_model_flags(p)
    p.add_argument("--M", type=int, default=None, help="number of realizations")
    _add_common(p)
    p.add_argument("--planar-report", default=None,
                   help="planar run directory or report.json path")
    p.set_defaults(func=cmd_sphere_compare)

    p = sub.add_parser("report", help="re-aggregate a run directory into its report")
    _add_common(p)
    p.add_argument("--dir", required=True, help="run directory with manifest.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnsembleFailure as exc:
        print(f"ensemble failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
