#!/usr/bin/env python3
"""Census benchmark: one workload through the public API of nodal_census.

    python3 perfbench/run.py --workload desk-census --seed 7 --seconds 20 --trace 0

Run from anywhere inside a checkout; the sources are found next to this
directory.  With --trace 0 the run measures the end-to-end metrics
untraced; with --trace 1 it makes the traced serial pass and reports the
per-layer metrics.  Every run checks the program's outputs.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; machine facts and further readings come on the lines
before it.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One engine thread and one BLAS thread.  Two engine threads measured with
# twice the run-to-run spread on a shared 2-core host, and engine threads x
# BLAS threads must stay within the cores.  BLAS reads this when numpy loads.
ENGINE_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NODAL_CENSUS_THREADS"] = str(ENGINE_THREADS)

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 5
FRESH_SHARE = 0.8  # of --seconds for fresh realizations; the rest times the report
MIN_REPORTS = 3
BLOCK_S = 0.5  # library calls are timed in blocks of about this long
FOLD_BLOCK_S = 0.05  # a library fold is timed in blocks at least this long

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import nodal_census
sys.path.insert(0, sys.argv[1])
import workloads
workloads.build_tables(workloads.spec(sys.argv[2], sys.argv[3]))
print(repr(time.perf_counter() - t0))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype = ctypes.c_int
                facts["threads"] = getter()
                return facts
    return facts


def machine_facts(np) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(np),
        "NODAL_CENSUS_THREADS": os.environ["NODAL_CENSUS_THREADS"],
    }


class Tally:
    """Operations attempted and failed; each failure is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}")


def check_digest(spec, seed: int, digest: str, tally: Tally) -> None:
    """Compare a default-seed run's digest with the stored one."""
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return
    expected = json.loads(DIGESTS.read_text()).get(spec.size, {}).get(spec.name)
    tally.check(digest == expected, f"{spec.name} digest {digest}, stored {expected}")


def more(n: int, minimum: int, start: float, seconds: float) -> bool:
    """True until `minimum` items are done and one more, at the mean cost so
    far, would end past `seconds`."""
    if n < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (n + 1) / n <= seconds


def measure_setup(spec, clock) -> tuple[float, float]:
    """Median time of import plus per-grid tables, each in a fresh process:
    (scaled, wall)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH), spec.name, spec.size],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        walls.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(clock.scale(walls[-1]))
    return statistics.median(scaled), statistics.median(walls)


def fresh_run(spec, master: int, outdir: Path, tally: Tally) -> float:
    """One run_ensemble call.  Realizations the report lists as failed, and
    sidecars whose checksum misses their CSV, count as failed."""
    from checks import sidecar_status
    from nodal_census import run_ensemble

    start = time.perf_counter()
    result = run_ensemble(spec.config(master, outdir))
    wall = time.perf_counter() - start
    tally.attempted += spec.batch
    tally.failed += len(result.report["failures"])
    for path, ok in sidecar_status(outdir, spec.batch):
        tally.check(ok, f"{path}: csv_sha256 does not match the CSV")
    return wall


def engine_end_to_end(spec, seed, seconds, work, tally, clock) -> tuple[dict, dict]:
    from checks import export_names, run_digest, without_timing
    from nodal_census import resume_ensemble
    from workloads import master_seed

    walls, scaled, dirs = [], [], []
    start = time.perf_counter()
    while more(len(walls), 1, start, FRESH_SHARE * seconds):
        k = len(walls)
        outdir = work / f"ens{k:03d}"
        walls.append(fresh_run(spec, master_seed(seed, k), outdir, tally))
        scaled.append(clock.scale(walls[-1]))
        dirs.append((master_seed(seed, k), outdir))
        if k == 0:
            check_digest(spec, seed, run_digest(outdir), tally)

    resumes, resumes_scaled = [], []
    report_start = time.perf_counter()
    while more(len(resumes), MIN_REPORTS, report_start, seconds - (report_start - start)):
        master, outdir = dirs[len(resumes) % len(dirs)]
        exports = {name: (outdir / name).read_bytes() for name in export_names(outdir)}
        report = without_timing(outdir / "report.json")
        t0 = time.perf_counter()
        resume_ensemble(spec.config(master, outdir), outdir)
        resumes.append(time.perf_counter() - t0)
        resumes_scaled.append(clock.scale(resumes[-1]))
        same = without_timing(outdir / "report.json") == report and all(
            (outdir / name).read_bytes() == data for name, data in exports.items()
        )
        tally.check(same, f"{outdir}: the resumed report or exports differ from the fresh run")

    metrics = {
        "realizations_per_s": statistics.median(spec.batch / t for t in scaled),
        "report_s": statistics.median(resumes_scaled),
    }
    extra = {
        "ensembles": len(walls),
        "resumes": len(resumes),
        "wall_realizations_per_s": statistics.median(spec.batch / t for t in walls),
        "wall_report_s": statistics.median(resumes),
    }
    return metrics, extra


def fold(decs) -> None:
    """The library-path report: psi, boundary lengths and nodal length."""
    from nodal_census import boundary_and_joint_distributions, nodal_length_density, psi_estimate

    psi_estimate(decs)
    boundary_and_joint_distributions(decs)
    nodal_length_density(decs)


def fold_seconds(decs, seconds: float, clock) -> tuple[float, float]:
    """Median time of one fold, timed in blocks long enough to read steadily:
    (scaled, wall)."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fold(decs)
        block = time.perf_counter() - t0
        if block >= FOLD_BLOCK_S:
            break
        reps *= 2
    walls, scaled = [], []
    start = time.perf_counter()
    while more(len(walls), MIN_REPORTS, start, seconds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fold(decs)
        walls.append((time.perf_counter() - t0) / reps)
        scaled.append(clock.scale(walls[-1]))
    return statistics.median(scaled), statistics.median(walls)


def library_end_to_end(spec, seed, seconds, tally, clock) -> tuple[dict, dict]:
    """Library calls: exactly `spec.calls` inputs where the workload fixes
    their number, else as many as fit in the fresh share of `seconds`."""
    from checks import library_digest, library_ok
    from tracing import NullTracer, library_call
    from workloads import library_source

    source = library_source(spec, seed)
    null = NullTracer()
    times, kept, rates, wall_rates = [], [], [], []
    calls, spent = 0, 0.0  # the open block
    start = time.perf_counter()

    def go_on(n: int) -> bool:
        if spec.calls:
            return n < spec.calls
        return more(n, spec.batch, start, FRESH_SHARE * seconds)

    while go_on(len(times)):
        n = len(times)
        t0 = time.perf_counter()
        dec = library_call(spec, source(n), null)
        times.append(time.perf_counter() - t0)
        calls, spent = calls + 1, spent + times[-1]
        tally.check(library_ok(dec), f"{spec.name} input {n}")
        if n < spec.batch:
            kept.append(dec)
        del dec  # so the next realization does not share the peak with this one
        if spent >= BLOCK_S:
            rates.append(calls / clock.scale(spent))
            wall_rates.append(calls / spent)
            calls, spent = 0, 0.0
    if not rates:
        rates.append(calls / clock.scale(spent))
        wall_rates.append(calls / spent)

    check_digest(spec, seed, library_digest(kept), tally)
    report_s, wall_report_s = fold_seconds(kept, seconds - (time.perf_counter() - start), clock)
    metrics = {"realizations_per_s": statistics.median(rates), "report_s": report_s}
    extra = {
        "calls": len(times),
        "call_p50_us": statistics.median(times) * 1e6,
        "wall_realizations_per_s": statistics.median(wall_rates),
        "wall_report_s": wall_report_s,
    }
    if len(times) >= 1000:  # at least ten calls beyond p99
        extra["call_p99_us"] = statistics.quantiles(times, n=100)[98] * 1e6
    return metrics, extra


def end_to_end(spec, seed, seconds, work, tally) -> tuple[dict, dict]:
    """End-to-end metrics, their times scaled to the calibration speed; the
    wall-clock readings come back as extras."""
    from calibrate import Clock

    clock = Clock()
    setup, wall_setup = measure_setup(spec, clock)
    if spec.engine:
        metrics, extra = engine_end_to_end(spec, seed, seconds, work, tally, clock)
    else:
        metrics, extra = library_end_to_end(spec, seed, seconds, tally, clock)
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra["wall_setup_s"] = wall_setup
    extra["calibration_loop_ms"] = statistics.median(clock.loops) * 1e3
    return metrics, extra


def pct(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tr, realization_ms: float, realizations: int) -> dict:
    """Per-layer readings from the traced spans.

    Per-call times are span durations.  A realization's time splits into
    the layers' self times, summed over every span and divided by the
    realizations traced (so work the engine does once per run is shared
    out), and the engine's share: `realization_ms` minus the layers.
    """
    from tracing import LAYERS

    durations: dict[str, list[float]] = {}
    layer = dict.fromkeys(LAYERS, 0.0)
    for span, ms in zip(tr.spans, tr.self_ms()):
        durations.setdefault(span[0], []).append((span[2] - span[1]) / 1e6)
        layer[span[0].split(".")[0]] += ms / realizations
    layer_sum = sum(ms for ly, ms in layer.items() if ly != "engine")

    def p(name, q):
        return pct(durations[name], q) if name in durations else 0.0

    return {
        "sampler.sample_ms_p50": p("sampler.sample", 0.5),
        "sampler.sample_ms_p90": p("sampler.sample", 0.9),
        "sampler.helmholtz_ms": p("sampler.helmholtz", 0.5),
        "sampler.covariance_ms": p("sampler.covariance", 0.5),
        "nodal.label_ms_p50": p("nodal.label", 0.5),
        "nodal.label_ms_p90": p("nodal.label", 0.9),
        "nodal.measure_ms_p50": p("nodal.measure", 0.5),
        "nodal.measure_ms_p90": p("nodal.measure", 0.9),
        "nodal.perturbation_ms": p("nodal.perturbation", 0.5),  # per b value
        "stats.sandwich_ms": p("stats.sandwich", 0.5),
        "stats.sandwich_keys": tr.sandwich_keys / realizations,
        "stats.sandwich_key_bytes": tr.sandwich_key_bytes / realizations,
        "io.table_csv_ms": p("io.table_csv", 0.5),
        "sampler.self_ms": layer["sampler"],
        "nodal.self_ms": layer["nodal"],
        "stats.self_ms": layer["stats"],
        "io.self_ms": layer["io"],
        "engine.realization_ms": realization_ms,
        "engine.self_ms": realization_ms - layer_sum,
        "engine.efficiency": layer_sum / realization_ms,
    }


def timed_tables(spec) -> float:
    """Median build time in ms of the per-grid table."""
    from workloads import build_tables

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        build_tables(spec)
        builds.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(builds)


def engine_traced(spec, seed, seconds, work, tr, tally) -> tuple[dict, list, list]:
    """Pairs of run_ensemble calls on ensemble 0: one untraced, one with the
    engine's layer calls span-wrapped.  The traced run must write what the
    untraced one wrote."""
    from checks import run_digest
    from tracing import traced_engine, work_counts
    from workloads import master_seed

    basis_ms = timed_tables(spec)
    master = master_seed(seed, 0)
    walls, ratios, counts = [], [], []
    start = time.perf_counter()
    while more(len(walls), 1, start, seconds):
        k = len(walls)
        plain, traced_dir = work / f"plain{k:03d}", work / f"traced{k:03d}"
        walls.append(fresh_run(spec, master, plain, tally))
        digest = run_digest(plain)
        tr.run = k
        tr.capture = {"nodal.label"} if k == 0 else set()
        with traced_engine(tr) as missing:
            ratios.append(fresh_run(spec, master, traced_dir, tally) / walls[-1])
        tally.check(run_digest(traced_dir) == digest, f"{traced_dir}: the traced run's outputs differ")
        if k == 0:
            check_digest(spec, seed, digest, tally)
            if len(tr.captured) != spec.batch:
                raise RuntimeError(f"traced {len(tr.captured)} label calls for {spec.batch} realizations")
            for i, dec in enumerate(tr.captured):
                files = [traced_dir / "realizations" / f"{i:05d}.{ext}" for ext in ("csv", "json")]
                written = {"io.bytes_written": sum(f.stat().st_size for f in files)}
                counts.append(dict(work_counts(dec.sample.values, spec.grid, dec.n_domains), **written))
            tr.captured = []
        shutil.rmtree(plain)
        shutil.rmtree(traced_dir)
    if missing:
        print("not traced, missing from nodal_census.engine: " + ", ".join(missing))
    realization_ms = ENGINE_THREADS * statistics.fmean(walls) * 1e3 / spec.batch
    metrics = layer_metrics(tr, realization_ms, spec.batch * len(walls))
    metrics["sampler.basis_ms"] = basis_ms
    return metrics, counts, ratios


def library_traced(spec, seed, seconds, tr, tally) -> tuple[dict, list, list]:
    """The first `batch` inputs, cycled, each once untraced and once traced.
    There is no engine here: a realization is the traced call, and the glue
    inside it is the engine's share."""
    from checks import library_ok
    from tracing import NullTracer, library_call, work_counts
    from workloads import library_source

    basis_ms = timed_tables(spec) if spec.model is not None else 0.0
    source = library_source(spec, seed)
    null = NullTracer()
    counts, ratios = [], []
    start = time.perf_counter()
    while more(len(ratios), spec.batch, start, seconds):
        n = len(ratios)
        src = source(n % spec.batch)
        t0 = time.perf_counter_ns()
        library_call(spec, src, null)
        t1 = time.perf_counter_ns()
        tr.realization = n
        dec = library_call(spec, src, tr)
        ratios.append((time.perf_counter_ns() - t1) / (t1 - t0))
        if n < spec.batch:
            tally.check(library_ok(dec), f"{spec.name} input {n}")
            counts.append(work_counts(dec.sample.values, spec.grid, dec.n_domains))
            counts[-1]["io.bytes_written"] = 0  # the library path writes no files
        del dec
    roots = [(span[2] - span[1]) / 1e6 for span in tr.spans if span[0] == "engine.realization"]
    metrics = layer_metrics(tr, statistics.fmean(roots), len(roots))
    metrics["sampler.basis_ms"] = basis_ms
    return metrics, counts, ratios


def traced(spec, seed, seconds, work, tally) -> dict:
    """Per-layer metrics.  Work counts are means over the first `batch`
    realizations, which every run with the same seed repeats exactly; the
    tracing overhead is the median traced/untraced ratio of paired runs."""
    from tracing import Tracer

    tr = Tracer()
    if spec.engine:
        metrics, counts, ratios = engine_traced(spec, seed, seconds, work, tr, tally)
    else:
        metrics, counts, ratios = library_traced(spec, seed, seconds, tr, tally)
    tr.write(WORK / "spans" / f"{spec.name}-{spec.size}-seed{seed}.jsonl")
    for name in counts[0]:
        metrics[name] = statistics.fmean(c[name] for c in counts)
    metrics["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "nodal_census" / "__init__.py").is_file():
        print(f"no nodal_census sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import numpy as np
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    spec = workloads.spec(args.workload, args.size)
    print("machine " + json.dumps(machine_facts(np), sort_keys=True))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    tally = Tally()
    work = WORK / f"{spec.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            values, extra = traced(spec, seed, args.seconds, work, tally), {}
        else:
            values, extra = end_to_end(spec, seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    for name, value in sorted(extra.items()):
        print(f"{name} = {value!r}")
    for name in sorted(values):
        print(f"{name} = {values[name]!r} {units[name]}")
    print(f"failed_fraction = {tally.failed / max(tally.attempted, 1)!r}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
