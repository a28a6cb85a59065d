#!/usr/bin/env python3
"""Run one semimo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload snr_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from its ``src``
directory, never from an installed copy. Workloads are ``snr_sweep``,
``csi_sweep`` and ``image_transport`` (see perfbench/README.md).

With ``--trace 0`` the run measures the end-to-end metrics: set-up time (the
median of fresh interpreters started between operations), the median wall time of the
workload's blocking operation and the peak resident memory. With
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics from the traced ones. Either way, every operation's output
is checked, a JSON report with the host block goes to standard output, and
the last line is the result object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits 2 if the checkout holds no ``src/semimo``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BLAS threads for the workload process and its set-up probes: the plain
# single-threaded baseline, and at most one busy core on a shared host.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up probes per untraced run, spread evenly over the run so that set-up
# time samples the same stretch of host speed as the timed operations.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"
# The named layers' self times, plus the sweep's own Python glue, must
# account for the traced operations' wall time; and the glue must stay small,
# so that time moved out of the wrapped functions shows as a failure.
ACCOUNTED_MIN = 0.95
SWEEP_GLUE_MAX = 0.25
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("snr_sweep", "csi_sweep", "image_transport"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------- statistics


def summarize(values, unit: str) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for q in TAIL_PERCENTILES:
        rank = max(math.ceil(q / 100.0 * n) - 1, 0)
        if n - rank - 1 >= 10:
            tail = {"percentile": q, "value": ordered[rank]}
            break
    return {"value": statistics.median(ordered), "unit": unit, "n": n, "tail": tail}


def throughput(frame_seconds, size: int) -> dict:
    """Payload Mbit/s (8*W*H bits per frame); the tail is the slow one."""
    bits = 8 * size * size
    stats = summarize(frame_seconds, "Mbit/s")
    stats["value"] = bits / 1e6 / statistics.median(frame_seconds)
    if stats["tail"] is not None:
        stats["tail"]["value"] = bits / 1e6 / stats["tail"]["value"]
    return stats


# ---------------------------------------------------------------- host block


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps.splitlines()
                        if "openblas" in line.lower() and ".so" in line})
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return int(getter())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_block() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_reported": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------- set-up time


def probe_setup(workload: str, seed: int, workdir: Path, outcome) -> None:
    """Time one fresh interpreter from start to ready; a failure is a failed operation."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:  # run() has killed the probe and waited for it
        outcome.record("set-up probe", [f"no result within {PROBE_TIMEOUT_S} s"])
        return
    try:
        ready_at = float(proc.stdout.split()[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        ready_at = None
    if ready_at is None:
        outcome.record("set-up probe", [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
    else:
        outcome.add("setup_s", ready_at - started)
        outcome.record("set-up probe", [])


# ---------------------------------------------------------------- per-layer metrics


def layer_metrics(tracer, outcome, traced_walls, untraced_op, traced_op, trials: int):
    """Per-layer metrics from the traced operations' spans and counters."""
    spans = tracer.measured()
    op_roots = {"sweeps.run", "bench.image"}
    in_ops = [s for s in spans if s[3] in op_roots]
    units = sum(1 for s in in_ops if s[0] in op_roots) or 1  # sweeps, or images
    wall = sum(traced_walls)

    def mean_time(name, scale):  # mean inclusive time per call, set-up included
        times = [s[1] for s in spans if s[0] == name]
        return statistics.fmean(times) * scale if times else 0.0

    def calls(name):
        return sum(1 for s in in_ops if s[0] == name)

    def self_time(prefix):
        return sum(s[2] for s in in_ops if s[0] == prefix or s[0].startswith(prefix + "."))

    frames = tracer.counts["transceiver.frames"]
    frame_time = sum(s[1] for s in in_ops if s[0] == "transceiver.frame")
    frame_self = [s[2] for s in spans if s[0] == "transceiver.frame"]
    oracle_calls = calls("link.oracle")
    useful_cells = sum(outcome.samples.get("traced:oracle_csv_cells", []))
    ms, us = 1e3, 1e6
    metrics = {
        "channel.draw_us": (mean_time("channel.draw", us), "us"),
        "channel.draws": (calls("channel.draw") / units, "count"),
        "channel.share": (self_time("channel") / wall, "frac"),
        "precoding.mf_us": (mean_time("precoding.mf", us), "us"),
        "precoding.zf_us": (mean_time("precoding.zf", us), "us"),
        "precoding.builds": ((calls("precoding.mf") + calls("precoding.zf")) / units, "count"),
        "precoding.rejects": (tracer.counts["precoding.rejects"], "count"),
        "precoding.share": (self_time("precoding") / wall, "frac"),
        "link.budget_us": (mean_time("link.budget", us), "us"),
        "link.ber_us": (mean_time("link.ber", us), "us"),
        "link.oracle_ms": (mean_time("link.oracle", ms), "ms"),
        "link.oracle_calls": (oracle_calls / units, "count"),
        "link.oracle_draws": (tracer.counts["link.oracle_draws"] / units, "count"),
        "link.oracle_share": (self_time("link.oracle") / wall, "frac"),
        "link.oracle_useful_frac": (useful_cells * trials / oracle_calls if oracle_calls else 0.0, "frac"),
        "link.share": (self_time("link") / wall, "frac"),
        "transceiver.split_ms": (mean_time("transceiver.split", ms), "ms"),
        "transceiver.frame_ms": (mean_time("transceiver.frame", ms), "ms"),
        "transceiver.modulate_us": (mean_time("transceiver.modulate", us), "us"),
        "transceiver.demodulate_us": (mean_time("transceiver.demodulate", us), "us"),
        "transceiver.frame_self_ms": (statistics.fmean(frame_self) * ms if frame_self else 0.0, "ms"),
        "transceiver.symbols": (tracer.counts["transceiver.symbols"] / units, "count"),
        "transceiver.ns_per_symbol": (
            frame_time / tracer.counts["transceiver.symbols"] * 1e9 if frames else 0.0, "ns"),
        "transceiver.computed_bytes": (
            tracer.counts["transceiver.computed_bytes"] / frames if frames else 0.0, "B"),
        "transceiver.share": (self_time("transceiver") / wall, "frac"),
        "inference.apply_us": (mean_time("inference.apply", us), "us"),
        "inference.calls": (calls("inference.apply") / units, "count"),
        "inference.share": (self_time("inference") / wall, "frac"),
        "metrics.report_ms": (mean_time("metrics.report", ms), "ms"),
        "metrics.ssim_ms": (mean_time("metrics.ssim", ms), "ms"),
        "metrics.psnr_us": (mean_time("metrics.psnr", us), "us"),
        "metrics.mae_us": (mean_time("metrics.mae", us), "us"),
        "metrics.share": (self_time("metrics") / wall, "frac"),
        "images.synthetic_ms": (mean_time("images.synthetic", ms), "ms"),
        "config.load_ms": (mean_time("config.load", ms), "ms"),
        "config.build_operator_us": (mean_time("config.build_operator", us), "us"),
        "sweeps.cells": (statistics.fmean(outcome.samples.get("traced:cells", [0])), "count"),
        "sweeps.csv_write_ms": (mean_time("sweeps.csv_write", ms), "ms"),
        "sweeps.self_share": (self_time("sweeps.run") / wall, "frac"),
        "trace.overhead_ms": ((traced_op - untraced_op) * ms, "ms"),
        # The image pipeline's own glue (bench.image self time) is left out.
        "trace.accounted_frac": (sum(s[2] for s in in_ops if s[0] != "bench.image") / wall, "frac"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------- the run


def run(args, workdir: Path):
    import workloads  # numpy comes in here, after the BLAS pin
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    lib = workloads.import_library(ROOT)
    outcome = workloads.Outcome()
    unresolved = []
    if tracer:
        unresolved = tracer.install(workloads.TRACE_TARGETS)
        outcome.record("trace targets", [f"not found: {', '.join(unresolved)}"] if unresolved else [])
    ready = workloads.build_inputs(lib, args.workload, args.seed, workdir)
    if tracer:
        tracer.uninstall()
    workload = workloads.make(ready)
    workload.warm_up()

    traced_walls = []  # wall seconds of each traced operation
    probes = 0 if tracer is None else SETUP_PROBES  # set-up probes run so far
    probe_seconds = 0.0  # not counted in the run's --seconds
    start = time.perf_counter()
    index = 0

    def elapsed():
        return time.perf_counter() - start - probe_seconds

    while index < workloads.MIN_OPS or elapsed() < args.seconds:
        traced = tracer is not None and index % 2 == 1
        outcome.traced = traced
        if traced:
            tracer.install(workloads.TRACE_TARGETS)
        op_start = time.perf_counter()
        try:
            checks = workload.run_op(index, outcome, tracer.span if traced else nullcontext)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(time.perf_counter() - op_start)
        for check in checks:
            try:
                check()
            except Exception as exc:  # a check that breaks is a failed check, not a crash
                outcome.record(f"check of operation {index}", [f"{type(exc).__name__}: {exc}"])
        index += 1
        while probes < SETUP_PROBES and elapsed() >= probes * args.seconds / SETUP_PROBES:
            probe_start = time.perf_counter()
            probe_setup(args.workload, args.seed, workdir, outcome)
            probe_seconds += time.perf_counter() - probe_start
            probes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sweep = args.workload != "image_transport"
    op_metric = "sweep_s" if sweep else "image_s_1024"
    needed = ["traced:" + op_metric] if tracer else ["setup_s"]
    for name in [op_metric] + needed:
        if name not in outcome.samples:
            raise RuntimeError(f"no successful {name} sample: {outcome.failures[:3]}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": workloads.master_seed(args.workload, args.seed),
        "trace": args.trace,
        "run_seconds": args.seconds,
        "operations": index,
        "host": host_block(),
    }
    if sweep:
        report["csv_body_sha256"] = sorted(outcome.csv_sha256)
    if tracer:
        layers = layer_metrics(tracer, outcome, traced_walls,
                               statistics.median(outcome.samples[op_metric]),
                               statistics.median(outcome.samples["traced:" + op_metric]),
                               ready.cfg.n_channel_trials)
        accounted = layers["trace.accounted_frac"]["value"]
        glue = layers["sweeps.self_share"]["value"]
        problems = []
        if not ACCOUNTED_MIN <= accounted <= 1.0 + 1e-9:
            problems.append(f"layer self times cover {accounted:.4f} of traced wall time")
        if glue > SWEEP_GLUE_MAX:
            problems.append(f"sweep self time is {glue:.4f} of traced wall time, "
                            f"above {SWEEP_GLUE_MAX}: a layer is no longer wrapped")
        outcome.record("trace accounting", problems)
        report["trace_unresolved"] = unresolved
        spans_path = ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json"
        tracer.dump(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = layers
    else:
        detail = {"setup_s": summarize(outcome.samples["setup_s"], "s")}
        if sweep:
            detail["sweep_s"] = summarize(outcome.samples["sweep_s"], "s")
        else:
            detail["image_s_1024"] = summarize(outcome.samples["image_s_1024"], "s")
            for size in workloads.IMAGE_SIZES:
                detail[f"frame_mbps_{size}"] = throughput(outcome.samples[f"frame_s_{size}"], size)
        detail["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1, "tail": None}
        detail["failed_frac"] = {"value": outcome.failed / max(outcome.attempted, 1),
                                 "unit": "frac", "n": outcome.attempted, "tail": None}
        report["metrics"] = detail
        metrics = {
            "setup_s": {"value": detail["setup_s"]["value"], "unit": "s"},
            "op_s": {"value": detail[op_metric]["value"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    report["failures"] = outcome.failures[:20]
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "semimo" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'semimo'}: run from a semimo checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(HERE))
    workdir = ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
