#!/usr/bin/env python3
"""Time the oracle, draws, bit planes, QAM, box means, SSIM and denoiser per call, into a BENCH JSON.

    python3 scripts/bench_layers.py --out BENCH_10.json --label change

Run from a checkout: ``semimo`` is imported from that checkout's ``src`` and
the git sha is read from it, so a copy of this script in another checkout
times that checkout's code. BLAS is held to one thread. Each sample runs the
call in a loop that lasts at least 1 ms (the ``timeit.Timer.autorange``
idea) and records the time per call; the rounds visit every layer in turn,
so a spell of host contention falls on all of them. Each layer gets the
median, the interquartile range and the count of its SAMPLES samples. The
run is stored under ``runs[label]`` with the host block and the git sha;
other labels already in the file are kept. SSIM is timed against the
reference array and against a prebuilt ``metrics.Reference``; ``box_mean``
as SSIM calls it (size 8, constant) and as the denoiser does (size 3,
nearest).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLE_S = 1e-3
SAMPLES = 30


def _perfbench_run():
    """perfbench/run.py, for its host block (cores, BLAS, threads, git sha)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _loops_for(call) -> int:
    """Smallest of 1, 2, 5, 10, 20, ... calls that take at least MIN_SAMPLE_S."""
    loops = 1
    while True:
        for factor in (1, 2, 5):
            start = time.perf_counter()
            for _ in range(loops * factor):
                call()
            if time.perf_counter() - start >= MIN_SAMPLE_S:
                return loops * factor
        loops *= 10


def _sample(call, loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        call()
    return (time.perf_counter() - start) / loops


def _layers():
    """(name, arguments, zero-argument call) per timed layer."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from semimo import metrics
    from semimo.channel import SeedSpec, complex_gaussian, draw_channel_set
    from semimo.config import ExperimentConfig, from_db
    from semimo.images import box_mean, synthetic_test_image
    from semimo.inference import SmoothingDenoiser
    from semimo.link import empirical_link_budget
    from semimo.precoding import mf_precoder
    from semimo.transceiver import (
        QamConstellation, qam_demodulate, qam_modulate, split_bit_planes,
    )

    cfg = ExperimentConfig()
    err_var = from_db(-10.0)
    channel = draw_channel_set(cfg.n_tx, cfg.n_users, err_var, SeedSpec(cfg.master_seed))
    f = mf_precoder(channel.h_known)
    tx_power = cfg.tx_power(cfg.fixed_snr_db)
    layers = [(
        "link.empirical_link_budget",
        {"scheme": "mf", "n_tx": cfg.n_tx, "n_users": cfg.n_users, "err_var": err_var,
         "n_trials": cfg.n_error_draws, "snr_db": cfg.fixed_snr_db},
        lambda: empirical_link_budget(channel, f, tx_power, cfg.n_error_draws, SeedSpec(1)),
    )]
    rng = SeedSpec(2).rng()
    for shape in ((10000, 16), (8, 65536)):
        layers.append((
            f"channel.complex_gaussian[{shape[0]}x{shape[1]}]",
            {"shape": list(shape), "var": 0.1},
            lambda shape=shape: complex_gaussian(rng, shape, 0.1),
        ))
    for order in (4, 16):
        constellation = QamConstellation.square(order)
        # A full transmit_frame block, and one 128x128 frame at 4-QAM.
        for n_symbols in (65536, 8192):
            n_bits = n_symbols * constellation.bits_per_symbol
            bits = rng.integers(0, 2, (cfg.n_users, n_bits), dtype=np.uint8)
            received = qam_modulate(bits, constellation)
            if order == 4:
                layers.append((
                    f"transceiver.qam_modulate[qam{order},{cfg.n_users}x{n_symbols}]",
                    {"order": order, "shape": list(bits.shape)},
                    lambda b=bits, c=constellation: qam_modulate(b, c),
                ))
            received += complex_gaussian(rng, received.shape, 0.05)
            layers.append((
                f"transceiver.qam_demodulate[qam{order},{cfg.n_users}x{n_symbols}]",
                {"order": order, "shape": list(received.shape), "noise_var": 0.05},
                lambda z=received, c=constellation, n=n_bits: qam_demodulate(z, c, n),
            ))
    denoiser = SmoothingDenoiser(strength=1.0)
    for size in (128, 512, 1024):
        clean = synthetic_test_image(size, size)
        noisy = np.clip(clean + rng.normal(0, 10, clean.shape), 0, 255).astype(np.uint8)
        if size != 512:
            source = split_bit_planes(clean)
            layers.append((
                f"transceiver.split_bit_planes[{size}x{size}]",
                {"size": size},
                lambda image=clean: split_bit_planes(image),
            ))
            layers.append((
                f"transceiver.BitPlaneSource.to_image[{size}x{size}]",
                {"size": size},
                source.to_image,
            ))
        # The box mean as SSIM's window means and as the denoiser call it.
        for width, mode in ((metrics.SSIM_WINDOW, "constant"), (denoiser.size, "nearest")):
            layers.append((
                f"images.box_mean[{size}x{size},{mode}{width}]",
                {"size": size, "width": width, "mode": mode},
                lambda image=noisy.astype(float), w=width, m=mode: box_mean(image, w, m),
            ))
        references = {"array": clean, "reference": metrics.Reference(clean)}
        for form, reference in references.items():
            layers.append((
                f"metrics.ssim[{size}x{size},{form}]",
                {"size": size, "reference": form},
                lambda ref=reference, test=noisy: metrics.ssim(ref, test),
            ))
        layers.append((
            f"inference.SmoothingDenoiser[{size}x{size}]",
            {"size": size, "strength": denoiser.strength, "kernel": denoiser.size},
            lambda image=noisy.astype(float): denoiser(image),
        ))
    return layers


def run() -> dict:
    perfbench = _perfbench_run()
    for var in perfbench.BLAS_THREAD_VARS:
        os.environ[var] = perfbench.BLAS_THREADS
    layers = _layers()  # imports numpy, after the BLAS pin
    import numpy as np

    loops = [_loops_for(call) for *_, call in layers]
    times = [[] for _ in layers]
    for _ in range(SAMPLES):
        for (*_, call), count, taken in zip(layers, loops, times):
            taken.append(_sample(call, count))
    results = {}
    for (name, arguments, _), count, taken in zip(layers, loops, times):
        q1, median, q3 = 1e3 * np.percentile(taken, [25, 50, 75])
        results[name] = {
            "unit": "ms", "median": median, "iqr": q3 - q1, "n": len(taken),
            "calls_per_sample": count, "args": arguments,
        }
    host = perfbench.host_block()
    return {
        "git_sha": host.pop("git_sha"),
        "measured_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": host,
        "layers": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to create or update")
    parser.add_argument("--label", required=True, help="key of this run under 'runs'")
    args = parser.parse_args(argv)
    record = run()
    document = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    document["runs"][args.label] = record
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote runs[{args.label!r}] to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
