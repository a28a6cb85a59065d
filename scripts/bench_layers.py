#!/usr/bin/env python3
"""Time the oracle, budgets, draws, bit planes, QAM, frames, SSIM, filters and a sweep into a BENCH JSON.

    python3 scripts/bench_layers.py --out BENCH_12.json --label change
    python3 scripts/bench_layers.py --out BENCH_12.json --label change --against ../parent

Run from a checkout: ``semimo`` is imported from that checkout's ``src`` and
the git sha is read from it, so a copy of this script in another checkout
times that checkout's code. BLAS is held to one thread by
``semimo.bench.one_blas_thread``, which also takes where numpy is already
imported (under pytest), and the host block reads the thread count while
it holds; its ``blas_threads_pinned`` lists the count of each loaded
OpenBLAS read inside the pin (empty without OpenBLAS). Each sample runs the
call in a loop that lasts at least 1 ms (the ``timeit.Timer.autorange``
idea) and records the time per call and the minor page faults per call
(the ``getrusage`` ``ru_minflt`` delta of this process over the sample,
divided by the calls in it); the rounds visit every layer in turn, so a
spell of host contention falls on all of them. Each layer gets the median,
the interquartile range and the count of its SAMPLES samples, and the
median and IQR of its faults per call (``minflt_per_call``). Faults depend
on what the heap kept from the layers before, so each layer also makes one
untimed call under ``tracemalloc``, which sees numpy's data buffers: its
peak traced bytes above the start (``peak_bytes_per_call``) depend on the
layer alone. The timed samples run untraced. The
run is stored under ``runs[label]`` with the host block and the git sha;
other labels already in the file are kept. ``empirical_link_budget`` is
timed for MF and for ZF on the -10 dB draw. ``sweeps._simulate_cell`` is
timed on the default config for MF at the fixed SNR, as an SNR cell (perfect
CSI) and as a CSI cell at -10 dB; a cell draws its frames' noise itself, so
``sweeps.run_snr_sweep`` is also timed whole on the default config (one
sweep per call, no CSV written), where one noise stream spans the grid's
frames. ``draw_channel_set`` is timed at
the default size with perfect CSI and at -10 dB, and ``link_budget`` on the
-10 dB draw. SSIM is timed against the reference array and against a
prebuilt ``metrics.Reference``; SSIM's window means
(``metrics._window_means``) on a whole image in one pass; ``box_mean`` as the
denoiser calls it (size 3, nearest); ``metric_report`` at 1024² as
perfbench's ``image_transport`` calls it (an 8-bit test image against the
reference array). ``split_bit_planes`` and ``BitPlaneSource.to_image`` at
128² and 1024² copy the test image's bytes in and out of a source.
``transmit_frame`` sends the test image's eight bit planes at 128², 512² and
1024² through ZF on a perfect-CSI draw at the default SNR and QAM order,
chunk by chunk from the source's pixel bytes; these layers also record their
throughput in Mbit/s (the planes' bits over each sample's time per call,
median and IQR).

``--against <checkout>`` loads that checkout's ``src/semimo`` as a second
package, ``semimo_against``, builds the same layers from it and times the two
side by side: in each round every layer takes one sample from each, in an
order that alternates from round to round, so host drift falls on both
alike. Each layer then also records the other checkout's median and IQR of
the time, of the faults per call and of the throughput, its peak traced
bytes per call, and the median and IQR of the per-round time ratio (this
checkout / the other).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import resource
import subprocess
import sys
import time
import tracemalloc
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
    """Smallest of 1, 2, 5, 10, 20, ... calls that take at least MIN_SAMPLE_S.

    One untimed call goes first, and each count is timed twice and judged by
    its faster run: a cold first call, or one pause of the host or the
    garbage collector, could otherwise size a sub-millisecond layer at one
    call per sample.
    """
    call()
    loops = 1
    while True:
        for factor in (1, 2, 5):
            count = loops * factor
            if min(_sample(call, count)[0] for _ in range(2)) * count >= MIN_SAMPLE_S:
                return count
        loops *= 10


def _sample(call, loops: int) -> tuple[float, float]:
    """Seconds and minor page faults per call, over ``loops`` calls."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(loops):
        call()
    elapsed = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return elapsed / loops, faults / loops


def _peak_bytes(call) -> int:
    """Peak bytes traced over one call of ``call``, above those traced when it starts.

    An untraced call goes first, so what a first call builds and keeps does
    not count.
    """
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _load_against(checkout: Path) -> str:
    """Import ``checkout``'s ``src/semimo`` as the package ``semimo_against``."""
    name = "semimo_against"
    source = checkout / "src" / "semimo"
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)])
    if spec is None:
        raise SystemExit(f"no library source at {source}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its relative imports resolve through here
    spec.loader.exec_module(module)
    return name


def _git_sha(checkout: Path):
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _layers(package: str = "semimo"):
    """(name, arguments, zero-argument call) per timed layer of ``package``."""
    import numpy as np

    modules = ("channel", "config", "images", "inference", "link", "metrics",
               "precoding", "sweeps", "transceiver")
    lib = {name: importlib.import_module(f"{package}.{name}") for name in modules}
    SeedSpec, complex_gaussian = lib["channel"].SeedSpec, lib["channel"].complex_gaussian
    box_mean, metrics = lib["images"].box_mean, lib["metrics"]
    QamConstellation, transceiver = lib["transceiver"].QamConstellation, lib["transceiver"]
    qam_modulate, qam_demodulate = transceiver.qam_modulate, transceiver.qam_demodulate

    cfg = lib["config"].ExperimentConfig()
    err_var = lib["config"].from_db(-10.0)
    channel = lib["channel"].draw_channel_set(
        cfg.n_tx, cfg.n_users, err_var, SeedSpec(cfg.master_seed))
    f = lib["precoding"].mf_precoder(channel.h_known)
    tx_power = cfg.tx_power(cfg.fixed_snr_db)
    size = {"n_tx": cfg.n_tx, "n_users": cfg.n_users}
    layers = []
    # The MF layer keeps its unsuffixed name, so earlier BENCH files compare.
    for scheme, suffix, pre in (("mf", "", f),
                                ("zf", "[zf]", lib["precoding"].zf_precoder(channel.h_known))):
        layers.append((
            f"link.empirical_link_budget{suffix}",
            {"scheme": scheme, **size, "err_var": err_var,
             "n_trials": cfg.n_error_draws, "snr_db": cfg.fixed_snr_db},
            lambda pre=pre: lib["link"].empirical_link_budget(
                channel, pre, tx_power, cfg.n_error_draws, SeedSpec(1)),
        ))
    layers.append((
        f"link.link_budget[{cfg.n_tx}x{cfg.n_users}]",
        {"scheme": "mf", **size, "err_var": err_var, "snr_db": cfg.fixed_snr_db},
        lambda: lib["link"].link_budget(channel, f, tx_power, cfg.noise_var),
    ))
    sweeps, cell_source = lib["sweeps"], lib["sweeps"].load_source(cfg)
    # The cell's source, reference, operator and external metric, as _run_grid builds them.
    cell_inputs = (cell_source, metrics.Reference(cell_source.to_image()),
                   sweeps.load_operator(cfg, cell_source), None)
    for case, var, tag in (("snr", 0.0, ""), ("csi", err_var, ",-10dB")):
        layers.append((
            f"sweeps._simulate_cell[{case},mf,{cfg.fixed_snr_db:g}dB{tag}]",
            {"scheme": "mf", **size, "err_var": var, "snr_db": cfg.fixed_snr_db,
             "n_channel_trials": cfg.n_channel_trials, "n_error_draws": cfg.n_error_draws},
            lambda case=case, var=var: sweeps._simulate_cell(
                cfg, case, lib["precoding"].Scheme.MF, cfg.fixed_snr_db, var, *cell_inputs),
        ))
    layers.append((
        "sweeps.run_snr_sweep[default]",
        {**size, "snr_points": len(cfg.snr_grid_db), "n_channel_trials": cfg.n_channel_trials,
         "n_frames": cfg.n_frames, "workers": cfg.workers},
        lambda: sweeps.run_snr_sweep(cfg),
    ))
    for tag, var in (("perfect", 0.0), ("-10dB", err_var)):
        layers.append((
            f"channel.draw_channel_set[{cfg.n_tx}x{cfg.n_users},{tag}]",
            {**size, "err_var": var},
            lambda var=var: lib["channel"].draw_channel_set(
                cfg.n_tx, cfg.n_users, var, SeedSpec(cfg.master_seed)),
        ))
    rng = SeedSpec(2).rng()
    for shape in ((10000, 16), (8, 65536)):
        layers.append((
            f"channel.complex_gaussian[{shape[0]}x{shape[1]}]",
            {"shape": list(shape), "var": 0.1},
            lambda shape=shape: complex_gaussian(rng, shape, 0.1),
        ))
    for order in (4, 16, 64):
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
    denoiser = lib["inference"].SmoothingDenoiser(strength=1.0)
    frame_channel = lib["channel"].draw_channel_set(
        cfg.n_tx, cfg.n_users, 0.0, SeedSpec(cfg.master_seed))
    frame_args = (frame_channel, lib["precoding"].zf_precoder(frame_channel.h_known), tx_power,
                  cfg.noise_var, QamConstellation.square(cfg.qam_order), SeedSpec(cfg.master_seed, 1))
    for size in (128, 512, 1024):
        clean = lib["images"].synthetic_test_image(size, size)
        noisy = np.clip(clean + rng.normal(0, 10, clean.shape), 0, 255).astype(np.uint8)
        source = transceiver.split_bit_planes(clean)
        if size != 512:
            layers.append((
                f"transceiver.split_bit_planes[{size}x{size}]",
                {"size": size},
                lambda image=clean: transceiver.split_bit_planes(image),
            ))
            layers.append((
                f"transceiver.BitPlaneSource.to_image[{size}x{size}]",
                {"size": size},
                source.to_image,
            ))
        layers.append((
            f"transceiver.transmit_frame[{size}x{size}]",
            {"size": size, "scheme": "zf", "n_tx": cfg.n_tx, "n_users": cfg.n_users,
             "qam_order": cfg.qam_order, "snr_db": cfg.fixed_snr_db,
             "bits": source.planes.size},
            lambda source=source: transceiver.transmit_frame(source, *frame_args),
        ))
        layers.append((
            f"metrics._window_means[{size}x{size}]",
            {"size": size, "window": metrics.SSIM_WINDOW},
            lambda image=noisy.astype(float): metrics._window_means(image),
        ))
        layers.append((
            f"images.box_mean[{size}x{size},nearest{denoiser.size}]",
            {"size": size, "width": denoiser.size, "mode": "nearest"},
            lambda image=noisy.astype(float), w=denoiser.size: box_mean(image, w),
        ))
        references = {"array": clean, "reference": metrics.Reference(clean)}
        for form, reference in references.items():
            layers.append((
                f"metrics.ssim[{size}x{size},{form}]",
                {"size": size, "reference": form},
                lambda ref=reference, test=noisy: metrics.ssim(ref, test),
            ))
        if size == 1024:
            layers.append((
                f"metrics.metric_report[{size}x{size},array]",
                {"size": size, "reference": "array"},
                lambda ref=clean, test=noisy: metrics.metric_report(test, ref),
            ))
        layers.append((
            f"inference.SmoothingDenoiser[{size}x{size}]",
            {"size": size, "strength": denoiser.strength, "kernel": denoiser.size},
            lambda image=noisy.astype(float): denoiser(image),
        ))
    return layers


def _spread(values, scale=1.0) -> tuple[float, float]:
    """Median and interquartile range of ``values`` times ``scale``."""
    import numpy as np

    q1, median, q3 = scale * np.percentile(values, [25, 50, 75])
    return median, q3 - q1


def _summary(samples, peak_bytes: int, bits: int | None) -> dict:
    """Median and IQR of the times (in ms), faults and Mbit/s per call of ``samples``.

    The throughput is recorded only for a layer that sends ``bits`` per call;
    ``peak_bytes`` is the layer's traced peak of one call.
    """
    seconds, faults = zip(*samples)
    median, iqr = _spread(seconds, 1e3)
    fault_median, fault_iqr = _spread(faults)
    summary = {"median": median, "iqr": iqr,
               "minflt_per_call": {"median": fault_median, "iqr": fault_iqr},
               "peak_bytes_per_call": peak_bytes}
    if bits is not None:
        rate, rate_iqr = _spread([bits / s for s in seconds], 1e-6)
        summary["mbit_s"] = {"median": rate, "iqr": rate_iqr}
    return summary


def run(against: Path | None = None) -> dict:
    perfbench = _perfbench_run()
    sys.path.insert(0, str(ROOT / "src"))
    # Imports numpy, which loads OpenBLAS.
    from semimo.bench import _openblas_controls, one_blas_thread

    with one_blas_thread():
        layers = _layers()
        others = _layers(_load_against(against)) if against is not None else [None] * len(layers)

        loops = [_loops_for(call) for *_, call in layers]
        peaks = [(_peak_bytes(call), None if other is None else _peak_bytes(other[2]))
                 for (*_, call), other in zip(layers, others)]
        times = [([], []) for _ in layers]
        for round_ in range(SAMPLES):
            for (*_, call), other, count, (taken, taken_other) in zip(layers, others, loops, times):
                if other is None:
                    taken.append(_sample(call, count))
                    continue
                # Alternate which checkout goes first, round by round.
                pair = [(call, taken), (other[2], taken_other)]
                for side, record in pair[:: 1 if round_ % 2 == 0 else -1]:
                    record.append(_sample(side, count))
        host = perfbench.host_block()  # inside the pin, so it reads the pinned count
        # perfbench reads the pin from the environment; this pin sets no variable.
        host["blas_threads_pinned"] = [get() for get, _ in _openblas_controls()]
    results = {}
    for (name, arguments, _), count, (taken, taken_other), (peak, peak_other) in zip(
            layers, loops, times, peaks):
        bits = arguments.get("bits")
        results[name] = {
            "unit": "ms", **_summary(taken, peak, bits), "n": len(taken),
            "calls_per_sample": count, "args": arguments,
        }
        if taken_other:
            ratio, ratio_iqr = _spread([a[0] / b[0] for a, b in zip(taken, taken_other)])
            results[name]["against"] = _summary(taken_other, peak_other, bits)
            results[name]["ratio"] = {"median": ratio, "iqr": ratio_iqr}
    record = {
        "git_sha": host.pop("git_sha"),
        "measured_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": host,
        "layers": results,
    }
    if against is not None:
        record["against_git_sha"] = _git_sha(against)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to create or update")
    parser.add_argument("--label", required=True, help="key of this run under 'runs'")
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="another checkout to time side by side, call by call")
    args = parser.parse_args(argv)
    record = run(args.against)
    document = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    document["runs"][args.label] = record
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote runs[{args.label!r}] to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
