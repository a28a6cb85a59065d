"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s) and enforces
its stated tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

from semimo.bench import fit_loglog_slope, run_complexity_bench
from semimo.channel import SeedSpec, draw_channel_set
from semimo.config import ExperimentConfig
from semimo.images import image_distance, synthetic_test_image
from semimo.inference import (
    AffineContraction,
    InferenceProfile,
    SmoothingDenoiser,
    apply_operator,
    identity_bound,
    inferiority_threshold,
    semantic_bound,
    sinr_sensitivity,
)
from semimo.link import (
    QamParams,
    ber_from_sinr,
    empirical_link_budget,
    expected_distortion,
    link_budget,
)
from semimo.metrics import mae, mae_lipschitz, ssim
from semimo.precoding import mf_precoder, zf_precoder
from semimo.transceiver import QamConstellation, split_bit_planes, transmit_frame


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_zf_null_space_exactness():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        channel = draw_channel_set(16, 8, 0.0, SeedSpec(1001, trial))
        f = zf_precoder(channel.h_known)
        cross = np.abs(channel.h_known.conj().T @ f)
        np.fill_diagonal(cross, 0.0)
        ratios = cross / np.linalg.norm(channel.h_known, axis=0)[:, None]
        worst = max(worst, float(ratios.max()))
    elapsed = time.perf_counter() - start
    report(
        "1 ZF null-space exactness",
        worst < 1e-10 and elapsed < 1.0,
        f"worst leakage {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_interference_decomposition():
    start = time.perf_counter()
    tx_power, noise_var = 1.0, 1.0
    n_draws = 100_000
    failures = []
    for err_var in (0.01, 0.1, 0.25):
        channel = draw_channel_set(16, 8, err_var, SeedSpec(2002))
        for name, build in (("mf", mf_precoder), ("zf", zf_precoder)):
            precoder = build(channel.h_known)
            budget = link_budget(channel, precoder, tx_power, noise_var)
            est = empirical_link_budget(
                channel, precoder, tx_power, n_draws, SeedSpec(2003)
            )
            analytic_desired = budget.p_precode + tx_power * err_var
            analytic_interference = budget.i_precode + budget.i_error
            for label, got, want, se in (
                ("P", est.desired_power, analytic_desired, est.desired_se),
                ("I", est.interference, analytic_interference, est.interference_se),
            ):
                rel = np.abs(got - want) / np.where(want > 0, want, 1.0)
                within = (rel <= 0.01) | (np.abs(got - want) <= 3 * se)
                if not np.all(within):
                    failures.append(f"{name}/{label}@{err_var}: rel={rel.max():.3%}")
    elapsed = time.perf_counter() - start
    report(
        "2 interference decomposition vs Monte-Carlo",
        not failures and elapsed < 30.0,
        f"{len(failures)} mismatches, {elapsed:.1f}s" + (f": {failures}" if failures else ""),
    )


def test_criterion_3_ber_formula():
    start = time.perf_counter()
    channel = draw_channel_set(16, 8, 0.0, SeedSpec(3003))
    precoder = zf_precoder(channel.h_known)
    qam = QamParams(4)
    constellation = QamConstellation.square(4)
    gains = np.abs(np.diagonal(channel.h_known.conj().T @ precoder)) ** 2
    # Weakest stream at analytic BER 1e-2 puts every stream inside [1e-3, 1e-1]
    # when the gain spread stays under ~2.4x; checked below.
    tx_power = 2.3263**2 / gains.min()
    budget = link_budget(channel, precoder, tx_power, 1.0)
    analytic = ber_from_sinr(budget.sinr, qam)

    image = synthetic_test_image(360, 360)
    source = split_bit_planes(image)
    bits_per_stream = 360 * 360
    frames = 3
    errors = np.zeros(8)
    for frame in range(frames):
        result = transmit_frame(
            source, channel, precoder, tx_power, 1.0, constellation,
            SeedSpec(3004, frame),
        )
        errors += result.bit_errors
    total_bits = frames * bits_per_stream * 8
    empirical = errors / (frames * bits_per_stream)

    in_window = (analytic >= 1e-3) & (analytic <= 1e-1)
    rel = np.abs(empirical[in_window] - analytic[in_window]) / analytic[in_window]
    elapsed = time.perf_counter() - start
    report(
        "3 BER formula vs simulation",
        total_bits >= 1_000_000
        and in_window.sum() >= 4
        and rel.max() < 0.15
        and elapsed < 60.0,
        f"{total_bits} bits, {int(in_window.sum())} streams in window, "
        f"worst rel err {rel.max():.1%}, {elapsed:.1f}s",
    )


def test_criterion_4_distortion_approximation():
    start = time.perf_counter()
    channel = draw_channel_set(16, 8, 0.0, SeedSpec(4004))
    precoder = zf_precoder(channel.h_known)
    gains = np.abs(np.diagonal(channel.h_known.conj().T @ precoder)) ** 2
    tx_power = 2.366**2 / gains.min()  # max analytic BER ~9e-3, safely <= 1e-2
    budget = link_budget(channel, precoder, tx_power, 1.0)
    assert ber_from_sinr(budget.sinr, QamParams(4)).max() <= 1e-2

    image = synthetic_test_image(256, 256)
    source = split_bit_planes(image)
    constellation = QamConstellation.square(4)
    weighted_sum = 0.0
    pixel_mae = 0.0
    frames = 6
    all_small = True
    for frame in range(frames):
        result = transmit_frame(
            source, channel, precoder, tx_power, 1.0, constellation,
            SeedSpec(4005, frame),
        )
        all_small &= bool(np.all(result.ber <= 1e-2 * 1.5))
        weighted_sum += expected_distortion(result.ber, 8)
        pixel_mae += float(np.mean(np.abs(result.image().astype(float) - image)))
    weighted_sum /= frames
    pixel_mae /= frames
    rel = abs(weighted_sum - pixel_mae) / pixel_mae
    elapsed = time.perf_counter() - start
    report(
        "4 bit-weighted distortion vs per-pixel MAE",
        all_small and rel < 0.10 and elapsed < 60.0,
        f"sum {weighted_sum:.4f} vs mae {pixel_mae:.4f}, rel {rel:.1%}, {elapsed:.1f}s",
    )


def test_criterion_5_bound_validity():
    start = time.perf_counter()
    clean = synthetic_test_image(64, 64).astype(float)
    lip = mae_lipschitz(clean.size)
    floor = mae(clean, clean)
    rng = np.random.default_rng(5005)
    configs = [
        (0.2, 100.0, 10.0),
        (0.4, 128.0, 25.0),
        (0.6, 140.0, 40.0),
        (0.8, 90.0, 15.0),
        (0.5, 160.0, 60.0),
    ]
    violations = 0
    for factor, anchor_level, noise_std in configs:
        anchor = np.full(clean.shape, anchor_level)
        op = AffineContraction(anchor, factor)
        delta = op.bias_at(clean)  # exact bias at error level 0
        profile = InferenceProfile(factor, 0.0, delta, lip)
        errors, scores = [], []
        for _ in range(50):
            noisy = clean + rng.normal(0, noise_std, clean.shape)
            errors.append(image_distance(noisy, clean))
            scores.append(mae(apply_operator(op, noisy), clean))
        measured = float(np.mean(scores))
        bound = semantic_bound(profile, floor, float(np.mean(errors)))
        if measured > bound:
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "5 reconstruction bound validity",
        violations == 0 and elapsed < 30.0,
        f"{violations} violations over {len(configs)} configs, {elapsed:.1f}s",
    )


def test_criterion_6_crossover_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(6006)
    mismatches = 0
    for _ in range(10_000):
        profile = InferenceProfile(
            rho=rng.uniform(0.0, 0.99),
            epsilon=rng.uniform(0.0, 1.0),
            delta_eps=rng.uniform(0.0, 1.0),
            metric_lipschitz=rng.uniform(0.01, 5.0),
        )
        floor = rng.uniform(0.0, 1.0)
        err = rng.uniform(0.0, 4.0)
        threshold = inferiority_threshold(profile)
        if abs(err - threshold) < 1e-12:
            continue
        lhs = identity_bound(floor, profile.metric_lipschitz, err) >= semantic_bound(
            profile, floor, err
        )
        if lhs != (err > threshold):
            mismatches += 1

    # Link-level crossover: plain pass-through overtakes the anchor-pulling
    # operator once the received error drops below the predicted threshold.
    clean = synthetic_test_image(64, 64)
    source = split_bit_planes(clean)
    anchor = np.full(clean.shape, 128.0)
    factor = 0.5
    op = AffineContraction(anchor, factor)
    delta = op.bias_at(clean)
    profile = InferenceProfile(factor, 0.0, delta, mae_lipschitz(clean.size))
    threshold = inferiority_threshold(profile)

    channel = draw_channel_set(16, 8, 0.0, SeedSpec(6007))
    precoder = zf_precoder(channel.h_known)
    constellation = QamConstellation.square(4)
    crossover_err = None
    previous_better = None
    for snr_db in np.arange(-4.0, 16.1, 1.0):
        tx_power = 10 ** (snr_db / 10)
        errs, id_scores, op_scores = [], [], []
        for frame in range(4):
            result = transmit_frame(
                source, channel, precoder, tx_power, 1.0, constellation,
                SeedSpec(6008 + int(snr_db * 101), frame),
            )
            noisy = result.image()
            errs.append(image_distance(noisy, clean))
            id_scores.append(mae(noisy, clean))
            op_scores.append(mae(apply_operator(op, noisy), clean))
        operator_worse = np.mean(op_scores) >= np.mean(id_scores)
        if operator_worse and previous_better:
            crossover_err = float(np.mean(errs))
            break
        previous_better = not operator_worse
    elapsed = time.perf_counter() - start
    within_factor_2 = (
        crossover_err is not None and 0.5 <= crossover_err / threshold <= 2.0
    )
    report(
        "6 crossover consistency",
        mismatches == 0 and within_factor_2,
        f"{mismatches} algebra mismatches; crossover err "
        f"{crossover_err if crossover_err else float('nan'):.3f} vs threshold "
        f"{threshold:.3f}, {elapsed:.1f}s",
    )


def test_criterion_7_complexity_scaling():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        bench_users=(32, 48, 64, 96, 128, 192, 256, 384, 512),
        bench_repetitions=100,
    )
    result = run_complexity_bench(cfg)
    mf_slope = result.slopes["mf"]
    zf_slope = result.slopes["zf"]
    mf_times = result.times("mf")
    zf_times = result.times("zf")
    ratio_256 = zf_times[256] / mf_times[256]
    elapsed = time.perf_counter() - start
    report(
        "7 complexity scaling",
        0.7 <= mf_slope <= 1.5
        and 2.3 <= zf_slope <= 3.5
        and ratio_256 > 10.0
        and elapsed < 300.0,
        f"mf slope {mf_slope:.2f}, zf slope {zf_slope:.2f}, "
        f"zf/mf@256 {ratio_256:.0f}x, {elapsed:.0f}s",
    )


def test_criterion_8_semantic_gap_compresses_ber_gap():
    start = time.perf_counter()
    channel = draw_channel_set(16, 8, 0.0, SeedSpec(8008))
    clean = synthetic_test_image(512, 512)
    source = split_bit_planes(clean)
    constellation = QamConstellation.square(4)
    tx_power = 10**1.5  # 15 dB over unit noise
    operator = SmoothingDenoiser(strength=1.0)

    ber = {}
    semantic = {}
    for name, build in (("mf", mf_precoder), ("zf", zf_precoder)):
        precoder = build(channel.h_known)
        result = transmit_frame(
            source, channel, precoder, tx_power, 1.0, constellation, SeedSpec(8009)
        )
        ber[name] = float(result.ber.mean())
        restored = apply_operator(operator, result.image())
        semantic[name] = 1.0 - ssim(clean, restored)

    tiny = 1e-12
    ber_gap = (ber["mf"] - ber["zf"]) / max(ber["zf"], tiny)
    semantic_gap = (semantic["mf"] - semantic["zf"]) / max(semantic["zf"], tiny)
    ratio = semantic_gap / ber_gap
    elapsed = time.perf_counter() - start
    report(
        "8 semantic gap smaller than BER gap",
        0 < ratio < 0.5 and elapsed < 120.0,
        f"ber gap {ber_gap:.1f}, semantic gap {semantic_gap:.2f}, "
        f"ratio {ratio:.3f}, {elapsed:.1f}s",
    )


def test_criterion_9_sensitivity_attenuation():
    qam = QamParams(4)
    profile_full = InferenceProfile(0.8, 0.0, 0.0, 1.0)
    profile_half = InferenceProfile(0.4, 0.0, 0.0, 1.0)
    exact = True
    for gamma in (0.5, 1.0, 3.0, 10.0):
        full = sinr_sensitivity(profile_full, qam, gamma, 5)
        half = sinr_sensitivity(profile_half, qam, gamma, 5)
        exact &= abs(2 * half - full) <= 1e-12

    knee = 1.0 / qam.beta**2
    gammas = np.linspace(knee, knee + 80, 100)
    magnitudes = [abs(sinr_sensitivity(profile_full, qam, g, 5)) for g in gammas]
    monotone = all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
    report(
        "9 sensitivity attenuation",
        exact and monotone,
        f"halving exact: {exact}, monotone past knee: {monotone}",
    )
