import numpy as np
import pytest

from semimo.channel import (
    ChannelSet,
    SeedSpec,
    complex_gaussian,
    draw_channel_set,
)


def csi_error(ch):
    return ch.h_true - ch.h_known


@pytest.mark.parametrize("shape", [(3, 5), (16, 8), (10000, 16), (8, 65536)])
@pytest.mark.parametrize("var", [1.0, 0.1, 1.0 / 16])
def test_complex_draw_stream_is_pinned(shape, var):
    # Real parts are the next standard_normal block, imaginary parts the one
    # after; every fixed-seed test and CSV body depends on this order.
    got = complex_gaussian(SeedSpec(77, 3).rng(), shape, var)
    rng = SeedSpec(77, 3).rng()
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    expected = np.sqrt(var / 2.0) * (x + 1j * y)
    assert got.dtype == np.complex128 and got.flags.c_contiguous
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_perfect_csi_means_equal_matrices():
    ch = draw_channel_set(16, 8, 0.0, SeedSpec(1))
    assert ch.h_true.shape == (16, 8)
    assert ch.h_known.shape == (16, 8)
    np.testing.assert_array_equal(ch.h_true, ch.h_known)
    assert np.all(csi_error(ch) == 0)


@pytest.mark.parametrize("n_tx, n_users", [(16, 8), (64, 32), (256, 128), (1024, 512)])
def test_perfect_csi_draw_is_h_known_bit_for_bit(n_tx, n_users):
    # The error is drawn at variance 0 too; its +-0 entries leave h_known's bits.
    for seed in range(3):
        ch = draw_channel_set(n_tx, n_users, 0.0, SeedSpec(seed, 4))
        assert ch.h_true.tobytes() == ch.h_known.tobytes()
        assert ch.h_true.flags.f_contiguous and not ch.h_true.flags.writeable
        assert not np.shares_memory(ch.h_true, ch.h_known)


def test_unit_average_channel_power():
    # E||h_k||^2 = n_tx * (1/n_tx) = 1 at n_tx = 4: Monte-Carlo over 1e5
    # user columns drawn across independent trials.
    norms_sq = [
        np.sum(np.abs(draw_channel_set(4, 4, 0.0, SeedSpec(123, t)).h_known) ** 2, axis=0)
        for t in range(25_000)
    ]
    pooled = np.concatenate(norms_sq)
    assert pooled.size == 100_000
    assert np.mean(pooled) == pytest.approx(1.0, abs=0.02)


def test_error_power_scales_with_antennas_and_variance():
    # E||h_true_k - h_known_k||^2 = n_tx * err_var = 8 * 0.25 = 2.
    err_norms = [
        np.sum(np.abs(csi_error(draw_channel_set(8, 4, 0.25, SeedSpec(7, t)))) ** 2, axis=0)
        for t in range(25_000)
    ]
    pooled = np.concatenate(err_norms)
    assert pooled.size == 100_000
    assert np.mean(pooled) == pytest.approx(2.0, rel=0.02)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        draw_channel_set(4, 8, 0.0, SeedSpec(0))
    with pytest.raises(ValueError):
        draw_channel_set(8, 0, 0.0, SeedSpec(0))
    with pytest.raises(ValueError):
        draw_channel_set(8, 4, -0.1, SeedSpec(0))
    # A NaN variance once drew perfect-CSI frames and gave NaN SINRs.
    for err_var in (float("nan"), float("inf"), np.float64("nan")):
        with pytest.raises(ValueError, match="finite"):
            draw_channel_set(16, 8, err_var, SeedSpec(0))


def test_same_seed_reproduces_bit_identical_channels():
    a = draw_channel_set(16, 8, 0.3, SeedSpec(555, 2))
    b = draw_channel_set(16, 8, 0.3, SeedSpec(555, 2))
    assert a.h_true.tobytes() == b.h_true.tobytes()
    assert a.h_known.tobytes() == b.h_known.tobytes()


def test_distinct_trials_are_uncorrelated():
    a = draw_channel_set(64, 64, 0.0, SeedSpec(555, 0)).h_known.ravel()
    b = draw_channel_set(64, 64, 0.0, SeedSpec(555, 1)).h_known.ravel()
    corr = np.corrcoef(a.real, b.real)[0, 1]
    assert abs(corr) < 0.05


def test_circular_symmetry_zero_mean():
    # |empirical mean| < 3 sigma / sqrt(n) for each component, n = 1e5 entries.
    ch = draw_channel_set(400, 250, 0.5, SeedSpec(2024))
    n = ch.h_known.size
    for part in (ch.h_known.real, ch.h_known.imag):
        sigma = np.sqrt(0.5 / 400)
        assert abs(part.mean()) < 3 * sigma / np.sqrt(n)
    for part in (csi_error(ch).real, csi_error(ch).imag):
        sigma = np.sqrt(0.5 * 0.5)
        assert abs(part.mean()) < 3 * sigma / np.sqrt(n)


def test_component_independence():
    ch = draw_channel_set(400, 250, 0.5, SeedSpec(31337))
    h = ch.h_known.ravel()
    e = csi_error(ch).ravel()
    pairs = [
        (h.real, h.imag),
        (e.real, e.imag),
        (h.real, e.real),
        (h.imag, e.imag),
    ]
    for x, y in pairs:
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.01


def test_channel_set_validates_shapes():
    good = np.zeros((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        ChannelSet(good, np.zeros((4, 3), dtype=complex), 0.0)
    with pytest.raises(ValueError):
        ChannelSet(np.zeros((2, 4), complex), np.zeros((2, 4), complex), 0.0)
    for err_var in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            ChannelSet(good, good, err_var)


def test_channels_are_immutable():
    ch = draw_channel_set(4, 2, 0.1, SeedSpec(0))
    with pytest.raises(ValueError):
        ch.h_true[0, 0] = 0

