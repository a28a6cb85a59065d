import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semimo import images, transceiver
from semimo.channel import ChannelSet, SeedSpec, draw_channel_set
from semimo.images import synthetic_test_image
from semimo.link import QamParams, ber_from_sinr, link_budget, q_function
from semimo.precoding import mf_precoder, zf_precoder
from semimo.transceiver import (
    BitPlaneSource,
    QamConstellation,
    qam_demodulate,
    qam_modulate,
    split_bit_planes,
    transmit_frame,
)


class TestBitPlanes:
    def test_single_pixel_binary_expansion(self):
        img = np.array([[170]], dtype=np.uint8)  # 10101010
        src = split_bit_planes(img)
        lsb_to_msb = [int(p[0]) for p in src.planes]
        assert lsb_to_msb == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_zero_pixel_gives_zero_planes(self):
        src = split_bit_planes(np.zeros((2, 2), dtype=np.uint8))
        assert all(np.all(p == 0) for p in src.planes)

    def test_roundtrip_random_image(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        assert np.array_equal(split_bit_planes(img).to_image(), img)

    def test_all_ones_planes_combine_to_255(self):
        planes = [np.ones(10, dtype=np.uint8) for _ in range(8)]
        assert np.all(BitPlaneSource(10, 1, planes).to_image() == 255)

    def test_msb_weight(self):
        planes = [np.zeros(4, dtype=np.uint8) for _ in range(8)]
        planes[7] = np.ones(4, dtype=np.uint8)
        assert np.all(BitPlaneSource(4, 1, planes).to_image() == 128)

    def test_planes_are_one_read_only_array(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        src = split_bit_planes(img)
        assert src.planes.shape == (8, 35) and src.planes.dtype == np.uint8
        assert not src.planes.flags.writeable
        with pytest.raises(ValueError):
            src.planes[0, 0] = 1
        rows = BitPlaneSource(7, 5, tuple(np.array(p) for p in src.planes))
        assert np.array_equal(rows.planes, src.planes) and not rows.planes.flags.writeable
        assert np.array_equal(rows.to_image(), img)
        # Only the source's view is read-only, not the caller's array.
        mine = np.array(src.planes)
        BitPlaneSource(7, 5, mine)
        assert mine.flags.writeable

    def test_plane_shape_checked(self):
        for planes in (np.zeros((8, 34), np.uint8), np.zeros((9, 35), np.uint8),
                       np.zeros((0, 35), np.uint8), np.zeros(35, np.uint8)):
            with pytest.raises(ValueError):
                BitPlaneSource(7, 5, planes)

    def test_combine_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            BitPlaneSource(4, 1, [np.zeros(4, np.uint8), np.zeros(5, np.uint8)])

    @pytest.mark.parametrize("n_streams", range(1, 9))
    def test_streams_round_trip_through_pixel_bytes(self, n_streams):
        rng = np.random.default_rng(n_streams)
        planes = rng.integers(0, 2, (n_streams, 35), dtype=np.uint8)
        src = BitPlaneSource(7, 5, planes)
        assert src.n_streams == n_streams
        np.testing.assert_array_equal(src.planes, planes)
        # Bit b of each pixel byte is stream b's bit; the bits above are 0.
        pixels = (planes.astype(int) << np.arange(n_streams)[:, None]).sum(axis=0)
        np.testing.assert_array_equal(src.pixels, pixels)
        np.testing.assert_array_equal(src.to_image(), pixels.reshape(5, 7))
        assert not src.pixels.flags.writeable and not src.planes.flags.writeable
        # The low planes of an image carry its low bits.
        img = rng.integers(0, 256, (5, 7), dtype=np.uint8)
        low = BitPlaneSource(7, 5, split_bit_planes(img).planes[:n_streams])
        np.testing.assert_array_equal(low.to_image(), img & ((1 << n_streams) - 1))

    def test_split_and_to_image_copy_the_bytes(self):
        img = np.random.default_rng(2).integers(0, 256, (6, 4), dtype=np.uint8)
        src = split_bit_planes(np.asfortranarray(img))
        np.testing.assert_array_equal(src.pixels, img.ravel())  # row-major
        mine = img.copy()
        src = split_bit_planes(mine)
        mine[0, 0] ^= 1
        out = src.to_image()
        assert out[0, 0] == img[0, 0] and out.flags.writeable
        out[0, 0] ^= 1
        assert src.to_image()[0, 0] == img[0, 0]

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            np.uint8,
            st.tuples(st.integers(1, 16), st.integers(1, 16)),
            elements=st.integers(0, 255),
        )
    )
    def test_roundtrip_property(self, img):
        assert np.array_equal(split_bit_planes(img).to_image(), img)


class TestConstellation:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        const = QamConstellation.square(order)
        assert np.mean(np.abs(const.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_gray_neighbors_differ_in_one_bit_order16(self):
        const = QamConstellation.square(16)
        # Exhaustive pairwise check: points at minimal axis distance differ
        # in exactly one label bit.
        spacing = np.min(np.diff(const.levels))
        for a in range(16):
            for b in range(a + 1, 16):
                dz = const.points[a] - const.points[b]
                horizontal = abs(dz.real) < 1.5 * spacing and dz.imag == 0
                vertical = abs(dz.imag) < 1.5 * spacing and dz.real == 0
                if horizontal or vertical:
                    assert bin(a ^ b).count("1") == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            QamConstellation.square(8)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_noiseless_roundtrip(self, order):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=10_000, dtype=np.uint8)
        const = QamConstellation.square(order)
        symbols = qam_modulate(bits, const)
        back = qam_demodulate(symbols, const, n_bits=bits.size)
        assert np.array_equal(back, bits)

    def test_padding_recorded_in_symbol_count(self):
        const = QamConstellation.square(16)
        bits = np.ones(10, dtype=np.uint8)  # 10 bits -> 3 symbols, pad 2
        assert qam_modulate(bits, const).size == 3

    def test_slicing_equals_brute_force_min_distance(self):
        for order in (16, 64):
            const = QamConstellation.square(order)
            rng = np.random.default_rng(2)
            noisy = rng.normal(size=400) + 1j * rng.normal(size=400)
            fast = qam_demodulate(noisy, const)
            dists = np.abs(noisy[:, None] - const.points[None, :])
            labels = np.argmin(dists, axis=1)
            width = const.bits_per_symbol
            brute = (
                (labels[:, None] >> np.arange(width - 1, -1, -1)) & 1
            ).astype(np.uint8).ravel()
            assert np.array_equal(fast, brute), order

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_comparison_slicer_equals_searchsorted_rule(self, order):
        # The general rule: searchsorted per axis, Gray labels, MSB first.
        def searchsorted_bits(symbols, const, n_bits=None):
            edges = (const.levels[1:] + const.levels[:-1]) / 2.0
            re, im = np.searchsorted(edges, symbols.real), np.searchsorted(edges, symbols.imag)
            half = const.bits_per_symbol // 2
            labels = ((re ^ (re >> 1)) << half) | (im ^ (im >> 1))
            shifts = np.arange(const.bits_per_symbol - 1, -1, -1)
            bits = ((labels[..., None] >> shifts) & 1).astype(np.uint8)
            bits = bits.reshape(symbols.shape[:-1] + (-1,))
            return bits[..., :n_bits] if n_bits is not None else bits

        const = QamConstellation.square(order)
        edges = (const.levels[1:] + const.levels[:-1]) / 2.0
        # Every pair of edge cases as (real, imag): each decision edge and its
        # neighbours one ulp away, signed zeros, infinities, NaN; then random
        # values over the whole constellation.
        special = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300],
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        ])
        n_special = special.size**2
        size = -(-(n_special + 160) // 32) * 32  # whole rows of 8 and blocks of 4 x 8
        flat = np.empty(size, dtype=np.complex128)
        flat.real = np.random.default_rng(9).normal(size=size)
        flat.imag = np.random.default_rng(10).normal(size=size)
        flat.real[:n_special] = np.repeat(special, special.size)
        flat.imag[:n_special] = np.tile(special, special.size)
        rows = flat.reshape(8, -1)
        for symbols in (flat, rows, flat.reshape(4, 8, -1), rows[:, ::2]):  # 3-D; strided
            n = symbols.shape[-1]
            for n_bits in (None, const.bits_per_symbol * n - 1):
                fast = qam_demodulate(symbols, const, n_bits)
                assert fast.dtype == np.uint8
                np.testing.assert_array_equal(fast, searchsorted_bits(symbols, const, n_bits))

    def test_rows_map_like_one_dimensional_streams(self):
        const = QamConstellation.square(64)
        bits = np.random.default_rng(4).integers(0, 2, size=(3, 25), dtype=np.uint8)
        symbols = qam_modulate(bits, const)  # 25 bits -> 5 symbols, pad 5
        assert symbols.shape == (3, 5)
        for row, sent in zip(symbols, bits):
            np.testing.assert_array_equal(row, qam_modulate(sent, const))
        np.testing.assert_array_equal(qam_demodulate(symbols, const, n_bits=25), bits)
        assert qam_demodulate(symbols, const).shape == (3, 30)

    def test_non_binary_bits_rejected(self):
        const = QamConstellation.square(16)
        # 257 would wrap to 1 under a uint8 cast.
        for bits in ([0, 0, 0, 2], np.array([0, 0, 0, 257]), [0, 0, 0, 0.5], [0, 0, 0, -1]):
            with pytest.raises(ValueError):
                qam_modulate(bits, const)
        for plane in (np.array([3, 0], np.uint8), np.array([257, 0])):
            with pytest.raises(ValueError):
                BitPlaneSource(2, 1, (plane,))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_roundtrip_property_qpsk(self, bit_list):
        const = QamConstellation.square(4)
        bits = np.array(bit_list, dtype=np.uint8)
        back = qam_demodulate(qam_modulate(bits, const), const, n_bits=bits.size)
        assert np.array_equal(back, bits)


def make_frame_setup(n_tx=16, n_users=8, err_var=0.0, seed=100, size=32):
    channel = draw_channel_set(n_tx, n_users, err_var, SeedSpec(seed))
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(size, size), dtype=np.uint8)
    return channel, split_bit_planes(img), img


class TestTransmitFrame:
    def test_noiseless_zf_perfect_csi_is_error_free(self):
        channel, source, img = make_frame_setup()
        cases = [(4, source, img)]
        rng = np.random.default_rng(100)
        # 17x33 and 9x9 pixels are no multiple of 4, 6 or 8 bits per symbol,
        # so every plane is padded; 9x8 is not.
        for order in (16, 64, 256):
            for height, width in ((33, 17), (8, 9), (9, 9)):
                other = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
                cases.append((order, split_bit_planes(other), other))
        for order, src, expected in cases:
            result = transmit_frame(
                src, channel, zf_precoder(channel.h_known), 1.0, 0.0,
                QamConstellation.square(order), SeedSpec(0),
            )
            assert np.all(result.ber == 0), (order, expected.shape)
            assert np.array_equal(result.image(), expected)

    def test_empirical_ber_matches_curve_for_zf_perfect_csi(self):
        channel, source, _ = make_frame_setup(size=128)
        precoder = zf_precoder(channel.h_known)
        # Pick the power so the weakest stream sits at BER 1e-2.
        gains = np.abs(np.diagonal(channel.h_known.conj().T @ precoder)) ** 2
        target = 2.3263**2  # Q(2.3263) ~ 1e-2
        power = target / gains.min()
        budget = link_budget(channel, precoder, power, 1.0)
        analytic = ber_from_sinr(budget.sinr, QamParams(4))
        totals = np.zeros(channel.n_users)
        frames = 4
        for frame in range(frames):
            result = transmit_frame(
                source, channel, precoder, power, 1.0,
                QamConstellation.square(4), SeedSpec(9000, frame),
            )
            totals += result.bit_errors
        empirical = totals / (frames * 128 * 128)
        keep = analytic >= 3e-3  # enough errors to resolve at this bit count
        assert keep.any()
        np.testing.assert_allclose(empirical[keep], analytic[keep], rtol=0.25)

    def test_identical_channels_hit_interference_floor(self):
        # Two users sharing one channel direction jam each other: per-axis
        # the interferer shifts the symbol by its own +-1 level, so even
        # noiselessly the error rate stays above Q(beta).
        h = np.zeros((4, 2), dtype=complex)
        h[0, :] = 1.0
        channel = ChannelSet(h, h, 0.0)
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        source = split_bit_planes(img)
        planes = (source.planes[0], source.planes[1])
        source2 = BitPlaneSource(64, 64, planes)
        result = transmit_frame(
            source2, channel, mf_precoder(h), 10_000.0, 1.0,
            QamConstellation.square(4), SeedSpec(4),
        )
        floor = q_function(QamParams(4).beta)
        assert np.all(result.ber >= floor)

    def test_mf_floor_vs_zf_decay_at_high_snr(self):
        channel, source, _ = make_frame_setup(size=64, seed=55)
        power = 10_000.0  # 40 dB over unit noise
        budget_mf = link_budget(channel, mf_precoder(channel.h_known), power, 1.0)
        assert budget_mf.i_precode.max() > 0.1 * power  # interference-limited
        ber = {}
        for name, build in [("mf", mf_precoder), ("zf", zf_precoder)]:
            result = transmit_frame(
                source, channel, build(channel.h_known), power, 1.0,
                QamConstellation.square(4), SeedSpec(5),
            )
            ber[name] = result.ber.mean()
        assert ber["mf"] > 10 * ber["zf"]

    def test_undetectable_stream_marked(self):
        # True channel orthogonal to the beam for user 0: zero effective gain.
        h_known = np.eye(2, dtype=complex)
        h_true = h_known.copy()
        h_true[:, 0] = [0.0, 1e-15]
        channel = ChannelSet(h_true, h_known, 0.0)
        img = np.full((8, 8), 255, dtype=np.uint8)
        src = split_bit_planes(img)
        source = BitPlaneSource(8, 8, (src.planes[0], src.planes[1]))
        result = transmit_frame(
            source, channel, mf_precoder(h_known), 1.0, 0.0,
            QamConstellation.square(4), SeedSpec(6),
        )
        assert result.ber[0] == 0.5
        assert np.all(result.received.planes[0] == 0)
        assert result.ber[1] == 0.0

    def test_known_gain_equalization(self):
        # Under perfect CSI the transmitter-known gain is the true gain; under
        # a CSI error it is not, and equalizing by it costs bit errors.
        for err_var in (0.0, 0.05):
            channel, source, _ = make_frame_setup(err_var=err_var)
            args = (
                source, channel, zf_precoder(channel.h_known), 30.0, 1.0,
                QamConstellation.square(4), SeedSpec(7),
            )
            true_gain = transmit_frame(*args)
            known_gain = transmit_frame(*args, equalize_with_known_gain=True)
            same = true_gain.received.planes.tobytes() == known_gain.received.planes.tobytes()
            assert same == (err_var == 0.0)
        assert known_gain.ber.mean() > true_gain.ber.mean()  # at err_var 0.05

    def test_determinism_and_bit_conservation(self):
        channel, source, img = make_frame_setup(err_var=0.05, seed=77)
        args = (
            source, channel, mf_precoder(channel.h_known), 5.0, 1.0,
            QamConstellation.square(4), SeedSpec(7),
        )
        a = transmit_frame(*args)
        b = transmit_frame(*args)
        assert np.array_equal(a.image(), b.image())
        np.testing.assert_array_equal(a.bit_errors, b.bit_errors)
        assert a.image().shape == img.shape
        assert all(p.size == img.size for p in a.received.planes)

    def test_block_splitting_does_not_change_result(self):
        # 521x521 px at 16-QAM is 67,861 symbols per stream: more than one
        # block, the last one partial and padded.
        channel, source, img = make_frame_setup(seed=88, size=521)
        precoder = zf_precoder(channel.h_known)
        const = QamConstellation.square(16)
        clean = transmit_frame(source, channel, precoder, 1.0, 0.0, const, SeedSpec(8))
        assert np.all(clean.ber == 0)
        assert np.array_equal(clean.image(), img)
        args = (source, channel, precoder, 10.0, 1.0, const, SeedSpec(8))
        noisy = transmit_frame(*args)
        again = transmit_frame(*args)
        assert np.array_equal(noisy.image(), again.image())
        np.testing.assert_array_equal(noisy.bit_errors, again.bit_errors)
        # A 128x128 frame is a single block; same channel, same power.
        _, small, _ = make_frame_setup(seed=88, size=128)
        one_block = transmit_frame(small, channel, precoder, 10.0, 1.0, const, SeedSpec(8))
        assert noisy.ber.mean() > 0
        assert abs(noisy.ber.mean() - one_block.ber.mean()) < 0.05

    def test_stream_count_mismatch_rejected(self):
        channel, source, _ = make_frame_setup(n_users=8)
        small = BitPlaneSource(source.width, source.height, source.planes[:8])
        other = draw_channel_set(8, 4, 0.0, SeedSpec(1))
        with pytest.raises(ValueError):
            transmit_frame(
                small, other, mf_precoder(other.h_known), 1.0, 1.0,
                QamConstellation.square(4), SeedSpec(0),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_non_finite_or_negative_power_or_noise(self, bad):
        # A NaN power used to give per-stream BERs above 0.5 without an error.
        channel, source, _ = make_frame_setup(size=8)
        f, qpsk = mf_precoder(channel.h_known), QamConstellation.square(4)
        with pytest.raises(ValueError, match="tx_power"):
            transmit_frame(source, channel, f, bad, 1.0, qpsk, SeedSpec(0))
        with pytest.raises(ValueError, match="noise_var"):
            transmit_frame(source, channel, f, 1.0, bad, qpsk, SeedSpec(0))

    def test_precoder_shape_mismatch_rejected_before_sending(self):
        # A (16, 9) precoder on a 16x8 channel used to fail inside the chunk
        # loop, in numpy's matmul, after the block's noise was drawn.
        channel, source, _ = make_frame_setup(size=8)
        f = np.ones((16, 9), dtype=complex)
        with pytest.raises(ValueError, match=r"\(16, 9\) != channel shape \(16, 8\)"):
            transmit_frame(source, channel, f, 1.0, 1.0, QamConstellation.square(4), SeedSpec(0))


# At the larger shapes, one (scheme, err_var, equalize_with_known_gain) per QAM order.
LARGE_FRAME_CASES = {4: ("mf", 0.05, False), 16: ("zf", 0.05, True), 64: ("zf", 0.0, False)}


def frame_cases(height, width):
    """transmit_frame argument tuples and equaliser flags of the golden digest at one shape.

    Up to 200x301 pixels every combination of QAM order, scheme, CSI error,
    noise and equaliser; above, LARGE_FRAME_CASES at both noise levels. At
    33x17 and 512x512, 1 and 3 streams through as many users as well.
    """
    img = np.random.default_rng(height * width).integers(0, 256, (height, width), dtype=np.uint8)
    source = split_bit_planes(img)
    small = height * width <= 200 * 301
    for order in (4, 16, 64):
        constellation = QamConstellation.square(order)
        for err_var in (0.0, 0.05):
            channel = draw_channel_set(16, 8, err_var, SeedSpec(order, height))
            for scheme, build in (("mf", mf_precoder), ("zf", zf_precoder)):
                f = build(channel.h_known)
                for noise_var in (0.0, 1.0):
                    for known in (False, True):
                        if small or LARGE_FRAME_CASES[order] == (scheme, err_var, known):
                            seed = SeedSpec(order * 7 + int(noise_var), width)
                            yield (source, channel, f, 30.0, noise_var, constellation, seed), known
    if (height, width) in ((33, 17), (512, 512)):
        for n_streams in (1, 3):
            channel = draw_channel_set(16, n_streams, 0.05, SeedSpec(n_streams, height))
            streams = BitPlaneSource(width, height, source.planes[:n_streams])
            yield (streams, channel, zf_precoder(channel.h_known), 30.0, 1.0,
                   QamConstellation.square(4), SeedSpec(n_streams, width)), False


def frame_digest(height, width) -> str:
    """sha256 over every golden case's received image, BERs and bit-error counts."""
    digest = hashlib.sha256()
    for args, known in frame_cases(height, width):
        result = transmit_frame(*args, equalize_with_known_gain=known)
        digest.update(result.image().tobytes() + result.ber.tobytes()
                      + result.bit_errors.astype(np.int64).tobytes())
    return digest.hexdigest()


# Recorded from the one-pass-per-block transmit_frame that kept one byte per
# bit (numpy 2.4.6); 400x331 from the transmit_frame that drew each block's
# normals into one buffer on the calling thread. 400x331 at 4-QAM is 66,200
# symbols per stream: a whole block and a short one of 664 symbols. The noise
# comes from Generator.standard_normal, whose values numpy may change between
# versions (NEP 19): re-record these on such an upgrade, and say so in
# CHANGES.md.
GOLDEN_FRAMES = {
    (8, 8):
        "074b86592da4c55c90754624287ddace6c589d6b5a265d0774d32e5265f82c44",
    (33, 17):
        "12b71a17052dbf095e023dc7eaaee9c98028a634169a00577ddda623ce59f28c",
    (128, 128):
        "52f6f1bc3d7a08d6a8e047508afa1015a5e3b8f4eb505c88eb05ef9b27c769b3",
    (200, 301):
        "d98b96b7539d309517f6dc480a220fcf8df1597e52cafd949de056bf81ad37e6",
    (400, 331):
        "cc1ec069fab125531858198d3cf261b25b1c93ffc2b26804a63f38f915225ab3",
    (512, 512):
        "59a5606ae95eaf5962b356c583a990440828ee7aecf978c367dd1d890bb72900",
    (1024, 1024):
        "8cff47d2499637c5218482dfdaa65c8dcd86b28f9062ac1fe5b5034312f880cd",
}


class TestFrameGolden:
    @pytest.mark.parametrize("shape", list(GOLDEN_FRAMES), ids="{0[0]}x{0[1]}".format)
    def test_frames_keep_their_recorded_bytes(self, shape):
        assert frame_digest(*shape) == GOLDEN_FRAMES[shape]

    @pytest.mark.parametrize("shape, chunks", [((8, 8), (1, 3)), ((33, 17), (1, 3, 100)),
                                               ((128, 128), (100, 1000))],
                             ids=["8x8", "33x17", "128x128"])
    def test_chunk_size_changes_no_result(self, shape, chunks, monkeypatch):
        # Chunks of 1 symbol (a one-column matrix product), 3 and 100 (a short
        # last chunk in every block), 1000 (the 128x128 frame's last chunk short).
        for symbols in chunks:
            monkeypatch.setattr(images, "_PIECE_BYTES", symbols * 16 * 8)
            assert frame_digest(*shape) == GOLDEN_FRAMES[shape], symbols

    def test_frame_holds_no_block_sized_arrays(self, traced_peak):
        # Three half-block slots of normals (4 MiB each at 8 streams) and the
        # received bytes (1 MiB), plus chunks: 13.6 MiB traced. One block's
        # normals in one buffer traced 9.5 MiB; one pass per block traced 32
        # MiB: complex symbols, received signal and noise of a whole block,
        # and every bit detected.
        channel = draw_channel_set(16, 8, 0.0, SeedSpec(3))
        args = (split_bit_planes(synthetic_test_image(1024, 1024)), channel,
                zf_precoder(channel.h_known), 30.0, 1.0, QamConstellation.square(4), SeedSpec(3))
        assert traced_peak(lambda: transmit_frame(*args)) <= 16 << 20


def frame_args(size):
    """transmit_frame arguments at 4-QAM: a 128x128 frame is one block, 512x512 two."""
    channel, source, _ = make_frame_setup(size=size)
    return (source, channel, zf_precoder(channel.h_known), 10.0, 1.0,
            QamConstellation.square(4), SeedSpec(12))


class TestFrameHelperThread:
    """A frame of more than one block draws the next block's real parts on a helper thread."""

    def test_only_a_frame_of_several_blocks_makes_an_executor(self, monkeypatch):
        made = []
        executor = transceiver.ThreadPoolExecutor
        monkeypatch.setattr(transceiver, "ThreadPoolExecutor",
                            lambda *args, **kwargs: made.append(kwargs) or executor(*args, **kwargs))
        transmit_frame(*frame_args(128))
        assert made == []
        transmit_frame(*frame_args(512))  # two blocks
        assert made == [{"max_workers": 1}]

    def test_frame_leaves_no_thread_running(self):
        before = threading.active_count()
        transmit_frame(*frame_args(512))
        assert threading.active_count() == before

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        raised, callers = [], []
        rng = SeedSpec.rng

        def failing(self, *subkey):
            if subkey == (1,):
                callers.append(threading.current_thread())
                raised.append(RuntimeError("block 1"))
                raise raised[-1]
            return rng(self, *subkey)

        monkeypatch.setattr(SeedSpec, "rng", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 1") as info:
            transmit_frame(*frame_args(512))
        assert info.value is raised[0]
        assert callers[0] is not threading.current_thread()
        assert threading.active_count() == before

    @pytest.mark.parametrize("late", [False, True], ids=["switch-1us", "helper-late"])
    def test_helper_timing_changes_no_byte(self, late, monkeypatch):
        # A 1 us switch interval interleaves the helper's and the caller's
        # bytecode as finely as the interpreter allows; a helper that starts
        # each draw 20 ms late finishes after the block it is drawn beside.
        caller, rng = threading.current_thread(), SeedSpec.rng

        def slow(self, *subkey):
            if threading.current_thread() is not caller:
                time.sleep(0.02)
            return rng(self, *subkey)

        interval = sys.getswitchinterval()
        if late:
            monkeypatch.setattr(SeedSpec, "rng", slow)
        else:
            sys.setswitchinterval(1e-6)
        try:
            assert frame_digest(400, 331) == GOLDEN_FRAMES[(400, 331)]
        finally:
            sys.setswitchinterval(interval)
