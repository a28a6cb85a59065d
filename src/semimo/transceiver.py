"""Bit-plane image transport over the precoded downlink at symbol level."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SeedSpec
from .link import square_qam_bits
from .precoding import Precoder

__all__ = [
    "BitPlaneSource",
    "QamConstellation",
    "FrameResult",
    "split_bit_planes",
    "combine_bit_planes",
    "qam_modulate",
    "qam_demodulate",
    "transmit_frame",
    "UNDETECTABLE_GAIN",
]

UNDETECTABLE_GAIN = 1e-12


@dataclass(frozen=True)
class BitPlaneSource:
    """An 8-bit grayscale image as weight-ordered binary streams.

    ``planes[b]`` holds bit b of every pixel in row-major order (b = 0 is the
    least significant bit, weight 2^b), so recombining with those weights
    reproduces the pixel array exactly.
    """

    width: int
    height: int
    planes: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n = self.width * self.height
        for p in self.planes:
            if p.size != n:
                raise ValueError(
                    f"plane length {p.size} != width*height = {n}"
                )

    @property
    def n_streams(self) -> int:
        return len(self.planes)

    def to_image(self) -> np.ndarray:
        """Recombine the planes back into a height x width uint8 image."""
        return combine_bit_planes(self.planes).reshape(self.height, self.width)


def split_bit_planes(image, n_streams: int = 8) -> BitPlaneSource:
    """Split an 8-bit grayscale image into its bit planes.

    Only 8 streams are supported: one per bit of an 8-bit pixel.
    """
    if n_streams != 8:
        raise ValueError(f"only 8-bit sources are supported, got n_streams={n_streams}")
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {img.shape}")
    if img.dtype != np.uint8:
        if np.any((img < 0) | (img > 255)) or not np.issubdtype(img.dtype, np.integer):
            raise ValueError("image must hold integers in [0, 255]")
        img = img.astype(np.uint8)
    flat = img.ravel()
    planes = tuple(((flat >> b) & 1).astype(np.uint8) for b in range(8))
    height, width = img.shape
    return BitPlaneSource(width, height, planes)


def combine_bit_planes(planes) -> np.ndarray:
    """Weighted recombination sum_b 2^b * plane_b into flat uint8 pixels."""
    if len(planes) == 0 or len(planes) > 8:
        raise ValueError(f"need between 1 and 8 planes, got {len(planes)}")
    length = len(planes[0])
    acc = np.zeros(length, dtype=np.uint8)
    for b, plane in enumerate(planes):
        bits = np.asarray(plane, dtype=np.uint8)
        if bits.size != length:
            raise ValueError(f"plane {b} length {bits.size} != {length}")
        if np.any(bits > 1):
            raise ValueError(f"plane {b} holds non-binary values")
        acc += bits << b
    return acc


def _gray(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


@dataclass(frozen=True)
class QamConstellation:
    """Gray-labeled square M-QAM with unit average symbol energy.

    ``points[label]`` is the symbol whose bit label (MSB first) is the
    integer ``label``; the first half of the bits selects the in-phase level,
    the second half the quadrature level, each axis Gray-coded so that
    nearest neighbors differ in exactly one bit.
    """

    order: int
    points: np.ndarray
    bits_per_symbol: int
    levels: np.ndarray  # per-axis amplitudes, ascending by level index
    gray_of_index: np.ndarray
    index_of_gray: np.ndarray

    @classmethod
    def square(cls, order: int) -> "QamConstellation":
        bits_per_symbol = square_qam_bits(order)
        per_axis = bits_per_symbol // 2
        n_levels = 1 << per_axis
        raw = np.arange(-(n_levels - 1), n_levels, 2, dtype=float)
        levels = raw / np.sqrt(2.0 * np.mean(raw**2))  # E|x|^2 = 1 exactly
        idx = np.arange(n_levels)
        gray_of_index = _gray(idx)
        index_of_gray = np.empty(n_levels, dtype=int)
        index_of_gray[gray_of_index] = idx

        points = np.empty(order, dtype=np.complex128)
        for i_idx in idx:
            for q_idx in idx:
                label = (int(gray_of_index[i_idx]) << per_axis) | int(
                    gray_of_index[q_idx]
                )
                points[label] = levels[i_idx] + 1j * levels[q_idx]
        points.flags.writeable = False
        levels.flags.writeable = False
        return cls(order, points, bits_per_symbol, levels, gray_of_index, index_of_gray)


def _bits_to_labels(bits: np.ndarray, width: int) -> np.ndarray:
    weights = 1 << np.arange(width - 1, -1, -1)
    return bits @ weights


def _labels_to_bits(labels: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1)
    return ((labels[:, None] >> shifts) & 1).astype(np.uint8)


def qam_modulate(bits, constellation: QamConstellation) -> np.ndarray:
    """Map a bit stream to constellation symbols, zero-padding the tail.

    The pad length is ``(-len(bits)) % bits_per_symbol``; pass the original
    bit count to qam_demodulate to strip it again.
    """
    b = np.asarray(bits, dtype=np.uint8).ravel()
    m = constellation.bits_per_symbol
    pad = (-b.size) % m
    if pad:
        b = np.concatenate([b, np.zeros(pad, dtype=np.uint8)])
    groups = b.reshape(-1, m)
    per_axis = m // 2
    i_idx = constellation.index_of_gray[_bits_to_labels(groups[:, :per_axis], per_axis)]
    q_idx = constellation.index_of_gray[_bits_to_labels(groups[:, per_axis:], per_axis)]
    return constellation.levels[i_idx] + 1j * constellation.levels[q_idx]


def qam_demodulate(
    symbols, constellation: QamConstellation, n_bits: int | None = None
) -> np.ndarray:
    """Minimum-distance detection back to bits.

    Square QAM has rectangular decision regions, so slicing each axis to the
    nearest level is exactly the minimum-Euclidean-distance decision. Returns
    the first ``n_bits`` bits when given (dropping the modulation pad).
    """
    z = np.asarray(symbols, dtype=np.complex128).ravel()
    levels = constellation.levels
    edges = (levels[1:] + levels[:-1]) / 2.0
    i_idx = np.searchsorted(edges, z.real)
    q_idx = np.searchsorted(edges, z.imag)
    per_axis = constellation.bits_per_symbol // 2
    i_bits = _labels_to_bits(constellation.gray_of_index[i_idx], per_axis)
    q_bits = _labels_to_bits(constellation.gray_of_index[q_idx], per_axis)
    bits = np.concatenate([i_bits, q_bits], axis=1).ravel()
    return bits[:n_bits] if n_bits is not None else bits


@dataclass(frozen=True)
class FrameResult:
    """Outcome of one frame transmission."""

    received: BitPlaneSource
    ber: np.ndarray  # per-stream empirical bit error rate
    bit_errors: np.ndarray  # per-stream error counts
    bits_per_stream: int

    def image(self) -> np.ndarray:
        return self.received.to_image()


def transmit_frame(
    source: BitPlaneSource,
    channel: ChannelSet,
    precoder: Precoder,
    tx_power: float,
    noise_var: float,
    constellation: QamConstellation,
    seed: SeedSpec,
    equalize_with_known_gain: bool = False,
    block_len: int = 1 << 16,
) -> FrameResult:
    """Send each bit plane to its user through the true channel and detect.

    Stream k rides user k: all users transmit symbol-synchronously with equal
    power, so user k receives its own stream through h_k^H f_k plus every
    other stream through h_k^H f_j, plus noise. Detection divides by the
    per-user effective gain (true gain by default, transmitter-known gain
    when ``equalize_with_known_gain``) and slices to the nearest
    constellation point. Noise comes in per-block substreams of ``seed``: the
    same seed and ``block_len`` always give the same result, but a frame
    longer than ``block_len`` symbols gets different noise under a different
    ``block_len``.

    A user whose effective gain magnitude falls below UNDETECTABLE_GAIN gets
    its plane zeroed and a BER of 0.5 assigned.
    """
    n_users = channel.n_users
    if source.n_streams != n_users:
        raise ValueError(
            f"source has {source.n_streams} streams but channel serves {n_users} users"
        )
    if tx_power <= 0 or noise_var < 0:
        raise ValueError("need tx_power > 0 and noise_var >= 0")

    n_bits = source.width * source.height
    symbols = np.stack(
        [qam_modulate(plane, constellation) for plane in source.planes]
    )  # (K, T)
    n_sym = symbols.shape[1]

    amp = np.sqrt(tx_power)
    cross = channel.h_true.conj().T @ precoder.matrix_f  # cross[k, j] = h_k^H f_j
    received = amp * (cross @ symbols)
    if noise_var > 0:
        noise_scale = np.sqrt(noise_var / 2.0)
        for block, start in enumerate(range(0, n_sym, block_len)):
            stop = min(start + block_len, n_sym)
            rng = seed.rng(block)
            shape = (n_users, stop - start)
            received[:, start:stop] += noise_scale * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )

    if equalize_with_known_gain:
        gains = amp * np.diagonal(channel.h_known.conj().T @ precoder.matrix_f)
    else:
        gains = amp * np.diagonal(cross)

    planes = []
    bit_errors = np.empty(n_users, dtype=np.int64)
    ber = np.empty(n_users)
    for k in range(n_users):
        sent = source.planes[k]
        if np.abs(gains[k]) < UNDETECTABLE_GAIN:
            planes.append(np.zeros(n_bits, dtype=np.uint8))
            ber[k] = 0.5
            bit_errors[k] = (n_bits + 1) // 2
            continue
        detected = qam_demodulate(received[k] / gains[k], constellation, n_bits)
        errors = int(np.count_nonzero(detected != sent))
        planes.append(detected)
        bit_errors[k] = errors
        ber[k] = errors / n_bits

    out = BitPlaneSource(source.width, source.height, tuple(planes))
    return FrameResult(out, ber, bit_errors, n_bits)
