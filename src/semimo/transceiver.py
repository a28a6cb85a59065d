"""Bit-plane image transport over the precoded downlink at symbol level."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SeedSpec, complex_gaussian
from .link import square_qam_bits

__all__ = [
    "BitPlaneSource",
    "QamConstellation",
    "FrameResult",
    "split_bit_planes",
    "qam_modulate",
    "qam_demodulate",
    "transmit_frame",
    "UNDETECTABLE_GAIN",
]

UNDETECTABLE_GAIN = 1e-12

# Symbols per stream in one pass of transmit_frame; block b draws its noise
# from seed.rng(b).
_BLOCK = 1 << 16


def _as_bits(bits) -> np.ndarray:
    """``bits`` as uint8, rejecting any value other than 0 or 1 before the cast."""
    b = np.asarray(bits)
    if b.size and not ((b.dtype == np.uint8 and b.max() <= 1) or np.all((b == 0) | (b == 1))):
        raise ValueError("bits must be 0 or 1")
    return b.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class BitPlaneSource:
    """An 8-bit grayscale image as weight-ordered binary streams.

    ``planes`` is one read-only ``(n_streams, width*height)`` uint8 array of
    1 to 8 rows: ``planes[b]`` holds bit b of every pixel in row-major order
    (b = 0 is the least significant bit, weight 2^b), so recombining with
    those weights reproduces the pixel array exactly. Any array or sequence
    of equal-length rows is accepted; it is checked once, here.
    """

    width: int
    height: int
    planes: np.ndarray

    def __post_init__(self) -> None:
        n = self.width * self.height
        planes = np.asarray(self.planes)
        if planes.ndim != 2 or planes.shape[1] != n or not 1 <= len(planes) <= 8:
            raise ValueError(
                f"expected 1 to 8 bit planes of width*height = {n}, got shape {planes.shape}"
            )
        planes = _as_bits(planes).view()  # a view: the caller's array stays writeable
        planes.flags.writeable = False
        object.__setattr__(self, "planes", planes)

    @property
    def n_streams(self) -> int:
        return len(self.planes)

    def to_image(self) -> np.ndarray:
        """Recombine the planes back into a height x width uint8 image."""
        pixels = self.planes[-1].copy()
        for plane in self.planes[-2::-1]:  # most significant first, in place
            pixels <<= 1
            pixels |= plane
        return pixels.reshape(self.height, self.width)


def split_bit_planes(image) -> BitPlaneSource:
    """Split an 8-bit grayscale image into its 8 bit planes."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {img.shape}")
    if img.dtype != np.uint8:
        if np.any((img < 0) | (img > 255)) or not np.issubdtype(img.dtype, np.integer):
            raise ValueError("image must hold integers in [0, 255]")
        img = img.astype(np.uint8)
    flat = img.ravel()
    planes = np.empty((8, flat.size), dtype=np.uint8)
    for b, plane in enumerate(planes):
        np.right_shift(flat, b, out=plane)
        plane &= 1
    height, width = img.shape
    return BitPlaneSource(width, height, planes)


@dataclass(frozen=True)
class QamConstellation:
    """Gray-labeled square M-QAM with unit average symbol energy.

    ``points`` is the one label table: ``points[label]`` is the symbol whose
    bit label (MSB first) is the integer ``label``. The first half of the
    bits is the Gray code of the in-phase level index, the second half that
    of the quadrature level index, so nearest neighbors differ in exactly one
    bit.
    """

    points: np.ndarray
    bits_per_symbol: int
    levels: np.ndarray  # per-axis amplitudes, ascending by level index

    @classmethod
    def square(cls, order: int) -> "QamConstellation":
        bits_per_symbol = square_qam_bits(order)
        n_levels = 1 << (bits_per_symbol // 2)
        raw = np.arange(-(n_levels - 1), n_levels, 2, dtype=float)
        levels = raw / np.sqrt(2.0 * np.mean(raw**2))  # E|x|^2 = 1 exactly
        axis = np.empty(n_levels)  # axis[per-axis label] = amplitude
        axis[np.arange(n_levels) ^ (np.arange(n_levels) >> 1)] = levels  # Gray codes
        points = (axis[:, None] + 1j * axis[None, :]).ravel()
        points.flags.writeable = False
        levels.flags.writeable = False
        return cls(points, bits_per_symbol, levels)


def qam_modulate(bits, constellation: QamConstellation) -> np.ndarray:
    """Map bit streams along the last axis to symbols, zero-padding each tail.

    Each group of ``bits_per_symbol`` bits, MSB first, is a label into
    ``constellation.points``; a ``(K, n)`` input maps row by row to ``(K,
    ceil(n / bits_per_symbol))`` symbols. The pad length is ``(-n) %
    bits_per_symbol``; pass the original bit count to qam_demodulate to strip
    it again. Any bit other than 0 or 1 is a ValueError.
    """
    b = np.atleast_1d(_as_bits(bits))
    m = constellation.bits_per_symbol
    pad = (-b.shape[-1]) % m
    if pad:
        b = np.concatenate([b, np.zeros(b.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    groups = b.reshape(b.shape[:-1] + (-1, m))
    labels = groups[..., 0].astype(np.intp)
    for j in range(1, m):  # MSB first; flat passes beat an int64 matmul over (..., m)
        labels <<= 1
        labels |= groups[..., j]
    return constellation.points[labels]


def qam_demodulate(
    symbols, constellation: QamConstellation, n_bits: int | None = None
) -> np.ndarray:
    """Minimum-distance detection back to bits, along the last axis.

    Square QAM has rectangular decision regions, so slicing each axis to the
    nearest level is exactly the minimum-Euclidean-distance decision. Each
    row of a ``(K, n)`` input gives ``n * bits_per_symbol`` bits, trimmed to
    the first ``n_bits`` when given (dropping the modulation pad).

    Gray bit j of an axis flips at each edge t with t + 1 = 2^j (mod
    2^(j+1)): it is the parity of ``~(x <= edge)`` (NaN lies past every
    edge) over ``edges[2^j - 1 :: 2^(j+1)]``. The parities of ``x <= edge``
    go straight into the bit array; only each axis's MSB has an odd edge
    count, so one in-place not fixes those columns and no temporary is made.
    """
    z = np.asarray(symbols, dtype=np.complex128)
    edges = (constellation.levels[1:] + constellation.levels[:-1]) / 2.0
    half = constellation.bits_per_symbol // 2
    bits = np.empty(z.shape + (2 * half,), dtype=np.uint8)
    flags = bits.view(bool)
    for offset, x in ((0, z.real), (half, z.imag)):
        for p in range(half):  # MSB first: column offset + p holds Gray bit half - 1 - p
            step = 1 << (half - 1 - p)
            first, *rest = edges[step - 1 :: 2 * step]
            np.less_equal(x, first, out=flags[..., offset + p])
            for edge in rest:
                np.not_equal(flags[..., offset + p], x <= edge, out=flags[..., offset + p])
    msb = flags[..., ::half]  # one view as input and output: two raised csi_sweep's peak RSS
    np.logical_not(msb, out=msb)
    bits = bits.reshape(z.shape[:-1] + (-1,))
    return bits[..., :n_bits] if n_bits is not None else bits


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
    f: np.ndarray,
    tx_power: float,
    noise_var: float,
    constellation: QamConstellation,
    seed: SeedSpec,
    equalize_with_known_gain: bool = False,
) -> FrameResult:
    """Send each bit plane to its user through ``f`` and the true channel, and detect.

    Stream k rides user k: all users transmit symbol-synchronously with equal
    power, so user k receives its own stream through h_k^H f_k plus every
    other stream through h_k^H f_j, plus noise. Detection divides by the
    per-user effective gain (true gain by default, transmitter-known gain
    when ``equalize_with_known_gain``) and slices to the nearest
    constellation point. All K streams go through in blocks of a fixed
    number of symbols, each with its own noise substream of ``seed``, so the
    same seed and the same frame size always give the same result. The noise
    is drawn at every ``noise_var``: at 0 its entries are ±0, which leave
    each detected bit as it is.

    A user whose effective gain magnitude falls below UNDETECTABLE_GAIN gets
    its plane zeroed and a BER of 0.5 assigned.
    """
    n_users = channel.n_users
    if source.n_streams != n_users:
        raise ValueError(
            f"source has {source.n_streams} streams but channel serves {n_users} users"
        )
    if not (0 < tx_power < np.inf and 0 <= noise_var < np.inf):  # NaN fails every comparison
        raise ValueError(f"need finite tx_power > 0 and noise_var >= 0: {tx_power}, {noise_var}")

    n_bits = source.width * source.height
    sent = source.planes  # (K, n_bits)
    amp = np.sqrt(tx_power)
    cross = channel.h_true.conj().T @ f  # cross[k, j] = h_k^H f_j
    known = channel.h_known.conj().T @ f if equalize_with_known_gain else cross
    gains = amp * np.diagonal(known)
    undetectable = np.abs(gains) < UNDETECTABLE_GAIN
    gains[undetectable] = 1.0

    detected = np.empty(sent.shape, dtype=np.uint8)
    step = _BLOCK * constellation.bits_per_symbol
    for block, start in enumerate(range(0, n_bits, step)):
        bits = sent[:, start:start + step]
        received = cross @ qam_modulate(bits, constellation)
        received *= amp  # in place: one block-sized array fewer at the peak
        received += complex_gaussian(seed.rng(block), received.shape, noise_var)
        received /= gains[:, None]
        detected[:, start:start + step] = qam_demodulate(received, constellation, bits.shape[1])

    detected[undetectable] = 0
    bit_errors = np.count_nonzero(detected != sent, axis=1)
    bit_errors[undetectable] = (n_bits + 1) // 2
    ber = bit_errors / n_bits
    ber[undetectable] = 0.5
    out = BitPlaneSource(source.width, source.height, detected)
    return FrameResult(out, ber, bit_errors, n_bits)
