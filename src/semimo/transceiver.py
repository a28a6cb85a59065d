"""Bit-plane image transport over the precoded downlink at symbol level."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SeedSpec
from .images import _pieces
from .link import _check_link, square_qam_bits

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
# Bit b of a pixel byte is stream b's bit.
_SHIFTS = np.arange(8, dtype=np.uint8)[:, None]


def _as_bits(bits) -> np.ndarray:
    """``bits`` as uint8, rejecting any value other than 0 or 1 before the cast."""
    b = np.asarray(bits)
    if b.size and not ((b.dtype == np.uint8 and b.max() <= 1) or np.all((b == 0) | (b == 1))):
        raise ValueError("bits must be 0 or 1")
    return b.astype(np.uint8, copy=False)


def _stream_bits(pixels: np.ndarray, n_streams: int, out=None) -> np.ndarray:
    """Row b of the ``(n_streams, len(pixels))`` result is bit b of every byte."""
    out = np.right_shift(pixels, _SHIFTS[:n_streams], out=out)
    out &= 1
    return out


def _pixel_bytes(bits: np.ndarray, out=None) -> np.ndarray:
    """The bytes whose bit b is row b of ``bits`` (0 or 1), for 1 to 8 rows."""
    return np.bitwise_or.reduce(bits << _SHIFTS[: len(bits)], axis=0, out=out)


class BitPlaneSource:
    """An 8-bit grayscale image as weight-ordered binary streams.

    Stream b is bit b of every pixel in row-major order (b = 0 is the least
    significant bit, weight 2^b), for 1 to 8 streams. They are stored once,
    as ``pixels``: one read-only uint8 array of ``width*height`` bytes whose
    bit b is stream b's bit (the bits above the last stream are 0), so
    splitting an image and recombining it are byte copies. ``planes`` is the
    streams as a read-only ``(n_streams, width*height)`` array of 0s and 1s,
    built when read. The constructor takes any array or sequence of 1 to 8
    equal-length rows of 0s and 1s; it is checked once, here.
    """

    def __init__(self, width: int, height: int, planes):
        n = width * height
        planes = np.asarray(planes)
        if planes.ndim != 2 or planes.shape[1] != n or not 1 <= len(planes) <= 8:
            raise ValueError(
                f"expected 1 to 8 bit planes of width*height = {n}, got shape {planes.shape}"
            )
        self.width, self.height, self.n_streams = width, height, len(planes)
        self.pixels = _pixel_bytes(_as_bits(planes))
        self.pixels.flags.writeable = False

    @classmethod
    def _from_pixels(cls, width: int, height: int, n_streams: int, pixels) -> "BitPlaneSource":
        """A source on ``pixels``, a uint8 array it takes over and makes read-only, unchecked."""
        source = cls.__new__(cls)
        source.width, source.height, source.n_streams, source.pixels = width, height, n_streams, pixels
        pixels.flags.writeable = False
        return source

    @property
    def planes(self) -> np.ndarray:
        planes = _stream_bits(self.pixels, self.n_streams)
        planes.flags.writeable = False
        return planes

    def to_image(self) -> np.ndarray:
        """The pixels as a new height x width uint8 image."""
        return self.pixels.reshape(self.height, self.width).copy()


def split_bit_planes(image) -> BitPlaneSource:
    """Split an 8-bit grayscale image into its 8 bit planes (a copy of its bytes)."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {img.shape}")
    if img.dtype != np.uint8:
        if np.any((img < 0) | (img > 255)) or not np.issubdtype(img.dtype, np.integer):
            raise ValueError("image must hold integers in [0, 255]")
    height, width = img.shape
    pixels = np.array(img, dtype=np.uint8, order="C").reshape(-1)
    return BitPlaneSource._from_pixels(width, height, 8, pixels)


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


class _Noise:
    """The noise of an ordered list of frame seeds, block by block in stream order.

    The frames share the shape of the first one taken. Block b of the frame
    with seed s draws from ``s.rng(b)``: its real parts, then its imaginary
    parts. Part 2j + h of the stream, block j's real (h = 0) or imaginary (h
    = 1) parts, goes into slot (2j + h) % len(slots). A stream of one block
    has two slots and starts no thread. Otherwise one helper thread draws
    block j + 1 while block j is sent: its real parts into the third slot, or,
    where every frame is one block, both halves into a second pair of slots.
    The helper runs only ``SeedSpec.rng`` and ``standard_normal``. The first
    frame allocates the slots and starts the helper, on the calling thread;
    later frames reuse them. Closing joins the helper.
    """

    def __init__(self, seeds: list[SeedSpec]):
        self._seeds = seeds
        self._frames = 0  # frames started
        self._next = 0  # the next block handed out, counted over the stream
        self._shape = self._n_blocks = self._total = self._slots = None  # set by the first frame
        self._halves_ahead = 1  # halves of a block drawn ahead: 2 with four slots
        self._helper = None
        self._ahead = None  # the helper's draw of block self._next

    def __enter__(self) -> "_Noise":
        return self

    def __exit__(self, *exc) -> None:
        if self._helper is not None:
            self._helper.shutdown(cancel_futures=True)

    def _part(self, j: int, half: int) -> np.ndarray:
        n_users, n_symbols = self._shape
        count = min(_BLOCK, n_symbols - (j % self._n_blocks) * _BLOCK)
        return self._slots[(2 * j + half) % len(self._slots), : n_users * count].reshape(
            n_users, count)

    def _draw(self, j: int) -> np.random.Generator:
        """Block j's generator, with the parts drawn that its slots hold ahead."""
        rng = self._seeds[j // self._n_blocks].rng(j % self._n_blocks)
        for half in range(self._halves_ahead):
            rng.standard_normal(out=self._part(j, half))
        return rng

    def frame(self, seed: SeedSpec, n_users: int, n_symbols: int):
        """Yield each block's (real, imaginary) parts, ``(n_users, count)``, of the next frame."""
        if self._shape is None:
            self._shape = n_users, n_symbols
            self._n_blocks = -(-n_symbols // _BLOCK)
            self._total = len(self._seeds) * self._n_blocks
            count = 2 if self._total == 1 else 4 if self._n_blocks == 1 else 3
            self._slots = np.empty((count, n_users * min(_BLOCK, n_symbols)))
            self._halves_ahead = 2 if count == 4 else 1
            if self._total > 1:
                self._helper = ThreadPoolExecutor(max_workers=1)
        if seed != self._seeds[self._frames] or (n_users, n_symbols) != self._shape:
            raise RuntimeError(f"frame {seed} of shape {(n_users, n_symbols)} is not the "
                               "next frame of this noise stream")
        self._frames += 1
        # The helper's draw, like the calling thread's, runs in numpy C code
        # that releases the GIL. It is submitted before the imaginary parts are
        # drawn, so it starts while the calling thread is itself outside the
        # GIL; behind the chunk loop it would wait for the GIL first.
        for _ in range(self._n_blocks):
            j, ahead = self._next, self._ahead
            self._next, self._ahead = j + 1, None
            rng = ahead.result() if ahead is not None else self._draw(j)
            if self._next < self._total:
                self._ahead = self._helper.submit(self._draw, self._next)
            if self._halves_ahead == 1:
                rng.standard_normal(out=self._part(j, 1))
            yield self._part(j, 0), self._part(j, 1)


# The noise stream of the sweep running in this context (sweeps._run_grid).
_SWEEP_NOISE: ContextVar[_Noise | None] = ContextVar("_SWEEP_NOISE", default=None)


@contextmanager
def _sweep_noise(seeds: list[SeedSpec]):
    """Within the block, ``transmit_frame`` takes its noise from one stream over ``seeds``.

    The frames must be sent in the order of ``seeds``, each with its own seed.
    """
    with _Noise(seeds) as noise:
        token = _SWEEP_NOISE.set(noise)
        try:
            yield
        finally:
            _SWEEP_NOISE.reset(token)


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
    number of symbols, each with its own noise substream of ``seed`` (its real
    parts, then its imaginary parts, drawn as ``complex_gaussian`` draws
    them), so the same seed and the same frame size always give the same
    result. The noise is drawn at every ``noise_var``: at 0 its entries are
    ±0, which leave each detected bit as it is.

    Each block is sent in chunks of symbols, the pieces ``images._pieces``
    cuts at 16 bytes per symbol and stream (1024 symbols at 8 streams): a
    chunk's bits are read from the source's pixel bytes, modulated,
    precoded, scaled, given their noise, equalised and detected, and the
    detected bits are written into the received pixel bytes. Every symbol
    takes the same operations as in one pass over the block, so no result
    depends on the chunk size.

    In a frame of more than one block (above 65,536 symbols per stream), one
    helper thread draws block b + 1's real parts while block b is sent; it
    is joined before the call returns or raises, and its error is raised
    here. A one-block frame starts no thread. Each block's draws come from
    its own substream in the same order, so the result does not depend on
    the helper. The call holds three half-block slots of normals, each one
    block's real or imaginary parts (12 MiB at 8 streams; two slots for a
    one-block frame), and the received bytes; nothing else is larger than a
    chunk. Inside a one-worker sweep (``sweeps._run_grid``) the frame takes
    its noise from the sweep's one stream over every frame seed instead: the
    helper also draws the next frame's first block while this frame's last
    block is sent and scored, both halves of it where every frame is one
    block (four slots, allocated by the sweep's first frame and reused). The
    bytes are the same either way.

    A user whose effective gain magnitude falls below UNDETECTABLE_GAIN gets
    its plane zeroed and a BER of 0.5 assigned.
    """
    n_users = channel.n_users
    if source.n_streams != n_users:
        raise ValueError(
            f"source has {source.n_streams} streams but channel serves {n_users} users"
        )
    _check_link(channel, f, tx_power)
    if not 0 <= noise_var < np.inf:  # NaN fails every comparison
        raise ValueError(f"noise_var must be finite and >= 0, got {noise_var}")

    n_bits = source.width * source.height
    m = constellation.bits_per_symbol
    n_symbols = -(-n_bits // m)
    amp = np.sqrt(tx_power)
    scale = np.sqrt(noise_var / 2.0)  # complex_gaussian's scale, multiplied as a complex
    cross = channel.h_true.conj().T @ f  # cross[k, j] = h_k^H f_j
    known = channel.h_known.conj().T @ f if equalize_with_known_gain else cross
    gains = amp * np.diagonal(known)
    undetectable = np.abs(gains) < UNDETECTABLE_GAIN
    gains[undetectable] = 1.0
    gains = gains[:, None]

    # The call's buffers: the received bytes, slots of one block's real or
    # imaginary normals (_Noise) and, per block, one chunk's sent bits (a new
    # array per chunk took 9.4k-10.6k minor faults per default sweep). The
    # received bytes outlive the call, so they come first: after the normals,
    # they left perfbench image_transport's peak_rss_mb at 70.2 MB, against
    # 65.1 MB.
    received = np.empty(n_bits, dtype=np.uint8)
    # errors[v]: the pixels whose sent and received bytes differ by XOR v.
    errors = np.zeros(256, dtype=np.intp)

    shared = _SWEEP_NOISE.get()
    with nullcontext(shared) if shared is not None else _Noise([seed]) as stream:
        for block, (real, imag) in enumerate(stream.frame(seed, n_users, n_symbols)):
            first = block * _BLOCK
            chunks = _pieces(real.shape[1], 16 * n_users)  # 16 bytes per complex symbol and stream
            sent = np.empty((n_users, chunks[0][1] * m), dtype=np.uint8)
            for start, stop in chunks:
                lo, hi = (first + start) * m, min((first + stop) * m, n_bits)
                sent_bytes = source.pixels[lo:hi]
                bits = _stream_bits(sent_bytes, n_users, out=sent[:, : hi - lo])
                symbols = qam_modulate(bits, constellation)
                z = cross @ symbols
                z *= amp
                noise = symbols  # precoded, so their array can take the chunk's noise
                noise.real = real[:, start:stop]
                noise.imag = imag[:, start:stop]
                noise *= scale
                z += noise
                z /= gains
                detected = qam_demodulate(z, constellation, hi - lo)
                detected[undetectable] = 0
                got = _pixel_bytes(detected, out=received[lo:hi])
                errors += np.bincount(got ^ sent_bytes, minlength=256)

    # Stream b's errors: the pixels whose XOR has bit b set.
    bit_errors = _stream_bits(np.arange(256, dtype=np.uint8), n_users) @ errors
    bit_errors[undetectable] = (n_bits + 1) // 2
    ber = bit_errors / n_bits
    ber[undetectable] = 0.5
    out = BitPlaneSource._from_pixels(source.width, source.height, n_users, received)
    return FrameResult(out, ber, bit_errors, n_bits)
