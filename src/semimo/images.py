"""8-bit grayscale images: PGM I/O and its command hook, a test card, distances, box means."""

from __future__ import annotations

import math
import re
import shlex
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "read_pgm",
    "write_pgm",
    "PgmHook",
    "synthetic_test_image",
    "image_distance",
    "to_uint8",
    "box_mean",
    "window_sums",
]

# Bytes of one piece of each hot loop that _pieces splits: a strip of input
# rows of window sums (box_mean, SSIM; 16 rows at 1024², one strip at 128²),
# a frame chunk's complex symbols (1024 symbols at 8 streams), or the oracle's
# normals and rows (512 trials at 8 users). Ten default SNR sweeps in one
# process took 1-4 minor faults per sweep with frame chunks of this size,
# 10.8k at 160 KiB, 33k at twice it and 40k in one pass per frame block: a
# larger 128² frame outgrows glibc's heap trim threshold and faults its heap
# in again on every frame. On a Xeon with 2 MiB of L2 per core, 512² and 1024²
# frames were about 5% faster at twice this budget and slower at half it; a
# 1024² SSIM took 42 ms in strips of 16 or 32 rows, 51 at 128 and 61 in one.
_PIECE_BYTES = 1 << 17

# A binary PGM header: "P5" at byte 0; width, height and maxval (signed, so
# that read_pgm can name a negative size), each after whitespace or "#"
# comments to the end of their line; then one whitespace byte, the raster's.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(-?\d+)" * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM file with maxval 1-255 into a 2-D uint8 array.

    Samples are returned as stored, not rescaled to 255. A header that does
    not match, a side below 1, a maxval outside 1-255, short pixel data or a
    sample above maxval raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path!s}: not a binary PGM header (P5, width, height, maxval)")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise ValueError(f"{path!s}: image size {width}x{height} has a side below 1")
    if not 0 < maxval <= 255:
        raise ValueError(f"{path!s}: maxval {maxval} outside 1-255 (8-bit PGM only)")
    stored = len(data) - header.end()
    if stored < width * height:
        raise ValueError(f"{path!s}: truncated pixel data ({stored} of {width * height} bytes)")
    pixels = np.frombuffer(data, np.uint8, width * height, header.end()).reshape(height, width)
    if pixels.max() > maxval:
        raise ValueError(f"{path!s}: sample {pixels.max()} above maxval {maxval}")
    return pixels.copy()


def write_pgm(path, image) -> None:
    """Write a 2-D array as a binary (P5) 8-bit PGM file."""
    img = to_uint8(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


class PgmHook:
    """Shared core of the external operator and metric hooks.

    A subclass sets its ``placeholders``, its ``error`` type and its
    ``timeout`` in seconds. Each ``{name}`` placeholder becomes the
    shell-quoted path of ``name.pgm`` in a fresh temporary directory; other
    braces, such as an awk program's, reach the command unchanged. A command
    that cannot be split or started, times out, exits nonzero or leaves an
    unreadable output image raises ``error``.
    """

    placeholders: tuple[str, ...]
    error: type[Exception]
    timeout: float

    def __init__(self, command_template: str):
        if not all(f"{{{name}}}" in command_template for name in self.placeholders):
            wanted = " and ".join(f"{{{name}}}" for name in self.placeholders)
            raise ValueError(f"command template must contain {wanted}")
        self.command_template = command_template

    def _run(self, images: dict, output: str | None = None):
        """Run on ``images`` (by placeholder); return stdout and the ``output`` image."""
        with tempfile.TemporaryDirectory(prefix="semimo-hook-") as tmp:
            paths = {name: str(Path(tmp) / f"{name}.pgm") for name in self.placeholders}
            for name, image in images.items():
                write_pgm(paths[name], image)
            # Quoted, so a path holding a space stays one argument.
            quoted = {name: shlex.quote(path) for name, path in paths.items()}
            cmd = re.sub(r"\{(\w+)\}", lambda m: quoted.get(m[1], m[0]), self.command_template)
            try:
                proc = subprocess.run(
                    shlex.split(cmd), capture_output=True, text=True, timeout=self.timeout
                )
            except (OSError, ValueError, subprocess.TimeoutExpired) as exc:
                raise self.error(f"external command failed to run: {exc}") from exc
            if proc.returncode != 0:
                raise self.error(
                    f"external command exited {proc.returncode}: {proc.stderr.strip()[:500]}"
                )
            try:
                return proc.stdout, read_pgm(paths[output]) if output else None
            except (OSError, ValueError) as exc:
                raise self.error(f"unusable output image: {exc}") from exc


def to_uint8(image) -> np.ndarray:
    """Round and clip to the 8-bit pixel range."""
    arr = np.asarray(image)
    if arr.dtype == np.uint8:
        return arr
    return np.clip(np.rint(arr), 0, 255).astype(np.uint8)


def synthetic_test_image(width: int = 128, height: int = 128) -> np.ndarray:
    """Deterministic test card: gradient, a disk, a dark box, texture bands.

    Pure arithmetic in the pixel coordinates, so every run and platform sees
    the same image and the repository ships no dataset. The card is painted
    region by region, each over the last: the horizontal gradient row on
    every row, the sinusoidal bands on their rows, the bright disk within
    its bounding rows and columns, then the dark box. Each pixel is rounded
    once, from the value of the last region that covers it.
    """
    if width < 8 or height < 8:
        raise ValueError("test image must be at least 8x8")
    x = np.linspace(0.0, 1.0, width)[None, :]
    y = np.linspace(0.0, 1.0, height)[:, None]
    img = np.empty((height, width), dtype=np.uint8)

    img[:] = to_uint8(32.0 + 180.0 * x)  # horizontal gradient base

    # Sinusoidal texture bands along the bottom strip.
    rows = np.flatnonzero((y >= 0.70) & (y <= 0.92))
    img[rows] = to_uint8(128.0 + 96.0 * np.sin(2 * np.pi * (9.0 * x + 4.0 * y[rows])))

    # Bright disk upper left: a pixel inside has each squared offset within the radius's.
    rows = np.flatnonzero((y - 0.32) ** 2 <= 0.17**2)
    cols = np.flatnonzero((x - 0.30) ** 2 <= 0.17**2)
    disk = (x[:, cols] - 0.30) ** 2 + (y[rows] - 0.32) ** 2 <= 0.17**2
    block = np.ix_(rows, cols)
    img[block] = np.where(disk, 235, img[block])

    # Dark rectangle upper right.
    rows = np.flatnonzero((y >= 0.12) & (y <= 0.40))
    cols = np.flatnonzero((x >= 0.58) & (x <= 0.88))
    img[np.ix_(rows, cols)] = 20

    return img


def image_distance(u, v) -> float:
    """Euclidean norm of the pixel difference on the [0, 1] intensity scale.

    All error levels, bias levels, and contraction thresholds use this norm,
    which keeps them comparable across image resolutions.
    """
    a, b = _image_pair(u, v)
    return float(np.linalg.norm(np.subtract(a, b, dtype=float).ravel() / 255.0))


def _image_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """``u`` and ``v`` as arrays, each in its own dtype, of one shape.

    Unequal shapes raise ValueError. Neither image is copied to float here:
    arithmetic with ``dtype=float`` reads their values as floats.
    """
    a = np.asarray(u)
    b = np.asarray(v)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def box_mean(a, size: int) -> np.ndarray:
    """Mean over a ``size``-wide box around every element, as a C-ordered float array.

    The box spans ``size // 2`` elements before each one and ``(size - 1) //
    2`` after, on every axis; outside the array the input reads its nearest
    edge value. Each strip of output rows along axis 0 copies its input rows
    (its output rows plus ``size - 1`` more, as floats) into one strip buffer,
    reused from strip to strip, and repeats their edge values there axis by
    axis, so the whole array is never padded. The strip's ``window_sums`` are
    divided once by ``size ** ndim`` into the one output array. The strips
    change no sum and no order of additions, so on integer-valued input each
    mean is correctly rounded, and every output has the bytes of one
    whole-array pass over the edge-padded input.
    """
    if size < 1:
        raise ValueError(f"box size must be >= 1, got {size}")
    a = np.asarray(a)
    if a.ndim == 0 or a.size == 0:  # nothing to pad
        return np.array(a, dtype=float)
    before, out = size // 2, np.empty(a.shape)
    inner = tuple(slice(before, before + n) for n in a.shape[1:])
    padded_row = tuple(n + size - 1 for n in a.shape[1:])
    pieces = _pieces(len(a), out.itemsize * math.prod(padded_row))
    buffer = np.empty((pieces[0][1] + size - 1, *padded_row))
    for start, stop in pieces:
        strip = buffer[: stop - start + size - 1]
        # The input rows the strip reads, and where they land in it.
        first, last = max(start - before, 0), min(stop + size - 1 - before, len(a))
        top = first - (start - before)
        strip[(slice(top, top + last - first), *inner)] = a[first:last]
        # Past each edge, every slice repeats the edge slice: axis 0, then the rest.
        edges = [(top, last - first)] + [(before, n) for n in a.shape[1:]]
        for axis, (lead, n) in enumerate(edges):
            along = strip.swapaxes(0, axis)
            along[:lead] = along[lead]
            along[lead + n :] = along[lead + n - 1]
        np.divide(window_sums(strip, size), size**a.ndim, out=out[start:stop])
    return out


def _pieces(n_items: int, item_nbytes: int) -> list[tuple[int, int]]:
    """(start, stop) of each piece of ``n_items`` items, in order, covering them once.

    A piece has ``_PIECE_BYTES // item_nbytes`` items (at least one), where
    ``item_nbytes`` is the bytes one item brings into the loop: an input row
    of window sums, a symbol of a frame, a trial of the oracle. Only the last
    piece may be shorter. Items of no bytes come in one piece.
    """
    step = max(_PIECE_BYTES // max(item_nbytes, 1), 1)
    return [(start, min(start + step, n_items)) for start in range(0, n_items, step)]


def window_sums(a, size: int) -> np.ndarray:
    """Sums over every fully contained ``size``-wide box, one axis after the other.

    An axis of n elements gives max(n - size + 1, 0) sums. Along it the window
    splits into power-of-two blocks by the binary digits of ``size``, smallest
    first, each a balanced pairwise sum: at size 8, ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7)).
    Sums of integer values are exact; float error is bounded by the tree depth.
    For size >= 2 the result is a new array, in the input's memory order.
    Each sum reads only its own window, so the sums over a strip of rows (the
    strip's output rows plus ``size - 1`` more) are bit for bit those rows of
    the sums over the whole array: ``box_mean`` and SSIM take them strip by
    strip, with these additions in this order.
    """
    sums = np.asarray(a, dtype=float)
    for axis in range(sums.ndim):
        # Only the newest block stays referenced, so each temporary is freed once read.
        block, sums, offset = sums.swapaxes(0, axis), None, 0
        count = max(len(block) - size + 1, 0)
        for k in range(size.bit_length()):
            if k:  # blocks 2**k wide from pairs of blocks 2**(k-1) wide
                half = 1 << (k - 1)
                block = block[: max(len(block) - half, 0)] + block[half:]
            if size >> k & 1:
                window = block[offset : offset + count]
                sums = window if sums is None else sums + window
                offset += 1 << k
        del window  # a view that would keep this axis's last block alive into the next
        sums = sums.swapaxes(0, axis)
    return sums
