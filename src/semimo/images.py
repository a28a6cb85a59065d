"""8-bit grayscale image helpers: PGM I/O, a synthetic test card, distances, box means."""

from __future__ import annotations

import numpy as np

__all__ = [
    "read_pgm",
    "write_pgm",
    "synthetic_test_image",
    "image_distance",
    "to_uint8",
    "box_mean",
]


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM file into a 2-D uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields: list[bytes] = []
    pos = 0
    # Header: magic, width, height, maxval, separated by whitespace/comments.
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    if fields[0] != b"P5":
        raise ValueError(f"{path!s}: not a binary PGM (magic {fields[0]!r})")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if not 0 < maxval <= 255:
        raise ValueError(f"{path!s}: only 8-bit PGM supported (maxval {maxval})")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    if pixels.size != width * height:
        raise ValueError(f"{path!s}: truncated pixel data")
    return pixels.reshape(height, width).copy()


def write_pgm(path, image) -> None:
    """Write a 2-D array as a binary (P5) 8-bit PGM file."""
    img = to_uint8(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def to_uint8(image) -> np.ndarray:
    """Round and clip to the 8-bit pixel range."""
    arr = np.asarray(image)
    if arr.dtype == np.uint8:
        return arr
    return np.clip(np.rint(arr), 0, 255).astype(np.uint8)


def synthetic_test_image(width: int = 128, height: int = 128) -> np.ndarray:
    """Deterministic test card: gradient, a disk, a dark box, texture bands.

    Pure arithmetic in the pixel coordinates, so every run and platform sees
    the same image and the repository ships no dataset.
    """
    if width < 8 or height < 8:
        raise ValueError("test image must be at least 8x8")
    x = np.linspace(0.0, 1.0, width)[None, :]
    y = np.linspace(0.0, 1.0, height)[:, None]

    img = 32.0 + 180.0 * x + 0.0 * y  # horizontal gradient base

    # Sinusoidal texture bands along the bottom strip.
    bands = (y >= 0.70) & (y <= 0.92)
    img = np.where(bands, 128.0 + 96.0 * np.sin(2 * np.pi * (9.0 * x + 4.0 * y)), img)

    # Bright disk upper left.
    disk = (x - 0.30) ** 2 + (y - 0.32) ** 2 <= 0.17**2
    img = np.where(disk, 235.0, img)

    # Dark rectangle upper right.
    box = (x >= 0.58) & (x <= 0.88) & (y >= 0.12) & (y <= 0.40)
    img = np.where(box, 20.0, img)

    return to_uint8(img)


def image_distance(u, v) -> float:
    """Euclidean norm of the pixel difference on the [0, 1] intensity scale.

    All error levels, bias levels, and contraction thresholds use this norm,
    which keeps them comparable across image resolutions.
    """
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm((a - b).ravel() / 255.0))


# Elements per row from which _window_sums adds whole rows in a Python loop
# rather than running one strided cumsum: the measured break-even lies at
# 192-256 on 2-D float arrays, and at 128 x 128 the loop's per-row cost loses.
_ROW_LOOP_MIN = 256


def box_mean(a, size: int) -> np.ndarray:
    """Mean over a ``size``-wide box around every element, as a C-ordered float array.

    The box spans ``size // 2`` elements before each one and ``(size - 1) //
    2`` after, on every axis; outside the array the input reads its nearest
    edge value. The axes are filtered in turn in scipy's ``uniform_filter1d``
    order, so the result equals ``scipy.ndimage.uniform_filter(a, size,
    mode="nearest")`` on float input byte for byte: each axis is a running
    total of window differences, added in the same sequence as scipy's. An
    integral image (one cumsum over the padded input, then differences)
    rounds differently and moves reconstructed pixels.
    """
    if size < 1:
        raise ValueError(f"box size must be >= 1, got {size}")
    out = np.asarray(a, dtype=float)
    if size == 1:
        return np.array(out, order="C")
    for axis in range(out.ndim):
        out = _window_sums(out, axis, size // 2, (size - 1) // 2)
        out /= size
    return out


def _window_sums(src: np.ndarray, axis: int, lo: int, hi: int) -> np.ndarray:
    """Sums of src[i - lo : i + hi + 1] along ``axis``, summed as a running total.

    The first window is added up in order from 0.0; every later entry starts
    as the difference ``src[i + hi] - src[i - lo - 1]``, read as the edge
    value outside ``src``, written straight into the output. A running total
    then adds each entry to the one before it, in place. Off the last axis,
    cumsum walks one column at a time a whole row apart, so where a row (the
    elements at one index along ``axis``) holds at least _ROW_LOOP_MIN
    elements, a loop adds each row to the one before it instead; elsewhere
    one cumsum does it. Both make the same additions in the same order, so
    the same bytes. No padded copy is built.
    """
    n = src.shape[axis]
    out = np.empty(src.shape)

    def along(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    left, right = src[along(0, 1)], src[along(n - 1, n)]
    first = out[along(0, 1)]
    first[...] = 0.0
    for j in range(-lo, hi + 1):
        first += left if j < 0 else right if j >= n else src[along(j, j + 1)]
    # Cut i = 1 .. n-1 where i + hi leaves src and where i - lo - 1 enters it,
    # so each run reads each end wholly inside or wholly outside.
    cuts = sorted({1, n, min(lo + 1, n), max(1, n - hi)})
    for start, stop in zip(cuts, cuts[1:]):
        plus = src[along(start + hi, stop + hi)] if start + hi < n else right
        minus = src[along(start - lo - 1, stop - lo - 1)] if start > lo else left
        np.subtract(plus, minus, out=out[along(start, stop)])
    if axis < out.ndim - 1 and out.size >= _ROW_LOOP_MIN * n:
        rows = np.moveaxis(out, axis, 0)  # a view: rows[i] is index i along axis
        for prev, row in zip(rows, rows[1:]):
            np.add(prev, row, out=row)
    else:
        np.cumsum(out, axis=axis, out=out)
    return out
