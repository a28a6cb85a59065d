import hashlib
import math
import re

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from semimo import images
from semimo.images import (
    _pieces,
    box_mean,
    image_distance,
    read_pgm,
    synthetic_test_image,
    to_uint8,
    window_sums,
    write_pgm,
)

EPS = np.finfo(float).eps


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(37, 53), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "commented.pgm"
    body = bytes(range(6))
    # Comment lines between fields; then a comment after the magic, the width and the height.
    for header in (b"P5\n# a comment\n3 2\n# another\n255\n",
                   b"P5 # magic\n3\t# width\n2 # height\n255\n"):
        path.write_bytes(header + body)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert np.array_equal(img.ravel(), np.frombuffer(body, dtype=np.uint8))


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError):
        read_pgm(path)


def test_pgm_rejects_truncated(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated"):
        read_pgm(path)


@pytest.mark.parametrize("raw, message", [
    (b"P5\n4 4\n15\n" + bytes(15) + bytes([200]), "sample 200 above maxval 15"),
    (b"P5\n0 4\n255\n", "size 0x4 has a side below 1"),
    (b"P5\n4 0\n255\n", "size 4x0 has a side below 1"),
    (b"P5\n-4 4\n255\n" + bytes(16), "size -4x4 has a side below 1"),
    (b" P5\n4 4\n255\n" + bytes(16), "not a binary PGM header"),
], ids=["sample-above-maxval", "zero-width", "zero-height", "negative-width", "space-before-magic"])
def test_pgm_rejects_what_the_format_forbids(tmp_path, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
        read_pgm(path)


def test_write_pgm_rounds_and_clips(tmp_path):
    path = tmp_path / "f.pgm"
    write_pgm(path, np.array([[-3.0, 6.49], [255.5, 300.0]]))
    assert np.array_equal(read_pgm(path), [[0, 6], [255, 255]])


def test_synthetic_image_deterministic():
    a = synthetic_test_image(128, 128)
    b = synthetic_test_image(128, 128)
    assert a.dtype == np.uint8
    assert a.shape == (128, 128)
    assert np.array_equal(a, b)
    # Worth transmitting: uses a good part of the intensity range with
    # structure in every quadrant.
    assert a.min() < 40 and a.max() > 220
    assert len(np.unique(a)) > 50


@pytest.mark.parametrize("size, digest", [
    ((8, 8), "3c380fb90d03399eb189e0d0335c407f4c31597a5f7816c65ad16902d687ff03"),
    ((17, 33), "d05f1de1e4817dc25ecadce1de94d93981d2c2cdd164dbbf894ce603b170b1ff"),
    ((128, 128), "3528a50a3ed18c60fb0ec818ea40ed7290dba7aaba6b70d651ac915356524594"),
    ((301, 200), "207b0ad5c447048e244987fb25a8075c01820a2994e16e767f9c38aab3965014"),
    ((1023, 777), "eef8d85412bed09a5586ae1bf8cbdcd14dea2c82d53a24805c1c45ea21eb15c5"),
    ((1024, 1024), "a0bd1ffb40054397c425effdc14f5ea3bb9fa1a5db2b9868015711c572256d73"),
], ids=lambda value: "x".join(map(str, value)) if isinstance(value, tuple) else None)
def test_synthetic_image_keeps_its_bytes(size, digest):
    # Recorded from the card painted as whole-image float layers, rounded once
    # at the end; painting it region by region must keep every byte.
    assert hashlib.sha256(synthetic_test_image(*size).tobytes()).hexdigest() == digest


def test_synthetic_image_size_floor():
    with pytest.raises(ValueError):
        synthetic_test_image(4, 4)


def test_image_distance_scale():
    zeros = np.zeros((10, 10))
    full = np.full((10, 10), 255.0)
    assert image_distance(zeros, full) == pytest.approx(10.0)  # sqrt(N) * 1
    assert image_distance(zeros, zeros) == 0.0
    with pytest.raises(ValueError):
        image_distance(zeros, np.zeros((5, 5)))


def test_to_uint8_passthrough():
    img = np.arange(4, dtype=np.uint8).reshape(2, 2)
    assert to_uint8(img) is img


SHAPES = [(3, 3), (4, 9), (9, 4), (8, 8), (9, 13), (128, 128), (300, 200),
          (300, 255), (300, 256), (260, 300), (600, 8)]  # 3x3 at size 3: windows past both edges


def int_box_mean(x, size):
    """Edge-padded box sums in int64, exact, divided once by size ** ndim."""
    padded = np.pad(x.astype(np.int64), (size // 2, (size - 1) // 2), mode="edge")
    sums = np.zeros(x.shape, dtype=np.int64)
    for offsets in np.ndindex(*(size,) * x.ndim):
        sums += padded[tuple(slice(o, o + n) for o, n in zip(offsets, x.shape))]
    return sums / size**x.ndim


@pytest.mark.parametrize("size", range(1, 10))
def test_box_mean_is_the_correctly_rounded_mean_on_integer_values(size):
    rng = np.random.default_rng(size)
    for shape in SHAPES:
        for kind, x in {
            "pixels": rng.integers(0, 256, shape).astype(float),
            "signed": rng.integers(-(2**20), 2**20, shape).astype(float),
        }.items():
            got = box_mean(x, size)
            assert got.flags.c_contiguous, (shape, kind)
            assert got.tobytes() == int_box_mean(x, size).tobytes(), (shape, kind)
        # The sign of an all-zero sum is not part of the contract: by value.
        assert np.array_equal(box_mean(np.full(shape, -0.0), size), np.zeros(shape))


@pytest.mark.parametrize("size", range(1, 10))
def test_box_mean_on_floats_matches_fsum_and_scipy(size):
    rng = np.random.default_rng(100 + size)
    lo, hi = size // 2, (size - 1) // 2
    for shape in SHAPES:
        x = rng.standard_normal(shape) * 100.0
        got = box_mean(x, size)
        assert got.flags.c_contiguous, shape
        # scipy's running sums are the oracle, to a tolerance on the data scale.
        expected = uniform_filter(x, size=size, mode="nearest")
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(x)), shape
        # Sampled windows, the last row and the last column included: within
        # 8 eps of the exact mean, relative to the mean of the |values| summed.
        h, w = shape
        sampled = list(zip(rng.integers(0, h, 32), rng.integers(0, w, 32)))
        sampled += [(h - 1, j) for j in range(w)] + [(i, w - 1) for i in range(h)]
        for i, j in sampled:
            rows = np.clip(np.arange(i - lo, i + hi + 1), 0, h - 1)
            cols = np.clip(np.arange(j - lo, j + hi + 1), 0, w - 1)
            window = x[np.ix_(rows, cols)].ravel()
            exact = math.fsum(window) / window.size
            scale = math.fsum(np.abs(window)) / window.size
            assert abs(got[i, j] - exact) <= 8 * EPS * scale, (shape, i, j)


def test_box_mean_other_layouts_and_ranks():
    rng = np.random.default_rng(1)
    cases = [
        rng.standard_normal(17),
        rng.standard_normal((7, 9, 5)),
        rng.standard_normal((4, 40, 70)),
        np.asfortranarray(rng.standard_normal((20, 30))),
        rng.standard_normal((40, 90))[::2, ::3],
        rng.standard_normal((1, 6)),
        np.empty((0, 5)),  # an empty axis: nothing to pad, an empty result
        np.array(2.5),  # no axes: the value itself
    ]
    for x in cases:
        for size in (1, 3, 8):
            got = box_mean(x, size)
            expected = uniform_filter(x, size=size, mode="nearest")
            assert got.flags.c_contiguous
            assert got.shape == x.shape
            assert np.all(np.abs(got - expected) <= 1e-13 * np.max(np.abs(x), initial=0.0))
            assert got.tobytes() == box_mean(np.array(x, order="C"), size).tobytes()


def test_row_strips_cover_the_rows_once_in_order(monkeypatch):
    # At the default budget the sweeps' 121 rows of SSIM windows on 128-pixel
    # float rows are one strip.
    assert _pieces(121, 128 * 8) == [(0, 121)]
    for budget in (1, 100, 1 << 18):
        monkeypatch.setattr(images, "_PIECE_BYTES", budget)
        for n_rows in range(1, 70):
            for row_nbytes in (8, 24, 1000):
                strips = _pieces(n_rows, row_nbytes)
                lengths = [stop - start for start, stop in strips]
                assert strips[0][0] == 0 and strips[-1][1] == n_rows
                assert all(prev[1] == nxt[0] for prev, nxt in zip(strips, strips[1:]))
                assert min(lengths) >= 1
                # Within the budget (one row when a row exceeds it); only the last is shorter.
                assert max(lengths) <= max(budget // row_nbytes, 1)
                assert all(length == lengths[0] for length in lengths[:-1])
                assert lengths[-1] <= lengths[0]


@pytest.mark.parametrize("size", range(1, 10))
def test_box_mean_strips_give_the_one_strip_bytes(size, monkeypatch):
    # The default budget's one strip, strips of one row and strips of four
    # rows, each against the window sums of the whole padded array divided
    # once. Every height is 1 mod 4, so the last four-row strip is a single row.
    rng = np.random.default_rng(200 + size)
    cases = {
        "1-D": rng.standard_normal(41) * 100.0,
        "pixels": rng.integers(0, 256, (37, 29)).astype(np.uint8),
        "float": rng.uniform(0, 255, (21, 40)),
        "3-D": rng.integers(-(2**20), 2**20, (13, 6, 5)).astype(float),
        "fortran": np.asfortranarray(rng.standard_normal((17, 23))),
    }
    for kind, x in cases.items():
        padded = np.pad(np.asarray(x, dtype=float), (size // 2, (size - 1) // 2), mode="edge")
        whole = np.ascontiguousarray(window_sums(padded, size) / size**x.ndim)
        assert box_mean(x, size).tobytes() == whole.tobytes(), kind
        row_nbytes = 8 * math.prod(n + size - 1 for n in x.shape[1:])
        assert len(_pieces(len(x), row_nbytes)) == 1, kind
        for rows in (1, 4):
            monkeypatch.setattr(images, "_PIECE_BYTES", rows * row_nbytes)
            strips = _pieces(len(x), row_nbytes)
            assert len(strips) > 1 and strips[-1] == (len(x) - 1, len(x)), (kind, rows)
            got = box_mean(x, size)
            assert got.flags.c_contiguous, (kind, rows)
            assert got.tobytes() == whole.tobytes(), (kind, rows)
        monkeypatch.undo()


@pytest.mark.parametrize("size", range(1, 10))
def test_box_mean_is_the_whole_padded_array_formula(size, monkeypatch):
    # The strip buffer against np.pad of the whole array. At every length 1-9
    # the pads reach past the far edge for wide boxes, and strips of one,
    # two or three rows start and end inside the pad rows.
    rng = np.random.default_rng(300 + size)
    for ndim in (1, 2, 3):
        for n in range(1, 10):
            shape = (n, n + 2, 3)[:ndim]
            for x in (rng.integers(0, 256, shape).astype(np.uint8),
                      rng.integers(-(2**20), 2**20, shape), rng.standard_normal(shape) * 100.0):
                padded = np.pad(x.astype(float), (size // 2, (size - 1) // 2), mode="edge")
                whole = np.ascontiguousarray(window_sums(padded, size) / size**ndim).tobytes()
                row_nbytes = padded[:1].nbytes
                for rows in (None, 1, 2, 3):
                    if rows is not None:
                        monkeypatch.setattr(images, "_PIECE_BYTES", rows * row_nbytes)
                    assert box_mean(x, size).tobytes() == whole, (shape, x.dtype, rows)
                    monkeypatch.undo()


def test_box_mean_holds_no_image_sized_temporaries(traced_peak):
    # The design's arrays: the output (one image), one strip buffer of edge-
    # padded rows and a strip's sums, well under one more image. The
    # edge-padded copy of the whole input took one more image beside those.
    x = np.random.default_rng(3).uniform(0, 255, (1024, 1024))
    assert traced_peak(lambda: box_mean(x, 3)) < 1.5 * x.nbytes


def test_window_sums_cover_whole_windows_only():
    rng = np.random.default_rng(2)
    for size in range(1, 10):
        for shape in [(12, 7), (size - 1, 5), (2, 3), (11,), (3, 10, 9)]:
            x = rng.integers(-(2**20), 2**20, shape)
            got = window_sums(x.astype(float), size)
            assert got.shape == tuple(max(n - size + 1, 0) for n in shape)
            for index in np.ndindex(*got.shape):
                window = x[tuple(slice(i, i + size) for i in index)]
                assert got[index] == window.sum()


def test_box_mean_input_untouched_and_bad_arguments():
    x = np.arange(12.0).reshape(3, 4)
    before = x.copy()
    assert box_mean(x, 1) is not x
    box_mean(x, 3)
    assert np.array_equal(x, before)
    with pytest.raises(ValueError):
        box_mean(x, 0)
    with pytest.raises(TypeError):  # one edge rule, no mode argument
        box_mean(x, 3, "reflect")
