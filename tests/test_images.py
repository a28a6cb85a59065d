import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from semimo.images import (
    box_mean,
    image_distance,
    read_pgm,
    synthetic_test_image,
    to_uint8,
    write_pgm,
)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(37, 53), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "commented.pgm"
    body = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + body)
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
    with pytest.raises(ValueError):
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


def box_filter_inputs(shape, rng):
    """Real, integer-valued and signed-zero inputs of one shape."""
    signed_zeros = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], shape)
    signed_zeros[0, 0] = signed_zeros[-1, -1] = -0.0
    signed_zeros[:, 0] = -0.0  # a whole edge column of -0.0
    return {
        "real": rng.standard_normal(shape) * 100.0,
        "integer": rng.integers(0, 256, shape).astype(float),
        "signed_zeros": signed_zeros,
        "all_minus_zero": np.full(shape, -0.0),
    }


@pytest.mark.parametrize("mode", ["nearest"])  # scipy's name for box_mean's edge rule
@pytest.mark.parametrize("size", range(2, 10))
def test_box_mean_equals_scipy_uniform_filter_byte_for_byte(size, mode):
    # 3x3 at size 3 and 4x9 at size 4 put windows wider than half the image.
    # Axis 0 runs as one cumsum below 256 columns and as a row loop from 256.
    rng = np.random.default_rng(size)
    shapes = [(3, 3), (4, 9), (9, 4), (8, 8), (9, 13), (128, 128), (300, 200)]
    for shape in shapes + [(300, 255), (300, 256), (260, 300), (600, 8)]:
        for kind, x in box_filter_inputs(shape, rng).items():
            got = box_mean(x, size)
            expected = uniform_filter(x, size=size, mode=mode)
            assert got.flags.c_contiguous, (shape, kind)
            assert got.tobytes() == expected.tobytes(), (shape, kind)


@pytest.mark.parametrize("mode", ["nearest"])  # scipy's name for box_mean's edge rule
def test_box_mean_other_layouts_and_ranks(mode):
    rng = np.random.default_rng(1)
    cases = [
        rng.standard_normal(17),
        rng.standard_normal((7, 9, 5)),
        rng.standard_normal((4, 40, 70)),  # axes 0 and 1 both take the row loop
        np.asfortranarray(rng.standard_normal((20, 30))),
        rng.standard_normal((40, 90))[::2, ::3],
        rng.standard_normal((1, 6)),
    ]
    for x in cases:
        for size in (1, 3, 8):
            got = box_mean(x, size)
            assert got.flags.c_contiguous
            assert got.tobytes() == uniform_filter(x, size=size, mode=mode).tobytes()


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
