import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import uniform_filter

from semimo import images
from semimo.images import _pieces, image_distance, synthetic_test_image
from semimo.metrics import (
    PSNR_CAP_DB,
    SSIM_C1,
    SSIM_C2,
    ExternalMetric,
    ExternalMetricError,
    Reference,
    _window_means,
    mae,
    mae_lipschitz,
    metric_lipschitz_probe,
    metric_report,
    psnr,
    ssim,
)


def ssim_reference(ref, test, window=8, c1=SSIM_C1, c2=SSIM_C2):
    """Direct double loop over every fully contained window."""
    a = np.asarray(ref, dtype=float)
    b = np.asarray(test, dtype=float)
    scores = []
    for i in range(a.shape[0] - window + 1):
        for j in range(a.shape[1] - window + 1):
            x = a[i : i + window, j : j + window]
            y = b[i : i + window, j : j + window]
            mx, my = x.mean(), y.mean()
            vx, vy = x.var(), y.var()
            cov = ((x - mx) * (y - my)).mean()
            scores.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx**2 + my**2 + c1) * (vx + vy + c2))
            )
    return float(np.mean(scores))


class TestPsnr:
    def test_identical_images_hit_cap(self):
        img = synthetic_test_image(32, 32)
        assert psnr(img, img) == PSNR_CAP_DB

    def test_uniform_offset_closed_form(self):
        ref = np.full((16, 16), 100, dtype=np.uint8)
        test = np.full((16, 16), 116, dtype=np.uint8)
        assert psnr(ref, test) == pytest.approx(20 * np.log10(255 / 16), rel=1e-12)

    def test_checkerboard_vs_flat(self):
        # Differences alternate -128 and +127: MSE = (127.5^2 + 0.5^2).
        tile = np.indices((16, 16)).sum(axis=0) % 2
        checker = (tile * 255).astype(np.uint8)
        flat = np.full((16, 16), 128, dtype=np.uint8)
        expected = 10 * np.log10(255**2 / 16256.5)
        assert psnr(checker, flat) == pytest.approx(expected, rel=1e-12)
        assert psnr(checker, flat) == pytest.approx(6.0206, abs=3e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSsim:
    def test_identical_images(self):
        img = synthetic_test_image(32, 32)
        assert ssim(img, img) == pytest.approx(1.0)

    def test_matches_direct_window_loop(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 256, (24, 31), dtype=np.uint8)
        b = np.clip(a + rng.normal(0, 25, a.shape), 0, 255).astype(np.uint8)
        assert ssim(a, b) == pytest.approx(ssim_reference(a, b), rel=1e-10)

    def test_negated_high_contrast_image_scores_low(self):
        img = synthetic_test_image(64, 64)
        negated = (255 - img).astype(np.uint8)
        value = ssim(img, negated)
        assert value == pytest.approx(ssim_reference(img, negated), rel=1e-10)
        assert value < 0.2

    def test_flat_images_reduce_to_luminance_term(self):
        a = np.full((8, 8), 100.0)
        b = np.full((8, 8), 110.0)
        expected = (2 * 100 * 110 + SSIM_C1) / (100**2 + 110**2 + SSIM_C1)
        assert ssim(a, b) == pytest.approx(expected, rel=1e-12)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))


class TestMae:
    def test_identical(self):
        img = synthetic_test_image(16, 16)
        assert mae(img, img) == 0.0

    def test_full_scale(self):
        assert mae(np.zeros((4, 4)), np.full((4, 4), 255.0)) == pytest.approx(1.0)

    def test_probed_constant_below_analytic(self):
        rng = np.random.default_rng(7)
        base = synthetic_test_image(32, 32).astype(float)
        samples = []
        for _ in range(60):
            u = base + rng.normal(0, 20, base.shape)
            v = base + rng.normal(0, 20, base.shape)
            samples.append((u, v, base))
        probed = metric_lipschitz_probe(mae, samples)
        assert 0 < probed <= mae_lipschitz(base.size) + 1e-9


def scipy_window_means(x, window=8):
    """scipy's running-sum box filter, trimmed to the fully contained windows."""
    lo, hi = window // 2, window - 1 - window // 2
    return uniform_filter(x, size=window, mode="constant")[
        lo : x.shape[0] - hi, lo : x.shape[1] - hi
    ]


def tree_window_means(x, window=8):
    """Each 8x8 window summed as ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7)), rows then columns."""
    blocks = sliding_window_view(np.asarray(x, dtype=float), (window, window))
    for axis in (-2, -1):
        while blocks.shape[axis] > 1:
            even = np.take(blocks, range(0, blocks.shape[axis], 2), axis=axis)
            odd = np.take(blocks, range(1, blocks.shape[axis], 2), axis=axis)
            blocks = even + odd
    return blocks[..., 0, 0] / (window * window)


def ssim_whole_arrays(ref, test, c1=SSIM_C1, c2=SSIM_C2, means=scipy_window_means):
    """The SSIM formula on whole window-mean arrays, in its written order."""
    a = np.asarray(ref, dtype=float)
    b = np.asarray(test, dtype=float)
    mx, my, mxx, myy, mxy = means(a), means(b), means(a * a), means(b * b), means(a * b)
    vx, vy, cov = mxx - mx * mx, myy - my * my, mxy - mx * my
    score = ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return float(score.mean())


class TestWindowMeans:
    SHAPES = [(8, 8), (9, 13), (128, 128), (300, 200)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_within_8_eps_of_the_exact_mean(self, shape):
        # The running sums of a padded box filter drift with the row length
        # (about 12 eps at 300x200); the pairwise tree's error is bounded by
        # its depth. The sampled windows include the whole last row and the
        # whole last column of windows.
        rng = np.random.default_rng(shape[0] * shape[1])
        uniform = rng.uniform(0, 255, shape)
        images = {
            "uniform": uniform, "square": uniform * uniform,
            "lognormal": rng.lognormal(0, 2, shape),
        }
        rows, cols = shape[0] - 7, shape[1] - 7
        windows = {(rows - 1, j) for j in range(cols)} | {(i, cols - 1) for i in range(rows)}
        windows |= set(zip(rng.integers(0, rows, 200).tolist(), rng.integers(0, cols, 200).tolist()))
        eps = np.finfo(float).eps
        for kind, x in images.items():
            got = _window_means(x)
            assert got.shape == (rows, cols)
            for i, j in windows:
                exact = math.fsum(x[i : i + 8, j : j + 8].ravel()) / 64
                assert abs(got[i, j] - exact) <= 8 * eps * exact, (kind, i, j)

    @pytest.mark.parametrize("shape", SHAPES + [(300, 260)])
    def test_integer_images_match_scipy_byte_for_byte(self, shape):
        # Integer sums are exact in any order, so the valid windows of
        # scipy's filter give the same bytes, products of pixels included.
        rng = np.random.default_rng(shape[0] + shape[1])
        image = rng.integers(0, 256, shape).astype(np.uint8)
        as_float = image.astype(float)
        for given in (image, as_float):
            ref = Reference(given)
            assert ref.mx.tobytes() == scipy_window_means(as_float).tobytes()
            assert ref.mxx.tobytes() == scipy_window_means(as_float * as_float).tobytes()
        products = as_float * rng.integers(0, 256, shape)
        assert _window_means(products).tobytes() == scipy_window_means(products).tobytes()


class TestReference:
    @pytest.mark.parametrize("shape", [(8, 8), (9, 13), (128, 128), (300, 200), (300, 260)])
    @pytest.mark.parametrize("dtype", [np.uint8, float])
    def test_same_float_as_the_array(self, shape, dtype):
        rng = np.random.default_rng(shape[0] * shape[1])
        clean = rng.uniform(0, 255, shape)
        noisy = np.clip(clean + rng.normal(0, 30, shape), 0, 255)
        if dtype is np.uint8:
            clean, noisy = clean.astype(np.uint8), noisy.astype(np.uint8)
        ref = Reference(clean)
        if dtype is np.uint8:
            assert ssim(ref, noisy) == ssim(clean, noisy) == ssim_whole_arrays(clean, noisy)
        else:
            # Float window sums round in the tree's order, not in scipy's
            # running-sum order: pin the tree, and stay close to scipy.
            tree = ssim_whole_arrays(clean, noisy, means=tree_window_means)
            assert ssim(ref, noisy) == ssim(clean, noisy) == tree
            assert ref.mx.tobytes() == tree_window_means(clean).tobytes()
            assert ref.mxx.tobytes() == tree_window_means(clean * clean).tobytes()
            assert ssim(ref, noisy) == pytest.approx(ssim_whole_arrays(clean, noisy), rel=1e-13)
        assert psnr(ref, noisy) == psnr(clean, noisy)
        assert mae(ref, noisy) == mae(clean, noisy)
        assert metric_report(noisy, ref) == metric_report(noisy, clean)
        assert ssim(ref, clean) == pytest.approx(1.0)

    def test_shape_and_size_checked(self):
        ref = Reference(np.zeros((16, 16)))
        for metric in (ssim, psnr, mae):
            with pytest.raises(ValueError):
                metric(ref, np.zeros((16, 15)))
        with pytest.raises(ValueError):
            metric_report(np.zeros((15, 16)), ref)
        for bad in (np.zeros(64), np.zeros((4, 4, 4)), np.zeros((7, 30))):
            with pytest.raises(ValueError):
                Reference(bad)

    @pytest.mark.parametrize("ref_shape, test_shape", [
        ((64,), (64,)), ((4, 4, 4), (4, 4, 4)), ((7, 30), (7, 30)), ((30, 7), (30, 7)),
        ((16, 16), (16, 15)), ((16, 16), (16,)), ((7, 30), (8, 30)), ((4, 4, 4), (4, 4)),
    ])
    def test_the_array_path_raises_what_a_reference_raises(self, ref_shape, test_shape):
        # One check of the reference (2-D, at least one window) and one of the
        # pair's shapes, in that order, whether or not a Reference is built.
        ref, test = np.zeros(ref_shape, dtype=np.uint8), np.zeros(test_shape)
        with pytest.raises(ValueError) as built:
            ssim(Reference(ref), test)
        for score in (lambda: ssim(ref, test), lambda: metric_report(test, ref)):
            with pytest.raises(ValueError) as array:
                score()
            assert str(array.value) == str(built.value)

    @pytest.mark.parametrize("shape", [(8, 8), (8, 13), (21, 9), (37, 29), (1024, 1024)])
    def test_array_and_reference_give_the_same_bytes(self, shape):
        # Given an array, each strip takes the reference moments from its own
        # rows; given a Reference, from the stored ones. Every input form reads
        # the same floats, so all of them give one set of bytes.
        rng = np.random.default_rng(shape[1])
        clean = rng.uniform(0, 255, shape)
        noisy = np.clip(clean + rng.normal(0, 25, shape), 0, 255)
        forms = {
            "float": (clean, noisy),
            "uint8": (clean.astype(np.uint8), noisy.astype(np.uint8)),
            "int64": (clean.astype(np.int64), noisy.astype(np.int64)),
            "fortran": (np.asfortranarray(clean), np.asfortranarray(noisy)),
            "fortran uint8": (np.asfortranarray(clean.astype(np.uint8)), noisy.astype(np.uint8)),
        }
        for kind, (ref, test) in forms.items():
            stored = Reference(ref)
            for score in (ssim, psnr, mae):
                assert repr(score(ref, test)) == repr(score(stored, test)), (kind, score)
            assert repr(metric_report(test, ref)) == repr(metric_report(test, stored)), kind

    def test_moments_are_read_only_and_detached(self):
        image = synthetic_test_image(16, 16).astype(float)
        ref = Reference(image)
        for arr in (ref.image, ref.mx, ref.mxx):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        image[0, 0] += 50  # the caller's array stays writable and separate
        assert ref.image[0, 0] == image[0, 0] - 50

    def test_external_hook_gets_the_plain_image(self):
        clean = synthetic_test_image(16, 16)
        seen = []

        def external(test, ref):
            seen.append(ref)
            return 0.5

        report = metric_report(clean, Reference(clean), external)
        assert report.external == 0.5
        assert isinstance(seen[0], np.ndarray)
        np.testing.assert_array_equal(seen[0], clean)


class TestStrips:
    # Odd heights and non-square shapes; H - 7 is 2 mod 4, so the last of the
    # four-row strips is two rows.
    SHAPES = [(37, 29), (21, 40), (65, 9)]

    @staticmethod
    def scores(clean, noisy):
        ref = Reference(clean)
        return repr((ref.mx.tobytes(), ref.mxx.tobytes(), ssim(clean, noisy), ssim(ref, noisy),
                     metric_report(noisy, clean), metric_report(noisy, ref)))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [np.uint8, float])
    def test_strips_give_the_one_strip_bytes(self, shape, dtype, monkeypatch):
        rng = np.random.default_rng(shape[0] * shape[1])
        clean = rng.uniform(0, 255, shape)
        noisy = np.clip(clean + rng.normal(0, 30, shape), 0, 255)
        if dtype is np.uint8:
            clean, noisy = clean.astype(np.uint8), noisy.astype(np.uint8)
        rows, row_nbytes = shape[0] - 7, shape[1] * 8
        assert len(_pieces(rows, row_nbytes)) == 1
        whole = self.scores(clean, noisy)
        for strip_rows in (1, 4):
            monkeypatch.setattr(images, "_PIECE_BYTES", strip_rows * row_nbytes)
            strips = _pieces(rows, row_nbytes)
            assert len(strips) > 1 and strips[-1][1] - strips[-1][0] == (rows - 1) % strip_rows + 1
            assert self.scores(clean, noisy) == whole, strip_rows

    def test_ssim_does_not_depend_on_memory_order(self):
        # One C-ordered map of scores, whatever the inputs' order, so the
        # pairwise mean adds them in one order. A map in the Fortran order of
        # two Fortran-ordered inputs moved the last bit at seeds 2 and 3.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            clean = rng.uniform(0, 255, (128, 128))
            noisy = np.clip(clean + rng.normal(0, 20, clean.shape), 0, 255)
            value = repr(ssim(clean, noisy))
            for a, b in [(np.asfortranarray(clean), np.asfortranarray(noisy)),
                         (np.asfortranarray(clean), noisy), (clean, np.asfortranarray(noisy))]:
                assert repr(ssim(a, b)) == repr(ssim(Reference(a), b)) == value, seed

    def test_mae_psnr_and_report_do_not_depend_on_memory_order(self):
        # One C-ordered difference, whatever the inputs' order. A difference in
        # the Fortran order of two Fortran-ordered inputs moved MAE's last bit
        # (and so the report's) at 8 of these 20 seeds.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            clean = rng.uniform(0, 255, (128, 128))
            noisy = np.clip(clean + rng.normal(0, 20, clean.shape), 0, 255)
            value = repr((mae(clean, noisy), psnr(clean, noisy), metric_report(noisy, clean)))
            a, b = np.asfortranarray(clean), np.asfortranarray(noisy)
            assert repr((mae(a, b), psnr(a, b), metric_report(b, a))) == value, seed

    def test_ssim_with_a_reference_holds_no_image_sized_temporaries(self, traced_peak):
        # The design's arrays: the 8-bit test image as float (one image) and
        # the map of window scores (under one image). A strip's moments take
        # well under one more; whole-image moments took about five more.
        clean = synthetic_test_image(1024, 1024)
        noisy = np.clip(clean + np.random.default_rng(4).normal(0, 10, clean.shape), 0, 255)
        noisy = noisy.astype(np.uint8)
        ref = Reference(clean)
        assert traced_peak(lambda: ssim(ref, noisy)) < 3 * clean.size * 8

    def test_report_on_an_array_keeps_no_reference_moments(self, traced_peak):
        # The map of window scores, then the difference: one image each, not
        # both at once, plus a strip's moments. A throwaway Reference (the
        # image as float and two maps of moments) took 33.0 MiB at 1024².
        clean = synthetic_test_image(1024, 1024)
        noisy = np.clip(clean + np.random.default_rng(4).normal(0, 10, clean.shape), 0, 255)
        noisy = noisy.astype(np.uint8)
        assert traced_peak(lambda: metric_report(noisy, clean)) <= 16 * 2**20


@settings(max_examples=15, deadline=None)
@given(
    arrays(np.uint8, (12, 12), elements=st.integers(0, 255)),
    arrays(np.uint8, (12, 12), elements=st.integers(0, 255)),
)
def test_symmetry(a, b):
    assert psnr(a, b) == psnr(b, a)
    assert mae(a, b) == mae(b, a)
    assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-12)


@pytest.mark.parametrize("score", [image_distance, psnr, mae, ssim])
@pytest.mark.parametrize("shape", [(10, 1), (1, 10), (10,)])
def test_image_pairs_of_broadcastable_shapes_are_rejected(score, shape):
    # One check serves every score: numpy would broadcast these shapes silently.
    with pytest.raises(ValueError, match="image shapes differ"):
        score(np.zeros((10, 10)), np.zeros(shape))


def test_report_orientation():
    ref = synthetic_test_image(32, 32)
    noisy = np.clip(
        ref.astype(float) + np.random.default_rng(1).normal(0, 10, ref.shape), 0, 255
    )
    report = metric_report(noisy, ref)
    assert report.neg_psnr == pytest.approx(-psnr(ref, noisy))
    assert report.one_minus_ssim == pytest.approx(1 - ssim(ref, noisy))
    assert 0 <= report.one_minus_ssim <= 1
    assert report.mae > 0
    assert report.external is None
    perfect = metric_report(ref, ref)
    assert perfect.mae == 0.0
    assert perfect.one_minus_ssim == pytest.approx(0.0)
    assert perfect.neg_psnr == -PSNR_CAP_DB


@pytest.mark.parametrize("dtype", [np.uint8, float])
def test_report_scores_equal_the_single_scores(dtype):
    # The report takes MAE and PSNR from one difference, made absolute and then
    # squared in place; each must equal its own function's float.
    ref = synthetic_test_image(48, 40)
    noisy = np.clip(ref + np.random.default_rng(2).normal(0, 12, ref.shape), 0, 255).astype(dtype)
    for reference in (ref, Reference(ref)):
        report = metric_report(noisy, reference)
        assert repr(report.mae) == repr(mae(ref, noisy))
        assert repr(report.neg_psnr) == repr(-psnr(ref, noisy))
        assert repr(report.one_minus_ssim) == repr(1.0 - ssim(ref, noisy))


class TestExternalMetric:
    def test_runs_command_and_parses_number(self):
        for template in (
            f'{sys.executable} -c "print(0.25)" {{test}} {{ref}}',
            # Braces that are not placeholders reach the command unchanged.
            "awk 'BEGIN{print 0.25}' {test} {ref}",
        ):
            hook = ExternalMetric(template)
            assert hook(np.zeros((8, 8)), np.ones((8, 8))) == 0.25

    def test_requires_placeholders(self):
        with pytest.raises(ValueError):
            ExternalMetric("scorer output.pgm")

    def test_failure_raises(self):
        for template, timeout in (
            (f"{sys.executable} -c exit(3) {{test}} {{ref}}", 120.0),
            ("/nonexistent/scorer {test} {ref}", 120.0),  # missing binary
            (f'{sys.executable} -c "import time; time.sleep(5)" {{test}} {{ref}}', 0.3),
        ) + tuple(  # a number, but not a usable score
            (f'{sys.executable} -c "print(\'{score}\')" {{test}} {{ref}}', 120.0)
            for score in ("nan", "inf", "-inf")
        ):
            hook = ExternalMetric(template)
            hook.timeout = timeout
            with pytest.raises(ExternalMetricError):
                hook(np.zeros((8, 8)), np.zeros((8, 8)))
