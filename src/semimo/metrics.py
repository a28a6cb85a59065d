"""Lower-is-better image quality measures; SSIM with pinned constants on images.window_sums."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .images import PgmHook, _image_pair, _pieces, image_distance, window_sums

__all__ = [
    "PSNR_CAP_DB",
    "SSIM_WINDOW",
    "SSIM_C1",
    "SSIM_C2",
    "SSIM_VARIANT",
    "METRIC_NAMES",
    "MetricReport",
    "Reference",
    "psnr",
    "ssim",
    "mae",
    "mae_lipschitz",
    "metric_lipschitz_probe",
    "metric_report",
    "ExternalMetric",
    "ExternalMetricError",
]

# MetricReport's built-in scores, in field order, which is also the sweep CSV's order.
METRIC_NAMES = ("mae", "neg_psnr", "one_minus_ssim")
PSNR_CAP_DB = 999.0
SSIM_WINDOW = 8
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2

# Pinned variant, recorded in CSV metadata so numbers are reproducible
# across implementations.
SSIM_VARIANT = (
    f"uniform {SSIM_WINDOW}x{SSIM_WINDOW} windows, population moments, "
    f"C1={SSIM_C1:.4f}, C2={SSIM_C2:.4f}"
)


class Reference:
    """A reference image with its SSIM window moments computed once, for reuse.

    ``ssim``, ``psnr``, ``mae`` and ``metric_report`` take one wherever they
    take the reference array, and give the same float. ``image`` is the
    reference as float; ``mx`` and ``mxx`` are the SSIM window means of the
    image and of its square, written strip of rows by strip of rows by
    ``_reference_means``, which the array path of ``ssim`` calls on the same
    strips. Build one only to score several images against one reference:
    given an array, the scores keep no reference moments. All three arrays
    are read-only, so threads may share one Reference.
    """

    def __init__(self, image):
        a = np.array(_reference_image(image), dtype=float)
        self.image = a
        self.mx = np.empty(tuple(n - SSIM_WINDOW + 1 for n in a.shape))
        self.mxx = np.empty_like(self.mx)
        for start, stop in _pieces(len(self.mx), a[0].nbytes):
            self.mx[start:stop], self.mxx[start:stop] = _reference_means(
                a[start : stop + SSIM_WINDOW - 1])
        for arr in (self.image, self.mx, self.mxx):
            arr.flags.writeable = False


def _reference_image(image) -> np.ndarray:
    """``image`` as an array in its own dtype, if SSIM can take it as a reference.

    ValueError unless it is 2-D and at least SSIM_WINDOW pixels on each side.
    ``Reference`` and the array path of ``ssim`` both check here, so they
    reject the same images with the same messages.
    """
    a = np.asarray(image)
    if a.ndim != 2:
        raise ValueError(f"expected 2-D images, got shape {a.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"image {a.shape} smaller than {SSIM_WINDOW}x{SSIM_WINDOW} window")
    return a


def _plain(ref):
    """The reference as an array, whether given as one or as a Reference."""
    return ref.image if isinstance(ref, Reference) else ref


def _difference(ref, test) -> np.ndarray:
    """The reference minus ``test``, both read as floats, as a new C-ordered float array.

    The subtraction reads each input in its own dtype (``dtype=float``), so
    an 8-bit reference or test image is never copied whole to float. C order
    whatever the inputs' order, so the means taken over it add the same
    values in the same order for every memory layout.
    """
    return np.subtract(*_image_pair(_plain(ref), test), dtype=float, order="C")


def _mae_in_place(diff: np.ndarray) -> float:
    """MAE on the [0, 1] scale from a difference array, which becomes its absolute value."""
    return float(np.mean(np.abs(diff, out=diff)) / 255.0)


def _psnr_in_place(diff: np.ndarray) -> float:
    """PSNR in dB from a difference (or its absolute value), which becomes its square.

    Identical images would be +inf; they give ``PSNR_CAP_DB`` instead.
    """
    mse = float(np.mean(np.square(diff, out=diff)))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(255.0**2 / mse), PSNR_CAP_DB)


def psnr(ref, test) -> float:
    """Peak signal-to-noise ratio 10*log10(255^2 / MSE) in dB.

    Identical images would be +inf; they return ``PSNR_CAP_DB`` instead so
    CSV output stays finite.
    """
    return _psnr_in_place(_difference(ref, test))


def _window_means(a: np.ndarray) -> np.ndarray:
    """Means over every fully contained SSIM_WINDOW x SSIM_WINDOW patch.

    ``images.window_sums`` adds each window as ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7))
    down the rows, then along them, and /64 is exact: exact on integer images,
    depth-bounded error on floats.
    """
    # Into a new array: dividing a strip's sums in place took 4.8k-6.4k minor
    # faults (glibc heap) against 0, and 10-15% more time, per 1024²
    # denoise-and-score pass.
    return window_sums(a, SSIM_WINDOW) / (SSIM_WINDOW * SSIM_WINDOW)


def _reference_means(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """μx and E[x²]: the SSIM window means of a float strip of reference rows and of its squares."""
    return _window_means(rows), _window_means(rows * rows)


def ssim(ref, test) -> float:
    """Mean structural similarity over uniform SSIM_WINDOW x SSIM_WINDOW windows.

    Per window: (2*mx*my + C1)*(2*cov + C2) / ((mx^2 + my^2 + C1)*(vx + vy + C2)),
    with population (divide-by-n) moments and the pinned SSIM_C1, SSIM_C2.
    Uniform windows rather than Gaussian weighting keep the value exactly
    reproducible, and the window sums are exact on integer images. The map
    of per-window scores is filled strip of rows by strip of rows, with the
    window sums of ``images.window_sums`` and the formula's steps in one
    fixed order, so every score has the bytes of one whole-image pass; its
    mean is taken once, over the whole map. A ``ref`` given as a Reference
    supplies its stored μx and E[x²]; given as an array, each strip takes
    them from its own reference rows with ``_reference_means``, as
    ``Reference`` does, so both give the same float and no whole-image
    moments are kept. Either image is read as floats one strip at a time, so
    an 8-bit image is never copied whole.
    """
    stored = isinstance(ref, Reference)
    a, b = _image_pair(ref.image if stored else _reference_image(ref), test)
    scores = np.empty(tuple(n - SSIM_WINDOW + 1 for n in a.shape))
    for start, stop in _pieces(len(scores), a.shape[1] * scores.itemsize):
        rows = slice(start, stop + SSIM_WINDOW - 1)
        x, y = np.asarray(a[rows], dtype=float), np.asarray(b[rows], dtype=float)
        if stored:
            mx, mxx = ref.mx[start:stop], ref.mxx[start:stop]
        else:
            mx, mxx = _reference_means(x)
        my = _window_means(y)
        myy = _window_means(y * y)
        mxy = _window_means(x * y)
        # The formula's operations in its own order, on as few new arrays as
        # possible: 2*mx*my is (2*mx)*my, which equals 2*(mx*my) exactly.
        mx_my = np.multiply(mx, my, out=scores[start:stop])
        den = mx * mx
        vx = mxx - den
        my *= my
        myy -= my  # vy
        mxy -= mx_my  # cov
        den += my
        den += SSIM_C1
        vx += myy
        vx += SSIM_C2
        den *= vx
        mx_my *= 2
        mx_my += SSIM_C1
        mxy *= 2
        mxy += SSIM_C2
        mx_my *= mxy
        mx_my /= den
    return float(scores.mean())


def mae(ref, test) -> float:
    """Mean absolute pixel difference on the [0, 1] intensity scale."""
    return _mae_in_place(_difference(ref, test))


def mae_lipschitz(n_pixels: int) -> float:
    """Exact Lipschitz constant of mae in the scaled Euclidean image norm.

    |mae(u, s) - mae(v, s)| <= mean|u - v| <= ||u - v|| / sqrt(N) by
    Cauchy-Schwarz, with both sides on the [0, 1] scale.
    """
    return 1.0 / np.sqrt(n_pixels)


def metric_lipschitz_probe(metric, samples) -> float:
    """Largest observed |M(u, s) - M(v, s)| / ||u - v|| over sample triples.

    ``samples`` iterates (u, v, s); degenerate pairs (u == v) are skipped.
    A sampled lower bound on the true constant.
    """
    best = 0.0
    for u, v, s in samples:
        den = image_distance(u, v)
        if den == 0.0:
            continue
        best = max(best, abs(metric(u, s) - metric(v, s)) / den)
    return best


@dataclass(frozen=True)
class MetricReport:
    """Lower-is-better scores of one reconstruction against its reference."""

    mae: float
    neg_psnr: float
    one_minus_ssim: float
    external: float | None = None


def metric_report(test, ref, external: "ExternalMetric | None" = None) -> MetricReport:
    """Score a reconstruction (first argument) against the reference.

    ``ref``: an array or a Reference; ``external`` gets the plain image.
    An array is scored as it is, with no Reference built: SSIM takes the
    reference moments strip by strip, and the difference reads both images
    as floats. MAE and PSNR share one difference array: its absolute value
    gives the MAE, and squaring that (|d|² has the bytes of d²) the MSE.
    """
    ext = external(test, _plain(ref)) if external is not None else None
    one_minus_ssim = 1.0 - ssim(ref, test)  # first: its map is freed before the difference exists
    diff = _difference(ref, test)
    mae_value = _mae_in_place(diff)
    return MetricReport(
        neg_psnr=-_psnr_in_place(diff),
        one_minus_ssim=one_minus_ssim,
        mae=mae_value,
        external=ext,
    )


class ExternalMetricError(RuntimeError):
    """The external metric command failed or printed something unusable."""


class ExternalMetric(PgmHook):
    """Out-of-process metric hook.

    The command template receives ``{test}`` and ``{ref}`` placeholders
    substituted with PGM file paths; it must exit 0 and print one finite real
    number to standard output, and any failure raises ExternalMetricError.
    This keeps learned metrics out of process while still letting them score
    sweep outputs.
    """

    placeholders = ("test", "ref")
    error = ExternalMetricError
    timeout = 120.0

    def __call__(self, test, ref) -> float:
        stdout, _ = self._run({"test": test, "ref": ref})
        try:
            score = float(stdout.strip().split()[-1])
        except (IndexError, ValueError) as exc:
            raise ExternalMetricError(
                f"metric command printed no number: {stdout[:200]!r}"
            ) from exc
        if not math.isfinite(score):
            raise ExternalMetricError(f"metric command printed a non-finite score: {score}")
        return score
