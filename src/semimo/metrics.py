"""Lower-is-better image quality measures with pinned SSIM constants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .hooks import PgmHook
from .images import image_distance

__all__ = [
    "PSNR_CAP_DB",
    "SSIM_WINDOW",
    "SSIM_C1",
    "SSIM_C2",
    "SSIM_VARIANT",
    "MetricReport",
    "psnr",
    "ssim",
    "mae",
    "mae_lipschitz",
    "metric_lipschitz_probe",
    "metric_report",
    "ExternalMetric",
    "ExternalMetricError",
]

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


def _pair(ref, test) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(ref, dtype=float)
    b = np.asarray(test, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def psnr(ref, test, cap_db: float = PSNR_CAP_DB) -> float:
    """Peak signal-to-noise ratio 10*log10(255^2 / MSE) in dB.

    Identical images would be +inf; they return ``cap_db`` instead so CSV
    output stays finite.
    """
    a, b = _pair(ref, test)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return cap_db
    return min(10.0 * np.log10(255.0**2 / mse), cap_db)


def _window_means(a: np.ndarray, window: int) -> np.ndarray:
    """Means over every fully contained window x window patch."""
    m = uniform_filter(a, size=window, mode="constant")
    lo = window // 2
    hi_trim = window - 1 - lo
    return m[lo : a.shape[0] - hi_trim, lo : a.shape[1] - hi_trim]


def ssim(ref, test, window: int = SSIM_WINDOW, c1: float = SSIM_C1, c2: float = SSIM_C2) -> float:
    """Mean structural similarity over uniform square windows.

    Per window: (2*mx*my + c1)*(2*cov + c2) / ((mx^2 + my^2 + c1)*(vx + vy + c2)),
    with population (divide-by-n) moments. Uniform windows rather than
    Gaussian weighting keep the value exactly reproducible.
    """
    a, b = _pair(ref, test)
    if a.ndim != 2:
        raise ValueError(f"expected 2-D images, got shape {a.shape}")
    if min(a.shape) < window:
        raise ValueError(f"image {a.shape} smaller than {window}x{window} window")
    mx = _window_means(a, window)
    my = _window_means(b, window)
    mxx = _window_means(a * a, window)
    myy = _window_means(b * b, window)
    mxy = _window_means(a * b, window)
    vx = mxx - mx * mx
    vy = myy - my * my
    cov = mxy - mx * my
    score = ((2 * mx * my + c1) * (2 * cov + c2)) / (
        (mx * mx + my * my + c1) * (vx + vy + c2)
    )
    return float(score.mean())


def mae(ref, test) -> float:
    """Mean absolute pixel difference on the [0, 1] intensity scale."""
    a, b = _pair(ref, test)
    return float(np.mean(np.abs(a - b)) / 255.0)


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

    neg_psnr: float
    one_minus_ssim: float
    mae: float
    external: float | None = None


def metric_report(test, ref, external: "ExternalMetric | None" = None) -> MetricReport:
    """Score a reconstruction (first argument) against the reference."""
    ext = external(test, ref) if external is not None else None
    return MetricReport(
        neg_psnr=-psnr(ref, test),
        one_minus_ssim=1.0 - ssim(ref, test),
        mae=mae(ref, test),
        external=ext,
    )


class ExternalMetricError(RuntimeError):
    """The external metric command failed or printed something unusable."""


class ExternalMetric(PgmHook):
    """Out-of-process metric hook.

    The command template receives ``{test}`` and ``{ref}`` placeholders
    substituted with PGM file paths; it must exit 0 and print one real number
    to standard output, and any failure raises ExternalMetricError. This keeps
    learned metrics out of process while still letting them score sweep
    outputs.
    """

    placeholders = ("test", "ref")
    error = ExternalMetricError
    timeout = 120.0

    def __call__(self, test, ref) -> float:
        stdout, _ = self._run({"test": test, "ref": ref})
        try:
            return float(stdout.strip().split()[-1])
        except (IndexError, ValueError) as exc:
            raise ExternalMetricError(
                f"metric command printed no number: {stdout[:200]!r}"
            ) from exc
