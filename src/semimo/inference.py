"""Contraction-style reconstruction operators and the performance bound algebra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .images import PgmHook, _pieces, box_mean, image_distance
from .link import QamParams

__all__ = [
    "OperatorError",
    "IdentityOperator",
    "AffineContraction",
    "SmoothingDenoiser",
    "ExternalCommandOperator",
    "apply_operator",
    "estimate_rho",
    "estimate_bias",
    "InferenceProfile",
    "semantic_bound",
    "identity_bound",
    "inferiority_threshold",
    "sinr_sensitivity",
]


class OperatorError(RuntimeError):
    """An operator could not produce a usable reconstruction."""


class IdentityOperator:
    """Passes the image through untouched: 1-Lipschitz, zero bias."""

    def __call__(self, image: np.ndarray) -> np.ndarray:
        return np.array(image, dtype=float)


class AffineContraction:
    """Pulls every input toward a fixed anchor image by a known factor.

    G(u) = anchor + factor * (u - anchor). Exactly ``factor``-Lipschitz with a
    closed-form bias, which makes it the calibration operator for bound
    checks. A scalar anchor is a flat image that fits any image size.
    """

    def __init__(self, anchor, factor: float):
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"factor must lie in [0, 1], got {factor}")
        self.anchor = np.asarray(anchor, dtype=float)
        if not np.all(np.isfinite(self.anchor)):
            raise ValueError("anchor must be finite")
        self.factor = float(factor)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        u = np.asarray(image, dtype=float)
        if self.anchor.ndim and u.shape != self.anchor.shape:
            raise OperatorError(
                f"image shape {u.shape} != anchor shape {self.anchor.shape}"
            )
        return self.anchor + self.factor * (u - self.anchor)

    def bias_at(self, clean, error_level: float = 0.0) -> float:
        """Closed-form bias: (1 - factor)*||clean - anchor|| + factor*error_level."""
        anchor = np.broadcast_to(self.anchor, np.shape(clean))
        return (1.0 - self.factor) * image_distance(clean, anchor) + (
            self.factor * error_level
        )


class SmoothingDenoiser:
    """Blends the input with its local box average.

    Output (u + strength * box(u)) / (1 + strength), the closed-form minimizer
    of ||v - u||^2 / 2 + (strength / 2) * ||v - box(u)||^2: a quadratic prior
    pulling each pixel toward its neighborhood mean. With replicated edges the
    box kernel is doubly stochastic, so constants pass through unchanged and
    the operator norm never exceeds 1.
    """

    def __init__(self, strength: float, size: int = 3):
        if not 0 <= strength < np.inf:
            raise ValueError(f"strength must be finite and >= 0, got {strength}")
        if size < 2:
            raise ValueError(f"kernel size must be >= 2, got {size}")
        self.strength = float(strength)
        self.size = int(size)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        """(1 - w) * u + w * box(u) with w = strength / (1 + strength), as a new float array.

        The blend is made in ``box_mean``'s output, strip of rows by strip of
        rows: each strip is scaled by w in place and takes (1 - w) times its
        own rows of u, so the only image-sized array is the output.
        """
        u = np.asarray(image, dtype=float)
        blurred = box_mean(u, self.size)
        w = self.strength / (1.0 + self.strength)
        out, rows = np.atleast_1d(blurred, u)  # a lone pixel as one row, viewing the same data
        for start, stop in _pieces(len(rows), rows[:1].nbytes):
            part = out[start:stop]
            part *= w
            part += (1.0 - w) * rows[start:stop]
        return blurred


class ExternalCommandOperator(PgmHook):
    """Shells out for reconstruction.

    The command template receives ``{in}`` and ``{out}`` placeholders
    substituted with PGM paths; exit code 0 plus a readable output image
    signal success, and any failure raises OperatorError. Lets an actual
    restoration model run out of process.
    """

    placeholders = ("in", "out")
    error = OperatorError
    timeout = 600.0

    def __call__(self, image: np.ndarray) -> np.ndarray:
        _, result = self._run({"in": image}, output="out")
        return result.astype(float)


def apply_operator(op, image) -> np.ndarray:
    """Run a reconstruction operator on a float copy and sanity-check the output."""
    x = np.asarray(image, dtype=float)
    out = np.asarray(op(x), dtype=float)
    if out.shape != x.shape:
        raise OperatorError(f"operator changed image shape {x.shape} -> {out.shape}")
    if not np.all(np.isfinite(out)):
        raise OperatorError("operator produced non-finite pixels")
    return out


def estimate_rho(
    op,
    probe_images,
    perturbation_scale: float,
    n_pairs: int = 120,
    seed: int = 0,
) -> float:
    """Largest observed ||G(u) - G(v)|| / ||u - v|| over perturbation pairs.

    White, constant, and smooth perturbation directions are cycled around
    each probe image; the result is a sampled lower bound on the Lipschitz
    constant and serves as the working contraction factor.
    """
    probes = [np.asarray(p, dtype=float) for p in probe_images]
    if not probes:
        raise ValueError("need at least one probe image")
    if n_pairs < 100:
        raise ValueError(f"need at least 100 probe pairs, got {n_pairs}")
    if perturbation_scale <= 0:
        raise ValueError("perturbation_scale must be > 0")
    rng = np.random.default_rng(seed)
    best = 0.0
    for i in range(n_pairs):
        u = probes[i % len(probes)]
        if i % 3 == 0:  # white
            direction = rng.standard_normal(u.shape)
        elif i % 3 == 1:  # constant: the worst case for averaging kernels
            direction = float(rng.choice((-1.0, 1.0))) * np.ones(u.shape)
        else:  # smooth low-frequency field
            direction = box_mean(rng.standard_normal(u.shape), 9)
        denom = np.linalg.norm(direction.ravel()) / 255.0
        if denom == 0.0:
            continue
        v = u + direction * (perturbation_scale / denom)
        du = image_distance(u, v)
        if du == 0.0:
            continue
        best = max(best, image_distance(apply_operator(op, u), apply_operator(op, v)) / du)
    return best


def estimate_bias(
    op,
    clean_images,
    error_level: float,
    n_trials: int = 100,
    seed: int = 0,
) -> float:
    """Mean ||G(s + e) - s|| over perturbations e with ||e|| = error_level.

    Measures how far the operator lands from the clean source when the input
    is already within ``error_level`` of it; error_level 0 probes the pure
    reconstruction bias.
    """
    images = [np.asarray(s, dtype=float) for s in clean_images]
    if not images:
        raise ValueError("need at least one clean image")
    if error_level < 0:
        raise ValueError("error_level must be >= 0")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = np.random.default_rng(seed)
    total = 0.0
    for i in range(n_trials):
        s = images[i % len(images)]
        if error_level > 0:
            direction = rng.standard_normal(s.shape)
            direction *= error_level / (np.linalg.norm(direction.ravel()) / 255.0)
            x = s + direction
        else:
            x = s
        total += image_distance(apply_operator(op, x), s)
    return total / n_trials


@dataclass(frozen=True)
class InferenceProfile:
    """Everything the bound calculator needs about one receiver chain.

    ``rho`` is the (measured or declared) contraction factor, ``epsilon`` the
    reference error level, ``delta_eps`` the reconstruction bias at that
    level, and ``metric_lipschitz`` the metric's Lipschitz constant in the
    scaled Euclidean image norm.
    """

    rho: float
    epsilon: float
    delta_eps: float
    metric_lipschitz: float

    def __post_init__(self) -> None:
        values = (self.rho, self.epsilon, self.delta_eps, self.metric_lipschitz)
        if not all(np.isfinite(v) for v in values):
            raise ValueError(f"profile fields must be finite, got {values}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if self.epsilon < 0 or self.delta_eps < 0:
            raise ValueError("epsilon and delta_eps must be >= 0")
        if self.metric_lipschitz <= 0:
            raise ValueError("metric_lipschitz must be > 0")


def semantic_bound(
    profile: InferenceProfile, metric_floor: float, expected_err: float
) -> float:
    """Upper bound on the expected metric after contraction reconstruction.

    metric_floor + rho * l_M * (expected_err + epsilon) + l_M * delta_eps,
    where expected_err is E||received - clean|| in the scaled image norm.
    """
    if metric_floor < 0 or expected_err < 0:
        raise ValueError("metric_floor and expected_err must be >= 0")
    l_m = profile.metric_lipschitz
    return (
        metric_floor
        + profile.rho * l_m * (expected_err + profile.epsilon)
        + l_m * profile.delta_eps
    )


def identity_bound(
    metric_floor: float, metric_lipschitz: float, expected_err: float
) -> float:
    """semantic_bound with no reconstruction: rho = 1 and epsilon = delta_eps = 0."""
    identity = InferenceProfile(1.0, 0.0, 0.0, metric_lipschitz)
    return semantic_bound(identity, metric_floor, expected_err)


def inferiority_threshold(profile: InferenceProfile) -> float:
    """Error level below which plain pass-through beats the reconstruction.

    rho * epsilon / (1 - rho) + delta_eps / (1 - rho): when the expected
    received error drops under this value, the bias the operator injects
    outweighs the noise it removes.
    """
    if profile.rho >= 1.0:
        raise ValueError(
            f"threshold undefined for rho={profile.rho}: not a contraction"
        )
    return (profile.rho * profile.epsilon + profile.delta_eps) / (1.0 - profile.rho)


def sinr_sensitivity(
    profile: InferenceProfile, qam: QamParams, sinr: float, stream_index: int
) -> float:
    """Slope of the reconstruction bound with respect to one stream's SINR.

    For the stream carrying weight 2^(stream_index - 1):
    -rho * l_M * (2^(k-1) * alpha / (2 * sqrt(2 pi) * beta))
        * exp(-beta^2 * sinr / 2) / sqrt(sinr).
    Always negative and attenuated linearly by rho.
    """
    if sinr <= 0:
        raise ValueError(f"sinr must be > 0, got {sinr}")
    if stream_index < 1:
        raise ValueError(f"stream_index is 1-based, got {stream_index}")
    weight = 2.0 ** (stream_index - 1)
    return (
        -profile.rho
        * profile.metric_lipschitz
        * weight
        * qam.alpha
        / (2.0 * np.sqrt(2.0 * np.pi) * qam.beta)
        * np.exp(-qam.beta**2 * sinr / 2.0)
        / np.sqrt(sinr)
    )
