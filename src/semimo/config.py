"""Flat key=value experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .images import read_pgm, synthetic_test_image
from .inference import (
    AffineContraction,
    ExternalCommandOperator,
    IdentityOperator,
    SmoothingDenoiser,
)
from .link import square_qam_bits
from .metrics import SSIM_WINDOW, ExternalMetric

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "build_operator", "from_db", "to_db"]


class ConfigError(ValueError):
    """Bad configuration file or values."""


def from_db(db: float) -> float:
    """Decibels to a linear ratio; -inf (perfect CSI on an error grid) gives 0."""
    return 10.0 ** (db / 10.0)


def to_db(value: float) -> float:
    return 10.0 * np.log10(value) if value > 0 else float("-inf")


def _snr_default() -> tuple[float, ...]:
    return tuple(np.arange(-5.0, 20.0 + 1e-9, 2.5))


def _err_grid_default() -> tuple[float, ...]:
    return (float("-inf"),) + tuple(np.arange(-20.0, 0.0 + 1e-9, 2.5))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep and benchmark settings; defaults match the headline system size.

    Grids are in dB; err_var_grid_db entries convert as 10**(db/10) with -inf
    meaning perfect CSI. The transmit SNR is swept through the power, with the
    noise variance held at 1.
    """

    n_tx: int = 16
    n_users: int = 8
    qam_order: int = 4
    noise_var: float = 1.0
    snr_grid_db: tuple[float, ...] = _snr_default()
    err_var_grid_db: tuple[float, ...] = _err_grid_default()
    fixed_snr_db: float = 15.0
    n_channel_trials: int = 3
    n_frames: int = 1
    n_error_draws: int = 10_000
    operator: str = "smooth:strength=1.0"
    image: str = "synthetic"
    image_width: int = 128
    image_height: int = 128
    master_seed: int = 20260810
    workers: int = 1
    equalize_with_known_gain: bool = False
    bench_users: tuple[int, ...] = (32, 48, 64, 96, 128, 192, 256, 384, 512)
    bench_tx_ratio: int = 2
    bench_repetitions: int = 100
    metric_set: tuple[str, ...] = ("mae", "neg_psnr", "one_minus_ssim")
    external_metric: str = ""
    output_path: str = ""
    recon_scheme: str = "zf"
    recon_err_var_db: float = float("-inf")

    def __post_init__(self) -> None:
        if self.n_tx < self.n_users or self.n_users < 1:
            raise ConfigError(f"need n_tx >= n_users >= 1, got {self.n_tx}, {self.n_users}")
        if not self.snr_grid_db or not self.err_var_grid_db:
            raise ConfigError("sweep grids must be non-empty")
        if self.n_channel_trials < 1 or self.n_frames < 1:
            raise ConfigError("trial counts must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if (
            self.bench_repetitions < 1
            or self.bench_tx_ratio < 1
            or not self.bench_users
            or min(self.bench_users) < 1
        ):
            raise ConfigError("bench sizes and repetitions must be >= 1")
        if self.master_seed < 0 or self.master_seed >= 2**64:
            raise ConfigError("master_seed must fit in 64 unsigned bits")
        try:
            square_qam_bits(self.qam_order)
        except ValueError as exc:
            raise ConfigError(f"qam_order: {exc}") from exc
        if self.external_metric:
            try:
                ExternalMetric(self.external_metric)  # checks the template's placeholders
            except ValueError as exc:
                raise ConfigError(f"external_metric: {exc}") from exc
        if self.recon_scheme not in ("mf", "zf"):
            raise ConfigError(f"recon_scheme must be mf or zf, got {self.recon_scheme!r}")
        known_metrics = {"mae", "neg_psnr", "one_minus_ssim"}
        if not self.metric_set or not set(self.metric_set) <= known_metrics:
            raise ConfigError(
                f"metric_set must be a non-empty subset of {sorted(known_metrics)}, "
                f"got {self.metric_set}"
            )

    def tx_power(self, snr_db: float) -> float:
        return self.noise_var * from_db(snr_db)

    def source_image(self) -> np.ndarray:
        """The configured source image, at least one SSIM window on each side."""
        try:
            if self.image == "synthetic":
                image = synthetic_test_image(self.image_width, self.image_height)
            else:
                image = read_pgm(self.image)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load image {self.image!r}: {exc}") from exc
        if min(image.shape) < SSIM_WINDOW:
            raise ConfigError(
                f"image {self.image!r} is {image.shape[1]}x{image.shape[0]}, smaller "
                f"than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
            )
        return image


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _split(item):
    return lambda text: tuple(item(tok.strip()) for tok in text.split(","))


# Parsers by annotation; with postponed annotations a field's type is its source text.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": lambda text: _BOOL_VALUES[text.lower()],
    "tuple[float, ...]": _split(float),
    "tuple[int, ...]": _split(int),
    "tuple[str, ...]": _split(str),
}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def _parse_value(name: str, text: str):
    try:
        return _FIELD_PARSERS[name](text)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {name}: {text!r}") from exc


def load_config(path=None, **overrides) -> ExperimentConfig:
    """Build a config from an optional ``key = value`` file plus overrides.

    Lines starting with # and blank lines are ignored; unknown keys are
    rejected rather than silently dropped.
    """
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!s}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path!s}:{lineno}: expected key = value, got {raw!r}")
            name, _, value = line.partition("=")
            name = name.strip()
            if name not in _FIELD_PARSERS:
                raise ConfigError(f"{path!s}:{lineno}: unknown key {name!r}")
            values[name] = _parse_value(name, value.strip())
    for name, value in overrides.items():
        if value is None:
            continue
        if name not in _FIELD_PARSERS:
            raise ConfigError(f"unknown config override {name!r}")
        values[name] = value
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def build_operator(spec: str):
    """Instantiate a reconstruction operator from its config spelling.

    identity | affine:factor=R,anchor=flat:V | smooth:strength=S,size=N |
    external:<command template with {in} and {out}>. An affine anchor may
    also be a PGM path.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "identity":
        return IdentityOperator()
    if kind == "external":
        if not rest.strip():
            raise ConfigError("external operator needs a command template")
        try:
            return ExternalCommandOperator(rest.strip())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    allowed = {"smooth": {"strength", "size"}, "affine": {"factor", "anchor"}}
    if kind not in allowed:
        raise ConfigError(f"unknown operator kind {kind!r} in {spec!r}")
    options: dict[str, str] = {}
    for part in filter(None, (p.strip() for p in rest.split(","))):
        key, _, value = part.partition("=")
        key = key.strip()
        if not value or key not in allowed[kind]:
            raise ConfigError(f"bad operator option {part!r} in {spec!r}")
        options[key] = value.strip()
    try:
        if kind == "smooth":
            return SmoothingDenoiser(
                strength=float(options.get("strength", "1.0")),
                size=int(options.get("size", "3")),
            )
        factor = float(options.get("factor", "0.5"))
        anchor_spec = options.get("anchor", "flat:128")
        if anchor_spec.startswith("flat:"):
            return AffineContraction(float(anchor_spec.split(":", 1)[1]), factor)
        return AffineContraction(read_pgm(anchor_spec), factor)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad operator spec {spec!r}: {exc}") from exc

