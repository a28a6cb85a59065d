"""MF and ZF downlink precoder construction and the build timings of ``semimo bench``."""

from __future__ import annotations

import time
from enum import Enum

import numpy as np

from .channel import complex_gaussian

__all__ = [
    "Scheme",
    "DegenerateChannelError",
    "GramConditionError",
    "mf_precoder",
    "zf_precoder",
    "precoder_build_times",
    "probe_channel",
    "DEFAULT_COND_LIMIT",
]

DEFAULT_COND_LIMIT = 1e12


class Scheme(str, Enum):
    MF = "mf"
    ZF = "zf"


class DegenerateChannelError(ValueError):
    """A user's channel column is zero; no beam direction exists for it."""


class GramConditionError(ValueError):
    """The K x K Gram matrix is too ill-conditioned to invert for ZF."""


def _as_channel_matrix(h_known) -> np.ndarray:
    h = np.asfortranarray(h_known, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
        raise ValueError(f"expected a 2-D channel matrix, got shape {h.shape}")
    return h


def mf_precoder(h_known) -> np.ndarray:
    """Matched filter: each beam points along its own user's channel.

    f_k = h_known[:, k] / ||h_known[:, k]||, built user by user; interference
    between users is ignored entirely. Returns the read-only ``(n_tx,
    n_users)`` matrix F with unit-norm columns.
    """
    h = _as_channel_matrix(h_known)
    f = np.empty(h.shape, dtype=np.complex128, order="F")
    for k in range(h.shape[1]):
        col = h[:, k]
        norm = np.sqrt(np.vdot(col, col).real)
        if norm == 0.0:
            raise DegenerateChannelError(f"channel column {k} is zero")
        # numpy's complex division already multiplies by the reciprocal; a
        # complex-by-real multiply gives equal values in a third of the time.
        np.multiply(col, 1.0 / norm, out=f[:, k])
    f.flags.writeable = False
    return f


def zf_precoder(h_known) -> np.ndarray:
    """Zero forcing: each beam lies in the null space of the other users.

    Takes the columns of H (H^H H)^{-1} and renormalizes them to unit power.
    The K x K Gram matrix goes through an LU solve rather than an entrywise
    inverse, and is rejected when its condition number exceeds
    DEFAULT_COND_LIMIT (duplicate or near-parallel user channels; nothing is
    regularized silently). Returns the read-only ``(n_tx, n_users)`` matrix
    F with unit-norm columns.
    """
    h = _as_channel_matrix(h_known)
    n_tx, n_users = h.shape
    if n_tx < n_users:
        raise ValueError(
            f"n_tx={n_tx} < n_users={n_users}: Gram matrix cannot be full rank"
        )
    gram = h.conj().T @ h
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > DEFAULT_COND_LIMIT:
        raise GramConditionError(
            f"Gram matrix condition number {cond:.3e} exceeds limit "
            f"{DEFAULT_COND_LIMIT:.3e}; user channels are (near-)linearly dependent"
        )
    inv_gram = np.linalg.solve(gram, np.eye(n_users, dtype=np.complex128))
    raw = h @ inv_gram
    f = np.asfortranarray(raw / np.linalg.norm(raw, axis=0))
    f.flags.writeable = False
    return f


def probe_channel(n_tx: int, n_users: int, seed: int = 0) -> np.ndarray:
    """The unit-power Rayleigh channel that ``semimo bench`` builds precoders for."""
    if n_tx < 1 or n_users < 1:
        raise ValueError("sizes must be >= 1")
    rng = np.random.default_rng(seed)
    return np.asfortranarray(complex_gaussian(rng, (n_tx, n_users), 1.0 / n_tx))


def precoder_build_times(scheme: Scheme | str, h: np.ndarray, count: int) -> np.ndarray:
    """Wall-clock seconds of ``count`` precoder builds on ``h``.

    Times construction only; an untimed warm-up build runs first.
    """
    if count < 1:
        raise ValueError("repetitions must be >= 1")
    build = mf_precoder if Scheme(scheme) is Scheme.MF else zf_precoder
    build(h)
    samples = np.empty(count)
    for i in range(count):
        start = time.perf_counter()
        build(h)
        samples[i] = time.perf_counter() - start
    return samples

