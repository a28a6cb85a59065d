"""MF and ZF downlink precoder construction.

``BUILDERS`` maps each ``Scheme`` to its builder: the sweeps pick from it,
and ``semimo bench`` times the builders of that same table.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = [
    "Scheme",
    "DegenerateChannelError",
    "GramConditionError",
    "mf_precoder",
    "zf_precoder",
    "BUILDERS",
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


BUILDERS = {Scheme.MF: mf_precoder, Scheme.ZF: zf_precoder}
