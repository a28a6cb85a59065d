"""Rayleigh MIMO channel draws with a transmitter-side CSI error split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeedSpec",
    "ChannelSet",
    "complex_gaussian",
    "draw_channel_set",
]


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one random realization as (master_seed, trial_index).

    Distinct trial indices open statistically independent substreams of the
    same master seed, so trials can run in any order, or in parallel, without
    sharing generator state.
    """

    master_seed: int
    trial_index: int = 0

    def rng(self, *subkey: int) -> np.random.Generator:
        """Fresh generator for this trial; extra ints select nested substreams."""
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.trial_index, *subkey)
        )
        return np.random.default_rng(ss)


def _check_sizes(n_tx: int, n_users: int, err_var: float) -> None:
    if n_users < 1:
        raise ValueError("need at least one user")
    if n_tx < n_users:
        raise ValueError(
            f"n_tx={n_tx} < n_users={n_users}: the ZF Gram matrix would be singular"
        )
    if not 0 <= err_var < np.inf:  # NaN fails every comparison
        raise ValueError(f"err_var must be finite and >= 0, got {err_var}")


@dataclass(frozen=True)
class ChannelSet:
    """True and transmitter-known channels for one realization.

    Columns are per-user channels: ``h_true[:, k]`` is what user k actually
    sees, ``h_known[:, k]`` is what the transmitter designs against, and
    ``h_true = h_known + error`` with per-entry (complex circular) error
    variance ``err_var``. The sizes are read off ``h_known``'s shape
    ``(n_tx, n_users)``. Arrays are read-only, so a ChannelSet can be shared
    freely between workers.
    """

    h_true: np.ndarray
    h_known: np.ndarray
    err_var: float

    def __post_init__(self) -> None:
        if self.h_known.ndim != 2 or self.h_true.shape != self.h_known.shape:
            raise ValueError(
                f"channel matrices must both be (n_tx, n_users), got "
                f"{self.h_true.shape} and {self.h_known.shape}"
            )
        _check_sizes(self.n_tx, self.n_users, self.err_var)

    @property
    def n_tx(self) -> int:
        return self.h_known.shape[0]

    @property
    def n_users(self) -> int:
        return self.h_known.shape[1]


def _normal_parts(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out[0]`` with the real parts' normals, then ``out[1]`` with the imaginary parts'.

    The one draw order of complex Gaussian entries: ``out[0]`` gets the next
    ``standard_normal`` block of ``rng`` in its shape and ``out[1]`` the block
    after it. ``out`` is a C-contiguous float64 array of two equal parts.
    """
    for part in out:
        rng.standard_normal(out=part)
    return out


def complex_gaussian(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """Circularly symmetric complex Gaussian entries with the given variance.

    Draw order: the real parts, then the imaginary parts (``_normal_parts``).
    The result is one C-contiguous complex128 array, filled part by part and
    scaled in place by ``sqrt(var / 2)``; its bytes equal ``sqrt(var / 2) *
    (x + 1j * y)``.
    """
    x, y = _normal_parts(rng, np.empty((2, *shape)))
    out = np.empty(x.shape, dtype=np.complex128)
    out.real = x
    out.imag = y
    out *= np.sqrt(var / 2.0)
    return out


def draw_channel_set(
    n_tx: int, n_users: int, err_var: float, seed: SeedSpec
) -> ChannelSet:
    """Draw one channel realization.

    The transmitter-known columns are i.i.d. complex Gaussian with per-entry
    variance 1/n_tx, so the expected per-user channel power is 1 regardless
    of the array size. The error matrix is drawn independently with per-entry
    variance ``err_var`` and added on top, which mildly inflates the true
    channel power to 1/n_tx + err_var per entry.

    Parameters
    ----------
    n_tx, n_users : int
        Transmit antennas and single-antenna users; n_tx >= n_users >= 1.
    err_var : float
        Per-entry variance of the CSI error; 0 means perfect CSI.
    seed : SeedSpec
        Identifies the realization; equal seeds give bit-identical output.
    """
    _check_sizes(n_tx, n_users, err_var)
    rng = seed.rng()
    shape = (n_tx, n_users)
    # Fortran order keeps per-user columns contiguous.
    h_known = np.asfortranarray(complex_gaussian(rng, shape, 1.0 / n_tx))
    # At err_var 0 the error entries are +-0, and h_known + +-0 is h_known bit for bit.
    h_true = np.asfortranarray(h_known + complex_gaussian(rng, shape, err_var))
    h_known.flags.writeable = False
    h_true.flags.writeable = False
    return ChannelSet(h_true, h_known, float(err_var))
