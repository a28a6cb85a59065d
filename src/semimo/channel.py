"""Rayleigh MIMO channel draws with a transmitter-side CSI error split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeedSpec",
    "ChannelSet",
    "complex_gaussian",
    "draw_channel_set",
    "dump_channel_set",
    "load_channel_set",
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
    if err_var < 0:
        raise ValueError(f"err_var must be >= 0, got {err_var}")


@dataclass(frozen=True)
class ChannelSet:
    """True and transmitter-known channels for one realization.

    Columns are per-user channels: ``h_true[:, k]`` is what user k actually
    sees, ``h_known[:, k]`` is what the transmitter designs against, and
    ``h_true = h_known + error`` with per-entry (complex circular) error
    variance ``err_var``. Arrays are read-only, so a ChannelSet can be shared
    freely between workers.
    """

    n_tx: int
    n_users: int
    h_true: np.ndarray
    h_known: np.ndarray
    err_var: float

    def __post_init__(self) -> None:
        _check_sizes(self.n_tx, self.n_users, self.err_var)
        shape = (self.n_tx, self.n_users)
        if self.h_true.shape != shape or self.h_known.shape != shape:
            raise ValueError(
                f"channel matrices must both be {shape}, got "
                f"{self.h_true.shape} and {self.h_known.shape}"
            )

    @property
    def error(self) -> np.ndarray:
        """The CSI error matrix h_true - h_known."""
        return self.h_true - self.h_known


def complex_gaussian(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """Circularly symmetric complex Gaussian entries with the given variance.

    Draws the real parts, then the imaginary parts, from ``rng``.
    """
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


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
    if err_var > 0:
        h_true = np.asfortranarray(h_known + complex_gaussian(rng, shape, err_var))
    else:
        h_true = h_known.copy(order="F")
    h_known.flags.writeable = False
    h_true.flags.writeable = False
    return ChannelSet(n_tx, n_users, h_true, h_known, float(err_var))


def _format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}j"


def dump_channel_set(channel: ChannelSet, path) -> None:
    """Write a ChannelSet as plain text.

    Header line ``n_tx n_users err_var``, then the rows of h_true followed by
    the rows of h_known, one complex entry per token in re+imj form.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{channel.n_tx} {channel.n_users} {channel.err_var!r}\n")
        for matrix in (channel.h_true, channel.h_known):
            for row in matrix:
                fh.write(" ".join(_format_complex(z) for z in row) + "\n")


def load_channel_set(path) -> ChannelSet:
    """Inverse of dump_channel_set."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"malformed header in {path!s}: {header}")
        n_tx, n_users, err_var = int(header[0]), int(header[1]), float(header[2])
        entries = [
            [complex(tok) for tok in fh.readline().split()] for _ in range(2 * n_tx)
        ]
    stacked = np.array(entries, dtype=np.complex128)
    if stacked.shape != (2 * n_tx, n_users):
        raise ValueError(
            f"expected {2 * n_tx}x{n_users} entries in {path!s}, got {stacked.shape}"
        )
    h_true = np.asfortranarray(stacked[:n_tx])
    h_known = np.asfortranarray(stacked[n_tx:])
    h_true.flags.writeable = False
    h_known.flags.writeable = False
    return ChannelSet(n_tx, n_users, h_true, h_known, err_var)
