"""Average-SINR link budgets, the M-QAM BER curve, and bit-weighted distortion."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, SeedSpec
from .images import _pieces

__all__ = [
    "QamParams",
    "LinkBudget",
    "EmpiricalBudget",
    "q_function",
    "square_qam_bits",
    "link_budget",
    "empirical_link_budget",
    "ber_from_sinr",
    "expected_distortion",
]


def square_qam_bits(order: int) -> int:
    """Bits per symbol of square M-QAM; rejects orders other than 4, 16, 64, ..."""
    bits = int(order).bit_length() - 1
    if order < 4 or order != 1 << bits or bits % 2:
        raise ValueError(f"order must be 4, 16, 64, ... (square QAM), got {order}")
    return bits


@dataclass(frozen=True)
class QamParams:
    """BER curve parameters for square M-QAM: BER = alpha * Q(beta * sqrt(sinr))."""

    order: int
    alpha: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self) -> None:
        m = self.order
        square_qam_bits(m)
        object.__setattr__(self, "alpha", (4.0 / np.log2(m)) * (1.0 - 1.0 / np.sqrt(m)))
        object.__setattr__(self, "beta", float(np.sqrt(3.0 / (m - 1))))


@dataclass(frozen=True)
class LinkBudget:
    """Per-user power decomposition and the average SINR it composes to.

    sinr_k = (p_precode_k + p*err_var) / (i_precode_k + i_error + noise_var).
    The error term i_error = p*(K-1)*err_var is one number: it depends on the
    system parameters only, not on the user or the channel draw.
    """

    p_precode: np.ndarray  # p |h_known_k^H f_k|^2
    i_precode: np.ndarray  # p sum_{j != k} |h_known_k^H f_j|^2
    i_error: float  # p (K-1) err_var
    sinr: np.ndarray


def q_function(x):
    """Gaussian tail probability Q(x) = erfc(x / sqrt(2)) / 2, via math.erfc per element.

    A scalar gives a numpy float, an array an array of the same shape.
    """
    z = np.asarray(x, dtype=float) / np.sqrt(2.0)
    tail = np.fromiter(map(math.erfc, z.flat), float, z.size).reshape(z.shape)
    return 0.5 * tail


def _check_link(channel: ChannelSet, f: np.ndarray, tx_power: float) -> None:
    """Reject a ``tx_power`` that is not finite and > 0, or an ``f`` not shaped like the channel."""
    if not 0 < tx_power < np.inf:  # NaN fails every comparison
        raise ValueError(f"tx_power must be finite and > 0, got {tx_power}")
    if f.shape != channel.h_known.shape:
        raise ValueError(f"precoder shape {f.shape} != channel shape {channel.h_known.shape}")


def link_budget(
    channel: ChannelSet, f: np.ndarray, tx_power: float, noise_var: float
) -> LinkBudget:
    """Analytic power split seen by each user under ``f``, averaged over the CSI error.

    All cross terms come from the transmitter-known channel; the expectation
    over the error is already folded in as the p*err_var and p*(K-1)*err_var
    terms.
    """
    _check_link(channel, f, tx_power)
    if not 0 < noise_var < np.inf:
        raise ValueError(f"noise_var must be finite and > 0, got {noise_var}")
    h = channel.h_known
    cross = np.abs(h.conj().T @ f) ** 2  # cross[k, j] = |h_k^H f_j|^2
    diag = np.diagonal(cross).copy()
    p_precode = tx_power * diag
    i_precode = tx_power * (cross.sum(axis=1) - diag)
    i_error = tx_power * (channel.n_users - 1) * channel.err_var
    sinr = (p_precode + tx_power * channel.err_var) / (i_precode + i_error + noise_var)
    return LinkBudget(p_precode, i_precode, i_error, sinr)


@dataclass(frozen=True)
class EmpiricalBudget:
    """Monte-Carlo estimate of the desired and interference powers.

    ``desired_power[k]`` estimates E[p |h_k^H f_k|^2] and ``interference[k]``
    estimates E[p sum_{j != k} |h_k^H f_j|^2] over fresh CSI error draws with
    h_known held fixed; the ``*_se`` arrays are standard errors of those means.
    """

    desired_power: np.ndarray
    interference: np.ndarray
    desired_se: np.ndarray
    interference_se: np.ndarray
    n_trials: int


def empirical_link_budget(
    channel: ChannelSet,
    f: np.ndarray,
    tx_power: float,
    n_trials: int,
    seed: SeedSpec,
) -> EmpiricalBudget:
    """Monte-Carlo oracle for link_budget: redraw the CSI error, average powers.

    Since |h_k(t)^H f_j| = |f_j^H h_k(t)|, trial t of user k maps its error
    e_t through conj(F): ``rows[t] = h_k^T F* + e_t^T F*``, and the gains are
    ``re**2 + im**2`` of those rows. Only the K-dimensional image e_t^T F*
    reaches the gains, so that image is what is drawn. Write F* = Q R with Q
    an ``(n_tx, K)`` matrix of orthonormal columns and R upper triangular
    (``np.linalg.qr``). Householder QR gives such a Q for any F, a
    rank-deficient one included, where R is singular but F* = Q R still
    holds. For e_t ~ CN(0, err_var I) the vector e_t^T Q is CN(0, err_var I_K)
    (a circular Gaussian is invariant under a unitary map, and the columns
    of Q are orthonormal), so e_t^T F* has the distribution of w_t^T R with
    w_t ~ CN(0, err_var I_K): the same distribution as the n_tx-dimensional
    draw, from half the normals when n_tx = 2K.

    Draw layout: one ``seed.rng()``; for each user k in turn, its trials in
    the pieces of ``images._pieces``, each piece's ``standard_normal`` of
    shape ``(trials, 2K)`` read as complex ``z`` (real and imaginary parts
    interleaved), and ``rows = z @ (R sqrt(err_var / 2)) + h_k^T F*``. The
    stream and every output byte are those of one piece of all the trials.
    Each trial's desired and interference gains go into two arrays of
    length ``n_trials``; nothing else outlives a piece, and calls share
    nothing. With perfect CSI nothing is drawn: every trial would repeat the
    known channel's gains, so the means are ``link_budget``'s powers bit for
    bit and the standard errors are exactly 0. With a CSI error, ``n_trials``
    must be >= 2 for the draws to give a standard error. Means and standard
    errors are taken of the unscaled gains and then multiplied by ``p``, so
    their squares stay finite at any finite ``p``.
    """
    _check_link(channel, f, tx_power)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if channel.err_var == 0:
        # Every trial repeats the known channel's gains: exact means, zero spread.
        # noise_var = 1.0 moves only link_budget's sinr, which is not returned.
        known = link_budget(channel, f, tx_power, 1.0)
        zero_se = np.zeros((2, channel.n_users))
        return EmpiricalBudget(known.p_precode, known.i_precode, *zero_se, n_trials)
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2 with a CSI error: one draw has no standard error")
    h = channel.h_known
    n_users = h.shape[1]
    f_conj = f.conj()

    estimates = np.empty((4, n_users))
    desired, interference, desired_se, interference_se = estimates
    rng = seed.rng()
    r = np.linalg.qr(f_conj, mode="r") * np.sqrt(channel.err_var / 2.0)
    des, intf = np.empty(n_trials), np.empty(n_trials)  # each trial's gains for user k
    for k in range(n_users):
        known = h[:, k] @ f_conj
        for start, stop in _pieces(n_trials, 32 * n_users):  # complex normals and rows
            # rows[t, j] = conj(h_k(t)^H f_j) with h_k(t) = h_k + e_t
            z = rng.standard_normal((stop - start, 2 * n_users)).view(np.complex128)
            # gemm's rows do not depend on the row count; one row alone
            # would go through gemv, which rounds otherwise.
            rows = z @ r if len(z) > 1 else (np.vstack([z, z]) @ r)[:1]
            rows += known
            gains = rows.real**2 + rows.imag**2
            des[start:stop] = gains[:, k]
            np.subtract(gains.sum(axis=1), gains[:, k], out=intf[start:stop])
        desired[k] = des.mean()
        interference[k] = intf.mean()
        desired_se[k] = des.std(ddof=1) / np.sqrt(n_trials)
        interference_se[k] = intf.std(ddof=1) / np.sqrt(n_trials)
    estimates *= tx_power
    return EmpiricalBudget(*estimates, n_trials)


def ber_from_sinr(sinr, qam: QamParams):
    """Uncoded bit error rate alpha * Q(beta * sqrt(sinr)), clamped to [0, 1].

    Accepts scalars or arrays; rejects negative or NaN SINR.
    """
    gamma = np.asarray(sinr, dtype=float)
    if not np.all(gamma >= 0):  # NaN fails every comparison; +inf gives BER 0
        raise ValueError("sinr must be >= 0")
    ber = np.clip(qam.alpha * q_function(qam.beta * np.sqrt(gamma)), 0.0, 1.0)
    return float(ber) if np.isscalar(sinr) else ber


def expected_distortion(bers, n_streams: int | None = None) -> float:
    """Expected per-pixel absolute error sum_k 2^(k-1) * BER_k.

    Stream k (1-based) carries binary weight 2^(k-1); valid as long as at most
    one bit per pixel is hit, i.e. for small per-stream error rates.
    """
    rates = np.asarray(bers, dtype=float)
    if rates.ndim != 1:
        raise ValueError("bers must be a 1-D array")
    if n_streams is not None and rates.size != n_streams:
        raise ValueError(f"expected {n_streams} per-stream BERs, got {rates.size}")
    if not np.all((rates >= 0) & (rates <= 1)):  # NaN fails every comparison
        raise ValueError("BER values must lie in [0, 1]")
    weights = 2.0 ** np.arange(rates.size)
    return float(weights @ rates)
