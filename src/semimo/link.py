"""Average-SINR link budgets, the M-QAM BER curve, and bit-weighted distortion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .channel import ChannelSet, SeedSpec, complex_gaussian
from .precoding import Precoder

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

    sinr_k = (p_precode_k + p*err_var) / (i_precode_k + i_error_k + noise_var),
    with i_error_k = p*(K-1)*err_var identical across users (it depends on the
    system parameters only, not on the channel draw).
    """

    p_precode: np.ndarray  # p |h_known_k^H f_k|^2
    i_precode: np.ndarray  # p sum_{j != k} |h_known_k^H f_j|^2
    i_error: np.ndarray  # p (K-1) err_var, constant across users
    sinr: np.ndarray
    tx_power: float
    noise_var: float
    err_var: float


def q_function(x):
    """Gaussian tail probability Q(x) = erfc(x / sqrt(2)) / 2."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def link_budget(
    channel: ChannelSet, precoder: Precoder, tx_power: float, noise_var: float
) -> LinkBudget:
    """Analytic power split seen by each user, averaged over the CSI error.

    All cross terms come from the transmitter-known channel; the expectation
    over the error is already folded in as the p*err_var and p*(K-1)*err_var
    terms.
    """
    if tx_power <= 0:
        raise ValueError(f"tx_power must be > 0, got {tx_power}")
    if noise_var <= 0:
        raise ValueError(f"noise_var must be > 0, got {noise_var}")
    h = channel.h_known
    f = precoder.matrix_f
    if f.shape != h.shape:
        raise ValueError(f"precoder shape {f.shape} != channel shape {h.shape}")
    cross = np.abs(h.conj().T @ f) ** 2  # cross[k, j] = |h_k^H f_j|^2
    diag = np.diagonal(cross).copy()
    p_precode = tx_power * diag
    i_precode = tx_power * (cross.sum(axis=1) - diag)
    n_users = channel.n_users
    i_error = np.full(n_users, tx_power * (n_users - 1) * channel.err_var)
    sinr = (p_precode + tx_power * channel.err_var) / (i_precode + i_error + noise_var)
    return LinkBudget(
        p_precode, i_precode, i_error, sinr, float(tx_power), float(noise_var),
        channel.err_var,
    )


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
    sinr: np.ndarray
    n_trials: int


def empirical_link_budget(
    channel: ChannelSet,
    precoder: Precoder,
    tx_power: float,
    noise_var: float,
    n_trials: int,
    seed: SeedSpec,
) -> EmpiricalBudget:
    """Monte-Carlo oracle for link_budget: redraw the CSI error, average powers."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    h = channel.h_known
    f = precoder.matrix_f
    if f.shape != h.shape:
        raise ValueError(f"precoder shape {f.shape} != channel shape {h.shape}")
    n_tx, n_users = h.shape
    rng = seed.rng()

    desired = np.empty(n_users)
    interference = np.empty(n_users)
    desired_se = np.empty(n_users)
    interference_se = np.empty(n_users)
    for k in range(n_users):
        if channel.err_var > 0:
            err = complex_gaussian(rng, (n_trials, n_tx), channel.err_var)
            rows = (h[:, k] + err).conj() @ f  # rows[t, j] = h_k(t)^H f_j
        else:
            rows = np.broadcast_to(h[:, k].conj() @ f, (n_trials, n_users))
        powers = tx_power * np.abs(rows) ** 2
        des = powers[:, k]
        intf = powers.sum(axis=1) - des
        desired[k] = des.mean()
        interference[k] = intf.mean()
        desired_se[k] = des.std(ddof=1) / np.sqrt(n_trials) if n_trials > 1 else 0.0
        interference_se[k] = (
            intf.std(ddof=1) / np.sqrt(n_trials) if n_trials > 1 else 0.0
        )
    sinr = desired / (interference + noise_var)
    return EmpiricalBudget(
        desired, interference, desired_se, interference_se, sinr, n_trials
    )


def ber_from_sinr(sinr, qam: QamParams):
    """Uncoded bit error rate alpha * Q(beta * sqrt(sinr)), clamped to [0, 1].

    Accepts scalars or arrays; rejects negative SINR.
    """
    gamma = np.asarray(sinr, dtype=float)
    if np.any(gamma < 0):
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
    if np.any((rates < 0) | (rates > 1)):
        raise ValueError("BER values must lie in [0, 1]")
    weights = 2.0 ** np.arange(rates.size)
    return float(weights @ rates)
