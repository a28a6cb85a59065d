"""The per-trial link chain, and grid sweeps over SNR and CSI error built on it."""

from __future__ import annotations

import csv
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from contextvars import Context, copy_context
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .channel import SeedSpec, draw_channel_set
from .config import ConfigError, ExperimentConfig, build_operator, from_db, to_db
from .inference import AffineContraction, apply_operator
from .link import (
    EmpiricalBudget,
    LinkBudget,
    QamParams,
    ber_from_sinr,
    empirical_link_budget,
    expected_distortion,
    link_budget,
)
from .metrics import (
    METRIC_NAMES, SSIM_VARIANT, ExternalMetric, MetricReport, Reference, metric_report,
)
from .precoding import BUILDERS as _BUILDERS, Scheme
from .transceiver import (
    BitPlaneSource, FrameResult, QamConstellation, _sweep_noise, split_bit_planes, transmit_frame,
)

__all__ = [
    "CSV_COLUMNS",
    "Trial",
    "cell_entropy",
    "load_source",
    "load_operator",
    "run_trial",
    "score_frame",
    "run_snr_sweep",
    "run_csi_error_sweep",
    "write_csv",
]

CSV_COLUMNS = [
    "case",
    "scheme",
    "recon",
    "snr_db",
    "err_var_db",
    "trial_count",
    "gamma_analytic_mean",
    "ber_analytic_mean",
    "ber_empirical",
    "i_precode_mean",
    "i_error",
    "exp_distortion",
    *METRIC_NAMES,
    "external_metric",
]


def cell_entropy(master_seed: int, scheme: Scheme, snr_db: float, err_var: float) -> int:
    """Stable 64-bit entropy for one grid cell.

    Derived from the cell's physical coordinates rather than its position in
    the grid, so removing other grid points never changes a cell's result,
    and the perfect-CSI point of a CSI sweep reuses the SNR sweep's seeds.
    The coordinates hash as Python floats, so a ``np.float64`` grid value
    seeds exactly like the equal ``float``, and -0.0 like 0.0.
    """
    snr_db, err_var = float(snr_db) + 0.0, float(err_var) + 0.0  # -0.0 + 0.0 is 0.0
    blob = f"{int(master_seed)}|{Scheme(scheme).value}|{snr_db!r}|{err_var!r}"
    digest = hashlib.sha256(blob.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def load_source(cfg: ExperimentConfig) -> BitPlaneSource:
    """The configured image as bit planes, one plane per user."""
    if cfg.n_users != 8:
        raise ConfigError(f"each of the 8 bit planes needs its own user: n_users is {cfg.n_users}")
    return split_bit_planes(cfg.source_image())


def load_operator(cfg: ExperimentConfig, source: BitPlaneSource):
    """The configured reconstruction operator; a PGM affine anchor must fit ``source``."""
    operator = build_operator(cfg.operator)
    shape = (source.height, source.width)
    anchor = operator.anchor if isinstance(operator, AffineContraction) else None
    if anchor is not None and anchor.ndim and anchor.shape != shape:
        raise ConfigError(f"affine anchor shape {anchor.shape} != image shape {shape}")
    return operator


@dataclass(frozen=True)
class Trial:
    """One channel draw carried through precoder, analytic budget and frames."""

    budget: LinkBudget
    bers: np.ndarray  # analytic per-stream BER
    frames: tuple[FrameResult, ...]
    oracle: EmpiricalBudget | None


def run_trial(
    cfg: ExperimentConfig, scheme: Scheme, snr_db: float, err_var: float,
    source: BitPlaneSource, channel_seed: SeedSpec, frame_seeds: list[SeedSpec],
    oracle_seed: SeedSpec | None = None,
) -> Trial:
    """Draw a channel, precode, budget it, and send ``source`` once per frame seed.

    With ``oracle_seed`` the Monte-Carlo interference oracle also runs over
    ``cfg.n_error_draws`` fresh error draws.
    """
    tx_power = cfg.tx_power(snr_db)
    channel = draw_channel_set(cfg.n_tx, cfg.n_users, err_var, channel_seed)
    f = _BUILDERS[scheme](channel.h_known)
    budget = link_budget(channel, f, tx_power, cfg.noise_var)
    bers = ber_from_sinr(budget.sinr, QamParams(cfg.qam_order))
    oracle = None
    if oracle_seed is not None:
        oracle = empirical_link_budget(
            channel, f, tx_power, cfg.n_error_draws, oracle_seed
        )
    constellation = QamConstellation.square(cfg.qam_order)
    frames = tuple(
        transmit_frame(
            source, channel, f, tx_power, cfg.noise_var, constellation, seed,
            equalize_with_known_gain=cfg.equalize_with_known_gain,
        )
        for seed in frame_seeds
    )
    return Trial(budget, bers, frames, oracle)


def score_frame(
    noisy, clean, operators: dict, external: ExternalMetric | None = None
) -> dict[str, tuple[np.ndarray, MetricReport]]:
    """Score the received image ("identity") and each named operator's output.

    ``clean`` is the reference image or a metrics.Reference built from it;
    every score is taken against it as given, so only a caller that scores
    many frames against one image, such as ``_run_grid``, builds a Reference.
    Returns name -> (image, report), identity first.
    """
    scored = {"identity": (noisy, metric_report(noisy, clean, external))}
    for name, operator in operators.items():
        restored = apply_operator(operator, noisy)
        scored[name] = (restored, metric_report(restored, clean, external))
    return scored


def _frame_seeds(cfg: ExperimentConfig, entropy: int, trial: int) -> list[SeedSpec]:
    """The frame seeds of one trial of the cell with ``entropy``, in the order they are sent."""
    return [SeedSpec(entropy, trial * cfg.n_frames + f) for f in range(cfg.n_frames)]


def _simulate_cell(
    cfg: ExperimentConfig, case: str, scheme: Scheme, snr_db: float, err_var: float,
    source, reference, operator, external,
) -> list[dict]:
    """Simulate one (scheme, SNR, err_var) cell; one output row per recon.

    ``reference`` is the metrics.Reference of ``source``'s image. A CSI cell
    also runs the Monte-Carlo interference oracle. Each per-trial value is
    added to its column's sum in trial order (the CSV's bytes depend on this
    order) and divided by the trial count once.
    """
    trials = cfg.n_channel_trials
    entropy = cell_entropy(cfg.master_seed, scheme, snr_db, err_var)
    sums: dict[str, float] = {}
    oracle_se: list[float] = []
    bit_errors = bits_total = 0
    reports: dict[str, list[MetricReport]] = {}
    for trial in range(trials):
        result = run_trial(
            cfg, scheme, snr_db, err_var, source, SeedSpec(entropy, trial),
            _frame_seeds(cfg, entropy, trial),
            SeedSpec(entropy ^ 0x5EED, trial) if case == "csi" else None,
        )
        values = {
            "gamma_analytic_mean": result.budget.sinr.mean(),
            "ber_analytic_mean": result.bers.mean(),
            "i_precode_mean": result.budget.i_precode.mean(),
            "exp_distortion": expected_distortion(result.bers, cfg.n_users),
        }
        if result.oracle is not None:
            values["i_interference_empirical"] = result.oracle.interference.mean()
            oracle_se.extend(result.oracle.interference_se.tolist())
        for name, value in values.items():
            sums[name] = sums.get(name, 0.0) + float(value)
        for frame in result.frames:
            bit_errors += int(frame.bit_errors.sum())
            bits_total += frame.bits_per_stream * cfg.n_users
            scored = score_frame(frame.image(), reference, {"operator": operator}, external)
            for recon, (_, report) in scored.items():
                reports.setdefault(recon, []).append(report)

    cell = dict(
        case=case, scheme=scheme.value, snr_db=snr_db, err_var_db=to_db(err_var),
        trial_count=trials, ber_empirical=bit_errors / bits_total,
        i_error=result.budget.i_error,  # the same in every trial
        **{name: total / trials for name, total in sums.items()},
        # Deselected metrics keep their column but leave the cell blank.
        **dict.fromkeys(METRIC_NAMES, ""),
    )
    if oracle_se:
        # hypot scales before squaring, so huge powers keep a finite SE.
        cell["i_interference_empirical_se"] = math.hypot(*oracle_se) / cfg.n_users / trials
    # The oracle's columns ride in the returned rows only: the CSV schema is fixed.
    columns = CSV_COLUMNS + [name for name in cell if name not in CSV_COLUMNS]
    rows = []
    for recon, batch in reports.items():
        cell["recon"] = recon
        for name in cfg.metric_set:
            cell[name] = float(np.mean([getattr(r, name) for r in batch]))
        cell["external_metric"] = (
            float(np.mean([r.external for r in batch])) if batch[0].external is not None else ""
        )
        rows.append({name: cell[name] for name in columns})
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_grid(cfg: ExperimentConfig, case: str, grid, out_path=None) -> list[dict]:
    """Run every (snr, err_var, scheme) cell of a sweep, optionally to CSV.

    At one worker the cells run on the calling thread. Where the process may
    use two CPUs or more, every frame of the grid then takes its noise from
    one stream over the grid's frame seeds, in cell, trial and frame order
    (``transceiver._sweep_noise``): one helper thread draws each frame's noise
    one block ahead, so the next frame's noise is drawn while a frame is sent
    and scored. The helper is joined before the sweep returns or raises, and
    an error from its draw is raised from the cell that needed that frame.
    With more workers the cells run on a pool of ``cfg.workers`` threads, each
    cell in a copy of the caller's context, and each frame draws its own
    noise, as on one CPU (``transmit_frame``: a helper thread only for a frame
    above 65,536 symbols per stream). So at any worker count a cell runs under
    the caller's ``np.errstate``, which numpy keeps in a context variable, and
    the bytes do not depend on the helper. Rows always come back in grid
    order. On a cell failure the rows before it are flushed with an error
    marker row appended before the exception propagates.
    """
    source = load_source(cfg)
    # Read-only, so the cells share it under any worker count.
    reference = Reference(source.to_image())
    operator = load_operator(cfg, source)
    external = ExternalMetric(cfg.external_metric) if cfg.external_metric else None

    cells = [(scheme, snr_db, err_var) for (snr_db, err_var) in grid for scheme in Scheme]

    def run(cell):
        return _simulate_cell(cfg, case, *cell, source, reference, operator, external)

    rows: list[dict] = []
    try:
        if cfg.workers > 1:
            # The map yields in grid order and cancels the cells not yet
            # started when one raises.
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                for cell_rows in pool.map(Context.run, [copy_context() for _ in cells],
                                          [run] * len(cells), cells):
                    rows.extend(cell_rows)
        else:
            seeds = [seed for scheme, snr_db, err_var in cells
                     for trial in range(cfg.n_channel_trials)
                     for seed in _frame_seeds(
                         cfg, cell_entropy(cfg.master_seed, scheme, snr_db, err_var), trial)]
            # On one usable CPU the helper can only take turns with this
            # thread: the default SNR sweep took 1.05 of the serial time there.
            with _sweep_noise(seeds) if _usable_cpus() > 1 else nullcontext():
                for cell in cells:
                    rows.extend(run(cell))
    except Exception as exc:
        if out_path is not None:
            marker = {name: "" for name in CSV_COLUMNS}
            marker.update(case=case, recon="error", external_metric=str(exc)[:200])
            write_csv(rows + [marker], out_path)
        raise
    if out_path is not None:
        write_csv(rows, out_path)
    return rows


def run_snr_sweep(cfg: ExperimentConfig, out_path=None) -> list[dict]:
    """Sweep transmit SNR under perfect CSI for both schemes and recons."""
    grid = [(snr_db, 0.0) for snr_db in cfg.snr_grid_db]
    return _run_grid(cfg, "snr", grid, out_path)


def run_csi_error_sweep(cfg: ExperimentConfig, out_path=None) -> list[dict]:
    """Sweep the CSI error variance at the fixed SNR for both schemes.

    Each cell also carries a Monte-Carlo interference estimate over
    ``n_error_draws`` fresh error draws (returned-table columns only).
    """
    grid = [(cfg.fixed_snr_db, from_db(db)) for db in cfg.err_var_grid_db]
    return _run_grid(cfg, "csi", grid, out_path)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.10g}"


def write_csv(rows: list[dict], path) -> None:
    """Write sweep rows in the fixed column order.

    The first line is a timestamp comment; everything after it is a pure
    function of the configuration, so reruns are byte-identical apart from
    that one line. A cell holding a comma, quote or newline (a failure
    message) is quoted, so every row parses to the same columns.
    """
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# generated_at={stamp}\n# ssim={SSIM_VARIANT}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(_format_cell(row.get(name, "")) for name in CSV_COLUMNS)
