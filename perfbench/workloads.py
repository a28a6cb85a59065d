"""The three benchmark workloads, their output checks and their trace targets.

Every workload is a closed loop with one client: it issues one blocking call
into the library (a sweep, or one image through the pipeline), waits for it,
checks the output against the paper's oracle pairs, and issues the next. The
library is reached only through its public functions, looked up on their
module at call time so that a traced run can wrap them in place.

Import this module only after the BLAS thread count is pinned: it imports
numpy.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# The sweep CSV schema as documented in the README, in its fixed order.
CSV_COLUMNS = [
    "case", "scheme", "recon", "snr_db", "err_var_db", "trial_count",
    "gamma_analytic_mean", "ber_analytic_mean", "ber_empirical", "i_precode_mean",
    "i_error", "exp_distortion", "mae", "neg_psnr", "one_minus_ssim", "external_metric",
]
_TEXT_COLUMNS = {"case", "scheme", "recon", "err_var_db", "external_metric"}

IMAGE_SIZES = (128, 512, 1024)
# A run makes at least this many timed operations, however short --seconds is.
MIN_OPS = 3
# Tail probability allowed to each bit-error-count check (Bernstein bound).
BER_CHECK_DELTA = 1e-9
# Z-score allowed to the Monte-Carlo interference oracle against the analytic
# decomposition: at 5 sigma a correct program fails one row in ~1.7 million.
ORACLE_Z = 5.0


def master_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"perfbench|{workload}|{seed}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def config_text(workload: str, seed: int) -> str:
    """The generated config file: the library defaults spelled out, plus the seed.

    The SNR and error-variance grids stay at their defaults (11 SNR points,
    10 error variances), so that cell seeds match the CLI's default sweeps.
    """
    return "\n".join([
        f"# perfbench workload {workload}, seed {seed}",
        "n_tx = 16",
        "n_users = 8",
        "qam_order = 4",
        "noise_var = 1.0",
        "fixed_snr_db = 15.0",
        "n_channel_trials = 3",
        "n_frames = 1",
        "n_error_draws = 10000",
        "operator = smooth:strength=1.0",
        "image = synthetic",
        "image_width = 128",
        "image_height = 128",
        "metric_set = mae, neg_psnr, one_minus_ssim",
        f"master_seed = {master_seed(workload, seed)}",
        "workers = 1",
        "",
    ])


# ---------------------------------------------------------------- set-up


@dataclass
class Ready:
    workload: str
    workdir: Path
    lib: dict  # semimo submodules by short name
    cfg: object
    images: dict  # size -> uint8 image (image_transport) or {"source": image}
    operator: object


def import_library(root: Path) -> dict:
    """Import semimo from the checkout's own ``src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    names = ("channel", "config", "images", "inference", "link", "metrics",
             "precoding", "sweeps", "transceiver")
    lib = {name: importlib.import_module(f"semimo.{name}") for name in names}
    origin = Path(lib["config"].__file__).resolve()
    if src not in origin.parents:
        raise RuntimeError(f"semimo imported from {origin}, not from {src}")
    return lib


def build_inputs(lib: dict, workload: str, seed: int, workdir: Path) -> Ready:
    """Config, source image(s) and operator: the rest of set-up after imports.

    A sweep builds its own source image from the config on every call; the
    one built here is part of set-up time, as it is for the CLI.
    """
    path = workdir / f"{workload}-{seed}.cfg"
    path.write_text(config_text(workload, seed), encoding="utf-8")
    cfg = lib["config"].load_config(path)
    if workload == "image_transport":
        images = {s: lib["images"].synthetic_test_image(s, s) for s in IMAGE_SIZES}
    else:
        images = {"source": cfg.source_image()}
    operator = lib["config"].build_operator(cfg.operator)
    return Ready(workload, workdir, lib, cfg, images, operator)


def setup(root: Path, workload: str, seed: int, workdir: Path) -> Ready:
    return build_inputs(import_library(root), workload, seed, workdir)


# ---------------------------------------------------------------- results


@dataclass
class Outcome:
    """Timings and check results of the timed operations of one run."""

    samples: dict = field(default_factory=dict)  # metric -> list of values
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    csv_sha256: set = field(default_factory=set)
    traced: bool = False  # samples of traced operations get a "traced:" prefix

    def add(self, name: str, value: float) -> None:
        key = f"traced:{name}" if self.traced else name
        self.samples.setdefault(key, []).append(value)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}"[:400])


# ---------------------------------------------------------------- sweeps


def _csv_body_sha256(text: str) -> str:
    body = "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("# generated_at=")
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _sweep_grid(cfg, case: str) -> list[tuple[float, float]]:
    if case == "snr":
        return [(float(s), 0.0) for s in cfg.snr_grid_db]
    return [(float(cfg.fixed_snr_db), 0.0 if db == -math.inf else 10.0 ** (db / 10.0))
            for db in cfg.err_var_grid_db]


def _close(a: float, b: float, rel: float = 1e-8) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _parse_csv(csv_text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in csv_text.splitlines() if not line.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(lines))))
    return (table[0], table[1:]) if table else ([], [])


def _is_oracle_column(name: str) -> bool:
    return name.startswith("i_interference_empirical")


def oracle_csv_cells(csv_text: str) -> int:
    """Sweep cells whose Monte-Carlo oracle estimate reached the CSV."""
    header, body = _parse_csv(csv_text)
    if "i_interference_empirical" not in header:
        return 0
    at = header.index("i_interference_empirical")
    return sum(1 for values in body if values[2] == "identity" and values[at] != "")


def check_sweep(cfg, case: str, csv_text: str, rows: list[dict]) -> list[str]:
    """Oracle checks on one written sweep CSV and the rows the call returned.

    The columns must come in the fixed order; only oracle columns may follow.
    """
    problems = []
    header, body = _parse_csv(csv_text)
    extra = header[len(CSV_COLUMNS):]
    if header[:len(CSV_COLUMNS)] != CSV_COLUMNS or not all(map(_is_oracle_column, extra)):
        return [f"CSV header is not the fixed column order: {header}"]
    grid = _sweep_grid(cfg, case)
    expected_keys = [
        (scheme, recon, snr, err)
        for snr, err in grid for scheme in ("mf", "zf") for recon in ("identity", "operator")
    ]
    if len(body) != len(expected_keys):
        return [f"{len(body)} CSV rows, expected 2 recons x 2 schemes x {len(grid)} points"]
    n_users = cfg.n_users
    for line, values, (scheme, recon, snr, err) in zip(range(2, len(body) + 2), body, expected_keys):
        row = dict(zip(header, values))
        where = f"CSV line {line}"
        if (row["case"], row["scheme"], row["recon"]) != (case, scheme, recon):
            problems.append(f"{where}: row {row['case']},{row['scheme']},{row['recon']} out of order")
            continue
        try:
            numbers = {k: float(v) for k, v in row.items()
                       if k not in _TEXT_COLUMNS and not _is_oracle_column(k)}
            err_db = float(row["err_var_db"])
        except ValueError as exc:
            problems.append(f"{where}: unparsable number ({exc})")
            continue
        bad = [k for k, v in numbers.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{where}: non-finite {bad}")
        if (err == 0.0 and err_db != -math.inf) or (err > 0 and not _close(10 ** (err_db / 10), err, 1e-7)):
            problems.append(f"{where}: err_var_db {err_db} does not match the grid")
        if not _close(numbers["snr_db"], snr, 1e-9):
            problems.append(f"{where}: snr_db {numbers['snr_db']} does not match the grid")
        tx_power = cfg.noise_var * 10.0 ** (snr / 10.0)
        i_error = tx_power * (n_users - 1) * err
        if not (numbers["i_error"] == i_error == 0.0 or _close(numbers["i_error"], i_error, 1e-8)):
            problems.append(f"{where}: i_error {numbers['i_error']} != p(K-1)err_var = {i_error}")
        if scheme == "zf" and err == 0.0 and abs(numbers["i_precode_mean"]) > 1e-9 * tx_power:
            problems.append(f"{where}: ZF i_precode_mean {numbers['i_precode_mean']} not ~0 under perfect CSI")
        if row["external_metric"] != "":
            problems.append(f"{where}: external_metric set without an external hook")
    for row in rows:
        if row["recon"] != "identity" or "i_interference_empirical" not in row:
            continue  # both recons carry the same estimate; or the oracle did not run
        analytic = row["i_precode_mean"] + row["i_error"]
        estimate = row["i_interference_empirical"]
        se = row["i_interference_empirical_se"]
        if abs(estimate - analytic) > ORACLE_Z * se + 1e-9 * max(abs(analytic), 1e-300):
            problems.append(
                f"oracle {row['scheme']} err_var_db {row['err_var_db']}: "
                f"{estimate} vs i_precode + i_error = {analytic} (se {se})"
            )
    return problems


class SweepWorkload:
    """``snr_sweep`` or ``csi_sweep``: one whole default sweep per operation."""

    def __init__(self, ready: Ready):
        self.ready = ready
        self.case = "snr" if ready.workload == "snr_sweep" else "csi"
        sweeps = ready.lib["sweeps"]
        self.run_sweep = sweeps.run_snr_sweep if self.case == "snr" else sweeps.run_csi_error_sweep
        self.out = ready.workdir / f"{ready.workload}.csv"

    def warm_up(self) -> None:
        # One SNR point, or perfect CSI plus one error variance (so the
        # oracle's draw path runs too): every code path of the timed sweep.
        cfg = self.ready.cfg
        small = replace(cfg, snr_grid_db=cfg.snr_grid_db[:1], err_var_grid_db=(-math.inf, -10.0))
        self.run_sweep(small, self.ready.workdir / "warm-up.csv")

    def run_op(self, index: int, outcome: Outcome, span) -> list:
        """Time one sweep; return the checks to run once timing is over."""
        start = time.perf_counter()
        try:
            with span("sweeps.run"):
                rows = self.run_sweep(self.ready.cfg, self.out)
        except Exception as exc:  # a failed call is a failed operation, not a crash
            outcome.record(f"sweep {index}", [f"{type(exc).__name__}: {exc}"])
            return []
        outcome.add("sweep_s", time.perf_counter() - start)
        outcome.add("cells", len(rows) // 2)
        return [lambda: self.check(index, rows, outcome)]

    def check(self, index: int, rows: list, outcome: Outcome) -> None:
        text = self.out.read_text(encoding="utf-8")
        outcome.csv_sha256.add(_csv_body_sha256(text))
        outcome.add("oracle_csv_cells", oracle_csv_cells(text))
        problems = check_sweep(self.ready.cfg, self.case, text, rows)
        if len(outcome.csv_sha256) > 1:
            problems.append("CSV body differs from an earlier repeat of the same sweep")
        outcome.record(f"sweep {index}", problems)


# ---------------------------------------------------------------- image transport


def _bit_error_bound(n_bits: int, ber: float) -> float:
    """Bernstein half-width for a Binomial(n_bits, ber) count at BER_CHECK_DELTA."""
    log_term = math.log(2.0 / BER_CHECK_DELTA)
    var = n_bits * ber * (1.0 - ber)
    return log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * log_term * var)


def check_zf_frame(lib: dict, clean, result, bers) -> list[str]:
    """ZF under perfect CSI: Gaussian BER curve and bit-weighted distortion."""
    problems = []
    n_bits = result.bits_per_stream
    for k, (errors, ber) in enumerate(zip(result.bit_errors, bers)):
        expected = n_bits * float(ber)
        if abs(int(errors) - expected) > _bit_error_bound(n_bits, float(ber)):
            problems.append(f"stream {k}: {int(errors)} bit errors, analytic {expected:.1f}")
    pixel_mae = float(np.mean(np.abs(result.image().astype(float) - clean)))
    weighted = lib["link"].expected_distortion(result.ber, len(result.ber))
    # |sum_k 2^k d_k| <= sum_k 2^k |d_k| pixel by pixel, so the bit-weighted
    # sum bounds the MAE from above; acceptance criterion 4 adds that it is
    # within 10% when every stream's error rate is at most 1.5e-2.
    if pixel_mae > weighted * (1 + 1e-12):
        problems.append(f"pixel MAE {pixel_mae} above bit-weighted sum {weighted}")
    if np.all(result.ber <= 1.5e-2) and pixel_mae > 0 and abs(weighted - pixel_mae) > 0.10 * pixel_mae:
        problems.append(f"pixel MAE {pixel_mae} vs bit-weighted sum {weighted}: over 10% apart")
    return problems


class ImageWorkload:
    """``image_transport``: one image per cell through the whole pipeline.

    One operation is one image; a pass sends one image of each size. The
    scheme alternates between ZF and MF, in a pattern that gives every size
    both schemes and gives two consecutive passes the same schemes.
    """

    def __init__(self, ready: Ready):
        self.ready = ready
        self.calls = 0
        lib = ready.lib
        self.constellation = lib["transceiver"].QamConstellation.square(ready.cfg.qam_order)
        self.qam = lib["link"].QamParams(ready.cfg.qam_order)

    def pipeline(self, size: int, scheme: str, seed_index: int, span):
        """draw -> precode -> budget -> frame -> operator -> two metric reports."""
        lib, cfg = self.ready.lib, self.ready.cfg
        clean = self.ready.images[size]
        seed = lib["channel"].SeedSpec(cfg.master_seed, seed_index)
        tx_power = cfg.tx_power(cfg.fixed_snr_db)
        with span("bench.image"):
            source = lib["transceiver"].split_bit_planes(clean)
            channel = lib["channel"].draw_channel_set(cfg.n_tx, cfg.n_users, 0.0, seed)
            build = lib["precoding"].zf_precoder if scheme == "zf" else lib["precoding"].mf_precoder
            precoder = build(channel.h_known)
            budget = lib["link"].link_budget(channel, precoder, tx_power, cfg.noise_var)
            bers = lib["link"].ber_from_sinr(budget.sinr, self.qam)
            frame_start = time.perf_counter()
            result = lib["transceiver"].transmit_frame(
                source, channel, precoder, tx_power, cfg.noise_var, self.constellation, seed,
                equalize_with_known_gain=cfg.equalize_with_known_gain,
            )
            frame_s = time.perf_counter() - frame_start
            noisy = result.image()
            restored = lib["inference"].apply_operator(self.ready.operator, noisy)
            lib["metrics"].metric_report(noisy, clean)
            lib["metrics"].metric_report(restored, clean)
        return result, bers, frame_s

    def warm_up(self) -> None:
        for size in (IMAGE_SIZES[0], IMAGE_SIZES[-1]):
            self.pipeline(size, "zf", 2**31 - 1, nullcontext)

    def run_op(self, index: int, outcome: Outcome, span) -> list:
        """Time one pass over the sizes; return the checks to run afterwards."""
        checks = []
        for position, size in enumerate(IMAGE_SIZES):
            scheme = "zf" if (position + index // 2) % 2 == 0 else "mf"
            label = f"image {index}/{size} {scheme}"
            self.calls += 1
            start = time.perf_counter()
            try:
                result, bers, frame_s = self.pipeline(size, scheme, self.calls, span)
            except Exception as exc:  # a failed call is a failed operation, not a crash
                outcome.record(label, [f"{type(exc).__name__}: {exc}"])
                continue
            outcome.add(f"image_s_{size}", time.perf_counter() - start)
            outcome.add(f"frame_s_{size}", frame_s)
            checks.append(lambda label=label, size=size, scheme=scheme, result=result, bers=bers:
                          outcome.record(label, self.check(size, scheme, result, bers)))
        return checks

    def check(self, size: int, scheme: str, result, bers) -> list[str]:
        if scheme != "zf":
            return []  # the Gaussian BER curve is exact only without interference
        return check_zf_frame(self.ready.lib, self.ready.images[size], result, bers)


def make(ready: Ready):
    return ImageWorkload(ready) if ready.workload == "image_transport" else SweepWorkload(ready)


# ---------------------------------------------------------------- tracing


def _oracle_counts(counts, args, kwargs, result) -> None:
    # One error vector per user and trial; none when the CSI is perfect.
    channel = args[0] if args else kwargs["channel"]
    if channel.err_var > 0:
        counts["link.oracle_draws"] += result.n_trials * len(result.interference)


def _frame_counts(counts, args, kwargs, result) -> None:
    constellation = args[5] if len(args) > 5 else kwargs["constellation"]
    n_users = len(result.ber)
    n_bits = result.bits_per_stream
    n_symbols = n_users * -(-n_bits // constellation.bits_per_symbol)
    counts["transceiver.frames"] += 1
    counts["transceiver.symbols"] += n_symbols
    # Computed from array sizes, not measured: bit planes in and out (1 byte
    # per bit) plus six complex128 arrays of one entry per symbol (modulated,
    # stacked, received, noise draws, noise sum, equalised).
    counts["transceiver.computed_bytes"] += 2 * n_users * n_bits + 6 * 16 * n_symbols


def _count_reject(counts, exc) -> None:
    if type(exc).__name__ == "GramConditionError":
        counts["precoding.rejects"] += 1


# (module, attribute at which the caller looks it up, span name, and the
# optional on_result and on_error hooks of Tracer.wrap). "table:key" patches
# one entry of a module-level dispatch table; sweeps pick precoders from one.
TRACE_TARGETS = [
    ("semimo.sweeps", "draw_channel_set", "channel.draw"),
    ("semimo.channel", "draw_channel_set", "channel.draw"),
    ("semimo.sweeps", "_BUILDERS:mf", "precoding.mf", None, _count_reject),
    ("semimo.sweeps", "_BUILDERS:zf", "precoding.zf", None, _count_reject),
    ("semimo.precoding", "mf_precoder", "precoding.mf", None, _count_reject),
    ("semimo.precoding", "zf_precoder", "precoding.zf", None, _count_reject),
    ("semimo.sweeps", "link_budget", "link.budget"),
    ("semimo.link", "link_budget", "link.budget"),
    ("semimo.sweeps", "ber_from_sinr", "link.ber"),
    ("semimo.link", "ber_from_sinr", "link.ber"),
    ("semimo.sweeps", "expected_distortion", "link.distortion"),
    ("semimo.sweeps", "empirical_link_budget", "link.oracle", _oracle_counts),
    ("semimo.link", "empirical_link_budget", "link.oracle", _oracle_counts),
    ("semimo.sweeps", "split_bit_planes", "transceiver.split"),
    ("semimo.transceiver", "split_bit_planes", "transceiver.split"),
    ("semimo.sweeps", "transmit_frame", "transceiver.frame", _frame_counts),
    ("semimo.transceiver", "transmit_frame", "transceiver.frame", _frame_counts),
    ("semimo.transceiver", "qam_modulate", "transceiver.modulate"),
    ("semimo.transceiver", "qam_demodulate", "transceiver.demodulate"),
    ("semimo.transceiver", "FrameResult.image", "transceiver.combine"),
    ("semimo.sweeps", "apply_operator", "inference.apply"),
    ("semimo.inference", "apply_operator", "inference.apply"),
    ("semimo.sweeps", "metric_report", "metrics.report"),
    ("semimo.metrics", "metric_report", "metrics.report"),
    ("semimo.metrics", "ssim", "metrics.ssim"),
    ("semimo.metrics", "psnr", "metrics.psnr"),
    ("semimo.metrics", "mae", "metrics.mae"),
    ("semimo.config", "synthetic_test_image", "images.synthetic"),
    ("semimo.images", "synthetic_test_image", "images.synthetic"),
    ("semimo.config", "load_config", "config.load"),
    ("semimo.sweeps", "build_operator", "config.build_operator"),
    ("semimo.config", "build_operator", "config.build_operator"),
    ("semimo.sweeps", "write_csv", "sweeps.csv_write"),
]
