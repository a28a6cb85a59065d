"""Wall-time scaling of precoder construction and log-log slope fits.

The probes time the builders of ``precoding.BUILDERS``, the table the sweeps
pick from, on the sweeps' channel draw (``draw_channel_set`` at perfect CSI).
"""

from __future__ import annotations

import ctypes
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .channel import SeedSpec, draw_channel_set
from .config import ExperimentConfig
from .precoding import BUILDERS

__all__ = ["BenchResult", "fit_loglog_slope", "one_blas_thread", "run_complexity_bench",
           "write_bench_csv"]


@dataclass(frozen=True)
class BenchResult:
    """What the probe returns: median build seconds per scheme at each user count."""

    users: tuple[int, ...]
    repetitions: int  # timed builds per scheme and size
    medians: dict  # scheme -> median seconds, one per entry of ``users``
    slopes: dict  # scheme -> fitted log-log slope of time vs n_users

    def times(self, scheme: str) -> dict[int, float]:
        return dict(zip(self.users, self.medians[scheme]))


def fit_loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    if len(sizes) < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def _openblas_controls():
    """Yield the (get, set) thread-count functions of each OpenBLAS this process has loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        try:
            lib = ctypes.CDLL(path)  # loaded already, so this only looks it up
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                yield get, set_
                break


@contextmanager
def one_blas_thread():
    """Hold each loaded OpenBLAS to one thread; give each its count back on exit.

    Each library's own setter takes after numpy's import, where the
    environment variables no longer do. Without OpenBLAS or /proc it does nothing.
    """
    pinned = [(set_, get()) for get, set_ in _openblas_controls()]
    try:
        for set_, _ in pinned:
            set_(1)
        yield
    finally:
        for set_, count in pinned:
            set_(count)


_ROUNDS = 10
# Transmit antennas per user, so the user count alone drives the scaling.
TX_RATIO = 2


def _probe_grid(users, repetitions, seed) -> dict[str, list[float]]:
    """Median build seconds per scheme, one entry per user count.

    The repetitions are split into up to ``_ROUNDS`` rounds that each visit
    every size in turn, so a spell of contention from other processes falls on
    the whole grid rather than on the few sizes probed while it lasts. Each
    visit starts with one untimed build.
    """
    rounds = min(_ROUNDS, repetitions)
    counts = [repetitions // rounds + (r < repetitions % rounds) for r in range(rounds)]
    channels = [draw_channel_set(TX_RATIO * n, n, 0.0, SeedSpec(seed)).h_known for n in users]
    medians = {}
    for scheme, build in BUILDERS.items():
        samples = [[] for _ in users]
        for count in counts:
            for h, taken in zip(channels, samples):
                build(h)
                for _ in range(count):
                    start = time.perf_counter()
                    build(h)
                    taken.append(time.perf_counter() - start)
        medians[scheme.value] = [float(np.median(taken)) for taken in samples]
    return medians


def run_complexity_bench(cfg: ExperimentConfig) -> BenchResult:
    """Probe both schemes over the configured user-count grid.

    Each size has ``TX_RATIO`` times as many antennas as users. The probes
    run with BLAS held to one thread (``one_blas_thread``): a thread pool
    that joins in only above some matrix size speeds up the large end of the
    grid by up to the core count, which flattens the fitted slope.
    """
    with one_blas_thread():
        medians = _probe_grid(cfg.bench_users, cfg.bench_repetitions, cfg.master_seed)
    slopes = {scheme: fit_loglog_slope(cfg.bench_users, m) for scheme, m in medians.items()}
    return BenchResult(cfg.bench_users, cfg.bench_repetitions, medians, slopes)


def write_bench_csv(result: BenchResult, path) -> None:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    lines = [f"# generated_at={stamp}"]
    for scheme, slope in sorted(result.slopes.items()):
        lines.append(f"# loglog_slope_{scheme}={slope:.4f}")
    lines.append("scheme,n_users,n_tx,repetitions,median_time_s")
    for scheme, medians in result.medians.items():
        for n, median in zip(result.users, medians):
            lines.append(f"{scheme},{n},{TX_RATIO * n},{result.repetitions},{median:.6e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
