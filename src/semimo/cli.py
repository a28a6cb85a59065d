"""Command-line front end: snr-sweep, csi-sweep, bench, reconstruct."""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .bench import one_blas_thread, run_complexity_bench, write_bench_csv
from .channel import SeedSpec
from .config import ConfigError, from_db, load_config
from .images import write_pgm
from .metrics import METRIC_NAMES
from .precoding import Scheme
from .sweeps import (
    load_operator, load_source, run_csi_error_sweep, run_snr_sweep, run_trial, score_frame,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
# OpenBLAS reads its thread count from these when it loads; a user who set one keeps it.
_OPENBLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimo",
        description="Link-level downlink lab: precoding sweeps, scaling bench, "
        "single-image transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("snr-sweep", "sweep transmit SNR under perfect CSI"),
        ("csi-sweep", "sweep CSI error variance at the fixed SNR"),
        ("bench", "time precoder construction across sizes"),
        ("reconstruct", "send one image end to end and score it"),
    ]:
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", type=Path, default=None, help="key = value file")
        cmd.add_argument("--out", type=Path, default=None, help="output path")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        if name.endswith("sweep"):
            cmd.add_argument("--workers", type=int, default=None, help="parallel cells")
    return parser


def _reconstruct(cfg, out_path: Path) -> None:
    source = load_source(cfg)
    operator = load_operator(cfg, source)
    err_var = from_db(cfg.recon_err_var_db)
    seed = SeedSpec(cfg.master_seed)
    trial = run_trial(
        cfg, Scheme(cfg.recon_scheme), cfg.fixed_snr_db, err_var, source, seed, [seed]
    )
    frame = trial.frames[0]
    scored = score_frame(frame.image(), source.to_image(), {"operator": operator})

    received_path = out_path.with_name(out_path.stem + "_received" + out_path.suffix)
    write_pgm(received_path, scored["identity"][0])
    write_pgm(out_path, scored["operator"][0])

    print(f"scheme={cfg.recon_scheme} snr_db={cfg.fixed_snr_db} err_var={err_var}")
    print(f"analytic sinr per user: {' '.join(f'{g:.3f}' for g in trial.budget.sinr)}")
    print(f"analytic ber per stream: {' '.join(f'{b:.3e}' for b in trial.bers)}")
    print(f"empirical ber per stream: {' '.join(f'{b:.3e}' for b in frame.ber)}")
    for label, (_, rep) in scored.items():
        print(f"{label}: " + " ".join(f"{name}={getattr(rep, name):.5f}" for name in METRIC_NAMES))
    print(f"wrote {received_path} and {out_path}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, master_seed=args.seed, workers=vars(args).get("workers"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    stem = args.command.replace("-", "_")
    out = args.out or Path("reconstructed.pgm" if stem == "reconstruct" else f"{stem}.csv")
    # Every output of a verb goes into this one directory: check it before any work.
    if out.is_dir() or not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
        print(f"config error: cannot write {out}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # At the default 16 x 8, more BLAS threads split no work and cost page faults.
        with nullcontext() if any(map(os.environ.get, _OPENBLAS_VARS)) else one_blas_thread():
            if args.command == "snr-sweep":
                run_snr_sweep(cfg, out)
            elif args.command == "csi-sweep":
                run_csi_error_sweep(cfg, out)
            elif args.command == "bench":
                result = run_complexity_bench(cfg)
                write_bench_csv(result, out)
                for scheme, slope in sorted(result.slopes.items()):
                    print(f"{scheme}: log-log slope {slope:.3f}")
            else:
                _reconstruct(cfg, out)  # names both files it wrote
        if args.command != "reconstruct":
            print(f"wrote {out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
