#!/usr/bin/env python3
"""Send the test card end to end at a few SNRs and save every stage as PGM.

For each SNR point this writes the noisy received image plus the smoothing
and anchor-pull reconstructions, and prints their scores, which makes the
raw-vs-reconstructed trade visible without any plotting stack.
"""

import argparse
from pathlib import Path

from semimo.channel import SeedSpec
from semimo.config import ExperimentConfig
from semimo.images import write_pgm
from semimo.inference import AffineContraction, SmoothingDenoiser
from semimo.precoding import Scheme
from semimo.sweeps import load_source, run_trial, score_frame


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("demo_out"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", type=int, default=128)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    cfg = ExperimentConfig(image_width=args.size, image_height=args.size)
    source = load_source(cfg)
    clean = source.to_image()
    write_pgm(args.outdir / "clean.pgm", clean)

    operators = {
        "smooth": SmoothingDenoiser(strength=1.0),
        "pull": AffineContraction(128.0, 0.5),
    }
    for snr_db in (0.0, 7.5, 15.0):
        for scheme in (Scheme.MF, Scheme.ZF):
            # Every point reuses one channel draw; only the frame noise differs.
            trial = run_trial(
                cfg, scheme, snr_db, 0.0, source, SeedSpec(args.seed),
                [SeedSpec(args.seed, int(snr_db * 10))],
            )
            frame = trial.frames[0]
            tag = f"{scheme.value}_snr{snr_db:g}"
            scored = score_frame(frame.image(), clean, operators)
            noisy, rep = scored.pop("identity")
            write_pgm(args.outdir / f"{tag}_received.pgm", noisy)
            line = [f"{tag}: ber {frame.ber.mean():.2e}", f"raw 1-ssim {rep.one_minus_ssim:.3f}"]
            for name, (restored, rep) in scored.items():
                write_pgm(args.outdir / f"{tag}_{name}.pgm", restored)
                line.append(f"{name} 1-ssim {rep.one_minus_ssim:.3f}")
            print("  ".join(line))
    print(f"images under {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
