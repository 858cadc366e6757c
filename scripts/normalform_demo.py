#!/usr/bin/env python3
"""Full normalization walkthrough on a certified system.

Reads a run config (default: the shipped certified multiplier system),
certifies every order the cap requires, runs the normalization, prints the
bucket census and the ledger of dropped tails, then integrates the kept
normal-form Hamiltonian to show the band and block actions standing still.

The default config takes about two minutes end to end; pass ``--skip-flow``
to stop after the normalization itself.

Example:
    python3 scripts/normalform_demo.py --config configs/nls_t1.ini --out out/nf
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from latnf import (
    CertificateError,
    ConfigError,
    SmallnessError,
    integrate_normal_form,
    normalform_manifest,
)
from latnf.cli import build_system, run_normalform
from latnf.config import load_config


def parse_args():
    parser = argparse.ArgumentParser(description="run and inspect one normalization")
    parser.add_argument("--config", default="configs/nls_t1.ini")
    parser.add_argument("--out", default=None, help="directory for the manifest JSON")
    parser.add_argument("--horizon", type=float, default=1e4)
    parser.add_argument("--dt", type=float, default=0.5)
    parser.add_argument("--skip-flow", action="store_true")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if args.dt <= 0.0 or args.horizon <= 0.0:
        print("usage error: --dt and --horizon must be positive", file=sys.stderr)
        return 2
    cfg = load_config(args.config)
    system = build_system(cfg)
    t0 = time.monotonic()
    try:
        certificates, result = run_normalform(cfg, system)
    except (CertificateError, SmallnessError) as exc:
        print(f"cannot normalize this system: {exc}")
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for cert in certificates:
        print(
            f"order {cert.order}: min score {cert.min_score:.6g}, "
            f"gamma {cert.gamma:.6g}, tau {cert.tau:g} "
            f"(exhaustive over {cert.n_checked})"
        )
    elapsed = time.monotonic() - t0
    print(f"certified and normalized in {elapsed:.1f}s at cutoff {result.cutoff:g}")
    print(
        f"  mu {result.mu:.4g} (cap {result.config.mu_max:g}), "
        f"max residual {result.max_residual:.3g}, "
        f"remainder bound {result.remainder_bound:.3g}"
    )
    census = {name: result.bucket(name).n_terms() for name in ("Z0", "ZB", "Z2", "ZGE3")}
    print("  bucket terms:", ", ".join(f"{k}={v}" for k, v in census.items()))
    print(f"  generators: {[len(g) for g in result.generators]} keys per step")
    for entry in result.ledger:
        print(
            f"  dropped: step {entry.step}, source degree {entry.source_degree}, "
            f"Lie index {entry.lie_index}, degree {entry.degree}, "
            f"norm at radius {entry.norm_r:.3g}"
        )

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "normalform_manifest.json"
        path.write_text(json.dumps(normalform_manifest(result), indent=2, sort_keys=True))
        print(f"  manifest -> {path}")

    if args.skip_flow:
        return 0

    table, bands, clusters = system.table, system.bands, system.clusters
    rng = np.random.default_rng(cfg["run"]["seed"])
    initial = {
        p: 0.3 / (1.0 + table.norm(p)) ** 2 * np.exp(2j * np.pi * rng.random())
        for p in table.points
    }
    kept = [
        part for name in ("Z0", "ZB") for part in result.bucket(name).parts.values()
    ]
    record = integrate_normal_form(
        table, kept, initial, dt=args.dt, horizon=args.horizon,
        stride=max(1, int(args.horizon / args.dt / 100)),
        bands=bands, clusters=clusters,
    )
    drift = 0.0
    for series in (record.band_actions, record.block_actions):
        if series.size:
            drift = max(drift, float(np.abs(series - series[0]).max()))
    energy_drift = float(np.abs(record.energy - record.energy[0]).max())
    print(
        f"normal-form flow to t={args.horizon:g}: max action drift {drift:.3g}, "
        f"energy drift {energy_drift:.3g} (exact kick: {record.meta['exact_kick']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
