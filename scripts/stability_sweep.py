#!/usr/bin/env python3
"""Long-time norm stability sweep for the lattice NLS flow.

Integrates the config's model, as ``latnf simulate`` reads it, at several
initial sizes with horizons scaling as ``epsilon**-2`` and reports the peak
norm ratio, the exit time past 2 eps (if any), and the fitted power of the
weighted superaction drift.  With ``--flat`` the potential is dropped, which
at large epsilon demonstrates the resonant growth the multiplier removes.
``--coupling`` and ``--flat`` act on the NLS only: on a config whose grid
equation (``SimulationConfig.model``, taken from the model kind) is the
beam they are usage errors (exit 2), as are a model kind ``latnf simulate``
cannot run and settings ``SimulationConfig`` rejects, such as a
non-positive ``--dt``.

Example:
    python3 scripts/stability_sweep.py --epsilons 0.1 0.01 --coupling -12
    python3 scripts/stability_sweep.py --flat --epsilons 0.4 --dt 0.002
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from latnf import stability_experiment
from latnf.cli import simulation_config
from latnf.config import ConfigError, load_config


def parse_args():
    parser = argparse.ArgumentParser(description="epsilon sweep of the cubic flow")
    parser.add_argument("--config", default="configs/nls_t1.ini")
    parser.add_argument("--flat", action="store_true", help="drop the potential")
    parser.add_argument("--epsilons", type=float, nargs="+", default=[0.1, 0.01])
    parser.add_argument("--horizons", type=float, nargs="+", default=None)
    parser.add_argument("--coupling", type=float, default=None, help="NLS coupling (default -12)")
    parser.add_argument("--dt", type=float, default=0.01)
    parser.add_argument("--dt-bound", type=float, default=4.0)
    parser.add_argument("--s", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out", default=None, help="write the report JSON here")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    cfg = load_config(args.config)
    try:
        sim = simulation_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if sim.model == "beam" and (args.flat or args.coupling is not None):
        print("usage error: --coupling and --flat set the NLS; the beam model has neither", file=sys.stderr)
        return 2
    # the coupling is the NLS nonlinearity; the beam's force comes from the config
    coupling = -12.0 if args.coupling is None else args.coupling
    nls = {"nonlinearity": {1: coupling}} if sim.model == "nls" else {}
    try:
        sim = replace(
            sim,
            **nls,
            epsilon=args.epsilons[0],
            s=args.s,
            dt=args.dt,
            horizon=1.0,
            stride=1000,
            seed=args.seed,
            dt_bound=args.dt_bound,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.flat:
        sim = replace(sim, potential=None)
    report = stability_experiment(sim, args.epsilons, horizons=args.horizons)

    stable = True
    for run in report.runs:
        exit_note = "never" if run.exit_time is None else f"t={run.exit_time:g}"
        print(
            f"eps {run.epsilon:g}: horizon {run.horizon:g}, "
            f"max |u|_s / eps = {run.max_ratio:.4f}, exceeds 2 eps: {exit_note}, "
            f"weighted drift {run.weighted_drift:.3g}"
        )
        stable = stable and run.exit_time is None
    if report.fitted_power is not None:
        print(f"weighted drift ~ eps^{report.fitted_power:.2f}")

    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(asdict(report), indent=2, sort_keys=True))
        print(f"report -> {out}")
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main())
