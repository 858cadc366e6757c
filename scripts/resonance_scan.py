#!/usr/bin/env python3
"""Small-divisor certification scan across orders.

Builds the truncated spectrum of the torus Laplacian, optionally dressed
with a multiplier potential drawn from the decay ensemble, and certifies
nonresonance order by order.  Exits 1 when any order fails, printing the
witness, or when its scan goes over the row budget; ``--flat`` drops the
potential so the integer spectrum shows its zero-divisor witnesses
explicitly.  A lattice ``enumerate_lattice`` refuses (a negative
``--radius``, a ``--dim`` outside its range) is a usage error: exit 2 with
one line.  So is a malformed or unknown argument, and so is a draw that
gives a mode a negative frequency (a potential below ``-|a|^2``, as ``V_0
< 0`` at the zero mode), whose line names the point, the seed and the
radius.

Example:
    python3 scripts/resonance_scan.py --radius 8 --orders 3 4 5 --seed 1
    python3 scripts/resonance_scan.py --flat --orders 3 4
"""

import sys
import time

import numpy as np

from latnf import (
    CertificateError,
    MultiplierEnsemble,
    TorusLaplacian,
    band_partition,
    build_spectrum,
    certify_nonresonance,
    enumerate_lattice,
)
from latnf.cli import UsageParser, exit_code


def parse_args():
    parser = UsageParser(
        description="certify small divisors across orders on a truncation"
    )
    parser.add_argument("--dim", type=int, default=1)
    parser.add_argument("--radius", type=float, default=8.0)
    parser.add_argument("--orders", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument(
        "--flat", action="store_true", help="no potential: exact integer spectrum"
    )
    parser.add_argument("--decay", type=int, default=2, help="ensemble smoothing order")
    parser.add_argument("--seed", type=int, default=1, help="ensemble draw seed")
    parser.add_argument("--tau", type=float, default=None)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    lattice = enumerate_lattice(args.dim, args.radius)
    if args.flat:
        model = TorusLaplacian()
    else:
        ensemble = MultiplierEnsemble(base=TorusLaplacian(), decay=args.decay)
        model = ensemble.sample(lattice, np.random.default_rng(args.seed))
    try:
        table = build_spectrum(lattice, model)
    except ValueError as exc:
        # a drawn potential below -|a|^2 at a mode; the draw is not shifted
        raise ValueError(
            f"{exc} (seed {args.seed}, radius {args.radius:g}); choose another seed or radius"
        ) from None
    bands = band_partition(table)
    print(
        f"{len(table)} modes on T^{args.dim} radius {args.radius:g}, "
        f"{bands.nbands} bands, potential "
        + ("off" if args.flat else f"ensemble(decay={args.decay}, seed={args.seed})")
    )

    n_failed = 0
    for order in args.orders:
        start = time.perf_counter()
        try:
            cert = certify_nonresonance(table, order, partition=bands, tau=args.tau)
        except CertificateError as exc:
            n_failed += 1
            print(f"order {order}: FAILED, {exc}")
            continue
        rate = cert.n_checked / max(time.perf_counter() - start, 1e-9)
        verdict = "certified" if cert.passed else "FAILED"
        print(
            f"order {order}: min score {cert.min_score:.6g} "
            f"(gamma {cert.gamma:.6g}, tau {cert.tau:g}, "
            f"exhaustive over {cert.n_checked}, {rate:.3g} multisets covered/s) {verdict}"
        )
        if not cert.passed:
            n_failed += 1
            print(f"  witness {cert.witness} has divisor {cert.witness_divisor:.6g}")
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(exit_code(main, label="nonresonance"))
