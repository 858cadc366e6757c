"""Command-line driver.

Subcommands cover the pipeline end to end: ``spectrum`` tabulates and bands
frequencies, ``clusters`` builds and certifies the separation partition,
``resonances`` scans small divisors, ``measure`` estimates the resonant
parameter measure, ``normalform`` runs the full normalization, ``simulate``
integrates a trajectory, and ``verify`` replays the fast invariant suite.

Commands and config-reading scripts share three builders: ``build_system``
(the truncated system), ``run_normalform`` (certificates and ``normalize``)
and ``simulation_config`` (the ``[simulate]`` trajectory of the model).

Exit codes: 0 on success, 1 when a check that ran produced a certified
failure (the witness is printed), 2 on usage or configuration errors.  All
artifacts are deterministic given the config and seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .bands import band_partition, check_band_invariants
from .clusters import (
    build_clusters,
    certify_dyadic,
    cluster_summary,
    clusters_to_csv,
    clusters_to_json,
)
from .config import ConfigError, apply_overrides, config_to_jsonable, load_config
from .dynamics import SimulationConfig, integrate, model_kind, trajectory_to_csv
from .forms import add_forms, form_to_jsonl, poisson_bracket, poly_from_forms, random_form
from .frequencies import TorusLaplacian, build_spectrum, fit_asymptotics, spectrum_to_csv
from .lattice import Lattice, enumerate_lattice, extended_indexes, point_distance
from .manifest import build_manifest, inventory, spawn_seed, write_manifest
from .normalform import (
    NormalFormConfig,
    NormalFormResult,
    SmallnessError,
    choose_cutoff,
    normalform_manifest,
    normalize,
)
from .resonance import (
    CertificateError,
    MultiplierEnsemble,
    NonresonanceCertificate,
    certificate_to_json,
    certify_nonresonance,
    estimate_resonant_measure,
    is_resonant_W,
    resonant_mask,
)


@dataclass(eq=False)
class System:
    """A config's lattice; its model, table, bands and clusters on first use.

    A command builds only what it reads.
    """

    cfg: Dict
    lattice: Lattice

    @cached_property
    def model(self):
        sec = self.cfg["model"]
        kind = model_kind(sec["kind"], "frequencies")
        return kind.frequencies({key: sec[key] for key in kind.settings})

    @cached_property
    def table(self):
        return build_spectrum(self.lattice, self.model)

    @cached_property
    def bands(self):
        return band_partition(self.table)

    @cached_property
    def clusters(self):
        sec = self.cfg["clusters"]
        return build_clusters(self.table, sec["delta"], sec["c_delta"])


def build_system(cfg) -> System:
    """The system ``cfg`` describes, with only its lattice built so far."""
    sec = cfg["lattice"]
    return System(cfg, enumerate_lattice(sec["dim"], sec["radius"], sec["offset"] or None))


def run_normalform(
    cfg, system: System
) -> Tuple[List[NonresonanceCertificate], NormalFormResult]:
    """Certify orders 3..degree_cap and normalize the model kind's perturbation.

    A kind without a perturbation of its own is a ``ConfigError``.  Raises
    ``CertificateError``/``SmallnessError`` when normalization fails.
    """
    sec = cfg["normalform"]
    kind = model_kind(cfg["model"]["kind"], "perturbation")
    perturbation = poly_from_forms([kind.perturbation(system.lattice, sec["coupling"])])
    # every NormalFormConfig field is the [normalform] key of the same name
    nf_config = NormalFormConfig(**{f.name: sec[f.name] for f in fields(NormalFormConfig)})
    certificates = [
        certify_nonresonance(system.table, order, partition=system.bands, tau=sec["tau"])
        for order in range(3, nf_config.degree_cap + 1)
    ]
    result = normalize(
        system.table,
        perturbation,
        nf_config,
        certificates,
        bands=system.bands,
        clusters=system.clusters,
        remainder_samples=sec["remainder_samples"],
        seed=spawn_seed(cfg["run"]["seed"], "remainder"),
    )
    return certificates, result


def simulation_config(cfg) -> SimulationConfig:
    """The ``[simulate]`` trajectory of the configured model.

    The grid equation is that of the model kind (``dynamics.KINDS``), with
    ``model.potential`` when the kind reads it and mass ``model.mass``.  A
    kind without an equation and an offset lattice are a ``ConfigError``.
    The block columns are those of the ``[clusters]`` partition.
    """
    kind = model_kind(cfg["model"]["kind"], "equation")
    if cfg["lattice"]["offset"]:
        raise ConfigError("simulate runs on the plain lattice; lattice.offset must be empty")
    sec = cfg["simulate"]
    potential = dict(cfg["model"]["potential"]) if "potential" in kind.settings else {}
    return SimulationConfig(
        model=kind.equation,
        dim=cfg["lattice"]["dim"],
        radius=cfg["lattice"]["radius"],
        gram=cfg["model"]["gram"],
        potential=potential or None,
        nonlinearity=dict(sec["nonlinearity"]),
        force=dict(sec["force"]) or None,
        mass_term=cfg["model"]["mass"],
        epsilon=sec["epsilon"],
        s=sec["s"],
        dt=sec["dt"],
        horizon=sec["horizon"],
        stride=sec["stride"],
        seed=cfg["run"]["seed"],
        integrator=sec["integrator"],
        dt_bound=sec["dt_bound"],
        track_orbital=sec["track_orbital"],
        delta=cfg["clusters"]["delta"],
        c_delta=cfg["clusters"]["c_delta"],
    )


def _out_dir(cfg) -> Path:
    out = Path(cfg["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(cfg, command: str, results: Dict, artifacts: List[Path], out: Path) -> None:
    if not cfg["output"]["manifest"]:
        return
    manifest = build_manifest(
        command=command,
        config_echo=config_to_jsonable(cfg),
        results=results,
        artifacts=inventory(artifacts, root=out),
        seed=cfg["run"]["seed"],
    )
    write_manifest(manifest, out / f"{command}_manifest.json")


def cmd_spectrum(cfg, args) -> int:
    system = build_system(cfg)
    table, bands = system.table, system.bands
    diag = check_band_invariants(bands)
    fit = fit_asymptotics(table)

    out = _out_dir(cfg)
    csv_path = out / "spectrum.csv"
    spectrum_to_csv(table, csv_path)
    results = {
        "n_modes": len(table),
        "beta": table.beta,
        "exact": table.exact,
        "n_bands": bands.nbands,
        "band_violations": list(diag.violations),
        "fit": {"c1": fit.c1, "c2": fit.c2, "passed": fit.passed},
    }
    _finish(cfg, "spectrum", results, [csv_path], out)
    print(
        f"spectrum: {len(table)} modes, beta={table.beta:g}, "
        f"{bands.nbands} bands, fit c1={fit.c1:.6g} c2={fit.c2:.3g}"
    )
    if diag.violations:
        print(f"FAIL band invariants: {diag.violations[0]}")
        return 1
    if not fit.passed:
        print(
            f"FAIL asymptotic fit: outer residual {fit.outer_max:.3g} "
            f"exceeds twice inner {fit.inner_max:.3g}"
        )
        return 1
    return 0


def cmd_clusters(cfg, args) -> int:
    system = build_system(cfg)
    table, part = system.table, system.clusters
    dyadic = certify_dyadic(part, table)

    out = _out_dir(cfg)
    csv_path = out / "clusters.csv"
    json_path = out / "clusters.json"
    clusters_to_csv(part, table, csv_path)
    clusters_to_json(part, table, json_path)
    results = dict(cluster_summary(part, table))
    margin = results["min_margin"]
    results["dyadic_passed"] = dyadic.passed
    results["separation_margin"] = margin
    _finish(cfg, "clusters", results, [csv_path, json_path], out)
    print(
        f"clusters: {part.nblocks} blocks, dyadic C={dyadic.constant:.4g}, "
        "margin=" + ("n/a (one block)" if margin is None else f"{margin:.4g}")
    )
    if not dyadic.passed:
        block = part.blocks[dyadic.worst_block]
        print(
            f"FAIL dyadic bound: block {dyadic.worst_block} has sup|a|/inf|a| "
            f"{dyadic.constant:.4g}; points {list(block)}"
        )
        return 1
    return 0


def cmd_resonances(cfg, args) -> int:
    system = build_system(cfg)
    sec = cfg["resonance"]
    start = time.perf_counter()
    try:
        cert = certify_nonresonance(
            system.table,
            sec["order"],
            partition=system.bands,
            gamma=sec["gamma"],
            tau=sec["tau"],
        )
    except CertificateError as exc:
        print(f"FAIL nonresonance: {exc}")
        return 1
    rate = cert.n_checked / max(time.perf_counter() - start, 1e-9)
    out = _out_dir(cfg)
    cert_path = out / "certificate.json"
    certificate_to_json(cert, cert_path)
    _finish(cfg, "resonances", cert.to_dict(), [cert_path], out)
    print(
        f"resonances: order {cert.order}, min score {cert.min_score:.6g} "
        f"(gamma {cert.gamma:.6g}, tau {cert.tau:g}, "
        f"exhaustive over {cert.n_checked}, "
        f"{rate:.3g} multisets covered/s)"
    )
    if not cert.passed:
        print(
            f"FAIL nonresonance: witness {cert.witness} has divisor "
            f"{cert.witness_divisor:.6g}"
        )
        return 1
    return 0


def cmd_measure(cfg, args) -> int:
    lattice = build_system(cfg).lattice
    sec = cfg["measure"]
    ensemble = MultiplierEnsemble(
        base=TorusLaplacian(gram=cfg["model"]["gram"]), decay=sec["decay"]
    )
    support = [tuple(p) for p in sec["support"]]
    k = sec["k"]
    if len(k) != len(support):
        raise ConfigError("measure.k and measure.support must have equal length")
    if not sec["gamma"]:
        raise ConfigError("measure.gamma must list at least one threshold")
    coeffs = dict(zip(support, k))
    rows = []
    failed = None
    for i, gamma in enumerate(sec["gamma"]):
        est = estimate_resonant_measure(
            ensemble,
            lattice,
            coeffs,
            float(gamma),
            n_samples=sec["n_samples"],
            seed=spawn_seed(cfg["run"]["seed"], f"measure-{i}"),
        )
        rows.append(asdict(est))
        print(
            f"measure: gamma={est.gamma:g} fraction={est.fraction:.6g} "
            f"bound={est.bound:.6g} (+3se {3 * est.stderr:.2g}) "
            f"{'ok' if est.passed else 'EXCEEDED'}"
        )
        if not est.passed and failed is None:
            failed = est
    out = _out_dir(cfg)
    _finish(cfg, "measure", {"rows": rows}, [], out)
    if failed is not None:
        print(
            f"FAIL measure bound: fraction {failed.fraction:.6g} > "
            f"{failed.bound:.6g} + 3 x {failed.stderr:.3g} at gamma {failed.gamma:g}"
        )
        return 1
    return 0


def cmd_normalform(cfg, args) -> int:
    try:
        certificates, result = run_normalform(cfg, build_system(cfg))
    except (CertificateError, SmallnessError) as exc:
        print(f"FAIL normal form: {exc}")
        return 1

    out = _out_dir(cfg)
    artifacts = []
    for i, gen in enumerate(result.generators):
        path = out / f"generator_{i}.jsonl"
        form_to_jsonl(gen, path)
        artifacts.append(path)
    for name in ("Z0", "ZB", "Z2", "ZGE3"):
        poly = result.bucket(name)
        for degree in poly.degrees:
            path = out / f"{name.lower()}_deg{degree}.jsonl"
            form_to_jsonl(poly.parts[degree], path)
            artifacts.append(path)
    results = normalform_manifest(result)
    results["certificates"] = [c.to_dict() for c in certificates]
    _finish(cfg, "normalform", results, artifacts, out)
    print(
        f"normalform: {len(result.generators)} steps, cutoff {result.cutoff:g}, "
        f"mu {result.mu:.3g}, residual {result.max_residual:.3g}, "
        f"remainder bound {result.remainder_bound:.3g}"
    )
    bucket_terms = results["bucket_terms"]
    print(
        "normalform: terms Z0={Z0} ZB={ZB} Z2={Z2} ZGE3={ZGE3}".format(**bucket_terms)
    )
    return 0


def cmd_simulate(cfg, args) -> int:
    sim = simulation_config(cfg)
    try:
        record = integrate(sim)
    except FloatingPointError as exc:
        print(f"FAIL simulate: {exc}")
        return 1
    out = _out_dir(cfg)
    csv_path = out / "trajectory.csv"
    trajectory_to_csv(record, csv_path)
    growth = float(record.sobolev.max() / record.sobolev[0])
    mass_drift = float(abs(record.mass[-1] - record.mass[0]))
    energy_scale = max(1.0, float(abs(record.energy[0])))
    energy_drift = float(abs(record.energy[-1] - record.energy[0])) / energy_scale
    results = {
        "n_samples": len(record.times),
        "final_time": float(record.times[-1]),
        "initial_sobolev": float(record.sobolev[0]),
        "max_sobolev": float(record.sobolev.max()),
        "growth": growth,
        "mass_drift": mass_drift,
        "relative_energy_drift": energy_drift,
        "meta": {
            k: v
            for k, v in record.meta.items()
            if k not in ("band_floors", "final_modes")
        },
    }
    _finish(cfg, "simulate", results, [csv_path], out)
    print(
        f"simulate: {record.meta['n_steps']} steps to t={record.times[-1]:g}, "
        f"max |u|_s / initial = {growth:.4g}, mass drift {mass_drift:.3g}"
    )
    return 0


def cmd_verify(cfg, args) -> int:
    from .normalform import solve_homological

    checks: List[tuple] = []
    seed = cfg["run"]["seed"]

    system = build_system(cfg)
    lattice, table, bands = system.lattice, system.table, system.bands
    diag = check_band_invariants(bands)
    checks.append(
        ("band invariants", diag.widths_ok and diag.gaps_ok, "; ".join(diag.violations) or "ok")
    )

    part = system.clusters
    edges = {}
    pts = list(table.points)
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            b = pts[j]
            gap = point_distance(a, b) + abs(float(table.omega(a)) - float(table.omega(b)))
            thr = part.c_delta * (table.norm(a) ** part.delta + table.norm(b) ** part.delta)
            if gap < thr:
                edges.setdefault(a, set()).add(b)
                edges.setdefault(b, set()).add(a)
    seen, blocks = set(), []
    for p in pts:
        if p in seen:
            continue
        stack, comp = [p], []
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            comp.append(q)
            stack.extend(edges.get(q, ()))
        blocks.append(tuple(sorted(comp)))
    oracle = tuple(sorted(blocks))
    checks.append(("cluster closure", oracle == part.blocks, f"{part.nblocks} blocks"))

    rng = np.random.default_rng(seed)
    ext = extended_indexes(lattice)
    rows = np.asarray([rng.integers(0, len(ext), size=4) for _ in range(200)])
    scalar = [is_resonant_W(tuple(ext[i] for i in row), table, bands) for row in rows]
    ok_w = scalar == resonant_mask(table, bands, rows).tolist()
    checks.append(("resonant-set membership", ok_w, "200 random multisets"))

    try:
        cert = certify_nonresonance(table, 3, partition=bands)
    except CertificateError as exc:
        cert = None
        checks.append(("order-3 certificate", False, str(exc)))
    else:
        checks.append(
            (
                "order-3 certificate",
                cert.passed,
                f"min score {cert.min_score:.3g} over {cert.n_checked}",
            )
        )

    if cert is not None and cert.passed:
        try:
            f = random_form(lattice, degree=3, n_terms=8, seed=seed + 1)
            cutoff = choose_cutoff(table, bands, 0.01, cert.tau)
            sol = solve_homological(
                f, table, bands, part, cutoff, cert.gamma, cert.tau
            )
            checks.append(
                ("homological residual", sol.residual <= 1e-12, f"{sol.residual:.3g}")
            )
        except ValueError as exc:
            checks.append(("homological residual", False, str(exc)))

    fa = random_form(lattice, degree=3, n_terms=5, seed=seed + 2)
    fb = random_form(lattice, degree=3, n_terms=5, seed=seed + 3)
    fc = random_form(lattice, degree=4, n_terms=5, seed=seed + 4)
    acc = poisson_bracket(fa, poisson_bracket(fb, fc, tol=0.0), tol=0.0)
    acc = add_forms(acc, poisson_bracket(fb, poisson_bracket(fc, fa, tol=0.0), tol=0.0), tol=0.0)
    acc = add_forms(acc, poisson_bracket(fc, poisson_bracket(fa, fb, tol=0.0), tol=0.0), tol=0.0)
    scale = max((abs(c) for f in (fa, fb, fc) for c in f.values.tolist()), default=1.0)
    jac = max((abs(c) for c in acc.values.tolist()), default=0.0) / scale**3
    checks.append(("Jacobi identity", jac <= 1e-10, f"relative residual {jac:.3g}"))

    # a short run of the trajectory ``simulate`` would integrate
    try:
        sim = replace(
            simulation_config(cfg),
            epsilon=0.05, horizon=2.0, stride=20, radius=min(lattice.radius, 6.0), seed=seed
        )
    except ValueError as exc:
        sim, not_run = None, exc
    if sim is not None:
        record = integrate(sim)
        if sim.model == "nls":  # the beam's mass column is no invariant of its flow
            mass_drift = float(abs(record.mass[-1] - record.mass[0]) / record.mass[0])
            checks.append(("mass conservation", mass_drift <= 1e-10, f"drift {mass_drift:.3g}"))
        e_scale = max(1e-30, abs(float(record.energy[0])))
        e_drift = float(abs(record.energy[-1] - record.energy[0])) / e_scale
        checks.append(("energy drift", e_drift <= 1e-4, f"relative drift {e_drift:.3g}"))

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"verify: {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    if sim is None:
        print(f"verify: trajectory checks: not run ({not_run})")
    out = _out_dir(cfg)
    _finish(
        cfg,
        "verify",
        {"checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks]},
        [],
        out,
    )
    if failed:
        print(f"FAIL verify: {failed[0][0]}: {failed[0][2]}")
        return 1
    print(f"verify: all {len(checks)} checks passed")
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "clusters": cmd_clusters,
    "resonances": cmd_resonances,
    "measure": cmd_measure,
    "normalform": cmd_normalform,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latnf",
        description="Spectral truncations, resonance certificates, normal forms, "
        "and trajectory experiments for lattice Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI or JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out-dir", default=None, help="override run.out_dir")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.set)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        if args.out_dir is not None:
            cfg["run"]["out_dir"] = args.out_dir
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"FAIL invariant: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
