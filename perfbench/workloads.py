"""The benchmark's workloads: seeded inputs, the timed operation, and its output.

A workload object is built once per process (set-up): it derives its inputs
from the seed.  ``run`` is the timed operation.  ``summary`` turns its output
into a flat dict that ``check`` compares with ``reference.json``.

The seed selects one of ``variants`` input variants (``seed % variants``), so
that every seed-dependent output has a recorded reference value of its own.

Every call into latnf goes through a module attribute (``latnf.cli.main``,
``latnf.dynamics.stability_experiment``, ...) so that the tracer's wrappers
see it.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

CONFIG = Path("configs") / "nls_t1.ini"
BUCKETS = ("Z0", "ZB", "Z2", "ZGE3")
VARIANTS = 16


def load_system(root: Path, overrides=()):
    """Config, lattice, spectrum table, bands and clusters of ``nls_t1.ini``.

    Builds the multiplier model the config names, as ``latnf normalform``
    does, through the public constructors.
    """
    import latnf.bands
    import latnf.clusters
    import latnf.frequencies
    import latnf.lattice
    from latnf.config import apply_overrides, load_config

    cfg = load_config(str(root / CONFIG))
    apply_overrides(cfg, list(overrides))
    if cfg["model"]["kind"] != "multiplier":
        raise ValueError(f"{CONFIG} must define a multiplier model")
    sec = cfg["lattice"]
    lattice = latnf.lattice.enumerate_lattice(sec["dim"], sec["radius"], sec["offset"] or None)
    model = latnf.frequencies.SpectralMultiplier(
        base=latnf.frequencies.TorusLaplacian(gram=cfg["model"]["gram"]),
        potential=dict(cfg["model"]["potential"]),
    )
    table = latnf.frequencies.build_spectrum(lattice, model)
    bands = latnf.bands.band_partition(table)
    clusters = latnf.clusters.build_clusters(
        table, cfg["clusters"]["delta"], cfg["clusters"]["c_delta"]
    )
    return cfg, lattice, table, bands, clusters


@contextmanager
def keeping(module, attr: str):
    """Collect the return values of ``module.attr`` while the block runs."""
    inner = getattr(module, attr)
    kept: list = []

    def keep(*args, **kwargs):
        result = inner(*args, **kwargs)
        kept.append(result)
        return result

    setattr(module, attr, keep)
    try:
        yield kept
    finally:
        setattr(module, attr, inner)


def _form_fingerprint(path: Path) -> Dict[str, object]:
    """Term count, hash of the key list, and coefficient l1 norm of a JSONL form.

    Keys are integers and compare exactly; the l1 norm tolerates a change in
    summation order that moves the last digits of the coefficients.
    """
    keys = hashlib.sha256()
    n_terms, l1 = 0, 0.0
    with open(path) as fh:
        fh.readline()
        for line in fh:
            row = json.loads(line)
            keys.update(json.dumps(row["key"]).encode())
            l1 += math.hypot(row["re"], row["im"])
            n_terms += 1
    return {"n_terms": n_terms, "keys_sha256": keys.hexdigest(), "l1": l1}


class NormalformLine5:
    """``latnf normalform`` on the radius-5 ``nls_t1`` system, in process."""

    name = "normalform-line5"
    variants = VARIANTS
    cutoff = 4.5

    def __init__(self, root: Path, seed: int, out_dir: Path):
        from latnf.forms import localized_norm, nls_quartic

        self.variant = seed % self.variants
        overrides = ("lattice.radius=5", f"normalform.cutoff={self.cutoff!r}")
        cfg, lattice, table, _, _ = load_system(root, overrides)
        sec = cfg["normalform"]
        quartic = nls_quartic(lattice, sec["coupling"])
        norm = localized_norm(
            quartic, table, nu=sec["nu"], smoothing=sec["smoothing"], zero_mode="lift"
        )
        self.radius = 0.5 / math.sqrt(norm * self.cutoff**6)
        self.out_dir = out_dir
        self.argv = ["normalform", "--config", str(root / CONFIG)]
        for item in overrides + (f"normalform.radius={self.radius!r}",):
            self.argv += ["--set", item]
        self.argv += ["--seed", str(self.variant), "--out-dir", str(out_dir)]

    def inputs(self) -> Dict[str, object]:
        return {"argv": self.argv[:-2], "radius": self.radius}

    def run(self):
        import latnf.cli

        with keeping(latnf.cli, "certify_nonresonance") as certs, keeping(
            latnf.cli, "normalize"
        ) as results:
            exit_code = latnf.cli.main(self.argv)
        return exit_code, certs, results

    def summary(self, output) -> Dict[str, object]:
        exit_code, certs, results = output
        out: Dict[str, object] = {"exit_code": exit_code}
        for c in certs:
            for key in ("n_checked", "passed", "exhaustive", "min_score"):
                out[f"cert.{c.order}.{key}"] = getattr(c, key)
        for result in results:
            for i, entry in enumerate(result.ledger):
                out[f"ledger.{i}.terms"] = len(entry.form.coeffs)
        path = self.out_dir / "normalform_manifest.json"
        if exit_code != 0 or not path.exists():
            return out
        manifest = json.loads(path.read_text())
        res = manifest["results"]
        for name in BUCKETS:
            out[f"census.{name}"] = res["bucket_terms"][name]
        out["n_generators"] = res["n_generators"]
        out["mu"] = res["mu"]
        out["max_residual"] = res["max_residual"]
        out["remainder_bound"] = res["remainder_bound"]
        for key in ("max_band_residual", "max_block_residual"):
            out[f"commutation.{key}"] = res["commutation"][key]
        for i, v in enumerate(res["step_norms"]):
            out[f"step_norms.{i}"] = v
        out["ledger.n"] = len(res["ledger"])
        for i, entry in enumerate(res["ledger"]):
            for key in ("step", "source_degree", "lie_index", "degree", "norm_r"):
                out[f"ledger.{i}.{key}"] = entry[key]
        for order, gamma in res["gamma"].items():
            out[f"gamma.{order}"] = gamma
        for name, digest in manifest["artifacts"].items():
            out[f"artifact.{name}.sha256"] = digest
            for key, v in _form_fingerprint(self.out_dir / name).items():
                out[f"artifact.{name}.{key}"] = v
        return out


class CertifyLine8:
    """``certify_nonresonance`` at orders 3-6 on the radius-8 ``nls_t1`` table.

    Every order is scanned exhaustively, so the workload is deterministic and
    ignores the seed.
    """

    name = "certify-line8"
    variants = 1
    orders = (3, 4, 5, 6)
    budget = 4_000_000

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.variant = 0
        _, _, self.table, self.bands, _ = load_system(root)

    def inputs(self) -> Dict[str, object]:
        return {"orders": list(self.orders), "budget": self.budget}

    def run(self):
        import latnf.resonance

        return [
            latnf.resonance.certify_nonresonance(
                self.table, order, partition=self.bands, budget=self.budget
            )
            for order in self.orders
        ]

    def summary(self, certs) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for c in certs:
            for key in ("n_checked", "passed", "exhaustive", "min_score", "min_divisor"):
                out[f"o{c.order}.{key}"] = getattr(c, key)
        return out


class NlsLine8:
    """Strang ε-sweep and a normal-form kick trajectory on the radius-8 system.

    The sweep runs ``stability_experiment`` at four sizes, all with horizon
    400, from the seeded initial spectrum.  The kick integrates
    ``H0 + nls_quartic`` from seeded phases on the 17 lattice modes.
    """

    name = "nls-line8"
    variants = VARIANTS
    coupling = -12.0
    dt = 0.01
    eps_values = (0.1, 0.05, 0.02, 0.01)
    horizon = 400.0
    kick_horizon = 40.0
    kick_amplitude = 0.05

    def __init__(self, root: Path, seed: int, out_dir: Path):
        import numpy as np
        from latnf.dynamics import SimulationConfig
        from latnf.forms import nls_quartic

        self.variant = seed % self.variants
        cfg, lattice, self.table, self.bands, self.clusters = load_system(root)
        self.sim = SimulationConfig(
            model="nls",
            dim=lattice.dim,
            radius=lattice.radius,
            gram=cfg["model"]["gram"],
            potential=dict(cfg["model"]["potential"]),
            nonlinearity={1: self.coupling},
            s=cfg["simulate"]["s"],
            dt=self.dt,
            stride=1000,
            seed=self.variant,
            dt_bound=4.0,
        )
        self.quartic = nls_quartic(lattice, self.coupling)
        rng = np.random.default_rng(self.variant)
        self.initial = {
            p: self.kick_amplitude
            * (1.0 + self.table.norm(p)) ** -5.0
            * complex(np.exp(2j * np.pi * rng.random()))
            for p in lattice.points
        }

    def inputs(self) -> Dict[str, object]:
        return {
            "sim_seed": self.sim.seed,
            "initial": sorted((p, (v.real, v.imag)) for p, v in self.initial.items()),
        }

    def run(self):
        import latnf.dynamics as dyn

        with keeping(dyn, "integrate_nls") as records:
            report = dyn.stability_experiment(
                self.sim, self.eps_values, horizons=[self.horizon] * len(self.eps_values)
            )
        kick = dyn.integrate_normal_form(
            self.table,
            [self.quartic],
            self.initial,
            dt=self.dt,
            horizon=self.kick_horizon,
            stride=100,
            s=self.sim.s,
            bands=self.bands,
            clusters=self.clusters,
        )
        return report, records, kick

    def summary(self, output) -> Dict[str, object]:
        report, records, kick = output
        out: Dict[str, object] = {}
        for run, rec in zip(report.runs, records):
            tag = f"sweep.{run.epsilon:g}"
            out[f"{tag}.steps"] = rec.meta["n_steps"]
            out[f"{tag}.max_ratio"] = run.max_ratio
            out[f"{tag}.mass_drift"] = float(
                max(abs(rec.mass - rec.mass[0])) / rec.mass[0]
            )
        energy = kick.energy
        out["kick.steps"] = kick.meta["n_steps"]
        out["kick.exact"] = kick.meta["exact_kick"]
        out["kick.energy_drift"] = float(max(abs(energy - energy[0])) / abs(energy[0]))
        out["kick.final_sobolev"] = float(kick.sobolev[-1])
        return out


WORKLOADS = {w.name: w for w in (NormalformLine5, CertifyLine8, NlsLine8)}


def check(summary: Dict[str, object], reference: Dict[str, Dict]) -> List[str]:
    """Mismatches of a summary against one set of reference rules.

    ``exact`` values must be equal, ``rel`` values ``[value, rtol]`` must
    agree to the relative tolerance, and ``at_most`` values are upper limits.
    A NaN fails every rule.
    """
    bad = []
    for rule, items in reference.items():
        for key, want in items.items():
            if key not in summary:
                bad.append(f"{key}: missing")
                continue
            got = summary[key]
            if rule == "exact":
                ok = got == want
            elif rule == "rel":
                value, rtol = want
                ok = abs(got - value) <= rtol * abs(value)
            elif rule == "at_most":
                ok = got <= want
            else:
                raise ValueError(f"unknown reference rule {rule!r}")
            if not ok:
                bad.append(f"{key}: got {got!r}, reference {rule} {want!r}")
    return bad
