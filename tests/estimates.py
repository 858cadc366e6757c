"""Numerical verification of the quantitative form estimates.

These routines measure constants rather than prove inequalities: tame
constants of vector fields on random states, eigenfunction-product bounds on
the torus, the exact cutoff inequality for separated supports, and the decay
in the cutoff of fields that are high order in the high modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from latnf.forms import SymmetricForm, leading_points, localized_norm
from latnf.frequencies import SpectrumTable
from latnf.lattice import Point, point_distance

from oracles import (
    Key,
    State,
    dict_sobolev_norm,
    dict_vector_field,
    from_dict,
    mu_S,
    polarized_vector_field,
)


def random_state(
    table: SpectrumTable,
    rng: np.random.Generator,
    *,
    decay: float,
    amplitude: float = 1.0,
) -> State:
    """Complex gaussian coefficients with ``(1+|a|)^(-decay)`` envelope."""
    state: State = {}
    for p in table.lattice.points:
        w = (1.0 + table.norm(p)) ** (-decay)
        for sign in (1, -1):
            z = complex(rng.standard_normal(), rng.standard_normal())
            state[(p, sign)] = amplitude * w * z
    return state


@dataclass(frozen=True)
class TameReport:
    constant: float
    n_trials: int
    s: float
    s0: float


def verify_tame(
    form: SymmetricForm,
    table: SpectrumTable,
    *,
    nu: float,
    smoothing: float,
    s: float,
    s0: float,
    trials: int = 20,
    seed: int = 0,
    zero_mode: str = "lift",
) -> TameReport:
    """Empirical tame constant of the multilinear vector field.

    Measures the max over random state tuples of

        ||X(u_1,...,u_r)||_s / (||F|| * sum_j ||u_j||_s prod_{k!=j} ||u_k||_s0)

    Every other tuple is drawn on the interaction support alone (with a
    radius-independent stream) so the estimate stays comparable across
    truncation radii.  Parameter ranges are enforced: s > 3d/2 + nu,
    smoothing > d + s, and s0 strictly between 3d/2 + nu and s.
    """
    d = table.lattice.dim
    if not s > 1.5 * d + nu:
        raise ValueError(f"need s > 3d/2 + nu = {1.5 * d + nu}, got s={s}")
    if not smoothing > d + s:
        raise ValueError(f"need smoothing > d + s = {d + s}, got {smoothing}")
    if not 1.5 * d + nu < s0 < s:
        raise ValueError(f"need s0 in ({1.5 * d + nu}, {s}), got {s0}")

    norm_f = localized_norm(form, table, nu=nu, smoothing=smoothing, zero_mode=zero_mode)
    if norm_f == 0.0:
        return TameReport(constant=0.0, n_trials=trials, s=s, s0=s0)

    r = form.degree - 1
    rng = np.random.default_rng(seed)
    lattice = table.lattice
    # the points the rows use
    support = [form.points[i] for i in np.unique(form.codes >> 1).tolist()]
    best = 0.0
    for trial in range(trials):
        if trial % 2:
            sub = np.random.default_rng([seed, trial])
            states = []
            for _ in range(r):
                decay = float(sub.uniform(s0, s + 1.0))
                states.append(
                    {
                        (p, sign): complex(sub.standard_normal(), sub.standard_normal())
                        * (1.0 + float(table.norm(p))) ** (-decay)
                        for p in support
                        for sign in (1, -1)
                    }
                )
        else:
            states = [
                random_state(table, rng, decay=float(rng.uniform(s0, s + 1.0)))
                for _ in range(r)
            ]
        lhs = dict_sobolev_norm(polarized_vector_field(form, states), lattice, s)
        ns = [dict_sobolev_norm(u, lattice, s) for u in states]
        n0 = [dict_sobolev_norm(u, lattice, s0) for u in states]
        rhs = 0.0
        for j in range(r):
            prod = ns[j]
            for k in range(r):
                if k != j:
                    prod *= n0[k]
            rhs += prod
        rhs *= norm_f
        if rhs > 0:
            best = max(best, lhs / rhs)
    return TameReport(constant=best, n_trials=trials, s=s, s0=s0)


@dataclass(frozen=True)
class BilinearReport:
    worst_ratio: float
    worst_key: Optional[Key]
    fitted_constant: float
    passed: bool
    n_checked: int


def verify_bilinear_eigen(
    g: Dict[Point, complex],
    keys: Sequence[Key],
    table: SpectrumTable,
    *,
    nu: float,
    smoothing: float,
    slack: float = 1.0,
) -> BilinearReport:
    """Eigenfunction-product coefficients against the localization bound.

    On the flat torus the integral of ``g`` against a signed product of
    exponentials is the Fourier coefficient of ``g`` at minus the signed sum;
    each is compared with ``C * mu^(smoothing+nu) / S^smoothing`` where C is
    fitted from the decay of ``g`` itself.
    """
    if table.lattice.has_offset:
        raise ValueError("eigenfunction products need the plain torus basis")
    fitted = 0.0
    for m, c in g.items():
        w = 1.0 + math.sqrt(sum(v * v for v in m))
        fitted = max(fitted, abs(c) * w ** (smoothing + nu))

    worst = 0.0
    worst_key = None
    for key in keys:
        total = tuple(
            sum(-s * p[i] for p, s in key) for i in range(table.lattice.dim)
        )
        value = g.get(total)
        if not value:
            continue
        mu, big_s = mu_S(table, tuple(key), zero_mode="lift")
        ratio = abs(value) * big_s**smoothing / mu ** (smoothing + nu)
        if ratio > worst:
            worst, worst_key = ratio, tuple(key)
    return BilinearReport(
        worst_ratio=worst,
        worst_key=worst_key,
        fitted_constant=fitted,
        passed=worst <= fitted * slack * (1.0 + 1e-12),
        n_checked=len(keys),
    )


@dataclass(frozen=True)
class SeparationReport:
    lhs: float
    rhs: float
    support_ok: bool
    passed: bool


def separation_cutoff_bound(
    form: SymmetricForm,
    table: SpectrumTable,
    cutoff: float,
    delta: float,
    *,
    nu: float,
    smoothing: float,
    smoothing_high: float,
    zero_mode: str = "error",
) -> SeparationReport:
    """Exact cutoff inequality on supports separated beyond cutoff**delta.

    For every key whose two largest modes sit at index distance greater than
    ``cutoff**delta``, the norm at the shifted weight ``(nu + dN, smoothing)``
    is bounded by the ``(nu, smoothing_high)`` norm divided by
    ``cutoff**(delta*dN)`` with ``dN = smoothing_high - smoothing``.
    """
    if smoothing_high < smoothing:
        raise ValueError("smoothing_high must be >= smoothing")
    shift = smoothing_high - smoothing
    threshold = cutoff**delta

    support_ok = True
    if form.degree >= 2:
        _, lead = leading_points(form, table)
        pairs = set(map(tuple, lead[:, :2].tolist()))
        points = table.lattice.points
        support_ok = all(point_distance(points[a], points[b]) > threshold for a, b in pairs)

    lhs = localized_norm(form, table, nu=nu + shift, smoothing=smoothing, zero_mode=zero_mode)
    rhs = localized_norm(form, table, nu=nu, smoothing=smoothing_high, zero_mode=zero_mode) / cutoff ** (delta * shift)
    return SeparationReport(
        lhs=lhs,
        rhs=rhs,
        support_ok=support_ok,
        passed=support_ok and lhs <= rhs * (1.0 + 1e-12),
    )


@dataclass(frozen=True)
class DecayReport:
    slope: float
    cutoffs: Tuple[float, ...]
    sups: Tuple[float, ...]


def high_order_decay(
    table: SpectrumTable,
    cutoffs: Sequence[float],
    *,
    s: float,
    s0: float,
    degree: int = 4,
    high_order: int = 3,
    radius: float = 1.0,
    trials: int = 8,
    seed: int = 0,
) -> DecayReport:
    """Slope of sup ||X_F||_s on the radius ball versus the high-mode cutoff.

    For each cutoff a unit-coefficient form is built with ``high_order``
    entries on the first modes above the cutoff and the rest on the lowest
    modes; the sup is taken over near-extremal and random states scaled to
    the ball radius.
    """
    if high_order < 3 or high_order > degree:
        raise ValueError("need 3 <= high_order <= degree")
    lattice = table.lattice
    by_floor = sorted(lattice.points, key=lambda p: (table.floor(p), p))
    rng = np.random.default_rng(seed)

    sups: List[float] = []
    for cutoff in cutoffs:
        highs = [p for p in by_floor if table.floor(p) > cutoff][:high_order]
        lows = by_floor[: degree - high_order]
        if len(highs) < high_order:
            raise ValueError(f"cutoff {cutoff} leaves too few high modes")
        entries = [(p, 1 if i % 2 == 0 else -1) for i, p in enumerate(highs)]
        entries += [(p, -1) for p in lows]
        form = from_dict(lattice.points, degree, {tuple(sorted(entries, key=lambda e: (e[0], -e[1]))): 1.0 + 0j})

        best = 0.0
        support = {e for e in entries} | {(p, -sgn) for p, sgn in entries}
        peaked: State = {}
        for p, sgn in support:
            peaked[(p, sgn)] = (1.0 + table.norm(p)) ** (-s)
        scale = radius / dict_sobolev_norm(peaked, lattice, s)
        peaked = {k: v * scale for k, v in peaked.items()}
        candidates = [peaked]
        for _ in range(trials):
            u = random_state(table, rng, decay=s)
            r = dict_sobolev_norm(u, lattice, s)
            candidates.append({k: v * (radius / r) for k, v in u.items()})
        for u in candidates:
            best = max(best, dict_sobolev_norm(dict_vector_field(form, u), lattice, s))
        sups.append(best)

    logk = np.log(np.asarray([float(c) for c in cutoffs]))
    logv = np.log(np.asarray(sups))
    slope = float(np.polyfit(logk, logv, 1)[0])
    return DecayReport(slope=slope, cutoffs=tuple(float(c) for c in cutoffs), sups=tuple(sups))
