"""Frequency models ``a -> omega_a`` and the tabulated spectrum.

Every model carries an asymptotic exponent ``beta > 1`` (``omega_a`` grows
like ``|a|^beta``); the floor norm ``omega_a^(1/beta)`` is the frequency-side
measure of mode size used by cutoffs and high/low splittings.  The flat-torus
model keeps exact integer frequencies whenever the Gram matrix is integer and
the offset is zero, so divisor arithmetic downstream stays exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from .lattice import Lattice, Point, _per_object, effective_array


@dataclass(frozen=True)
class TorusLaplacian:
    """``omega_a = a^T G a`` for a symmetric positive definite Gram matrix.

    ``gram=None`` means the identity.  Integer Gram matrices with zero offset
    evaluate in exact integer arithmetic.
    """

    gram: Optional[Tuple[Tuple[float, ...], ...]] = None

    @property
    def beta(self) -> float:
        return 2.0

    def gram_matrix(self, dim: int) -> np.ndarray:
        if self.gram is None:
            return np.eye(dim)
        g = np.asarray(self.gram, dtype=float)
        if g.shape != (dim, dim):
            raise ValueError(f"Gram matrix shape {g.shape} does not match d={dim}")
        if not np.allclose(g, g.T):
            raise ValueError("Gram matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(g) <= 0):
            raise ValueError("Gram matrix must be positive definite")
        return g

    def is_integer(self, dim: int) -> bool:
        g = self.gram_matrix(dim)
        return bool(np.all(g == np.round(g)))


@dataclass(frozen=True)
class SpectralMultiplier:
    """``omega_a = base omega_a + V_a`` with a per-mode diagonal shift."""

    base: object
    potential: Mapping[Point, float] = field(default_factory=dict)

    @property
    def beta(self) -> float:
        return self.base.beta


@dataclass(frozen=True)
class GroundState:
    """``omega_a = sqrt(lambda_a^2 + 2 f(p0) lambda_a)`` from tabulated lambda.

    ``f_value`` is ``f(p0)``, the nonlinearity at the condensate mass
    ``p0``: the one number of ``f`` and ``p0`` that the frequencies read.
    """

    eigenvalues: Mapping[Point, float]
    f_value: float

    @property
    def beta(self) -> float:
        return 2.0


@dataclass(frozen=True)
class Beam:
    """``omega_a = sqrt(lambda_a^2 + m)`` from tabulated lambda and mass m."""

    eigenvalues: Mapping[Point, float]
    mass: float

    @property
    def beta(self) -> float:
        return 2.0


@dataclass(frozen=True)
class TableModel:
    """A user-supplied map ``point -> omega`` with a declared exponent."""

    values: Mapping[Point, float]
    beta: float


def frequency(model, point: Point, offset=None):
    """Evaluate ``omega_a`` for one point; pure and deterministic."""
    if isinstance(model, TorusLaplacian):
        dim = len(point)
        if (offset is None or all(k == 0.0 for k in offset)) and model.is_integer(dim):
            g = model.gram_matrix(dim).astype(int)
            pairs = [(i, j) for i in range(dim) for j in range(dim)]
            return sum(int(point[i]) * int(g[i, j]) * int(point[j]) for i, j in pairs)
        a = np.asarray(point, dtype=float)
        if offset is not None:
            a = a + np.asarray(offset, dtype=float)
        return float(a @ model.gram_matrix(dim) @ a)
    if isinstance(model, SpectralMultiplier):
        base = frequency(model.base, point, offset)
        if not model.potential:
            return base
        return base + float(model.potential.get(tuple(point), 0.0))
    if isinstance(model, GroundState):
        lam = model.eigenvalues[tuple(point)]
        two_f = 2.0 * model.f_value
        val = lam * lam + two_f * lam
        if val < 0:
            raise ValueError(
                f"positivity violated at {point}: lambda^2 + 2 f(p0) lambda = {val} < 0"
            )
        return math.sqrt(val)
    if isinstance(model, Beam):
        lam = model.eigenvalues[tuple(point)]
        return math.sqrt(lam * lam + model.mass)
    if isinstance(model, TableModel):
        return model.values[tuple(point)]
    raise TypeError(f"unknown frequency model: {type(model).__name__}")


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Every enumerated point with its frequency, sorted by frequency.

    The sort is stabilized by the lex order of integer parts so identical
    spectra always tabulate identically.  ``exact`` marks integer-valued
    frequencies (exact divisor arithmetic downstream).
    """

    lattice: Lattice
    model: object
    points: Tuple[Point, ...]
    omegas: tuple
    exact: bool

    @property
    def beta(self) -> float:
        return self.model.beta

    def omega(self, point: Point):
        return _omega_map(self)[tuple(point)]

    def floor(self, point: Point) -> float:
        om = self.omega(point)
        return float(om) ** (1.0 / self.beta)

    def norm(self, point: Point) -> float:
        return self.lattice.norm(point)

    def __len__(self) -> int:
        return len(self.points)


@_per_object
def _omega_map(table: SpectrumTable) -> dict:
    return dict(zip(table.points, table.omegas))


def build_spectrum(lattice: Lattice, model) -> SpectrumTable:
    """Tabulate the model on the lattice (exact integers when possible)."""
    vals = [frequency(model, p, lattice.offset) for p in lattice.points]
    exact = all(isinstance(v, int) for v in vals)
    order = sorted(range(len(vals)), key=lambda i: (vals[i], lattice.points[i]))
    pts = tuple(lattice.points[i] for i in order)
    oms = tuple(vals[i] for i in order)
    if any(v < 0 for v in oms):
        bad = pts[int(np.argmin(np.asarray(oms)))]
        raise ValueError(f"negative frequency at {bad}")
    return SpectrumTable(lattice=lattice, model=model, points=pts, omegas=oms, exact=exact)


def spectrum_to_csv(table: SpectrumTable, path) -> None:
    d = table.lattice.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"ax{i + 1}" for i in range(d)] + ["omega"])
        for p, om in zip(table.points, table.omegas):
            writer.writerow(list(p) + [repr(om)])


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares power-law fit ``omega ~ c1 |a|^beta`` with residual cap c2."""

    c1: float
    c2: float
    passed: bool
    inner_max: float
    outer_max: float


def fit_asymptotics(model, table: SpectrumTable) -> AsymptoticFit:
    """Fit ``c1`` on ``(|a|^beta, omega)``, set ``c2 = max |residual|``.

    The fit passes when the residuals do not grow across the truncation:
    the max residual on the outer half (by |a|) must stay within twice the
    max on the inner half, up to rounding slack.
    """
    if len(table) == 0:
        raise ValueError("empty spectrum table")
    norms = np.linalg.norm(effective_array(table.lattice), axis=1)
    by_point = {p: n for p, n in zip(table.lattice.points, norms)}
    r = np.asarray([by_point[p] for p in table.points])
    om = np.asarray([float(v) for v in table.omegas])
    x = r**model.beta
    denom = float(x @ x)
    c1 = float(x @ om) / denom if denom > 0 else 0.0
    res = np.abs(om - c1 * x)
    c2 = float(res.max())

    median = float(np.median(r))
    inner = res[r <= median]
    outer = res[r > median]
    inner_max = float(inner.max()) if inner.size else 0.0
    outer_max = float(outer.max()) if outer.size else 0.0
    slack = 1e-9 * (1.0 + float(np.abs(om).max()))
    passed = outer_max <= 2.0 * inner_max + slack
    return AsymptoticFit(c1=c1, c2=c2, passed=passed, inner_max=inner_max, outer_max=outer_max)
