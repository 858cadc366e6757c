"""Frequency models ``a -> omega_a`` and the tabulated spectrum.

Every model evaluates ``omega(points, offset=None)`` on an ``(n, dim)``
integer point array, returning Python scalars, and carries an asymptotic
exponent ``beta > 1`` (``omega_a`` grows like ``|a|^beta``); the floor norm
``omega_a^(1/beta)`` is the frequency-side measure of mode size used by
cutoffs and high/low splittings.  The flat-torus model checks its Gram
matrix (finite, symmetric, positive definite) once, when it is built, and
keeps exact ``int`` frequencies whenever the Gram matrix is integer and the
offset is zero, so divisor arithmetic downstream stays exact; the other
models return ``float``s, refuse a non-finite potential or mass when they
are built, and the square-root models refuse a negative radicand, naming
its first point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from .lattice import Lattice, Point, _per_object


def _tuples(points) -> list:
    return [tuple(p) for p in np.asarray(points).tolist()]


def _checked_sqrt(val: np.ndarray, points, rule: str) -> list:
    """``sqrt(val)`` as floats; a ``ValueError`` names the first point with ``val < 0`` or NaN."""
    bad = ~(val >= 0)
    if np.any(bad):
        i = int(np.argmax(bad))
        v = float(val[i])
        raise ValueError(f"positivity violated at {_tuples(points)[i]}: {rule} = {v}" + (" < 0" if v < 0 else ""))
    return np.sqrt(val).tolist()


@dataclass(frozen=True)
class TorusLaplacian:
    """``omega_a = a^T G a`` for a symmetric positive definite Gram matrix.

    ``gram=None`` means the identity.  The matrix is checked once, when the
    model is built, and its shape at evaluation, where ``dim`` is known.  An
    integer matrix with zero offset evaluates in exact ``int`` arithmetic.
    """

    gram: Optional[Tuple[Tuple[float, ...], ...]] = None
    beta = 2.0  # a class constant, not a field

    def __post_init__(self):
        g = np.eye(1) if self.gram is None else np.asarray(self.gram, dtype=float)
        if not np.isfinite(g).all():
            raise ValueError(f"gram must be finite, got {self.gram}")
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            return  # refused at evaluation, where the dimension is known
        if not np.allclose(g, g.T):
            raise ValueError("Gram matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(g) <= 0):
            raise ValueError("Gram matrix must be positive definite")

    def omega(self, points, offset=None) -> list:
        x = np.asarray(points)
        dim = x.shape[1]
        g = np.eye(dim) if self.gram is None else np.asarray(self.gram, dtype=float)
        if g.shape != (dim, dim):
            raise ValueError(f"Gram matrix shape {g.shape} does not match d={dim}")
        if (offset is None or not np.any(offset)) and np.all(g == np.round(g)):
            x = x.astype(object)  # Python ints, which cannot overflow
            return (x @ g.astype(int).astype(object) * x).sum(axis=1).tolist()
        a = x.astype(float) + (0.0 if offset is None else np.asarray(offset, dtype=float))
        # each point's a @ G @ a, multiplied in that order
        return (a[:, None, :] @ g @ a[:, :, None])[:, 0, 0].tolist()


@dataclass(frozen=True)
class SpectralMultiplier:
    """``omega_a = base omega_a + V_a``, a per-mode shift: ``float``s unless ``V`` is empty."""

    base: object
    potential: Mapping[Point, float] = field(default_factory=dict)

    def __post_init__(self):
        for p, v in self.potential.items():
            if not -math.inf < v < math.inf:
                raise ValueError(f"potential must be finite, got {v} at {p}")

    @property
    def beta(self) -> float:
        return self.base.beta

    def omega(self, points, offset=None) -> list:
        base = self.base.omega(points, offset)
        if not self.potential:
            return base
        return [b + float(self.potential.get(p, 0.0)) for b, p in zip(base, _tuples(points))]


@dataclass(frozen=True)
class GroundState:
    """``omega_a = sqrt(lambda_a^2 + 2 f(p0) lambda_a)`` with ``lambda_a = base omega_a``.

    ``f_value`` is ``f(p0)``, the nonlinearity at the condensate mass
    ``p0``: the one number of ``f`` and ``p0`` that the frequencies read.
    """

    base: object
    f_value: float
    beta = 2.0

    def __post_init__(self):
        if not -math.inf < self.f_value < math.inf:
            raise ValueError(f"f_value must be finite, got {self.f_value}")

    def omega(self, points, offset=None) -> list:
        lam = np.asarray(self.base.omega(points, offset), dtype=float)
        val = lam * lam + 2.0 * self.f_value * lam
        return _checked_sqrt(val, points, "lambda^2 + 2 f(p0) lambda")


@dataclass(frozen=True)
class Beam:
    """``omega_a = sqrt(lambda_a^2 + m)`` with ``lambda_a = base omega_a`` and mass m."""

    base: object
    mass: float
    beta = 2.0

    def __post_init__(self):
        if not -math.inf < self.mass < math.inf:
            raise ValueError(f"mass must be finite, got {self.mass}")

    def omega(self, points, offset=None) -> list:
        lam = np.asarray(self.base.omega(points, offset), dtype=float)
        return _checked_sqrt(lam * lam + self.mass, points, "lambda^2 + m")


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


@_per_object
def point_floors(table: SpectrumTable) -> np.ndarray:
    """Floor norm of every lattice point, in lattice order."""
    return np.array([table.floor(p) for p in table.lattice.points])


def build_spectrum(lattice: Lattice, model) -> SpectrumTable:
    """Tabulate the model on the lattice (exact integers when possible)."""
    vals = model.omega(np.asarray(lattice.points), lattice.offset)
    exact = all(isinstance(v, int) for v in vals)
    oms, pts = zip(*sorted(zip(vals, lattice.points)))
    if oms[0] < 0:
        raise ValueError(f"negative frequency at {pts[0]}")
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


def fit_asymptotics(table: SpectrumTable) -> AsymptoticFit:
    """Fit ``c1`` on ``(|a|^beta, omega)``, set ``c2 = max |residual|``.

    The fit passes when the residuals do not grow across the truncation:
    the max residual on the outer half (by |a|) must stay within twice the
    max on the inner half, up to rounding slack.
    """
    if len(table) == 0:
        raise ValueError("empty spectrum table")
    r = np.linalg.norm(np.asarray(table.points, dtype=float) + table.lattice.offset, axis=1)
    om = np.asarray([float(v) for v in table.omegas])
    x = r**table.beta
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
