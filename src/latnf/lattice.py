"""Truncated mode lattices ``Z^d + kappa`` and signed spectral indexes.

A lattice point is stored as its integer part (a tuple of ints); the shared
offset ``kappa`` makes the effective coordinate ``a = n + kappa``.  Equality
and ordering of points are exact integer comparisons -- floating point only
enters through norms.  A signed index ``A = (point, sign)`` distinguishes the
two conjugate components attached to each mode.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

Point = Tuple[int, ...]
ExtIndex = Tuple[Point, int]  # (integer part, sign in {+1, -1})

#: refuse truncations whose point count exceeds this cap
MAX_POINTS = 10**6


def _per_object(fn):
    """Cache ``fn(key)`` or ``fn(key, other)`` on the object ``key``.

    The value is kept in ``key.__dict__``, as ``functools.cached_property``
    keeps its own (a frozen dataclass allows it), so it dies with ``key``.
    With a second key it goes in a ``weakref.WeakKeyDictionary`` there, which
    also drops it when ``other`` is collected.  Keys hash by identity
    (``eq=False`` dataclasses).
    """
    # not an identifier, so no field or attribute can clash with it
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(key, *other):
        entry = key.__dict__.get(name)
        if entry is None:
            entry = key.__dict__[name] = weakref.WeakKeyDictionary() if other else fn(key)
        if not other:
            return entry
        value = entry.get(other[0])
        if value is None:
            value = entry[other[0]] = fn(key, other[0])
        return value

    return cached


def _as_offset(dim: int, offset) -> Tuple[float, ...]:
    if offset is None:
        return (0.0,) * dim
    off = tuple(float(x) for x in np.atleast_1d(offset))
    if len(off) != dim:
        raise ValueError(f"offset has length {len(off)}, expected {dim}")
    if any(not (0.0 <= x < 1.0) for x in off):
        raise ValueError(f"offset components must lie in [0, 1): {off}")
    return off


@dataclass(frozen=True, eq=False)
class Lattice:
    """All points of ``Z^d + kappa`` with Euclidean norm <= ``radius``.

    ``points`` is ordered lexicographically on the integer part, so the
    enumeration is deterministic and permutation-free.
    """

    dim: int
    offset: Tuple[float, ...]
    radius: float
    points: Tuple[Point, ...]

    @property
    def npoints(self) -> int:
        return len(self.points)

    @property
    def has_offset(self) -> bool:
        return any(x != 0.0 for x in self.offset)

    def effective(self, point: Point) -> np.ndarray:
        return np.asarray(point, dtype=float) + np.asarray(self.offset)

    def norm_sq(self, point: Point):
        """|point + kappa|^2; exact integer when the offset is zero."""
        if not self.has_offset:
            return sum(n * n for n in point)
        return float(sum((n + k) ** 2 for n, k in zip(point, self.offset)))

    def norm(self, point: Point) -> float:
        return math.sqrt(self.norm_sq(point))

    def __contains__(self, point) -> bool:
        return tuple(point) in point_index(self)


@_per_object
def point_index(lattice: Lattice) -> Dict[Point, int]:
    """Position of every point in ``points`` (cached)."""
    return {p: i for i, p in enumerate(lattice.points)}


@_per_object
def integer_array(lattice: Lattice) -> np.ndarray:
    """(npoints, dim) int64 array of the integer parts, in ``points`` order."""
    return np.asarray(lattice.points, dtype=np.int64).reshape(lattice.npoints, lattice.dim)


@_per_object
def point_norms(lattice: Lattice) -> np.ndarray:
    """``|a + kappa|`` of every point, in ``points`` order."""
    return np.array([lattice.norm(p) for p in lattice.points])


@_per_object
def effective_array(lattice: Lattice) -> np.ndarray:
    """(npoints, dim) array of effective coordinates, in ``points`` order."""
    arr = np.asarray(lattice.points, dtype=float).reshape(lattice.npoints, lattice.dim)
    return arr + np.asarray(lattice.offset)


def enumerate_lattice(dim: int, radius: float, offset=None) -> Lattice:
    """Enumerate every point with ``|n + kappa| <= radius``, lex-ordered.

    Raises ``ValueError`` when the truncation would exceed ``MAX_POINTS``
    (infeasible truncation), holds no point, or the arguments are out of
    range.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    off = _as_offset(dim, offset)

    ranges = []
    box = 1
    for k in off:
        lo = math.ceil(-radius - k)
        hi = math.floor(radius - k)
        ranges.append(range(lo, hi + 1))
        box *= max(0, hi - lo + 1)
    if box > 8 * MAX_POINTS:
        raise ValueError(
            f"truncation infeasible: candidate box holds {box} points "
            f"(cap {MAX_POINTS})"
        )

    r_sq = radius * radius
    exact = all(k == 0.0 for k in off)
    pts = []
    for n in itertools.product(*ranges):
        if exact:
            if sum(c * c for c in n) > r_sq:
                continue
        elif sum((c + k) ** 2 for c, k in zip(n, off)) > r_sq:
            continue
        pts.append(n)
        if len(pts) > MAX_POINTS:
            raise ValueError(
                f"truncation infeasible: more than {MAX_POINTS} points "
                f"inside radius {radius}"
            )
    if not pts:
        raise ValueError(
            f"empty truncation: no point of Z^{dim} + offset {off} within radius {radius}"
        )
    return Lattice(dim=dim, offset=off, radius=float(radius), points=tuple(pts))


def extended_indexes(lattice: Lattice) -> Tuple[ExtIndex, ...]:
    """Both signed copies of every point: lex point order, ``+`` before ``-``."""
    out = []
    for p in lattice.points:
        out.append((p, 1))
        out.append((p, -1))
    return tuple(out)


def point_distance(a: Point, b: Point) -> float:
    """Euclidean distance of effective coordinates (offsets cancel)."""
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
