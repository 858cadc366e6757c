"""Band partition of the spectrum into short, well-separated intervals.

The spectrum is covered by an initial segment (index 0) followed by numbered
bands.  Interval ``n+1`` must start at least ``2 n^(-d/beta)`` above the end
of interval ``n`` (n >= 1), and every interval besides the initial segment is
at most 2 wide.  Construction is greedy left to right; when the greedy rule
cannot satisfy an invariant on a given truncation, the partition is returned
anyway, and ``check_band_invariants`` names the violation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Tuple

from .frequencies import SpectrumTable
from .lattice import Point, _per_object


@dataclass(frozen=True, eq=False)
class BandPartition:
    """Closed intervals ``[lo, hi]``; index 0 is the initial segment."""

    intervals: Tuple[Tuple[float, float], ...]
    dim: int
    beta: float

    @property
    def nbands(self) -> int:
        return len(self.intervals)

    def gap_floor(self, n: int) -> float:
        """Required clearance above band ``n`` (n >= 1)."""
        if n < 1:
            raise ValueError("the gap rule applies to numbered bands only")
        return 2.0 * n ** (-self.dim / self.beta)

    def width(self, n: int) -> float:
        lo, hi = self.intervals[n]
        return hi - lo


def band_partition(table: SpectrumTable) -> BandPartition:
    """Greedy left-to-right banding of the tabulated spectrum.

    A new interval opens when the next distinct frequency clears the gap rule
    for the current band index, or when extending would stretch the band past
    width 2 (the latter case leaves a gap that ``check_band_invariants``
    reports).
    The gap rule reads the lattice dimension and the model exponent of ``table``.
    """
    dim, beta = table.lattice.dim, table.beta
    distinct = sorted(set(float(v) for v in table.omegas))
    if not distinct:
        return BandPartition(intervals=(), dim=dim, beta=beta)
    intervals = [(distinct[0], distinct[0])]  # initial segment closes eagerly
    n = 0  # index of the last closed band
    i = 1
    while i < len(distinct):
        n += 1
        required = 2.0 * n ** (-dim / beta)
        lo = hi = distinct[i]
        i += 1
        while i < len(distinct):
            # the gap rule opens the next band, or the width cap closes this one
            if distinct[i] - hi >= required or distinct[i] - lo > 2.0:
                break
            hi = distinct[i]
            i += 1
        intervals.append((lo, hi))
    return BandPartition(intervals=tuple(intervals), dim=dim, beta=beta)


def band_of(partition: BandPartition, omega: float) -> int:
    """Index of the closed interval containing ``omega`` (0 = initial segment)."""
    om = float(omega)
    starts = _interval_starts(partition)
    i = bisect.bisect_right(starts, om) - 1
    if i >= 0:
        lo, hi = partition.intervals[i]
        if lo <= om <= hi:
            return i
    raise ValueError(f"frequency {omega} is not covered by any band")


@_per_object
def _interval_starts(partition: BandPartition) -> tuple:
    return tuple(lo for lo, _ in partition.intervals)


@_per_object
def band_map(table: SpectrumTable, partition: BandPartition) -> Dict[Point, int]:
    """Band index of every tabulated point (cached)."""
    return {p: band_of(partition, float(om)) for p, om in zip(table.points, table.omegas)}


@dataclass(frozen=True)
class BandDiagnostics:
    widths_ok: bool
    gaps_ok: bool
    violations: Tuple[str, ...]


def check_band_invariants(partition: BandPartition) -> BandDiagnostics:
    """Exact check of the width and gap invariants."""
    violations = []
    widths_ok = True
    for n in range(1, partition.nbands):
        if partition.width(n) > 2.0:
            widths_ok = False
            violations.append(f"band {n} has width {partition.width(n):.6g} > 2")
    gaps_ok = True
    for n in range(1, partition.nbands - 1):
        gap = partition.intervals[n + 1][0] - partition.intervals[n][1]
        if gap < partition.gap_floor(n):
            gaps_ok = False
            violations.append(
                f"gap above band {n} is {gap:.6g} < {partition.gap_floor(n):.6g}"
            )
    return BandDiagnostics(widths_ok=widths_ok, gaps_ok=gaps_ok, violations=tuple(violations))
