"""Small divisors, the paired-mode resonant set, and nonresonance certificates.

A monomial is indexed by a multiset of signed modes.  Its small divisor is the
signed sum of frequencies.  The structurally resonant set consists of the
multisets whose signed modes can be matched in pairs of opposite sign inside a
single frequency band; those divisors can vanish identically and are excluded
from certification.  Inside one band any plus entry pairs with any minus
entry, so a multiset is resonant exactly when the signed count of every band
is zero (never at odd order).  Everything else is certified by scanning the
scaled divisor

    |sum_j sigma_j omega_{a_j}| * max(1, max_j |a_j|)^tau

whose minimum is compared against the requested threshold gamma.  The floor
``max(1, .)`` keeps multisets supported entirely on a zero mode from scoring
zero by scale alone.

The scan is one numpy kernel over blocks of ``BLOCK`` index rows into
``extended_indexes``.  An exhaustive scan (multiset count within the budget)
visits the rows in ``combinations_with_replacement`` order, expanding a table
of non-decreasing index heads against the tail of a table of non-decreasing
suffixes that starts at each head's last index.  Above the budget a seeded
uniform sample of index draws is scanned, each row sorted into the tuple
order of its signed modes, where ``(p, -1)`` precedes ``(p, +1)``.  Divisors
add the signed frequencies column by column, left to right, as
``small_divisor`` does, so each is bit-identical to it: float64 on float
spectra, exact Python integers otherwise.  A row is resonant when its sorted
signed band labels ``sigma * (band + 1)`` equal their reversed negation; only
the rows of a block that beat a running minimum are tested.  The witnesses
are the first minima in scan order.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .bands import BandPartition, band_map
from .clusters import ClusterPartition, block_index_map
from .frequencies import SpectralMultiplier, SpectrumTable, frequency
from .lattice import ExtIndex, Lattice, Point, extended_indexes, point_distance

#: index rows per block of the certification scan; bounds its temporaries to
#: a few block-sized arrays whatever the multiset count
BLOCK = 2048


def ordering_permutation(table: SpectrumTable, multiset: Sequence[ExtIndex]) -> Tuple[int, ...]:
    """Indices sorting entries by decreasing floor norm, ties by point then +/-."""
    def key(i):
        (p, s) = multiset[i]
        return (-table.floor(p), p, -s)

    return tuple(sorted(range(len(multiset)), key=key))


def small_divisor(table: SpectrumTable, multiset: Sequence[ExtIndex]):
    """Signed frequency sum; stays an exact integer on integer spectra."""
    total = 0
    for point, sign in multiset:
        total = total + sign * table.omega(point)
    return total


def is_resonant_W(multiset: Sequence[ExtIndex], table: SpectrumTable, partition: BandPartition) -> bool:
    """Whether the signed modes admit a perfect +/- pairing within bands.

    The pairing graph joins a +1 entry to a -1 entry exactly when both
    frequencies fall in the same band (the initial segment counts as a band).
    Inside one band it is complete bipartite, so a perfect pairing exists
    exactly when every band holds as many +1 as -1 entries.
    """
    if len(multiset) % 2:
        return False
    bands = band_map(table, partition)
    counts = Counter()
    for p, s in multiset:
        counts[bands[p]] += s
    return not any(counts.values())


def validate_cutoff(table: SpectrumTable, partition: BandPartition, cutoff: float) -> None:
    """Reject cutoffs that split a band between low and high modes."""
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    inv_beta = 1.0 / partition.beta
    for lo, hi in partition.intervals:
        if lo**inv_beta <= cutoff < hi**inv_beta:
            raise ValueError(
                f"cutoff {cutoff} falls inside the band [{lo}, {hi}] "
                "(floor scale): move it into a spectral gap"
            )


def is_block_nonresonant(
    multiset: Sequence[ExtIndex],
    table: SpectrumTable,
    bands: BandPartition,
    clusters: ClusterPartition,
    cutoff: float,
) -> bool:
    """Block nonresonance test for a monomial at high-mode cutoff ``cutoff``.

    High modes are those with floor norm > cutoff.  The multiset is
    nonresonant when its divisor is controlled by construction: at most two
    high modes, and in the two-mode case either equal signs inside one
    cluster block, or distinct blocks at index distance within
    ``c_delta * cutoff**delta``.  With no high modes it reduces to the
    paired-mode criterion.
    """
    validate_cutoff(table, bands, cutoff)
    high = [(p, s) for p, s in multiset if table.floor(p) > cutoff]
    if len(high) > 2:
        return False
    if len(high) == 0:
        return not is_resonant_W(multiset, table, bands)
    if len(high) == 1:
        return True
    (a1, s1), (a2, s2) = high
    ids = block_index_map(clusters)
    if ids[a1] == ids[a2]:
        return s1 * s2 > 0
    return point_distance(a1, a2) <= clusters.c_delta * cutoff**clusters.delta


@dataclass(frozen=True)
class NonresonanceCertificate:
    """Minimum scaled divisor over multisets off the resonant set."""

    order: int
    tau: float
    gamma: float
    min_score: float
    witness: Tuple[ExtIndex, ...]
    witness_divisor: float
    min_divisor: float
    divisor_witness: Tuple[ExtIndex, ...]
    passed: bool
    exhaustive: bool
    n_checked: int

    def to_dict(self) -> dict:
        def enc(ms):
            return [[list(p), s] for p, s in ms]

        return {
            "order": self.order,
            "tau": self.tau,
            "gamma": self.gamma,
            "min_score": self.min_score,
            "witness": enc(self.witness),
            "witness_divisor": _json_divisor(self.witness_divisor),
            "min_divisor": _json_divisor(self.min_divisor),
            "divisor_witness": enc(self.divisor_witness),
            "passed": self.passed,
            "exhaustive": self.exhaustive,
            "n_checked": self.n_checked,
        }


def _json_divisor(value):
    """Exact integer divisors stay integers in JSON; others are floats."""
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def _nondecreasing_rows(n: int, k: int) -> np.ndarray:
    """All non-decreasing ``k``-tuples over ``range(n)``, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(k):
        last = rows[:, -1] if rows.shape[1] else np.zeros(len(rows), dtype=np.intp)
        counts = n - last
        parent = np.repeat(np.arange(len(rows)), counts)
        first = np.cumsum(counts) - counts
        column = np.arange(len(parent)) - first[parent] + last[parent]
        rows = np.column_stack([rows[parent], column])
    return rows


def _exhaustive_blocks(n: int, order: int):
    """Blocks of ``BLOCK`` index rows in ``combinations_with_replacement`` order.

    Each non-decreasing head of ``order // 2`` indexes is followed by the
    tail of the suffix table that starts at the head's last index; row ``r``
    of the scan belongs to the first head whose cumulative row count exceeds
    ``r``.
    """
    heads = _nondecreasing_rows(n, order // 2)
    tails = _nondecreasing_rows(n, order - order // 2)
    last = heads[:, -1] if heads.shape[1] else np.zeros(1, dtype=np.intp)
    ends = np.cumsum(len(tails) - np.searchsorted(tails[:, 0], last))
    total = int(ends[-1])
    for lo in range(0, total, BLOCK):
        r = np.arange(lo, min(lo + BLOCK, total))
        h = np.searchsorted(ends, r, side="right")
        yield np.hstack([heads[h], tails[r - ends[h] + len(tails)]])


def _sampled_blocks(ext: Sequence[ExtIndex], order: int, samples: int, seed):
    """Blocks of seeded uniform index draws, each row in the tuple order of ``ext``."""
    draws = np.random.default_rng(seed).integers(0, len(ext), size=(samples, order))
    by_rank = np.asarray(sorted(range(len(ext)), key=ext.__getitem__), dtype=np.intp)
    rank = np.empty_like(by_rank)
    rank[by_rank] = np.arange(len(ext))
    for lo in range(0, samples, BLOCK):
        yield by_rank[np.sort(rank[draws[lo : lo + BLOCK]], axis=1)]


def _signed_bands(table: SpectrumTable, partition: BandPartition, ext) -> np.ndarray:
    """``sigma * (band + 1)`` per entry of ``ext``: nonzero, with the entry's sign."""
    bm = band_map(table, partition)
    return np.asarray([s * (bm[p] + 1) for p, s in ext], dtype=np.int64)


def _resonant(signed_bands: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows whose signed count is zero in every band.

    That holds exactly when the row's ``signed_bands`` values are symmetric
    under negation, i.e. when sorted they equal their reversed negation.
    Odd rows can never be symmetric, since no value is zero.
    """
    v = np.sort(signed_bands[rows], axis=1)
    return (v == -v[:, ::-1]).all(axis=1)


def resonant_mask(table: SpectrumTable, partition: BandPartition, rows) -> np.ndarray:
    """Resonant-set membership of ``(m, order)`` index rows into ``extended_indexes``.

    The batch form of ``is_resonant_W`` that the certification scan uses.
    """
    rows = np.asarray(rows, dtype=np.intp)
    ext = extended_indexes(table.lattice)
    return _resonant(_signed_bands(table, partition, ext), rows)


def _signed_omegas(table: SpectrumTable, ext) -> np.ndarray:
    """``sigma * omega`` per entry, in a dtype that keeps ``small_divisor``'s bits.

    float64 on float spectra; Python objects (exact integers, or mixed
    values) otherwise.
    """
    values = [s * table.omega(p) for p, s in ext]
    if all(isinstance(v, float) for v in values):
        return np.asarray(values, dtype=np.float64)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _item(x):
    return x.item() if isinstance(x, np.generic) else x


def certify_nonresonance(
    table: SpectrumTable,
    order: int,
    *,
    partition: Optional[BandPartition] = None,
    gamma: Optional[float] = None,
    tau: Optional[float] = None,
    budget: int = 1_000_000,
    samples: int = 200_000,
    seed: int = 0,
) -> NonresonanceCertificate:
    """Scan order-``order`` multisets off the resonant set for small divisors.

    ``tau`` defaults to ``dim * order + 2``; ``gamma`` defaults to 0.9 times
    the measured minimum (certifying exactly what was observed).  The scan
    is exhaustive when the multiset count fits the budget, in
    ``combinations_with_replacement`` order over ``extended_indexes``;
    otherwise ``samples`` seeded uniform index draws are scanned, each sorted
    into the tuple order of its signed modes.  Either way the rows go through
    one numpy kernel in blocks of ``BLOCK``.  Divisors add the signed
    frequencies left to right, as ``small_divisor`` does, and are
    bit-identical to it: exact Python integers on integer spectra
    (``min_divisor`` and ``witness_divisor`` are then ``int``), float64
    otherwise.  The witnesses are the first minima in scan order.  A zero
    minimum score is an exact off-set resonance and can never pass, whatever
    the threshold.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if partition is None:
        from .bands import band_partition

        partition = band_partition(table)
    if tau is None:
        tau = float(table.lattice.dim * order + 2)

    ext = extended_indexes(table.lattice)
    count = math.comb(len(ext) + order - 1, order)
    exhaustive = count <= budget
    if exhaustive:
        blocks, n_checked = _exhaustive_blocks(len(ext), order), count
    else:
        blocks, n_checked = _sampled_blocks(ext, order, samples, seed), samples

    omega = _signed_omegas(table, ext)
    floors = [max(1.0, table.norm(p)) for p, _ in ext]
    levels = sorted(set(floors))
    scale = np.asarray([v**tau for v in levels])
    level = np.searchsorted(levels, floors)
    signed_bands = _signed_bands(table, partition, ext)

    min_score = min_div = math.inf
    witness = div_witness = witness_div = None
    for rows in blocks:
        div = omega[rows[:, 0]]
        for col in rows.T[1:]:
            div = div + omega[col]
        div = np.abs(div)
        score = div * scale[level[rows].max(axis=1)]
        # only rows that beat a running minimum can change the result, so
        # only those are tested for resonance
        keep = (div < min_div) | (score < min_score)
        keep[keep] = ~_resonant(signed_bands, rows[keep])
        if not keep.any():
            continue
        rows, div, score = rows[keep], div[keep], score[keep]
        i = int(np.argmin(div))
        if div[i] < min_div:
            min_div, div_witness = div[i], rows[i]
        i = int(np.argmin(score))
        if score[i] < min_score:
            min_score, witness, witness_div = score[i], rows[i], div[i]
    if witness is None:
        raise ValueError("no multiset off the resonant set was scanned")

    if gamma is None:
        gamma = 0.9 * min_score
    return NonresonanceCertificate(
        order=order,
        tau=tau,
        gamma=float(gamma),
        min_score=float(min_score),
        witness=tuple(ext[i] for i in witness),
        witness_divisor=_item(witness_div),
        min_divisor=_item(min_div),
        divisor_witness=tuple(ext[i] for i in div_witness),
        passed=bool(min_score >= gamma and min_score > 0.0),
        exhaustive=exhaustive,
        n_checked=n_checked,
    )


def certificate_to_json(cert: NonresonanceCertificate, path) -> None:
    with open(path, "w") as fh:
        json.dump(cert.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True, eq=False)
class MultiplierEnsemble:
    """Random spectral shifts ``V_a = <a>^(-decay) * Uniform[-1/2, 1/2]``.

    ``<a>`` is the smoothing weight sqrt(1 + |a|^2) of the effective mode.
    """

    base: object
    decay: int

    def weight(self, lattice: Lattice, point: Point) -> float:
        x = lattice.effective(point)
        return math.sqrt(1.0 + sum(v * v for v in x))

    def scale(self, lattice: Lattice, point: Point) -> float:
        return self.weight(lattice, point) ** (-self.decay)

    def sample(self, lattice: Lattice, rng: np.random.Generator) -> SpectralMultiplier:
        potential = {
            p: self.scale(lattice, p) * rng.uniform(-0.5, 0.5)
            for p in lattice.points
        }
        return SpectralMultiplier(base=self.base, potential=potential)


@dataclass(frozen=True)
class MeasureEstimate:
    fraction: float
    bound: float
    stderr: float
    passed: bool
    gamma: float
    n_samples: int


def estimate_resonant_measure(
    ensemble: MultiplierEnsemble,
    lattice: Lattice,
    coeffs: Dict[Point, int],
    gamma: float,
    *,
    n_samples: int = 10_000,
    seed: int = 0,
) -> MeasureEstimate:
    """Monte Carlo fraction of multiplier draws with a near-resonant combination.

    Estimates ``P(|sum_a k_a (lambda_a + V_a)| < gamma)`` and compares it with
    the density bound ``2 gamma K**decay`` (K the largest smoothing weight on
    the support) plus three binomial standard errors.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    supp = sorted(p for p, k in coeffs.items() if k != 0)
    if not supp:
        raise ValueError("coefficient vector is identically zero")
    for p in supp:
        if p not in lattice:
            raise ValueError(f"support point {p} outside the truncation")

    const = sum(
        coeffs[p] * frequency(ensemble.base, p, lattice.offset) for p in supp
    )
    w = np.asarray([coeffs[p] * ensemble.scale(lattice, p) for p in supp])
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-0.5, 0.5, size=(n_samples, len(supp)))
    values = float(const) + draws @ w
    fraction = float(np.mean(np.abs(values) < gamma))

    big = max(ensemble.weight(lattice, p) for p in supp)
    bound = 2.0 * gamma * max(1.0, big) ** ensemble.decay
    stderr = math.sqrt(fraction * (1.0 - fraction) / n_samples)
    return MeasureEstimate(
        fraction=fraction,
        bound=bound,
        stderr=stderr,
        passed=fraction <= bound + 3.0 * stderr,
        gamma=gamma,
        n_samples=n_samples,
    )


@dataclass(frozen=True)
class DivisorScan:
    roots: Tuple[float, ...]
    degenerate: bool


def ground_state_divisor_function(
    x: Sequence[float],
    split: int,
    y_lo: float,
    y_hi: float,
    *,
    grid: int = 1024,
    tol: float = 1e-12,
) -> DivisorScan:
    """Roots of ``sum_{j<split} sqrt(x_j^2 y + x_j) - sum_{j>=split} sqrt(...)``.

    Sign changes are located on a uniform grid and refined by bisection to
    ``tol`` in y.  ``degenerate`` reports the function vanishing across the
    whole interval (perfectly cancelling terms), in which case no isolated
    roots are returned.
    """
    x = [float(v) for v in x]
    if not 0 <= split <= len(x):
        raise ValueError(f"split must lie in [0, {len(x)}], got {split}")
    if y_hi <= y_lo:
        raise ValueError("empty scan interval")
    for v in x:
        if v < 0 or v * v * y_lo + v < 0:
            raise ValueError(f"negative radicand for entry {v} at y={y_lo}")

    def f(y: float) -> float:
        total = 0.0
        for j, v in enumerate(x):
            term = math.sqrt(v * v * y + v)
            total += term if j < split else -term
        return total

    ys = np.linspace(y_lo, y_hi, grid + 1)
    fs = np.asarray([f(y) for y in ys])
    scale = float(np.max(np.abs(fs)))
    if scale <= 1e-14 * (1.0 + sum(abs(v) for v in x)):
        return DivisorScan(roots=(), degenerate=True)

    roots = []
    for i in range(grid):
        a, b = float(ys[i]), float(ys[i + 1])
        fa, fb = float(fs[i]), float(fs[i + 1])
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = f(m)
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    if float(fs[-1]) == 0.0:
        roots.append(float(ys[-1]))

    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 10 * tol:
            merged.append(r)
    return DivisorScan(roots=tuple(merged), degenerate=False)
