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

The scan covers every multiset.  It is one numpy kernel over blocks of at
most ``BLOCK`` rows of indexes into ``extended_indexes``, each row a head
followed by a tail, in ``combinations_with_replacement`` order: each
non-decreasing head of ``order // 2`` indexes is followed by the tails,
non-decreasing rows of the remaining length, that start at the head's last
index.  A head's partial divisor and the largest floor level of each head
and tail are computed once per table (below); a block adds each row's tail
columns to its head's partial sum, and a head whose tails outrun a block is
split across blocks.  Divisors add the signed frequencies column by column, left
to right, as ``small_divisor`` does, so each is bit-identical to it: float64
on float spectra, exact Python integers otherwise.  Only the rows of a block
that beat a running minimum are built as full index rows and tested for
resonance: a row is resonant when its sorted signed band labels ``sigma *
(band + 1)`` equal their reversed negation.  The witnesses are the first
minima in scan order.

The scan skips every row that cannot beat the running minima.  A row of head
``h`` and tail ``t`` beats them only if its divisor ``d`` has ``d < min_div``
or ``d * scale[l] < min_score``, where ``l``, the largest floor level of the
row, is at least the head's level ``head_lvl[h]``.  With ``smin[i]`` the
least scale of any level ``>= i`` (so the bound holds for any sign of tau),
``d * smin[head_lvl[h]] <= d * scale[l]``, and therefore

    d = |H_h + T_t| < max(min_div, min_score / smin[head_lvl[h]]),

``H_h`` and ``T_t`` being the head's and the tail's partial divisors.  A
float comparison cannot flip this: rounding is monotone and the minima are
floats, so ``fl(d * s) < min_score`` implies ``d * s < min_score``.  The
minima only fall as the scan goes on, so a window taken from them as the
scan reaches a head holds for all of that head's rows.  A row left out is
no candidate: its divisor and score are no less than minima that rows before
it reached, and the witnesses are first minima, so no certificate field
changes.  The tail partial sums are sorted once per table, and each head's
window is a ``searchsorted`` range of them, widened by a margin that covers
the float rounding of the partial sums, of the divisors and of the window
itself, and the float conversion of exact or mixed spectra.  A head whose
``smin`` underflowed to 0 (a very negative tau) skips nothing.
``n_checked`` still counts every multiset of the scan.

The scan seeds its windows before the first of them is searched.
Each head takes the owned tails next to ``-H_h`` in the sorted tail sums (at
most ``SEED_TAILS``); the divisors and scores of these seed rows are computed
as the scan computes them, and the resonant ones are dropped.  With
``seed_div`` and ``seed_score`` the least seed divisor and score, each
raised to the next float, a head's window is cut at

    max(min(min_div, seed_div), min(min_score, seed_score) / smin[head_lvl[h]]).

The running minima and the witnesses still come only from the rows the
window pass meets in scan order; the seed narrows windows and sets nothing.
The seed rows are rows of the scan, off the resonant set, so the least
divisor ``D`` and score ``S`` of the whole scan are at most the least seed
values, and so ``D < seed_div`` and ``S < seed_score``.  A row skipped under
this cut has ``d >= min(min_div, seed_div)``: its divisor is no less than a
running minimum that an earlier row reached, or it is above ``D``.  In the
same way its score is no less than ``min_score`` or above ``S``.  So it is
no first minimum of either kind, and no field changes.  A row whose divisor
or score ties the least seed value is not skipped: the next float up keeps
it strictly inside its window.  That matters when such a row comes before
the seed row in scan order, since the tie is then the first minimum and the
witness.

A scan is limited by a budget of the rows it builds or evaluates: the head
table, the tail table when it is a separate one (odd orders), and the seed
and window rows.  The tables are counted before they are built and each
block before it is evaluated; a scan that would go over the budget raises
``CertificateError`` and gives no certificate.

Every order of one table and band partition reads one scan state, built on
first use and freed when the table or the partition is collected: the
signed modes and frequencies, the floor levels and the signed bands, and for
each row length ``k`` that a scan has used the non-decreasing ``k``-row
table with its partial divisors, largest floor levels, float partial sums
and their stable order.  Orders 3 to 6 build the tables of ``k`` = 1, 2 and
3 once each.  The budget still charges the head and tail tables on every
scan, built or reused, so no certificate and no refusal depends on what was
certified before.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

from .bands import BandPartition, band_map
from .frequencies import SpectralMultiplier, SpectrumTable
from .lattice import ExtIndex, Lattice, Point, _per_object, extended_indexes

#: rows per block of the certification scan.  A block's temporaries are a few
#: block-sized arrays whatever the multiset count: the scan splits a head
#: whose tails outrun a block across blocks.
BLOCK = 2048

#: owned tails per head that seed the scan's windows
SEED_TAILS = 4


class CertificateError(ValueError):
    """A nonresonance certificate is missing, failed, over its scan budget, or
    does not cover a divisor."""


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
    n_checked: int
    #: every certificate covers every multiset of its order
    exhaustive: ClassVar[bool] = True

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
        rows = np.column_stack([rows.take(parent, axis=0), column])
    return rows


def _first_owned(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Per head, the first tail that starts at the head's last index."""
    last = heads[:, -1] if heads.shape[1] else np.zeros(1, dtype=np.intp)
    return np.searchsorted(tails[:, 0], np.arange(n))[last]


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of finite floats, in about half the time.

    An unstable sort groups equal values (``-0.0`` and ``0.0`` among them);
    sorting the unique keys ``rank * 2**bits + index``, with ``rank`` the
    rank of the value among the distinct ones and ``2**bits > index``, puts
    each group in index order.
    """
    by = np.argsort(values)
    ordered = values[by]
    rank = np.zeros(len(values), dtype=np.int64)
    np.cumsum(ordered[1:] != ordered[:-1], out=rank[1:])
    bits = max(1, (len(values) - 1).bit_length())
    return np.sort((rank << bits) | by) & ((1 << bits) - 1)


def _window_blocks(start, head_sum, head_order, tail_sum, tail_order, width, seed):
    """Blocks ``(h, t)`` of the scan rows that fall inside a window, in scan order.

    Head ``h`` owns the rows ``(h, t)`` with ``t >= start[h]``.  A row is
    visited when ``-width[h] < head_sum[h] + tail_sum[t] < width[h]``, with
    ``width(a, b)`` the half-widths of heads ``a:b``, asked for as the scan
    reaches head ``a`` (an infinite width visits every row).  ``head_order``
    and ``tail_order`` are the stable orders of the sums, and each head's
    window is a ``searchsorted`` range of the sorted tail sums.  ``seed`` is
    called before any width is asked for, with blocks ``(h, t)`` of at most
    ``SEED_TAILS`` owned rows per head: the tails next to ``-head_sum[h]`` in
    that sorted order.

    A chunk is the heads, from the one the scan has reached, whose windows
    hold at most ``BLOCK`` owned rows together, or one head.  The windows
    of a lookahead of twice the heads the last chunk took (at most
    ``BLOCK``, all of them at first) are searched, and the tails of the
    first windows that hold at most ``4 * BLOCK`` of them together (or of
    one head) are gathered and cut to the chunk; the chunk's rows are
    yielded in blocks of at most ``BLOCK``.  So the first chunk holds no
    more rows than a block or one head, and the next chunk's widths are
    asked for only after its rows have been scanned.
    """
    sums = tail_sum[tail_order]
    n_heads, n_tails = len(start), len(sums)
    # one search of every head's centre, its keys in sorted order
    by_key = head_order[::-1]
    at = np.empty(n_heads, dtype=np.intp)
    at[by_key] = np.searchsorted(sums, -head_sum[by_key])
    near = np.arange(-(SEED_TAILS // 2), SEED_TAILS - SEED_TAILS // 2)
    for a in range(0, n_heads, BLOCK):
        b = min(n_heads, a + BLOCK)
        h = np.repeat(np.arange(a, b), len(near))
        t = tail_order.take((at[a:b, None] + near).ravel(), mode="clip")
        keep = t >= start[h]
        seed(h[keep], t[keep])
    a, look = 0, BLOCK
    while a < n_heads:
        b = min(n_heads, a + look)
        w = width(a, b)
        # searching keys in sorted order runs faster
        by_key = np.argsort(-head_sum[a:b])
        lo, hi = np.empty((2, b - a), dtype=np.intp)
        lo[by_key] = np.searchsorted(sums, (-head_sum[a:b] - w)[by_key], side="right")
        hi[by_key] = np.searchsorted(sums, (w - head_sum[a:b])[by_key], side="left")
        size = np.maximum(hi - lo, 0)
        ends = np.cumsum(size)
        n = max(1, int(np.searchsorted(ends, 4 * BLOCK, side="right")))
        size, lo, ends = size[:n], lo[:n], ends[:n]
        h = np.repeat(np.arange(a, a + n), size)
        t = tail_order[np.arange(len(h)) + np.repeat(lo - ends + size, size)]
        keep = t >= start[h]
        h, t = h[keep], t[keep]
        owned = np.cumsum(np.bincount(h - a, minlength=n))
        n = max(1, int(np.searchsorted(owned, BLOCK, side="right")))
        h, t = h[: owned[n - 1]], t[: owned[n - 1]]
        rank = np.argsort(h * n_tails + t)
        h, t = h[rank], t[rank]
        for i in range(0, len(h), BLOCK):
            yield h[i : i + BLOCK], t[i : i + BLOCK]
        a, look = a + n, min(BLOCK, 2 * n)


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


class _Rows:
    """The non-decreasing ``k``-rows over the signed modes, in lexicographic
    order, and what a scan reads of them.

    ``rows`` holds the indexes in the narrowest unsigned dtype; ``div`` the
    partial divisors, the signed frequencies of the columns added left to
    right (``None`` when ``k`` is 0); ``level`` the largest floor level of
    each row (0 when ``k`` is 0); ``fsum`` the partial divisors as floats and
    ``by_sum`` their stable order.
    """

    def __init__(self, state: "_ScanState", k: int):
        n = len(state.ext)
        rows = _nondecreasing_rows(n, k)
        self.div = None
        self.level = np.zeros(len(rows), dtype=state.level.dtype)
        for index in rows.T:
            col = state.omega[index]
            self.div = col if self.div is None else self.div + col
            self.level = np.maximum(self.level, state.level[index])
        self.fsum = np.zeros(len(rows)) if self.div is None else self.div.astype(np.float64)
        self.by_sum = _stable_order(self.fsum)
        self.rows = rows.astype(np.min_scalar_type(n - 1))


class _ScanState:
    """What every certificate of one table and band partition reads.

    ``ext`` are the signed modes, ``omega`` their signed frequencies,
    ``levels`` the distinct floors ``max(1, |a|)`` in increasing order,
    ``level`` the index into ``levels`` of each signed mode, and
    ``signed_bands`` their ``_signed_bands``.  ``rows(k)`` builds the
    ``_Rows`` of length ``k`` on first use and keeps it.
    """

    def __init__(self, table: SpectrumTable, partition: BandPartition):
        self.ext = extended_indexes(table.lattice)
        self.omega = _signed_omegas(table, self.ext)
        floors = [max(1.0, table.norm(p)) for p, _ in self.ext]
        self.levels = sorted(set(floors))
        # the narrowest dtype that holds every level index keeps the level
        # tables of the rows, and their per-block gathers, small
        self.level = np.searchsorted(self.levels, floors).astype(
            np.min_scalar_type(len(self.levels))
        )
        self.signed_bands = _signed_bands(table, partition, self.ext)
        self._rows: Dict[int, _Rows] = {}

    def rows(self, k: int) -> _Rows:
        if k not in self._rows:
            self._rows[k] = _Rows(self, k)
        return self._rows[k]


#: the scan state of a table and partition, freed with either of them
_scan_state = _per_object(_ScanState)


def certify_nonresonance(
    table: SpectrumTable,
    order: int,
    *,
    partition: BandPartition,
    gamma: Optional[float] = None,
    tau: Optional[float] = None,
    budget: int = 4_000_000,
) -> NonresonanceCertificate:
    """Scan every order-``order`` multiset off the resonant set for small divisors.

    ``tau`` defaults to ``dim * order + 2``; ``gamma`` defaults to 0.9 times
    the measured minimum (certifying exactly what was observed), and an
    explicit ``gamma`` must be positive.  ``tau`` must be finite, and
    ``max(1, |a|)**tau`` must not overflow.  The scan visits the multisets in
    ``combinations_with_replacement`` order over ``extended_indexes``, with
    one numpy kernel over blocks of at most ``BLOCK`` rows: a row is its
    first ``order // 2`` indexes, the head, and the rest, the tail, and each
    head's partial divisor is computed once.  Divisors add the signed
    frequencies left to right, as ``small_divisor`` does, and are
    bit-identical to it: exact Python integers on integer spectra
    (``min_divisor`` and ``witness_divisor`` are then ``int``), float64
    otherwise.

    Only rows that can beat the running minima are evaluated: each head
    visits the tails whose partial divisors fall in a window, seeded before
    the scan from rows near it.  The head and tail tables, their partial
    divisors, largest floor levels and the stable order of their float
    partial sums are kept in a scan state of ``table`` and ``partition``,
    built on first use and shared by every order, and freed when the table
    or the partition is collected.  The module docstring gives the bound and
    the argument that a skipped row changes no field, so the certificate is
    the one a scan of every row gives; ``n_checked`` counts every multiset.
    Full index rows are built only for
    the rows that beat a running minimum, which are then tested for
    resonance.  The witnesses are the first minima in scan order.  A zero
    minimum score is an exact off-set resonance and can never pass,
    whatever the threshold.

    ``budget`` (at least 0) is the most rows the scan may build or
    evaluate: the head table, the tail table at odd orders, and the seed and
    window rows.  The tables count whether they are built or reused, so the
    outcome does not depend on earlier scans.  A scan that would go over the
    budget raises ``CertificateError``, before it builds its tables when they
    alone go over it.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if gamma is not None and not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if tau is None:
        tau = float(table.lattice.dim * order + 2)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")

    state = _scan_state(table, partition)
    ext, omega, levels = state.ext, state.omega, state.levels
    try:
        scale = np.asarray([v**tau for v in levels])
    except OverflowError:
        raise ValueError(
            f"tau={tau} overflows max(1, |a|)**tau at |a| = {levels[-1]:g}"
        ) from None

    # the rows built or evaluated so far, the head and tail tables first
    used = 0

    def spend(rows):
        nonlocal used
        used += rows
        if used > budget:
            raise CertificateError(
                f"the order-{order} scan needs more than its budget of {budget} "
                "rows built or evaluated"
            )

    half = order // 2
    spend(math.comb(len(ext) + half - 1, half))
    if order % 2:
        spend(math.comb(len(ext) + order - half - 1, order - half))
    heads, tails = state.rows(half), state.rows(order - half)
    start = _first_owned(len(ext), heads.rows, tails.rows)
    # smin[i] is the least scale of any level >= i, so it bounds the scale of
    # a row from the level of its head whatever the sign of tau
    smin = np.minimum.accumulate(scale[::-1])[::-1].tolist()
    # H_h, T_t and a row's divisor are float sums of at most ``order`` terms
    # no larger than ``reach / order`` (or float conversions of exact sums),
    # each within ``(order - 1) * eps * reach`` of its exact value; with the
    # rounding of the bound and of the window ends, a margin of ``slack *
    # (reach + bound)`` holds every candidate row inside its head's window
    reach = order * float(np.abs(omega.astype(np.float64)).max())
    slack = 8 * order * np.finfo(np.float64).eps

    min_score = min_div = math.inf
    witness = div_witness = witness_div = None
    # the least divisor and score of the seed rows, each raised to the next
    # float so that rows tying them stay inside the windows
    seed_div = seed_score = math.inf

    def evaluate(h, t):
        # divisors and scores of rows (h, t), added as small_divisor adds them
        spend(len(h))
        columns = iter(tails.rows[t].T)
        div = omega[next(columns)] if heads.div is None else heads.div[h]
        for col in columns:
            div = div + omega[col]
        div = np.abs(div)
        return div, div * scale[np.maximum(heads.level[h], tails.level[t])]

    def seed_windows(h, t):
        nonlocal seed_div, seed_score
        div, score = evaluate(h, t)
        off = ~_resonant(state.signed_bands, np.hstack([heads.rows[h], tails.rows[t]]))
        if off.any():
            seed_div = min(seed_div, np.nextafter(float(div[off].min()), math.inf))
            seed_score = min(seed_score, np.nextafter(float(score[off].min()), math.inf))

    def width(a, b):
        # a candidate row of head h has |divisor| < max(min_div, min_score /
        # smin[head_lvl[h]]), and a row that can be a first minimum has
        # |divisor| < max(seed_div, seed_score / smin[head_lvl[h]]); a scale
        # that underflowed to 0 prunes nothing
        div_cap = min(float(min_div), seed_div)
        score_cap = min(min_score, seed_score)
        bound = np.asarray(
            [max(div_cap, score_cap / s) if s > 0 else math.inf for s in smin]
        )
        return (bound + slack * (reach + bound))[heads.level[a:b]]

    blocks = _window_blocks(
        start, heads.fsum, heads.by_sum, tails.fsum, tails.by_sum, width, seed_windows
    )
    for h, t in blocks:
        div, score = evaluate(h, t)
        # only rows that beat a running minimum can change the result, so
        # only those are built and tested for resonance
        cand = np.flatnonzero((div < min_div) | (score < min_score))
        if not len(cand):
            continue
        rows = np.hstack([heads.rows[h[cand]], tails.rows[t[cand]]])
        off = ~_resonant(state.signed_bands, rows)
        if not off.any():
            continue
        rows, div, score = rows[off], div[cand[off]], score[cand[off]]
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
        n_checked=math.comb(len(ext) + order - 1, order),
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
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    supp = sorted(p for p, k in coeffs.items() if k != 0)
    if not supp:
        raise ValueError("coefficient vector is identically zero")
    for p in supp:
        if p not in lattice:
            raise ValueError(f"support point {p} outside the truncation")

    base = ensemble.base.omega(np.asarray(supp), lattice.offset)
    const = sum(coeffs[p] * om for p, om in zip(supp, base))
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
    )
