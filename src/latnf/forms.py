"""Symmetric polynomial forms on signed mode variables.

A homogeneous form of degree N is a sparse sum of monomials over multisets
of signed indexes: ``F(u) = sum_M c_M prod_{A in M} u_A``.  The associated
symmetric multilinear form divides each monomial by its multinomial
multiplicity.

A form is stored as code rows.  It numbers its distinct points by their
position (rank) in the sorted point list and encodes each signed entry as
``code = 2*rank + (sign < 0)``; ascending codes are then the canonical entry
order (point lex, ``+`` before ``-``).  ``SymmetricForm`` holds
``codes: int32[n, degree]`` (each row ascending, one row per multiset),
``values: complex128[n]`` and the point list.  Every form is built as these
arrays and every operation on forms runs on them.  Forms are immutable once
built.  ``SymmetricForm.coeffs``, a read-only dict ``key -> coefficient`` of
the rows built only when something reads it, is kept for the term counters
of ``perfbench``.

A state is a complex array over a sorted point tuple, both signs of every
point: ``x[2i]`` is the ``+`` and ``x[2i + 1]`` the ``-`` variable of point
``i``, so a form's code indexes the state over its own points.  The vector
field, the Sobolev norm, the remainder probe of ``normalize``,
``normalform.transform_state`` and the normal-form dynamics all run on such
arrays.

``poisson_bracket`` never builds the row of a pair of derivative rows.  Each
code of the bracket's point union gets a prime, the most frequent codes of
the derivative rows the smallest, each derivative row of F and G is keyed
once by the product of its primes, and a pair by the product of its two row
keys: by unique factorisation the key of a pair is that of its output row,
exactly.  The key is one int64 when every row's key and the product of the
largest F and G keys stay below ``2**63`` (checked in exact integers), else
one int64 word per group of codes, compared as bytes.  The pairs
run in blocks of about ``BLOCK``; each block is merged into a sorted running
union of distinct keys, so the bracket holds the output plus one block, and
only the kept keys' rows are built and sorted into row order, at the end.

The localized norm weights each row by ``S^N / mu^(N+nu)`` where ``mu`` is the
third largest floor norm of the row (smallest repeated below degree 3) and
``S = mu + dist`` with ``dist`` the index distance between the two largest
modes.  Rows whose mu vanishes are rejected by default; ``zero_mode="lift"``
substitutes ``1+mu, 1+S`` for those rows only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .bands import BandPartition, band_map
from .clusters import ClusterPartition
from .frequencies import SpectrumTable
from .lattice import ExtIndex, Lattice, Point

DROP_TOL = 1e-14

#: rows (bracket: row pairs) per block in the packed kernels; bounds their
#: temporaries to a few block-sized arrays whatever the form size
BLOCK = 1 << 18

_INT64_MAX = np.iinfo(np.int64).max


def _relabel(codes: np.ndarray, mapping: np.ndarray) -> np.ndarray:
    """Codes with every point rank ``r`` replaced by ``mapping[r]``."""
    return 2 * mapping[codes >> 1] + (codes & 1)


@dataclass(frozen=True, eq=False)
class SymmetricForm:
    """Homogeneous polynomial in the signed mode variables, as code rows.

    ``SymmetricForm(points, codes, values)`` takes ascending code rows over
    the ascending ``points`` and drops the points no row uses.  The module
    docstring gives the encoding; the degree is the row length.
    """

    points: Tuple[Point, ...]
    codes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        used = np.zeros(len(self.points), dtype=bool)
        used[self.codes >> 1] = True
        keep = np.flatnonzero(used)
        if len(keep) < len(self.points):
            mapping = np.zeros(len(self.points), dtype=np.int32)
            mapping[keep] = np.arange(len(keep), dtype=np.int32)
            object.__setattr__(self, "codes", _relabel(self.codes, mapping))
        object.__setattr__(self, "points", tuple(self.points[i] for i in keep.tolist()))

    @property
    def degree(self) -> int:
        return self.codes.shape[1]

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def entries(self) -> Tuple[ExtIndex, ...]:
        """The signed index of every code: ``entries[code]``."""
        return tuple((p, s) for p in self.points for s in (1, -1))

    @cached_property
    def runs(self) -> np.ndarray:
        """Length of each run of equal codes at its first column, 0 elsewhere (``uint8``)."""
        codes = self.codes
        runs = np.ones(codes.shape, dtype=np.uint8)
        for j in range(codes.shape[1] - 2, -1, -1):
            same = codes[:, j] == codes[:, j + 1]
            runs[same, j] += runs[same, j + 1]
        runs[:, 1:] *= codes[:, 1:] != codes[:, :-1]
        return runs

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Multinomial count ``degree! / prod(run length!)`` of the orderings of every row.

        The denominator is the product over columns of each code's position
        in its run (``1, 2, ..., m`` over a run of ``m``), kept in one int64
        vector per row; every value is an exact integer.
        """
        codes = self.codes
        count = np.ones(len(codes), dtype=np.int64)
        denominator = np.ones(len(codes), dtype=np.int64)
        for j in range(1, self.degree):
            same = codes[:, j] == codes[:, j - 1]
            count *= same
            count += 1
            denominator *= count
        return math.factorial(self.degree) // denominator

    @cached_property
    def derivatives(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derivative rows ``(variable, reduced codes, coefficient)``.

        One row per distinct entry of a key, taken at the first column of its
        run, with the coefficient times the run length; sorted stably by the
        variable's code.
        """
        codes, runs = self.codes, self.runs
        var, rows, coef = [], [], []
        for j in range(codes.shape[1]):
            sel = np.flatnonzero(runs[:, j])
            var.append(codes[sel, j])
            rows.append(np.concatenate((codes[sel, :j], codes[sel, j + 1 :]), axis=1))
            coef.append(self.values[sel] * runs[sel, j])
        if not var:
            return np.zeros(0, np.int32), np.zeros((0, 0), np.int32), np.zeros(0, complex)
        var = np.concatenate(var)
        order = np.argsort(var, kind="stable")
        return var[order], np.concatenate(rows)[order], np.concatenate(coef)[order]

    @cached_property
    def coeffs(self) -> Mapping[Tuple[ExtIndex, ...], complex]:
        """Read-only dict ``key -> coefficient`` of the rows, in row order."""
        keys = [()] * len(self)
        if self.degree:
            entries = np.fromiter(self.entries, dtype=object, count=len(self.entries))
            keys = zip(*entries[self.codes.T].tolist())
        return MappingProxyType(dict(zip(keys, self.values.tolist())))

    def relabel(self, codes: np.ndarray, rank: Mapping[Point, int]) -> np.ndarray:
        """Codes of this form renumbered by the point ranks ``rank``."""
        return _relabel(codes, np.array([rank[p] for p in self.points], dtype=np.int32))


def zero_form(degree: int) -> SymmetricForm:
    return SymmetricForm((), np.zeros((0, degree), dtype=np.int32), np.zeros(0, dtype=complex))


def _sum_rows(points: Sequence[Point], codes: np.ndarray, values: np.ndarray, tol: float) -> SymmetricForm:
    """Form of ascending code rows that may repeat; ``|c| <= tol`` is dropped.

    Each distinct row keeps its order of first appearance, and its values
    are summed from 0 in row order, as a dict accumulation does.
    """
    _, first, inverse = np.unique(_row_keys(codes, 2 * len(points)), return_index=True, return_inverse=True)
    order = np.argsort(first)
    slot = np.argsort(order)[inverse.reshape(-1)]
    sums = np.empty(len(order), dtype=complex)
    sums.real = np.bincount(slot, values.real, len(order))
    sums.imag = np.bincount(slot, values.imag, len(order))
    keep = np.abs(sums) > tol
    return SymmetricForm(points, codes[first[order][keep]], sums[keep])


def add_forms(*forms: SymmetricForm, tol: float = DROP_TOL) -> SymmetricForm:
    """Sum of forms of one degree; ``|c| <= tol`` is dropped.

    Rows keep their order of first appearance, and the coefficients of a row
    are summed from 0 left to right (``_sum_rows``).
    """
    degs = {f.degree for f in forms}
    if len(degs) != 1:
        raise ValueError(f"cannot add forms of degrees {sorted(degs)}")
    points = sorted({p for f in forms for p in f.points})
    rank = {p: i for i, p in enumerate(points)}
    codes = np.concatenate([f.relabel(f.codes, rank) for f in forms])
    values = np.concatenate([f.values for f in forms])
    return _sum_rows(points, codes, values, tol)


def scale_form(form: SymmetricForm, factor: complex) -> SymmetricForm:
    if factor == 0:
        return zero_form(form.degree)
    return SymmetricForm(form.points, form.codes, form.values * factor)


def conjugate_form(form: SymmetricForm) -> SymmetricForm:
    """Every sign flipped and every coefficient conjugated, rows in order."""
    return SymmetricForm(form.points, np.sort(form.codes ^ 1, axis=1), form.values.conj())


def monomials(codes: np.ndarray, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``coef[r] prod_k x[codes[r, k]]`` for every row, column by column."""
    out = coef.copy()
    for col in codes.T:
        out *= x[col]
    return out


def leading_points(form: SymmetricForm, table: SpectrumTable) -> Tuple[np.ndarray, np.ndarray]:
    """Floor norm of every point, and the points of every row's first three entries.

    Entries are ordered by floor norm descending, then point, then ``+``
    first.  Relabelling each point by its rank in (-floor, point) order
    makes that a plain row sort.  Points are indexes into ``form.points``.
    """
    points = form.points
    floors = np.array([table.floor(p) for p in points])
    order = sorted(range(len(points)), key=lambda i: (-floors[i], points[i]))
    by_floor = np.empty(len(points), dtype=np.int32)
    by_floor[order] = np.arange(len(points), dtype=np.int32)
    return floors, np.asarray(order, dtype=np.intp)[np.sort(_relabel(form.codes, by_floor), axis=1)[:, :3] >> 1]


def _localization(form: SymmetricForm, table: SpectrumTable, zero_mode: str) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(mu, S)`` under the decreasing-floor entry ordering."""
    degree = form.degree
    if not degree:
        raise ValueError("empty key has no localization")
    points = form.points
    floors, lead = leading_points(form, table)
    mu = floors[lead[:, min(2, degree - 1)]]
    s = mu
    if degree >= 2:
        xy = np.asarray(points, dtype=np.int64).reshape(len(points), -1)
        diff = xy[lead[:, 0]] - xy[lead[:, 1]]
        s = mu + np.sqrt((diff * diff).sum(axis=1))
    zero = mu == 0.0
    if zero.any():
        if zero_mode == "error":
            key = tuple(form.entries[c] for c in form.codes[np.argmax(zero)].tolist())
            raise ValueError(
                f"key {key} has vanishing localization scale; "
                "pass zero_mode='lift' to regularize"
            )
        if zero_mode != "lift":
            raise ValueError(f"unknown zero_mode {zero_mode!r}")
        mu, s = np.where(zero, 1.0 + mu, mu), np.where(zero, 1.0 + s, s)
    return mu, s


def localized_norm(
    form: SymmetricForm,
    table: SpectrumTable,
    *,
    nu: float,
    smoothing: float,
    zero_mode: str = "error",
) -> float:
    """Max over keys of ``(|c|/mult) S^smoothing / mu^(smoothing+nu)``."""
    if form.degree < 1:
        raise ValueError("localized norm needs degree >= 1")
    if not len(form):
        return 0.0
    mu, s = _localization(form, table, zero_mode)
    w = np.abs(form.values) / form.multiplicity * s**smoothing / mu ** (smoothing + nu)
    return float(w.max())


def scaled_norm(
    form: SymmetricForm,
    table: SpectrumTable,
    radius: float,
    *,
    nu: float,
    smoothing: float,
    zero_mode: str = "error",
) -> float:
    return localized_norm(form, table, nu=nu, smoothing=smoothing, zero_mode=zero_mode) * radius**form.degree


def gradient(codes: np.ndarray, coef: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """``dF/du_A`` for every code ``A < size`` at the state ``x`` (one value per code).

    ``F = sum_r coef[r] prod_k x[codes[r, k]]``.  Works column by column on
    blocks of rows: with ``P_j`` the coefficient times the columns before
    ``j`` and ``S_j`` the product of the columns after it, column ``j``
    contributes ``P_j S_j`` to its code, so a run of ``m`` equal codes
    contributes ``m`` times the reduced monomial.  Each column's
    contributions are summed per code in row order by one ``np.add.at``
    into a zeroed accumulator (one per block, zeroed for every column),
    which is then added to the result.  Each code column of a block is read
    as ``intp`` once, for the gathers and the scatter: ``intp`` codes in
    column-major order (``np.asfortranarray``) are used as they are, any
    other column is converted.  ``x`` is gathered at a column once for the
    prefix products and again for the suffix, and each prefix product is
    dropped once used, so a block holds no list of gathered columns.
    """
    out = np.zeros(size, dtype=complex)
    for a in range(0, len(coef), BLOCK):
        index = [col.astype(np.intp, copy=False) for col in codes[a : a + BLOCK].T]
        prefix = [coef[a : a + BLOCK]]
        for i in index[:-1]:
            prefix.append(prefix[-1] * x[i])
        acc = suffix = None
        for j in range(len(index) - 1, -1, -1):
            part = prefix.pop()
            if suffix is not None:
                part = part * suffix
            if acc is None:
                acc = np.zeros(size, part.dtype)
            else:
                acc.fill(0)
            np.add.at(acc, index[j], part)
            out += acc
            if j:
                col = x[index[j]]
                suffix = col if suffix is None else suffix * col
    return out


def hamiltonian_field(codes: np.ndarray, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hamiltonian vector field at the both-signs state ``x``, one value per code.

    ``x[2i]`` is the ``+`` and ``x[2i + 1]`` the ``-`` variable of point
    ``i``; the field of ``F = sum_r coef[r] prod_k x[codes[r, k]]`` is
    ``X[c ^ 1] = -i sigma dF/dx_c`` with ``sigma`` the sign of ``c ^ 1``.
    """
    grad = gradient(codes, coef, x, len(x))
    out = np.empty_like(grad)
    out[0::2] = -1j * grad[1::2]
    out[1::2] = 1j * grad[0::2]
    return out


def vector_field(form: SymmetricForm, x: np.ndarray, points: Sequence[Point]) -> np.ndarray:
    """Hamiltonian vector field at the state ``x`` over ``points``, which hold the form's points."""
    rank = {p: i for i, p in enumerate(points)}
    index = [rank[p] for p in form.points]
    out = np.zeros((len(points), 2), dtype=complex)
    out[index] = hamiltonian_field(form.codes, form.values, x.reshape(-1, 2)[index].ravel()).reshape(-1, 2)
    return out.ravel()


def _row_keys(rows: np.ndarray, radix: int) -> np.ndarray:
    """One key per row that sorts as the rows do lexicographically.

    A mixed-radix int64 while ``radix**degree`` fits, else the row's
    big-endian bytes.
    """
    n, degree = rows.shape
    if radix**degree < 2**63:
        keys = np.zeros(n, dtype=np.int64)
        for col in rows.T:
            keys *= radix
            keys += col
        return keys
    wide = np.ascontiguousarray(rows, dtype=">i4")
    return wide.view(np.dtype((np.void, 4 * degree))).ravel()


def _primes(n: int) -> np.ndarray:
    """The first ``n`` primes."""
    limit = 16
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        if len(primes) >= n:
            return primes[:n].astype(np.int64)
        limit *= 2


def _one_word_keys(rows: np.ndarray, primes: np.ndarray) -> Optional[np.ndarray]:
    """Product of the primes of every row's codes as one int64, or None past ``2**63 - 1``.

    Each factor is checked before it is taken, in exact integers: ``key * p``
    fits exactly when ``key <= (2**63 - 1) // p``.
    """
    keys = np.ones(len(rows), dtype=np.int64)
    for col in rows.T:
        factor = primes[col]
        if np.any(keys > _INT64_MAX // factor):
            return None
        keys *= factor
    return keys


def _prime_keys(frows: np.ndarray, grows: np.ndarray, n_codes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Product-of-primes keys of the F and G derivative rows of a bracket.

    By unique factorisation two rows have equal keys exactly when they hold
    the same codes with the same multiplicities, and the product of the keys
    of two rows is the key of their union.  The keys are one int64 per row
    when the codes most frequent in the rows take the smallest primes and
    every row's key, and ``int(fkeys.max()) * int(gkeys.max())``, stay below
    ``2**63`` in exact integers: then no pair's key overflows.  Otherwise
    codes fall in groups of the ``k`` smallest primes ``q`` with
    ``q**degree < 2**63`` (``degree`` the output row length): code ``c`` has
    the prime ``q_(c % k)`` in the word ``c // k``, a row's word is the
    product of the primes of its codes in that group, a product over at most
    ``degree`` codes never overflows, and the keys are ``(n, words)`` int64
    arrays.
    """
    primes = _primes(n_codes)
    freq = np.bincount(frows.ravel(), minlength=n_codes) + np.bincount(grows.ravel(), minlength=n_codes)
    by_freq = np.empty(n_codes, dtype=np.int64)
    by_freq[np.argsort(-freq, kind="stable")] = primes
    fkeys, gkeys = _one_word_keys(frows, by_freq), _one_word_keys(grows, by_freq)
    if fkeys is not None and gkeys is not None and int(fkeys.max()) * int(gkeys.max()) <= _INT64_MAX:
        return fkeys, gkeys
    degree = frows.shape[1] + grows.shape[1]
    k = sum(int(q) ** degree < 2**63 for q in primes.tolist())
    words = -(-n_codes // k)
    grouped = []
    for rows in (frows, grows):
        keys = np.ones((len(rows), words), dtype=np.int64)
        for col in rows.T:
            keys[np.arange(len(rows)), col // k] *= primes[col % k]
        grouped.append(keys)
    return tuple(grouped)


def _pair_union(
    keys: np.ndarray,
    sums: np.ndarray,
    reps: np.ndarray,
    block_keys: np.ndarray,
    block_sums: np.ndarray,
    block_reps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge a block's distinct sorted keys into the sorted running union.

    A key already in the union adds its block sum to the union's; a new key
    is inserted with its sum and representative.  The union is rebuilt once,
    with one mask shared by its three arrays.
    """
    pos = np.searchsorted(keys, block_keys)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == block_keys[hit]
    sums[pos[hit]] += block_sums[hit]
    new = np.flatnonzero(~hit)
    if not len(new):
        return keys, sums, reps
    at = pos[new] + np.arange(len(new))
    old = np.ones(len(keys) + len(new), dtype=bool)
    old[at] = False
    merged = []
    for union, block in ((keys, block_keys), (sums, block_sums), (reps, block_reps)):
        out = np.empty(len(old), dtype=union.dtype)
        out[old] = union
        out[at] = block[new]
        merged.append(out)
    return tuple(merged)


def _block_sums(
    fkeys: np.ndarray,
    gkeys: np.ndarray,
    fcoef: np.ndarray,
    gcoef: np.ndarray,
    fi: np.ndarray,
    gi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct keys of a block of pairs ``(fi, gi)``, sorted, their sums, one pair each.

    Each key's coefficients are summed from 0 in pair order (``bincount``).
    A pair is returned as ``fi * len(gkeys) + gi``.  The per-pair arrays are
    freed on return, so a bracket holds one block's at a time.
    """
    keys = fkeys[fi] * gkeys[gi]
    if keys.ndim > 1:
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    rank = np.cumsum(first)
    rank -= 1
    slot = np.empty_like(order)
    slot[order] = rank
    del rank
    head = order[first]
    del order
    keys = keys[first]
    coef = fcoef[fi]
    # the gathered G factor in fixed sub-blocks, as one block-sized temporary
    # sets the heap layout of a bracket's peak; a power-of-two length keeps
    # each element in the SIMD body or tail of one whole-block multiply
    for a in range(0, len(coef), 1 << 15):
        coef[a : a + (1 << 15)] *= gcoef[gi[a : a + (1 << 15)]]
    sums = np.empty(len(head), dtype=complex)
    sums.real = np.bincount(slot, coef.real, len(head))
    sums.imag = np.bincount(slot, coef.imag, len(head))
    return keys, sums, fi[head] * len(gkeys) + gi[head]


def poisson_bracket(f: SymmetricForm, g: SymmetricForm, tol: float = DROP_TOL) -> SymmetricForm:
    """Canonical bracket ``-i sum_b (d+F d-G - d-F d+G)`` as a form.

    Every derivative row of F meets the derivative rows of G whose variable
    is its conjugate (``code ^ 1``).  A pair's output row is the multiset
    union of its two rows, and its key is the product of their prime keys
    (``_prime_keys``): exact by unique factorisation, one int64 when the
    largest F and G keys multiply below ``2**63`` and one word per group of
    codes beyond that.
    No pair's row is built.  The pairs are expanded in blocks of about
    ``BLOCK`` (whole runs of one F row each); a block is deduplicated by one
    sort of its keys and summed per key in pair order by ``bincount``, then
    merged into the sorted running union (``_pair_union``), where a known
    key adds its block sum and a new one is inserted with one representative
    pair.  So each coefficient is ``0 + block 1 + block 2 + ...``, and the
    bracket holds the union (one key, sum and pair per output key) plus one
    block's per-pair arrays.  Coefficients with ``|c| <= tol`` are dropped;
    the rows of the kept representatives are built and sorted into
    canonical row order once, at the end.
    """
    degree = f.degree + g.degree - 2
    if degree < 0:
        raise ValueError("bracket of two linear forms has negative degree")
    points = sorted(set(f.points) | set(g.points))
    rank = {p: i for i, p in enumerate(points)}
    fvar, frows, fcoef = f.derivatives
    gvar, grows, gcoef = g.derivatives
    fvar, frows = f.relabel(fvar, rank), f.relabel(frows, rank)
    gvar, grows = g.relabel(gvar, rank), g.relabel(grows, rank)

    lo = np.searchsorted(gvar, fvar ^ 1, side="left")
    count = np.searchsorted(gvar, fvar ^ 1, side="right") - lo
    live = np.flatnonzero(count)
    if not len(live):
        return zero_form(degree)
    lo, count, frows = lo[live], count[live], frows[live]
    fcoef = np.where(fvar[live] & 1, 1j, -1j) * fcoef[live]
    radix = 2 * len(points)
    fkeys, gkeys = _prime_keys(frows, grows, radix)
    ends = np.cumsum(count)
    union = None
    start = 0
    while start < len(live):
        budget = ends[start] - count[start] + BLOCK
        stop = max(start + 1, int(np.searchsorted(ends, budget, side="right")))
        cnt = count[start:stop]
        fi = np.repeat(np.arange(start, stop), cnt)
        gi = np.arange(len(fi))
        gi -= np.repeat(np.cumsum(cnt) - cnt, cnt)
        gi += lo[fi]
        block = _block_sums(fkeys, gkeys, fcoef, gcoef, fi, gi)
        del fi, gi
        union = block if union is None else _pair_union(*union, *block)
        del block
        start = stop
    sums, reps = union[1:]
    del union
    keep = np.abs(sums) > tol
    sums = sums[keep]
    fi, gi = np.divmod(reps[keep], len(grows))
    del reps, keep
    rows = np.concatenate((frows[fi], grows[gi]), axis=1)
    del fi, gi
    rows.sort(axis=1)
    order = np.argsort(_row_keys(rows, radix))
    return SymmetricForm(points, rows[order], sums[order])


def _actions(points: Sequence[Point], values: Sequence[complex]) -> SymmetricForm:
    """``sum_k values[k] u_{p_k,+} u_{p_k,-}``, one row per point in the given order."""
    ordered = sorted(points)
    rank = {p: i for i, p in enumerate(ordered)}
    plus = 2 * np.array([rank[p] for p in points], dtype=np.int32).reshape(-1, 1)
    return SymmetricForm(ordered, np.hstack((plus, plus + 1)), np.array(values, dtype=complex))


def quadratic_hamiltonian(table: SpectrumTable) -> SymmetricForm:
    """``sum_a omega_a u_{a,+} u_{a,-}`` over the truncation."""
    points = table.lattice.points
    return _actions(points, [complex(table.omega(p)) for p in points])


def superaction_form(points: Sequence[Point]) -> SymmetricForm:
    if not points:
        raise ValueError("superaction over an empty mode set")
    return _actions(points, [1.0] * len(points))


def band_superactions(table: SpectrumTable, partition: BandPartition) -> List[SymmetricForm]:
    """One superaction per band, in band order (initial segment first)."""
    bm = band_map(table, partition)
    groups: Dict[int, List[Point]] = {}
    for p, b in bm.items():
        groups.setdefault(b, []).append(p)
    return [superaction_form(groups[b]) for b in sorted(groups)]


def block_superactions(clusters: ClusterPartition) -> List[SymmetricForm]:
    return [superaction_form(block) for block in clusters.blocks]


def nls_quartic(lattice: Lattice, coupling: float = 1.0) -> SymmetricForm:
    """Momentum-conserving quartic ``(coupling/2) sum_{a+c=b+e} u_a u_b^- u_c u_e^-``.

    One row ``(a+, b-, c+, e-)`` worth ``coupling/2`` per point triple
    ``(a, c, b)`` in lexicographic index order with ``e = a + c - b`` on the
    lattice.  A site's flat index in a box that holds every ``a + c - b`` is
    affine in the point, so ``e`` is ``grid[site[a] + site[c] - site[b]]``.
    """
    pts = np.asarray(lattice.points, dtype=np.int64).reshape(lattice.npoints, lattice.dim)
    span = np.ptp(pts, axis=0)
    site = np.ravel_multi_index(tuple((pts + span - pts.min(axis=0)).T), 3 * span + 1)
    grid = np.full(np.prod(3 * span + 1), -1, dtype=np.int32)
    grid[site] = np.arange(len(pts))
    blocks = []
    for a in range(len(pts)):
        e = grid[site[a] + site[:, None] - site]
        c, b = np.nonzero(e >= 0)
        blocks.append(np.stack((np.full(len(c), 2 * a), 2 * b + 1, 2 * c, 2 * e[c, b] + 1), axis=1))
    codes = np.concatenate(blocks).astype(np.int32)
    codes.sort(axis=1)
    return _sum_rows(lattice.points, codes, np.full(len(codes), 0.5 * coupling, dtype=complex), 0.0)


def random_form(
    lattice: Lattice,
    degree: int,
    n_terms: int,
    seed: int = 0,
    real: bool = True,
) -> SymmetricForm:
    """Sparse random form; ``real=True`` symmetrizes to real values on pairs."""
    rng = np.random.default_rng(seed)
    codes = np.empty((n_terms, degree), dtype=np.int32)
    values = np.empty(n_terms, dtype=complex)
    for i in range(n_terms):
        # indexes into ``extended_indexes``, which is in code order
        codes[i] = rng.integers(0, 2 * lattice.npoints, size=degree)
        values[i] = complex(rng.standard_normal(), rng.standard_normal())
    codes.sort(axis=1)
    f = _sum_rows(lattice.points, codes, values, 0.0)
    if real:
        f = add_forms(scale_form(f, 0.5), scale_form(conjugate_form(f), 0.5), tol=0.0)
    return f


def sobolev_norm(x: np.ndarray, points: Sequence[Point], lattice: Lattice, s: float) -> float:
    """Weighted l2 norm of the state ``x`` over ``points``, both signs counted.

    The weight of point ``a`` is ``(1+|a|)^(2s)``.  The terms are summed in
    state order, one after the other: a pairwise sum would move the last bits.
    """
    weights = [(1.0 + math.sqrt(sum(c * c for c in lattice.effective(p)))) ** (2.0 * s) for p in points]
    total = 0.0
    for term in (np.repeat(weights, 2) * (x.real * x.real + x.imag * x.imag)).tolist():
        total += term
    return math.sqrt(total)


@dataclass(frozen=True, eq=False)
class PolyHamiltonian:
    """Sum of homogeneous forms, indexed by degree."""

    parts: Dict[int, SymmetricForm]

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted(d for d, f in self.parts.items() if len(f)))

    @property
    def lowest_degree(self) -> Optional[int]:
        degs = self.degrees
        return degs[0] if degs else None

    def part(self, degree: int) -> SymmetricForm:
        return self.parts.get(degree, zero_form(degree))

    def n_terms(self) -> int:
        return sum(len(f) for f in self.parts.values())


def poly_from_forms(forms: Iterable[SymmetricForm]) -> PolyHamiltonian:
    acc: Dict[int, List[SymmetricForm]] = {}
    for f in forms:
        acc.setdefault(f.degree, []).append(f)
    parts = {d: fs[0] if len(fs) == 1 else add_forms(*fs) for d, fs in acc.items()}
    return PolyHamiltonian(parts={d: f for d, f in parts.items() if len(f)})


def _encode_key(key: Iterable[ExtIndex]) -> list:
    return [[list(p), s] for p, s in key]


def form_to_jsonl(form: SymmetricForm, path) -> None:
    """One JSON object per key, in canonical key order.

    That is the order of sorted key tuples: entry by entry, point, then
    ``-`` before ``+``; ``code ^ 1`` sorts entries so.
    """
    order = np.argsort(_row_keys(form.codes ^ 1, 2 * len(form.points)))
    entries = form.entries
    with open(path, "w") as fh:
        header = {"kind": "form", "degree": form.degree, "n_terms": len(form)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for codes, c in zip(form.codes[order].tolist(), form.values[order].tolist()):
            row = {"key": _encode_key(entries[e] for e in codes), "re": c.real, "im": c.imag}
            fh.write(json.dumps(row, sort_keys=True) + "\n")
