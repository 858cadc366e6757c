"""Symmetric polynomial forms on signed mode variables.

A homogeneous form of degree N is a sparse sum of monomials over multisets
of signed indexes: ``F(u) = sum_M c_M prod_{A in M} u_A``.  The associated
symmetric multilinear form divides each monomial by its multinomial
multiplicity.

A form is stored as code rows over the lattice of its run.  Code ``c`` is
the signed index ``extended_indexes(lattice)[c]``: ``c = 2*i + (sign < 0)``
for the point ``lattice.points[i]``, so ascending codes are the canonical
entry order (point lex, ``+`` before ``-``).  ``SymmetricForm`` holds
``codes: int32[n, degree]`` (each row ascending, one row per multiset),
``values: complex128[n]`` and the lattice's point tuple.  Every form is
built as these arrays and every operation on forms runs on them.  Forms
are immutable once built.  ``SymmetricForm.coeffs``, a read-only dict ``key
-> coefficient`` of the rows built only when something reads it, is kept
for the term counters of ``perfbench``.

A state is a complex array over ``lattice.points``, both signs of every
point: ``x[2i]`` is the ``+`` and ``x[2i + 1]`` the ``-`` variable of point
``i``, so a form's code indexes the state.  The per-point values a form
meets (floor, norm, signed frequency and band, block) are arrays in the
same order, built once per table or partition and indexed by ``codes >>
1``.  The vector field, the Sobolev norm, the remainder probe of
``normalize``, ``normalform.transform_state`` and the normal-form dynamics
all run on such arrays.

``poisson_brackets`` brackets several forms F of one degree with one G in
one pass, and ``poisson_bracket`` is its one-form case.  Every form it
brackets is real: the conjugate row ``r_bar`` of a row r (every code ``^
1``, i.e. every sign flipped) carries the conjugate coefficient, ``c(r_bar)
= conj c(r)``, so the form takes real values on states with ``u_- =
conj u_+``.  For real F and G the pair terms of ``{F, G}`` come in
conjugate twins: a pair whose F variable is a minus code is the twin, every
code flipped and its term conjugated, of a pair whose F variable is a plus
code.  So the bracket expands only the plus variables' pairs, into T, and
gives ``{F, G}(r) = T(r) + conj T(r_bar)``: half the pairs, blocks and
scatters of the full expansion, and an output that is exactly real.

The plus-variable derivative rows of the Fs are united, each F keeping one
coefficient row (zero where it lacks a row).  No pair of derivative rows
has its row built.  Each code gets a prime, a code and its conjugate
adjacent ones and the most frequent codes of the derivative rows the
smallest; each derivative row of the union and of G is keyed once by the
product of its primes, and a pair by the product of its two row keys: by
unique factorisation the key of a pair is that of its output row,
exactly.  The rows ``^ 1`` are keyed by the same primes, so a pair's
mirror key, the key of its row's ``r_bar``, is the product of the mirror
keys of its two rows.  The key is one int64 when every row's key, and the
products of the largest union and G keys and of their largest mirror
keys, stay below ``2**63`` (checked in exact integers), else one int64
word per group of codes in frequency order, compared as bytes.  The pairs
run in blocks of about ``BLOCK``; each block's keys are sorted once, its
new keys are inserted into a sorted running union of distinct keys, and
each F's pair terms are added into their keys' sums, so every T is its
pair terms summed from 0 in pair order, whatever the block size.  Then
each key's mirror key is searched in the union and the conjugate sum
added; a key whose mirror is absent gives the mirror, a key of its own,
its conjugate value.  The pass holds the outputs plus one block, and only
the kept keys' rows are built (a mirror's row is its key's row ``^ 1``)
and sorted into row order, once, at the end.

Reality is checked exactly, once per input form of every bracket: a row
whose conjugate row is missing, or carries another value than the
conjugate, raises ``ValueError``.  ``nls_quartic``,
``quadratic_hamiltonian``, ``random_form``, the sums of real forms, every
bracket output and every generator of ``normalform.solve_homological``
(whose divisor is exactly odd under conjugation) are exactly real.

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

from .frequencies import SpectrumTable, point_floors
from .lattice import ExtIndex, Lattice, Point, _per_object, integer_array

#: sums and brackets drop coefficients of at most this modulus.  It can stay
#: absolute: no ``r = 1`` normal part depends on it (each is the homological
#: Z), and on the radius-8 ``nls_t1.ini`` system it decides only the 157
#: rounding residues of the degree-8 ledger entry (604298 terms, 604455 at 0)
DROP_TOL = 1e-14

#: rows (bracket: row pairs) per block in the packed kernels; bounds their
#: temporaries to a few block-sized arrays whatever the form size.  Only the
#: per-block column sums of ``gradient`` depend on it, on forms of more than
#: ``BLOCK`` rows; every other result has the same bits at any block size
BLOCK = 1 << 18

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class SymmetricForm:
    """Homogeneous polynomial in the signed mode variables, as code rows.

    ``SymmetricForm(points, codes, values)`` takes ascending code rows over
    the lattice's ``points``, kept as given: code ``c`` is
    ``extended_indexes(lattice)[c]``.  A form with no rows may hold ``()``.
    The module docstring gives the encoding; the degree is the row length.
    """

    points: Tuple[Point, ...]
    codes: np.ndarray
    values: np.ndarray

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


def zero_form(degree: int) -> SymmetricForm:
    return SymmetricForm((), np.zeros((0, degree), dtype=np.int32), np.zeros(0, dtype=complex))


def _shared_points(forms: Iterable[SymmetricForm]) -> Tuple[Point, ...]:
    """The point tuple of the forms with rows (``()`` when none has one); ``ValueError`` when two differ."""
    held = [f.points for f in forms if len(f)]
    if any(p is not held[0] and p != held[0] for p in held[1:]):
        raise ValueError("forms over different point tuples")
    return held[0] if held else ()


def check_points(form: SymmetricForm, lattice: Lattice) -> None:
    """``ValueError`` unless the form has no rows or holds ``lattice.points``."""
    if len(form) and form.points is not lattice.points and form.points != lattice.points:
        raise ValueError("form over other points than the lattice's")


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
    codes = np.concatenate([f.codes for f in forms])
    values = np.concatenate([f.values for f in forms])
    return _sum_rows(_shared_points(forms), codes, values, tol)


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


@_per_object
def _floor_order(table: SpectrumTable) -> Tuple[np.ndarray, np.ndarray]:
    """Rank of every lattice point in (-floor, point) order, and the points in that order."""
    floors, points = point_floors(table), table.lattice.points
    order = sorted(range(len(points)), key=lambda i: (-floors[i], points[i]))
    rank = np.empty(len(points), dtype=np.int32)
    rank[order] = np.arange(len(points), dtype=np.int32)
    return rank, np.asarray(order, dtype=np.intp)


def leading_points(form: SymmetricForm, table: SpectrumTable) -> Tuple[np.ndarray, np.ndarray]:
    """Floor norm of every lattice point, and the points of every row's first three entries.

    Entries are ordered by floor norm descending, then point, then ``+``
    first.  Each code's point taken by its rank in (-floor, point) order
    (``_floor_order``) makes that a plain row sort, done on ``BLOCK`` rows
    at a time so that its temporaries stay a few blocks whatever the form
    size.  Points index ``table.lattice.points``.
    """
    check_points(form, table.lattice)
    rank, order = _floor_order(table)
    codes = form.codes
    lead = np.empty((len(codes), min(3, form.degree)), dtype=codes.dtype)
    for a in range(0, len(codes), BLOCK):
        block = codes[a : a + BLOCK]
        lead[a : a + BLOCK] = np.sort(2 * rank[block >> 1] + (block & 1), axis=1)[:, :3]
    return point_floors(table), order[lead >> 1]


def _localization(form: SymmetricForm, table: SpectrumTable, zero_mode: str) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(mu, S)`` under the decreasing-floor entry ordering."""
    degree = form.degree
    if not degree:
        raise ValueError("empty key has no localization")
    floors, lead = leading_points(form, table)
    mu = floors[lead[:, min(2, degree - 1)]]
    s = mu
    if degree >= 2:
        xy = integer_array(table.lattice)
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


def vector_field(form: SymmetricForm, x: np.ndarray) -> np.ndarray:
    """Hamiltonian vector field of the form at the both-signs state ``x``, one value per code.

    ``x[2i]`` is the ``+`` and ``x[2i + 1]`` the ``-`` variable of the point
    ``lattice.points[i]``; the field is ``X[c ^ 1] = -i sigma dF/dx_c`` with
    ``sigma`` the sign of ``c ^ 1``.
    """
    grad = gradient(form.codes, form.values, x, len(x))
    out = np.empty_like(grad)
    out[0::2] = -1j * grad[1::2]
    out[1::2] = 1j * grad[0::2]
    return out


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


def _prime_keys(frows: np.ndarray, grows: np.ndarray, n_codes: int) -> Tuple[np.ndarray, ...]:
    """Product-of-primes keys of the F and G derivative rows of a bracket, and of their mirrors.

    By unique factorisation two rows have equal keys exactly when they hold
    the same codes with the same multiplicities, and the product of the keys
    of two rows is the key of their union.  Returns ``(fkeys, gkeys, fbar,
    gbar)``: the keys of ``frows``, ``grows``, ``frows ^ 1`` and ``grows ^
    1`` under one prime map, the last two without building the flipped
    rows.  The keys are one int64 per row when the codes most frequent in
    the rows (a code and its conjugate counted together) take the smallest
    primes and every row's key, ``int(fkeys.max()) * int(gkeys.max())`` and
    ``int(fbar.max()) * int(gbar.max())`` stay below ``2**63`` in exact
    integers: then no pair's key or mirror key overflows.  Otherwise codes
    fall in groups of the ``k`` smallest primes ``q`` with ``q**degree <
    2**63`` (``degree`` the output row length): the code of frequency rank
    ``r`` has the prime ``q_(r % k)`` in the word ``r // k``, a row's word
    is the product of the primes of its codes in that group, a product over
    at most ``degree`` codes never overflows, and the keys are ``(n,
    words)`` int64 arrays.  Codes no row holds rank last and add no word.
    """
    flip = np.arange(n_codes) ^ 1
    primes = _primes(n_codes)
    freq = np.bincount(frows.ravel(), minlength=n_codes) + np.bincount(grows.ravel(), minlength=n_codes)
    freq += freq[flip]
    rank = np.empty(n_codes, dtype=np.int64)
    rank[np.argsort(-freq, kind="stable")] = np.arange(n_codes)
    by_freq = primes[rank]
    narrow = [_one_word_keys(rows, table) for table in (by_freq, by_freq[flip]) for rows in (frows, grows)]
    if all(k is not None for k in narrow) and all(
        int(f.max()) * int(g.max()) <= _INT64_MAX for f, g in (narrow[:2], narrow[2:])
    ):
        return tuple(narrow)
    degree = frows.shape[1] + grows.shape[1]
    used = int(np.count_nonzero(freq))
    k = sum(int(q) ** degree < 2**63 for q in primes[:used].tolist())
    words = -(-used // k)
    grouped = []
    for table in (rank, rank[flip]):
        for rows in (frows, grows):
            keys = np.ones((len(rows), words), dtype=np.int64)
            for col in table[rows.T]:
                keys[np.arange(len(rows)), col // k] *= primes[col % k]
            grouped.append(keys)
    return tuple(grouped)


def _items(a: np.ndarray) -> np.ndarray:
    """The rows of the C-contiguous ``a``, along its first axis, as one opaque item each.

    A gather or scatter of items copies each row whole, several times faster
    than the same index on a complex or a two-dimensional array.
    """
    return a.view(np.dtype((np.void, a.strides[0]))).reshape(len(a))


def _add_pairs(
    union: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    fkeys: np.ndarray,
    gkeys: np.ndarray,
    fcoef: np.ndarray,
    gcoef: np.ndarray,
    fi: np.ndarray,
    gi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add the block of pairs ``(fi, gi)`` into the sorted running union ``(keys, sums, reps)``.

    The block's keys are sorted once.  Its keys new to the union are
    inserted with zeroed sums (one column per form, so the sums of a key
    are adjacent) and one representative pair ``fi * len(gkeys) + gi``; the
    union is rebuilt once, with one mask shared by its three arrays.  Then
    each form's coefficients are gathered, multiplied and added straight
    into its column of the sums in pair order (``np.add.at``), one form at a
    time, so a bracket holds one block's per-pair arrays at a time.
    """
    keys = fkeys[fi] * gkeys[gi]
    if keys.ndim > 1:
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    head = order[first]
    keys = keys[first]
    del order, first
    if union is None:
        union = keys[:0], np.zeros((0, len(fcoef)), dtype=complex), head[:0]
    pos = np.searchsorted(union[0], keys)
    new = pos == len(union[0])
    new[~new] = union[0][pos[~new]] != keys[~new]
    # each block key's position in the union once the new keys are in
    where = pos + np.cumsum(new) - new
    slot = where[slot]
    if new.any():
        at, head = where[new], head[new]
        block = keys[new], np.zeros((len(at), len(fcoef)), dtype=complex), fi[head] * len(gkeys) + gi[head]
        del keys, head, pos, where
        old = np.ones(len(union[0]) + len(at), dtype=bool)
        old[at] = False
        merged = []
        for whole, part in zip(union, block):
            grown = np.empty(old.shape + whole.shape[1:], dtype=whole.dtype)
            items = _items(grown)
            items[old] = _items(whole)
            items[at] = _items(part)
            merged.append(grown)
        union = tuple(merged)
    for column, out in zip(fcoef, union[1].T):
        coef = column[fi]
        # the gathered G factor in fixed sub-blocks, as one block-sized temporary
        # sets the heap layout of a bracket's peak.  F times G out of place:
        # ``*`` may swap a temporary G into the output's place, and an in-place
        # multiply of one element rounds otherwise; either moves the last bit
        for a in range(0, len(coef), 1 << 15):
            coef[a : a + (1 << 15)] = np.multiply(coef[a : a + (1 << 15)], gcoef[gi[a : a + (1 << 15)]])
        np.add.at(out, slot, coef)
        del coef
    return union


def _joint_derivatives(fs: Sequence[SymmetricForm], n_codes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union of the forms' plus-variable derivative rows, one coefficient row per form.

    One form's rows are its ``derivatives`` whose variable is a plus code,
    in their order.  Several forms' rows are deduplicated and sorted by
    variable, then by the column of the variable's run in the row it came
    from, then by the reduced row: the order of each form's own rows when
    its rows are ascending, so such a form's pairs are summed per key in
    the order of its one-form bracket.  A form lacking a union row has
    coefficient 0 there.
    """
    var, rows, coefs = [], [], []
    for f in fs:
        fvar, frows, fcoef = f.derivatives
        plus = fvar & 1 == 0
        var.append(fvar[plus])
        rows.append(frows[plus])
        coefs.append(fcoef[plus])
    if len(fs) == 1:
        return var[0], rows[0], coefs[0][None]
    var, rows = np.concatenate(var), np.concatenate(rows)
    column = (rows < var[:, None]).sum(axis=1)
    radix = max(n_codes, rows.shape[1] + 1)
    _, first, slot = np.unique(
        _row_keys(np.column_stack((var, column, rows)), radix), return_index=True, return_inverse=True
    )
    slot = slot.reshape(-1)
    coef = np.zeros((len(fs), len(first)), dtype=complex)
    start = 0
    for out, c in zip(coef, coefs):
        out[slot[start : start + len(c)]] = c
        start += len(c)
    return var[first], rows[first], coef


def _find(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of every query in the ascending distinct ``keys``, or -1 where it is absent.

    The queries are searched in ascending order, several times faster than
    in their own order.
    """
    order = np.argsort(queries)
    queries = queries[order]
    pos = np.searchsorted(keys, queries)
    pos[pos == len(keys)] = 0
    pos[keys[pos] != queries] = -1
    del queries
    out = np.empty_like(pos)
    out[order] = pos
    return out


def _mirror(keys: np.ndarray, sums: np.ndarray, reps: np.ndarray, fbar: np.ndarray, gbar: np.ndarray, n_g: int) -> np.ndarray:
    """Turn the sums T of the running union into ``T(r) + conj T(r_bar)``, in place; return the lone keys.

    Each key's mirror key, ``fbar[fi] * gbar[gi]`` of its representative
    pair ``fi * n_g + gi``, is searched in the union (``_find``); where it is
    absent, ``T(r_bar)`` reads 0 and the key is lone: its mirror is no key
    of the union, and the bracket gives that mirror the conjugate of the
    key's value.  One column of sums at a time, so the union is mirrored
    with one column-sized temporary.
    """
    fi, gi = np.divmod(reps, n_g)
    mirror = fbar[fi]
    mirror *= gbar[gi]
    del fi, gi
    if mirror.ndim > 1:
        mirror = mirror.view(np.dtype((np.void, mirror.itemsize * mirror.shape[1]))).ravel()
    at = _find(keys, mirror)
    del mirror
    lone = np.flatnonzero(at < 0)
    for j in range(sums.shape[1]):
        twin = sums[at, j]
        twin[lone] = 0.0
        sums[:, j] += np.conjugate(twin, out=twin)
    return lone


def _check_real(form: SymmetricForm) -> None:
    """Raise ``ValueError`` unless ``c(r_bar) == conj c(r)`` for every row r.

    ``r_bar`` is r with every code ``^ 1``, sorted; it is looked up among the
    rows by one sort and one search, and an absent one counts coefficient 0.
    """
    if not len(form):
        return
    radix = 2 * len(form.points)
    keys = _row_keys(form.codes, radix)
    order = np.argsort(keys)
    at = _find(keys[order], _row_keys(np.sort(form.codes ^ 1, axis=1), radix))
    twin = np.where(at >= 0, form.values[order[at]], 0.0)
    gap = float(np.abs(twin - form.values.conj()).max())
    if gap:
        raise ValueError(
            f"bracket of a form that is not real: a row and its conjugate row differ by "
            f"{gap:.3e} against a largest coefficient of {np.abs(form.values).max():.3e}"
        )


def poisson_brackets(fs: Sequence[SymmetricForm], g: SymmetricForm, tol: float = DROP_TOL) -> List[SymmetricForm]:
    """Canonical brackets ``-i sum_b (d+F d-G - d-F d+G)`` of every real F in ``fs`` with one real G.

    The forms of ``fs`` share a degree, and every form must be exactly real
    (``_check_real``), else ``ValueError``.  Their plus-variable
    derivative rows are united (``_joint_derivatives``), each form keeping
    one coefficient row, and every union row meets the derivative rows of G
    whose variable is its conjugate (``code ^ 1``): the half expansion T of
    the module docstring.  A pair's output row is the multiset union of its
    two rows, and its key is the product of their prime keys
    (``_prime_keys``): exact by unique factorisation, one int64 when the
    largest keys and mirror keys multiply below ``2**63`` and one word per
    group of codes beyond that.
    No pair's row is built.  The pairs are expanded in blocks of about
    ``BLOCK`` (whole runs of one union row each) and added into the sorted
    running union (``_add_pairs``): one key, one representative pair and a
    sum per form for each key of T, each sum its pair terms summed from 0
    in pair order.  Then the union is mirrored by keys (``_mirror``): each
    key r takes ``T(r) + conj T(r_bar)``, T read as 0 where the mirror key
    is no key of the union, and such a lone key's mirror becomes a key of
    its own, worth the conjugate of that value.  So the coefficients do not
    depend on the block size, every output is exactly real, and the
    brackets hold the union plus one block's per-pair arrays.  A form's
    coefficients with ``|c| <= tol`` are dropped; the rows of the keys kept
    by any form are built once, at the end (a mirror's row is its key's
    representative row ``^ 1``), and sorted into canonical row order, and
    each form takes its own.
    """
    degrees = {f.degree for f in fs}
    if len(degrees) != 1:
        raise ValueError(f"cannot bracket forms of degrees {sorted(degrees)} in one pass")
    degree = degrees.pop() + g.degree - 2
    if degree < 0:
        raise ValueError("bracket of two linear forms has negative degree")
    points = _shared_points((*fs, g))
    for form in (*fs, g):
        _check_real(form)
    radix = 2 * len(points)
    fvar, frows, fcoef = _joint_derivatives(fs, radix)
    gvar, grows, gcoef = g.derivatives

    lo = np.searchsorted(gvar, fvar ^ 1, side="left")
    count = np.searchsorted(gvar, fvar ^ 1, side="right") - lo
    live = np.flatnonzero(count)
    if not len(live):
        return [SymmetricForm(points, np.zeros((0, degree), dtype=np.int32), np.zeros(0, dtype=complex))] * len(fs)
    lo, count, frows = lo[live], count[live], frows[live]
    fcoef = -1j * fcoef[:, live]
    fkeys, gkeys, fbar, gbar = _prime_keys(frows, grows, radix)
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
        union = _add_pairs(union, fkeys, gkeys, fcoef, gcoef, fi, gi)
        del fi, gi
        start = stop
    keys, sums, reps = union
    del union, fkeys, gkeys, fcoef, lo, count, ends
    lone = _mirror(keys, sums, reps, fbar, gbar, len(grows))
    del keys, fbar, gbar
    keep = np.abs(sums) > tol
    kept = keep.any(axis=1)
    # the kept keys, then the mirrors of the kept lone keys
    lone = lone[kept[lone]]
    index = np.concatenate((np.flatnonzero(kept), lone))
    flip = np.arange(len(index)) >= len(index) - len(lone)
    values = np.empty((len(index), sums.shape[1]), dtype=complex)
    np.compress(kept, sums, axis=0, out=values[: len(index) - len(lone)])
    np.conjugate(sums[lone], out=values[len(index) - len(lone) :])
    keep = keep[index]
    del sums, kept, lone
    fi, gi = np.divmod(reps[index], len(grows))
    del reps, index
    rows = np.concatenate((frows[fi], grows[gi]), axis=1)
    del fi, gi, frows
    rows ^= flip[:, None].astype(rows.dtype)
    rows.sort(axis=1)
    order = np.argsort(_row_keys(rows, radix))
    out = []
    for column, mask in zip(values.T, keep.T):
        at = order[mask[order]]
        out.append(SymmetricForm(points, rows[at], column[at]))
    return out


def poisson_bracket(f: SymmetricForm, g: SymmetricForm, tol: float = DROP_TOL) -> SymmetricForm:
    """Canonical bracket ``-i sum_b (d+F d-G - d-F d+G)`` as a form: ``poisson_brackets([f], g, tol)``."""
    return poisson_brackets([f], g, tol)[0]


def quadratic_hamiltonian(table: SpectrumTable) -> SymmetricForm:
    """``sum_a omega_a u_{a,+} u_{a,-}`` over the truncation, one row per point in lattice order."""
    points = table.lattice.points
    codes = np.arange(2 * len(points), dtype=np.int32).reshape(-1, 2)
    return SymmetricForm(points, codes, np.array([complex(table.omega(p)) for p in points]))


def nls_quartic(lattice: Lattice, coupling: float = 1.0) -> SymmetricForm:
    """Momentum-conserving quartic ``(coupling/2) sum_{a+c=b+e} u_a u_b^- u_c u_e^-``.

    One row ``(a+, b-, c+, e-)`` worth ``coupling/2`` per point triple
    ``(a, c, b)`` in lexicographic index order with ``e = a + c - b`` on the
    lattice.  A site's flat index in a box that holds every ``a + c - b`` is
    affine in the point, so ``e`` is ``grid[site[a] + site[c] - site[b]]``.
    """
    pts = integer_array(lattice)
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
) -> SymmetricForm:
    """Sparse random form, symmetrized to real values on pairs."""
    rng = np.random.default_rng(seed)
    codes = np.empty((n_terms, degree), dtype=np.int32)
    values = np.empty(n_terms, dtype=complex)
    for i in range(n_terms):
        # indexes into ``extended_indexes``, which is in code order
        codes[i] = rng.integers(0, 2 * lattice.npoints, size=degree)
        values[i] = complex(rng.standard_normal(), rng.standard_normal())
    codes.sort(axis=1)
    f = _sum_rows(lattice.points, codes, values, 0.0)
    return add_forms(scale_form(f, 0.5), scale_form(conjugate_form(f), 0.5), tol=0.0)


def checked_weights(weights: np.ndarray, s: float) -> np.ndarray:
    """``weights`` if every one is positive and finite, else ``ValueError`` naming ``s``."""
    if not np.all((weights > 0.0) & (weights < math.inf)):
        raise ValueError(f"Sobolev weights (1+|a|)^(2s) are not all positive and finite at s={s}")
    return weights


def sobolev_weights(lattice: Lattice, s: float) -> np.ndarray:
    """``(1+|a|)^(2s)`` of every point of the lattice, in ``points`` order (``checked_weights``)."""
    try:
        weights = [(1.0 + math.sqrt(sum(c * c for c in lattice.effective(p)))) ** (2.0 * s) for p in lattice.points]
    except OverflowError:
        weights = [math.inf]
    return checked_weights(np.array(weights), s)


def sobolev_norm(x: np.ndarray, lattice: Lattice, s: float) -> float:
    """Weighted l2 norm of the state ``x`` over ``lattice.points``, both signs counted.

    The weights are ``sobolev_weights``.  The terms are summed in state
    order, one after the other: a pairwise sum would move the last bits.
    """
    total = 0.0
    for term in (np.repeat(sobolev_weights(lattice, s), 2) * (x.real * x.real + x.imag * x.imag)).tolist():
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
