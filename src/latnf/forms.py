"""Symmetric polynomial forms on signed mode variables.

A homogeneous form of degree N is a sparse sum over canonical multiset keys
(entries sorted by point, + before -) of monomial coefficients:
``F(u) = sum_M c_M prod_{A in M} u_A``.  The associated symmetric multilinear
form divides each monomial by its multinomial multiplicity.

A form is stored as one packed view (``SymmetricForm.packed``).  The view
numbers the form's distinct points by their position (rank) in the sorted
point list and encodes each signed entry as ``code = 2*rank + (sign < 0)``;
ascending codes are then the canonical key order (point lex, ``+`` before
``-``).  It holds ``codes: int32[n, degree]`` (each row ascending, one row
per key), ``values: complex128[n]`` and the point list.  Every operation on
forms runs on these arrays.  ``SymmetricForm(degree, coeffs)`` and
``make_form`` pack a dict of keys; ``SymmetricForm.coeffs`` is a read-only
dict of the rows, in row order, built only when something reads it (the
JSONL writer, the estimates and the tests).  Forms are immutable once built.

The localized norm weights each key by ``S^N / mu^(N+nu)`` where ``mu`` is the
third largest floor norm of the key (smallest repeated below degree 3) and
``S = mu + dist`` with ``dist`` the index distance between the two largest
modes.  Keys whose mu vanishes are rejected by default; ``zero_mode="lift"``
substitutes ``1+mu, 1+S`` for those keys only.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .bands import BandPartition, band_map
from .clusters import ClusterPartition
from .frequencies import SpectrumTable
from .lattice import (
    ExtIndex,
    Lattice,
    Point,
    conjugate,
    conjugate_key,
    extended_indexes,
)

Key = Tuple[ExtIndex, ...]

DROP_TOL = 1e-14

State = Dict[ExtIndex, complex]

#: rows (bracket: row pairs) per block in the packed kernels; bounds their
#: temporaries to a few block-sized arrays whatever the form size
BLOCK = 1 << 18


def canonical_key(entries: Iterable[ExtIndex]) -> Key:
    return tuple(sorted(entries, key=lambda e: (e[0], -e[1])))


def key_multiplicity(key: Key) -> int:
    """Multinomial count of orderings of the multiset."""
    mult = math.factorial(len(key))
    for m in Counter(key).values():
        mult //= math.factorial(m)
    return mult


def _relabel(codes: np.ndarray, mapping: np.ndarray) -> np.ndarray:
    """Codes with every point rank ``r`` replaced by ``mapping[r]``."""
    return 2 * mapping[codes >> 1] + (codes & 1)


@dataclass(frozen=True, eq=False)
class PackedForm:
    """Array view of a form; the module docstring gives the encoding."""

    points: Tuple[Point, ...]
    codes: np.ndarray
    values: np.ndarray

    @cached_property
    def entries(self) -> Tuple[ExtIndex, ...]:
        """The signed index of every code: ``entries[code]``."""
        return tuple((p, s) for p in self.points for s in (1, -1))

    @cached_property
    def runs(self) -> np.ndarray:
        """Length of each run of equal codes at its first column, 0 elsewhere."""
        codes = self.codes
        runs = np.ones(codes.shape, dtype=np.int64)
        for j in range(codes.shape[1] - 2, -1, -1):
            same = codes[:, j] == codes[:, j + 1]
            runs[same, j] += runs[same, j + 1]
        runs[:, 1:] *= codes[:, 1:] != codes[:, :-1]
        return runs

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """``key_multiplicity`` of every row, from its run lengths."""
        degree = self.codes.shape[1]
        fact = np.array([math.factorial(k) for k in range(degree + 1)], dtype=np.int64)
        return fact[degree] // np.prod(fact[self.runs], axis=1)

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

    def relabel(self, codes: np.ndarray, rank: Mapping[Point, int]) -> np.ndarray:
        """Codes of this view renumbered by the point ranks ``rank``."""
        return _relabel(codes, np.array([rank[p] for p in self.points], dtype=np.int32))

    def gather(self, values: State) -> np.ndarray:
        """State value at every code, 0 where the state has no entry."""
        return np.array([values.get(e, 0j) for e in self.entries], dtype=complex)


def _pack(coeffs: Mapping[Key, complex], degree: int) -> PackedForm:
    points = tuple(sorted({p for key in coeffs for p, _ in key}))
    rank = {p: i for i, p in enumerate(points)}
    flat = [2 * rank[p] + (s < 0) for key in coeffs for p, s in key]
    codes = np.array(flat, dtype=np.int32).reshape(len(coeffs), degree)
    codes.sort(axis=1)
    values = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
    return PackedForm(points, codes, values)


class SymmetricForm:
    """Homogeneous polynomial in the signed mode variables, stored packed.

    ``SymmetricForm(degree, coeffs)`` packs a dict of keys, rows in dict
    order; ``SymmetricForm(degree, packed=view)`` wraps a view.
    """

    def __init__(self, degree: int, coeffs: Optional[Mapping[Key, complex]] = None, *, packed: Optional[PackedForm] = None):
        self.degree = degree
        self.packed = _pack(coeffs or {}, degree) if packed is None else packed

    def __len__(self) -> int:
        return len(self.packed.values)

    @cached_property
    def coeffs(self) -> Mapping[Key, complex]:
        """Read-only dict ``key -> coefficient`` of the rows, in row order."""
        view = self.packed
        keys = [()] * len(self)
        if self.degree:
            entries = np.fromiter(view.entries, dtype=object, count=len(view.entries))
            keys = zip(*entries[view.codes.T].tolist())
        return MappingProxyType(dict(zip(keys, view.values.tolist())))


def from_packed(degree: int, points: Sequence[Point], codes: np.ndarray, values: np.ndarray) -> SymmetricForm:
    """Form of ascending code rows over ``points``; unused points are dropped."""
    used = np.unique(codes >> 1)
    if len(used) < len(points):
        mapping = np.zeros(len(points), dtype=np.int32)
        mapping[used] = np.arange(len(used), dtype=np.int32)
        codes = _relabel(codes, mapping)
        points = [points[i] for i in used.tolist()]
    return SymmetricForm(degree, packed=PackedForm(tuple(points), codes, values))


def make_form(terms: Mapping[Key, complex] | Iterable[Tuple[Key, complex]], degree: Optional[int] = None, tol: float = DROP_TOL) -> SymmetricForm:
    """Canonicalize keys, merge duplicates, drop coefficients below ``tol``."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    acc: Dict[Key, complex] = {}
    for key, c in items:
        k = canonical_key(key)
        acc[k] = acc.get(k, 0j) + complex(c)
    acc = {k: c for k, c in acc.items() if abs(c) > tol}
    degrees = {len(k) for k in acc}
    if len(degrees) > 1:
        raise ValueError(f"mixed key lengths {sorted(degrees)} in one form")
    if degree is None:
        if not degrees:
            raise ValueError("empty form needs an explicit degree")
        degree = degrees.pop()
    elif degrees and degrees != {degree}:
        raise ValueError(f"keys of length {degrees.pop()} in a degree-{degree} form")
    for key in acc:
        for point, sign in key:
            if sign not in (-1, 1):
                raise ValueError(f"sign must be +1 or -1, got {sign}")
    return SymmetricForm(degree=degree, coeffs=acc)


def zero_form(degree: int) -> SymmetricForm:
    return SymmetricForm(degree=degree, coeffs={})


def add_forms(*forms: SymmetricForm, tol: float = DROP_TOL) -> SymmetricForm:
    """Sum of forms of one degree; ``|c| <= tol`` is dropped.

    Keys keep their order of first appearance, and the coefficients of a key
    are summed from 0 left to right, as a dict accumulation does.
    """
    degs = {f.degree for f in forms}
    if len(degs) != 1:
        raise ValueError(f"cannot add forms of degrees {sorted(degs)}")
    points = sorted({p for f in forms for p in f.packed.points})
    rank = {p: i for i, p in enumerate(points)}
    codes = np.concatenate([f.packed.relabel(f.packed.codes, rank) for f in forms])
    values = np.concatenate([f.packed.values for f in forms])
    _, first, inverse = np.unique(_row_keys(codes, 2 * len(points)), return_index=True, return_inverse=True)
    order = np.argsort(first)
    slot = np.argsort(order)[inverse.reshape(-1)]
    sums = np.empty(len(order), dtype=complex)
    sums.real = np.bincount(slot, values.real, len(order))
    sums.imag = np.bincount(slot, values.imag, len(order))
    keep = np.abs(sums) > tol
    return from_packed(degs.pop(), points, codes[first[order][keep]], sums[keep])


def scale_form(form: SymmetricForm, factor: complex) -> SymmetricForm:
    if factor == 0:
        return zero_form(form.degree)
    view = form.packed
    return SymmetricForm(form.degree, packed=PackedForm(view.points, view.codes, view.values * factor))


def conjugate_form(form: SymmetricForm) -> SymmetricForm:
    """Every sign flipped and every coefficient conjugated, rows in order."""
    view = form.packed
    codes = np.sort(view.codes ^ 1, axis=1)
    return SymmetricForm(form.degree, packed=PackedForm(view.points, codes, view.values.conj()))


def is_real_coefficients(form: SymmetricForm, tol: float = 1e-12) -> bool:
    """Whether the form takes real values on conjugation-paired states."""
    for k, c in form.coeffs.items():
        kc = canonical_key(conjugate_key(k))
        if abs(form.coeffs.get(kc, 0j) - c.conjugate()) > tol * (1.0 + abs(c)):
            return False
    return True


def monomials(codes: np.ndarray, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``coef[r] prod_k x[codes[r, k]]`` for every row, column by column."""
    out = coef.copy()
    for col in codes.T:
        out *= x[col]
    return out


def evaluate(form: SymmetricForm, values: State) -> complex:
    view = form.packed
    return complex(monomials(view.codes, view.values, view.gather(values)).sum())


def polarized_evaluate(form: SymmetricForm, states: Sequence[State]) -> complex:
    """Symmetric multilinear extension evaluated on one state per slot."""
    n = form.degree
    if len(states) != n:
        raise ValueError(f"need {n} states, got {len(states)}")
    total = 0j
    fact = math.factorial(n)
    for key, c in form.coeffs.items():
        acc = 0j
        for perm in permutations(range(n)):
            prod = complex(1.0)
            for slot, entry in zip(perm, key):
                v = states[slot].get(entry)
                if v is None or v == 0:
                    prod = 0j
                    break
                prod *= v
            acc += prod
        total += c * acc / fact
    return total


def _localization(view: PackedForm, table: SpectrumTable, zero_mode: str) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(mu, S)`` under the decreasing-floor entry ordering.

    Entries are ordered as ``resonance.ordering_permutation`` does: floor
    norm descending, then point, then ``+`` first.  Relabelling each point by
    its rank in (-floor, point) order makes that a plain row sort.
    """
    degree = view.codes.shape[1]
    if not degree:
        raise ValueError("empty key has no localization")
    points = view.points
    floors = np.array([table.floor(p) for p in points])
    order = sorted(range(len(points)), key=lambda i: (-floors[i], points[i]))
    by_floor = np.empty(len(points), dtype=np.int32)
    by_floor[order] = np.arange(len(points), dtype=np.int32)
    lead = np.asarray(order, dtype=np.intp)[np.sort(_relabel(view.codes, by_floor), axis=1)[:, :3] >> 1]
    mu = floors[lead[:, min(2, degree - 1)]]
    s = mu
    if degree >= 2:
        xy = np.asarray(points, dtype=np.int64).reshape(len(points), -1)
        diff = xy[lead[:, 0]] - xy[lead[:, 1]]
        s = mu + np.sqrt((diff * diff).sum(axis=1))
    zero = mu == 0.0
    if zero.any():
        if zero_mode == "error":
            key = tuple(view.entries[c] for c in view.codes[np.argmax(zero)].tolist())
            raise ValueError(
                f"key {key} has vanishing localization scale; "
                "pass zero_mode='lift' to regularize"
            )
        if zero_mode != "lift":
            raise ValueError(f"unknown zero_mode {zero_mode!r}")
        mu, s = np.where(zero, 1.0 + mu, mu), np.where(zero, 1.0 + s, s)
    return mu, s


def mu_S(table: SpectrumTable, key: Key, zero_mode: str = "error") -> Tuple[float, float]:
    """Localization pair (mu, S) of a key under the decreasing-floor ordering."""
    mu, s = _localization(_pack({key: 0j}, len(key)), table, zero_mode)
    return float(mu[0]), float(s[0])


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
    view = form.packed
    if not len(view.values):
        return 0.0
    mu, s = _localization(view, table, zero_mode)
    w = np.abs(view.values) / view.multiplicity * s**smoothing / mu ** (smoothing + nu)
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
    contributes ``m`` times the reduced monomial.
    """
    re, im = np.zeros(size), np.zeros(size)
    for a in range(0, len(coef), BLOCK):
        block = codes[a : a + BLOCK]
        cols = [x[col] for col in block.T]
        prefix = [coef[a : a + BLOCK]]
        for col in cols[:-1]:
            prefix.append(prefix[-1] * col)
        suffix = None
        for j in range(len(cols) - 1, -1, -1):
            part = prefix[j] if suffix is None else prefix[j] * suffix
            re += np.bincount(block[:, j], part.real, size)
            im += np.bincount(block[:, j], part.imag, size)
            suffix = cols[j] if suffix is None else suffix * cols[j]
    out = np.empty(size, dtype=complex)
    out.real, out.imag = re, im
    return out


def vector_field(form: SymmetricForm, values: State) -> State:
    """Hamiltonian vector field of the form at a state.

    Component at index B is ``-i sigma_B dF/du_{conj(B)}``.
    """
    view = form.packed
    grad = gradient(view.codes, view.values, view.gather(values), len(view.entries))
    nz = np.flatnonzero(grad)
    field = np.where(nz & 1, -1j, 1j) * grad[nz]
    entries = view.entries
    return {entries[c ^ 1]: v for c, v in zip(nz.tolist(), field.tolist())}


def polarized_vector_field(form: SymmetricForm, states: Sequence[State]) -> State:
    """Multilinear extension of the vector field on degree-1 many states."""
    r = form.degree - 1
    if len(states) != r:
        raise ValueError(f"need {r} states, got {len(states)}")
    fact = math.factorial(r)
    out: State = {}
    for key, c in form.coeffs.items():
        for entry, m in Counter(key).items():
            reduced = list(key)
            reduced.remove(entry)
            acc = 0j
            for perm in permutations(range(r)):
                prod = complex(1.0)
                for slot, e in zip(perm, reduced):
                    v = states[slot].get(e)
                    if v is None or v == 0:
                        prod = 0j
                        break
                    prod *= v
                acc += prod
            if acc != 0:
                target = conjugate(entry)
                out[target] = out.get(target, 0j) + 1j * entry[1] * c * m * acc / fact
    return out


def vector_field_seminorm(
    form: SymmetricForm,
    table: SpectrumTable,
    *,
    nu: float,
    smoothing: float,
    zero_mode: str = "error",
) -> float:
    """Localized seminorm of the vector field, weighted by the full keys."""
    view = form.packed
    if not len(view.values):
        return 0.0
    mu, s = _localization(view, table, zero_mode)
    weight = s**smoothing / mu ** (smoothing + nu)
    row, col = np.nonzero(view.runs)
    m = view.runs[row, col]
    reduced_mult = view.multiplicity[row] * m // form.degree
    w = np.abs(view.values)[row] * m / reduced_mult * weight[row]
    return float(w.max())


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


def _key_rows(keys: np.ndarray, radix: int, degree: int) -> np.ndarray:
    """Inverse of ``_row_keys``."""
    if keys.dtype.kind == "V":
        return np.frombuffer(keys.tobytes(), dtype=">i4").reshape(-1, degree).astype(np.int32)
    rows = np.empty((len(keys), degree), dtype=np.int32)
    for j in range(degree - 1, -1, -1):
        keys, rows[:, j] = np.divmod(keys, radix)
    return rows


def _merge(keys: np.ndarray, coef: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct keys, ascending, with the coefficients of equal keys summed."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.empty(len(uniq), dtype=complex)
    sums.real = np.bincount(inverse, coef.real, len(uniq))
    sums.imag = np.bincount(inverse, coef.imag, len(uniq))
    return uniq, sums


def poisson_bracket(f: SymmetricForm, g: SymmetricForm, tol: float = DROP_TOL) -> SymmetricForm:
    """Canonical bracket ``-i sum_b (d+F d-G - d-F d+G)`` as a form.

    Every derivative row of F meets the derivative rows of G whose variable
    is its conjugate (``code ^ 1``).  The pairs are expanded in blocks of
    about ``BLOCK``; each block is merged by key, then the blocks are merged
    the same way.  Coefficients with ``|c| <= tol`` are dropped.
    """
    degree = f.degree + g.degree - 2
    if degree < 0:
        raise ValueError("bracket of two linear forms has negative degree")
    pf, pg = f.packed, g.packed
    points = sorted(set(pf.points) | set(pg.points))
    rank = {p: i for i, p in enumerate(points)}
    fvar, frows, fcoef = pf.derivatives
    gvar, grows, gcoef = pg.derivatives
    fvar, frows = pf.relabel(fvar, rank), pf.relabel(frows, rank)
    gvar, grows = pg.relabel(gvar, rank), pg.relabel(grows, rank)

    lo = np.searchsorted(gvar, fvar ^ 1, side="left")
    count = np.searchsorted(gvar, fvar ^ 1, side="right") - lo
    live = np.flatnonzero(count)
    lo, count, frows = lo[live], count[live], frows[live]
    fcoef = np.where(fvar[live] & 1, 1j, -1j) * fcoef[live]
    ends = np.cumsum(count)
    radix = 2 * len(points)
    keys, sums = [], []
    start = 0
    while start < len(live):
        budget = ends[start] - count[start] + BLOCK
        stop = max(start + 1, int(np.searchsorted(ends, budget, side="right")))
        cnt = count[start:stop]
        fi = np.repeat(np.arange(start, stop), cnt)
        gi = lo[fi] + np.arange(len(fi)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        rows = np.concatenate((frows[fi], grows[gi]), axis=1)
        rows.sort(axis=1)
        block_keys, block_sums = _merge(_row_keys(rows, radix), fcoef[fi] * gcoef[gi])
        keys.append(block_keys)
        sums.append(block_sums)
        start = stop
    if not keys:
        return zero_form(degree)
    if len(keys) > 1:
        uniq, total = _merge(np.concatenate(keys), np.concatenate(sums))
    else:
        uniq, total = keys[0], sums[0]
    keep = np.abs(total) > tol
    return from_packed(degree, points, _key_rows(uniq[keep], radix, degree), total[keep])


def quadratic_hamiltonian(table: SpectrumTable) -> SymmetricForm:
    """``sum_a omega_a u_{a,+} u_{a,-}`` over the truncation."""
    coeffs = {
        canonical_key(((p, 1), (p, -1))): complex(table.omega(p))
        for p in table.lattice.points
    }
    return SymmetricForm(degree=2, coeffs=coeffs)


def mass_form(lattice: Lattice) -> SymmetricForm:
    coeffs = {canonical_key(((p, 1), (p, -1))): 1.0 + 0j for p in lattice.points}
    return SymmetricForm(degree=2, coeffs=coeffs)


def superaction_form(points: Iterable[Point]) -> SymmetricForm:
    coeffs = {canonical_key(((p, 1), (p, -1))): 1.0 + 0j for p in points}
    if not coeffs:
        raise ValueError("superaction over an empty mode set")
    return SymmetricForm(degree=2, coeffs=coeffs)


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
    """Momentum-conserving quartic ``(coupling/2) sum_{a+c=b+e} u_a u_b^- u_c u_e^-``."""
    pts = lattice.points
    acc: Dict[Key, complex] = {}
    half = 0.5 * coupling
    for a in pts:
        for c in pts:
            for b in pts:
                e = tuple(ai + ci - bi for ai, ci, bi in zip(a, c, b))
                if e in lattice:
                    key = canonical_key(((a, 1), (b, -1), (c, 1), (e, -1)))
                    acc[key] = acc.get(key, 0j) + half
    return SymmetricForm(degree=4, coeffs=acc)


def random_form(
    lattice: Lattice,
    degree: int,
    n_terms: int,
    seed: int = 0,
    real: bool = True,
) -> SymmetricForm:
    """Sparse random form; ``real=True`` symmetrizes to real values on pairs."""
    rng = np.random.default_rng(seed)
    ext = extended_indexes(lattice)
    acc: Dict[Key, complex] = {}
    for _ in range(n_terms):
        draw = rng.integers(0, len(ext), size=degree)
        key = canonical_key(tuple(ext[int(i)] for i in draw))
        acc[key] = acc.get(key, 0j) + complex(rng.standard_normal(), rng.standard_normal())
    f = SymmetricForm(degree=degree, coeffs=acc)
    if real:
        f = add_forms(scale_form(f, 0.5), scale_form(conjugate_form(f), 0.5), tol=0.0)
    return f


def sobolev_norm(
    values: State,
    lattice: Lattice,
    s: float,
    *,
    table: Optional[SpectrumTable] = None,
    weighting: str = "index",
) -> float:
    """Weighted l2 norm over the extended support, both signs counted.

    ``weighting="index"`` uses ``(1+|a|)^(2s)``; ``weighting="floor"`` uses
    the equivalent ``(1+floor(a))^(2s)`` and needs a spectrum table.
    """
    if weighting not in ("index", "floor"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if weighting == "floor" and table is None:
        raise ValueError("floor weighting needs a spectrum table")
    total = 0.0
    for (point, _), v in values.items():
        if weighting == "index":
            x = lattice.effective(point)
            base = math.sqrt(sum(c * c for c in x))
        else:
            base = table.floor(point)
        total += (1.0 + base) ** (2.0 * s) * (v.real * v.real + v.imag * v.imag)
    return math.sqrt(total)


def split_state(values: State, table: SpectrumTable, cutoff: float) -> Tuple[State, State]:
    """Project a state onto floor norms <= cutoff and > cutoff."""
    low: State = {}
    high: State = {}
    for entry, v in values.items():
        (high if table.floor(entry[0]) > cutoff else low)[entry] = v
    return low, high


def decompose_by_high_order(form: SymmetricForm, table: SpectrumTable, cutoff: float) -> Dict[int, SymmetricForm]:
    """Split the rows by their count of high (floor > cutoff) entries; parts sum back to the form."""
    view = form.packed
    high = np.array([table.floor(p) > cutoff for p in view.points], dtype=np.int64)
    count = high[view.codes >> 1].sum(axis=1)
    return {
        n: from_packed(form.degree, view.points, view.codes[count == n], view.values[count == n])
        for n in np.unique(count).tolist()
    }


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


def _encode_key(key: Key) -> list:
    return [[list(p), s] for p, s in key]


def _decode_key(raw) -> Key:
    return tuple((tuple(int(c) for c in p), int(s)) for p, s in raw)


def form_to_jsonl(form: SymmetricForm, path) -> None:
    """One JSON object per key, in canonical key order."""
    with open(path, "w") as fh:
        header = {"kind": "form", "degree": form.degree, "n_terms": len(form)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for key in sorted(form.coeffs):
            c = form.coeffs[key]
            row = {"key": _encode_key(key), "re": c.real, "im": c.imag}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def form_from_jsonl(path) -> SymmetricForm:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "form":
            raise ValueError(f"not a form file: {path}")
        coeffs: Dict[Key, complex] = {}
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            coeffs[_decode_key(row["key"])] = complex(row["re"], row["im"])
    return make_form(coeffs, degree=int(header["degree"]), tol=0.0)
