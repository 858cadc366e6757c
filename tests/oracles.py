"""Reference implementations that the tests compare the package against.

The dict path: signed keys (``canonical_key``, ``conjugate``), dict
states and the builders on them (``from_dict``, ``dict_nls_quartic``,
``dict_random_form``, ``dict_vector_field``, ``dict_sobolev_norm``), the
bit-for-bit oracles of the array builders and states of ``latnf.forms``.  Per-key and per-state
loops that no command runs: the multilinear evaluations, the per-key
nonresonance test and entry ordering, and the key multiplicity, each the
oracle of a row kernel of the package (``vector_field``,
``normalform.bucket_rows``, ``forms.leading_points``,
``SymmetricForm.multiplicity``); the builders of test inputs (``make_form``,
``real_state``) and the reader of ``form_to_jsonl`` files; and the
ground-state chart and divisor scan, which no model kind integrates yet;
and the row-sort bracket, the bit-for-bit oracle of ``forms.poisson_bracket``;
and the per-point frequency ladder (``frequency``, ``gram_matrix``), the
bit-for-bit oracle of the frequency models' ``omega``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from latnf import forms
from latnf.bands import BandPartition
from latnf.clusters import ClusterPartition, block_index_map
from latnf.forms import (
    DROP_TOL,
    SymmetricForm,
    _localization,
    _row_keys,
    add_forms,
    conjugate_form,
    hamiltonian_field,
    monomials,
    scale_form,
    zero_form,
)
from latnf.frequencies import (
    Beam,
    GroundState,
    SpectralMultiplier,
    SpectrumTable,
    TableModel,
    TorusLaplacian,
)
from latnf.lattice import ExtIndex, Lattice, Point, extended_indexes, point_distance
from latnf.resonance import is_resonant_W, validate_cutoff


# --- the per-point frequency ladder ---------------------------------------------


def gram_matrix(model: TorusLaplacian, dim: int) -> np.ndarray:
    if model.gram is None:
        return np.eye(dim)
    g = np.asarray(model.gram, dtype=float)
    if g.shape != (dim, dim):
        raise ValueError(f"Gram matrix shape {g.shape} does not match d={dim}")
    if not np.allclose(g, g.T):
        raise ValueError("Gram matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(g) <= 0):
        raise ValueError("Gram matrix must be positive definite")
    return g


def frequency(model, point: Point, offset=None):
    """Evaluate ``omega_a`` for one point; pure and deterministic."""
    if isinstance(model, TorusLaplacian):
        dim = len(point)
        g = gram_matrix(model, dim)
        if (offset is None or all(k == 0.0 for k in offset)) and np.all(g == np.round(g)):
            g = g.astype(int)
            pairs = [(i, j) for i in range(dim) for j in range(dim)]
            return sum(int(point[i]) * int(g[i, j]) * int(point[j]) for i, j in pairs)
        a = np.asarray(point, dtype=float)
        if offset is not None:
            a = a + np.asarray(offset, dtype=float)
        return float(a @ g @ a)
    if isinstance(model, SpectralMultiplier):
        base = frequency(model.base, point, offset)
        if not model.potential:
            return base
        return base + float(model.potential.get(tuple(point), 0.0))
    if isinstance(model, GroundState):
        lam = float(frequency(model.base, point, offset))
        two_f = 2.0 * model.f_value
        val = lam * lam + two_f * lam
        if val < 0:
            raise ValueError(
                f"positivity violated at {point}: lambda^2 + 2 f(p0) lambda = {val} < 0"
            )
        return math.sqrt(val)
    if isinstance(model, Beam):
        lam = float(frequency(model.base, point, offset))
        return math.sqrt(lam * lam + model.mass)
    if isinstance(model, TableModel):
        return model.values[tuple(point)]
    raise TypeError(f"unknown frequency model: {type(model).__name__}")


# --- the dict path -------------------------------------------------------------

Key = Tuple[ExtIndex, ...]

State = Dict[ExtIndex, complex]


def canonical_key(entries: Iterable[ExtIndex]) -> Key:
    return tuple(sorted(entries, key=lambda e: (e[0], -e[1])))


def from_dict(degree: int, coeffs: Mapping[Key, complex]) -> SymmetricForm:
    """Form of the keys of ``coeffs``, rows in dict order; zero coefficients stay."""
    points = tuple(sorted({p for key in coeffs for p, _ in key}))
    rank = {p: i for i, p in enumerate(points)}
    flat = [2 * rank[p] + (s < 0) for key in coeffs for p, s in key]
    codes = np.array(flat, dtype=np.int32).reshape(len(coeffs), degree)
    codes.sort(axis=1)
    values = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
    return SymmetricForm(points, codes, values)


def state_array(values: State, points: Sequence[Point]) -> np.ndarray:
    """Both-signs array of a dict state over ``points``, 0 where it has no entry."""
    return np.array([values.get((p, s), 0j) for p in points for s in (1, -1)], dtype=complex)


def state_dict(x: np.ndarray, points: Sequence[Point]) -> State:
    """Dict state of a both-signs array over ``points``, every entry kept."""
    return {(p, s): v for p, pair in zip(points, x.reshape(-1, 2).tolist()) for s, v in zip((1, -1), pair)}


def dict_nls_quartic(lattice: Lattice, coupling: float = 1.0) -> SymmetricForm:
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
    return from_dict(4, acc)


def dict_random_form(
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
    f = from_dict(degree, acc)
    if real:
        f = add_forms(scale_form(f, 0.5), scale_form(conjugate_form(f), 0.5), tol=0.0)
    return f


def dict_vector_field(form: SymmetricForm, values: State) -> State:
    """Hamiltonian vector field of the form at a dict state.

    Component at index B is ``-i sigma_B dF/du_{conj(B)}``; the entries come
    in the order of the variable ``conj(B)`` they differentiate.
    """
    field = hamiltonian_field(form.codes, form.values, state_array(values, form.points))
    target = np.flatnonzero(field[np.arange(len(field)) ^ 1]) ^ 1
    entries = form.entries
    return {entries[c]: v for c, v in zip(target.tolist(), field[target].tolist())}


def dict_sobolev_norm(values: State, lattice: Lattice, s: float) -> float:
    """Weighted l2 norm over the extended support, both signs counted.

    The weight of index ``a`` is ``(1+|a|)^(2s)``.
    """
    total = 0.0
    for (point, _), v in values.items():
        x = lattice.effective(point)
        base = math.sqrt(sum(c * c for c in x))
        total += (1.0 + base) ** (2.0 * s) * (v.real * v.real + v.imag * v.imag)
    return math.sqrt(total)


# --- signed keys and real states ---------------------------------------------


def conjugate(index: ExtIndex) -> ExtIndex:
    """Flip the sign component, keeping the point."""
    point, sign = index
    return (point, -sign)


def conjugate_key(key: Iterable[ExtIndex]) -> Tuple[ExtIndex, ...]:
    """Flip every sign in a tuple of signed indexes (order preserved)."""
    return tuple((p, -s) for p, s in key)


def is_real_pairing(values: dict) -> bool:
    """True when ``u[(a,-)] == conj(u[(a,+)])`` for the whole support."""
    for (p, s), v in values.items():
        w = values.get((p, -s), 0.0)
        if abs(np.conj(v) - w) > 1e-12 * max(1.0, abs(v)):
            return False
    return True


def real_state(plus: dict) -> dict:
    """Extend a map ``point -> value`` to a real state on signed indexes."""
    out = {}
    for p, v in plus.items():
        out[(p, 1)] = complex(v)
        out[(p, -1)] = complex(np.conj(v))
    return out


# --- floor norms -------------------------------------------------------------


def floor_comparability(table: SpectrumTable) -> Tuple[float, float]:
    """Extremal ratios ``floor(a)/|a|`` over nonzero modes.

    Both ratios are positive and finite on any truncation where the fitted
    power law passes; they bound ``floor`` by ``|a|`` on the truncation.
    """
    lo, hi = math.inf, 0.0
    for p in table.points:
        n = table.norm(p)
        if n == 0.0:
            continue
        ratio = table.floor(p) / n
        lo = min(lo, ratio)
        hi = max(hi, ratio)
    if hi == 0.0:
        raise ValueError("no nonzero modes in the table")
    return lo, hi


# --- per-key form loops, form construction and the JSONL reader --------------


def key_multiplicity(key: Key) -> int:
    """Multinomial count of orderings of the multiset."""
    mult = math.factorial(len(key))
    for m in Counter(key).values():
        mult //= math.factorial(m)
    return mult


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
    return from_dict(degree, acc)


def is_real_coefficients(form: SymmetricForm, tol: float = 1e-12) -> bool:
    """Whether the form takes real values on conjugation-paired states."""
    for k, c in form.coeffs.items():
        kc = canonical_key(conjugate_key(k))
        if abs(form.coeffs.get(kc, 0j) - c.conjugate()) > tol * (1.0 + abs(c)):
            return False
    return True


def evaluate(form: SymmetricForm, values: State) -> complex:
    return complex(monomials(form.codes, form.values, state_array(values, form.points)).sum())


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


def mu_S(table: SpectrumTable, key: Key, zero_mode: str = "error") -> Tuple[float, float]:
    """Localization pair (mu, S) of a key under the decreasing-floor ordering."""
    mu, s = _localization(from_dict(len(key), {key: 0j}), table, zero_mode)
    return float(mu[0]), float(s[0])


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
    if not len(form):
        return 0.0
    mu, s = _localization(form, table, zero_mode)
    weight = s**smoothing / mu ** (smoothing + nu)
    row, col = np.nonzero(form.runs)
    m = form.runs[row, col]
    reduced_mult = form.multiplicity[row] * m // form.degree
    w = np.abs(form.values)[row] * m / reduced_mult * weight[row]
    return float(w.max())


def split_state(values: State, table: SpectrumTable, cutoff: float) -> Tuple[State, State]:
    """Project a state onto floor norms <= cutoff and > cutoff."""
    low: State = {}
    high: State = {}
    for entry, v in values.items():
        (high if table.floor(entry[0]) > cutoff else low)[entry] = v
    return low, high


def decompose_by_high_order(form: SymmetricForm, table: SpectrumTable, cutoff: float) -> Dict[int, SymmetricForm]:
    """Split the rows by their count of high (floor > cutoff) entries; parts sum back to the form."""
    high = np.array([table.floor(p) > cutoff for p in form.points], dtype=np.int64)
    count = high[form.codes >> 1].sum(axis=1)
    return {
        n: SymmetricForm(form.points, form.codes[count == n], form.values[count == n])
        for n in np.unique(count).tolist()
    }


def _decode_key(raw) -> Key:
    return tuple((tuple(int(c) for c in p), int(s)) for p, s in raw)


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


# --- the row-sort bracket ------------------------------------------------------


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


def row_sort_bracket(f: SymmetricForm, g: SymmetricForm, tol: float = DROP_TOL) -> SymmetricForm:
    """Canonical bracket ``-i sum_b (d+F d-G - d-F d+G)`` as a form.

    Every derivative row of F meets the derivative rows of G whose variable
    is its conjugate (``code ^ 1``).  The pairs are expanded in blocks of
    about ``BLOCK``; each block is merged by key, then the blocks are merged
    the same way.  Coefficients with ``|c| <= tol`` are dropped.

    The bracket kernel that built, row-sorted and keyed every pair's row
    (``latnf.forms.BLOCK`` is read at call time, so a patched block size
    applies to both kernels); ``poisson_bracket`` matches it bit for bit.
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
    lo, count, frows = lo[live], count[live], frows[live]
    fcoef = np.where(fvar[live] & 1, 1j, -1j) * fcoef[live]
    ends = np.cumsum(count)
    radix = 2 * len(points)
    keys, sums = [], []
    start = 0
    while start < len(live):
        budget = ends[start] - count[start] + forms.BLOCK
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
    return SymmetricForm(points, _key_rows(uniq[keep], radix, degree), total[keep])


# --- per-key divisor tests and the ground-state divisor scan -----------------


def ordering_permutation(table: SpectrumTable, multiset: Sequence[ExtIndex]) -> Tuple[int, ...]:
    """Indices sorting entries by decreasing floor norm, ties by point then +/-."""
    def key(i):
        (p, s) = multiset[i]
        return (-table.floor(p), p, -s)

    return tuple(sorted(range(len(multiset)), key=key))


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


# --- the ground-state chart --------------------------------------------------


def ground_state_reduce(coeffs: Dict[Point, complex], p0: float) -> Tuple[Dict[Point, complex], float]:
    """Extract the zero-mode phase and return the gauge-fixed remainder.

    The chart writes the field as ``exp(-i theta) (sqrt(p0 - |phi|^2) + phi)``
    with phi mean-free; it requires a nonzero mean mode and ``|phi|^2 < p0``.
    """
    pts = list(coeffs)
    if not pts:
        raise ValueError("empty state")
    dim = len(pts[0])
    zero = (0,) * dim
    mean = complex(coeffs.get(zero, 0.0))
    if mean == 0:
        raise ValueError("zero mean mode: outside the ground-state chart")
    theta = -math.atan2(mean.imag, mean.real)
    rot = complex(math.cos(theta), math.sin(theta))
    phi = {tuple(p): rot * complex(c) for p, c in coeffs.items() if tuple(p) != zero}
    mass_phi = sum(abs(v) ** 2 for v in phi.values())
    if mass_phi >= p0:
        raise ValueError(f"remainder mass {mass_phi} >= p0 = {p0}: outside chart")
    return phi, theta


def reconstruct_ground_state(
    phi: Dict[Point, complex], p0: float, theta: float, dim: Optional[int] = None
) -> Dict[Point, complex]:
    if dim is None:
        if not phi:
            raise ValueError("need dim for an empty remainder")
        dim = len(next(iter(phi)))
    zero = (0,) * dim
    mass_phi = sum(abs(v) ** 2 for v in phi.values())
    if mass_phi >= p0:
        raise ValueError(f"remainder mass {mass_phi} >= p0 = {p0}: outside chart")
    rot = complex(math.cos(-theta), math.sin(-theta))
    out = {tuple(p): rot * complex(c) for p, c in phi.items()}
    out[zero] = rot * math.sqrt(p0 - mass_phi)
    return out


@dataclass(frozen=True)
class BogoliubovResult:
    w: Dict[Point, complex]
    omegas: Dict[Point, float]
    angles: Dict[Point, float]
    offdiag_residual: float


def bogoliubov(
    phi: Dict[Point, complex],
    p0: float,
    f,
    eigenvalues: Dict[Point, float],
) -> BogoliubovResult:
    """Per-mode hyperbolic rotation diagonalizing the quadratic pairing.

    With ``A = lambda + f(p0)`` and ``B = f(p0)`` the angle solves
    ``tanh(2t) = B/A`` and the diagonal frequency is
    ``sqrt(lambda^2 + 2 f(p0) lambda)``; requires ``lambda (lambda+2f) > 0``.
    """
    fp = float(f(p0)) if callable(f) else float(f)
    w: Dict[Point, complex] = {}
    omegas: Dict[Point, float] = {}
    angles: Dict[Point, float] = {}
    residual = 0.0
    for p, v in phi.items():
        lam = float(eigenvalues[tuple(p)])
        if lam * (lam + 2.0 * fp) <= 0.0:
            raise ValueError(
                f"mode {p}: lambda (lambda + 2 f) = {lam * (lam + 2.0 * fp)} <= 0; "
                "diagonalization invalid"
            )
        a, b = lam + fp, fp
        t = 0.5 * math.atanh(b / a)
        ch, sh = math.cosh(t), math.sinh(t)
        w[tuple(p)] = ch * complex(v) + sh * complex(v).conjugate()
        omegas[tuple(p)] = math.sqrt(lam * lam + 2.0 * fp * lam)
        angles[tuple(p)] = t
        residual = max(residual, abs(-a * ch * sh + 0.5 * b * (ch * ch + sh * sh)))
    return BogoliubovResult(w=w, omegas=omegas, angles=angles, offdiag_residual=residual)
