"""Packed-array kernels against the dict-of-tuple loops they replaced.

The reference functions below are the loop implementations of the bracket,
the localized norms, the vector field, the sum and the conjugate, kept
verbatim as oracles.  Key sets must agree exactly; coefficients and norms
agree to 1e-12 relative, the room a different summation order needs.  The
sum and the conjugate keep the summation order, so they agree bit for bit,
in the same key order.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from latnf import (
    SpectralMultiplier,
    TorusLaplacian,
    band_partition,
    build_clusters,
    build_spectrum,
    add_forms,
    canonical_key,
    check_superaction_commutation,
    conjugate_form,
    enumerate_lattice,
    evaluate,
    localized_norm,
    make_form,
    nls_quartic,
    poisson_bracket,
    poly_from_forms,
    quadratic_hamiltonian,
    random_form,
    scale_form,
    scaled_norm,
    vector_field,
    vector_field_seminorm,
)
import latnf.forms
from latnf.forms import SymmetricForm, key_multiplicity, mu_S, zero_form
from latnf.lattice import conjugate, conjugate_key, point_distance
from latnf.resonance import ordering_permutation

RTOL = 1e-12


# --- reference loops -------------------------------------------------------


def ref_derivative_maps(form):
    out = {}
    for key, c in form.coeffs.items():
        for entry, m in Counter(key).items():
            reduced = list(key)
            reduced.remove(entry)
            out.setdefault(entry, []).append((tuple(reduced), c * m))
    return out


def ref_bracket(f, g, tol=1e-14):
    df, dg = ref_derivative_maps(f), ref_derivative_maps(g)
    acc = {}
    for (point, sign), rows in df.items():
        cols = dg.get((point, -sign))
        if not cols:
            continue
        phase = -1j if sign > 0 else 1j
        for k1, c1 in rows:
            for k2, c2 in cols:
                key = canonical_key(k1 + k2)
                acc[key] = acc.get(key, 0j) + phase * c1 * c2
    return {k: c for k, c in acc.items() if abs(c) > tol}


def ref_mu_S(table, key, zero_mode="error"):
    order = ordering_permutation(table, key)
    pts = [key[i][0] for i in order]
    floors = [table.floor(p) for p in pts]
    mu = floors[min(2, len(pts) - 1)]
    dist = point_distance(pts[0], pts[1]) if len(pts) >= 2 else 0.0
    s = mu + dist
    if mu == 0.0:
        if zero_mode == "error":
            raise ValueError("vanishing localization scale")
        mu, s = 1.0 + mu, 1.0 + s
    return mu, s


def ref_localized_norm(form, table, nu, smoothing, zero_mode="error"):
    best = 0.0
    for key, c in form.coeffs.items():
        mu, s = ref_mu_S(table, key, zero_mode)
        w = abs(c) / key_multiplicity(key) * s**smoothing / mu ** (smoothing + nu)
        best = max(best, w)
    return best


def ref_vector_field_seminorm(form, table, nu, smoothing, zero_mode="error"):
    best = 0.0
    for key, c in form.coeffs.items():
        mu, s = ref_mu_S(table, key, zero_mode)
        weight = s**smoothing / mu ** (smoothing + nu)
        for entry, m in Counter(key).items():
            reduced = list(key)
            reduced.remove(entry)
            best = max(best, abs(c) * m / key_multiplicity(tuple(reduced)) * weight)
    return best


def ref_vector_field(form, values):
    out = {}
    for entry, rows in ref_derivative_maps(form).items():
        acc = 0j
        for reduced, c in rows:
            prod = complex(c)
            for e in reduced:
                prod *= values.get(e, 0j)
            acc += prod
        if acc != 0:
            target = conjugate(entry)
            out[target] = out.get(target, 0j) + 1j * entry[1] * acc
    return out


def ref_add_forms(*forms, tol=1e-14):
    acc = {}
    for f in forms:
        for k, c in f.coeffs.items():
            acc[k] = acc.get(k, 0j) + c
    return {k: c for k, c in acc.items() if abs(c) > tol}


def ref_conjugate_form(form):
    return {canonical_key(conjugate_key(k)): c.conjugate() for k, c in form.coeffs.items()}


# --- helpers ----------------------------------------------------------------


def assert_same_rows(got, want: dict):
    """Same keys in the same order, coefficients equal bit for bit."""
    assert list(got) == list(want)
    bits = [np.array(list(d.values()), dtype=complex).view(np.uint64).tolist() for d in (got, want)]
    assert bits[0] == bits[1]


def assert_same_terms(got: dict, want: dict):
    assert set(got) == set(want)
    for k, c in want.items():
        assert abs(got[k] - c) <= RTOL * abs(c), k


def table_for(lattice):
    return build_spectrum(lattice, TorusLaplacian())


def random_state(rng, lattice):
    return {
        (p, s): complex(rng.standard_normal(), rng.standard_normal())
        for p in lattice.points
        for s in (1, -1)
    }


def repeated_form(lattice, degree, n_terms, seed):
    """Random keys drawn from few indexes, so entries repeat 2-3 times."""
    rng = np.random.default_rng(seed)
    pool = [(p, s) for p in lattice.points[:3] for s in (1, -1)]
    coeffs = {}
    for _ in range(n_terms):
        key = canonical_key(pool[int(i)] for i in rng.integers(0, len(pool), size=degree))
        coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
    return make_form(coeffs, degree=degree)


LINE = enumerate_lattice(1, 4.0)
PLANE = enumerate_lattice(2, 2.5)
SHIFTED = enumerate_lattice(1, 4.0, offset=0.3)


def form_cases():
    """(name, lattice, f, g) tuples covering the shapes the kernels must handle."""
    yield "line 3x4", LINE, random_form(LINE, 3, 40, seed=1), random_form(LINE, 4, 40, seed=2)
    yield "repeated entries", LINE, repeated_form(LINE, 4, 30, 3), repeated_form(LINE, 3, 30, 4)
    yield "plane, negative coordinates", PLANE, random_form(PLANE, 3, 60, seed=5), random_form(PLANE, 4, 60, seed=6)
    yield "offset lattice", SHIFTED, random_form(SHIFTED, 4, 50, seed=7), random_form(SHIFTED, 3, 50, seed=8)
    yield "quadratic", LINE, quadratic_hamiltonian(table_for(LINE)), random_form(LINE, 4, 50, seed=9)
    yield "nls quartic", LINE, nls_quartic(LINE), random_form(LINE, 4, 30, seed=10)


CASES = pytest.mark.parametrize("lattice,f,g", [c[1:] for c in form_cases()], ids=[c[0] for c in form_cases()])


# --- bracket ----------------------------------------------------------------


@CASES
def test_bracket_matches_reference(lattice, f, g):
    for tol in (1e-14, 0.0):
        got = poisson_bracket(f, g, tol=tol)
        want = ref_bracket(f, g, tol=tol)
        assert got.degree == f.degree + g.degree - 2
        assert_same_terms(got.coeffs, want)
        assert list(got.coeffs) == sorted(got.coeffs, key=lambda k: [(p, -s) for p, s in k])


def test_bracket_empty_and_unmatched():
    f = random_form(LINE, 3, 20, seed=11)
    empty = SymmetricForm(degree=4, coeffs={})
    assert poisson_bracket(f, empty).coeffs == {}
    assert poisson_bracket(empty, f).degree == 5
    plus_only = make_form({canonical_key((((1,), 1), ((2,), 1))): 1.0})
    other = make_form({canonical_key((((0,), 1), ((3,), 1), ((3,), -1))): 2.0})
    assert ref_bracket(plus_only, other) == {}
    assert poisson_bracket(plus_only, other).coeffs == {}


def test_bracket_drops_cancellations_below_tol():
    # {J, F} with J the mass of the modes F touches: every key of a balanced
    # F cancels exactly, an unbalanced one survives.
    j = make_form({canonical_key((((a,), 1), ((a,), -1))): 1.0 for a in (0, 1, 2)})
    balanced = canonical_key((((0,), 1), ((1,), -1)))
    unbalanced = canonical_key((((0,), 1), ((1,), 1)))
    f = make_form({balanced: 0.7, unbalanced: 0.3})
    got = poisson_bracket(f, j)
    assert set(got.coeffs) == set(ref_bracket(f, j)) == {unbalanced}
    # near-cancellation: two contributions that sum to about 1e-15
    g = make_form({canonical_key((((0,), 1), ((1,), -1))): 1.0, canonical_key((((0,), 1), ((2,), -1))): 1.0 + 1e-15})
    k = make_form({canonical_key((((1,), 1), ((3,), 1))): 1.0, canonical_key((((2,), 1), ((3,), 1))): -1.0})
    assert poisson_bracket(g, k).coeffs == ref_bracket(g, k) == {}
    kept = poisson_bracket(g, k, tol=0.0).coeffs
    assert set(kept) == set(ref_bracket(g, k, tol=0.0)) == {canonical_key((((0,), 1), ((3,), 1)))}


def test_bracket_in_blocks_and_wide_keys(monkeypatch):
    # A tiny block forces the cross-block merge.  On the plane, 317 points
    # make radix**7 overflow int64 and keys fall back to row bytes; on the
    # line they stay mixed-radix integers.
    monkeypatch.setattr(latnf.forms, "BLOCK", 97)
    plane = enumerate_lattice(2, 10.0)
    wide = random_form(plane, 4, 400, seed=12), random_form(plane, 5, 400, seed=13)
    points = set(wide[0].packed.points) | set(wide[1].packed.points)
    assert (2 * len(points)) ** 7 >= 2**63
    narrow = random_form(LINE, 4, 60, seed=14), random_form(LINE, 4, 60, seed=15)
    for f, g in (wide, narrow):
        assert_same_terms(poisson_bracket(f, g).coeffs, ref_bracket(f, g))


def test_bracket_output_view_matches_a_fresh_pack():
    f, g = random_form(PLANE, 3, 60, seed=16), random_form(PLANE, 3, 60, seed=17)
    out = poisson_bracket(f, g)
    fresh = SymmetricForm(degree=out.degree, coeffs=dict(out.coeffs))
    assert out.packed.points == fresh.packed.points
    assert np.array_equal(out.packed.codes, fresh.packed.codes)
    assert np.array_equal(out.packed.values, fresh.packed.values)


def test_forms_are_freed_after_a_bracket():
    f = random_form(LINE, 4, 30, seed=18)
    g = random_form(LINE, 3, 30, seed=19)
    poisson_bracket(f, g)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


# --- sum and conjugate ------------------------------------------------------


@CASES
def test_add_and_conjugate_match_reference(lattice, f, g):
    for form in (f, g):
        conj = conjugate_form(form)
        assert_same_rows(conj.coeffs, ref_conjugate_form(form))
        half = scale_form(form, 0.5)
        for terms in ((form,), (form, conj), (half, conj, form), (form, scale_form(form, -1.0)), (zero_form(form.degree), form)):
            for tol in (1e-14, 0.0):
                got = add_forms(*terms, tol=tol)
                assert got.degree == form.degree
                assert_same_rows(got.coeffs, ref_add_forms(*terms, tol=tol))


def test_add_and_conjugate_of_empty_and_wide_forms():
    empty = zero_form(3)
    assert len(add_forms(empty)) == len(add_forms(empty, empty)) == len(conjugate_form(empty)) == 0
    f = random_form(LINE, 3, 20, seed=23, real=False)
    assert_same_rows(add_forms(empty, f, empty).coeffs, ref_add_forms(f))
    # 317 points: radix**7 overflows int64, so keys are row bytes
    plane = enumerate_lattice(2, 10.0)
    wide = random_form(plane, 7, 300, seed=24, real=False), random_form(plane, 7, 300, seed=25, real=False)
    terms = (wide[0], conjugate_form(wide[1]), wide[1], wide[0])
    assert_same_rows(add_forms(*terms).coeffs, ref_add_forms(*terms))


# --- norms ------------------------------------------------------------------


@CASES
def test_norms_match_reference(lattice, f, g):
    table = table_for(lattice)
    for form in (f, g, poisson_bracket(f, g)):
        if not form.coeffs:
            continue
        for nu, smoothing in ((2.0, 2.0), (1.0, 3.5)):
            kw = dict(nu=nu, smoothing=smoothing, zero_mode="lift")
            want = ref_localized_norm(form, table, **kw)
            assert localized_norm(form, table, **kw) == pytest.approx(want, rel=RTOL)
            assert scaled_norm(form, table, 0.1, **kw) == pytest.approx(want * 0.1**form.degree, rel=RTOL)
            want_vf = ref_vector_field_seminorm(form, table, **kw)
            assert vector_field_seminorm(form, table, **kw) == pytest.approx(want_vf, rel=RTOL)
        for key in list(form.coeffs)[:20]:
            assert mu_S(table, key, "lift") == ref_mu_S(table, key, "lift")


def test_norms_of_empty_forms_and_zero_modes():
    table = table_for(LINE)
    empty = SymmetricForm(degree=3, coeffs={})
    assert localized_norm(empty, table, nu=2.0, smoothing=2.0) == 0.0
    assert vector_field_seminorm(empty, table, nu=2.0, smoothing=2.0) == 0.0
    zero_key = canonical_key((((0,), 1), ((0,), -1), ((0,), 1)))
    f = make_form({zero_key: 1.0})
    with pytest.raises(ValueError, match="vanishing localization"):
        localized_norm(f, table, nu=2.0, smoothing=2.0)
    with pytest.raises(ValueError, match="unknown zero_mode"):
        localized_norm(f, table, nu=2.0, smoothing=2.0, zero_mode="clip")
    lifted = localized_norm(f, table, nu=2.0, smoothing=2.0, zero_mode="lift")
    assert lifted == ref_localized_norm(f, table, 2.0, 2.0, "lift")


# --- vector field -------------------------------------------------------------


@CASES
def test_vector_field_matches_reference(lattice, f, g):
    rng = np.random.default_rng(20)
    u = random_state(rng, lattice)
    partial = dict(list(u.items())[::3])  # missing entries read as 0
    for form in (f, g):
        for state in (u, partial):
            want = ref_vector_field(form, state)
            assert_same_terms(vector_field(form, state), want)


def test_vector_field_of_empty_form():
    assert vector_field(SymmetricForm(degree=4, coeffs={}), {}) == {}


# --- normal form ------------------------------------------------------------


def test_commutation_brackets_each_degree_of_a_bucket():
    lattice = enumerate_lattice(1, 8.0)
    table = build_spectrum(lattice, SpectralMultiplier(base=TorusLaplacian(), potential={(1,): 0.3}))
    bands = band_partition(table)
    clusters = build_clusters(table)
    a, b = (0,), (1,)
    actions4 = make_form({canonical_key(((a, 1), (a, -1), (b, 1), (b, -1))): 1.0})
    actions6 = make_form({canonical_key(((a, 1), (a, -1), (a, 1), (a, -1), (b, 1), (b, -1))): 2.0})
    z0 = poly_from_forms([actions4, actions6])
    assert z0.degrees == (4, 6)
    report = check_superaction_commutation(z0, z0, None, table, bands, clusters, 5.5)
    assert report.max_band_residual == 0.0
    assert report.max_block_residual == 0.0
    assert report.z2_bracket_norm == 0.0
    # a degree-6 part that moves mass between bands must register
    far = lattice.points[-1]
    moving = make_form({canonical_key(((a, 1), (a, 1), (a, 1), (a, -1), (far, -1), (far, -1))): 1.0})
    mixed = poly_from_forms([actions4, moving])
    report = check_superaction_commutation(mixed, mixed, None, table, bands, clusters, 5.5)
    assert report.max_band_residual > 0.0


# --- dynamics ---------------------------------------------------------------


def test_kick_and_energy_match_the_form_kernels():
    from latnf.dynamics import _PolyEnergy, _PolyKick

    points = list(LINE.points)
    forms = [nls_quartic(LINE, -3.0), random_form(LINE, 3, 40, seed=21)]
    rng = np.random.default_rng(22)
    u = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
    state = {}
    for p, v in zip(points, u):
        state[(p, 1)], state[(p, -1)] = complex(v), complex(np.conj(v))
    field = {}
    for f in forms:
        for entry, v in ref_vector_field(f, state).items():
            field[entry] = field.get(entry, 0j) + v
    rhs = _PolyKick(forms, points)._rhs(u)
    want = np.array([field.get((p, 1), 0j) for p in points])
    assert np.allclose(rhs, want, rtol=RTOL, atol=RTOL * np.abs(want).max())
    energy = _PolyEnergy(forms, {p: i for i, p in enumerate(points)}).value(u)
    assert energy == pytest.approx(sum(evaluate(f, state) for f in forms).real, rel=RTOL)
