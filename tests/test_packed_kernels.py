"""Packed-array kernels against the dict-of-tuple loops they replaced.

The reference functions below are the loop implementations of the bracket,
the localized norms, the vector field, the sum and the conjugate, kept
verbatim as oracles.  Key sets must agree exactly; coefficients and norms
agree to 1e-12 relative, the room a different summation order needs.  The
sum and the conjugate keep the summation order, so they agree bit for bit,
in the same key order.  So does ``forms.gradient`` against the ``bincount``
loop it replaced (``ref_gradient``).
"""

import gc
import tracemalloc
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
    check_superaction_commutation,
    conjugate_form,
    enumerate_lattice,
    localized_norm,
    nls_quartic,
    poisson_bracket,
    poly_from_forms,
    quadratic_hamiltonian,
    random_form,
    scale_form,
    scaled_norm,
    vector_field,
)
import latnf.forms
from latnf.forms import zero_form
from latnf.lattice import point_distance

from oracles import (
    canonical_key,
    conjugate,
    conjugate_key,
    dict_nls_quartic,
    dict_random_form,
    evaluate,
    from_dict,
    key_multiplicity,
    make_form,
    mu_S,
    ordering_permutation,
    row_sort_bracket,
    state_array,
    state_dict,
    vector_field_seminorm,
)


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
    empty = from_dict(4, {})
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


def _wide(f, g):
    """Whether the bracket of f and g keys its pairs by several words.

    Asks the kernel's own width test: ``_prime_keys`` as the bracket calls it.
    """
    widths = []
    prime_keys = latnf.forms._prime_keys

    def spy(*args):
        keys = prime_keys(*args)
        widths.append(keys[0].ndim > 1)
        return keys

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(latnf.forms, "_prime_keys", spy)
        poisson_bracket(f, g)
    return widths == [True]


def test_bracket_in_blocks_and_wide_keys(monkeypatch):
    # A tiny block forces the merge into the running union.  On the plane,
    # 317 points need prime keys of several words; on the line they are one
    # int64.
    monkeypatch.setattr(latnf.forms, "BLOCK", 97)
    plane = enumerate_lattice(2, 10.0)
    wide = random_form(plane, 4, 400, seed=12), random_form(plane, 5, 400, seed=13)
    assert _wide(*wide)
    narrow = random_form(LINE, 4, 60, seed=14), random_form(LINE, 4, 60, seed=15)
    assert not _wide(*narrow)
    for f, g in (wide, narrow):
        assert_same_terms(poisson_bracket(f, g).coeffs, ref_bracket(f, g))


def oracle_cases():
    """(name, f, g): one-word and wide prime keys, degree 0, empty and unmatched."""
    line5, plane = enumerate_lattice(1, 5.0), enumerate_lattice(2, 10.0)
    disc4 = enumerate_lattice(2, 4.0)
    yield "line 4x4", random_form(LINE, 4, 60, seed=14), random_form(LINE, 4, 60, seed=15)
    yield "nls quartic", nls_quartic(LINE), random_form(LINE, 4, 30, seed=10)
    yield "repeated entries", repeated_form(LINE, 4, 30, 3), repeated_form(LINE, 3, 30, 4)
    yield "wide plane 4x5", random_form(plane, 4, 400, seed=12), random_form(plane, 5, 400, seed=13)
    yield "line 6x6", random_form(line5, 6, 40, seed=20), random_form(line5, 6, 40, seed=21)
    yield "long blocks 3x3", random_form(disc4, 3, 400, seed=40), random_form(disc4, 3, 400, seed=41)
    yield "wide line 7x7", random_form(line5, 7, 40, seed=30), random_form(line5, 7, 40, seed=31)
    yield "degree 0", random_form(LINE, 1, 6, seed=22), random_form(LINE, 1, 6, seed=23)
    yield "empty", random_form(LINE, 3, 20, seed=11), from_dict(4, {})
    plus_only = make_form({canonical_key((((1,), 1), ((2,), 1))): 1.0})
    other = make_form({canonical_key((((0,), 1), ((3,), 1), ((3,), -1))): 2.0})
    yield "unmatched", plus_only, other


@pytest.mark.parametrize("block", [latnf.forms.BLOCK, 97, 7])
def test_bracket_matches_the_row_sort_oracle_bit_for_bit(monkeypatch, block):
    # The prime-key union sums each key as 0 + block 1 + block 2 + ..., the
    # row-sort kernel's order, so codes, row order and value bits agree.  At
    # the default BLOCK one case has blocks longer than the 1 << 15 pairs that
    # _block_sums multiplies at a time.
    monkeypatch.setattr(latnf.forms, "BLOCK", block)
    cases = {name: (f, g) for name, f, g in oracle_cases()}
    assert [name for name, fg in cases.items() if _wide(*fg)] == ["wide plane 4x5", "wide line 7x7"]
    lengths = []
    block_sums = latnf.forms._block_sums

    def spy(*args):
        lengths.append(len(args[-1]))
        return block_sums(*args)

    monkeypatch.setattr(latnf.forms, "_block_sums", spy)
    for name, (f, g) in cases.items():
        for tol in (1e-14, 0.0):
            got, want = poisson_bracket(f, g, tol=tol), row_sort_bracket(f, g, tol=tol)
            assert got.degree == want.degree, name
            assert got.points == want.points, name
            assert np.array_equal(got.codes, want.codes), name
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64)), name
    zero = poisson_bracket(*cases["degree 0"])
    assert (zero.degree, len(zero)) == (0, 1)
    if block > 1 << 15:
        assert max(lengths) > 1 << 15


def test_bracket_peak_memory_is_the_output_plus_one_block(monkeypatch):
    # About 120 blocks whose keys mostly repeat: merged into a running union,
    # the traced peak stays a few output sizes; kept until a final merge, the
    # block results pile up to about 30 output sizes.
    block = 4096
    monkeypatch.setattr(latnf.forms, "BLOCK", block)
    lattice = enumerate_lattice(1, 3.0)
    f, g = random_form(lattice, 4, 400, seed=24), random_form(lattice, 4, 400, seed=25)
    f.derivatives, g.derivatives
    tracemalloc.start()
    try:
        out = poisson_bracket(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = out.codes.nbytes + out.values.nbytes
    assert len(out) > 20000
    assert peak < 6 * out_bytes + 256 * block


def test_bracket_output_view_matches_a_fresh_pack():
    f, g = random_form(PLANE, 3, 60, seed=16), random_form(PLANE, 3, 60, seed=17)
    out = poisson_bracket(f, g)
    fresh = from_dict(out.degree, dict(out.coeffs))
    assert out.points == fresh.points
    assert np.array_equal(out.codes, fresh.codes)
    assert np.array_equal(out.values, fresh.values)


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


# --- builders ---------------------------------------------------------------


BUILDERS = {"quartic": (nls_quartic, dict_nls_quartic), "random": (random_form, dict_random_form)}
LINE8, PLANE3 = enumerate_lattice(1, 8.0), enumerate_lattice(2, 3.0)


@pytest.mark.parametrize(
    "kind,args",
    [("quartic", (LINE8, 1.0)), ("quartic", (LINE8, -12.0)), ("quartic", (PLANE3, 1.0))]
    + [
        ("random", (lattice, degree, 40, seed, real))
        for lattice in (LINE, PLANE)
        for degree in (3, 4)
        for real in (True, False)
        for seed in (1, 2)
    ],
)
def test_builders_match_the_dict_oracles_bit_for_bit(kind, args):
    # the rows of a triple or a draw are summed from 0 in the dict's order
    build, oracle = BUILDERS[kind]
    got, want = build(*args), oracle(*args)
    assert got.points == want.points
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


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
    empty = from_dict(3, {})
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
            got = state_dict(vector_field(form, state_array(state, lattice.points), lattice.points), lattice.points)
            assert_same_terms({e: v for e, v in got.items() if v}, ref_vector_field(form, state))


def test_vector_field_of_empty_form():
    points = LINE.points
    assert not vector_field(zero_form(4), np.ones(2 * len(points), dtype=complex), points).any()


# --- normal form ------------------------------------------------------------


def test_commutation_brackets_each_degree_of_a_bucket():
    lattice = enumerate_lattice(1, 8.0)
    table = build_spectrum(lattice, SpectralMultiplier(base=TorusLaplacian(), potential={(1,): 0.3}))
    bands = band_partition(table)
    clusters = build_clusters(table, 0.5, 1.0)
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


def _key(*entries):
    """Key of ``(coordinate, sign)`` entries on the line."""
    return tuple(((a,), sign) for a, sign in entries)


# Inputs of the kick, each a list of parts.  The kick reads each part's
# minus derivative rows, so the cases add odd degrees, runs of 2 and 3
# equal codes of either sign, minus rows on some points only, parts of
# different degrees side by side and parts of degree 1.
KICK_CASES = [
    [nls_quartic(LINE, -3.0), random_form(LINE, 3, 40, seed=21)],
    [random_form(LINE, 5, 30, seed=24)],
    [make_form({
        _key((1, 1), (1, 1), (2, -1), (2, -1), (2, -1)): 0.7 - 0.2j,
        _key((-1, -1), (-1, -1), (-1, -1), (3, 1), (0, -1)): 1.3,
        _key((0, 1), (0, -1), (0, -1), (4, -1), (4, -1)): -0.4j,
    })],
    [make_form({
        _key((1, 1), (1, 1), (2, -1), (3, -1)): 0.9,
        _key((1, 1), (2, 1), (3, 1), (3, -1)): -0.3 + 0.1j,
    })],
    [nls_quartic(LINE, 2.0), random_form(LINE, 6, 50, seed=25, real=False)],
    [make_form({_key((2, -1)): 0.7, _key((1, 1)): 0.3j, _key((-3, -1)): -1.1})],
]


def test_kick_and_energy_match_the_form_kernels():
    from latnf.dynamics import _PolyParts

    # the state in a shuffled point order, to which the kick relabels its rows and targets
    points = [LINE.points[i] for i in np.random.default_rng(26).permutation(len(LINE.points))]
    index = {p: i for i, p in enumerate(points)}
    rng = np.random.default_rng(22)
    for forms in KICK_CASES:
        u = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
        state = {}
        for p, v in zip(points, u):
            state[(p, 1)], state[(p, -1)] = complex(v), complex(np.conj(v))
        field = {}
        for f in forms:
            for entry, v in ref_vector_field(f, state).items():
                field[entry] = field.get(entry, 0j) + v
        poly = _PolyParts(forms, index)
        assert len(poly.flows) == len(forms) and not poly.actions
        rhs = poly.rhs(u)
        want = np.array([field.get((p, 1), 0j) for p in points])
        assert np.allclose(rhs, want, rtol=RTOL, atol=RTOL * np.abs(want).max())
        # points without a minus row get exactly zero
        assert not rhs[want == 0].any()
        energy = poly.energy(u)
        assert energy == pytest.approx(sum(evaluate(f, state) for f in forms).real, rel=RTOL)
    # a part with no minus variable has a zero kick and builds no table
    poly = _PolyParts([make_form({_key((1, 1), (2, 1)): 1.0})], index)
    assert not poly.flows and not poly.actions
    assert not poly.rhs(u).any()


def dense_theta(forms, points, intensity):
    """The action angles as the kick once computed them: a rows x points
    exponent table, ``theta_a = sum_r e_ra c_r prod_b I_b^e_rb / I_a``."""
    index = {p: i for i, p in enumerate(points)}
    exps, coeffs = [], []
    for f in forms:
        codes = f.relabel(f.codes, index)
        row, col = np.nonzero((codes & 1) == 0)
        e = np.zeros((len(codes), len(points)), dtype=int)
        np.add.at(e, (row, codes[row, col] >> 1), 1)
        exps.append(e)
        coeffs.append(f.values.real)
    exps, coeffs = np.concatenate(exps), np.concatenate(coeffs)
    rows = np.prod(intensity[None, :] ** exps, axis=1)
    safe = np.where(intensity > 0.0, intensity, 1.0)
    return (exps.T @ (coeffs * rows)) / safe


def test_action_angles_match_the_dense_exponent_formula():
    from latnf.dynamics import _PolyParts

    points = list(LINE.points)
    rng = np.random.default_rng(23)
    forms = []
    for degree, n_rows in ((4, 30), (6, 40)):
        acc = {}
        for _ in range(n_rows):
            chosen = rng.choice(len(points), size=degree // 2)
            key = canonical_key([(points[i], s) for i in chosen.tolist() for s in (1, -1)])
            acc[key] = acc.get(key, 0j) + rng.standard_normal()
        forms.append(make_form(acc))
    poly = _PolyParts(forms, {p: i for i, p in enumerate(points)})
    assert poly.actions and not poly.flows
    u = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
    zero = 2
    u[zero] = 0.0
    assert any(zero in plus for plus, _ in poly.actions)
    intensity = np.abs(u) ** 2
    got, want = poly.theta(intensity), dense_theta(forms, points, intensity)
    live = intensity > 0.0
    assert np.abs(got - want)[live].max() <= 1e-14 * np.abs(want[live]).max()
    # a mode without intensity has no phase to turn, whatever its angle
    kicked = u * np.exp(-1j * 0.1 * got)
    assert kicked[zero] == 0.0


def ref_gradient(codes, coef, x, size):
    """``forms.gradient`` as it summed each column: two float ``bincount``
    calls per column and block, assembled into a complex array at the end."""
    re, im = np.zeros(size), np.zeros(size)
    for a in range(0, len(coef), latnf.forms.BLOCK):
        block = codes[a : a + latnf.forms.BLOCK]
        cols = [x[col] for col in block.T]
        prefix = [coef[a : a + latnf.forms.BLOCK]]
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


def gradient_cases(rng, size=23):
    """Ascending code rows of degrees 1-6 with repeated codes, complex and real."""
    for degree in range(1, 7):
        for n_rows in (0, 1, 40, 300):
            codes = np.sort(rng.integers(0, size, (n_rows, degree)), axis=1)
            x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            coef = rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows)
            yield codes, coef, x, size
            # the action angles: real coefficients at real intensities
            yield codes, coef.real.copy(), np.abs(x) ** 2, size


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("dtype", [np.int32, np.intp])
def test_gradient_matches_the_bincount_loop_bit_for_bit(monkeypatch, block, dtype):
    if block is not None:
        monkeypatch.setattr(latnf.forms, "BLOCK", block)
    for codes, coef, x, size in gradient_cases(np.random.default_rng(31)):
        codes = codes.astype(dtype)
        want = ref_gradient(codes, coef, x, size)
        # row-major codes, and column-major ones as the normal-form kick keeps them
        for layout in (codes, np.asfortranarray(codes)):
            got = latnf.forms.gradient(layout, coef, x, size)
            assert got.dtype == want.dtype and got.shape == (size,)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
