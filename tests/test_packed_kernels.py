"""Packed-array kernels against the dict-of-tuple loops they replaced.

The reference functions below are the loop implementations of the bracket,
the localized norms, the vector field, the sum and the conjugate, kept
verbatim as oracles.  Key sets must agree exactly; coefficients and norms
agree to 1e-12 relative, the room a different summation order needs.  The
sum and the conjugate keep the summation order, so they agree bit for bit,
in the same key order.  So does ``forms.gradient`` against the ``bincount``
loop it replaced (``ref_gradient``).  The bracket of several forms in one
pass (``poisson_brackets``) gives each form the rows of its own bracket, and
values within ``JOINT_RTOL`` of that bracket's largest coefficient.  The
bracket expands only the plus variables' pairs of real forms and mirrors
them: it matches the half-expansion oracle bit for bit, and the full
expansion within ``FULL_RTOL``; so every bracket input here is real.
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
    poisson_brackets,
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
    bracket_commutation,
    canonical_key,
    conjugate,
    conjugate_key,
    dict_nls_quartic,
    dict_random_form,
    evaluate,
    from_dict,
    half_row_sort_bracket,
    key_multiplicity,
    make_form,
    mu_S,
    ordering_permutation,
    real_form,
    row_sort_bracket,
    state_array,
    state_dict,
    vector_field_seminorm,
)


RTOL = 1e-12
#: room for a joint bracket's other pair order, relative to the largest
#: coefficient of the one-form bracket
JOINT_RTOL = 1e-14
#: room for the half expansion's other pair order against the full one,
#: relative to the largest coefficient: the two sum the same pair terms,
#: the half one as a plus-variable sum plus the conjugate of its twin's
FULL_RTOL = 1.5e-15


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
    """A real form of random keys drawn from few indexes, so entries repeat 2-3 times."""
    rng = np.random.default_rng(seed)
    pool = [(p, s) for p in lattice.points[:3] for s in (1, -1)]
    coeffs = {}
    for _ in range(n_terms):
        key = canonical_key(pool[int(i)] for i in rng.integers(0, len(pool), size=degree))
        coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
    return real_form(make_form(lattice.points, coeffs, degree=degree))


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


def real_terms(terms, points=LINE.points):
    """A real form of ``terms`` over ``points``: each key with its conjugate key, of the conjugate coefficient."""
    return make_form(points, list(terms.items()) + [(conjugate_key(k), c.conjugate()) for k, c in terms.items()])


def unmatched_forms():
    """Two real forms on disjoint points, so no derivative row meets its conjugate."""
    plus_only = real_terms({canonical_key((((1,), 1), ((2,), 1))): 1.0})
    other = real_terms({canonical_key((((0,), 1), ((3,), 1), ((3,), -1))): 2.0})
    return plus_only, other


def test_bracket_empty_and_unmatched():
    f = random_form(LINE, 3, 20, seed=11)
    empty = from_dict(LINE.points, 4, {})
    assert poisson_bracket(f, empty).coeffs == {}
    assert poisson_bracket(empty, f).degree == 5
    plus_only, other = unmatched_forms()
    assert ref_bracket(plus_only, other) == {}
    assert poisson_bracket(plus_only, other).coeffs == {}


def test_bracket_drops_cancellations_below_tol():
    # {J, F} with J the mass of the modes F touches: every key of a balanced
    # F cancels exactly, an unbalanced one survives.
    j = make_form(LINE.points, {canonical_key((((a,), 1), ((a,), -1))): 1.0 for a in (0, 1, 2)})
    balanced = canonical_key((((0,), 1), ((1,), -1)))
    unbalanced = canonical_key((((0,), 1), ((1,), 1)))
    f = real_terms({balanced: 0.7, unbalanced: 0.3})
    got = poisson_bracket(f, j)
    assert set(got.coeffs) == set(ref_bracket(f, j)) == {unbalanced, canonical_key(conjugate_key(unbalanced))}
    # near-cancellation: two contributions that sum to about 1e-15
    g = real_terms({canonical_key((((0,), 1), ((1,), -1))): 1.0, canonical_key((((0,), 1), ((2,), -1))): 1.0 + 1e-15})
    k = real_terms({canonical_key((((1,), 1), ((3,), 1))): 1.0, canonical_key((((2,), 1), ((3,), 1))): -1.0})
    assert poisson_bracket(g, k).coeffs == ref_bracket(g, k) == {}
    kept = poisson_bracket(g, k, tol=0.0).coeffs
    survivor = canonical_key((((0,), 1), ((3,), 1)))
    assert set(kept) == set(ref_bracket(g, k, tol=0.0)) == {survivor, canonical_key(conjugate_key(survivor))}


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
    yield "long blocks 3x3", random_form(disc4, 3, 460, seed=40), random_form(disc4, 3, 460, seed=41)
    yield "wide line 7x7", random_form(line5, 7, 40, seed=30), random_form(line5, 7, 40, seed=31)
    yield "degree 0", random_form(LINE, 1, 6, seed=22), random_form(LINE, 1, 6, seed=23)
    yield "empty", random_form(LINE, 3, 20, seed=11), from_dict(LINE.points, 4, {})
    yield "unmatched", *unmatched_forms()


@pytest.mark.parametrize("block", [latnf.forms.BLOCK, 97, 7])
def test_bracket_matches_the_row_sort_oracle_bit_for_bit(monkeypatch, block):
    # The prime-key union sums each key's plus-variable pair terms from 0 in
    # pair order, the order of the block-free half row-sort oracle, and
    # mirrors them as it does, so codes, row order and value bits agree.  At
    # the default BLOCK one case has blocks longer than the 1 << 15 pairs
    # that _add_pairs multiplies at a time.
    monkeypatch.setattr(latnf.forms, "BLOCK", block)
    cases = {name: (f, g) for name, f, g in oracle_cases()}
    assert [name for name, fg in cases.items() if _wide(*fg)] == ["wide plane 4x5", "wide line 7x7"]
    lengths = []
    add_pairs = latnf.forms._add_pairs

    def spy(*args):
        lengths.append(len(args[-1]))
        return add_pairs(*args)

    monkeypatch.setattr(latnf.forms, "_add_pairs", spy)
    for name, (f, g) in cases.items():
        for tol in (1e-14, 0.0):
            got, want = poisson_bracket(f, g, tol=tol), half_row_sort_bracket(f, g, tol=tol)
            assert got.degree == want.degree, name
            assert got.points == want.points, name
            assert np.array_equal(got.codes, want.codes), name
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64)), name
    zero = poisson_bracket(*cases["degree 0"])
    assert (zero.degree, len(zero)) == (0, 1)
    if block > 1 << 15:
        assert max(lengths) > 1 << 15


def test_bracket_matches_the_full_expansion_to_rounding():
    # every pair expanded, the minus variables' too: the same pair terms in
    # another order, so the same rows here and values within FULL_RTOL of
    # the largest coefficient (the degree-0 case comes closest, 1.15e-15)
    for name, f, g in oracle_cases():
        for tol in (1e-14, 0.0):
            got, want = poisson_bracket(f, g, tol=tol), row_sort_bracket(f, g, tol=tol)
            assert np.array_equal(got.codes, want.codes), name
            bound = FULL_RTOL * np.abs(want.values).max(initial=0.0)
            assert np.abs(got.values - want.values).max(initial=0.0) <= bound, name


def test_bracket_refuses_a_form_that_is_not_real():
    # the half expansion reads the minus variables' pairs off the plus ones,
    # which holds for real forms only: a non-real F or G is refused
    f, g = random_form(LINE, 4, 60, seed=14), random_form(LINE, 3, 40, seed=15)
    one_sided = make_form(LINE.points, {canonical_key((((1,), 1), ((2,), 1), ((3,), -1))): 1.0})
    tilted = latnf.forms.SymmetricForm(g.points, g.codes, g.values * np.exp(0.1j))
    for bad in (one_sided, tilted, scale_form(f, 1j)):
        for args in ((bad, g) if bad.degree == 3 else (bad, f), (f, bad)):
            with pytest.raises(ValueError, match="not real"):
                poisson_bracket(*args)
    with pytest.raises(ValueError, match="not real"):
        poisson_brackets([f, scale_form(f, 1j)], g)
    # the check is exact: one unit of roundoff on one row is refused too
    nudged = f.values.copy()
    top = np.argmax(np.abs(nudged))
    nudged[top] += 1j * np.spacing(np.abs(nudged[top]))
    with pytest.raises(ValueError, match="not real"):
        poisson_bracket(latnf.forms.SymmetricForm(f.points, f.codes, nudged), g)


def canonical(form):
    """The form with its rows ascending, as a bracket returns them."""
    order = np.lexsort(form.codes.T[::-1])
    return latnf.forms.SymmetricForm(form.points, form.codes[order], form.values[order])


def rows_of(form, select, factor=1.0):
    """A form of the rows ``select`` of ``form``, its values times ``factor``."""
    return latnf.forms.SymmetricForm(form.points, form.codes[select], form.values[select] * factor)


def joint_cases():
    """(name, forms, g): several forms of one degree bracketed with one G."""
    f, g = random_form(LINE, 4, 60, seed=50), random_form(LINE, 3, 40, seed=51)
    yield "nested supports", [f, real_form(rows_of(f, slice(None, None, 2), -0.3j))], g
    # a row and its conjugate row hold the same points: split by their sum
    parity = (f.codes >> 1).sum(axis=1) % 2 == 0
    yield "disjoint supports", [rows_of(f, parity), rows_of(f, ~parity)], g
    small = from_dict(LINE.points, 4, random_form(enumerate_lattice(1, 2.0), 4, 30, seed=52).coeffs)
    yield "a smaller support", [small, f, real_form(rows_of(small, [0, 3, 5], 2.0))], g
    yield "rows not in canonical order", [nls_quartic(LINE), f, canonical(f)], random_form(LINE, 4, 30, seed=10)
    yield "three forms", [random_form(LINE, 3, 40, seed=s) for s in (53, 54, 55)], random_form(LINE, 4, 40, seed=56)
    near = real_terms({canonical_key((((0,), 1), ((1,), -1), ((2,), 1))): 1.0, canonical_key((((0,), -1), ((1,), 1), ((1,), 1))): 0.5j})
    far = real_terms({canonical_key((((3,), 1), ((4,), 1), ((4,), -1))): 2.0})
    local = real_terms({canonical_key((((0,), 1), ((1,), 1), ((1,), -1))): 1.0, canonical_key((((0,), -1), ((2,), 1), ((2,), -1))): -1.5})
    yield "one form with no live pair", [near, far], local
    yield "no live pair at all", [far, far], local
    plane = enumerate_lattice(2, 10.0)
    wide = random_form(plane, 4, 150, seed=12)
    yield "wide keys", [wide, real_form(rows_of(wide, slice(None, 100), 3.0))], random_form(plane, 5, 150, seed=13)


@pytest.mark.parametrize("block", [latnf.forms.BLOCK, 97, 7])
def test_brackets_of_several_forms_match_their_one_form_brackets(monkeypatch, block):
    monkeypatch.setattr(latnf.forms, "BLOCK", block)
    assert [name for name, fs, g in joint_cases() if _wide(fs[0], g)] == ["wide keys"]
    for name, fs, g in joint_cases():
        for tol in (1e-14, 0.0):
            got = poisson_brackets(fs, g, tol=tol)
            assert len(got) == len(fs), name
            for f, out in zip(fs, got):
                want = poisson_bracket(f, g, tol=tol)
                assert out.degree == want.degree, name
                assert out.points == want.points, name
                assert np.array_equal(out.codes, want.codes), name
                bound = JOINT_RTOL * np.abs(want.values).max(initial=0.0)
                assert np.abs(out.values - want.values).max(initial=0.0) <= bound, name
            if "no live pair" in name:
                assert len(got[-1]) == 0, name
                assert (len(got[0]) > 0) == (name == "one form with no live pair"), name


@pytest.mark.parametrize("block", [latnf.forms.BLOCK, 97, 7])
def test_brackets_of_ascending_forms_keep_the_one_form_bits(monkeypatch, block):
    # each form's pairs meet a key in the order of its own bracket when its
    # rows ascend, and every key is summed from 0 in pair order, so its sums
    # are those of that bracket whatever the block size
    monkeypatch.setattr(latnf.forms, "BLOCK", block)
    f, g = canonical(random_form(LINE, 4, 60, seed=57)), random_form(LINE, 3, 40, seed=58)
    fs = [f, canonical(real_form(rows_of(f, slice(None, None, 3), 0.7))), canonical(random_form(LINE, 4, 50, seed=59))]
    for f, out in zip(fs, poisson_brackets(fs, g)):
        want = poisson_bracket(f, g)
        assert np.array_equal(out.codes, want.codes)
        assert np.array_equal(out.values.view(np.uint64), want.values.view(np.uint64))


def test_brackets_keep_their_bits_at_every_block_size(monkeypatch):
    # every key is its pair terms summed from 0 in pair order, so the block
    # size moves no bit: one form and several, one-word and wide keys
    cases = [(name, [f], g) for name, f, g in oracle_cases()] + list(joint_cases())
    assert {_wide(fs[0], g) for name, fs, g in cases} == {False, True}
    assert {len(fs) for name, fs, g in cases} > {1}
    results = []
    for block in (latnf.forms.BLOCK, 97, 7):
        monkeypatch.setattr(latnf.forms, "BLOCK", block)
        results.append([poisson_brackets(fs, g) for name, fs, g in cases])
    for (name, fs, g), *runs in zip(cases, *results):
        for got in runs[1:]:
            for out, want in zip(got, runs[0]):
                assert out.points == want.points, name
                assert np.array_equal(out.codes, want.codes), name
                assert np.array_equal(out.values.view(np.uint64), want.values.view(np.uint64)), name


def test_brackets_need_one_degree():
    with pytest.raises(ValueError, match="degrees \\[3, 4\\]"):
        poisson_brackets([random_form(LINE, 3, 5, seed=60), random_form(LINE, 4, 5, seed=61)], random_form(LINE, 3, 5, seed=62))


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
    fresh = from_dict(PLANE.points, out.degree, dict(out.coeffs))
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
    f = dict_random_form(LINE, 3, 20, seed=23, real=False)
    assert_same_rows(add_forms(empty, f, empty).coeffs, ref_add_forms(f))
    # 317 points: radix**7 overflows int64, so keys are row bytes
    plane = enumerate_lattice(2, 10.0)
    wide = dict_random_form(plane, 7, 300, seed=24, real=False), dict_random_form(plane, 7, 300, seed=25, real=False)
    terms = (wide[0], conjugate_form(wide[1]), wide[1], wide[0])
    assert_same_rows(add_forms(*terms).coeffs, ref_add_forms(*terms))


# --- builders ---------------------------------------------------------------


BUILDERS = {"quartic": (nls_quartic, dict_nls_quartic), "random": (random_form, dict_random_form)}
LINE8, PLANE3 = enumerate_lattice(1, 8.0), enumerate_lattice(2, 3.0)


@pytest.mark.parametrize(
    "kind,args",
    [("quartic", (LINE8, 1.0)), ("quartic", (LINE8, -12.0)), ("quartic", (PLANE3, 1.0))]
    + [
        ("random", (lattice, degree, 40, seed))
        for lattice in (LINE, PLANE)
        for degree in (3, 4)
        for seed in (1, 2, 3, 4)
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


def test_leading_points_in_blocks_match_one_block(monkeypatch):
    table = table_for(LINE)
    forms = [random_form(LINE, degree, 60, seed=63 + degree) for degree in (1, 2, 4)]
    want = [latnf.forms.leading_points(form, table)[1] for form in forms]
    monkeypatch.setattr(latnf.forms, "BLOCK", 7)
    for form, lead in zip(forms, want):
        assert len(form) > 7
        assert np.array_equal(latnf.forms.leading_points(form, table)[1], lead)


def test_norms_of_empty_forms_and_zero_modes():
    table = table_for(LINE)
    empty = from_dict(LINE.points, 3, {})
    assert localized_norm(empty, table, nu=2.0, smoothing=2.0) == 0.0
    assert vector_field_seminorm(empty, table, nu=2.0, smoothing=2.0) == 0.0
    zero_key = canonical_key((((0,), 1), ((0,), -1), ((0,), 1)))
    f = make_form(LINE.points, {zero_key: 1.0})
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
            got = state_dict(vector_field(form, state_array(state, lattice.points)), lattice.points)
            assert_same_terms({e: v for e, v in got.items() if v}, ref_vector_field(form, state))


def test_vector_field_of_empty_form():
    points = LINE.points
    assert not vector_field(zero_form(4), np.ones(2 * len(points), dtype=complex)).any()


# --- normal form ------------------------------------------------------------


def test_commutation_brackets_each_degree_of_a_bucket():
    lattice = enumerate_lattice(1, 8.0)
    table = build_spectrum(lattice, SpectralMultiplier(base=TorusLaplacian(), potential={(1,): 0.3}))
    bands = band_partition(table)
    clusters = build_clusters(table, 0.5, 1.0)
    a, b = (0,), (1,)
    actions4 = make_form(lattice.points, {canonical_key(((a, 1), (a, -1), (b, 1), (b, -1))): 1.0})
    actions6 = make_form(lattice.points, {canonical_key(((a, 1), (a, -1), (a, 1), (a, -1), (b, 1), (b, -1))): 2.0})
    z0 = poly_from_forms([actions4, actions6])
    assert z0.degrees == (4, 6)
    no_z2 = poly_from_forms([])
    buckets = {"Z0": z0, "ZB": z0, "Z2": no_z2}
    report = check_superaction_commutation(buckets, table, bands, clusters, 5.5)
    assert report.max_band_residual == 0.0
    assert report.max_block_residual == 0.0
    assert report.z2_bracket_norm == 0.0
    assert report == bracket_commutation(buckets, table, bands, clusters, 5.5)
    # a degree-6 part that moves mass between bands must register: count 2 of
    # coefficient 1, exact in the generic bracket too
    far = lattice.points[-1]
    moving = real_terms({canonical_key(((a, 1), (a, 1), (a, 1), (a, -1), (far, -1), (far, -1))): 1.0}, lattice.points)
    mixed = poly_from_forms([actions4, moving])
    buckets = {"Z0": mixed, "ZB": mixed, "Z2": no_z2}
    report = check_superaction_commutation(buckets, table, bands, clusters, 5.5)
    assert report.max_band_residual == 2.0
    assert report == bracket_commutation(buckets, table, bands, clusters, 5.5)


# --- dynamics ---------------------------------------------------------------


def _key(*entries):
    """Key of ``(coordinate, sign)`` entries on the line."""
    return tuple(((a,), sign) for a, sign in entries)


# Inputs of the kick, each a list of parts.  The kick reads each part's
# minus derivative rows, so the cases add odd degrees, runs of 2 and 3
# equal codes of either sign, minus rows on some points only, parts of
# different degrees side by side and parts of degree 1 and 2.  The rows
# hold 0 codes (degree 1), 1 (degree 2, not an action form), 2 (degree 3)
# and 3 or more: both paths of the kick, with and without the pair table.
KICK_CASES = [
    [nls_quartic(LINE, -3.0), random_form(LINE, 3, 40, seed=21)],
    [random_form(LINE, 5, 30, seed=24)],
    [make_form(LINE.points, {
        _key((1, 1), (1, 1), (2, -1), (2, -1), (2, -1)): 0.7 - 0.2j,
        _key((-1, -1), (-1, -1), (-1, -1), (3, 1), (0, -1)): 1.3,
        _key((0, 1), (0, -1), (0, -1), (4, -1), (4, -1)): -0.4j,
    })],
    [make_form(LINE.points, {
        _key((1, 1), (1, 1), (2, -1), (3, -1)): 0.9,
        _key((1, 1), (2, 1), (3, 1), (3, -1)): -0.3 + 0.1j,
    })],
    [nls_quartic(LINE, 2.0), dict_random_form(LINE, 6, 50, seed=25, real=False)],
    [make_form(LINE.points, {_key((2, -1)): 0.7, _key((1, 1)): 0.3j, _key((-3, -1)): -1.1})],
    [make_form(LINE.points, {
        _key((1, 1), (2, -1)): 0.8 - 0.3j,
        _key((-2, 1), (0, -1)): 1.1,
        _key((3, -1), (3, -1)): 0.5j,
        _key((0, 1), (4, 1)): -0.6,
    })],
]


def test_kick_and_energy_match_the_form_kernels():
    from latnf.dynamics import _PolyParts

    points = LINE.points
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
        poly = _PolyParts(forms, len(points))
        assert len(poly.flows) == len(forms) and not poly.actions
        rhs = poly.rhs(u)
        want = np.array([field.get((p, 1), 0j) for p in points])
        assert np.allclose(rhs, want, rtol=RTOL, atol=RTOL * np.abs(want).max())
        # points without a minus row get exactly zero
        assert not rhs[want == 0].any()
        energy = poly.energy(u)
        assert energy == pytest.approx(sum(evaluate(f, state) for f in forms).real, rel=RTOL)
    # a part with no minus variable has a zero kick and builds no table
    poly = _PolyParts([make_form(LINE.points, {_key((1, 1), (2, 1)): 1.0})], len(points))
    assert not poly.flows and not poly.actions
    assert not poly.rhs(u).any()


def dense_theta(forms, points, intensity):
    """The action angles as the kick once computed them: a rows x points
    exponent table, ``theta_a = sum_r e_ra c_r prod_b I_b^e_rb / I_a``."""
    exps, coeffs = [], []
    for f in forms:
        codes = f.codes
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
        forms.append(make_form(LINE.points, acc))
    poly = _PolyParts(forms, len(points))
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
