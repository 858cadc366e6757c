import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import (
    add_forms,
    band_superactions,
    canonical_key,
    conjugate_form,
    form_to_jsonl,
    enumerate_lattice,
    localized_norm,
    nls_quartic,
    poisson_bracket,
    poly_from_forms,
    quadratic_hamiltonian,
    random_form,
    scale_form,
    scaled_norm,
    sobolev_norm,
    superaction_form,
    vector_field,
    zero_form,
)

from oracles import (
    decompose_by_high_order,
    evaluate,
    form_from_jsonl,
    is_real_coefficients,
    make_form,
    polarized_evaluate,
    split_state,
)


LAT = enumerate_lattice(1, 4.0)


def random_state_dict(rng, lattice=LAT, amplitude=1.0):
    state = {}
    for p in lattice.points:
        for s in (1, -1):
            state[(p, s)] = amplitude * complex(rng.standard_normal(), rng.standard_normal())
    return state


def test_make_form_merges_duplicates():
    key = canonical_key((((1,), 1), ((0,), -1)))
    f = make_form([(key, 1.0), (tuple(reversed(key)), 2.0)])
    assert f.coeffs == {key: 3.0}
    assert f.degree == 2


def test_make_form_drops_below_tolerance():
    key = canonical_key((((1,), 1), ((0,), -1)))
    f = make_form({key: 1e-300}, degree=2)
    assert f.coeffs == {}
    assert zero_form(3).degree == 3
    with pytest.raises(ValueError):
        make_form({key: 1e-300})


def test_evaluate_by_brute_force(rng):
    f = random_form(LAT, 3, n_terms=6, seed=1)
    u = random_state_dict(rng)
    expected = 0j
    for key, c in f.coeffs.items():
        prod = c
        for entry in key:
            prod *= u[entry]
        expected += prod
    assert evaluate(f, u) == pytest.approx(expected)


def test_polarized_evaluate_restores_diagonal(rng):
    f = random_form(LAT, 3, n_terms=5, seed=2)
    u = random_state_dict(rng)
    assert polarized_evaluate(f, [u, u, u]) == pytest.approx(evaluate(f, u))


def test_polarized_evaluate_is_symmetric(rng):
    f = random_form(LAT, 3, n_terms=5, seed=3)
    states = [random_state_dict(rng) for _ in range(3)]
    base = polarized_evaluate(f, states)
    assert polarized_evaluate(f, states[::-1]) == pytest.approx(base)


def test_vector_field_is_the_gradient(rng):
    """Each component of X_F equals -i sigma_B dF/du_conj(B), checked by
    central differences of evaluate."""
    f = random_form(LAT, 4, n_terms=5, seed=4)
    u = random_state_dict(rng)
    x = vector_field(f, u)
    h = 1e-6
    for entry in itertools.islice(x, 8):
        target = (entry[0], -entry[1])
        up, dn = dict(u), dict(u)
        up[target] = u[target] + h
        dn[target] = u[target] - h
        deriv = (evaluate(f, up) - evaluate(f, dn)) / (2 * h)
        assert x[entry] == pytest.approx(-1j * entry[1] * deriv, rel=1e-5, abs=1e-8)


def test_conjugate_form_matches_conjugate_evaluation(rng):
    f = random_form(LAT, 3, n_terms=6, seed=5, real=False)
    u = random_state_dict(rng)
    uc = {(p, -s): np.conj(v) for (p, s), v in u.items()}
    lhs = evaluate(conjugate_form(f), uc)
    assert lhs == pytest.approx(np.conj(evaluate(f, u)))


def test_real_form_takes_real_values_on_real_states(rng):
    f = random_form(LAT, 4, n_terms=8, seed=6, real=True)
    assert conjugate_form(f).coeffs == pytest.approx(f.coeffs)
    plus = {p: complex(rng.standard_normal(), rng.standard_normal()) for p in LAT.points}
    state = {}
    for p, v in plus.items():
        state[(p, 1)] = v
        state[(p, -1)] = np.conj(v)
    val = evaluate(f, state)
    assert abs(val.imag) < 1e-12 * (1.0 + abs(val))


def test_poisson_bracket_antisymmetry(rng):
    f = random_form(LAT, 3, n_terms=5, seed=7)
    g = random_form(LAT, 4, n_terms=5, seed=8)
    lhs = poisson_bracket(f, g, tol=0.0)
    rhs = scale_form(poisson_bracket(g, f, tol=0.0), -1.0)
    for key in set(lhs.coeffs) | set(rhs.coeffs):
        assert lhs.coeffs.get(key, 0j) == pytest.approx(rhs.coeffs.get(key, 0j))


def test_poisson_bracket_degree_arithmetic():
    f = random_form(LAT, 3, n_terms=3, seed=9)
    g = random_form(LAT, 5, n_terms=3, seed=10)
    assert poisson_bracket(f, g).degree == 6


def test_bracket_matches_flow_derivative(rng):
    """{F, G}(u) equals the t-derivative of F along the G-flow at t=0."""
    f = random_form(LAT, 3, n_terms=6, seed=11)
    g = random_form(LAT, 4, n_terms=6, seed=12)
    u = random_state_dict(rng, amplitude=0.4)
    bracket = evaluate(poisson_bracket(f, g, tol=0.0), u)
    h = 1e-6
    x = vector_field(g, u)
    up = {k: v + h * x.get(k, 0j) for k, v in u.items()}
    dn = {k: v - h * x.get(k, 0j) for k, v in u.items()}
    fd = (evaluate(f, up) - evaluate(f, dn)) / (2 * h)
    assert fd == pytest.approx(bracket, rel=1e-5)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_jacobi_identity(seed):
    f = random_form(LAT, 3, n_terms=3, seed=seed)
    g = random_form(LAT, 3, n_terms=3, seed=seed + 20_000)
    h = random_form(LAT, 4, n_terms=3, seed=seed + 40_000)
    total = add_forms(
        poisson_bracket(f, poisson_bracket(g, h, tol=0.0), tol=0.0),
        poisson_bracket(g, poisson_bracket(h, f, tol=0.0), tol=0.0),
        poisson_bracket(h, poisson_bracket(f, g, tol=0.0), tol=0.0),
        tol=0.0,
    )
    scale = max(
        [abs(c) for c in f.coeffs.values()]
        + [abs(c) for c in g.coeffs.values()]
        + [abs(c) for c in h.coeffs.values()]
        + [1.0]
    )
    resid = max((abs(c) for c in total.coeffs.values()), default=0.0)
    assert resid <= 1e-10 * scale**3


def test_quadratic_hamiltonian_flows_phases(certified_table):
    h0 = quadratic_hamiltonian(certified_table)
    u = {((2,), 1): 0.5 + 0.1j, ((2,), -1): 0.5 - 0.1j}
    x = vector_field(h0, u)
    om = float(certified_table.omega((2,)))
    assert x[((2,), 1)] == pytest.approx(-1j * om * u[((2,), 1)])
    assert x[((2,), -1)] == pytest.approx(1j * om * u[((2,), -1)])


def test_superactions_commute_with_the_quadratic_part(certified_table, certified_bands):
    h0 = quadratic_hamiltonian(certified_table)
    for j in band_superactions(certified_table, certified_bands):
        br = poisson_bracket(h0, j, tol=0.0)
        assert max((abs(c) for c in br.coeffs.values()), default=0.0) == 0.0


def test_mass_commutes_with_momentum_conserving_quartic(certified_table):
    q = nls_quartic(certified_table.lattice)
    m = superaction_form(certified_table.lattice.points)
    br = poisson_bracket(m, q, tol=0.0)
    assert max((abs(c) for c in br.coeffs.values()), default=0.0) <= 1e-14


def test_nls_quartic_structure():
    lat = enumerate_lattice(1, 8.0)
    q = nls_quartic(lat, coupling=2.0)
    assert len(q.coeffs) == 897
    assert is_real_coefficients(q)
    for key in q.coeffs:
        total = sum(s * p[0] for p, s in key)
        signs = sum(s for _, s in key)
        assert total == 0 and signs == 0


def test_localized_norm_monotone_under_restriction(certified_table):
    f = random_form(certified_table.lattice, 4, n_terms=12, seed=13)
    sub = make_form(
        dict(itertools.islice(f.coeffs.items(), len(f.coeffs) // 2)), degree=4
    )
    kw = dict(nu=2.0, smoothing=2.0, zero_mode="lift")
    assert localized_norm(sub, certified_table, **kw) <= localized_norm(
        f, certified_table, **kw
    ) * (1 + 1e-12)


def test_scaled_norm_power(certified_table):
    f = random_form(certified_table.lattice, 3, n_terms=5, seed=14)
    kw = dict(nu=2.0, smoothing=2.0, zero_mode="lift")
    base = localized_norm(f, certified_table, **kw)
    assert scaled_norm(f, certified_table, 0.5, **kw) == pytest.approx(base * 0.5**3)


def test_sobolev_norm_oracle():
    lat = enumerate_lattice(1, 3.0)
    state = {((2,), 1): 3.0, ((2,), -1): 3.0, ((0,), 1): 4.0}
    expected = math.sqrt(9.0 * 3.0**8 + 9.0 * 3.0**8 + 16.0)
    assert sobolev_norm(state, lat, 4.0) == pytest.approx(expected)


def test_split_state_by_floor(certified_table):
    state = {((p, 1)): 1.0 for p in certified_table.lattice.points}
    low, high = split_state(state, certified_table, 5.5)
    assert all(certified_table.floor(p) <= 5.5 for (p, _) in low)
    assert all(certified_table.floor(p) > 5.5 for (p, _) in high)
    assert len(low) + len(high) == len(state)


def test_decompose_by_high_order_partitions(certified_table):
    f = random_form(certified_table.lattice, 4, n_terms=20, seed=15)
    parts = decompose_by_high_order(f, certified_table, 5.5)
    recombined = add_forms(*parts.values(), tol=0.0) if parts else zero_form(4)
    assert recombined.coeffs == pytest.approx(f.coeffs)


def test_jsonl_round_trip(tmp_path):
    f = random_form(LAT, 4, n_terms=9, seed=16, real=False)
    path = tmp_path / "form.jsonl"
    form_to_jsonl(f, path)
    g = form_from_jsonl(path)
    assert g.degree == f.degree
    assert g.coeffs == f.coeffs


@pytest.mark.parametrize("dim,radius,degree", [(1, 4.0, 0), (1, 4.0, 1), (1, 4.0, 4), (2, 10.0, 7)])
def test_jsonl_rows_follow_sorted_keys(tmp_path, dim, radius, degree):
    # on the plane, degree 7 overflows the int64 row keys
    f = random_form(enumerate_lattice(dim, radius), degree, n_terms=60, seed=degree, real=False)
    path = tmp_path / "form.jsonl"
    form_to_jsonl(f, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert len(rows) == len(f) > 0
    assert [tuple((tuple(p), s) for p, s in row["key"]) for row in rows] == sorted(f.coeffs)


def test_random_form_determinism():
    a = random_form(LAT, 3, n_terms=7, seed=17)
    b = random_form(LAT, 3, n_terms=7, seed=17)
    assert a.coeffs == b.coeffs
    assert len(a.coeffs) <= 14  # symmetrization can double the support


def test_poly_from_forms_collects_degrees():
    f3 = random_form(LAT, 3, n_terms=3, seed=18)
    f4 = random_form(LAT, 4, n_terms=3, seed=19)
    poly = poly_from_forms([f3, f4])
    assert poly.degrees == (3, 4)
    assert poly.part(3).coeffs == f3.coeffs


def test_superaction_form_evaluates_to_mode_mass():
    j = superaction_form([(1,), (2,)])
    u = {((1,), 1): 2.0 + 1j, ((1,), -1): 2.0 - 1j, ((2,), 1): 1j, ((2,), -1): -1j}
    assert evaluate(j, u) == pytest.approx(5.0 + 1.0)


def test_packed_derivatives_multiplicity():
    key = canonical_key((((1,), 1), ((1,), 1), ((0,), -1)))
    form = make_form({key: 2.0})
    var, rows, coef = form.derivatives
    plus_one = form.entries.index(((1,), 1))
    assert var.tolist().count(plus_one) == 1
    i = var.tolist().index(plus_one)
    assert coef[i] == 4.0  # 2 * multiplicity 2
    reduced = tuple(form.entries[c] for c in rows[i].tolist())
    assert reduced == canonical_key((((1,), 1), ((0,), -1)))
