import itertools
import math

import numpy as np
import pytest

from latnf import (
    TorusLaplacian,
    build_spectrum,
    enumerate_lattice,
    localized_norm,
    random_form,
    zero_form,
)

from estimates import (
    high_order_decay,
    random_state,
    separation_cutoff_bound,
    verify_bilinear_eigen,
    verify_tame,
)
from oracles import dict_sobolev_norm, dict_vector_field, make_form, polarized_vector_field


LAT = enumerate_lattice(1, 8.0)
TABLE = build_spectrum(LAT, TorusLaplacian())


def all_signed_triples(lattice):
    keys = set()
    for trip in itertools.combinations_with_replacement(lattice.points, 3):
        for signs in itertools.product((1, -1), repeat=3):
            keys.add(tuple(sorted(zip(trip, signs), key=lambda e: (e[0], -e[1]))))
    return sorted(keys)


def test_random_state_envelope_is_deterministic():
    a = random_state(TABLE, np.random.default_rng(4), decay=2.0)
    b = random_state(TABLE, np.random.default_rng(4), decay=3.0)
    for (p, sign), v in a.items():
        assert b[(p, sign)] == pytest.approx(v * (1.0 + abs(p[0])) ** (-1.0))
    c = random_state(TABLE, np.random.default_rng(4), decay=2.0, amplitude=2.0)
    assert c[((3,), 1)] == pytest.approx(2.0 * a[((3,), 1)])


def test_tame_parameter_validation():
    f = random_form(LAT, 3, n_terms=4, seed=0)
    with pytest.raises(ValueError):
        verify_tame(f, TABLE, nu=2.0, smoothing=8.0, s=3.4, s0=3.0)
    with pytest.raises(ValueError):
        verify_tame(f, TABLE, nu=2.0, smoothing=4.0, s=4.0, s0=3.75)
    with pytest.raises(ValueError):
        verify_tame(f, TABLE, nu=2.0, smoothing=8.0, s=4.0, s0=3.4)
    with pytest.raises(ValueError):
        verify_tame(f, TABLE, nu=2.0, smoothing=8.0, s=4.0, s0=4.0)


def test_tame_zero_form():
    rep = verify_tame(zero_form(3), TABLE, nu=2.0, smoothing=6.0, s=4.0, s0=3.75)
    assert rep.constant == 0.0


def test_tame_reproducible_and_positive():
    f = random_form(LAT, 4, n_terms=6, seed=3)
    kw = dict(nu=2.0, smoothing=7.0, s=4.5, s0=3.8, trials=10, seed=11)
    a = verify_tame(f, TABLE, **kw)
    b = verify_tame(f, TABLE, **kw)
    assert a.constant == b.constant > 0.0
    assert (a.n_trials, a.s, a.s0) == (10, 4.5, 3.8)


def test_tame_single_quadratic_closed_form():
    """One off-diagonal quadratic coefficient: the ratio on a one-mode state
    is (1+5)^s/(1+2)^s divided by the form norm, and that value is the exact
    supremum, so the sampled constant must stay below it."""
    f = make_form(LAT.points, {((((2,), 1), ((5,), -1))): 1.0})
    norm_f = localized_norm(f, TABLE, nu=2.0, smoothing=6.0)
    assert norm_f == pytest.approx(5.0**6 / (2.0 * 2.0**8))
    u = {((2,), 1): 0.3 + 0.4j}
    x = dict_vector_field(f, u)
    assert set(x) == {((5,), 1)}
    ratio = dict_sobolev_norm(x, LAT, 4.0) / (norm_f * dict_sobolev_norm(u, LAT, 4.0))
    assert ratio == pytest.approx(2.0**4 / norm_f)
    rep = verify_tame(f, TABLE, nu=2.0, smoothing=6.0, s=4.0, s0=3.75, trials=30, seed=0)
    assert 0.0 < rep.constant <= ratio * (1.0 + 1e-12)


def test_polarized_field_diagonal_identity(rng):
    f = random_form(LAT, 3, n_terms=5, seed=42)
    u = {}
    for p in LAT.points:
        for sign in (1, -1):
            u[(p, sign)] = complex(rng.standard_normal(), rng.standard_normal())
    xa = dict_vector_field(f, u)
    xb = polarized_vector_field(f, [u, u])
    for k in set(xa) | set(xb):
        assert xa.get(k, 0j) == pytest.approx(xb.get(k, 0j))


def test_tame_inequality_on_one_mode_states():
    """Inputs on one mode each leave a single output component; the tame
    inequality reduces to one term and holds with constant far below 1."""
    f = make_form(LAT.points, {((((1,), 1), ((2,), 1), ((3,), -1))): 1.0})
    u1 = {((2,), 1): 0.7}
    u2 = {((3,), -1): 0.5}
    x = polarized_vector_field(f, [u1, u2])
    assert set(x) == {((1,), -1)}
    assert x[((1,), -1)] == pytest.approx(0.5 * 0.7 * 0.5j)
    lhs = dict_sobolev_norm(x, LAT, 4.0)
    assert lhs == pytest.approx(2.0**4 * 0.175)
    norm_f = localized_norm(f, TABLE, nu=2.0, smoothing=6.0)
    rhs = norm_f * (
        dict_sobolev_norm(u1, LAT, 4.0) * dict_sobolev_norm(u2, LAT, 3.75)
        + dict_sobolev_norm(u2, LAT, 4.0) * dict_sobolev_norm(u1, LAT, 3.75)
    )
    assert lhs <= rhs


def test_bilinear_exhaustive_triples():
    """ghat(m) = e^{-|m|} against every signed triple with |a| <= 8.

    The worst key pairs the two extreme modes with a zero mode so the signed
    sum cancels; its ratio is exactly S^2 = 17^2 and the fitted constant
    e^{-5} 6^6 dominates it at nu=4."""
    g = {(m,): math.exp(-abs(m)) for m in range(-24, 25)}
    keys = all_signed_triples(LAT)
    rep = verify_bilinear_eigen(g, keys, TABLE, nu=4.0, smoothing=2.0)
    assert rep.n_checked == len(keys) == 7140
    assert rep.worst_ratio == pytest.approx(289.0)
    assert set(p for p, _ in rep.worst_key) == {(-8,), (0,), (8,)}
    assert rep.fitted_constant == pytest.approx(math.exp(-5.0) * 6.0**6)
    assert rep.passed


def test_bilinear_detects_violation_at_small_nu():
    g = {(m,): math.exp(-abs(m)) for m in range(-24, 25)}
    keys = all_signed_triples(LAT)
    rep = verify_bilinear_eigen(g, keys, TABLE, nu=2.0, smoothing=2.0)
    assert rep.worst_ratio == pytest.approx(289.0)
    assert not rep.passed


def test_bilinear_constant_symbol():
    g1 = {(0,): 1.0}
    rep = verify_bilinear_eigen(g1, [((((3,), 1), ((4,), 1)))], TABLE, nu=2.0, smoothing=2.0)
    assert rep.worst_ratio == 0.0 and rep.passed and rep.worst_key is None
    rep = verify_bilinear_eigen(g1, [((((-6,), 1), ((6,), 1)))], TABLE, nu=2.0, smoothing=2.0)
    assert rep.worst_ratio == pytest.approx(18.0**2 / 6.0**4)


def test_bilinear_needs_plain_torus():
    off = enumerate_lattice(1, 4.0, offset=(0.5,))
    t = build_spectrum(off, TorusLaplacian())
    with pytest.raises(ValueError):
        verify_bilinear_eigen({(0,): 1.0}, [], t, nu=2.0, smoothing=2.0)


def test_separation_bound_exact_for_lifted_keys():
    """With the third entry at the origin the per-key algebra gives the
    bound whenever the top distance exceeds cutoff**delta."""
    f = make_form(LAT.points, {((((-8,), -1), ((0,), 1), ((8,), 1))): 2.0})
    rep = separation_cutoff_bound(
        f, TABLE, 4.0, 0.5, nu=2.0, smoothing=2.0, smoothing_high=4.0, zero_mode="lift"
    )
    assert rep.support_ok and rep.passed
    assert rep.lhs <= rep.rhs
    assert rep.lhs == pytest.approx(rep.rhs * (2.0 / 17.0) ** 2)


def test_separation_bound_flags_close_support():
    close = (((0,), 1), ((4,), -1), ((5,), 1))
    f = make_form(LAT.points, {close: 1.0})
    rep = separation_cutoff_bound(
        f, TABLE, 16.0, 0.5, nu=2.0, smoothing=2.0, smoothing_high=4.0, zero_mode="lift"
    )
    assert not rep.support_ok and not rep.passed
    # one close key among separated ones is enough
    g = make_form(LAT.points, {(((-8,), -1), ((0,), 1), ((8,), 1)): 2.0, close: 1.0})
    rep = separation_cutoff_bound(
        g, TABLE, 16.0, 0.5, nu=2.0, smoothing=2.0, smoothing_high=4.0, zero_mode="lift"
    )
    assert not rep.support_ok and not rep.passed


def test_separation_bound_validation():
    f = make_form(LAT.points, {((((0,), 1), ((8,), -1))): 1.0})
    with pytest.raises(ValueError):
        separation_cutoff_bound(
            f, TABLE, 4.0, 0.5, nu=2.0, smoothing=4.0, smoothing_high=2.0, zero_mode="lift"
        )


def test_high_order_decay_slope():
    lat = enumerate_lattice(1, 24.0)
    table = build_spectrum(lat, TorusLaplacian())
    rep = high_order_decay(
        table, [4.0, 6.0, 8.0, 11.0, 15.0, 20.0], s=4.0, s0=3.0, degree=4, high_order=3
    )
    assert rep.slope < -0.5  # at least half the promised s - s0 rate
    assert all(a > b for a, b in zip(rep.sups, rep.sups[1:]))
    assert rep.cutoffs == (4.0, 6.0, 8.0, 11.0, 15.0, 20.0)


def test_high_order_decay_validation():
    lat = enumerate_lattice(1, 24.0)
    table = build_spectrum(lat, TorusLaplacian())
    with pytest.raises(ValueError):
        high_order_decay(table, [4.0], s=4.0, s0=3.0, degree=4, high_order=2)
    with pytest.raises(ValueError):
        high_order_decay(table, [30.0], s=4.0, s0=3.0)
