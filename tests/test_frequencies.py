import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latnf import (
    Beam,
    GroundState,
    SpectralMultiplier,
    TableModel,
    TorusLaplacian,
    build_spectrum,
    enumerate_lattice,
    fit_asymptotics,
    frequency,
    spectrum_to_csv,
)

from conftest import FROZEN_POTENTIAL
from oracles import floor_comparability


def test_torus_frequencies_are_exact_integers():
    model = TorusLaplacian()
    om = frequency(model, (3,))
    assert om == 9 and isinstance(om, int)
    assert frequency(model, (2, -3)) == 13
    lat = enumerate_lattice(1, 50.0)
    table = build_spectrum(lat, model)
    assert table.exact
    assert all(isinstance(v, int) for v in table.omegas)


def test_gram_matrix_quadratic_form():
    model = TorusLaplacian(gram=((2, 1), (1, 3)))
    # x^T G x at (1, -1): 2 - 1 - 1 + 3 = 3
    assert frequency(model, (1, -1)) == 3
    assert isinstance(frequency(model, (1, -1)), int)


def test_offset_breaks_exactness():
    lat = enumerate_lattice(1, 3.0, offset=[0.5])
    table = build_spectrum(lat, TorusLaplacian())
    assert not table.exact
    assert table.omega((1,)) == pytest.approx(2.25)


def test_multiplier_adds_potential():
    base = TorusLaplacian()
    model = SpectralMultiplier(base=base, potential={(2,): 0.125})
    assert frequency(model, (2,)) == pytest.approx(4.125)
    assert frequency(model, (3,)) == 9


def test_ground_state_formula_and_positivity():
    eig = {(0,): 0.0, (1,): 1.0, (2,): 4.0}
    model = GroundState(base=TorusLaplacian(), f_value=1.0)
    for p, lam in eig.items():
        assert frequency(model, p) == pytest.approx(math.sqrt(lam * lam + 2.0 * lam))
    sick = GroundState(base=TorusLaplacian(), f_value=-1.0)
    with pytest.raises(ValueError, match="positivity"):
        frequency(sick, (1,))


def test_beam_formula():
    model = Beam(base=TorusLaplacian(), mass=19.0)
    assert frequency(model, (3,)) == pytest.approx(10.0)


def test_table_model_passthrough():
    model = TableModel(values={(0,): 0.25}, beta=1.0)
    assert frequency(model, (0,)) == 0.25
    assert build_spectrum(enumerate_lattice(1, 0.5), model).floor((0,)) == 0.25


def test_floor_norm_is_identity_on_the_torus():
    model = TorusLaplacian()
    assert build_spectrum(enumerate_lattice(1, 7.0), model).floor((7,)) == pytest.approx(7.0)
    assert build_spectrum(enumerate_lattice(2, 5.0), model).floor((3, 4)) == pytest.approx(5.0)


def test_spectrum_sorted_by_omega_then_point(certified_table):
    pairs = [(float(certified_table.omega(p)), p) for p in certified_table.points]
    assert pairs == sorted(pairs)


def test_certified_table_matches_frozen_potential(certified_table):
    for p, v in FROZEN_POTENTIAL.items():
        assert certified_table.omega(p) == pytest.approx(p[0] ** 2 + v, abs=0.0)


def test_table_lookup_consistency(torus_table):
    for p in torus_table.points:
        assert torus_table.floor(p) == pytest.approx(torus_table.norm(p))
    assert len(torus_table) == 17


def test_fit_asymptotics_recovers_the_power_law():
    lat = enumerate_lattice(2, 12.0)
    table = build_spectrum(lat, TorusLaplacian())
    fit = fit_asymptotics(TorusLaplacian(), table)
    assert fit.passed
    assert fit.c1 == pytest.approx(1.0, rel=1e-12)
    assert fit.c2 <= 1e-9


def test_fit_asymptotics_flags_outer_growth():
    lat = enumerate_lattice(1, 30.0)
    vals = {
        p: float(p[0] ** 2) + 10.0 * max(0, abs(p[0]) - 20) ** 2 for p in lat.points
    }
    table = build_spectrum(lat, TableModel(values=vals, beta=2.0))
    fit = fit_asymptotics(TableModel(values=vals, beta=2.0), table)
    assert not fit.passed
    assert fit.outer_max > 2.0 * fit.inner_max


def test_floor_comparability_bounds(certified_table):
    lo, hi = floor_comparability(certified_table)
    assert 0.5 < lo <= hi < 1.5
    with pytest.raises(ValueError):
        floor_comparability(
            build_spectrum(enumerate_lattice(1, 0.5), TorusLaplacian())
        )


def test_spectrum_csv_round_trip(tmp_path, torus_table):
    path = tmp_path / "spectrum.csv"
    spectrum_to_csv(torus_table, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(torus_table) + 1
    header = lines[0].split(",")
    assert "omega" in header


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_frequency_symmetry_under_negation(a, b):
    model = TorusLaplacian()
    assert frequency(model, (a, b)) == frequency(model, (-a, -b))
