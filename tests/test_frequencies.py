import math
import re

import numpy as np
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
    spectrum_to_csv,
)

from conftest import FROZEN_POTENTIAL
from oracles import floor_comparability, frequency


def test_torus_frequencies_are_exact_integers():
    model = TorusLaplacian()
    [om] = model.omega([(3,)])
    assert om == 9 and isinstance(om, int)
    assert model.omega([(2, -3)]) == [13]
    lat = enumerate_lattice(1, 50.0)
    table = build_spectrum(lat, model)
    assert table.exact
    assert all(isinstance(v, int) for v in table.omegas)


def test_gram_matrix_quadratic_form():
    model = TorusLaplacian(gram=((2, 1), (1, 3)))
    # x^T G x at (1, -1): 2 - 1 - 1 + 3 = 3
    [om] = model.omega([(1, -1)])
    assert om == 3 and isinstance(om, int)


def test_offset_breaks_exactness():
    lat = enumerate_lattice(1, 3.0, offset=[0.5])
    table = build_spectrum(lat, TorusLaplacian())
    assert not table.exact
    assert table.omega((1,)) == pytest.approx(2.25)


def test_multiplier_adds_potential():
    base = TorusLaplacian()
    model = SpectralMultiplier(base=base, potential={(2,): 0.125})
    assert model.omega([(2,), (3,)]) == [4.125, 9.0]


def test_ground_state_formula_and_positivity():
    eig = {(0,): 0.0, (1,): 1.0, (2,): 4.0}
    model = GroundState(base=TorusLaplacian(), f_value=1.0)
    for p, lam in eig.items():
        assert model.omega([p]) == [pytest.approx(math.sqrt(lam * lam + 2.0 * lam))]
    sick = GroundState(base=TorusLaplacian(), f_value=-1.0)
    with pytest.raises(ValueError, match=r"positivity violated at \(1,\)"):
        sick.omega([(0,), (1,), (2,), (3,)])


def test_beam_formula():
    model = Beam(base=TorusLaplacian(), mass=19.0)
    assert model.omega([(3,)]) == [pytest.approx(10.0)]
    light = Beam(base=TorusLaplacian(), mass=-5.0)
    with pytest.raises(ValueError, match=r"positivity violated at \(-1,\): lambda\^2 \+ m = -4.0 < 0"):
        light.omega([(-3,), (-1,), (0,)])


def test_table_model_passthrough():
    model = TableModel(values={(0,): 0.25}, beta=1.0)
    assert model.omega([(0,)]) == [0.25]
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
    fit = fit_asymptotics(table)
    assert fit.passed
    assert fit.c1 == pytest.approx(1.0, rel=1e-12)
    assert fit.c2 <= 1e-9


def test_fit_asymptotics_flags_outer_growth():
    lat = enumerate_lattice(1, 30.0)
    vals = {
        p: float(p[0] ** 2) + 10.0 * max(0, abs(p[0]) - 20) ** 2 for p in lat.points
    }
    table = build_spectrum(lat, TableModel(values=vals, beta=2.0))
    fit = fit_asymptotics(table)
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
    plus, minus = TorusLaplacian().omega([(a, b), (-a, -b)])
    assert plus == minus


# --- the models' point-array evaluation against the per-point ladder -------------

GRAMS = {
    1: {"identity": None, "integer": ((3,),), "float": ((1.7,),)},
    2: {
        "identity": None,
        "integer": ((2, 1), (1, 3)),
        "float": ((1.0, 0.3), (0.3, 1.4)),
    },
    3: {
        "identity": None,
        "integer": ((2, 1, 0), (1, 2, 1), (0, 1, 3)),
        "float": ((1.0, 0.2, 0.1), (0.2, 1.3, 0.0), (0.1, 0.0, 0.9)),
    },
}
RADII = {1: 8.0, 2: 5.0, 3: 3.0}


def _models(lattice, gram):
    """One model of every class, and the multiplier with and without a potential."""
    torus = TorusLaplacian(gram=gram)
    potential = {p: 0.0625 * (i % 7) for i, p in enumerate(lattice.points) if i % 3}
    values = {p: frequency(torus, p) + 0.5 * (i % 2) for i, p in enumerate(lattice.points)}
    return {
        "torus": torus,
        "multiplier": SpectralMultiplier(base=torus, potential=potential),
        "bare multiplier": SpectralMultiplier(base=torus),
        "beam": Beam(base=torus, mass=2.5),
        "ground state": GroundState(base=torus, f_value=0.25),
        "table": TableModel(values=values, beta=2.0),
    }


def _exact(values):
    """Value bits and Python type of each frequency."""
    return [(repr(v), type(v)) for v in values]


@pytest.mark.parametrize("offset", [0.0, 0.5, 0.25])
@pytest.mark.parametrize("gram", ["identity", "integer", "float"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_point_array_omegas_match_the_per_point_ladder(dim, gram, offset):
    lattice = enumerate_lattice(dim, RADII[dim], offset=[offset] * dim if offset else None)
    points = np.asarray(lattice.points)
    for name, model in _models(lattice, GRAMS[dim][gram]).items():
        want = [frequency(model, p, lattice.offset) for p in lattice.points]
        assert _exact(model.omega(points, lattice.offset)) == _exact(want), name
        table = build_spectrum(lattice, model)
        want = [frequency(model, p, lattice.offset) for p in table.points]
        assert _exact(table.omegas) == _exact(want), name
        assert table.exact == all(isinstance(v, int) for v in want), name
    exact = gram != "float" and not offset
    assert build_spectrum(lattice, TorusLaplacian(gram=GRAMS[dim][gram])).exact == exact


GRID_CASES = {
    "nls": dict(model="nls"),
    "multiplier": dict(model="nls", potential={(0,): 0.05, (1,): -0.2, (-3,): 0.03}),
    "beam": dict(model="beam", mass_term=1.5),
}


@pytest.mark.parametrize("gram", ["identity", "integer", "float"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_omega_matches_the_per_point_ladder_bit_for_bit(case, dim, gram):
    from latnf.dynamics import SimulationConfig, _system

    fields = dict(GRID_CASES[case])
    if "potential" in fields:
        fields["potential"] = {p * dim: v for p, v in fields["potential"].items()}
    config = SimulationConfig(dim=dim, radius=8.0 if dim == 1 else 3.0, gram=GRAMS[dim][gram], **fields)
    system = _system(config, 4)
    model = system.table.model
    want = np.asarray([float(frequency(model, tuple(map(int, k)))) for k in system.grid.freqs])
    assert system.omega.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "gram, message",
    [(((1, 2), (0, 1)), "symmetric"), (((1, 0), (0, -1)), "positive definite")],
)
def test_a_bad_gram_matrix_is_refused_when_the_model_is_built(gram, message):
    with pytest.raises(ValueError, match=f"Gram matrix must be {message}"):
        TorusLaplacian(gram=gram)


@pytest.mark.parametrize(
    "gram, points, shape",
    [(((1, 0), (0, 1)), [(1,)], "(2, 2)"), (((1, 2, 3), (4, 5, 6)), [(1, 2)], "(2, 3)")],
)
def test_a_gram_matrix_of_the_wrong_shape_is_refused_at_evaluation(gram, points, shape):
    model = TorusLaplacian(gram=gram)
    message = f"Gram matrix shape {shape} does not match d={len(points[0])}"
    with pytest.raises(ValueError, match=re.escape(message)):
        model.omega(points)
