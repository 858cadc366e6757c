import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from latnf import (
    SimulationConfig,
    band_of,
    enumerate_lattice,
    integrate_beam,
    integrate_nls,
    integrate_normal_form,
    nls_quartic,
    orbital_distance,
    stability_experiment,
    trajectory_to_csv,
)
from latnf.dynamics import five_smooth

from oracles import bogoliubov, ground_state_reduce, make_form, reconstruct_ground_state


def brute_five_smooth(n):
    m = max(1, n)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def test_five_smooth_oracle():
    for n in range(1, 200):
        assert five_smooth(n) == brute_five_smooth(n)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(model="wave")
    with pytest.raises(ValueError):
        SimulationConfig(integrator="euler")
    with pytest.raises(ValueError):
        SimulationConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        SimulationConfig(horizon=0.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        SimulationConfig(dt=0.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        SimulationConfig(dt=-0.01)
    with pytest.raises(ValueError):
        SimulationConfig(stride=0)
    with pytest.raises(ValueError):
        SimulationConfig(nonlinearity={0: 1.0})
    with pytest.raises(ValueError):
        SimulationConfig(model="beam", force={2: 1.0})
    with pytest.raises(ValueError):
        SimulationConfig(model="beam", mass_term=0.0)


def test_beam_config_refuses_a_nonlinearity():
    # the beam's nonlinear term is ``force``; it would ignore the NLS map
    with pytest.raises(ValueError, match="reads no nonlinearity"):
        SimulationConfig(model="beam", nonlinearity={1: -12.0})
    with pytest.raises(ValueError, match="reads no nonlinearity"):
        SimulationConfig(model="beam", nonlinearity={})
    # the default map set explicitly cannot be told apart from the default
    assert SimulationConfig(model="beam", nonlinearity={1: 1.0}).nonlinearity == {1: 1.0}


@pytest.mark.parametrize(
    "kwargs",
    [{"nonlinearity": {1: -2.0, 2: {(0,): 0.5, (1,): 0.1}}},
     {"model": "beam", "force": {3: 0.1, 5: {(0,): 0.02}}},
     {"nonlinearity": {1: 1.0 + 0.5j}}],
)
def test_coefficients_are_real_numbers(kwargs):
    # the config reads every coefficient as a float: no command sends a Fourier dict
    with pytest.raises(ValueError, match="coefficients are real numbers"):
        SimulationConfig(**kwargs)


def test_dt_stability_guard():
    cfg = SimulationConfig(radius=8.0, dt=0.5, horizon=1.0)
    with pytest.raises(ValueError, match="stability bound"):
        integrate_nls(cfg)


@pytest.mark.parametrize("nonlinearity", [{1: 0.0}, {}], ids=["zero", "empty"])
def test_linear_flow_is_exact_phase(nonlinearity):
    """Zero nonlinearity reduces the splitting to the exact phase rotation;
    the initial modes are first rescaled so the weighted norm is epsilon."""
    modes = {(1,): 1.0 + 0j, (2,): 0.5j}
    eps, s, horizon, dt = 0.01, 4.0, 1.0, 0.01
    cfg = SimulationConfig(
        radius=4.0, epsilon=eps, s=s, dt=dt, horizon=horizon, stride=10,
        nonlinearity=nonlinearity, initial_modes=modes,
    )
    rec = integrate_nls(cfg)
    norm = math.sqrt(sum((1.0 + abs(p[0])) ** (2 * s) * abs(c) ** 2 for p, c in modes.items()))
    scale = eps / norm
    final = rec.meta["final_modes"]
    for p, c in modes.items():
        expected = c * scale * np.exp(-1j * p[0] ** 2 * horizon)
        assert final[p] == pytest.approx(expected, abs=1e-14)
    assert abs(final[(3,)]) < 1e-15  # FFT round trip leaks only rounding noise
    assert np.allclose(rec.sobolev, eps, rtol=1e-12)


def test_nls_conservation_and_initial_norm():
    cfg = SimulationConfig(radius=6.0, epsilon=0.05, horizon=5.0, stride=200, seed=1)
    rec = integrate_nls(cfg)
    assert rec.sobolev[0] == pytest.approx(0.05, rel=1e-12)
    assert np.max(np.abs(rec.mass - rec.mass[0])) / rec.mass[0] < 1e-11
    assert np.max(np.abs(rec.energy - rec.energy[0])) / abs(rec.energy[0]) < 1e-8
    assert rec.meta["dt"] == pytest.approx(0.1 / 144.0)
    assert rec.band_actions.shape[0] == len(rec.times)


def test_beam_energy_and_extra_column():
    cfg = SimulationConfig(
        model="beam", radius=6.0, epsilon=0.05, horizon=2.0, stride=200,
        seed=2, force={3: 0.1}, mass_term=1.0,
    )
    rec = integrate_beam(cfg)
    assert rec.sobolev[0] == pytest.approx(0.05, rel=1e-9)
    assert np.max(np.abs(rec.energy - rec.energy[0])) / abs(rec.energy[0]) < 1e-7
    assert "u_sobolev" in rec.extra
    assert len(rec.extra["u_sobolev"]) == len(rec.times)
    assert rec.meta["model"] == "beam"


def test_free_beam_samples_without_a_transform(monkeypatch):
    import latnf.dynamics

    calls = []
    field = latnf.dynamics._System.field

    def counted(self, u, out):
        calls.append(1)
        return field(self, u, out)

    monkeypatch.setattr(latnf.dynamics._System, "field", counted)
    rec = integrate_beam(SimulationConfig(model="beam", radius=4.0, horizon=0.5, stride=5))
    assert len(rec.times) > 2
    assert not calls


# The grid transforms are numpy's ``norm="forward"`` pair, called as the
# pocketfft gufuncs with the factor 1 (inverse) and 1/size (forward) on
# every axis; a numpy release that changes them must fail here, not move
# trajectories silently.  The grids: the 36-point line of the radius-8
# system, lines of 15, 25 and 45 points, and the 20 x 20 skew torus.
GRID_SYSTEMS = [
    (dict(radius=8.0), 4, (36,)),
    (dict(radius=3.0), 4, (15,)),
    (dict(radius=6.0), 4, (25,)),
    (dict(radius=11.0), 4, (45,)),
    (dict(dim=2, radius=3.0, gram=((1.0, 0.3), (0.3, 1.4))), 6, (20, 20)),
]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("fields, alias, shape", GRID_SYSTEMS)
def test_grid_transforms_are_numpys_bit_for_bit(fields, alias, shape):
    from latnf.dynamics import _system

    system = _system(SimulationConfig(**fields), alias)
    assert system.grid.shape == shape and system.npts == math.prod(shape)
    rng = np.random.default_rng(41)
    # The caller's output arrays start as NaN and are reused: every call
    # writes all of its output and leaves its input as it was.
    field_out = np.full(shape, np.nan, dtype=complex)
    spectrum_out = np.full(system.npts, np.nan, dtype=complex)
    for _ in range(2):
        u = rng.standard_normal(system.npts) + 1j * rng.standard_normal(system.npts)
        kept = u.copy()
        assert system.field(u, field_out) is field_out
        assert_same_bits(field_out, np.fft.ifftn(u.reshape(shape), norm="forward"))
        assert_same_bits(u, kept)
        # complex fields, and real ones as the beam's force kick passes them
        for psi in (u.reshape(shape) * 0.5 + 0.25j, u.real.reshape(shape)):
            kept = psi.copy()
            assert system.spectrum(psi, spectrum_out) is spectrum_out
            assert_same_bits(spectrum_out, np.fft.fftn(psi, norm="forward").reshape(-1))
            assert_same_bits(psi, kept)


# The Strang stretch's linear propagator: one dense matrix on the 5-, 24-,
# 36-, 72- and 125-point lines and the 9 x 9 skew torus, the transform pair
# on grids of more than 128 points (a 135-point line and the 15 x 15 torus).
PROPAGATOR_SYSTEMS = [
    (dict(radius=1.0), (5,)),
    (dict(radius=5.0), (24,)),
    (dict(radius=8.0), (36,)),
    (dict(radius=17.0), (72,)),
    (dict(radius=31.0), (125,)),
    (dict(dim=2, radius=2.0, gram=((1.0, 0.3), (0.3, 1.4))), (9, 9)),
]


@pytest.mark.parametrize(
    "fields, shape", PROPAGATOR_SYSTEMS, ids=["x".join(map(str, s)) for _, s in PROPAGATOR_SYSTEMS]
)
def test_dense_propagator_is_the_transform_pair_with_the_phase_between(fields, shape):
    from latnf.dynamics import _system

    system = _system(SimulationConfig(**fields), 4)
    assert system.grid.shape == shape
    phase = np.exp(-0.37j * system.omega)
    matrix = system.propagator(phase)
    assert matrix.shape == (system.npts, system.npts) and matrix.flags.c_contiguous
    rng = np.random.default_rng(47)
    w = np.empty(system.npts, dtype=complex)
    for _ in range(3):
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = system.field(np.multiply(system.spectrum(psi, w), phase, w), np.empty(shape, complex))
        got = matrix @ psi.reshape(-1)
        assert np.max(np.abs(got - want.reshape(-1))) <= 1e-14 * np.max(np.abs(want))
    unitary = matrix @ matrix.conj().T - np.eye(system.npts)
    assert np.max(np.abs(unitary)) <= 1e-13


@pytest.mark.parametrize(
    "fields, shape",
    [(dict(radius=32.0), (135,)), (dict(dim=2, radius=3.0), (15, 15))],
    ids=["135", "15x15"],
)
def test_grids_past_128_points_propagate_by_the_transform_pair(fields, shape):
    from latnf.dynamics import _system

    system = _system(SimulationConfig(**fields), 4)
    assert system.grid.shape == shape
    assert system.propagator(np.exp(-0.37j * system.omega)) is None


GRAM_2D = ((1.0, 0.3), (0.3, 1.4))
GRID_MODELS = {
    "torus": dict(),
    "multiplier": dict(potential={(0, 0): 0.05, (1, 0): -0.2, (-1, 1): 0.03}),
    "beam": dict(model="beam", mass_term=1.5),
}


@pytest.mark.parametrize("gram", [None, GRAM_2D], ids=["identity", "skew"])
@pytest.mark.parametrize("kind", sorted(GRID_MODELS))
def test_grid_steps_every_lattice_mode_at_its_table_frequency(kind, gram):
    from latnf.dynamics import _system

    system = _system(SimulationConfig(dim=2, radius=3.0, gram=gram, **GRID_MODELS[kind]), 4)
    assert len(system.index) == 29
    for p, i in system.index.items():
        assert system.omega[i] == float(system.table.omega(p)), p


def test_grid_potential_stops_at_the_truncation():
    # (0, 4) is off the radius-3 lattice: its grid frequency is that of the torus
    from latnf.dynamics import _system

    potential = {(0, 0): 0.05, (0, 4): 0.7}
    system = _system(SimulationConfig(dim=2, radius=3.0, gram=GRAM_2D, potential=potential), 4)
    assert (0, 4) not in system.lattice
    k = np.asarray([0.0, 4.0])
    assert system.omega[system.grid.flat_index((0, 4))] == k @ np.asarray(GRAM_2D) @ k
    assert system.omega[system.index[(0, 0)]] == 0.05


@pytest.mark.parametrize("dt", [0.01, 1e-3, 0.37])
def test_rotation_of_the_cast_phase_is_the_float_product_bit_for_bit(dt):
    # The ``rk4_reference`` right-hand side keeps the phase field in the real
    # half of a complex buffer whose imaginary half stays +0.0, and multiplies
    # the field by that buffer: the operand numpy casts the float phase to, so
    # the product is ``phi * psi`` to the bit.  The Strang step writes the
    # angle ``-dt * phi`` into the imaginary half of a buffer whose real half
    # stays +0.0 and takes its exponential: ``exp(1j * angle)`` to the bit,
    # underflows and huge angles included, bar the sign of a zero angle.
    tiny = np.nextafter(0.0, 1.0)
    values = [0.0, -0.0, -1.5, 3.7, tiny, -tiny, 1e-310, -1e-310, 1e300, -1e300]
    phi = np.resize(np.array(values), 37)  # past one SIMD width, with a tail
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(len(phi)) + 1j * rng.standard_normal(len(phi))
    buffer = np.zeros(len(phi), dtype=complex)
    buffer.real = phi
    assert_same_bits(np.multiply(buffer, psi, out=np.empty_like(psi)), phi * psi)
    angle = -dt * phi
    turn = np.zeros(len(phi), dtype=complex)
    turn.imag = angle
    nonzero = angle != 0.0
    assert_same_bits(np.exp(turn)[nonzero], np.exp(1j * angle)[nonzero])
    assert not buffer.imag.view(np.uint64).any() and not turn.real.view(np.uint64).any()


def test_grid_and_normal_form_nls_terms_agree_on_the_truncation():
    # nls-line8 steps the grid model with nonlinearity {1: kappa} and the
    # normal-form kick with nls_quartic(lattice, kappa) as one equation.  On
    # the 17 modes of the radius-8 line the grid term kappa (|psi|^2 psi)^ is
    # dF/d(conj u) of the quartic, i times the kick's right-hand side, with
    # factor 1.  The grid term also feeds the grid modes outside the lattice.
    from latnf.dynamics import _PolyParts, _system

    kappa = -12.0
    system = _system(SimulationConfig(radius=8.0, nonlinearity={1: kappa}), 4)
    points = list(system.lattice.points)
    sites = [system.index[p] for p in points]
    assert len(points) == 17 and system.grid.size == 36
    rng = np.random.default_rng(43)
    u = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
    spectral = np.zeros(system.npts, dtype=complex)
    spectral[sites] = u
    psi = system.field(spectral, np.empty(system.grid.shape, dtype=complex))
    grid_term = kappa * system.spectrum(np.abs(psi) ** 2 * psi, np.empty(system.npts, dtype=complex))
    poly = _PolyParts([nls_quartic(system.lattice, kappa)], {p: i for i, p in enumerate(points)})
    kick_term = 1j * poly.rhs(u)
    assert np.max(np.abs(grid_term[sites] - kick_term)) <= 1e-13 * np.max(np.abs(kick_term))
    assert np.any(np.abs(np.delete(grid_term, sites)) > 1e-3 * np.max(np.abs(kick_term)))


def test_beam_requires_beam_model():
    with pytest.raises(ValueError):
        integrate_beam(SimulationConfig(model="nls"))


def test_normal_form_action_parts_are_exact(torus_table, torus_partitions):
    j1sq = make_form({((((1,), 1), ((1,), 1), ((1,), -1), ((1,), -1))): 0.5})
    init = {(1,): 0.3 + 0.1j, (2,): 0.05j, (-3,): 0.02 + 0j}
    rec = integrate_normal_form(
        torus_table, [j1sq], init, dt=0.05, horizon=20.0, stride=50, **torus_partitions
    )
    assert rec.meta["exact_kick"]
    assert np.max(np.abs(rec.band_actions - rec.band_actions[0])) < 1e-12
    assert np.max(np.abs(rec.mass - rec.mass[0])) < 1e-12
    assert np.max(np.abs(rec.energy - rec.energy[0])) < 1e-12


def test_normal_form_general_parts_not_exact(torus_table, torus_partitions):
    init = {(1,): 0.1 + 0j}
    rec = integrate_normal_form(
        torus_table, [nls_quartic(torus_table.lattice)], init, dt=0.05, horizon=0.5,
        **torus_partitions,
    )
    assert not rec.meta["exact_kick"]
    assert np.max(np.abs(rec.mass - rec.mass[0])) < 1e-10


@pytest.mark.parametrize(
    "bad",
    [{"dt": 0.0}, {"dt": -0.05}, {"horizon": 0.0}, {"stride": 0}],
    ids=["dt0", "dt-", "horizon0", "stride0"],
)
def test_normal_form_rejects_a_bad_step(torus_table, torus_partitions, bad):
    settings = {"dt": 0.05, "horizon": 0.5, **torus_partitions, **bad}
    with pytest.raises(ValueError, match="positive|>= 1"):
        integrate_normal_form(torus_table, [], {(1,): 0.1 + 0j}, **settings)


def test_ground_state_chart_round_trip(rng):
    coeffs = {(0,): 2.0 + 1.5j}
    for k in (1, -1, 2, -2):
        coeffs[(k,)] = 0.1 * complex(rng.standard_normal(), rng.standard_normal())
    p0 = sum(abs(v) ** 2 for v in coeffs.values())
    phi, theta = ground_state_reduce(coeffs, p0)
    assert (0,) not in phi
    back = reconstruct_ground_state(phi, p0, theta)
    for p, c in coeffs.items():
        assert back[p] == pytest.approx(c)


def test_ground_state_chart_errors():
    with pytest.raises(ValueError, match="zero mean"):
        ground_state_reduce({(1,): 1.0 + 0j}, 4.0)
    with pytest.raises(ValueError, match="outside chart"):
        ground_state_reduce({(0,): 0.1 + 0j, (1,): 5.0 + 0j}, 1.0)
    with pytest.raises(ValueError, match="dim"):
        reconstruct_ground_state({}, 1.0, 0.0)
    pure = reconstruct_ground_state({}, 4.0, 0.0, dim=1)
    assert pure == {(0,): pytest.approx(2.0 + 0j)}


def test_bogoliubov_diagonalizes():
    eig = {(1,): 1.0, (2,): 4.0, (3,): 9.0}
    phi = {(1,): 0.1 + 0.2j, (2,): -0.05j, (3,): 0.02 + 0j}
    res = bogoliubov(phi, 1.0, lambda p0: 0.5 * p0, eig)
    assert res.offdiag_residual <= 1e-12
    for p, lam in eig.items():
        assert res.omegas[p] == pytest.approx(math.sqrt(lam * lam + 2.0 * 0.5 * lam))
    ident = bogoliubov(phi, 1.0, 0.0, eig)
    assert ident.offdiag_residual == 0.0
    for p, v in phi.items():
        assert ident.w[p] == v
        assert ident.angles[p] == 0.0
        assert ident.omegas[p] == pytest.approx(eig[p])


def test_bogoliubov_rejects_invalid_pairing():
    with pytest.raises(ValueError, match="diagonalization invalid"):
        bogoliubov({(1,): 0.1 + 0j}, 1.0, -1.0, {(1,): 1.0})


def test_orbital_distance_gauge_invariance(rng):
    lat = enumerate_lattice(1, 4.0)
    p0 = 2.0
    coeffs = {(0,): math.sqrt(p0) * np.exp(0.7j), (1,): 0.01 + 0.02j, (-2,): 0.005j}
    base = orbital_distance(coeffs, p0, 4.0, lat)
    for beta in (0.3, 1.2, -2.0):
        rot = {p: v * np.exp(1j * beta) for p, v in coeffs.items()}
        assert orbital_distance(rot, p0, 4.0, lat) == pytest.approx(base, rel=1e-8)
    on_circle = {(0,): math.sqrt(p0) * np.exp(-1.1j)}
    assert orbital_distance(on_circle, p0, 4.0, lat) < 1e-9
    expected = math.sqrt(
        sum((1.0 + abs(p[0])) ** 8 * abs(v) ** 2 for p, v in coeffs.items() if p != (0,))
    )
    assert base == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("mean", [0.0, 0.3 - 0.4j, 1.2j, -2.5 + 1.0j])
def test_orbital_distance_is_the_least_distance_over_a_dense_phase_scan(rng, mean):
    # the definition, min over alpha of |u - sqrt(p0) e^{-i alpha} e_0|_s, on 2**16 phases
    lat = enumerate_lattice(1, 3.0)
    p0, s = 1.7, 2.0
    coeffs = {p: 0.1 * complex(*rng.standard_normal(2)) for p in lat.points}
    coeffs[(0,)] = mean
    fixed = sum((1.0 + abs(p[0])) ** (2 * s) * abs(v) ** 2 for p, v in coeffs.items() if p != (0,))
    alpha = np.linspace(0.0, 2.0 * np.pi, 2**16, endpoint=False)
    scan = np.sqrt(fixed + np.abs(mean - math.sqrt(p0) * np.exp(-1j * alpha)) ** 2)
    got = orbital_distance(coeffs, p0, s, lat)
    assert got <= scan.min() * (1.0 + 1e-15)
    assert scan.min() - got <= 1e-8 * got


def test_orbital_tracking_column():
    cfg = SimulationConfig(
        radius=4.0, epsilon=0.05, horizon=1.0, stride=100, seed=3, track_orbital=1.0
    )
    rec = integrate_nls(cfg)
    assert rec.orbital is not None
    assert len(rec.orbital) == len(rec.times)
    assert np.all(rec.orbital > 0)


def test_superactions_oracle(torus_table, torus_partitions):
    bands, clusters = torus_partitions["bands"], torus_partitions["clusters"]
    plus = {(1,): 0.3 + 0.4j, (-1,): 0.1j, (5,): 0.2 + 0j, (0,): 0.05 + 0j}
    # the band and block columns the monitor samples at t = 0
    rec = integrate_normal_form(
        torus_table, [], plus, dt=1.0, horizon=1.0, bands=bands, clusters=clusters
    )
    j, jb = rec.band_actions[0], rec.block_actions[0]
    assert j.shape == (bands.nbands,)
    assert jb.shape == (clusters.nblocks,)
    expected = np.zeros(bands.nbands)
    for p, v in plus.items():
        expected[band_of(bands, float(torus_table.omega(p)))] += abs(v) ** 2
    assert np.allclose(j, expected)
    assert j.sum() == pytest.approx(jb.sum())
    assert jb.sum() == pytest.approx(sum(abs(v) ** 2 for v in plus.values()))


def test_stability_experiment_shape_and_serialization():
    cfg = SimulationConfig(radius=4.0, horizon=2.0, stride=100, seed=4)
    report = stability_experiment(cfg, [0.1, 0.05], horizons=[2.0, 2.0])
    assert len(report.runs) == 2
    for run, eps in zip(report.runs, (0.1, 0.05)):
        assert run.epsilon == eps
        assert run.max_ratio >= 1.0
        assert len(run.band_drifts) > 0
    assert report.fitted_power is None
    blob = json.dumps(asdict(report))
    assert json.loads(blob)["runs"][0]["epsilon"] == 0.1
    with pytest.raises(ValueError, match="one horizon per epsilon"):
        stability_experiment(cfg, [0.1, 0.05], horizons=[2.0])


def test_default_horizons_scale_inverse_square():
    cfg = SimulationConfig(radius=4.0, horizon=1.0, stride=400, seed=5)
    report = stability_experiment(cfg, [0.5, 0.4])
    assert report.runs[0].horizon == pytest.approx(0.5**-2)
    assert report.runs[1].horizon == pytest.approx(0.4**-2)


def test_trajectory_csv_round_trip(tmp_path):
    cfg = SimulationConfig(radius=4.0, epsilon=0.05, horizon=1.0, stride=50, seed=6)
    rec = integrate_nls(cfg)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(rec, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(rec.times) + 1
    header = lines[0].split(",")
    assert header[:4] == ["t", "sobolev", "mass", "energy"]
    first = lines[1].split(",")
    assert float(first[0]) == rec.times[0]
    assert float(first[1]) == rec.sobolev[0]
    nb = rec.band_actions.shape[1]
    assert float(first[4]) == rec.band_actions[0, 0]
    assert float(first[4 + nb]) == rec.block_actions[0, 0]
