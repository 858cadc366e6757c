"""End-to-end acceptance gate: ten independent checks at fixed tolerances.

Each check prints a single summary line (visible with ``pytest -s``); the
pass/fail verdict is the test outcome itself.  Checks reuse the session-wide
certified multiplier system where a real normalization run is needed.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from latnf import (
    MultiplierEnsemble,
    SimulationConfig,
    TorusLaplacian,
    add_forms,
    band_partition,
    build_clusters,
    build_spectrum,
    certify_nonresonance,
    check_band_invariants,
    enumerate_lattice,
    estimate_resonant_measure,
    extended_indexes,
    integrate_nls,
    integrate_normal_form,
    is_resonant_W,
    poisson_bracket,
    random_form,
    small_divisor,
    solve_homological,
    vector_field,
)

from conftest import FROZEN_POTENTIAL, NF_CUTOFF
from estimates import separation_cutoff_bound, verify_tame
from oracles import canonical_key, evaluate, make_form, state_array, state_dict


def _report(index, label, detail):
    print(f"acceptance {index:02d} {label}: PASS ({detail})")


def test_criterion_01_band_partition_invariants():
    """Widths stay <= 2 and gaps clear 2 n^(-1/2) exactly on the big line."""
    t0 = time.monotonic()
    table = build_spectrum(enumerate_lattice(1, 50.0), TorusLaplacian())
    bands = band_partition(table)
    diag = check_band_invariants(bands)
    elapsed = time.monotonic() - t0

    assert diag.violations == ()
    assert diag.widths_ok and diag.gaps_ok
    # re-check from the definition, exactly
    for n in range(1, bands.nbands):
        lo, hi = bands.intervals[n]
        assert hi - lo <= 2.0
    for n in range(1, bands.nbands - 1):
        gap = bands.intervals[n + 1][0] - bands.intervals[n][1]
        assert gap >= 2.0 * n ** (-0.5)
    assert elapsed < 1.0
    _report(1, "band partition", f"{bands.nbands - 1} numbered bands in {elapsed:.3f}s")


def _closure_blocks(table, delta, c_delta):
    """Transitive closure of the proximity graph via sparse components."""
    pts = np.array(table.points, dtype=float)
    omegas = np.array([float(om) for om in table.omegas])
    norms = np.array([table.norm(p) for p in table.points])
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    gap = dist + np.abs(omegas[:, None] - omegas[None, :])
    threshold = c_delta * (norms[:, None] ** delta + norms[None, :] ** delta)
    _, labels = connected_components(csr_matrix(gap < threshold), directed=False)
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(table.points[i])
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def test_criterion_02_cluster_oracle_equivalence():
    t0 = time.monotonic()
    tables = (
        build_spectrum(enumerate_lattice(1, 499.0), TorusLaplacian()),
        build_spectrum(enumerate_lattice(2, 2.9), TorusLaplacian()),
    )
    assert len(tables[0]) == 999 and len(tables[1]) == 25
    rng = np.random.default_rng(2)
    n_cases = 0
    for _ in range(5):
        delta = float(rng.uniform(0.2, 0.8))
        c_delta = float(rng.uniform(0.5, 2.5))
        for table in tables:
            part = build_clusters(table, delta, c_delta)
            assert part.blocks == _closure_blocks(table, delta, c_delta)
            n_cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, "cluster closure oracle", f"{n_cases} cases in {elapsed:.2f}s")


def _order3_scan(table, bands):
    """Exhaustive signed order-3 scan; divisors stay exact integers."""
    ext = extended_indexes(table.lattice)
    min_all, min_nonzero = None, None
    zero_witnesses = []
    n_keys = 0
    for combo in itertools.combinations_with_replacement(ext, 3):
        key = canonical_key(combo)
        divisor = abs(small_divisor(table, key))
        assert isinstance(divisor, int)
        assert not is_resonant_W(key, table, bands)  # odd keys cannot pair up
        n_keys += 1
        if min_all is None or divisor < min_all:
            min_all = divisor
        if divisor == 0 and len(zero_witnesses) < 4:
            zero_witnesses.append(key)
        if divisor != 0 and (min_nonzero is None or divisor < min_nonzero):
            min_nonzero = divisor
    return min_all, min_nonzero, zero_witnesses, n_keys


def test_criterion_03_resonance_exactness():
    table = build_spectrum(enumerate_lattice(1, 10.0), TorusLaplacian())
    bands = band_partition(table)
    min_all, min_nonzero, zero_witnesses, n_keys = _order3_scan(table, bands)
    assert n_keys == 13244

    # The smallest nonzero divisor outside the resonant set is exactly 1.
    assert min_nonzero == 1
    # Zero divisors exist off W: the zero mode and the 3-4-5 identity.
    assert min_all == 0
    triple_zero = canonical_key((((0,), 1), ((0,), 1), ((0,), 1)))
    pythagorean = canonical_key((((3,), 1), ((4,), 1), ((5,), -1)))
    assert small_divisor(table, triple_zero) == 0
    assert small_divisor(table, pythagorean) == 0

    # Order 4 exhibits the padded 3-4-5 witness and cannot certify.
    witness4 = canonical_key((((3,), 1), ((4,), 1), ((5,), -1), ((0,), 1)))
    assert small_divisor(table, witness4) == 0
    assert not is_resonant_W(witness4, table, bands)
    cert4 = certify_nonresonance(table, 4, partition=bands)
    assert cert4.exhaustive and not cert4.passed
    assert cert4.min_divisor == 0
    _report(
        3,
        "resonance exactness",
        f"min nonzero divisor {min_nonzero}, zero witnesses off W "
        f"{len(zero_witnesses)}, order-4 certification refused",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the exhaustive order-3 scan finds zero divisors outside the resonant "
        "set (triple zero mode, 3-4-5 dispersion identity), so the off-W "
        "minimum is 0; the companion test pins the nonzero minimum to 1"
    ),
)
def test_criterion_03_off_resonant_minimum_is_one():
    table = build_spectrum(enumerate_lattice(1, 10.0), TorusLaplacian())
    bands = band_partition(table)
    min_all, _, _, _ = _order3_scan(table, bands)
    assert min_all == 1


def test_criterion_04_measure_bound():
    t0 = time.monotonic()
    lattice = enumerate_lattice(1, 8.0)
    ensemble = MultiplierEnsemble(base=TorusLaplacian(), decay=2)
    rng = np.random.default_rng(4)
    points = lattice.points
    worst_margin = -np.inf
    for i in range(10):
        size = int(rng.integers(2, 5))
        chosen = rng.choice(len(points), size=size, replace=False)
        coeffs = {}
        for j in chosen:
            magnitude = int(rng.integers(1, 4))
            coeffs[points[int(j)]] = magnitude if rng.random() < 0.5 else -magnitude
        for gamma in (1e-1, 1e-2):
            est = estimate_resonant_measure(
                ensemble, lattice, coeffs, gamma, n_samples=10_000, seed=40 + i
            )
            assert est.fraction <= est.bound + 3.0 * est.stderr
            assert est.passed
            worst_margin = max(worst_margin, est.fraction - est.bound)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(
        4,
        "measure bound",
        f"20 runs, worst fraction-bound margin {worst_margin:.3g}, {elapsed:.2f}s",
    )


def test_criterion_05_homological_residual(
    certified_table, certified_bands, certified_clusters, certificates
):
    max_norm = max(1.0, max(certified_table.norm(p) for p in certified_table.points))
    worst_residual = 0.0
    for i in range(100):
        degree = 3 + i % 3
        cert = certificates[degree]
        form = random_form(certified_table.lattice, degree=degree, n_terms=10, seed=100 + i)
        sol = solve_homological(
            form,
            certified_table,
            certified_bands,
            certified_clusters,
            NF_CUTOFF,
            cert.gamma,
            cert.tau,
        )
        assert sol.residual <= 1e-12
        assert sol.g_norm <= (max_norm**cert.tau / cert.gamma) * sol.f_norm * (1 + 1e-12)
        assert sol.z_norm <= sol.f_norm * (1 + 1e-12)
        worst_residual = max(worst_residual, sol.residual)
    _report(5, "homological residual", f"100 solves, worst residual {worst_residual:.3g}")


def test_criterion_06_bracket_identities():
    lattice = enumerate_lattice(1, 4.0)
    worst_jacobi = 0.0
    for seed in range(5):
        f = random_form(lattice, 3, n_terms=4, seed=seed)
        g = random_form(lattice, 4, n_terms=4, seed=seed + 50)
        h = random_form(lattice, 4, n_terms=4, seed=seed + 100)
        total = add_forms(
            poisson_bracket(f, poisson_bracket(g, h, tol=0.0), tol=0.0),
            poisson_bracket(g, poisson_bracket(h, f, tol=0.0), tol=0.0),
            poisson_bracket(h, poisson_bracket(f, g, tol=0.0), tol=0.0),
            tol=0.0,
        )
        scale = max(
            abs(c) for form in (f, g, h) for c in form.coeffs.values()
        )
        residual = max((abs(c) for c in total.coeffs.values()), default=0.0)
        worst_jacobi = max(worst_jacobi, residual / scale**3)
    assert worst_jacobi <= 1e-10

    rng = np.random.default_rng(6)
    worst_fd = 0.0
    for seed in range(5):
        f = random_form(lattice, 3, n_terms=6, seed=200 + seed)
        g = random_form(lattice, 4, n_terms=6, seed=250 + seed)
        state = {
            (p, sign): 0.4 * complex(rng.standard_normal(), rng.standard_normal())
            for p in lattice.points
            for sign in (1, -1)
        }
        bracket = evaluate(poisson_bracket(f, g, tol=0.0), state)
        step = 1e-4
        x = state_array(state, lattice.points)
        flow = vector_field(g, x, lattice.points)
        up = state_dict(x + step * flow, lattice.points)
        dn = state_dict(x - step * flow, lattice.points)
        derivative = (evaluate(f, up) - evaluate(f, dn)) / (2 * step)
        worst_fd = max(worst_fd, abs(derivative - bracket) / max(1e-30, abs(bracket)))
    assert worst_fd <= 1e-6
    _report(
        6,
        "bracket identities",
        f"Jacobi {worst_jacobi:.3g}, flow-derivative mismatch {worst_fd:.3g}",
    )


def _max_action_drift(record):
    drift = 0.0
    for series in (record.band_actions, record.block_actions):
        if series.size:
            drift = max(drift, float(np.abs(series - series[0]).max()))
    return drift


def test_criterion_07_superaction_conservation(
    certified_table, certified_bands, certified_clusters, nf_result
):
    table = certified_table
    rng = np.random.default_rng(7)
    initial = {
        p: 0.3
        / (1.0 + table.norm(p)) ** 2
        * np.exp(2j * np.pi * rng.random())
        for p in table.points
    }

    kept = [
        part
        for name in ("Z0", "ZB")
        for part in nf_result.bucket(name).parts.values()
    ]
    record = integrate_normal_form(
        table,
        kept,
        initial,
        dt=0.5,
        horizon=1e4,
        stride=200,
        bands=certified_bands,
        clusters=certified_clusters,
    )
    assert record.meta["exact_kick"] is True
    action_drift = _max_action_drift(record)
    energy_drift = float(np.abs(record.energy - record.energy[0]).max())
    assert action_drift <= 10.0 * energy_drift

    # identical integrator settings, truncated vs full bucket set
    settings = dict(
        dt=0.1,
        horizon=100.0,
        stride=100,
        bands=certified_bands,
        clusters=certified_clusters,
    )
    all_parts = [
        part
        for name in ("Z0", "ZB", "Z2", "ZGE3")
        for part in nf_result.bucket(name).parts.values()
    ]
    record_full = integrate_normal_form(table, all_parts, initial, **settings)
    record_kept = integrate_normal_form(table, kept, initial, **settings)
    assert record_full.meta["exact_kick"] is False
    full_drift = _max_action_drift(record_full)
    kept_drift = _max_action_drift(record_kept)
    assert full_drift > 100.0 * max(action_drift, kept_drift)
    _report(
        7,
        "superaction conservation",
        f"normal-form drift {action_drift:.3g} <= 10 x {energy_drift:.3g}; "
        f"full-bucket drift {full_drift:.3g}",
    )


def test_criterion_08_stability_sweep():
    t0 = time.monotonic()
    base = dict(
        model="nls",
        dim=1,
        radius=8.0,
        nonlinearity={1: -12.0},
        s=4.0,
        seed=5,
        dt_bound=4.0,
    )
    ratios = {}
    for epsilon in (1e-1, 1e-2):
        sim = SimulationConfig(
            potential=FROZEN_POTENTIAL,
            epsilon=epsilon,
            dt=0.01,
            horizon=epsilon**-2,
            stride=1000,
            **base,
        )
        record = integrate_nls(sim)
        ratios[epsilon] = float(record.sobolev.max() / epsilon)
        assert ratios[epsilon] <= 2.0

    contrast = SimulationConfig(
        potential=None,
        epsilon=0.4,
        dt=0.002,
        horizon=0.4**-2,
        stride=25,
        **base,
    )
    record = integrate_nls(contrast)
    contrast_ratio = float(record.sobolev.max() / 0.4)
    assert contrast_ratio > 2.0
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(
        8,
        "stability sweep",
        f"certified ratios {ratios[1e-1]:.4f}/{ratios[1e-2]:.4f} <= 2, "
        f"resonant contrast {contrast_ratio:.1f} > 2, {elapsed:.0f}s",
    )


def test_criterion_09_integrator_order():
    base = dict(
        model="nls",
        dim=1,
        radius=1.0,
        nonlinearity={1: 1.0},
        epsilon=0.5,
        s=4.0,
        horizon=10.0,
        seed=3,
        dt_bound=10.0,
    )
    reference = integrate_nls(
        SimulationConfig(integrator="rk4_reference", dt=1e-4, stride=10_000, **base)
    )
    ref_modes = reference.meta["final_modes"]

    errors = []
    for dt in (0.04, 0.02, 0.01, 0.005):
        record = integrate_nls(
            SimulationConfig(integrator="strang_splitting", dt=dt, stride=250, **base)
        )
        modes = record.meta["final_modes"]
        err = np.sqrt(
            sum(abs(modes[p] - ref_modes[p]) ** 2 for p in ref_modes)
        )
        errors.append(float(err))
    slopes = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    for slope in slopes:
        assert 1.8 <= slope <= 2.2
    _report(
        9,
        "integrator order",
        "Richardson slopes " + ", ".join(f"{s:.3f}" for s in slopes),
    )


def test_criterion_10_tame_constants_bounded():
    tables = {
        radius: build_spectrum(enumerate_lattice(1, radius), TorusLaplacian())
        for radius in (8.0, 16.0, 32.0)
    }
    support = tables[8.0].lattice
    worst_ratio = 1.0
    for i in range(50):
        form = random_form(support, degree=3 + i % 2, n_terms=8, seed=300 + i)
        constants = [
            verify_tame(
                form,
                tables[radius],
                nu=2.0,
                smoothing=6.0,
                s=4.0,
                s0=3.75,
                trials=20,
                seed=17,
            ).constant
            for radius in (8.0, 16.0, 32.0)
        ]
        ratio = max(constants) / min(constants)
        assert ratio <= 3.0
        worst_ratio = max(worst_ratio, ratio)

    # exact cutoff inequality on a lifted key: equality up to the key factor
    table8 = tables[8.0]
    lifted = make_form({((((-8,), -1), ((0,), 1), ((8,), 1))): 2.0})
    report = separation_cutoff_bound(
        lifted, table8, 4.0, 0.5, nu=2.0, smoothing=2.0, smoothing_high=4.0,
        zero_mode="lift",
    )
    assert report.support_ok and report.passed
    assert report.lhs == pytest.approx(report.rhs * (2.0 / 17.0) ** 2)

    rng = np.random.default_rng(10)
    n_passed = 0
    for _ in range(20):
        low = (int(rng.integers(-1, 2)),)
        left = (int(rng.integers(-8, -4)),)
        right = (int(rng.integers(5, 9)),)
        signs = rng.choice([-1, 1], size=3)
        key = canonical_key(
            ((left, int(signs[0])), (low, int(signs[1])), (right, int(signs[2])))
        )
        sep = separation_cutoff_bound(
            make_form({key: float(rng.uniform(0.5, 2.0))}),
            table8,
            4.0,
            0.5,
            nu=2.0,
            smoothing=2.0,
            smoothing_high=4.0,
            zero_mode="lift",
        )
        assert sep.support_ok and sep.passed
        n_passed += 1
    _report(
        10,
        "tame constants",
        f"worst cross-radius ratio {worst_ratio:.4f} <= 3, "
        f"cutoff inequality exact, {n_passed}/20 separated keys pass",
    )
