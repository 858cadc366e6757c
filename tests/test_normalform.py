import json
import math
from pathlib import Path

import numpy as np
import pytest

from latnf import (
    CertificateError,
    NormalFormConfig,
    SmallnessError,
    TorusLaplacian,
    add_forms,
    band_partition,
    build_spectrum,
    certify_nonresonance,
    choose_cutoff,
    enumerate_lattice,
    lie_transform,
    normalform_manifest,
    normalize,
    nls_quartic,
    poisson_bracket,
    poly_from_forms,
    quadratic_hamiltonian,
    random_form,
    scale_form,
    small_divisor,
    solve_homological,
    sobolev_norm,
    transform_state,
)
from latnf.cli import build_system, run_normalform
from latnf.config import apply_overrides, load_config
from latnf.dynamics import is_action_form
from latnf.normalform import lie_terms_order

from conftest import NF_CUTOFF, NF_RADIUS
from oracles import dict_vector_field, make_form, state_array, state_dict


def test_config_validation():
    with pytest.raises(ValueError):
        NormalFormConfig(r=0, radius=0.1)
    with pytest.raises(ValueError):
        NormalFormConfig(r=1, radius=1.5)
    cfg = NormalFormConfig(r=2, radius=0.1)
    assert cfg.r_bar == 4 and cfg.degree_cap == 6


def test_choose_cutoff_lands_between_bands():
    lat = enumerate_lattice(1, 12.0)
    table = build_spectrum(lat, TorusLaplacian())
    bands = band_partition(table)
    assert choose_cutoff(table, bands, 1e-2, 1.0) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        choose_cutoff(table, bands, 1.2, 1.0)
    with pytest.raises(ValueError):
        choose_cutoff(table, bands, 1e-8, 1.0)


def test_choose_cutoff_single_band():
    lat = enumerate_lattice(1, 0.5)
    table = build_spectrum(lat, TorusLaplacian())
    with pytest.raises(ValueError):
        choose_cutoff(table, band_partition(table), 1e-2, 1.0)


def test_homological_kills_a_nonresonant_monomial(
    certified_table, certified_bands, certified_clusters, certificates
):
    key = ((((1,), 1), ((2,), 1), ((3,), -1)))
    f = make_form({key: 0.25})
    cert = certificates[3]
    sol = solve_homological(
        f, certified_table, certified_bands, certified_clusters,
        NF_CUTOFF, cert.gamma, cert.tau,
    )
    assert sol.normal.coeffs == {}
    delta = small_divisor(certified_table, key)
    assert sol.generator.coeffs == {key: pytest.approx(0.25j / delta)}
    assert sol.residual <= 1e-12
    assert sol.f_norm > 0 and sol.g_norm > 0 and sol.z_norm == 0

    h0 = quadratic_hamiltonian(certified_table)
    check = add_forms(
        poisson_bracket(h0, sol.generator, tol=0.0), f, scale_form(sol.normal, -1.0),
        tol=0.0,
    )
    assert max((abs(c) for c in check.coeffs.values()), default=0.0) <= 1e-15


def test_homological_passes_resonant_terms_through(
    certified_table, certified_bands, certified_clusters, certificates
):
    key = ((((1,), 1), ((1,), -1), ((3,), 1), ((3,), -1)))
    f = make_form({key: 1.0})
    cert = certificates[4]
    sol = solve_homological(
        f, certified_table, certified_bands, certified_clusters,
        NF_CUTOFF, cert.gamma, cert.tau,
    )
    assert sol.generator.coeffs == {}
    assert sol.normal.coeffs == f.coeffs
    assert sol.residual == 0.0


def test_homological_guards_the_certificate(
    certified_table, certified_bands, certified_clusters
):
    key = ((((1,), 1), ((2,), 1), ((3,), -1)))
    f = make_form({key: 1.0})
    with pytest.raises(ValueError, match="certificate breached"):
        solve_homological(
            f, certified_table, certified_bands, certified_clusters,
            NF_CUTOFF, 1e6, 5.0,
        )


def test_homological_generator_is_bit_identical_to_the_scalar_division(
    certified_table, certified_bands, certified_clusters, certificates
):
    # the certified table is a float spectrum; a negative coupling gives
    # generator values with zero real parts, whose sign must match too
    cert = certificates[4]
    lattice = certified_table.lattice
    for f in (nls_quartic(lattice, 1.0), nls_quartic(lattice, -1.0), random_form(lattice, 4, 300, seed=5, real=False)):
        sol = solve_homological(
            f, certified_table, certified_bands, certified_clusters,
            NF_CUTOFF, cert.gamma, cert.tau, verify=False,
        )
        keys = list(sol.generator.coeffs)
        assert keys
        got = np.array([sol.generator.coeffs[k] for k in keys])
        want = np.array([1j * f.coeffs[k] / small_divisor(certified_table, k) for k in keys])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert keys == [k for k in f.coeffs if k not in sol.normal.coeffs]


def test_normalize_keeps_every_form_packed():
    # the radius-5 truncation of nls_t1.ini at cutoff 4.5; see tests/test_scripts.py
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "nls_t1.ini"))
    apply_overrides(cfg, ["lattice.radius=5", "normalform.cutoff=4.5", "normalform.radius=9.221127468086334e-05"])
    _, result = run_normalform(cfg, build_system(cfg))
    assert [len(e.form) for e in result.ledger] == [3376, 37147, 3692, 38491]
    normal_parts = [
        part for name in ("Z0", "ZB", "Z2", "ZGE3") for part in result.bucket(name).parts.values()
    ]
    forms = [e.form for e in result.ledger] + list(result.generators) + normal_parts
    assert [f for f in forms if "coeffs" in vars(f)] == []


def test_lie_terms_order_formula():
    assert lie_terms_order(2, 1, 1) == 4
    assert lie_terms_order(4, 2, 1) == 5
    assert lie_terms_order(2, 2, 2) == 2
    assert lie_terms_order(2, 10, 1) == 1
    with pytest.raises(ValueError):
        lie_terms_order(2, 1, 0)


def test_lie_transform_caps_and_ledgers(certified_table):
    gen = random_form(certified_table.lattice, 4, n_terms=3, seed=21)
    part = random_form(certified_table.lattice, 4, n_terms=3, seed=22)
    kept, dropped = lie_transform(
        gen, part, 2, cap=6, table=certified_table, radius=0.1, step=3
    )
    assert kept[0].coeffs == part.coeffs
    br1 = poisson_bracket(part, gen)
    assert kept[1].coeffs == pytest.approx(br1.coeffs)
    assert [e.degree for e in dropped] == [8]
    entry = dropped[0]
    assert (entry.step, entry.source_degree, entry.lie_index) == (3, 4, 2)
    half = scale_form(poisson_bracket(br1, gen), 0.5)
    assert entry.form.coeffs == pytest.approx(half.coeffs)
    assert entry.norm_r > 0


def test_normalize_requires_certificates(certified_table, certified_partitions, certificates):
    cubic = random_form(certified_table.lattice, 3, n_terms=4, seed=23)
    cfg = NormalFormConfig(r=1, radius=NF_RADIUS, cutoff=NF_CUTOFF)
    with pytest.raises(ValueError, match="certificate"):
        normalize(
            certified_table, poly_from_forms([cubic]), cfg, [certificates[4]],
            **certified_partitions, remainder_samples=4,
        )


def test_normalize_rejects_failed_certificate(torus_table, torus_partitions):
    bad = certify_nonresonance(torus_table, 3, partition=torus_partitions["bands"])
    assert not bad.passed
    cubic = random_form(torus_table.lattice, 3, n_terms=4, seed=24)
    cfg = NormalFormConfig(r=1, radius=NF_RADIUS, cutoff=NF_CUTOFF)
    with pytest.raises(ValueError, match="failed"):
        normalize(
            torus_table, poly_from_forms([cubic]), cfg, [bad], **torus_partitions,
            remainder_samples=4,
        )


def test_normalize_rejects_bad_perturbation_degrees(
    certified_table, certified_partitions, certificates
):
    cfg = NormalFormConfig(r=1, radius=NF_RADIUS, cutoff=NF_CUTOFF)
    certs = list(certificates.values())
    kw = dict(certified_partitions, remainder_samples=4)
    sextic = random_form(certified_table.lattice, 6, n_terms=2, seed=25)
    with pytest.raises(ValueError, match="above the cap"):
        normalize(certified_table, poly_from_forms([sextic]), cfg, certs, **kw)
    quad = random_form(certified_table.lattice, 2, n_terms=2, seed=26)
    with pytest.raises(ValueError, match="need >= 3"):
        normalize(certified_table, poly_from_forms([quad]), cfg, certs, **kw)


def test_normalize_rejects_large_radius(certified_table, certified_partitions, certificates):
    quartic = nls_quartic(certified_table.lattice)
    cfg = NormalFormConfig(r=1, radius=0.9, cutoff=NF_CUTOFF)
    with pytest.raises(ValueError, match="smallness violated"):
        normalize(
            certified_table, poly_from_forms([quartic]), cfg, [certificates[4]],
            **certified_partitions, remainder_samples=4,
        )


def test_normal_form_run_contracts(nf_result):
    assert nf_result.mu == pytest.approx(0.25, rel=1e-9)
    assert nf_result.max_residual <= 1e-12
    assert nf_result.cutoff == NF_CUTOFF
    assert len(nf_result.generators) == 1
    gen = nf_result.generators[0]
    assert gen.degree == 4
    assert len(gen.coeffs) == 606
    assert len(nf_result.step_norms) == 2
    assert nf_result.step_norms[1] == 0.0


def test_normal_form_bucket_census(nf_result):
    assert nf_result.z0.n_terms() == 66
    assert nf_result.zb.n_terms() == 66
    assert nf_result.z2.n_terms() == 96
    assert nf_result.zge3.n_terms() == 63


def test_normal_form_buckets_are_action_like(nf_result):
    for part in (nf_result.z0, nf_result.zb):
        for d in part.degrees:
            assert is_action_form(part.parts[d])
    assert not all(is_action_form(nf_result.z2.parts[d]) for d in nf_result.z2.degrees)


def test_normal_form_commutation(nf_result):
    assert nf_result.commutation.max_band_residual == 0.0
    assert nf_result.commutation.max_block_residual == 0.0
    assert nf_result.commutation.z2_bracket_norm >= 0.0


def test_normal_form_constants_come_from_certificates(nf_result, certificates):
    assert nf_result.gamma == {4: pytest.approx(certificates[4].gamma)}
    assert nf_result.tau == {4: 6.0}


def test_normal_form_ledger(nf_result):
    assert len(nf_result.ledger) == 4
    assert sorted(e.degree for e in nf_result.ledger) == [6, 6, 8, 8]
    assert all(e.step == 0 for e in nf_result.ledger)
    assert nf_result.ledger_bound == pytest.approx(sum(e.norm_r for e in nf_result.ledger))
    assert nf_result.remainder_bound < 1e-10


def test_normal_form_outputs_are_pinned(nf_result):
    # recorded when the probe still ran on dict states; every bit must hold
    assert [len(e.form) for e in nf_result.ledger] == [24121, 558297, 28081, 604298]
    assert nf_result.mu.hex() == "0x1.0000000000000p-2"
    assert [float(x).hex() for x in nf_result.step_norms] == ["0x1.499560ec66efep-47", "0x0.0p+0"]
    assert nf_result.remainder_bound.hex() == "0x1.9b383aaf5b19fp-51"


def test_normal_form_manifest_serializes(nf_result):
    manifest = normalform_manifest(nf_result)
    blob = json.dumps(manifest)
    back = json.loads(blob)
    assert back["bucket_terms"] == {"Z0": 66, "ZB": 66, "Z2": 96, "ZGE3": 63}
    assert back["n_generators"] == 1
    assert back["mu"] == pytest.approx(0.25)


def _paired_state(rng, points, amplitude):
    z = amplitude * (rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points)))
    return np.column_stack((z, z.conj())).ravel()


def test_transform_state_round_trip(certified_table, rng):
    gen = scale_form(random_form(certified_table.lattice, 4, n_terms=4, seed=27), 0.01)
    points = certified_table.lattice.points
    state = _paired_state(rng, points, 0.1)
    fwd = transform_state([gen], state, points, tol=1e-12)
    back = transform_state([gen], fwd, points, inverse=True, tol=1e-12)
    assert np.abs(back - state).max() < 1e-8
    assert np.abs(fwd - state).max() > 1e-6


def test_transform_state_ball_guard(certified_table, rng):
    gen = scale_form(random_form(certified_table.lattice, 3, n_terms=4, seed=28), 1.0)
    lattice = certified_table.lattice
    state = np.ones(2 * lattice.npoints, dtype=complex)
    norm = sobolev_norm(state, lattice.points, lattice, 4.0)
    with pytest.raises(ValueError, match="ball"):
        transform_state([gen], state, lattice.points, lattice=lattice, s=4.0, ball=0.5 * norm)


@pytest.mark.parametrize("missing", ["lattice", "s", "both"])
def test_transform_state_ball_guard_needs_lattice_and_s(certified_table, missing):
    # a ball without the norm that measures it is a usage error, not a guard
    # that is silently skipped
    lattice = certified_table.lattice
    gen = scale_form(random_form(lattice, 3, n_terms=4, seed=28), 1.0)
    kw = {"lattice": lattice, "s": 4.0}
    for name in ("lattice", "s") if missing == "both" else (missing,):
        del kw[name]
    state = np.ones(2 * lattice.npoints, dtype=complex)
    with pytest.raises(ValueError, match="ball guard needs lattice and s"):
        transform_state([gen], state, lattice.points, ball=1e-30, **kw)


def test_transform_state_raises_when_the_flow_does_not_converge(certified_table, rng):
    gen = scale_form(random_form(certified_table.lattice, 4, n_terms=4, seed=27), 0.01)
    points = certified_table.lattice.points
    with pytest.raises(ValueError, match=r"max_steps=32.*differ by \d"):
        transform_state([gen], _paired_state(rng, points, 0.1), points, tol=0.0, max_steps=32)


# --- the dict-state flow loop transform_state replaced, as its oracle --------


def _axpy(u, v, a):
    out = dict(u)
    for entry, val in v.items():
        out[entry] = out.get(entry, 0j) + a * val
    return out


def _state_distance(a, b):
    keys = set(a) | set(b)
    return math.sqrt(sum(abs(a.get(k, 0j) - b.get(k, 0j)) ** 2 for k in keys))


def _rk4_run(form, start, n_steps):
    u = dict(start)
    dt = 1.0 / n_steps
    for _ in range(n_steps):
        k1 = dict_vector_field(form, u)
        k2 = dict_vector_field(form, _axpy(u, k1, 0.5 * dt))
        k3 = dict_vector_field(form, _axpy(u, k2, 0.5 * dt))
        k4 = dict_vector_field(form, _axpy(u, k3, dt))
        for entry in set(u) | set(k1) | set(k2) | set(k3) | set(k4):
            u[entry] = u.get(entry, 0j) + (dt / 6.0) * (
                k1.get(entry, 0j)
                + 2.0 * k2.get(entry, 0j)
                + 2.0 * k3.get(entry, 0j)
                + k4.get(entry, 0j)
            )
    return u


def _dict_transform(generators, values, *, inverse, tol):
    seq = list(generators) if inverse else list(generators)[::-1]
    state = dict(values)
    for gen in seq:
        form = scale_form(gen, -1.0) if inverse else gen
        n = 8
        prev = _rk4_run(form, state, n)
        while True:
            n *= 2
            cur = _rk4_run(form, state, n)
            if _state_distance(cur, prev) <= tol:
                break
            prev = cur
        state = cur
    return state


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("paired", [True, False])
def test_transform_state_matches_the_dict_flow(inverse, paired):
    lattice = enumerate_lattice(1, 6.0)
    gens = [
        scale_form(random_form(lattice, 4, n_terms=6, seed=31), 0.05),
        scale_form(random_form(lattice, 3, n_terms=5, seed=32), 0.05),
    ]
    rng = np.random.default_rng(33)
    state = {}
    for p in lattice.points:
        z = 0.2 * complex(rng.standard_normal(), rng.standard_normal())
        state[(p, 1)], state[(p, -1)] = z, z.conjugate()
    if not paired:
        # unpaired values, missing entries and an entry no generator touches
        state = {e: v * (1 + 0.5j) for i, (e, v) in enumerate(state.items()) if i % 3}
        state[((9,), -1)] = 0.5 - 0.25j
    points = sorted({p for p, _ in state} | {p for gen in gens for p in gen.points})
    x = transform_state(gens, state_array(state, points), points, inverse=inverse, tol=1e-12)
    got = {e: v for e, v in state_dict(x, points).items() if v != 0 or e in state}
    want = _dict_transform(gens, state, inverse=inverse, tol=1e-12)
    assert got == want
    assert len(got) > len(state) or paired


def test_normal_form_failures_are_typed(
    certified_table, certified_bands, certified_clusters, certified_partitions, certificates,
    torus_table, torus_partitions,
):
    assert issubclass(CertificateError, ValueError) and issubclass(SmallnessError, ValueError)
    quartic = poly_from_forms([nls_quartic(certified_table.lattice)])
    cfg = NormalFormConfig(r=1, radius=NF_RADIUS, cutoff=NF_CUTOFF)
    kw = dict(certified_partitions, remainder_samples=4)
    with pytest.raises(CertificateError, match="no nonresonance certificate"):
        normalize(certified_table, quartic, cfg, [certificates[3]], **kw)
    bad = certify_nonresonance(torus_table, 3, partition=torus_partitions["bands"])
    cubic = poly_from_forms([random_form(torus_table.lattice, 3, n_terms=4, seed=24)])
    with pytest.raises(CertificateError, match="failed"):
        normalize(torus_table, cubic, cfg, [bad], **torus_partitions, remainder_samples=4)
    key = ((((1,), 1), ((2,), 1), ((3,), -1)))
    with pytest.raises(CertificateError, match="certificate breached"):
        solve_homological(
            make_form({key: 1.0}), certified_table, certified_bands, certified_clusters,
            NF_CUTOFF, 1e6, 5.0,
        )
    large = NormalFormConfig(r=1, radius=0.9, cutoff=NF_CUTOFF)
    with pytest.raises(SmallnessError, match="smallness violated before step 0"):
        normalize(certified_table, quartic, large, [certificates[4]], **kw)


@pytest.mark.parametrize("gamma", [0.0, -1.0])
def test_nonpositive_gamma_is_rejected_by_the_config(gamma):
    # gamma is the certificate's own: the config takes none to validate
    with pytest.raises(TypeError, match="gamma") as info:
        NormalFormConfig(r=1, radius=0.1, gamma=gamma)
    assert not isinstance(info.value, (CertificateError, SmallnessError))
