import json
import math
from pathlib import Path

import numpy as np
import pytest

from latnf import (
    CertificateError,
    NormalFormConfig,
    SmallnessError,
    SymmetricForm,
    TorusLaplacian,
    add_forms,
    band_partition,
    build_spectrum,
    certify_nonresonance,
    choose_cutoff,
    enumerate_lattice,
    lie_transform,
    localized_norm,
    normalform_manifest,
    normalize,
    nls_quartic,
    poisson_bracket,
    poly_from_forms,
    quadratic_hamiltonian,
    random_form,
    scale_form,
    solve_homological,
    sobolev_norm,
    transform_state,
)
from latnf.cli import build_system, run_normalform
from latnf.config import apply_overrides, load_config
from latnf.dynamics import is_action_form

from conftest import NF_CUTOFF, NF_RADIUS
from oracles import (
    bracket_commutation,
    canonical_key,
    conjugate_divisor,
    conjugate_key,
    dict_random_form,
    dict_vector_field,
    from_dict,
    make_form,
    state_array,
    state_dict,
)


def test_config_validation():
    with pytest.raises(ValueError):
        NormalFormConfig(r=0, radius=0.1)
    with pytest.raises(ValueError):
        NormalFormConfig(r=1, radius=1.5)
    cfg = NormalFormConfig(r=2, radius=0.1)
    assert cfg.degree_cap == 6


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
    # the monomial and its conjugate, a real F as every bracket needs
    key = ((((1,), 1), ((2,), 1), ((3,), -1)))
    twin = canonical_key(conjugate_key(key))
    f = make_form(certified_table.lattice.points, {key: 0.25, twin: 0.25})
    cert = certificates[3]
    sol = solve_homological(
        f, certified_table, certified_bands, certified_clusters,
        NF_CUTOFF, cert.gamma, cert.tau, nu=2.0, smoothing=2.0,
    )
    assert sol.normal.coeffs == {}
    assert sol.generator.coeffs == {
        k: pytest.approx(0.25j / conjugate_divisor(certified_table, k)) for k in (key, twin)
    }
    assert sol.residual <= 1e-12
    # the norms of the bound checks of solve_homological, with the keywords it was given
    kw = dict(nu=2.0, smoothing=2.0, zero_mode="lift")
    f_norm, g_norm, z_norm = (localized_norm(x, certified_table, **kw) for x in (f, sol.generator, sol.normal))
    assert f_norm > 0 and g_norm > 0 and z_norm == 0

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
    f = make_form(certified_table.lattice.points, {key: 1.0})
    cert = certificates[4]
    sol = solve_homological(
        f, certified_table, certified_bands, certified_clusters,
        NF_CUTOFF, cert.gamma, cert.tau, nu=2.0, smoothing=2.0,
    )
    assert sol.generator.coeffs == {}
    assert sol.normal.coeffs == f.coeffs
    assert sol.residual == 0.0


def test_homological_guards_the_certificate(
    certified_table, certified_bands, certified_clusters
):
    key = ((((1,), 1), ((2,), 1), ((3,), -1)))
    f = make_form(certified_table.lattice.points, {key: 1.0, canonical_key(conjugate_key(key)): 1.0})
    with pytest.raises(ValueError, match="certificate breached"):
        solve_homological(
            f, certified_table, certified_bands, certified_clusters,
            NF_CUTOFF, 1e6, 5.0, nu=2.0, smoothing=2.0,
        )


def test_homological_generator_is_bit_identical_to_the_scalar_division(
    certified_table, certified_bands, certified_clusters, certificates
):
    # the certified table is a float spectrum; a negative coupling gives
    # generator values with zero real parts, whose sign must match too.  The
    # random form is real, as the residual check's bracket needs, and its
    # complex coefficients set both parts of every generator value
    cert = certificates[4]
    lattice = certified_table.lattice
    for f in (nls_quartic(lattice, 1.0), nls_quartic(lattice, -1.0), dict_random_form(lattice, 4, 300, seed=5)):
        sol = solve_homological(
            f, certified_table, certified_bands, certified_clusters,
            NF_CUTOFF, cert.gamma, cert.tau, nu=2.0, smoothing=2.0,
        )
        keys = list(sol.generator.coeffs)
        assert keys
        got = np.array([sol.generator.coeffs[k] for k in keys])
        want = np.array([1j * f.coeffs[k] / conjugate_divisor(certified_table, k) for k in keys])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert keys == [k for k in f.coeffs if k not in sol.normal.coeffs]


def test_homological_generator_of_a_point_with_both_signs_is_exactly_real(
    certified_table, certified_bands, certified_clusters, certificates
):
    # key (1+, 4+, 4-): summed in row order, its divisor (omega_1 + omega_4)
    # - omega_4 and its conjugate's (-omega_1 + omega_4) - omega_4 round
    # apart, by eps omega_4, and that row holds the largest |G|; the
    # residual check's bracket would refuse the generator as not real.
    # Cancelled first, both divisors are exactly +-omega_1
    key = ((((1,), 1), ((4,), 1), ((4,), -1)))
    twin = canonical_key(conjugate_key(key))
    f = make_form(certified_table.lattice.points, {key: 1.0, twin: 1.0})
    cert = certificates[3]
    sol = solve_homological(
        f, certified_table, certified_bands, certified_clusters,
        NF_CUTOFF, cert.gamma, cert.tau, nu=2.0, smoothing=2.0,
    )
    omega = certified_table.omega((1,))
    assert (omega + certified_table.omega((4,))) - certified_table.omega((4,)) != omega
    g = sol.generator.coeffs
    assert g[key] == 1j / omega and g[twin] == g[key].conjugate()
    assert sol.residual <= 1e-15


def test_homological_residual_bound_scales_with_the_coupling(
    certified_table, certified_bands, certified_clusters, certificates
):
    # the residual, 3.638e-12 at coupling 1000, grows with F and G, and so
    # does its bound: an absolute 1e-12 would fail this solve
    cert = certificates[4]
    f = nls_quartic(certified_table.lattice, 1000.0)
    sol = solve_homological(
        f, certified_table, certified_bands, certified_clusters, NF_CUTOFF, cert.gamma, cert.tau,
        nu=2.0, smoothing=2.0,
    )
    assert sol.residual > 1e-12


def test_homological_residual_bound_catches_a_generator_off_by_1e_10(
    certified_table, certified_bands, certified_clusters, certificates, monkeypatch
):
    import latnf.normalform

    inner = latnf.normalform.poisson_bracket

    def off(f, g, tol):
        # one row and its conjugate row, by one real factor: the generator
        # stays real, so the bracket takes it and the residual must catch it
        values = g.values.copy()
        row = g.codes[len(values) // 2]
        twin = np.flatnonzero((g.codes == np.sort(row ^ 1)).all(axis=1))
        values[[len(values) // 2, *twin]] *= 1.0 + 1e-10
        return inner(f, SymmetricForm(g.points, g.codes, values), tol)

    monkeypatch.setattr(latnf.normalform, "poisson_bracket", off)
    cert = certificates[4]
    with pytest.raises(RuntimeError, match="exceeds its rounding bound"):
        solve_homological(
            nls_quartic(certified_table.lattice), certified_table, certified_bands,
            certified_clusters, NF_CUTOFF, cert.gamma, cert.tau, nu=2.0, smoothing=2.0,
        )


def test_normalize_keeps_every_form_packed():
    # the radius-5 truncation of nls_t1.ini at cutoff 4.5; see tests/test_scripts.py
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "nls_t1.ini"))
    apply_overrides(cfg, ["lattice.radius=5", "normalform.cutoff=4.5", "normalform.radius=9.221127468086334e-05"])
    _, result = run_normalform(cfg, build_system(cfg))
    assert [len(e.form) for e in result.ledger] == [3376, 37147, 3692, 38491]
    # in source order, then Lie index, as the one-source series emitted them
    assert [(e.source_degree, e.lie_index, e.degree) for e in result.ledger] == [(2, 2, 6), (2, 3, 8), (4, 1, 6), (4, 2, 8)]
    normal_parts = [
        part for name in ("Z0", "ZB", "Z2", "ZGE3") for part in result.bucket(name).parts.values()
    ]
    forms = [e.form for e in result.ledger] + list(result.generators) + normal_parts
    assert [f for f in forms if "coeffs" in vars(f)] == []


def test_the_degree_8_pass_expands_half_the_pairs(monkeypatch):
    # the radius-5 truncation as above: its degree 6 -> 8 pass brackets the
    # degree-6 Lie terms with the quartic generator.  Only the pairs whose F
    # variable is a plus code are expanded, half of all pairs, since every
    # bracket input is real
    import latnf.forms
    import latnf.normalform

    passes = []
    inner_brackets, inner_add = latnf.normalform.poisson_brackets, latnf.forms._add_pairs

    def brackets(fs, g, *args, **kwargs):
        passes.append((fs, g, [0]))
        return inner_brackets(fs, g, *args, **kwargs)

    def add_pairs(*args):
        if passes:
            passes[-1][2][0] += len(args[-1])
        return inner_add(*args)

    monkeypatch.setattr(latnf.normalform, "poisson_brackets", brackets)
    monkeypatch.setattr(latnf.forms, "_add_pairs", add_pairs)
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "nls_t1.ini"))
    apply_overrides(cfg, ["lattice.radius=5", "normalform.cutoff=4.5", "normalform.radius=9.221127468086334e-05"])
    run_normalform(cfg, build_system(cfg))
    (fs, g, (expanded,)), = [p for p in passes if p[0][0].degree + p[1].degree - 2 == 8]
    # the full expansion: every distinct derivative row of the forms, as
    # (variable, column of its run, reduced row), meets every G row of the
    # conjugate variable
    union = set()
    for f in fs:
        fvar, frows, _ = f.derivatives
        column = (frows < fvar[:, None]).sum(axis=1)
        union.update(zip(fvar.tolist(), column.tolist(), map(tuple, frows.tolist())))
    gvar = g.derivatives[0]
    every = sum(int(np.count_nonzero(gvar == var ^ 1)) for var, _, _ in union)
    assert (expanded, every) == (299388, 598776)


def _two_step_normal_form():
    """The system and normal form of r = 2 on the radius-3 truncation of nls_t1.ini."""
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "nls_t1.ini"))
    apply_overrides(cfg, ["lattice.radius=3", "normalform.r=2", "normalform.cutoff=none", "normalform.radius=1e-4"])
    system = build_system(cfg)
    return system, run_normalform(cfg, system)[1]


def test_two_step_normal_form_is_pinned():
    # the only run here that normalizes past one step (degree 4, then the
    # degree-6 part it made)
    _, result = _two_step_normal_form()
    assert result.cutoff == 2.5075201955366153
    assert [len(g) for g in result.generators] == [38, 262]
    assert {name: {d: len(f) for d, f in result.bucket(name).parts.items()} for name in ("Z0", "ZB", "Z2", "ZGE3")} == {
        "Z0": {4: 15, 6: 24}, "ZB": {4: 10, 6: 52}, "Z2": {4: 6, 6: 50}, "ZGE3": {4: 3, 6: 60},
    }
    assert [(e.step, e.source_degree, e.lie_index, e.degree, len(e.form)) for e in result.ledger] == [
        (0, 2, 3, 8, 2122), (0, 2, 4, 10, 9277), (0, 4, 2, 8, 2392), (0, 4, 3, 10, 10143),
        (1, 2, 2, 10, 7005), (1, 4, 1, 8, 1578), (1, 4, 2, 12, 32957), (1, 6, 1, 10, 9841),
    ]
    assert (result.commutation.max_band_residual, result.commutation.max_block_residual) == (0.0, 0.0)
    # 0x1.8e19d12d1c38dp+1 under the full expansion: the degree-6 Z2 part it
    # reads comes out of the half-expansion brackets 1 ulp lower
    assert result.commutation.z2_bracket_norm == float.fromhex("0x1.8e19d12d1c38cp+1")


def test_normal_form_is_scale_free(tmp_path, monkeypatch, capsys):
    # H0 + c Q at radius R / sqrt(c) is the problem H0 + Q at radius R.  With
    # c = 4**k every input is the reference's times a power of 2, so mu, the
    # census and the certificates keep their bits and G scales by c exactly
    import latnf.cli

    results = []
    inner = latnf.cli.normalize

    def spy(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(latnf.cli, "normalize", spy)
    config = str(Path(__file__).resolve().parents[1] / "configs" / "nls_t1.ini")
    manifests = {}
    for k in range(-2, 7):
        out = tmp_path / str(k)
        argv = ["normalform", "--config", config, "--out-dir", str(out)]
        for item in ("lattice.radius=5", "normalform.cutoff=4.5", f"normalform.coupling={4.0**k!r}",
                     f"normalform.radius={9.221127468086334e-05 / 2.0**k!r}"):
            argv += ["--set", item]
        assert latnf.cli.main(argv) == 0, capsys.readouterr()
        manifests[k] = json.loads((out / "normalform_manifest.json").read_text())["results"]
    generators = dict(zip(manifests, (r.generators for r in results), strict=True))
    for k, res in manifests.items():
        assert res["bucket_terms"] == {"Z0": 45, "ZB": 18, "Z2": 10, "ZGE3": 3}
        assert res["config"]["cutoff"] == 4.5
        assert res["mu"] == manifests[0]["mu"]
        assert res["certificates"] == manifests[0]["certificates"]
        for g, g_ref in zip(generators[k], generators[0], strict=True):
            assert g.points == g_ref.points and np.array_equal(g.codes, g_ref.codes)
            assert np.array_equal(g.values, g_ref.values * 4.0**k)


def _labels(dropped):
    return [(d0, k, form.degree) for d0, k, form in dropped]


def test_lie_transform_takes_each_series_length_from_the_cap(certified_table):
    # a source of degree d0 runs to Lie index n = max(1, ceil((cap + 3 - d0) / g))
    # with g = G.degree - 2; the last term, of degree d0 + n g > cap, is dropped
    lattice = certified_table.lattice
    cubic = random_form(lattice, 3, n_terms=3, seed=21)
    quartic = random_form(lattice, 4, n_terms=3, seed=22)
    octic = random_form(lattice, 8, n_terms=3, seed=23)
    # g = 1, cap 4: n = 4 at d0 = 3, 3 at d0 = 4, and 1 at d0 = 8, past the cap already
    gen = random_form(lattice, 3, n_terms=3, seed=24)
    kept, dropped = lie_transform(gen, [cubic, quartic, octic], [0, 0, 0], cap=4)
    assert [t.degree for t in kept] == [3, 4, 4]
    assert _labels(dropped) == [
        (3, 2, 5), (3, 3, 6), (3, 4, 7), (4, 1, 5), (4, 2, 6), (4, 3, 7), (8, 0, 8), (8, 1, 9),
    ]
    # g = 2, cap 4: n = 2 at d0 = 4
    kept, dropped = lie_transform(random_form(lattice, 4, n_terms=3, seed=26), [quartic], [0], cap=4)
    assert [t.degree for t in kept] == [4]
    assert _labels(dropped) == [(4, 1, 6), (4, 2, 8)]
    with pytest.raises(ValueError, match="generator must have degree >= 3, got 2"):
        lie_transform(quadratic_hamiltonian(certified_table), [quartic], [0], cap=4)


def test_lie_transform_caps_and_ledgers(certified_table):
    gen = random_form(certified_table.lattice, 4, n_terms=3, seed=21)
    part = random_form(certified_table.lattice, 4, n_terms=3, seed=22)
    kept, dropped = lie_transform(gen, [part], [0], cap=6)
    assert kept[0].coeffs == part.coeffs
    br1 = poisson_bracket(part, gen)
    assert kept[1].coeffs == pytest.approx(br1.coeffs)
    assert _labels(dropped) == [(4, 2, 8), (4, 3, 10)]
    half = scale_form(poisson_bracket(br1, gen), 0.5)
    assert dropped[0][2].coeffs == pytest.approx(half.coeffs)


def test_lie_transform_walks_its_parts_by_degree(certified_table):
    # several parts in one walk give each part's own series: kept and
    # dropped terms in part order, then Lie index; the brackets that two
    # parts share a degree in run jointly, so values agree to rounding
    lattice = certified_table.lattice
    gen = random_form(lattice, 4, n_terms=3, seed=21)
    parts = [
        quadratic_hamiltonian(certified_table),
        random_form(lattice, 3, n_terms=3, seed=25),
        random_form(lattice, 4, n_terms=3, seed=22),
    ]
    kept, dropped = lie_transform(gen, parts, [0, 0, 0], cap=6)
    want_kept, want_dropped = [], []
    for part in parts:
        k, d = lie_transform(gen, [part], [0], cap=6)
        want_kept += k
        want_dropped += d
    assert [t.degree for t in kept] == [t.degree for t in want_kept] == [2, 4, 6, 3, 5, 4, 6]
    assert _labels(dropped) == _labels(want_dropped)
    assert _labels(dropped) == [(2, 3, 8), (2, 4, 10), (3, 2, 7), (3, 3, 9), (4, 2, 8), (4, 3, 10)]
    pairs = list(zip(kept, want_kept)) + [(a[2], b[2]) for a, b in zip(dropped, want_dropped)]
    for got, want in pairs:
        assert np.array_equal(got.codes, want.codes)
        assert np.abs(got.values - want.values).max(initial=0.0) <= 1e-14 * np.abs(want.values).max(initial=0.0)


def test_lie_transform_enters_a_series_at_its_first_index(certified_table):
    # {h0, G} given at Lie index 1 continues h0's own series: the same terms
    # from index 1 on, divided by the same factorials, and of the same
    # length, the dropped terms naming h0
    gen = random_form(certified_table.lattice, 4, n_terms=3, seed=21)
    h0 = quadratic_hamiltonian(certified_table)
    want_kept, want_dropped = lie_transform(gen, [h0], [0], cap=6)
    kept, dropped = lie_transform(gen, [poisson_bracket(h0, gen)], [1], cap=6)
    assert [t.degree for t in kept] == [t.degree for t in want_kept[1:]] == [4, 6]
    assert _labels(dropped) == _labels(want_dropped) == [(2, 3, 8), (2, 4, 10)]
    pairs = list(zip(kept, want_kept[1:])) + [(a[2], b[2]) for a, b in zip(dropped, want_dropped)]
    for got, want in pairs:
        assert np.array_equal(got.codes, want.codes)
        assert np.abs(got.values - want.values).max(initial=0.0) <= 1e-14 * np.abs(want.values).max(initial=0.0)


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
    assert nf_result.bucket("Z0").n_terms() == 66
    assert nf_result.bucket("ZB").n_terms() == 66
    assert nf_result.bucket("Z2").n_terms() == 96
    assert nf_result.bucket("ZGE3").n_terms() == 63


def test_normal_form_buckets_are_action_like(nf_result):
    for part in (nf_result.bucket("Z0"), nf_result.bucket("ZB")):
        for d in part.degrees:
            assert is_action_form(part.parts[d])
    assert not all(is_action_form(nf_result.bucket("Z2").parts[d]) for d in nf_result.bucket("Z2").degrees)


def test_normal_form_commutation(nf_result):
    assert nf_result.commutation.max_band_residual == 0.0
    assert nf_result.commutation.max_block_residual == 0.0
    assert nf_result.commutation.z2_bracket_norm >= 0.0


def test_commutation_report_is_that_of_the_generic_brackets(nf_result, certified_table, certified_bands, certified_clusters):
    # |c| |signed count| against the largest poisson_bracket coefficient with
    # each superaction form: bit for bit, as every count here is 0 or +-1
    system, two_step = _two_step_normal_form()
    for result, table, bands, clusters in [
        (nf_result, certified_table, certified_bands, certified_clusters),
        (two_step, system.table, system.bands, system.clusters),
    ]:
        assert result.commutation == bracket_commutation(result.buckets, table, bands, clusters, result.cutoff)


def test_normal_form_constants_come_from_certificates(nf_result, certificates):
    assert nf_result.gamma == {4: pytest.approx(certificates[4].gamma)}
    assert nf_result.tau == {4: 6.0}


def test_normal_form_ledger(nf_result):
    assert len(nf_result.ledger) == 4
    assert sorted(e.degree for e in nf_result.ledger) == [6, 6, 8, 8]
    assert all(e.step == 0 for e in nf_result.ledger)
    assert nf_result.ledger_bound == pytest.approx(sum(e.norm_r for e in nf_result.ledger))
    assert nf_result.remainder_bound < 1e-10


def test_normal_form_ledger_runs_in_source_then_lie_index_order(nf_result):
    assert [(e.source_degree, e.lie_index, e.degree, len(e.form)) for e in nf_result.ledger] == [
        (2, 2, 6, 24121), (2, 3, 8, 558297), (4, 1, 6, 28081), (4, 2, 8, 604298),
    ]


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
    fwd = transform_state([gen], state, tol=1e-12)
    back = transform_state([gen], fwd, inverse=True, tol=1e-12)
    assert np.abs(back - state).max() < 1e-8
    assert np.abs(fwd - state).max() > 1e-6


def test_transform_state_ball_guard(certified_table, rng):
    gen = scale_form(random_form(certified_table.lattice, 3, n_terms=4, seed=28), 1.0)
    lattice = certified_table.lattice
    state = np.ones(2 * lattice.npoints, dtype=complex)
    norm = sobolev_norm(state, lattice, 4.0)
    with pytest.raises(ValueError, match="ball"):
        transform_state([gen], state, lattice=lattice, s=4.0, ball=0.5 * norm)


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
        transform_state([gen], state, ball=1e-30, **kw)


def test_transform_state_raises_when_the_flow_does_not_converge(certified_table, rng):
    gen = scale_form(random_form(certified_table.lattice, 4, n_terms=4, seed=27), 0.01)
    points = certified_table.lattice.points
    with pytest.raises(ValueError, match=r"max_steps=32.*differ by \d"):
        transform_state([gen], _paired_state(rng, points, 0.1), tol=0.0, max_steps=32)


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
    # the generators over a wider lattice, whose points past 6 they leave untouched
    wide = enumerate_lattice(1, 9.0)
    gens = [
        from_dict(wide.points, g.degree, g.coeffs)
        for g in (
            scale_form(random_form(lattice, 4, n_terms=6, seed=31), 0.05),
            scale_form(random_form(lattice, 3, n_terms=5, seed=32), 0.05),
        )
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
    x = transform_state(gens, state_array(state, wide.points), inverse=inverse, tol=1e-12)
    got = {e: v for e, v in state_dict(x, wide.points).items() if v != 0 or e in state}
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
            make_form(certified_table.lattice.points, {key: 1.0}), certified_table, certified_bands, certified_clusters,
            NF_CUTOFF, 1e6, 5.0, nu=2.0, smoothing=2.0,
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
