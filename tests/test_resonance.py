import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import (
    MultiplierEnsemble,
    TorusLaplacian,
    band_map,
    band_partition,
    build_spectrum,
    certificate_to_json,
    certify_nonresonance,
    enumerate_lattice,
    estimate_resonant_measure,
    extended_indexes,
    is_resonant_W,
    validate_cutoff,
)
from latnf.normalform import BUCKETS, NONRESONANT, bucket_rows

from conftest import FROZEN_POTENTIAL
from oracles import (
    dict_random_form,
    from_dict,
    ground_state_divisor_function,
    is_block_nonresonant,
    small_divisor,
)


def classify_term(key, table, bands, clusters, cutoff):
    """Bucket name of one key, from ``bucket_rows`` on a one-key form."""
    form = from_dict(table.lattice.points, len(key), {key: 0j})
    return (BUCKETS + ("NONRESONANT",))[bucket_rows(form, table, bands, clusters, cutoff)[0]]


def signed_count_oracle(key, table, bands):
    """W membership by per-band signed counts.

    Inside one band any plus can pair any minus, so a perfect pairing exists
    exactly when each band carries equally many plus and minus entries.
    """
    bm = band_map(table, bands)
    counts = Counter()
    for p, s in key:
        counts[bm[p]] += s
    return all(v == 0 for v in counts.values())


def pairing_exists(key, table, bands):
    """W membership by definition: some matching of the plus entries to the
    minus entries pairs every entry inside its band."""
    bm = band_map(table, bands)
    plus = [bm[p] for p, s in key if s > 0]
    minus = [bm[p] for p, s in key if s < 0]
    return len(plus) == len(minus) and any(
        plus == list(perm) for perm in itertools.permutations(minus)
    )


@pytest.fixture(scope="module")
def v0_table():
    return build_spectrum(enumerate_lattice(1, 10.0), TorusLaplacian())


@pytest.fixture(scope="module")
def v0_bands(v0_table):
    return band_partition(v0_table)


def test_small_divisor_is_exact_integer(v0_table):
    key = (((3,), 1), ((4,), 1), ((5,), -1))
    d = small_divisor(v0_table, key)
    assert d == 0 and isinstance(d, int)
    d2 = small_divisor(v0_table, (((2,), 1), ((1,), -1)))
    assert d2 == 3 and isinstance(d2, int)


def test_bucket_rows_match_the_per_key_tests(certified_table, certified_bands, certified_clusters):
    # every row of a form at once against the per-key nonresonance test;
    # cutoff 3.5 puts more points, and so more pairs of blocks, above it
    lattice = certified_table.lattice
    for cutoff in (3.5, 5.5):
        for degree in (3, 4, 5):
            f = dict_random_form(lattice, degree, 400, seed=degree, real=False)
            labels = bucket_rows(f, certified_table, certified_bands, certified_clusters, cutoff)
            for key, label in zip(f.coeffs, labels.tolist()):
                solvable = is_block_nonresonant(key, certified_table, certified_bands, certified_clusters, cutoff)
                assert (label == NONRESONANT) == solvable, key
                assert classify_term(key, certified_table, certified_bands, certified_clusters, cutoff) == (BUCKETS + ("NONRESONANT",))[label]
            assert len(set(labels.tolist())) >= 3


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(-8, 8), st.sampled_from([-1, 1])),
        min_size=2,
        max_size=6,
    )
)
def test_pairing_matches_signed_count_oracle(certified_table, certified_bands, entries):
    key = tuple(((a,), s) for a, s in entries)
    got = is_resonant_W(key, certified_table, certified_bands)
    assert got == signed_count_oracle(key, certified_table, certified_bands)
    assert got == pairing_exists(key, certified_table, certified_bands)


def test_odd_orders_never_pair(certified_table, certified_bands):
    key = (((2,), 1), ((-2,), -1), ((0,), 1))
    assert not is_resonant_W(key, certified_table, certified_bands)


def test_validate_cutoff_between_bands(certified_table, certified_bands):
    validate_cutoff(certified_table, certified_bands, 5.5)
    lo, hi = certified_bands.intervals[2]
    inside = 0.5 * (lo**0.5 + hi**0.5)
    with pytest.raises(ValueError):
        validate_cutoff(certified_table, certified_bands, inside)


def test_block_nonresonance_cases(certified_table, certified_bands, certified_clusters):
    cutoff = 5.5
    # single high mode: always solvable
    key1 = (((8,), 1), ((1,), 1), ((1,), -1))
    assert is_block_nonresonant(key1, certified_table, certified_bands, certified_clusters, cutoff)
    # two high modes, same point, opposite signs: same block, kept as Z_B
    key2 = (((8,), 1), ((8,), -1), ((0,), 1))
    assert not is_block_nonresonant(key2, certified_table, certified_bands, certified_clusters, cutoff)
    assert classify_term(key2, certified_table, certified_bands, certified_clusters, cutoff) == "ZB"
    # two high modes, same point, equal signs: solvable
    key3 = (((8,), 1), ((8,), 1), ((0,), -1))
    assert is_block_nonresonant(key3, certified_table, certified_bands, certified_clusters, cutoff)
    # two far-apart blocks: kept as Z_2
    key4 = (((8,), 1), ((-8,), -1), ((0,), 1))
    assert classify_term(key4, certified_table, certified_bands, certified_clusters, cutoff) == "Z2"


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(-8, 8), st.sampled_from([-1, 1])),
        min_size=3,
        max_size=5,
    )
)
def test_classification_buckets_are_exhaustive(
    certified_table, certified_bands, certified_clusters, entries
):
    cutoff = 5.5
    key = tuple(((a,), s) for a, s in entries)
    bucket = classify_term(key, certified_table, certified_bands, certified_clusters, cutoff)
    assert bucket in ("Z0", "ZB", "Z2", "ZGE3", "NONRESONANT")
    high = [e for e in key if certified_table.floor(e[0]) > cutoff]
    if bucket == "NONRESONANT" and len(high) in (1, 2):
        assert is_block_nonresonant(
            key, certified_table, certified_bands, certified_clusters, cutoff
        )
    if bucket == "Z0":
        assert not high
        assert is_resonant_W(key, certified_table, certified_bands)
    if bucket == "ZGE3":
        assert len(high) >= 3


def test_certificates_on_the_frozen_system(certificates):
    for order, cert in certificates.items():
        assert cert.passed
        assert cert.min_score > 0.0
        assert cert.gamma == pytest.approx(0.9 * cert.min_score)
        assert cert.tau == order + 2.0
        assert cert.exhaustive
    assert certificates[3].min_score == pytest.approx(0.049593687673059494)


def test_certificate_witness_is_consistent(certified_table, certificates):
    cert = certificates[3]
    d = abs(small_divisor(certified_table, cert.witness))
    scale = max(1.0, max(certified_table.norm(p) for p, _ in cert.witness)) ** cert.tau
    assert d * scale == pytest.approx(cert.min_score)


def test_zero_minimum_never_certifies(v0_table, v0_bands):
    cert = certify_nonresonance(v0_table, 3, partition=v0_bands)
    assert cert.min_score == 0.0
    assert not cert.passed
    assert abs(small_divisor(v0_table, cert.divisor_witness)) == 0


def test_line_order_three_scan_exact(v0_table, v0_bands):
    """Exhaustive order-3 scan with exact integers: the off-pairing minimum
    is 0 (zero-mode and conjugate-pair witnesses), the nonzero minimum is 1."""
    ext = extended_indexes(v0_table.lattice)
    divisors = []
    for key in itertools.combinations_with_replacement(ext, 3):
        if is_resonant_W(key, v0_table, v0_bands):
            continue
        divisors.append(abs(small_divisor(v0_table, key)))
    assert min(divisors) == 0
    nonzero = [d for d in divisors if d != 0]
    assert min(nonzero) == 1 and isinstance(min(nonzero), int)


def test_pythagorean_witness_at_order_four(v0_table, v0_bands):
    key = (((3,), 1), ((4,), 1), ((5,), -1), ((0,), 1))
    assert not is_resonant_W(key, v0_table, v0_bands)
    assert small_divisor(v0_table, key) == 0
    cert = certify_nonresonance(v0_table, 4, partition=v0_bands)
    assert not cert.passed


def test_certificate_json_round_trip(tmp_path, certificates):
    path = tmp_path / "cert.json"
    certificate_to_json(certificates[3], path)
    payload = json.loads(path.read_text())
    assert payload["order"] == 3
    assert payload["passed"] is True
    assert payload["min_score"] == certificates[3].min_score


def test_frozen_potential_is_the_seed_one_draw():
    lat = enumerate_lattice(1, 8.0)
    ens = MultiplierEnsemble(base=TorusLaplacian(), decay=2)
    drawn = ens.sample(lat, np.random.default_rng(1))
    assert set(drawn.potential) == set(FROZEN_POTENTIAL)
    for p, v in FROZEN_POTENTIAL.items():
        assert drawn.potential[p] == v


def test_ensemble_scale_envelope():
    lat = enumerate_lattice(1, 8.0)
    ens = MultiplierEnsemble(base=TorusLaplacian(), decay=2)
    for p in lat.points:
        w = math.sqrt(1.0 + p[0] ** 2)
        assert ens.scale(lat, p) == pytest.approx(w**-2)
        assert abs(FROZEN_POTENTIAL[p]) <= 0.5 * ens.scale(lat, p)


def test_measure_estimate_respects_the_density_bound():
    lat = enumerate_lattice(1, 8.0)
    ens = MultiplierEnsemble(base=TorusLaplacian(), decay=2)
    rng = np.random.default_rng(11)
    for i in range(4):
        pts = rng.choice(len(lat.points), size=3, replace=False)
        coeffs = {lat.points[j]: int(rng.integers(1, 4)) * int(rng.choice([-1, 1])) for j in pts}
        for gamma in (1e-1, 1e-2):
            est = estimate_resonant_measure(ens, lat, coeffs, gamma, n_samples=4000, seed=50 + i)
            assert est.passed
            assert est.fraction <= est.bound + 3.0 * est.stderr


def test_measure_estimate_validation():
    lat = enumerate_lattice(1, 4.0)
    ens = MultiplierEnsemble(base=TorusLaplacian(), decay=2)
    with pytest.raises(ValueError):
        estimate_resonant_measure(ens, lat, {(1,): 1}, 0.0)
    with pytest.raises(ValueError):
        estimate_resonant_measure(ens, lat, {(1,): 0}, 0.1)


def test_ground_state_divisor_scan_finds_the_root():
    # sqrt(4y+2) + sqrt(y+1) - sqrt(12.25y+3.5): positive at 0, negative slope
    xs = [2.0, 1.0, 3.5]
    scan = ground_state_divisor_function(xs, 2, 0.0, 60.0)
    assert not scan.degenerate
    assert len(scan.roots) >= 1

    def f(y):
        return (
            math.sqrt(4.0 * y + 2.0)
            + math.sqrt(y + 1.0)
            - math.sqrt(12.25 * y + 3.5)
        )

    for root in scan.roots:
        assert abs(f(root)) < 1e-9


def test_ground_state_divisor_degenerate_cancellation():
    scan = ground_state_divisor_function([1.0, 1.0], 1, 0.0, 2.0)
    assert scan.degenerate
    assert scan.roots == ()


def test_ground_state_divisor_validation():
    with pytest.raises(ValueError):
        ground_state_divisor_function([1.0], 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        ground_state_divisor_function([1.0], 1, 1.0, 1.0)
