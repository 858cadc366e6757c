"""The batch certification scan against the per-multiset loop it replaced.

``loop_certificate`` below is that loop, kept as the oracle: it walks
``combinations_with_replacement``, skips the multisets ``is_resonant_W``
accepts, and keeps the first minimum of ``small_divisor`` and of the scaled
score.  The kernel adds the
divisor columns in the same order and skips only rows that cannot beat a
running minimum, so every certificate field must agree exactly, value and
type, witness tuples included.
"""

import gc
import json
import math
import tracemalloc
import weakref
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

import latnf.normalform
import latnf.resonance
from latnf import (
    CertificateError,
    SpectralMultiplier,
    TorusLaplacian,
    band_map,
    band_partition,
    block_index_map,
    build_clusters,
    build_spectrum,
    certificate_to_json,
    certify_nonresonance,
    enumerate_lattice,
    extended_indexes,
    fit_asymptotics,
    is_resonant_W,
    small_divisor,
)
from latnf.frequencies import TableModel
from latnf.resonance import resonant_mask
from conftest import FROZEN_POTENTIAL


def loop_certificate(table, order, partition, *, tau=None):
    if tau is None:
        tau = float(table.lattice.dim * order + 2)
    ext = extended_indexes(table.lattice)
    norm_of = {p: max(1.0, table.norm(p)) for p in table.lattice.points}
    min_score = min_div = math.inf
    witness = div_witness = witness_div = None
    for ms in combinations_with_replacement(ext, order):
        if is_resonant_W(ms, table, partition):
            continue
        div = abs(small_divisor(table, ms))
        if div < min_div:
            min_div, div_witness = div, ms
        score = div * max(norm_of[p] for p, _ in ms) ** tau
        if score < min_score:
            min_score, witness, witness_div = score, ms, div
    return {
        "order": order,
        "tau": tau,
        "gamma": float(0.9 * min_score),
        "min_score": float(min_score),
        "witness": witness,
        "witness_divisor": witness_div,
        "min_divisor": min_div,
        "divisor_witness": div_witness,
        "passed": bool(min_score >= 0.9 * min_score and min_score > 0.0),
        "exhaustive": True,
        "n_checked": math.comb(len(ext) + order - 1, order),
    }


def assert_fields(cert, want):
    for field, value in want.items():
        got = getattr(cert, field)
        assert type(got) is type(value), field
        assert got == value, field


def assert_same_certificate(table, order, **kwargs):
    bands = band_partition(table)
    cert = certify_nonresonance(table, order, partition=bands, **kwargs)
    assert_fields(cert, loop_certificate(table, order, bands, **kwargs))
    return cert


def no_seed(h, t):
    pass


def window_blocks(start, head_sum, tail_sum, width, seed):
    """``_window_blocks`` with the stable orders of the sums."""
    return latnf.resonance._window_blocks(
        start,
        head_sum,
        np.argsort(head_sum, kind="stable"),
        tail_sum,
        np.argsort(tail_sum, kind="stable"),
        width,
        seed,
    )


def exhaustive_scan(n, order):
    """The scan's tables over ``range(n)``: ``(heads, tails, start)``.

    The scan's rows are ``heads[h] + tails[t]`` for each head in turn and
    ``t`` from ``start[h]``, the first tail that starts at the head's last
    index, to the end.
    """
    heads = latnf.resonance._nondecreasing_rows(n, order // 2)
    tails = latnf.resonance._nondecreasing_rows(n, order - order // 2)
    return heads, tails, latnf.resonance._first_owned(n, heads, tails)


def exhaustive_rows(n, order):
    """The scan's blocks as full index rows, rebuilt from its head and tail
    indexes, with infinite window widths and tail sums that sort the tails
    out of index order."""
    rng = np.random.default_rng(10 * n + order)
    heads, tails, start = exhaustive_scan(n, order)
    head_sum = rng.standard_normal(len(heads))
    tail_sum = rng.standard_normal(len(tails))
    blocks = window_blocks(start, head_sum, tail_sum, lambda a, b: np.inf, no_seed)
    for h, t in blocks:
        assert len(h) == len(t)
        yield np.hstack([heads[h], tails[t]])


@pytest.fixture(scope="module")
def v0_table():
    return build_spectrum(enumerate_lattice(1, 10.0), TorusLaplacian())


@pytest.fixture(scope="module")
def offset_table():
    return build_spectrum(enumerate_lattice(2, 2.5, (0.3, 0.1)), TorusLaplacian())


@pytest.mark.parametrize("n,order", [(1, 3), (5, 1), (5, 2), (4, 3), (6, 4), (3, 5), (7, 6)])
@pytest.mark.parametrize("block", [1, 3, 64])
def test_exhaustive_blocks_follow_combinations_order(monkeypatch, n, order, block):
    monkeypatch.setattr(latnf.resonance, "BLOCK", block)
    blocks = list(exhaustive_rows(n, order))
    rows = np.vstack(blocks)
    assert rows.tolist() == [list(c) for c in combinations_with_replacement(range(n), order)]
    assert all(len(b) <= block for b in blocks)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_window_keeps_exactly_the_rows_inside_it(monkeypatch, block):
    # Integer sums make every comparison exact, so rows on the window's edge
    # (|H + T| equal to the width) must be dropped and rows inside kept.
    monkeypatch.setattr(latnf.resonance, "BLOCK", block)
    rng = np.random.default_rng(block)
    heads, tails, start = exhaustive_scan(6, 5)
    head_sum = rng.integers(-4, 5, len(heads)).astype(float)
    tail_sum = rng.integers(-4, 5, len(tails)).astype(float)
    width = rng.choice([0.0, 1.0, 2.0, 3.5, np.inf], len(heads))
    blocks = list(window_blocks(start, head_sum, tail_sum, lambda a, b: width[a:b], no_seed))
    got = [(int(h), int(t)) for hs, ts in blocks for h, t in zip(hs, ts)]
    want = [
        (h, t)
        for h in range(len(heads))
        for t in range(start[h], len(tails))
        if abs(head_sum[h] + tail_sum[t]) < width[h]
    ]
    assert got == want and 0 < len(want) < sum(len(tails) - start)
    assert all(len(h) <= block for h, _ in blocks)


@pytest.mark.parametrize("order", [3, 4])
def test_resonant_mask_matches_scalar_on_every_row(certified_table, certified_bands, order):
    ext = extended_indexes(certified_table.lattice)
    rows = np.vstack(list(exhaustive_rows(len(ext), order)))
    want = [is_resonant_W(tuple(ext[i] for i in row), certified_table, certified_bands)
            for row in rows]
    assert resonant_mask(certified_table, certified_bands, rows).tolist() == want


@pytest.fixture(scope="module")
def small_tables():
    """Seven-mode float and exact lines, a seven-mode line of drawn
    frequencies and a five-mode 2-D offset table."""
    line = enumerate_lattice(1, 3.0)
    potential = {p: FROZEN_POTENTIAL[p] for p in line.points}
    rng = np.random.default_rng(38)
    drawn = {p: p[0] ** 2 + rng.uniform(0.0, 0.9) for p in line.points}
    return {
        "drawn-line": build_spectrum(line, TableModel(values=drawn, beta=2.0)),
        "float-line": build_spectrum(
            line, SpectralMultiplier(base=TorusLaplacian(), potential=potential)
        ),
        "exact-line": build_spectrum(line, TorusLaplacian()),
        "offset-2d": build_spectrum(enumerate_lattice(2, 1.2, (0.3, 0.1)), TorusLaplacian()),
    }


@pytest.mark.parametrize("name", ["float-line", "exact-line", "offset-2d"])
@pytest.mark.parametrize("order", [1, 6])
def test_head_tail_split_matches_the_loop(monkeypatch, small_tables, name, order):
    # Order 6 scans 3-column heads, order 1 none; blocks of 1 and 3 rows split
    # every head's tails across blocks, 64 splits the long ones.
    table = small_tables[name]
    ext = extended_indexes(table.lattice)
    exact = latnf.resonance._signed_omegas(table, ext).dtype == object
    assert exact == (name == "exact-line")
    bands = band_partition(table)
    want = loop_certificate(table, order, bands)
    for block in (1, 3, 64):
        monkeypatch.setattr(latnf.resonance, "BLOCK", block)
        assert_fields(certify_nonresonance(table, order, partition=bands), want)


@pytest.mark.parametrize("tau", [-2.0, 0.0])
@pytest.mark.parametrize("name", ["drawn-line", "float-line", "exact-line", "offset-2d"])
def test_nonpositive_tau_matches_the_loop(monkeypatch, small_tables, name, tau):
    # For tau < 0 the scale falls with the level, so a head's window must be
    # bounded by the least scale of any level at or above the head's: on the
    # drawn line, small blocks and tau = -2, the witness of orders 2 and 4
    # is a row whose tail holds a higher level than its head.  The exact
    # line has many zero-divisor ties.
    table = small_tables[name]
    bands = band_partition(table)
    for order in (2, 4, 5, 6):
        want = loop_certificate(table, order, bands, tau=tau)
        for block in (1, 3, 64):
            monkeypatch.setattr(latnf.resonance, "BLOCK", block)
            cert = certify_nonresonance(table, order, partition=bands, tau=tau)
            assert_fields(cert, want)


def visited_rows(monkeypatch, table, order, bands, **kwargs):
    """The certificate and the number of rows the window blocks carry."""
    visited = []
    window_blocks = latnf.resonance._window_blocks

    def counting(*args):
        for h, t in window_blocks(*args):
            visited.append(len(h))
            yield h, t

    monkeypatch.setattr(latnf.resonance, "_window_blocks", counting)
    return certify_nonresonance(table, order, partition=bands, **kwargs), sum(visited)


def test_order_6_scan_visits_few_rows(monkeypatch, certified_table, certified_bands):
    # 3262623 multisets; the rows that can beat the seeded windows are few.
    # The fields are those of the unpruned scan on the same table.
    cert, visited = visited_rows(monkeypatch, certified_table, 6, certified_bands)
    assert cert.n_checked == 3262623
    assert visited <= 1_000
    assert cert.min_score == 0.007554739129191468
    assert cert.min_divisor == 2.8071816021935092e-05
    assert cert.witness == (
        ((-1,), 1), ((0,), -1), ((0,), -1), ((0,), -1), ((0,), -1), ((1,), -1)
    )


#: rows the scans of the radius-8 table build or evaluate: the head table, the
#: tail table at odd orders, and the seed and window rows
ROWS = {3: 701, 4: 1370, 5: 8110, 6: 9274}


@pytest.mark.parametrize("order", sorted(ROWS))
def test_budget_counts_the_rows_built_or_evaluated(certified_table, certified_bands, order):
    rows = ROWS[order]
    cert = certify_nonresonance(certified_table, order, partition=certified_bands, budget=rows)
    assert cert == certify_nonresonance(certified_table, order, partition=certified_bands)
    with pytest.raises(CertificateError, match=f"order-{order} scan .* budget of {rows - 1} rows"):
        certify_nonresonance(certified_table, order, partition=certified_bands, budget=rows - 1)


def test_order_6_certificate_at_its_row_budget(tmp_path, certified_table, certified_bands):
    cert = certify_nonresonance(certified_table, 6, partition=certified_bands, budget=ROWS[6])
    path = tmp_path / "certificate.json"
    certificate_to_json(cert, path)
    reference = Path(__file__).parent / "nls_t1_order6_certificate_reference.json"
    assert path.read_bytes() == reference.read_bytes()


def test_over_budget_scan_is_refused_before_it_builds_its_tables():
    # 298 signed modes: the order-8 head table alone has 3.3e8 rows
    table = build_spectrum(enumerate_lattice(2, 7.0), TorusLaplacian())
    bands = band_partition(table)
    tracemalloc.start()
    try:
        with pytest.raises(CertificateError, match="order-8 scan .* budget of 4000000 rows"):
            certify_nonresonance(table, 8, partition=bands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert latnf.normalform.CertificateError is CertificateError


def radius8_table():
    """A table equal to, but not the object of, ``certified_table``."""
    model = SpectralMultiplier(base=TorusLaplacian(), potential=FROZEN_POTENTIAL)
    return build_spectrum(enumerate_lattice(1, 8.0), model)


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(6).integers(-3, 4, 999).astype(float),
        np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0, -0.0]),
        np.array([2.5]),
        np.array([]),
    ],
    ids=["ties", "signed-zeros", "one", "none"],
)
def test_stable_order_is_the_stable_argsort(values):
    got = latnf.resonance._stable_order(values)
    assert got.tolist() == np.argsort(values, kind="stable").tolist()


def test_stable_order_of_the_radius_8_three_row_sums(certified_table, certified_bands):
    sums = latnf.resonance._scan_state(certified_table, certified_bands).rows(3).fsum
    assert len(sums) == 7140 and len(sums) - len(np.unique(sums)) == 507
    got = latnf.resonance._stable_order(sums)
    assert got.tolist() == np.argsort(sums, kind="stable").tolist()


def test_orders_of_one_table_share_its_scan_state(monkeypatch):
    # Certified out of order, each order of one table gives the certificate,
    # the visited rows and the budget verdict of a fresh table, and each row
    # table is built once.
    built = []
    nondecreasing_rows = latnf.resonance._nondecreasing_rows

    def counting(n, k):
        built.append(k)
        return nondecreasing_rows(n, k)

    monkeypatch.setattr(latnf.resonance, "_nondecreasing_rows", counting)
    table = radius8_table()
    bands = band_partition(table)
    shared = {}
    for order in (6, 3, 5, 4):
        shared[order] = visited_rows(monkeypatch, table, order, bands)
    assert sorted(built) == [1, 2, 3]
    for order, (cert, visited) in shared.items():
        fresh = radius8_table()
        assert visited_rows(monkeypatch, fresh, order, band_partition(fresh)) == (cert, visited)
        rows = ROWS[order]
        assert certify_nonresonance(table, order, partition=bands, budget=rows) == cert
        with pytest.raises(CertificateError, match=f"budget of {rows - 1} rows"):
            certify_nonresonance(table, order, partition=bands, budget=rows - 1)


def test_tables_on_one_lattice_never_share_a_scan_state():
    lattice = enumerate_lattice(1, 3.0)
    tables = [
        build_spectrum(lattice, SpectralMultiplier(
            base=TorusLaplacian(),
            potential={p: scale * FROZEN_POTENTIAL[p] for p in lattice.points},
        ))
        for scale in (1.0, 0.5)
    ]
    bands = [band_partition(table) for table in tables]
    states = [latnf.resonance._scan_state(t, b) for t, b in zip(tables, bands)]
    assert states[0] is not states[1]
    assert states[0].omega.tolist() != states[1].omega.tolist()
    for table, part in [*zip(tables, bands), *zip(tables, bands)]:
        for order in (3, 4):
            cert = certify_nonresonance(table, order, partition=part)
            assert_fields(cert, loop_certificate(table, order, part))


def test_a_certified_table_is_freed_with_its_caches():
    table = radius8_table()
    bands = band_partition(table)
    clusters = build_clusters(table, 0.5, 1.0)
    certify_nonresonance(table, 4, partition=bands)
    block_index_map(clusters)
    fit_asymptotics(table)
    assert (0,) in table.lattice and band_map(table, bands)[(0,)] == 0
    state = latnf.resonance._scan_state(table, bands)
    refs = [weakref.ref(x) for x in (table, table.lattice, bands, clusters, state)]
    del table, bands, clusters, state
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


@pytest.mark.parametrize("order,bound", [(3, 25), (4, 450), (5, 75)])
def test_low_order_scans_visit_few_rows(
    monkeypatch, certified_table, certified_bands, certificates, order, bound
):
    cert, visited = visited_rows(monkeypatch, certified_table, order, certified_bands)
    assert visited <= bound
    assert cert == certificates[order]


@pytest.mark.parametrize("block", [1, 3, 64])
def test_windows_of_mostly_unowned_tails(monkeypatch, block):
    # Tail sums grow with the tail's first index and every window sits low,
    # so the windows of heads that end on a high index hold mostly tails
    # those heads do not own (t < start[h]).
    monkeypatch.setattr(latnf.resonance, "BLOCK", block)
    rng = np.random.default_rng(block)
    heads, tails, start = exhaustive_scan(8, 4)
    head_sum = rng.integers(-1, 2, len(heads)).astype(float)
    tail_sum = (2 * tails[:, 0] + rng.integers(0, 2, len(tails))).astype(float)
    width = rng.choice([3.0, 6.5, 9.0], len(heads))
    calls = []

    def seed(h, t):
        calls.append(("seed", h.tolist(), t.tolist()))

    def widths(a, b):
        calls.append(("width", a, b))
        return width[a:b]

    blocks = list(window_blocks(start, head_sum, tail_sum, widths, seed))
    got = [(int(h), int(t)) for hs, ts in blocks for h, t in zip(hs, ts)]
    inside = [
        (h, t)
        for h in range(len(heads))
        for t in range(len(tails))
        if abs(head_sum[h] + tail_sum[t]) < width[h]
    ]
    want = [(h, t) for h, t in inside if t >= start[h]]
    assert got == want and 0 < 3 * len(want) < len(inside)
    assert all(len(h) <= block for h, _ in blocks)
    # the seed rows come before any width is asked for, owned, at most
    # SEED_TAILS per head
    kinds = [call[0] for call in calls]
    first_width = kinds.index("width")
    assert set(kinds[:first_width]) == {"seed"} and "seed" not in kinds[first_width:]
    seeded = [(h, t) for kind, hs, ts in calls if kind == "seed" for h, t in zip(hs, ts)]
    assert seeded and all(t >= start[h] for h, t in seeded)
    per_head = np.bincount([h for h, _ in seeded])
    assert per_head.max() <= latnf.resonance.SEED_TAILS


def test_rows_tying_the_seed_stay_in_the_scan():
    # One zero mode: every divisor is 0 and ties the seed's value, and no
    # float margin widens a window around sums that are all 0.
    table = build_spectrum(enumerate_lattice(1, 0.5), TorusLaplacian())
    for order in range(1, 7):
        cert = assert_same_certificate(table, order)
        assert cert.min_divisor == 0 and cert.witness == (((0,), 1),) * order


#: every field of the certificates of the 2-D multiplier below, from the scan
#: before its windows were seeded; 5e5 to 1.4e9 multisets, beyond the loop
PLANE_CERTIFICATES = {
    (3, 4): dict(
        order=4, tau=10.0, gamma=0.0057859896490454425, min_score=0.006428877387828269,
        witness=(
            ((0, -1), 1), ((0, 0), 1), ((0, 1), -1), ((0, 1), -1),
        ),
        witness_divisor=0.006428877387828269, min_divisor=4.078410791841236e-05,
        divisor_witness=(
            ((-2, 0), 1), ((0, -3), 1), ((1, 2), -1), ((2, 2), -1),
        ),
        passed=True, exhaustive=True, n_checked=521855,
    ),
    (3, 5): dict(
        order=5, tau=12.0, gamma=0.0034414896286481867, min_score=0.003823877365164652,
        witness=(
            ((-1, 0), 1), ((-1, 0), 1), ((0, 0), -1), ((0, 1), -1), ((0, 1), -1),
        ),
        witness_divisor=0.003823877365164652, min_divisor=9.968954639560934e-08,
        divisor_witness=(
            ((-1, 1), 1), ((1, 1), -1), ((2, 0), -1), ((2, 0), -1), ((2, 2), 1),
        ),
        passed=True, exhaustive=True, n_checked=6471002,
    ),
    (3, 6): dict(
        order=6, tau=14.0, gamma=0.003188915919211277, min_score=0.0035432399102347523,
        witness=(
            ((-1, 0), 1), ((0, 0), -1), ((0, 0), -1), ((0, 0), -1), ((0, 0), -1), ((1, 0), 1),
        ),
        witness_divisor=0.0035432399102347523, min_divisor=2.0326205263376806e-07,
        divisor_witness=(
            ((-2, -2), 1), ((-1, -1), -1), ((-1, 0), 1),
            ((-1, 2), -1), ((0, -1), -1), ((1, 0), -1),
        ),
        passed=True, exhaustive=True, n_checked=67945521,
    ),
    (4, 5): dict(
        order=5, tau=12.0, gamma=0.0007132239655999406, min_score=0.0007924710728888229,
        witness=(
            ((-1, 0), 1), ((0, 0), 1), ((0, 0), 1), ((1, 0), -1), ((1, 0), -1),
        ),
        witness_divisor=0.0007924710728888229, min_divisor=6.213648795494464e-08,
        divisor_witness=(
            ((-2, 3), 1), ((-1, 2), 1), ((0, 4), -1), ((1, 3), -1), ((2, 2), 1),
        ),
        passed=True, exhaustive=True, n_checked=83291670,
    ),
    (4, 6): dict(
        order=6, tau=14.0, gamma=0.00681943338793225, min_score=0.007577148208813611,
        witness=(
            ((0, 0), 1), ((0, 0), 1), ((0, 0), 1), ((0, 0), 1), ((1, 0), -1), ((1, 0), -1),
        ),
        witness_divisor=0.007577148208813611, min_divisor=8.367487147609154e-09,
        divisor_witness=(
            ((-4, 0), 1), ((-3, -1), -1), ((-3, 1), 1),
            ((-2, -1), -1), ((0, -3), -1), ((1, 1), -1),
        ),
        passed=True, exhaustive=True, n_checked=1429840335,
    ),
}


@pytest.fixture(scope="module")
def plane_tables():
    """The 2-D multiplier of ROADMAP item 6 at radii 3 and 4: ``V_a = 0.2 g_a /
    (1 + |a|^2)``, ``g_a`` standard normal draws of ``default_rng(5)``, one per
    lattice point in lattice order, then ``V_(0,0) = 0.5``."""
    tables = {}
    for radius in (3, 4):
        lattice = enumerate_lattice(2, float(radius))
        rng = np.random.default_rng(5)
        potential = {
            p: 0.2 * rng.standard_normal() / (1 + p[0] ** 2 + p[1] ** 2)
            for p in lattice.points
        }
        potential[(0, 0)] = 0.5
        model = SpectralMultiplier(base=TorusLaplacian(), potential=potential)
        tables[radius] = build_spectrum(lattice, model)
    return tables


@pytest.mark.parametrize("radius,order", sorted(PLANE_CERTIFICATES))
def test_plane_multiplier_certificates(plane_tables, radius, order):
    table = plane_tables[radius]
    cert = certify_nonresonance(table, order, partition=band_partition(table))
    assert_fields(cert, PLANE_CERTIFICATES[radius, order])


@pytest.mark.parametrize(
    "kwargs,name",
    [({"gamma": 0.0}, "gamma"), ({"gamma": -1.0}, "gamma"),
     ({"budget": -1}, "budget"), ({"gamma": math.nan}, "gamma"),
     ({"tau": math.nan}, "tau"), ({"tau": math.inf}, "tau"),
     ({"tau": -math.inf}, "tau"), ({"tau": 400.0}, "tau")],
)
def test_meaningless_arguments_are_refused(certified_table, certified_bands, kwargs, name):
    with pytest.raises(ValueError, match=name):
        certify_nonresonance(certified_table, 3, partition=certified_bands, **kwargs)


@pytest.mark.parametrize("order", [3, 4])
def test_exact_flat_line_has_zero_minimum(v0_table, order):
    cert = assert_same_certificate(v0_table, order)
    assert cert.min_score == 0.0 and cert.min_divisor == 0 and not cert.passed
    assert isinstance(cert.min_divisor, int) and isinstance(cert.witness_divisor, int)


def test_pythagorean_witness(v0_table):
    # With the zero mode lifted out of the way, the first zero divisor of the
    # order-3 scan is the 6-8-10 triple.
    values = {p: (1000 if p == (0,) else p[0] * p[0]) for p in v0_table.lattice.points}
    table = build_spectrum(v0_table.lattice, TableModel(values=values, beta=2.0))
    cert = assert_same_certificate(table, 3)
    assert cert.witness == (((-10,), 1), ((-8,), -1), ((-6,), -1))
    assert cert.min_divisor == 0

    ext = extended_indexes(v0_table.lattice)
    padded = (((3,), 1), ((4,), 1), ((5,), -1), ((0,), 1))
    row = [[ext.index(e) for e in padded]]
    assert not resonant_mask(v0_table, band_partition(v0_table), row)[0]
    assert small_divisor(v0_table, padded) == 0


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_certified_table(certified_table, order):
    cert = assert_same_certificate(certified_table, order)
    assert isinstance(cert.min_divisor, float)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_offset_lattice_float_spectrum(offset_table, order):
    assert not offset_table.exact
    assert min(p[0] for p in offset_table.lattice.points) < 0
    assert_same_certificate(offset_table, order, tau=3.5)


@pytest.mark.parametrize("block", [1, 4, 7])
def test_ties_across_small_blocks(monkeypatch, v0_table, certified_table, block):
    monkeypatch.setattr(latnf.resonance, "BLOCK", block)
    for order in (2, 3):
        assert_same_certificate(v0_table, order)
    for order in (2, 3, 4):
        assert_same_certificate(certified_table, order)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_large_exact_spectrum_keeps_python_integers(order):
    # Near 2**61 a float partial sum is off by hundreds, so exact divisors
    # that differ by less than that meet at the window's edge: the window
    # must allow for it.
    lattice = enumerate_lattice(1, 3.0)
    values = {p: 2**61 + 7 * p[0] * p[0] + p[0] for p in lattice.points}
    table = build_spectrum(lattice, TableModel(values=values, beta=2.0))
    assert table.exact
    ext = extended_indexes(lattice)
    assert latnf.resonance._signed_omegas(table, ext).dtype == object
    cert = assert_same_certificate(table, order)
    assert isinstance(cert.min_divisor, int) and cert.min_divisor > 2**60


@pytest.mark.parametrize("order", [3, 4, 5])
def test_exact_spectrum_mixing_large_and_small_frequencies(order):
    # Two modes near 2**61 and five small ones in their own bands: a head and
    # a tail that each hold a large mode have float sums off by hundreds,
    # while the exact divisor of the row is small or zero.
    lattice = enumerate_lattice(1, 3.0)
    values = {
        p: (2**61 if p[0] in (-3, 0) else 0) + 7 * p[0] * p[0] + p[0]
        for p in lattice.points
    }
    table = build_spectrum(lattice, TableModel(values=values, beta=2.0))
    assert band_partition(table).nbands == 6
    cert = assert_same_certificate(table, order)
    assert isinstance(cert.min_divisor, int) and cert.min_divisor < 10


def test_certificate_json_keeps_exact_divisors(tmp_path):
    lattice = enumerate_lattice(1, 3.0)
    values = {p: 2**61 + 7 * p[0] * p[0] + p[0] for p in lattice.points}
    table = build_spectrum(lattice, TableModel(values=values, beta=2.0))
    cert = certify_nonresonance(table, 3, partition=band_partition(table))
    assert cert.min_divisor == 2305843009213693886  # above 2**53: a float loses it
    path = tmp_path / "certificate.json"
    certificate_to_json(cert, path)
    blob = json.loads(path.read_text())
    for key in ("min_divisor", "witness_divisor"):
        assert type(blob[key]) is int and blob[key] == getattr(cert, key)

    flat = build_spectrum(
        lattice, SpectralMultiplier(base=TorusLaplacian(), potential={(1,): 0.013})
    )
    assert not flat.exact
    blob = certify_nonresonance(flat, 3, partition=band_partition(flat)).to_dict()
    assert type(blob["min_divisor"]) is float and type(blob["witness_divisor"]) is float


def test_many_band_table():
    # 26 bands, one per lattice shell.
    lattice = enumerate_lattice(1, 25.0)
    rng = np.random.default_rng(4)
    model = SpectralMultiplier(
        base=TorusLaplacian(),
        potential={p: 0.05 * rng.uniform() for p in lattice.points},
    )
    table = build_spectrum(lattice, model)
    bands = band_partition(table)
    assert bands.nbands == 26
    ext = extended_indexes(lattice)
    rows = rng.integers(0, len(ext), size=(400, 4))
    rows[::4, 1] = rows[::4, 0] ^ 1  # conjugate pairs: many resonant rows
    rows[::4, 3] = rows[::4, 2] ^ 1
    mask = resonant_mask(table, bands, rows)
    want = [is_resonant_W(tuple(ext[i] for i in row), table, bands) for row in rows]
    assert mask.tolist() == want and 0 < sum(want) < len(want)
    for order in (2, 3):
        assert_same_certificate(table, order)
