import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import (
    TableModel,
    TorusLaplacian,
    band_map,
    band_of,
    band_partition,
    build_spectrum,
    check_band_invariants,
    enumerate_lattice,
)


def _table_from_values(vals):
    lat = enumerate_lattice(1, float((len(vals) - 1) // 2))
    mapped = {p: float(v) for p, v in zip(lat.points, sorted(vals))}
    return build_spectrum(lat, TableModel(values=mapped, beta=2.0))


def test_intervals_cover_every_frequency(torus_table):
    part = band_partition(torus_table)
    bm = band_map(torus_table, part)
    for p in torus_table.points:
        lo, hi = part.intervals[bm[p]]
        assert lo <= float(torus_table.omega(p)) <= hi


def test_width_and_gap_invariants_on_the_line():
    table = build_spectrum(enumerate_lattice(1, 50.0), TorusLaplacian())
    part = band_partition(table)
    diag = check_band_invariants(part)
    assert diag.widths_ok and diag.gaps_ok
    assert diag.violations == ()
    for n in range(1, part.nbands):
        assert part.width(n) <= 2.0
    for n in range(1, part.nbands - 1):
        gap = part.intervals[n + 1][0] - part.intervals[n][1]
        assert gap >= 2.0 * n ** (-part.dim / part.beta)


def test_band_zero_is_the_initial_segment(torus_table):
    part = band_partition(torus_table)
    assert part.intervals[0][0] <= min(float(v) for v in torus_table.omegas)
    starts = [iv[0] for iv in part.intervals]
    assert starts == sorted(starts)


def test_band_of_locates_intervals(torus_table):
    part = band_partition(torus_table)
    for n, (lo, hi) in enumerate(part.intervals):
        assert band_of(part, 0.5 * (lo + hi)) == n
        assert band_of(part, lo) == n
        assert band_of(part, hi) == n


def test_band_of_rejects_frequencies_in_gaps(torus_table):
    part = band_partition(torus_table)
    lo_next = part.intervals[1][0]
    hi_prev = part.intervals[0][1]
    with pytest.raises(ValueError):
        band_of(part, 0.5 * (hi_prev + lo_next))


def test_gap_floor_needs_numbered_band(torus_table):
    part = band_partition(torus_table)
    with pytest.raises(ValueError):
        part.gap_floor(0)
    assert part.gap_floor(4) == pytest.approx(2.0 * 4 ** (-0.5))


def test_violations_recorded_not_raised():
    # a dense arithmetic progression cannot honor the gap rule everywhere
    vals = [0.4 * k for k in range(40)]
    table = _table_from_values(vals)
    part = band_partition(table)
    diag = check_band_invariants(part)
    assert not diag.gaps_ok and diag.violations != ()


def test_two_dimensional_partition_invariants():
    table = build_spectrum(enumerate_lattice(2, 15.0), TorusLaplacian())
    part = band_partition(table)
    assert part.dim == 2
    for n in range(1, part.nbands):
        assert part.width(n) <= 2.0
    for n in range(1, part.nbands - 1):
        gap = part.intervals[n + 1][0] - part.intervals[n][1]
        assert gap >= 2.0 * n ** (-1.0) - 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(0.0, 400.0, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=30,
    )
)
def test_partition_properties_on_random_tables(vals):
    table = _table_from_values(vals)
    part = band_partition(table)
    bm = band_map(table, part)
    # every point lands in its interval, intervals are disjoint and ordered
    for p in table.points:
        lo, hi = part.intervals[bm[p]]
        assert lo <= float(table.omega(p)) <= hi
    for n in range(part.nbands - 1):
        assert part.intervals[n][1] < part.intervals[n + 1][0]
