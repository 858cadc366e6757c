import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import (
    MAX_POINTS,
    enumerate_lattice,
    extended_indexes,
    point_distance,
)

from oracles import canonical_key, conjugate, conjugate_key, is_real_pairing, real_state


def brute_count(dim, radius, offset=None):
    off = (0.0,) * dim if offset is None else tuple(offset)
    side = int(math.ceil(radius)) + 2
    count = 0
    for n in itertools.product(range(-side, side + 1), repeat=dim):
        if sum((c + k) ** 2 for c, k in zip(n, off)) <= radius * radius:
            count += 1
    return count


def test_line_truncation_counts():
    lat = enumerate_lattice(1, 8.0)
    assert lat.npoints == 17
    assert lat.points[0] == (-8,) and lat.points[-1] == (8,)


@pytest.mark.parametrize(
    "dim,radius",
    [(1, 12.0), (2, 4.5), (2, 7.0), (3, 3.2)],
)
def test_counts_match_brute_force(dim, radius):
    lat = enumerate_lattice(dim, radius)
    assert lat.npoints == brute_count(dim, radius)


def test_offset_shifts_membership():
    lat = enumerate_lattice(1, 2.0, offset=[0.5])
    # effective coordinates are n + 1/2, so n ranges over -2..1
    assert lat.points == ((-2,), (-1,), (0,), (1,))
    assert lat.npoints == brute_count(1, 2.0, (0.5,))
    np.testing.assert_allclose(lat.effective((-2,)), [-1.5])
    assert lat.has_offset


def test_offset_validation():
    with pytest.raises(ValueError):
        enumerate_lattice(1, 2.0, offset=[1.5])
    with pytest.raises(ValueError):
        enumerate_lattice(2, 2.0, offset=[0.25])


def test_dim_and_radius_validation():
    with pytest.raises(ValueError):
        enumerate_lattice(4, 1.0)
    with pytest.raises(ValueError):
        enumerate_lattice(1, 0.0)


def test_empty_truncation_names_radius_and_offset():
    # |n + 0.5| >= 0.5 for every integer n, so radius 0.2 holds no point.
    with pytest.raises(ValueError, match=r"radius 0\.2") as info:
        enumerate_lattice(1, 0.2, offset=0.5)
    assert "offset (0.5,)" in str(info.value)
    assert enumerate_lattice(1, 0.5, offset=0.5).points == ((-1,), (0,))


def test_infeasible_truncation_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        enumerate_lattice(3, 1000.0)
    assert MAX_POINTS == 10**6


def test_points_are_lexicographically_sorted():
    lat = enumerate_lattice(2, 3.5)
    assert list(lat.points) == sorted(lat.points)


def test_norm_is_exact_integer_square_without_offset():
    lat = enumerate_lattice(2, 5.0)
    ns = lat.norm_sq((3, 4))
    assert ns == 25 and isinstance(ns, int)


def test_membership_operator():
    lat = enumerate_lattice(2, 2.0)
    assert (1, 1) in lat
    assert (2, 1) not in lat


def test_extended_indexes_pair_each_point():
    lat = enumerate_lattice(1, 3.0)
    ext = extended_indexes(lat)
    assert len(ext) == 2 * lat.npoints
    assert conjugate(((2,), 1)) == ((2,), -1)
    assert conjugate(conjugate(((2,), -1))) == ((2,), -1)


@given(st.lists(st.tuples(st.integers(-9, 9), st.sampled_from([-1, 1])), min_size=1, max_size=6))
def test_canonical_key_is_permutation_invariant(entries):
    key = [((a,), s) for a, s in entries]
    base = canonical_key(key)
    assert canonical_key(reversed(key)) == base
    assert canonical_key(base) == base
    assert canonical_key(conjugate_key(conjugate_key(key))) == base


@given(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
)
def test_point_distance_is_a_metric(a, b):
    assert point_distance(a, b) == point_distance(b, a)
    assert point_distance(a, a) == 0.0
    assert point_distance(a, b) == pytest.approx(math.dist(a, b))


def test_real_pairing_round_trip():
    plus = {(0,): 0.3 + 0.1j, (1,): -0.2j, (-1,): 0.5}
    state = real_state(plus)
    assert is_real_pairing(state)
    for p, v in plus.items():
        assert state[(p, 1)] == v
        assert state[(p, -1)] == np.conj(v)
    broken = dict(state)
    broken[((1,), -1)] = 123.0
    assert not is_real_pairing(broken)


@settings(max_examples=25)
@given(st.integers(1, 2), st.floats(1.0, 6.0))
def test_every_enumerated_point_is_inside(dim, radius):
    lat = enumerate_lattice(dim, radius)
    assert all(lat.norm(p) <= radius + 1e-12 for p in lat.points)
    assert lat.npoints == brute_count(dim, radius)
