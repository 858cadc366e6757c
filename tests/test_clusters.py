import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import (
    TorusLaplacian,
    block_labels,
    build_clusters,
    build_spectrum,
    certify_dyadic,
    cluster_summary,
    clusters_to_csv,
    clusters_to_json,
    enumerate_lattice,
    separation_margin,
)
from latnf.lattice import point_index

from oracles import TableModel


def closure_oracle(table, delta, c_delta):
    """Transitive closure of the proximity relation by breadth-first search."""
    pts = list(table.lattice.points)
    eff = [table.lattice.effective(p) for p in pts]
    om = [float(table.omega(p)) for p in pts]
    w = [c_delta * float(np.linalg.norm(e)) ** delta for e in eff]

    def linked(i, j):
        gap = float(np.linalg.norm(eff[i] - eff[j])) + abs(om[i] - om[j])
        return gap < w[i] + w[j]

    seen = {}
    label = 0
    for i in range(len(pts)):
        if i in seen:
            continue
        stack = [i]
        seen[i] = label
        while stack:
            k = stack.pop()
            for j in range(len(pts)):
                if j not in seen and linked(k, j):
                    seen[j] = label
                    stack.append(j)
        label += 1
    groups = {}
    for i, lab in seen.items():
        groups.setdefault(lab, set()).add(pts[i])
    return {frozenset(g) for g in groups.values()}


def as_block_set(partition):
    return {frozenset(block) for block in partition.blocks}


def test_parameter_validation(torus_table):
    with pytest.raises(ValueError):
        build_clusters(torus_table, delta=0.0, c_delta=1.0)
    with pytest.raises(ValueError):
        build_clusters(torus_table, delta=1.0, c_delta=1.0)
    with pytest.raises(ValueError):
        build_clusters(torus_table, delta=0.5, c_delta=0.0)


def test_blocks_partition_the_truncation(certified_table, certified_clusters):
    pts = [p for block in certified_clusters.blocks for p in block]
    assert sorted(pts) == sorted(certified_table.lattice.points)
    labels, index = block_labels(certified_table, certified_clusters), point_index(certified_table.lattice)
    for b, block in enumerate(certified_clusters.blocks):
        for p in block:
            assert labels[index[p]] == b


def test_union_find_matches_closure_on_the_line(torus_table):
    for delta, c in ((0.5, 1.0), (0.3, 2.0), (0.7, 0.6)):
        mine = as_block_set(build_clusters(torus_table, delta=delta, c_delta=c))
        assert mine == closure_oracle(torus_table, delta, c)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.15, 0.85),
    st.floats(0.4, 2.5),
    st.integers(0, 4),
)
def test_union_find_matches_closure_on_random_tables(delta, c, seed):
    rng = np.random.default_rng(seed)
    lat = enumerate_lattice(1, 6.0)
    vals = {p: float(v) for p, v in zip(lat.points, np.sort(rng.uniform(0, 40, len(lat.points))))}
    table = build_spectrum(lat, TableModel(values=vals, beta=2.0))
    mine = as_block_set(build_clusters(table, delta=delta, c_delta=c))
    assert mine == closure_oracle(table, delta, c)


def test_two_dimensional_closure_matches():
    table = build_spectrum(enumerate_lattice(2, 5.0), TorusLaplacian())
    mine = as_block_set(build_clusters(table, delta=0.5, c_delta=1.5))
    assert mine == closure_oracle(table, 0.5, 1.5)


def test_blocks_are_deterministically_ordered(certified_table):
    a = build_clusters(certified_table, 0.5, 1.0)
    b = build_clusters(certified_table, 0.5, 1.0)
    assert a.blocks == b.blocks
    firsts = [block[0] for block in a.blocks]
    assert firsts == sorted(firsts)


def test_dyadic_certificate(certified_table, certified_clusters):
    report = certify_dyadic(certified_clusters, certified_table)
    assert report.passed
    assert report.constant >= 1.0
    # a block with the zero mode has no ratio: it is exempted
    ratios = []
    for block in certified_clusters.blocks:
        norms = [certified_table.norm(p) for p in block]
        if min(norms) > 0.0:
            ratios.append(max(norms) / min(norms))
    assert report.constant == max(ratios)
    assert report.worst_block != block_labels(certified_table, certified_clusters)[point_index(certified_table.lattice)[(0,)]]


def test_separation_margin_exceeds_the_build_constant(certified_table, certified_clusters):
    margin, pair = separation_margin(certified_clusters, certified_table)
    assert margin >= certified_clusters.c_delta
    assert pair is not None
    single = build_clusters(certified_table, delta=0.5, c_delta=100.0)
    if single.nblocks < 2:
        with pytest.raises(ValueError):
            separation_margin(single, certified_table)


def test_summary_and_serialization(tmp_path, certified_table, certified_clusters):
    dyadic = certify_dyadic(certified_clusters, certified_table)
    summary = cluster_summary(certified_clusters, certified_table, dyadic)
    assert summary["n_blocks"] == certified_clusters.nblocks
    assert summary["dyadic_C"] == dyadic.constant
    csv_path = tmp_path / "clusters.csv"
    clusters_to_csv(certified_clusters, certified_table, csv_path)
    assert len(csv_path.read_text().strip().splitlines()) == len(certified_table) + 1
    json_path = tmp_path / "clusters.json"
    clusters_to_json(summary, json_path)
    payload = json.loads(json_path.read_text())
    assert payload["n_blocks"] == certified_clusters.nblocks
    assert payload["min_margin"] is None or payload["min_margin"] >= 0.0
