"""Cluster decomposition of the lattice by combined index/frequency proximity.

Two points connect when ``|a-b| + |omega_a-omega_b| < c_delta (|a|^delta +
|b|^delta)``; blocks are the connected components of that graph (union-find
over the vectorized edge list).  The complement of the edge predicate is then
a construction guarantee: cross-block pairs are separated by at least the
same threshold.  Blocks are certified dyadic by the measured ratio
``sup |a| / inf |a|``; blocks containing a zero-norm mode are exempted from
the ratio.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .frequencies import SpectrumTable
from .lattice import Point, _per_object, effective_array, point_index


class _DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]


@dataclass(frozen=True, eq=False)
class ClusterPartition:
    """Disjoint blocks covering the truncation, with their build constants."""

    delta: float
    c_delta: float
    blocks: Tuple[Tuple[Point, ...], ...]

    @property
    def nblocks(self) -> int:
        return len(self.blocks)


@_per_object
def block_labels(table: SpectrumTable, partition: ClusterPartition) -> np.ndarray:
    """Block index of every lattice point, in lattice order (cached)."""
    index = point_index(table.lattice)
    labels = np.empty(len(index), dtype=np.int64)
    for i, block in enumerate(partition.blocks):
        labels[[index[p] for p in block]] = i
    return labels


def _pair_gaps(table: SpectrumTable):
    """Vectorized ingredients of the edge predicate for all points, in table order, and their lattice positions."""
    index = point_index(table.lattice)
    idx = [index[p] for p in table.points]
    coords = effective_array(table.lattice)[idx]
    norms = np.linalg.norm(coords, axis=1)
    omegas = np.asarray([float(v) for v in table.omegas])
    return coords, norms, omegas, idx


def build_clusters(table: SpectrumTable, delta: float, c_delta: float) -> ClusterPartition:
    """Connected components of the proximity graph, deterministically ordered.

    Edge enumeration is O(n^2) row-wise in numpy; rows are prefiltered by the
    plain Euclidean distance, which alone decides most non-edges.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if not 0.0 < c_delta < math.inf:
        raise ValueError(f"c_delta must be positive and finite, got {c_delta}")
    if len(table) == 0:
        raise ValueError("empty spectrum table")

    coords, norms, omegas, _ = _pair_gaps(table)
    pow_norms = norms**delta
    n = len(table)
    dsu = _DisjointSet(n)
    for i in range(n):
        # strict upper triangle; each row vectorized
        d_index = np.linalg.norm(coords[i + 1 :] - coords[i], axis=1)
        threshold = c_delta * (pow_norms[i + 1 :] + pow_norms[i])
        cand = np.nonzero(d_index < threshold)[0]
        if cand.size:
            close = d_index[cand] + np.abs(omegas[i + 1 + cand] - omegas[i]) < threshold[cand]
            for j in cand[close]:
                dsu.union(i, int(i + 1 + j))

    groups: Dict[int, list] = {}
    for i, p in enumerate(table.points):
        groups.setdefault(dsu.find(i), []).append(p)
    blocks = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    return ClusterPartition(delta=delta, c_delta=c_delta, blocks=blocks)


@dataclass(frozen=True)
class DyadicReport:
    constant: float
    worst_block: Optional[int]
    passed: bool


#: the cap on a block's measured ``sup|a| / inf|a|``
DYADIC_CAP = 4.0


def certify_dyadic(partition: ClusterPartition, table: SpectrumTable) -> DyadicReport:
    """Measured ``sup|a|/inf|a|`` per block versus ``DYADIC_CAP``.

    A block with a zero-norm mode has no ratio and is exempted.
    """
    worst = None
    constant = 1.0
    for i, block in enumerate(partition.blocks):
        norms = [table.norm(p) for p in block]
        lo, hi = min(norms), max(norms)
        if lo == 0.0:
            continue
        ratio = hi / lo
        if ratio > constant:
            constant, worst = ratio, i
    return DyadicReport(constant=constant, worst_block=worst, passed=constant <= DYADIC_CAP)


def separation_margin(partition: ClusterPartition, table: SpectrumTable):
    """Min over cross-block pairs of separation/threshold, with the pair.

    The returned margin is always >= ``c_delta`` for partitions built here;
    the surplus certifies how much stronger the separation actually is.
    """
    if partition.nblocks < 2:
        raise ValueError("need at least two blocks to measure separation")
    coords, norms, omegas, idx = _pair_gaps(table)
    labels = block_labels(table, partition)[idx]
    pow_norms = norms**partition.delta

    best = math.inf
    best_pair = None
    n = len(table)
    for i in range(n):
        other = np.nonzero(labels[i + 1 :] != labels[i])[0]
        if other.size == 0:
            continue
        j = i + 1 + other
        sep = np.linalg.norm(coords[j] - coords[i], axis=1) + np.abs(omegas[j] - omegas[i])
        denom = pow_norms[j] + pow_norms[i]
        ratio = sep / denom
        k = int(np.argmin(ratio))
        if ratio[k] < best:
            best = float(ratio[k])
            best_pair = (table.points[i], table.points[int(j[k])])
    return best, best_pair


def clusters_to_csv(partition: ClusterPartition, table: SpectrumTable, path) -> None:
    d = table.lattice.dim
    om = {p: v for p, v in zip(table.points, table.omegas)}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_id"] + [f"ax{i + 1}" for i in range(d)] + ["omega"])
        for i, block in enumerate(partition.blocks):
            for p in block:
                writer.writerow([i] + list(p) + [repr(om[p])])


def cluster_summary(partition: ClusterPartition, table: SpectrumTable, dyadic: DyadicReport) -> dict:
    """Block count, the constant of ``dyadic`` and the separation margin (None for one block)."""
    if partition.nblocks >= 2:
        margin, _ = separation_margin(partition, table)
    else:
        margin = None
    return {
        "n_blocks": partition.nblocks,
        "dyadic_C": dyadic.constant,
        "min_margin": margin,
    }


def clusters_to_json(summary: dict, path) -> None:
    """Write a ``cluster_summary`` as ``clusters.json``."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
