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
from .lattice import Point, _per_object, effective_array


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
    """Disjoint blocks covering the truncation, with their build constants.

    ``provisional`` flags blocks that touch the truncation boundary closely
    enough that a genuine neighbor outside the truncation could have joined
    them; their membership is certified only relative to this truncation.
    """

    delta: float
    c_delta: float
    blocks: Tuple[Tuple[Point, ...], ...]
    provisional: Tuple[bool, ...]

    @property
    def nblocks(self) -> int:
        return len(self.blocks)


@_per_object
def block_index_map(partition: ClusterPartition) -> Dict[Point, int]:
    out = {}
    for i, block in enumerate(partition.blocks):
        for p in block:
            out[p] = i
    return out


def _pair_gaps(table: SpectrumTable):
    """Vectorized ingredients of the edge predicate for all points."""
    coords = effective_array(table.lattice)
    by_point = {p: i for i, p in enumerate(table.lattice.points)}
    idx = [by_point[p] for p in table.points]
    coords = coords[idx]
    norms = np.linalg.norm(coords, axis=1)
    omegas = np.asarray([float(v) for v in table.omegas])
    return coords, norms, omegas


def build_clusters(table: SpectrumTable, delta: float, c_delta: float) -> ClusterPartition:
    """Connected components of the proximity graph, deterministically ordered.

    Edge enumeration is O(n^2) row-wise in numpy; rows are prefiltered by the
    plain Euclidean distance, which alone decides most non-edges.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if c_delta <= 0.0:
        raise ValueError(f"c_delta must be positive, got {c_delta}")
    if len(table) == 0:
        raise ValueError("empty spectrum table")

    coords, norms, omegas = _pair_gaps(table)
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

    # a block is provisional when any member sits close enough to the
    # truncation edge that an un-enumerated neighbor could connect to it
    radius = table.lattice.radius
    margin = 2.0 * c_delta * radius**delta
    norm_of = {p: x for p, x in zip(table.points, norms)}
    provisional = tuple(
        any(norm_of[p] > radius - margin for p in block) for block in blocks
    )
    return ClusterPartition(
        delta=delta, c_delta=c_delta, blocks=blocks, provisional=provisional
    )


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
    coords, norms, omegas = _pair_gaps(table)
    ids = block_index_map(partition)
    labels = np.asarray([ids[p] for p in table.points])
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


def high_mode_blocks(partition: ClusterPartition, table: SpectrumTable, cutoff: float) -> ClusterPartition:
    """Restrict every block to modes with floor norm > cutoff; drop empties."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    blocks = []
    provisional = []
    for block, prov in zip(partition.blocks, partition.provisional):
        kept = tuple(p for p in block if table.floor(p) > cutoff)
        if kept:
            blocks.append(kept)
            provisional.append(prov)
    return ClusterPartition(
        delta=partition.delta,
        c_delta=partition.c_delta,
        blocks=tuple(blocks),
        provisional=tuple(provisional),
    )


def clusters_to_csv(partition: ClusterPartition, table: SpectrumTable, path) -> None:
    d = table.lattice.dim
    om = {p: v for p, v in zip(table.points, table.omegas)}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_id"] + [f"ax{i + 1}" for i in range(d)] + ["omega"])
        for i, block in enumerate(partition.blocks):
            for p in block:
                writer.writerow([i] + list(p) + [repr(om[p])])


def cluster_summary(partition: ClusterPartition, table: SpectrumTable) -> dict:
    report = certify_dyadic(partition, table)
    if partition.nblocks >= 2:
        margin, _ = separation_margin(partition, table)
    else:
        margin = None
    return {
        "n_blocks": partition.nblocks,
        "dyadic_C": report.constant,
        "min_margin": margin,
    }


def clusters_to_json(partition: ClusterPartition, table: SpectrumTable, path) -> None:
    with open(path, "w") as fh:
        json.dump(cluster_summary(partition, table), fh, indent=2, sort_keys=True)
        fh.write("\n")
