"""Shared fixtures: a certified multiplier system on the radius-8 line.

The potential below is the decay-2 ensemble draw with seed 1.  It is frozen
numerically so every test run certifies the same system; a regression test
re-derives it from the generator.  All orders 3-5 certify exhaustively on
this truncation with positive minimum scores.
"""

import numpy as np
import pytest

from latnf import (
    NormalFormConfig,
    SpectralMultiplier,
    TorusLaplacian,
    band_partition,
    build_clusters,
    build_spectrum,
    certify_nonresonance,
    enumerate_lattice,
    nls_quartic,
    normalize,
    poly_from_forms,
)

FROZEN_POTENTIAL = {
    (-8,): 0.00018187114923471875,
    (-7,): 0.009009273926518705,
    (-6,): -0.009617307764334225,
    (-5,): 0.017255747966817073,
    (-4,): -0.011068738117030267,
    (-3,): -0.007667355102742434,
    (-2,): 0.06554051876408834,
    (-1,): -0.045400431815419355,
    (0,): 0.049593687673059494,
    (1,): -0.2362204433784658,
    (2,): 0.05070262173496131,
    (3,): 0.0038143313219278214,
    (4,): -0.010015781382406342,
    (5,): 0.011093411670323244,
    (6,): -0.005319058667793379,
    (7,): -0.0009300422103869697,
    (8,): -0.005630127734659005,
}

# Cutoff in the gap above band 5; admissible radius from the measured
# localized quartic norm (8916.86...) via R = 0.5 / sqrt(norm * K^6).
NF_CUTOFF = 5.5
NF_RADIUS = 3.182555022397568e-05


@pytest.fixture(scope="session")
def certified_table():
    lattice = enumerate_lattice(1, 8.0)
    model = SpectralMultiplier(base=TorusLaplacian(), potential=FROZEN_POTENTIAL)
    return build_spectrum(lattice, model)


@pytest.fixture(scope="session")
def certified_bands(certified_table):
    return band_partition(certified_table)


@pytest.fixture(scope="session")
def certified_clusters(certified_table):
    return build_clusters(certified_table, 0.5, 1.0)


@pytest.fixture(scope="session")
def certified_partitions(certified_bands, certified_clusters):
    return {"bands": certified_bands, "clusters": certified_clusters}


@pytest.fixture(scope="session")
def certificates(certified_table, certified_bands):
    return {
        order: certify_nonresonance(certified_table, order, partition=certified_bands)
        for order in (3, 4, 5)
    }


@pytest.fixture(scope="session")
def torus_table():
    return build_spectrum(enumerate_lattice(1, 8.0), TorusLaplacian())


@pytest.fixture(scope="session")
def torus_partitions(torus_table):
    return {"bands": band_partition(torus_table), "clusters": build_clusters(torus_table, 0.5, 1.0)}


@pytest.fixture(scope="session")
def nf_result(certified_table, certified_bands, certified_clusters, certificates):
    """One real order-1 normalization of the cubic model; reused everywhere.

    This is the expensive fixture of the suite (about 6-7 s on a 2-core
    x86-64 host with Python 3.11 and numpy 2.4): it runs the full
    homological/Lie iteration on the 897-key quartic at the frozen
    admissible radius.
    """
    quartic = nls_quartic(certified_table.lattice, coupling=1.0)
    config = NormalFormConfig(
        r=1, radius=NF_RADIUS, cutoff=NF_CUTOFF, s=4.0, nu=2.0, smoothing=2.0
    )
    return normalize(
        certified_table,
        poly_from_forms([quartic]),
        config,
        [certificates[3], certificates[4]],
        bands=certified_bands,
        clusters=certified_clusters,
        seed=0,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
