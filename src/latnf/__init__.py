"""Truncated lattice Hamiltonians: spectra, resonances, normal forms, dynamics."""

from .lattice import (
    Lattice,
    MAX_POINTS,
    enumerate_lattice,
    extended_indexes,
    point_distance,
)
from .frequencies import (
    AsymptoticFit,
    Beam,
    GroundState,
    SpectralMultiplier,
    SpectrumTable,
    TableModel,
    TorusLaplacian,
    build_spectrum,
    fit_asymptotics,
    spectrum_to_csv,
)
from .bands import (
    BandPartition,
    band_map,
    band_of,
    band_partition,
    check_band_invariants,
)
from .clusters import (
    ClusterPartition,
    block_index_map,
    build_clusters,
    certify_dyadic,
    cluster_summary,
    clusters_to_csv,
    clusters_to_json,
    high_mode_blocks,
    separation_margin,
)
from .resonance import (
    CertificateError,
    MeasureEstimate,
    MultiplierEnsemble,
    NonresonanceCertificate,
    certificate_to_json,
    certify_nonresonance,
    estimate_resonant_measure,
    is_resonant_W,
    small_divisor,
    validate_cutoff,
)
from .forms import (
    PolyHamiltonian,
    SymmetricForm,
    add_forms,
    band_superactions,
    block_superactions,
    conjugate_form,
    form_to_jsonl,
    localized_norm,
    nls_quartic,
    poisson_bracket,
    poly_from_forms,
    quadratic_hamiltonian,
    random_form,
    scale_form,
    scaled_norm,
    sobolev_norm,
    superaction_form,
    vector_field,
    zero_form,
)
from .normalform import (
    NormalFormConfig,
    NormalFormResult,
    SmallnessError,
    check_superaction_commutation,
    choose_cutoff,
    lie_transform,
    normalform_manifest,
    normalize,
    solve_homological,
    transform_state,
)
from .dynamics import (
    SimulationConfig,
    StabilityReport,
    TrajectoryRecord,
    integrate_beam,
    integrate_nls,
    integrate_normal_form,
    orbital_distance,
    stability_experiment,
    trajectory_to_csv,
)
from .config import ConfigError, apply_overrides, default_config, load_config
from .manifest import build_manifest, file_sha256, inventory, spawn_seed, write_manifest

__version__ = "0.1.0"
