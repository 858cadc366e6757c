"""Pseudospectral time integration with conservation monitors.

Schrödinger-type models evolve the Fourier coefficients of the field on a
full FFT grid: the linear phase is applied exactly in spectral space, the
nonlinear phase exactly in physical space (Strang splitting).  The grid is
sized so products of truncation-supported fields are alias-free and the
discrete energy functional is exact on the truncation.  Monitors (Sobolev
norms, mass, energy, band and block superactions) are single-sided: they sum
over the simulated field's modes, not a conjugate-doubled index set.

A separate splitting integrator evolves polynomial normal-form Hamiltonians
directly in the truncated mode space; when every monomial is a product of
actions the nonlinear step is an exact phase rotation, making the scheme
exact up to rounding.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bands import BandPartition, band_map, band_partition
from .clusters import ClusterPartition, build_clusters
from .forms import SymmetricForm, gradient, monomials
from .frequencies import (
    Beam,
    SpectralMultiplier,
    SpectrumTable,
    TorusLaplacian,
    build_spectrum,
    frequency,
)
from .lattice import Lattice, Point, enumerate_lattice


def five_smooth(n: int) -> int:
    """Smallest integer >= n whose prime factors are all in {2, 3, 5}."""
    if n <= 1:
        return 1
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Model, nonlinearity, and integration parameters for one trajectory.

    ``nonlinearity`` maps powers of |psi|^2 (>= 1, so the nonlinear term
    vanishes at zero field) to coefficients; ``force`` maps powers of psi
    (>= 3) for the beam potential.  Coefficients are scalars or Fourier
    dictionaries for x-dependence.
    """

    model: str = "nls"
    dim: int = 1
    radius: float = 8.0
    gram: Optional[Tuple[Tuple[float, ...], ...]] = None
    potential: Optional[Dict[Point, float]] = None
    nonlinearity: Dict[int, object] = field(default_factory=lambda: {1: 1.0})
    force: Optional[Dict[int, object]] = None
    mass_term: float = 1.0
    epsilon: float = 1e-2
    s: float = 4.0
    dt: Optional[float] = None
    horizon: float = 10.0
    stride: int = 100
    seed: int = 0
    integrator: str = "strang_splitting"
    initial_modes: Optional[Dict[Point, complex]] = None
    initial_velocity_modes: Optional[Dict[Point, complex]] = None
    dt_bound: float = 1.0
    track_orbital: Optional[float] = None

    def __post_init__(self):
        if self.model not in ("nls", "beam"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.integrator not in ("strang_splitting", "rk4_reference"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        for j in self.nonlinearity:
            if int(j) < 1:
                raise ValueError("nonlinearity powers start at |psi|^2 (power 1)")
        if self.force is not None:
            for j in self.force:
                if int(j) < 3:
                    raise ValueError("beam force powers start at psi^3")
        if self.model == "beam" and self.mass_term <= 0.0:
            raise ValueError("beam mass term must be positive")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Sampled monitor time series; timestamps strictly increase."""

    times: np.ndarray
    sobolev: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    band_actions: np.ndarray
    block_actions: np.ndarray
    orbital: Optional[np.ndarray]
    meta: Dict[str, object]
    extra: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.times)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must strictly increase")
        for name, col in (
            ("sobolev", self.sobolev),
            ("mass", self.mass),
            ("energy", self.energy),
        ):
            if len(col) != n:
                raise ValueError(f"column {name} has {len(col)} rows, expected {n}")
        if self.band_actions.shape[0] != n or self.block_actions.shape[0] != n:
            raise ValueError("action columns incomplete")
        if self.orbital is not None and len(self.orbital) != n:
            raise ValueError("orbital column incomplete")


def trajectory_to_csv(record: TrajectoryRecord, path) -> None:
    nb = record.band_actions.shape[1]
    nk = record.block_actions.shape[1]
    header = ["t", "sobolev", "mass", "energy"]
    header += [f"J_{n}" for n in range(nb)]
    header += [f"Jblk_{k}" for k in range(nk)]
    extras = sorted(record.extra)
    header += extras
    if record.orbital is not None:
        header.append("orbital")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(record.times)):
            row = [
                repr(float(record.times[i])),
                repr(float(record.sobolev[i])),
                repr(float(record.mass[i])),
                repr(float(record.energy[i])),
            ]
            row += [repr(float(v)) for v in record.band_actions[i]]
            row += [repr(float(v)) for v in record.block_actions[i]]
            row += [repr(float(record.extra[name][i])) for name in extras]
            if record.orbital is not None:
                row.append(repr(float(record.orbital[i])))
            writer.writerow(row)


class _Grid:
    """FFT grid with integer frequencies and lattice index mapping."""

    def __init__(self, dim: int, size: int):
        self.dim = dim
        self.size = size
        self.shape = (size,) * dim
        axis = np.rint(np.fft.fftfreq(size) * size).astype(int)
        mats = np.meshgrid(*([axis] * dim), indexing="ij")
        self.freqs = np.stack([m.reshape(-1) for m in mats], axis=1)

    def flat_index(self, point: Point) -> int:
        idx = 0
        for c in point:
            idx = idx * self.size + (int(c) % self.size)
        return idx

    def sobolev_weights(self, s: float) -> np.ndarray:
        norms = np.linalg.norm(self.freqs, axis=1)
        return (1.0 + norms) ** (2.0 * s)


def _coeff_grid(coeff, grid: _Grid) -> np.ndarray:
    """Real physical-space array of a scalar or Fourier-dict coefficient."""
    if isinstance(coeff, dict):
        spec = np.zeros(grid.shape, dtype=complex)
        flat = spec.reshape(-1)
        for m, c in coeff.items():
            flat[grid.flat_index(tuple(m))] += complex(c)
        arr = np.fft.ifftn(spec) * grid.size**grid.dim
        if np.max(np.abs(arr.imag)) > 1e-12 * (1.0 + np.max(np.abs(arr.real))):
            raise ValueError("x-dependent coefficient must be a real field")
        return arr.real
    return float(coeff) * np.ones(grid.shape)


def _monitor_indexes(table: SpectrumTable, bands: BandPartition, clusters: ClusterPartition, grid: _Grid):
    bm = band_map(table, bands)
    band_idx: List[np.ndarray] = []
    for n in range(bands.nbands):
        pts = [p for p, b in bm.items() if b == n]
        band_idx.append(np.asarray([grid.flat_index(p) for p in sorted(pts)], dtype=int))
    block_idx = [
        np.asarray([grid.flat_index(p) for p in block], dtype=int)
        for block in clusters.blocks
    ]
    return band_idx, block_idx


def _gram_matrix(dim: int, gram) -> np.ndarray:
    if gram is None:
        return np.eye(dim)
    g = np.asarray(gram, dtype=float)
    if g.shape != (dim, dim):
        raise ValueError(f"gram matrix must be {dim}x{dim}")
    return g


@dataclass(frozen=True, eq=False)
class _NlsSetup:
    lattice: Lattice
    table: SpectrumTable
    bands: BandPartition
    clusters: ClusterPartition
    grid: _Grid
    omega: np.ndarray
    coeff_arrays: Dict[int, np.ndarray]
    band_idx: List[np.ndarray]
    block_idx: List[np.ndarray]
    weights_s: np.ndarray
    dt: float


def _setup_nls(config: SimulationConfig) -> _NlsSetup:
    if config.model != "nls":
        raise ValueError("Schrödinger setup called for a non-nls model")
    lattice = enumerate_lattice(config.dim, config.radius)
    base = TorusLaplacian(gram=config.gram)
    model = (
        SpectralMultiplier(base=base, potential=dict(config.potential))
        if config.potential
        else base
    )
    table = build_spectrum(lattice, model)
    bands = band_partition(table)
    clusters = build_clusters(table)

    side = max((abs(c) for p in lattice.points for c in p), default=0)
    p_max = max(config.nonlinearity, default=0)
    size = five_smooth((2 * int(p_max) + 2) * side + 1)
    grid = _Grid(config.dim, size)

    g = _gram_matrix(config.dim, config.gram)
    f = grid.freqs.astype(float)
    omega = np.einsum("ij,jk,ik->i", f, g, f)
    for p in lattice.points:
        omega[grid.flat_index(p)] = float(frequency(model, p, lattice.offset))

    coeff_arrays = {
        int(j): _coeff_grid(c, grid) for j, c in sorted(config.nonlinearity.items())
    }
    band_idx, block_idx = _monitor_indexes(table, bands, clusters, grid)
    weights = grid.sobolev_weights(config.s)

    max_omega = float(np.max(np.abs(omega)))
    dt = config.dt if config.dt is not None else 0.1 / max(max_omega, 1.0)
    if dt * max_omega > config.dt_bound * (1.0 + 1e-12):
        raise ValueError(
            f"dt * max omega = {dt * max_omega:.3g} exceeds the stability bound "
            f"{config.dt_bound}"
        )
    return _NlsSetup(
        lattice=lattice,
        table=table,
        bands=bands,
        clusters=clusters,
        grid=grid,
        omega=omega,
        coeff_arrays=coeff_arrays,
        band_idx=band_idx,
        block_idx=block_idx,
        weights_s=weights,
        dt=dt,
    )


def _initial_spectrum(config: SimulationConfig, setup: _NlsSetup) -> np.ndarray:
    grid = setup.grid
    u = np.zeros(grid.size**grid.dim, dtype=complex)
    if config.initial_modes is not None:
        for p, c in config.initial_modes.items():
            if tuple(p) not in setup.lattice:
                raise ValueError(f"initial mode {p} outside the truncation")
            u[grid.flat_index(tuple(p))] = complex(c)
    else:
        rng = np.random.default_rng(config.seed)
        for p in setup.lattice.points:
            w = (1.0 + setup.table.norm(p)) ** (-(config.s + 1.0))
            u[grid.flat_index(p)] = w * complex(rng.standard_normal(), rng.standard_normal())
    norm = math.sqrt(float(np.sum(setup.weights_s * np.abs(u) ** 2)))
    if norm == 0.0:
        raise ValueError("initial state is identically zero")
    return u * (config.epsilon / norm)


class _Sampler:
    def __init__(self, setup, config: SimulationConfig, grid_points: int):
        self.setup = setup
        self.config = config
        self.npts = grid_points
        self.times: List[float] = []
        self.sob: List[float] = []
        self.mass: List[float] = []
        self.energy: List[float] = []
        self.bands: List[List[float]] = []
        self.blocks: List[List[float]] = []
        self.orbital: List[float] = []

    def nls_energy(self, u: np.ndarray) -> float:
        setup = self.setup
        psi = np.fft.ifftn(u.reshape(setup.grid.shape)) * self.npts
        y = np.abs(psi) ** 2
        pot = 0.0
        for j, arr in setup.coeff_arrays.items():
            pot += float(np.mean(arr * y ** (j + 1) / (j + 1)))
        return float(np.sum(setup.omega * np.abs(u) ** 2)) + pot

    def sample(self, t: float, u: np.ndarray) -> None:
        if not np.all(np.isfinite(u.view(float))):
            raise FloatingPointError(f"state blew up at t = {t}")
        setup, config = self.setup, self.config
        a2 = np.abs(u) ** 2
        self.times.append(t)
        self.sob.append(math.sqrt(float(np.sum(setup.weights_s * a2))))
        self.mass.append(math.sqrt(float(np.sum(a2))))
        self.energy.append(self.nls_energy(u))
        self.bands.append([float(np.sum(a2[idx])) for idx in setup.band_idx])
        self.blocks.append([float(np.sum(a2[idx])) for idx in setup.block_idx])
        if config.track_orbital is not None:
            coeffs = {
                p: complex(u[setup.grid.flat_index(p)]) for p in setup.lattice.points
            }
            self.orbital.append(
                orbital_distance(coeffs, config.track_orbital, config.s, setup.lattice)
            )

    def record(self, meta: Dict[str, object]) -> TrajectoryRecord:
        return TrajectoryRecord(
            times=np.asarray(self.times),
            sobolev=np.asarray(self.sob),
            mass=np.asarray(self.mass),
            energy=np.asarray(self.energy),
            band_actions=np.asarray(self.bands),
            block_actions=np.asarray(self.blocks),
            orbital=np.asarray(self.orbital) if self.orbital else None,
            meta=meta,
        )


def _nls_phase_field(setup: _NlsSetup, y: np.ndarray) -> np.ndarray:
    phi = np.zeros_like(y)
    for j, arr in setup.coeff_arrays.items():
        phi += arr * y**j
    return phi


def integrate_nls(config: SimulationConfig) -> TrajectoryRecord:
    """Strang split-step trajectory of the Schrödinger model."""
    if config.integrator == "rk4_reference":
        return rk4_reference(config)
    setup = _setup_nls(config)
    grid = setup.grid
    npts = grid.size**grid.dim
    u = _initial_spectrum(config, setup)

    dt = setup.dt
    n_steps = max(1, round(config.horizon / dt))
    phase_half = np.exp(-0.5j * dt * setup.omega)
    sampler = _Sampler(setup, config, npts)
    sampler.sample(0.0, u)

    for step in range(1, n_steps + 1):
        u = u * phase_half
        psi = np.fft.ifftn(u.reshape(grid.shape)) * npts
        phi = _nls_phase_field(setup, np.abs(psi) ** 2)
        psi = psi * np.exp(-1j * dt * phi)
        u = np.fft.fftn(psi).reshape(-1) / npts
        u = u * phase_half
        if step % config.stride == 0 or step == n_steps:
            sampler.sample(step * dt, u)

    meta = {
        "model": "nls",
        "integrator": "strang_splitting",
        "grid": grid.size,
        "dt": dt,
        "n_steps": n_steps,
        "seed": config.seed,
        "epsilon": config.epsilon,
        "s": config.s,
        "band_floors": _band_floors(setup.bands, setup.table.beta),
        "final_modes": _lattice_modes(u, setup),
    }
    return sampler.record(meta)


def _band_floors(bands: BandPartition, beta: float) -> List[float]:
    return [lo ** (1.0 / beta) for lo, _ in bands.intervals]


def _lattice_modes(u: np.ndarray, setup: "_NlsSetup") -> Dict[Point, complex]:
    return {p: complex(u[setup.grid.flat_index(p)]) for p in setup.lattice.points}


def rk4_reference(config: SimulationConfig) -> TrajectoryRecord:
    """Classic fourth-order reference integrator for the same spectral system."""
    setup = _setup_nls(config)
    grid = setup.grid
    npts = grid.size**grid.dim
    u = _initial_spectrum(config, setup)

    omega = setup.omega

    def rhs(v: np.ndarray) -> np.ndarray:
        psi = np.fft.ifftn(v.reshape(grid.shape)) * npts
        phi = _nls_phase_field(setup, np.abs(psi) ** 2)
        nonlin = np.fft.fftn(phi * psi).reshape(-1) / npts
        return -1j * (omega * v + nonlin)

    dt = setup.dt
    n_steps = max(1, round(config.horizon / dt))
    sampler = _Sampler(setup, config, npts)
    sampler.sample(0.0, u)
    for step in range(1, n_steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % config.stride == 0 or step == n_steps:
            sampler.sample(step * dt, u)
    meta = {
        "model": "nls",
        "integrator": "rk4_reference",
        "grid": grid.size,
        "dt": dt,
        "n_steps": n_steps,
        "seed": config.seed,
        "epsilon": config.epsilon,
        "s": config.s,
        "band_floors": _band_floors(setup.bands, setup.table.beta),
        "final_modes": _lattice_modes(u, setup),
    }
    return sampler.record(meta)


def integrate_beam(config: SimulationConfig) -> TrajectoryRecord:
    """Splitting integrator for the beam equation in complexified form.

    The field pair (psi, psi_t) is packed into ``u = (O^(1/2) psi_hat +
    i O^(-1/2) psi_t_hat)/sqrt(2)`` with ``O = sqrt(lap^2 + m)``; the force
    kick changes only the velocity component, so kick-phase-kick steps apply
    both pieces exactly.  The recorded Sobolev norm is the pair norm
    ``|psi|_(s+2) + |psi_t|_s``; the omega-weighted norm of u is an extra
    column.
    """
    if config.model != "beam":
        raise ValueError("integrate_beam needs model='beam'")
    lattice = enumerate_lattice(config.dim, config.radius)
    g = _gram_matrix(config.dim, config.gram)
    eig = {
        p: float(np.asarray(lattice.effective(p)) @ g @ np.asarray(lattice.effective(p)))
        for p in lattice.points
    }
    model = Beam(eigenvalues=eig, mass=config.mass_term)
    table = build_spectrum(lattice, model)
    bands = band_partition(table)
    clusters = build_clusters(table)

    side = max((abs(c) for p in lattice.points for c in p), default=0)
    force = {int(j): c for j, c in (config.force or {}).items()}
    deg = max(force, default=1)
    size = five_smooth((deg + 1) * side + 1)
    grid = _Grid(config.dim, size)
    npts = size**config.dim

    f = grid.freqs.astype(float)
    lam = np.einsum("ij,jk,ik->i", f, g, f)
    omega = np.sqrt(lam**2 + config.mass_term)
    sqrt_om = np.sqrt(omega)
    force_arrays = {j: _coeff_grid(c, grid) for j, c in sorted(force.items())}

    band_idx, block_idx = _monitor_indexes(table, bands, clusters, grid)
    w_s = grid.sobolev_weights(config.s)
    w_s2 = grid.sobolev_weights(config.s + 2.0)

    rev = np.asarray(
        [grid.flat_index(tuple(-int(c) for c in p)) for p in map(tuple, grid.freqs)],
        dtype=int,
    )

    def unpack(u: np.ndarray):
        conj_rev = np.conj(u[rev])
        psi_hat = (u + conj_rev) / (math.sqrt(2.0) * sqrt_om)
        dpsi_hat = (u - conj_rev) * sqrt_om / (1j * math.sqrt(2.0))
        return psi_hat, dpsi_hat

    rng = np.random.default_rng(config.seed)
    psi_hat = np.zeros(npts, dtype=complex)
    dpsi_hat = np.zeros(npts, dtype=complex)
    if config.initial_modes is not None:
        for p, c in config.initial_modes.items():
            psi_hat[grid.flat_index(tuple(p))] = complex(c)
        for p, c in (config.initial_velocity_modes or {}).items():
            dpsi_hat[grid.flat_index(tuple(p))] = complex(c)
    else:
        for p in lattice.points:
            wdecay = (1.0 + table.norm(p)) ** (-(config.s + 3.0))
            psi_hat[grid.flat_index(p)] = wdecay * complex(
                rng.standard_normal(), rng.standard_normal()
            )
            dpsi_hat[grid.flat_index(p)] = wdecay * complex(
                rng.standard_normal(), rng.standard_normal()
            )
    # hermitian symmetrization keeps both fields real
    psi_hat = 0.5 * (psi_hat + np.conj(psi_hat[rev]))
    dpsi_hat = 0.5 * (dpsi_hat + np.conj(dpsi_hat[rev]))

    def pair_norm(ph, dph) -> float:
        a = math.sqrt(float(np.sum(w_s2 * np.abs(ph) ** 2)))
        b = math.sqrt(float(np.sum(w_s * np.abs(dph) ** 2)))
        return a + b

    scale = config.epsilon / max(pair_norm(psi_hat, dpsi_hat), 1e-300)
    psi_hat *= scale
    dpsi_hat *= scale
    u = (sqrt_om * psi_hat + 1j * dpsi_hat / sqrt_om) / math.sqrt(2.0)

    max_omega = float(np.max(omega))
    dt = config.dt if config.dt is not None else 0.1 / max(max_omega, 1.0)
    if dt * max_omega > config.dt_bound * (1.0 + 1e-12):
        raise ValueError(
            f"dt * max omega = {dt * max_omega:.3g} exceeds the stability bound "
            f"{config.dt_bound}"
        )
    n_steps = max(1, round(config.horizon / dt))
    phase = np.exp(-1j * dt * omega)

    def kick(u: np.ndarray, tau: float) -> np.ndarray:
        if not force_arrays:
            return u
        ph, _ = unpack(u)
        psi = np.fft.ifftn(ph.reshape(grid.shape)) * npts
        if np.max(np.abs(psi.imag)) > 1e-9 * (1.0 + np.max(np.abs(psi.real))):
            raise FloatingPointError("beam field lost reality")
        psi = psi.real
        dforce = np.zeros_like(psi)
        for j, arr in force_arrays.items():
            dforce += j * arr * psi ** (j - 1)
        fhat = np.fft.fftn(dforce).reshape(-1) / npts
        return u - 1j * tau / math.sqrt(2.0) * fhat / sqrt_om

    times, sob, msr, en = [], [], [], []
    bandJ, blockJ, extra_u = [], [], []

    def sample(t: float, u: np.ndarray):
        if not np.all(np.isfinite(u.view(float))):
            raise FloatingPointError(f"state blew up at t = {t}")
        ph, dph = unpack(u)
        a2 = np.abs(u) ** 2
        times.append(t)
        sob.append(pair_norm(ph, dph))
        msr.append(math.sqrt(float(np.sum(a2))))
        psi = (np.fft.ifftn(ph.reshape(grid.shape)) * npts).real
        pot = 0.0
        for j, arr in force_arrays.items():
            pot += float(np.mean(arr * psi**j))
        en.append(float(np.sum(omega * a2)) + pot)
        bandJ.append([float(np.sum(a2[idx])) for idx in band_idx])
        blockJ.append([float(np.sum(a2[idx])) for idx in block_idx])
        extra_u.append(math.sqrt(float(np.sum(w_s * a2))))

    sample(0.0, u)
    for step in range(1, n_steps + 1):
        u = kick(u, 0.5 * dt)
        u = u * phase
        u = kick(u, 0.5 * dt)
        if step % config.stride == 0 or step == n_steps:
            sample(step * dt, u)

    meta = {
        "model": "beam",
        "integrator": "strang_splitting",
        "grid": size,
        "dt": dt,
        "n_steps": n_steps,
        "seed": config.seed,
        "epsilon": config.epsilon,
        "s": config.s,
        "mass_term": config.mass_term,
        "band_floors": _band_floors(bands, table.beta),
        "final_modes": {
            p: complex(u[grid.flat_index(p)]) for p in lattice.points
        },
    }
    return TrajectoryRecord(
        times=np.asarray(times),
        sobolev=np.asarray(sob),
        mass=np.asarray(msr),
        energy=np.asarray(en),
        band_actions=np.asarray(bandJ),
        block_actions=np.asarray(blockJ),
        orbital=None,
        meta=meta,
        extra={"u_sobolev": np.asarray(extra_u)},
    )


def superactions(
    plus: Dict[Point, complex],
    table: SpectrumTable,
    bands: BandPartition,
    clusters: Optional[ClusterPartition] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Band and block mode masses of a one-sided state."""
    bm = band_map(table, bands)
    j = np.zeros(bands.nbands)
    for p, v in plus.items():
        j[bm[tuple(p)]] += abs(v) ** 2
    if clusters is None:
        return j, np.zeros(0)
    from .clusters import block_index_map

    ids = block_index_map(clusters)
    jb = np.zeros(clusters.nblocks)
    for p, v in plus.items():
        jb[ids[tuple(p)]] += abs(v) ** 2
    return j, jb


def is_action_form(form: SymmetricForm) -> bool:
    """Whether every monomial is a product of mode actions |u_a|^2."""
    codes = form.packed.codes
    degree = codes.shape[1]
    if degree % 2:
        return not len(codes)
    half = degree // 2
    parity = codes & 1
    # a stable sort on the sign puts the + points, then the - points, each ascending
    points = np.take_along_axis(codes >> 1, np.argsort(parity, axis=1, kind="stable"), axis=1)
    return bool(
        np.all(parity.sum(axis=1) == half) and np.array_equal(points[:, :half], points[:, half:])
    )


def _both_signs(u: np.ndarray) -> np.ndarray:
    """One-sided state on the codes ``2*i`` (u) and ``2*i + 1`` (conj u)."""
    x = np.empty(2 * len(u), dtype=complex)
    x[0::2] = u
    x[1::2] = u.conj()
    return x


class _PolyKick:
    """Vectorized nonlinear step for polynomial Hamiltonians on the truncation.

    Action-only parts rotate each mode by the exact angle ``dP/dI_a``; other
    parts are integrated by fourth-order substeps of ``du = X_P(u) dt``,
    with their packed codes renumbered to the lattice once.
    """

    def __init__(self, forms: Sequence[SymmetricForm], points: Sequence[Point], substeps: int = 1):
        self.points = list(points)
        index = {p: i for i, p in enumerate(self.points)}
        self.substeps = substeps
        exps: List[np.ndarray] = []
        coeffs: List[np.ndarray] = []
        self.rk: List[Tuple[np.ndarray, np.ndarray]] = []
        for f in forms:
            view = f.packed
            codes = view.relabel(view.codes, index)
            if is_action_form(f):
                c = view.values
                if np.any(np.abs(c.imag) > 1e-12 * (1.0 + np.abs(c))):
                    raise ValueError("action part must have real coefficients")
                row, col = np.nonzero((codes & 1) == 0)
                e = np.zeros((len(codes), len(self.points)), dtype=int)
                np.add.at(e, (row, codes[row, col] >> 1), 1)
                exps.append(e)
                coeffs.append(c.real)
            elif np.any(codes & 1):  # without a - variable the kick is zero
                self.rk.append((codes, view.values))
        self.action_exps = np.concatenate(exps) if exps else None
        self.action_coeffs = np.concatenate(coeffs) if coeffs else None
        self.exact = not self.rk

    def theta(self, intensity: np.ndarray) -> np.ndarray:
        if self.action_exps is None:
            return np.zeros(len(self.points))
        rows = np.prod(intensity[None, :] ** self.action_exps, axis=1)
        safe = np.where(intensity > 0.0, intensity, 1.0)
        return (self.action_exps.T @ (self.action_coeffs * rows)) / safe

    def _rhs(self, u: np.ndarray) -> np.ndarray:
        """``du_a = -i dP/du_{a,-}``, the odd codes of the packed gradient."""
        x = _both_signs(u)
        du = np.zeros_like(u)
        for codes, coef in self.rk:
            du += gradient(codes, coef, x, len(x))[1::2]
        return -1j * du

    def apply(self, u: np.ndarray, dt: float) -> np.ndarray:
        if self.action_exps is not None:
            u = u * np.exp(-1j * dt * self.theta(np.abs(u) ** 2))
        if self.rk:
            tau = dt / self.substeps
            for _ in range(self.substeps):
                k1 = self._rhs(u)
                k2 = self._rhs(u + 0.5 * tau * k1)
                k3 = self._rhs(u + 0.5 * tau * k2)
                k4 = self._rhs(u + tau * k3)
                u = u + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return u


class _PolyEnergy:
    """Vectorized evaluation of a list of forms on a one-sided state."""

    def __init__(self, forms: Sequence[SymmetricForm], index: Dict[Point, int]):
        self.tables = [(f.packed.relabel(f.packed.codes, index), f.packed.values) for f in forms]

    def value(self, u: np.ndarray) -> float:
        x = _both_signs(u)
        return float(sum(monomials(codes, c, x).sum() for codes, c in self.tables).real)


def integrate_normal_form(
    table: SpectrumTable,
    parts: Sequence[SymmetricForm],
    initial: Dict[Point, complex],
    *,
    dt: float,
    horizon: float,
    stride: int = 100,
    s: float = 4.0,
    bands: Optional[BandPartition] = None,
    clusters: Optional[ClusterPartition] = None,
    kick_substeps: int = 1,
) -> TrajectoryRecord:
    """Splitting trajectory of ``H0 + sum(parts)`` on the truncated modes.

    The quadratic phase is exact; when all parts are action products the
    nonlinear step is exact as well and the whole scheme conserves every
    action up to rounding.
    """
    if bands is None:
        bands = band_partition(table)
    if clusters is None:
        clusters = build_clusters(table)
    points = list(table.lattice.points)
    index = {p: i for i, p in enumerate(points)}
    omega = np.asarray([float(table.omega(p)) for p in points])

    u = np.zeros(len(points), dtype=complex)
    for p, c in initial.items():
        u[index[tuple(p)]] = complex(c)

    kick = _PolyKick(parts, points, substeps=kick_substeps)
    energy = _PolyEnergy(list(parts), index)

    bm = band_map(table, bands)
    band_idx = [
        np.asarray([index[p] for p in points if bm[p] == n], dtype=int)
        for n in range(bands.nbands)
    ]
    from .clusters import block_index_map

    ids = block_index_map(clusters)
    block_idx = [
        np.asarray([index[p] for p in block], dtype=int) for block in clusters.blocks
    ]
    norms = np.asarray([table.norm(p) for p in points])
    weights = (1.0 + norms) ** (2.0 * s)

    n_steps = max(1, round(horizon / dt))
    phase_half = np.exp(-0.5j * dt * omega)

    times, sob, msr, en = [], [], [], []
    bandJ, blockJ = [], []

    def sample(t: float, v: np.ndarray):
        if not np.all(np.isfinite(v.view(float))):
            raise FloatingPointError(f"state blew up at t = {t}")
        a2 = np.abs(v) ** 2
        times.append(t)
        sob.append(math.sqrt(float(np.sum(weights * a2))))
        msr.append(math.sqrt(float(np.sum(a2))))
        en.append(float(np.sum(omega * a2)) + energy.value(v))
        bandJ.append([float(np.sum(a2[idx])) for idx in band_idx])
        blockJ.append([float(np.sum(a2[idx])) for idx in block_idx])

    sample(0.0, u)
    for step in range(1, n_steps + 1):
        u = u * phase_half
        u = kick.apply(u, dt)
        u = u * phase_half
        if step % stride == 0 or step == n_steps:
            sample(step * dt, u)

    meta = {
        "model": "normal_form",
        "integrator": "strang_splitting",
        "dt": dt,
        "n_steps": n_steps,
        "exact_kick": kick.exact,
        "s": s,
        "final_modes": {p: complex(u[i]) for i, p in enumerate(points)},
    }
    return TrajectoryRecord(
        times=np.asarray(times),
        sobolev=np.asarray(sob),
        mass=np.asarray(msr),
        energy=np.asarray(en),
        band_actions=np.asarray(bandJ),
        block_actions=np.asarray(blockJ),
        orbital=None,
        meta=meta,
    )


def ground_state_reduce(coeffs: Dict[Point, complex], p0: float) -> Tuple[Dict[Point, complex], float]:
    """Extract the zero-mode phase and return the gauge-fixed remainder.

    The chart writes the field as ``exp(-i theta) (sqrt(p0 - |phi|^2) + phi)``
    with phi mean-free; it requires a nonzero mean mode and ``|phi|^2 < p0``.
    """
    pts = list(coeffs)
    if not pts:
        raise ValueError("empty state")
    dim = len(pts[0])
    zero = (0,) * dim
    mean = complex(coeffs.get(zero, 0.0))
    if mean == 0:
        raise ValueError("zero mean mode: outside the ground-state chart")
    theta = -math.atan2(mean.imag, mean.real)
    rot = complex(math.cos(theta), math.sin(theta))
    phi = {tuple(p): rot * complex(c) for p, c in coeffs.items() if tuple(p) != zero}
    mass_phi = sum(abs(v) ** 2 for v in phi.values())
    if mass_phi >= p0:
        raise ValueError(f"remainder mass {mass_phi} >= p0 = {p0}: outside chart")
    return phi, theta


def reconstruct_ground_state(
    phi: Dict[Point, complex], p0: float, theta: float, dim: Optional[int] = None
) -> Dict[Point, complex]:
    if dim is None:
        if not phi:
            raise ValueError("need dim for an empty remainder")
        dim = len(next(iter(phi)))
    zero = (0,) * dim
    mass_phi = sum(abs(v) ** 2 for v in phi.values())
    if mass_phi >= p0:
        raise ValueError(f"remainder mass {mass_phi} >= p0 = {p0}: outside chart")
    rot = complex(math.cos(-theta), math.sin(-theta))
    out = {tuple(p): rot * complex(c) for p, c in phi.items()}
    out[zero] = rot * math.sqrt(p0 - mass_phi)
    return out


@dataclass(frozen=True)
class BogoliubovResult:
    w: Dict[Point, complex]
    omegas: Dict[Point, float]
    angles: Dict[Point, float]
    offdiag_residual: float


def bogoliubov(
    phi: Dict[Point, complex],
    p0: float,
    f,
    eigenvalues: Dict[Point, float],
) -> BogoliubovResult:
    """Per-mode hyperbolic rotation diagonalizing the quadratic pairing.

    With ``A = lambda + f(p0)`` and ``B = f(p0)`` the angle solves
    ``tanh(2t) = B/A`` and the diagonal frequency is
    ``sqrt(lambda^2 + 2 f(p0) lambda)``; requires ``lambda (lambda+2f) > 0``.
    """
    fp = float(f(p0)) if callable(f) else float(f)
    w: Dict[Point, complex] = {}
    omegas: Dict[Point, float] = {}
    angles: Dict[Point, float] = {}
    residual = 0.0
    for p, v in phi.items():
        lam = float(eigenvalues[tuple(p)])
        if lam * (lam + 2.0 * fp) <= 0.0:
            raise ValueError(
                f"mode {p}: lambda (lambda + 2 f) = {lam * (lam + 2.0 * fp)} <= 0; "
                "diagonalization invalid"
            )
        a, b = lam + fp, fp
        t = 0.5 * math.atanh(b / a)
        ch, sh = math.cosh(t), math.sinh(t)
        w[tuple(p)] = ch * complex(v) + sh * complex(v).conjugate()
        omegas[tuple(p)] = math.sqrt(lam * lam + 2.0 * fp * lam)
        angles[tuple(p)] = t
        residual = max(residual, abs(-a * ch * sh + 0.5 * b * (ch * ch + sh * sh)))
    return BogoliubovResult(w=w, omegas=omegas, angles=angles, offdiag_residual=residual)


def orbital_distance(coeffs: Dict[Point, complex], p0: float, s: float, lattice: Lattice) -> float:
    """Sobolev distance to the ground-state circle, minimized over the phase.

    The scan is a coarse 16-point sweep refined by golden-section search.
    """
    dim = lattice.dim
    zero = (0,) * dim

    def weight(p: Point) -> float:
        x = lattice.effective(p)
        return (1.0 + math.sqrt(sum(c * c for c in x))) ** (2.0 * s)

    fixed = sum(
        weight(tuple(p)) * abs(complex(c)) ** 2
        for p, c in coeffs.items()
        if tuple(p) != zero
    )
    mean = complex(coeffs.get(zero, 0.0))
    root = math.sqrt(p0)

    def value(alpha: float) -> float:
        target = root * complex(math.cos(-alpha), math.sin(-alpha))
        return math.sqrt(fixed + abs(mean - target) ** 2)

    grid = [2.0 * math.pi * k / 16.0 for k in range(16)]
    k0 = min(range(16), key=lambda k: value(grid[k]))
    lo = grid[k0] - 2.0 * math.pi / 16.0
    hi = grid[k0] + 2.0 * math.pi / 16.0

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    while b - a > 1e-10:
        if value(c) < value(d):
            b, d = d, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, d
            d = a + inv_phi * (b - a)
    return value(0.5 * (a + b))


@dataclass(frozen=True)
class StabilityRun:
    epsilon: float
    horizon: float
    max_ratio: float
    exit_time: Optional[float]
    band_drifts: Tuple[float, ...]
    block_drifts: Tuple[float, ...]
    weighted_drift: float


@dataclass(frozen=True)
class StabilityReport:
    runs: Tuple[StabilityRun, ...]
    fitted_power: Optional[float]

    def to_dict(self) -> dict:
        return {
            "runs": [
                {
                    "epsilon": r.epsilon,
                    "horizon": r.horizon,
                    "max_ratio": r.max_ratio,
                    "exit_time": r.exit_time,
                    "band_drifts": list(r.band_drifts),
                    "block_drifts": list(r.block_drifts),
                    "weighted_drift": r.weighted_drift,
                }
                for r in self.runs
            ],
            "fitted_power": self.fitted_power,
        }


def _drift(times: np.ndarray, series: np.ndarray) -> float:
    if len(times) < 2:
        return 0.0
    return float(np.polyfit(times, series, 1)[0])


def stability_experiment(
    config: SimulationConfig,
    eps_values: Sequence[float],
    *,
    horizons: Optional[Sequence[float]] = None,
) -> StabilityReport:
    """Sweep the initial size and report norm growth and superaction drift.

    Default horizons scale as ``eps**-2``.  The weighted drift aggregates
    band actions with their Sobolev weights, so its decay across the sweep
    tracks the effective remainder order.
    """
    if horizons is None:
        horizons = [e**-2.0 for e in eps_values]
    if len(horizons) != len(eps_values):
        raise ValueError("need one horizon per epsilon")
    runs: List[StabilityRun] = []
    for eps, horizon in zip(eps_values, horizons):
        cfg = replace(config, epsilon=float(eps), horizon=float(horizon))
        record = integrate_nls(cfg) if cfg.model == "nls" else integrate_beam(cfg)
        ratio = float(np.max(record.sobolev)) / eps
        above = np.nonzero(record.sobolev > 2.0 * eps)[0]
        exit_time = float(record.times[above[0]]) if above.size else None
        band_drifts = tuple(
            _drift(record.times, record.band_actions[:, n])
            for n in range(record.band_actions.shape[1])
        )
        block_drifts = tuple(
            _drift(record.times, record.block_actions[:, k])
            for k in range(record.block_actions.shape[1])
        )
        meta_s = float(record.meta["s"])
        lows = record.meta.get("band_floors")
        if lows is None:
            weights = np.ones(record.band_actions.shape[1])
        else:
            weights = (1.0 + np.asarray(lows)) ** (2.0 * meta_s)
        weighted = record.band_actions @ weights
        runs.append(
            StabilityRun(
                epsilon=float(eps),
                horizon=float(horizon),
                max_ratio=ratio,
                exit_time=exit_time,
                band_drifts=band_drifts,
                block_drifts=block_drifts,
                weighted_drift=abs(_drift(record.times, weighted)),
            )
        )
    power = None
    drifts = [r.weighted_drift for r in runs]
    if len(runs) >= 3 and all(d > 0 for d in drifts):
        power = float(
            np.polyfit(np.log([r.epsilon for r in runs]), np.log(drifts), 1)[0]
        )
    return StabilityReport(runs=tuple(runs), fitted_power=power)
