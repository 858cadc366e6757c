"""Pseudospectral time integration with conservation monitors.

Every integrator only builds its parts: an initial state, a map
``advance(u, m)`` of the ``m`` steps between two samples and a monitor.
One loop (``_run``) then samples at ``t = 0``, every ``stride`` steps and
at the last step, and returns the ``TrajectoryRecord``; one monitor
(``_Monitor``) samples the Sobolev norm, mass, energy, band and block
superactions and the optional orbital and extra columns.  Monitors are
single-sided: they sum over the simulated field's modes, not a
conjugate-doubled index set.

The step maps are:

* Schrödinger models (``integrate_nls``): Strang splitting on a full FFT
  grid, with the nonlinear phase exact in physical space and the linear
  phase exact in spectral space; between two samples the state stays the
  physical-space field.  The grid is sized so products of
  truncation-supported fields are alias-free and the discrete energy
  functional is exact on the truncation.  The Strang step scales the
  nonlinearity's coefficients by ``-dt`` once per trajectory and writes
  the angle into the imaginary half of a complex array whose real half
  stays zero, which ``np.exp`` turns into the rotation.
* The beam equation (``integrate_beam``): kick-phase-kick splitting of the
  complexified field pair, with both pieces exact.
* Polynomial normal forms (``integrate_normal_form``): Strang splitting in
  the truncated mode space.  Each part is a table of code rows on the
  lattice (``_PolyParts``) that the energy and the action angles read; the
  RK right-hand side reads a second table per part, its derivative rows in
  the minus variables, and a third, the distinct pairs of codes those rows
  start with: it multiplies each pair once per call and each row from its
  pair's product.  When every monomial is a product of actions the
  nonlinear step is an exact phase rotation, making the scheme exact up to
  rounding; other parts take RK4 substeps.

``integrate`` steps the grid equation ``SimulationConfig.model``.  What a
config's ``model.kind`` decides is its record in ``KINDS``.  The linear
phases of both grid equations read one dispersion relation, the kind's
frequency model: ``_system`` evaluates it once, on the array of every grid
frequency, so each lattice mode turns at its table frequency, the one that
fixes its band and block.  The nonlinear coefficients are numpy scalars,
constant in space.

RK4 is one function, ``_rk4``, for the normal-form substeps and the
time-1 generator flows of ``normalform.transform_state`` alike;
``transform_state`` takes and returns a both-signs state over a sorted
point tuple, the layout of ``_PolyParts``.

Each step map runs on work arrays that its integrator allocates once per
trajectory and that only the step map writes: the grid transforms
``_System.field`` and ``_System.spectrum`` write into an array their caller
passes, and ``_PolyParts`` owns the both-signs state of the normal-form
kick.  A stretch returns a fresh state and never writes into its argument,
which the loop keeps and the monitor samples; an RK right-hand side
returns a fresh array too, since ``_rk4`` sums the four stages in them.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# numpy's pocketfft gufuncs, the kernels under ``np.fft.ifft``/``fft``
# (numpy >= 2.0).  ``_System`` calls them directly because the public
# wrappers cost about three times the 36-point transform itself on every
# step; tests/test_dynamics.py::test_grid_transforms_are_numpys_bit_for_bit
# fails if a numpy release changes them.
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft

from .bands import BandPartition, band_map, band_partition
from .clusters import ClusterPartition, block_labels, build_clusters
from .config import ConfigError
from .forms import SymmetricForm, check_points, checked_weights, gradient, monomials, nls_quartic, sobolev_weights
from .frequencies import (
    Beam,
    GroundState,
    SpectralMultiplier,
    SpectrumTable,
    TorusLaplacian,
    build_spectrum,
)
from .lattice import Lattice, Point, enumerate_lattice, point_index, point_norms

# Constant operands of the step maps are numpy scalars, converted once, and
# the step maps pass ufunc outputs positionally: on a 36-point grid a Python
# scalar operand or an ``out=`` keyword costs a measurable share of a call.
_ONE = np.float64(1)
_TWO = np.complex128(2)
_NEG_I = np.complex128(-1j)


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

    ``model`` names the grid equation: ``"nls"``, the Schrödinger equation,
    or ``"beam"``; ``cli.simulation_config`` takes it from the ``equation``
    of the configured model kind.  ``nonlinearity`` maps powers of |psi|^2
    (>= 1, so the nonlinear term vanishes at zero field) to coefficients of
    the Schrödinger model; the beam refuses any map but the default, which
    set explicitly cannot be told apart from it.  ``force`` maps powers of
    psi (>= 3) for the beam potential and is refused on the Schrödinger
    model.  Coefficients are finite real numbers, constant in space.
    ``track_orbital``, a finite condensate mass >= 0 when set, applies to
    the Schrödinger model only.

    ``delta`` and ``c_delta`` are the separation constants of the cluster
    blocks whose superactions the ``Jblk_*`` columns record; the defaults
    are those of the ``[clusters]`` config section, and
    ``cli.simulation_config`` sets both from it.
    """

    model: str = "nls"
    dim: int = 1
    radius: float = 8.0
    gram: Optional[Tuple[Tuple[float, ...], ...]] = None
    potential: Optional[Dict[Point, float]] = None
    nonlinearity: Dict[int, float] = field(default_factory=lambda: {1: 1.0})
    force: Optional[Dict[int, float]] = None
    mass_term: float = 1.0
    epsilon: float = 1e-2
    s: float = 4.0
    dt: Optional[float] = None
    horizon: float = 10.0
    stride: int = 100
    seed: int = 0
    initial_modes: Optional[Dict[Point, complex]] = None
    initial_velocity_modes: Optional[Dict[Point, complex]] = None
    dt_bound: float = 1.0
    track_orbital: Optional[float] = None
    delta: float = 0.5
    c_delta: float = 1.0

    def __post_init__(self):
        if self.model not in ("nls", "beam"):
            raise ValueError(f"unknown model {self.model!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        # each written so that NaN fails it
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not self.dt_bound > 0.0:
            raise ValueError(f"dt_bound must be positive, got {self.dt_bound}")
        if self.track_orbital is not None and not 0.0 <= self.track_orbital < math.inf:
            raise ValueError(f"track_orbital must be a finite number >= 0, got {self.track_orbital}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        for j in self.nonlinearity:
            if int(j) < 1:
                raise ValueError("nonlinearity powers start at |psi|^2 (power 1)")
        if self.force is not None:
            for j in self.force:
                if int(j) < 3:
                    raise ValueError("beam force powers start at psi^3")
        for name, coeffs in (("nonlinearity", self.nonlinearity), ("force", self.force or {})):
            for c in coeffs.values():
                if not isinstance(c, numbers.Real) or not -math.inf < c < math.inf:
                    raise ValueError(f"{name} coefficients must be finite real numbers, got {c!r}")
        if self.model == "beam" and not self.mass_term > 0.0:
            raise ValueError(f"beam mass term must be positive, got {self.mass_term}")
        if self.model == "beam" and self.track_orbital is not None:
            raise ValueError("track_orbital needs model='nls'")
        if self.model == "nls" and self.force:
            raise ValueError("force needs model='beam'")
        if self.model == "beam" and self.nonlinearity != {1: 1.0}:
            raise ValueError(
                "the beam equation reads no nonlinearity (simulate.nonlinearity); "
                "its nonlinear term is force (simulate.force)"
            )


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
    extras = sorted(record.extra)
    header = ["t", "sobolev", "mass", "energy"]
    header += [f"J_{n}" for n in range(record.band_actions.shape[1])]
    header += [f"Jblk_{k}" for k in range(record.block_actions.shape[1])] + extras
    columns = [record.times, record.sobolev, record.mass, record.energy]
    columns += [*record.band_actions.T, *record.block_actions.T]
    columns += [record.extra[name] for name in extras]
    if record.orbital is not None:
        header.append("orbital")
        columns.append(record.orbital)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in zip(*columns))


# --- the shared loop and monitor ---------------------------------------------

_Column = Callable[[np.ndarray, np.ndarray], float]


class _Monitor:
    """What the monitor records of a state ``u`` whose lattice modes sit at ``index``, in lattice order.

    ``sobolev``, ``energy`` and the ``extra`` columns are called with the
    state and its intensities ``|u|^2``; ``orbital`` with the lattice modes.
    There is one action column per band and per cluster block.
    """

    def __init__(
        self,
        table: SpectrumTable,
        bands: BandPartition,
        clusters: ClusterPartition,
        index: Dict[Point, int],
        sobolev: _Column,
        energy: _Column,
        orbital: Optional[Callable[[Dict[Point, complex]], float]] = None,
        extra: Optional[Dict[str, _Column]] = None,
    ):
        bm = band_map(table, bands)
        sites = np.fromiter(index.values(), dtype=int, count=len(index))
        self.band_idx = [sites[[bm[p] == n for p in index]] for n in range(bands.nbands)]
        self.block_idx = [sites[block_labels(table, clusters) == k] for k in range(clusters.nblocks)]
        self.index = index
        self.sobolev, self.energy, self.orbital = sobolev, energy, orbital
        self.extra = extra or {}

    def modes(self, u: np.ndarray) -> Dict[Point, complex]:
        return {p: complex(u[i]) for p, i in self.index.items()}

    def sample(self, t: float, u: np.ndarray) -> tuple:
        if not np.all(np.isfinite(u.view(float))):
            raise FloatingPointError(f"state blew up at t = {t}")
        a2 = np.abs(u) ** 2
        return (
            t,
            self.sobolev(u, a2),
            math.sqrt(float(np.sum(a2))),
            self.energy(u, a2),
            [float(np.sum(a2[idx])) for idx in self.band_idx],
            [float(np.sum(a2[idx])) for idx in self.block_idx],
            None if self.orbital is None else self.orbital(self.modes(u)),
            [column(u, a2) for column in self.extra.values()],
        )


def _weighted_norm(weights: np.ndarray) -> _Column:
    return lambda u, a2: math.sqrt(float(np.sum(weights * a2)))


def _energy(omega: np.ndarray, potential: Callable[[np.ndarray], float]) -> _Column:
    return lambda u, a2: float(np.sum(omega * a2)) + potential(u)


def _run(
    u: np.ndarray,
    advance: Callable[[np.ndarray, int], np.ndarray],
    monitor: _Monitor,
    *,
    dt: float,
    n_steps: int,
    stride: int,
    meta: Dict[str, object],
) -> TrajectoryRecord:
    """The time-stepping loop of every integrator; ``advance(u, m)`` takes ``m`` steps.

    numpy's floating-point warnings are off for the whole loop: a state that
    overflows is reported once, by the ``FloatingPointError`` of the next
    monitor sample, not by a warning from every step map operation it
    passes through.
    """
    rows = [monitor.sample(0.0, u)]
    with np.errstate(all="ignore"):
        for k in range(0, n_steps, stride):
            m = min(stride, n_steps - k)
            u = advance(u, m)
            rows.append(monitor.sample((k + m) * dt, u))
    times, sob, mass, energy, bands, blocks, orbital, extra = zip(*rows)
    return TrajectoryRecord(
        times=np.asarray(times),
        sobolev=np.asarray(sob),
        mass=np.asarray(mass),
        energy=np.asarray(energy),
        band_actions=np.asarray(bands),
        block_actions=np.asarray(blocks),
        orbital=None if monitor.orbital is None else np.asarray(orbital),
        meta={**meta, "dt": dt, "n_steps": n_steps, "final_modes": monitor.modes(u)},
        extra={name: np.asarray(col) for name, col in zip(monitor.extra, zip(*extra))},
    )


def _steps(step: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray, int], np.ndarray]:
    """The ``advance`` of ``_run`` that takes ``m`` steps of a one-step map in turn."""

    def advance(u: np.ndarray, m: int) -> np.ndarray:
        for _ in range(m):
            u = step(u)
        return u

    return advance


def _rk4(rhs: Callable[[np.ndarray], np.ndarray], u: np.ndarray, dt: float) -> np.ndarray:
    """One classic fourth-order Runge-Kutta step of ``du/dt = rhs(u)``.

    ``k2 = rhs(u + 0.5 dt k1)``, ``k3 = rhs(u + 0.5 dt k2)``, ``k4 = rhs(u +
    dt k3)`` and ``u + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``, summed from the
    left: every operation of these formulas runs with its operands in their
    order, so the step is theirs bit for bit.  The stage states share one
    work array, and the sum runs in place in the stages, which ``rhs``
    returns fresh.  The scalar factors are ``complex128``, the type numpy
    casts a real factor of a complex array to.
    """
    half, full, sixth = np.complex128(0.5 * dt), np.complex128(dt), np.complex128(dt / 6.0)
    k1 = rhs(u)
    stage = np.multiply(half, k1)
    k2 = rhs(np.add(u, stage, stage))
    k3 = rhs(np.add(u, np.multiply(half, k2, stage), stage))
    k4 = rhs(np.add(u, np.multiply(full, k3, stage), stage))
    np.add(k1, np.multiply(_TWO, k2, k2), k1)
    np.add(k1, np.multiply(_TWO, k3, k3), k1)
    np.add(k1, k4, k1)
    return np.add(u, np.multiply(sixth, k1, k1), k1)


def _place(modes: Dict[Point, complex], index: Dict[Point, int], size: int) -> np.ndarray:
    """State of length ``size`` with ``modes`` at their sites; all must be in ``index``."""
    u = np.zeros(size, dtype=complex)
    for p, c in modes.items():
        if tuple(p) not in index:
            raise ValueError(f"initial mode {p} outside the truncation")
        u[index[tuple(p)]] = complex(c)
    return u


# --- model kinds --------------------------------------------------------------


def _laplacian(settings: Mapping):
    """``|a|_g^2`` of the flat torus, plus ``potential`` when the settings hold one."""
    torus = TorusLaplacian(gram=settings["gram"])
    if "potential" not in settings:
        return torus
    return SpectralMultiplier(base=torus, potential=dict(settings["potential"]))


@dataclass(frozen=True)
class ModelKind:
    """What one ``model.kind`` decides: one record per kind in ``KINDS``.

    ``frequencies`` builds the frequency model ``a -> omega_a`` from the
    ``[model]`` keys named in ``settings``; it is the one dispersion relation
    of the kind, which the table and, through ``_system``, the FFT grid of its
    equation both evaluate.  ``perturbation(lattice, coupling)`` is the form
    ``normalform`` normalizes and ``equation`` the grid equation ``simulate``
    integrates (``SimulationConfig.model``); either is ``None`` on a kind
    that has none.  Kinds of one equation share the frequencies builder.
    """

    settings: Tuple[str, ...]
    frequencies: Callable[[Mapping], object]
    perturbation: Optional[Callable[[Lattice, float], SymmetricForm]]
    equation: Optional[str]


KINDS = {
    "torus": ModelKind(("gram",), _laplacian, nls_quartic, "nls"),
    "multiplier": ModelKind(("gram", "potential"), _laplacian, nls_quartic, "nls"),
    "beam": ModelKind(
        ("gram", "mass"), lambda m: Beam(TorusLaplacian(gram=m["gram"]), m["mass"]), None, "beam"
    ),
    "ground_state": ModelKind(
        ("gram", "f_value"), lambda m: GroundState(TorusLaplacian(gram=m["gram"]), m["f_value"]),
        None, None,
    ),
}

_LACKS = {
    "perturbation": "normalform treats the NLS quartic of model.kind {kinds}; "
    "model.kind {name!r} has no perturbation of its own",
    "equation": "simulate integrates model.kind {kinds}, not {name!r}",
}


def model_kind(name: str, needs: str) -> ModelKind:
    """The record of ``model.kind`` ``name``; a ``ConfigError`` on an unknown
    kind, and on a kind without ``needs``, which names the kinds with it."""
    if name not in KINDS:
        raise ConfigError(f"unknown model kind {name!r}")
    if getattr(KINDS[name], needs) is None:
        names = [other for other, kind in KINDS.items() if getattr(kind, needs) is not None]
        kinds = " or ".join(filter(None, [", ".join(names[:-1]), names[-1]]))
        raise ConfigError(_LACKS[needs].format(kinds=kinds, name=name))
    return KINDS[name]


# --- pseudospectral models on an FFT grid ------------------------------------


class _Grid:
    """FFT grid with integer frequencies and lattice index mapping."""

    def __init__(self, dim: int, size: int):
        self.dim = dim
        self.size = size
        self.shape = (size,) * dim
        # the axes before the last, in fftn's order, as gufunc ``axes`` (input,
        # factor, output); the gufuncs' default is the last axis
        self.axes = [[(a,), (), (a,)] for a in range(dim - 2, -1, -1)]
        # the forward transform's factor, as a numpy scalar
        self.inv_size = np.float64(1 / size)
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
        with np.errstate(over="ignore"):
            return checked_weights((1.0 + norms) ** (2.0 * s), s)


# Grids of at most this many points apply the Strang propagator as one dense
# matrix, larger ones as the FFT pair.  Dense vs pair, one Xeon core, numpy
# 2.4, OpenBLAS zgemv: 36 points 1.0 vs 4.8 us, 81 points 2.7 vs 10.6 us,
# 225 points 14.7 vs 12.5 us, 576 points 234 vs 19 us.
_DENSE_POINTS = 128


@dataclass(frozen=True, eq=False)
class _System:
    """Truncation, spectrum, partitions and FFT grid of a grid model.

    ``index`` maps each lattice point to its flat grid index; ``omega`` is
    the frequency model of the table evaluated on every grid frequency, so
    the grid steps each lattice mode with its table frequency bit for bit;
    ``npts`` counts the grid points.

    ``field`` and ``spectrum`` are the one transform pair of every grid
    integrator: numpy's ``norm="forward"`` pair, so ``field`` sums the
    Fourier series unscaled and ``spectrum`` returns its coefficients.
    They call the 1-D pocketfft kernels once per axis, last axis first,
    with the factors ``np.fft.ifft``/``fft`` pass for that norm (``1`` and
    ``1/size`` on every axis): the loop ``ifftn``/``fftn`` run, so the
    results are theirs bit for bit, with no scaling call of their own and
    without the wrappers' argument handling on every call of a step.  The
    caller owns the output: each transform writes into the ``out`` array it
    is passed (grid-shaped for ``field``, flat for ``spectrum``), transforms
    the other axes of a 2-D grid in place there and returns it.  Neither
    writes into its argument, which may be the live state of a monitor
    sample.  ``propagator(phase)`` is ``field(phase * spectrum(psi))`` as one
    dense matrix, or ``None`` on grids of more than ``_DENSE_POINTS`` points.
    """

    lattice: Lattice
    table: SpectrumTable
    bands: BandPartition
    clusters: ClusterPartition
    grid: _Grid
    index: Dict[Point, int]
    omega: np.ndarray
    npts: int

    def field(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Physical-space field of the spectral state ``u``, written into ``out``."""
        grid = self.grid
        _ifft(u if grid.dim == 1 else u.reshape(grid.shape), _ONE, out)
        for axes in grid.axes:
            _ifft(out, _ONE, out, axes=axes)
        return out

    def spectrum(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Spectral state of the physical-space field ``psi``, written into ``out``."""
        grid = self.grid
        u = out if grid.dim == 1 else out.reshape(grid.shape)
        _fft(psi, grid.inv_size, u)
        for axes in grid.axes:
            _fft(u, grid.inv_size, u, axes=axes)
        return out

    def propagator(self, phase: np.ndarray) -> Optional[np.ndarray]:
        """The matrix on flat fields; column ``k`` is built from the ``k``-th unit field."""
        if self.npts > _DENSE_POINTS:
            return None
        w, psi = np.empty(self.npts, dtype=complex), np.empty(self.grid.shape, dtype=complex)
        matrix = np.empty((self.npts, self.npts), dtype=complex)
        for k, e in enumerate(np.eye(self.npts, dtype=complex).reshape(-1, *self.grid.shape)):
            matrix[:, k] = self.field(np.multiply(self.spectrum(e, w), phase, w), psi).reshape(-1)
        return matrix

    def meta(self, config: SimulationConfig) -> Dict[str, object]:
        return {
            "model": config.model,
            "integrator": "strang_splitting",
            "grid": self.grid.size,
            "seed": config.seed,
            "epsilon": config.epsilon,
            "s": config.s,
            "band_floors": [lo ** (1.0 / self.table.beta) for lo, _ in self.bands.intervals],
        }


def _system(config: SimulationConfig, alias: int) -> _System:
    """The model of ``config`` on a grid where products of ``alias``
    truncation-supported fields are alias-free.

    The model carries the potential on the lattice only: a grid frequency
    off the truncation has the frequency of the bare torus.
    """
    lattice = enumerate_lattice(config.dim, config.radius)
    frequencies = next(k.frequencies for k in KINDS.values() if k.equation == config.model)
    potential = {p: v for p, v in (config.potential or {}).items() if p in lattice}
    settings = {"gram": config.gram, "potential": potential, "mass": config.mass_term}
    model = frequencies(settings)
    table = build_spectrum(lattice, model)
    side = max((abs(c) for p in lattice.points for c in p), default=0)
    grid = _Grid(config.dim, five_smooth(alias * side + 1))
    return _System(
        lattice=lattice,
        table=table,
        bands=band_partition(table),
        clusters=build_clusters(table, config.delta, config.c_delta),
        grid=grid,
        index={p: grid.flat_index(p) for p in lattice.points},
        omega=np.asarray(model.omega(grid.freqs), dtype=float),
        npts=grid.size**grid.dim,
    )


def _time_step(config: SimulationConfig, omega: np.ndarray) -> Tuple[float, int]:
    """Step and step count; ``dt * max |omega|`` must stay within ``dt_bound``."""
    max_omega = float(np.max(np.abs(omega)))
    dt = config.dt if config.dt is not None else 0.1 / max(max_omega, 1.0)
    if not dt * max_omega <= config.dt_bound * (1.0 + 1e-12):
        raise ValueError(
            f"dt * max omega = {dt * max_omega:.3g} exceeds the stability bound "
            f"{config.dt_bound}"
        )
    if not config.horizon / dt < math.inf:
        raise ValueError(f"horizon / dt overflows at horizon={config.horizon}, dt={dt}")
    return dt, max(1, round(config.horizon / dt))


def integrate_nls(config: SimulationConfig) -> TrajectoryRecord:
    """Trajectory of the Schrödinger model by Strang splitting.

    Between two samples it keeps the field ``psi``, and each step is the
    nonlinear rotation, then the linear propagator (``_System.propagator``).
    """
    if config.model != "nls":
        raise ValueError("integrate_nls needs model='nls'")
    system = _system(config, 2 * int(max(config.nonlinearity, default=0)) + 2)
    grid, omega = system.grid, system.omega
    coeffs = {int(j): np.float64(c) for j, c in sorted(config.nonlinearity.items())}
    weights = grid.sobolev_weights(config.s)
    dt, n_steps = _time_step(config, omega)

    if config.initial_modes is not None:
        u = _place(config.initial_modes, system.index, system.npts)
    else:
        u = np.zeros(system.npts, dtype=complex)
        rng = np.random.default_rng(config.seed)
        for p, i in system.index.items():
            w = (1.0 + system.table.norm(p)) ** (-(config.s + 1.0))
            u[i] = w * complex(rng.standard_normal(), rng.standard_normal())
    norm = math.sqrt(float(np.sum(weights * np.abs(u) ** 2)))
    if norm == 0.0:
        raise ValueError("initial state is identically zero")
    u = u * (config.epsilon / norm)

    # Work arrays of the step map, allocated once per trajectory: ``psi`` the
    # field, ``y`` its intensity, ``w`` a spectral state and ``rot`` the
    # rotated field.  ``turn`` holds the angle ``-dt * phase`` in its
    # imaginary half and +0.0 in its real half, which nothing writes, so
    # ``np.exp`` reads the rotation ``exp(-i dt phase)`` from it directly.
    psi = np.empty(grid.shape, dtype=complex)
    y = np.empty(grid.shape)
    w = np.empty(system.npts, dtype=complex)
    turn = np.zeros(grid.shape, dtype=complex)
    rot = np.empty(grid.shape, dtype=complex)
    field, spectrum = system.field, system.spectrum
    phase_half = np.exp(-0.5j * dt * omega)
    phase_full = np.exp(-1j * dt * omega)
    matrix = system.propagator(phase_full)
    flat_rot, flat_psi = rot.reshape(-1), psi.reshape(-1)

    # The coefficients of the angle, scaled by ``-dt`` once, here; an empty
    # nonlinearity is one zero term, the angle of the linear flow.
    terms = list(coeffs.items()) or [(1, np.float64(0))]
    (j0, a0), *rest = [(j, -dt * c) for j, c in terms]
    theta = turn.imag
    # the step's ufuncs, bound once: a step is a few ufunc calls on 36
    # points, so each call's ``np`` attribute lookup shows in its cost
    absolute, add, dot, exp, multiply, square = (
        np.absolute, np.add, np.dot, np.exp, np.multiply, np.square
    )

    def rotate() -> None:
        """``rot = psi exp(i theta)`` with ``theta = sum_j a_j y**j`` at
        ``y = |psi|^2``, summed from the lowest power."""
        square(absolute(psi, y), y)
        multiply(a0, y if j0 == 1 else y**j0, theta)
        for j, a in rest:
            add(theta, a * y**j, theta)
        multiply(psi, exp(turn, rot), rot)

    def advance(v: np.ndarray, m: int) -> np.ndarray:
        # the first rotation, then each later step's linear propagator of
        # the step before and its rotation, in a loop chosen once
        field(multiply(v, phase_half, w), psi)
        rotate()
        if matrix is None:
            for _ in range(m - 1):
                field(multiply(spectrum(rot, w), phase_full, w), psi)
                rotate()
        else:
            for _ in range(m - 1):
                dot(matrix, flat_rot, flat_psi)
                rotate()
        return spectrum(rot, w) * phase_half

    def potential(v: np.ndarray) -> float:
        y = np.abs(system.field(v, np.empty(grid.shape, dtype=complex))) ** 2
        pot = 0.0
        for j, c in coeffs.items():
            pot += float(np.mean(c * y ** (j + 1) / (j + 1)))
        return pot

    orbital = None
    if config.track_orbital is not None:

        def orbital(modes: Dict[Point, complex]) -> float:
            return orbital_distance(modes, config.track_orbital, config.s, system.lattice)

    monitor = _Monitor(
        system.table, system.bands, system.clusters, system.index,
        _weighted_norm(weights), _energy(omega, potential), orbital=orbital,
    )
    return _run(
        u, advance, monitor, dt=dt, n_steps=n_steps, stride=config.stride,
        meta=system.meta(config),
    )


def integrate_beam(config: SimulationConfig) -> TrajectoryRecord:
    """Splitting integrator for the beam equation in complexified form.

    The field pair (psi, psi_t) is packed into ``u = (O^(1/2) psi_hat +
    i O^(-1/2) psi_t_hat)/sqrt(2)`` with ``O = sqrt(lap^2 + m)``, the
    ``Beam`` frequency model on the grid (``_System.omega``); the force
    kick changes only the velocity component, so kick-phase-kick steps apply
    both pieces exactly.  The recorded Sobolev norm is the pair norm
    ``|psi|_(s+2) + |psi_t|_s``; the omega-weighted norm of u is an extra
    column.
    """
    if config.model != "beam":
        raise ValueError("integrate_beam needs model='beam'")
    force = {int(j): c for j, c in (config.force or {}).items()}
    system = _system(config, max(force, default=1) + 1)
    grid, omega = system.grid, system.omega
    sqrt_om = np.sqrt(omega)
    force_coeffs = {j: np.float64(c) for j, c in sorted(force.items())}
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

    def pair_norm(ph: np.ndarray, dph: np.ndarray) -> float:
        a = math.sqrt(float(np.sum(w_s2 * np.abs(ph) ** 2)))
        b = math.sqrt(float(np.sum(w_s * np.abs(dph) ** 2)))
        return a + b

    if config.initial_modes is not None:
        psi_hat = _place(config.initial_modes, system.index, system.npts)
        dpsi_hat = _place(config.initial_velocity_modes or {}, system.index, system.npts)
    else:
        psi_hat = np.zeros(system.npts, dtype=complex)
        dpsi_hat = np.zeros(system.npts, dtype=complex)
        rng = np.random.default_rng(config.seed)
        for p, i in system.index.items():
            wdecay = (1.0 + system.table.norm(p)) ** (-(config.s + 3.0))
            psi_hat[i] = wdecay * complex(rng.standard_normal(), rng.standard_normal())
            dpsi_hat[i] = wdecay * complex(rng.standard_normal(), rng.standard_normal())
    # hermitian symmetrization keeps both fields real
    psi_hat = 0.5 * (psi_hat + np.conj(psi_hat[rev]))
    dpsi_hat = 0.5 * (dpsi_hat + np.conj(dpsi_hat[rev]))
    scale = config.epsilon / max(pair_norm(psi_hat, dpsi_hat), 1e-300)
    psi_hat *= scale
    dpsi_hat *= scale
    u = (sqrt_om * psi_hat + 1j * dpsi_hat / sqrt_om) / math.sqrt(2.0)

    dt, n_steps = _time_step(config, omega)
    phase = np.exp(-1j * dt * omega)

    # work arrays of the force kick, allocated once per trajectory
    psi = np.empty(grid.shape, dtype=complex)
    fhat = np.empty(system.npts, dtype=complex)
    half_kick = np.complex128(1j * (0.5 * dt) / math.sqrt(2.0))
    sqrt_om_c = sqrt_om.astype(complex)

    def kick(u: np.ndarray) -> np.ndarray:
        """The force kick of half a step."""
        if not force_coeffs:
            return u
        system.field(unpack(u)[0], psi)
        if np.max(np.abs(psi.imag)) > 1e-9 * (1.0 + np.max(np.abs(psi.real))):
            raise FloatingPointError("beam field lost reality")
        real = psi.real
        dforce = np.zeros_like(real)
        for j, c in force_coeffs.items():
            dforce += j * c * real ** (j - 1)
        system.spectrum(dforce, fhat)
        np.multiply(half_kick, fhat, fhat)
        return u - np.divide(fhat, sqrt_om_c, fhat)

    def step(u: np.ndarray) -> np.ndarray:
        return kick(kick(u) * phase)

    def potential(u: np.ndarray) -> float:
        if not force_coeffs:
            return 0.0
        psi = system.field(unpack(u)[0], np.empty(grid.shape, dtype=complex)).real
        pot = 0.0
        for j, c in force_coeffs.items():
            pot += float(np.mean(c * psi**j))
        return pot

    monitor = _Monitor(
        system.table, system.bands, system.clusters, system.index,
        lambda u, a2: pair_norm(*unpack(u)),
        _energy(omega, potential),
        extra={"u_sobolev": _weighted_norm(w_s)},
    )
    meta = {**system.meta(config), "mass_term": config.mass_term}
    return _run(u, _steps(step), monitor, dt=dt, n_steps=n_steps, stride=config.stride, meta=meta)


def integrate(config: SimulationConfig) -> TrajectoryRecord:
    """Trajectory of the grid equation ``config.model``; reads both
    integrators as module globals at each call, so wrappers set here run."""
    return integrate_nls(config) if config.model == "nls" else integrate_beam(config)


# --- polynomial normal forms on the truncated modes --------------------------


def is_action_form(form: SymmetricForm) -> bool:
    """Whether every monomial is a product of mode actions |u_a|^2."""
    codes = form.codes
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


class _PolyParts:
    """The parts of a polynomial Hamiltonian as code rows on the lattice.

    Each part's codes index the ``size`` points of the lattice, as does
    ``u``.  They are stored once as ``intp`` in column-major order, so each
    code column is one contiguous index array that no step converts or
    copies again; the rows then act on the both-signs state of ``u``.
    ``energy`` sums every part.  Action parts turn each mode by the angle
    ``theta = dP/dI``, the gradient of their ``+`` halves over the
    intensities ``|u|^2``; the others make ``rhs``, the ``+`` half of their
    Hamiltonian field.

    ``rhs`` reads only the minus rows of ``SymmetricForm.derivatives``: for
    each part, the derivative rows in a ``-`` variable, with ``-i`` folded
    into their coefficients.  They are sorted stably by their point, and a
    point without one gets one row of coefficient zero, so one
    ``np.add.reduceat`` of their monomials gives ``-i dF/d(conj u)`` on
    every point in order: the first part's sums are the result and later
    parts add theirs to it.

    Rows of two or more codes share their leading pairs: the nls quartic on
    the radius-8 line has 1713 minus rows and 353 distinct first pairs.
    Each part keeps a table of its rows' distinct first two codes
    (``first``, ``second``) and each row's entry in it (``pair``), built
    once here.  ``rhs`` then multiplies ``x[first] * x[second]`` once per
    call, gathers that product per row, and multiplies in the remaining
    columns (``rest``, a tuple of index arrays), in order, and then the
    coefficient.  A part whose rows hold zero codes or one (degree 1 or 2)
    has no table (``pair`` is ``None``) and takes ``monomials`` of its rows.

    The both-signs state is one work array, ``x``, owned here: ``rhs`` and
    ``energy`` refill it from their argument on every call, never write into
    the argument, and ``rhs`` returns a fresh array.
    """

    def __init__(self, forms: Sequence[SymmetricForm], size: int):
        self.size = size
        self.x = np.empty(2 * self.size, dtype=complex)
        self.rows: List[Tuple[np.ndarray, np.ndarray]] = []
        self.actions: List[Tuple[np.ndarray, np.ndarray]] = []
        # (first, second, pair, rest, coef, starts) of each part
        self.flows: List[tuple] = []
        for f in forms:
            codes, c = f.codes, f.values
            columns = np.asfortranarray(codes, dtype=np.intp)
            self.rows.append((columns, c))
            if is_action_form(f):
                if np.any(np.abs(c.imag) > 1e-12 * (1.0 + np.abs(c))):
                    raise ValueError("action part must have real coefficients")
                plus = codes[(codes & 1) == 0].reshape(len(codes), codes.shape[1] // 2) >> 1
                self.actions.append((np.asfortranarray(plus, dtype=np.intp), c.real))
            elif np.any(codes & 1):  # without a - variable the kick is zero
                # the minus derivative rows, sorted stably by their point, and
                # one zero row for each point without one: each point's rows
                # are one run, summed by one ``reduceat`` segment, and the
                # segments come in point order
                var, rows, coef = f.derivatives
                minus = np.flatnonzero(var & 1)
                point = var[minus] >> 1
                empty = np.flatnonzero(np.bincount(point, minlength=self.size) == 0)
                point = np.concatenate((point, empty))
                order = np.argsort(point, kind="stable")
                columns = np.concatenate((
                    rows[minus], np.zeros((len(empty), rows.shape[1]), rows.dtype)
                ))
                columns = np.asfortranarray(columns[order], dtype=np.intp)
                first = second = pair = None
                if columns.shape[1] >= 2:
                    radix = 2 * self.size
                    lead = columns[:, 0] * radix + columns[:, 1]
                    keys, pair = np.unique(lead, return_inverse=True)
                    first, second = keys // radix, keys % radix
                    pair, columns = pair.reshape(-1), tuple(columns[:, 2:].T)
                self.flows.append((
                    first, second, pair, columns,
                    np.concatenate((_NEG_I * coef[minus], np.zeros(len(empty), complex)))[order],
                    np.flatnonzero(np.diff(point[order], prepend=-1)),
                ))

    def both_signs(self, u: np.ndarray) -> np.ndarray:
        """``x`` holding ``u`` on the codes ``2*i`` and ``conj u`` on ``2*i + 1``."""
        x = self.x
        x[0::2] = u
        np.conjugate(u, x[1::2])
        return x

    def theta(self, intensity: np.ndarray) -> np.ndarray:
        return sum(gradient(plus, c, intensity, self.size).real for plus, c in self.actions)

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """``X[2i] = -i dF/dx[2i + 1]``, summed over the minus rows of each part."""
        x = self.both_signs(u)
        out = None
        for first, second, pair, rest, coef, starts in self.flows:
            if pair is None:
                terms = monomials(rest, coef, x)
            else:
                terms = np.multiply(x[first], x[second])[pair]
                for col in rest:
                    np.multiply(terms, x[col], terms)
                np.multiply(terms, coef, terms)
            total = np.add.reduceat(terms, starts)
            out = total if out is None else np.add(out, total, out)
        return np.zeros(self.size, dtype=complex) if out is None else out

    def energy(self, u: np.ndarray) -> float:
        x = self.both_signs(u)
        return float(sum(monomials(codes, c, x).sum() for codes, c in self.rows).real)


def integrate_normal_form(
    table: SpectrumTable,
    parts: Sequence[SymmetricForm],
    initial: Dict[Point, complex],
    *,
    dt: float,
    horizon: float,
    stride: int = 100,
    s: float = 4.0,
    bands: BandPartition,
    clusters: ClusterPartition,
) -> TrajectoryRecord:
    """Splitting trajectory of ``H0 + sum(parts)`` on the truncated modes.

    The quadratic phase is exact; when all parts are action products the
    nonlinear step is exact as well and the whole scheme conserves every
    action up to rounding.  Other parts take one RK4 step of ``dt``.
    """
    for name, value in (("dt", dt), ("horizon", horizon)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    for f in parts:
        check_points(f, table.lattice)
    points = list(table.lattice.points)
    index = point_index(table.lattice)
    omega = np.asarray([float(table.omega(p)) for p in points])
    u = _place(initial, index, len(points))

    poly = _PolyParts(parts, len(points))
    weights = (1.0 + point_norms(table.lattice)) ** (2.0 * s)
    phase_half = np.exp(-0.5j * dt * omega)

    rotation = np.complex128(-1j * dt)

    def step(v: np.ndarray) -> np.ndarray:
        v = v * phase_half
        if poly.actions:
            v = v * np.exp(rotation * poly.theta(np.abs(v) ** 2))
        if poly.flows:
            v = _rk4(poly.rhs, v, dt)
        return v * phase_half

    monitor = _Monitor(
        table, bands, clusters, index, _weighted_norm(weights), _energy(omega, poly.energy)
    )
    meta = {
        "model": "normal_form", "integrator": "strang_splitting", "exact_kick": not poly.flows, "s": s
    }
    n_steps = max(1, round(horizon / dt))
    return _run(u, _steps(step), monitor, dt=dt, n_steps=n_steps, stride=stride, meta=meta)


def orbital_distance(coeffs: Dict[Point, complex], p0: float, s: float, lattice: Lattice) -> float:
    """Sobolev distance to the ground-state circle, minimized over the phase.

    Only the zero mode ``m`` sees the phase, and the least ``|m - r e^{-i alpha}|``
    over ``alpha`` is ``||m| - r|`` with ``r = sqrt(p0)``.
    """
    zero = (0,) * lattice.dim
    weight = dict(zip(lattice.points, sobolev_weights(lattice, s).tolist()))
    fixed = sum(
        weight[tuple(p)] * abs(complex(c)) ** 2
        for p, c in coeffs.items()
        if tuple(p) != zero
    )
    mean = complex(coeffs.get(zero, 0.0))
    return math.sqrt(fixed + (abs(mean) - math.sqrt(p0)) ** 2)


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
    tracks the effective remainder order.  A run that blows up raises
    ``FloatingPointError`` naming its ``eps``.
    """
    if horizons is None:
        horizons = [e**-2.0 for e in eps_values]
    if len(horizons) != len(eps_values):
        raise ValueError("need one horizon per epsilon")
    runs: List[StabilityRun] = []
    for eps, horizon in zip(eps_values, horizons):
        cfg = replace(config, epsilon=float(eps), horizon=float(horizon))
        try:
            record = integrate(cfg)
        except FloatingPointError as exc:
            raise FloatingPointError(f"eps {eps:g}: {exc}") from exc
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
        lows = np.asarray(record.meta["band_floors"])
        weighted = record.band_actions @ (1.0 + lows) ** (2.0 * float(record.meta["s"]))
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
