"""The shared time-stepping loop against the loops it replaced.

The oracles below are the earlier per-integrator implementations: a
Strang NLS loop, a beam kick-phase-kick loop and the normal-form splitting
loop, each with its own sampler.  Every column of the ``TrajectoryRecord``
and every ``meta`` entry (the final modes included) must be bit-identical
to theirs.  A classic RK4 loop of the NLS on the same grid, ``oracle_rk4``,
is the reference solution of the integrator-order acceptance check
(``test_acceptance.py``, criterion 09).  The grid oracles transform with
numpy's ``norm="forward"`` pair, and the Strang oracles scale the
coefficients of their phase by ``-dt`` before summing the angle, as the
integrators do.

The Strang integrator keeps the physical-space field between samples and
applies the linear propagator as a dense matrix on small grids, so its
bit-identical oracle (``oracle_strang``) runs that arithmetic.  The earlier
loop, spectral after every step (``oracle_strang_spectral``), is the same
scheme in another rounding: the integrator must stay within 1e-12 of it.

Likewise the normal-form kick multiplies each derivative row from its
leading pair of codes, so its bit-identical oracle evaluates the rows in
that order; the field read off ``forms.gradient``, the earlier oracle,
rounds otherwise, and the kick must stay within 1e-14 of it.
"""

import math

import numpy as np
import pytest

from latnf import (
    SimulationConfig,
    band_partition,
    build_clusters,
    build_spectrum,
    enumerate_lattice,
    integrate_beam,
    integrate_nls,
    integrate_normal_form,
    nls_quartic,
    orbital_distance,
)
from latnf.bands import band_map
from latnf.dynamics import five_smooth, is_action_form
from latnf.forms import gradient, monomials
from latnf.frequencies import Beam, SpectralMultiplier, TorusLaplacian

from oracles import frequency, make_form


# --- oracles: the earlier loops, same arithmetic, without their guards --------


class _Grid:
    def __init__(self, dim, size):
        self.dim = dim
        self.size = size
        self.shape = (size,) * dim
        axis = np.rint(np.fft.fftfreq(size) * size).astype(int)
        mats = np.meshgrid(*([axis] * dim), indexing="ij")
        self.freqs = np.stack([m.reshape(-1) for m in mats], axis=1)

    def flat_index(self, point):
        idx = 0
        for c in point:
            idx = idx * self.size + (int(c) % self.size)
        return idx

    def sobolev_weights(self, s):
        norms = np.linalg.norm(self.freqs, axis=1)
        return (1.0 + norms) ** (2.0 * s)


def _coeff_grid(coeff, grid):
    return float(coeff) * np.ones(grid.shape)


def _gram(dim, gram):
    return np.eye(dim) if gram is None else np.asarray(gram, dtype=float)


def _monitor_indexes(table, bands, clusters, grid):
    bm = band_map(table, bands)
    band_idx = []
    for n in range(bands.nbands):
        pts = [p for p, b in bm.items() if b == n]
        band_idx.append(np.asarray([grid.flat_index(p) for p in sorted(pts)], dtype=int))
    block_idx = [
        np.asarray([grid.flat_index(p) for p in block], dtype=int) for block in clusters.blocks
    ]
    return band_idx, block_idx


def _band_floors(bands, beta):
    return [lo ** (1.0 / beta) for lo, _ in bands.intervals]


class _NlsSetup:
    def __init__(self, config):
        lattice = enumerate_lattice(config.dim, config.radius)
        base = TorusLaplacian(gram=config.gram)
        model = (
            SpectralMultiplier(base=base, potential=dict(config.potential))
            if config.potential
            else base
        )
        table = build_spectrum(lattice, model)
        bands = band_partition(table)
        clusters = build_clusters(table, config.delta, config.c_delta)
        side = max((abs(c) for p in lattice.points for c in p), default=0)
        p_max = max(config.nonlinearity, default=0)
        grid = _Grid(config.dim, five_smooth((2 * int(p_max) + 2) * side + 1))
        g = _gram(config.dim, config.gram)
        f = grid.freqs.astype(float)
        omega = np.einsum("ij,jk,ik->i", f, g, f)
        for p in lattice.points:
            omega[grid.flat_index(p)] = float(frequency(model, p, lattice.offset))
        self.lattice, self.table, self.bands, self.grid, self.omega = (
            lattice, table, bands, grid, omega,
        )
        self.coeff_arrays = {
            int(j): _coeff_grid(c, grid) for j, c in sorted(config.nonlinearity.items())
        }
        self.band_idx, self.block_idx = _monitor_indexes(table, bands, clusters, grid)
        self.weights_s = grid.sobolev_weights(config.s)
        max_omega = float(np.max(np.abs(omega)))
        self.dt = config.dt if config.dt is not None else 0.1 / max(max_omega, 1.0)
        assert self.dt * max_omega <= config.dt_bound * (1.0 + 1e-12)


def _initial_spectrum(config, setup):
    grid = setup.grid
    u = np.zeros(grid.size**grid.dim, dtype=complex)
    if config.initial_modes is not None:
        for p, c in config.initial_modes.items():
            u[grid.flat_index(tuple(p))] = complex(c)
    else:
        rng = np.random.default_rng(config.seed)
        for p in setup.lattice.points:
            w = (1.0 + setup.table.norm(p)) ** (-(config.s + 1.0))
            u[grid.flat_index(p)] = w * complex(rng.standard_normal(), rng.standard_normal())
    norm = math.sqrt(float(np.sum(setup.weights_s * np.abs(u) ** 2)))
    return u * (config.epsilon / norm)


class _Sampler:
    def __init__(self, setup, config):
        self.setup, self.config = setup, config
        self.cols = {k: [] for k in ("t", "sob", "mass", "en", "bands", "blocks", "orb")}

    def sample(self, t, u):
        setup, config, c = self.setup, self.config, self.cols
        a2 = np.abs(u) ** 2
        c["t"].append(t)
        c["sob"].append(math.sqrt(float(np.sum(setup.weights_s * a2))))
        c["mass"].append(math.sqrt(float(np.sum(a2))))
        psi = np.fft.ifftn(u.reshape(setup.grid.shape), norm="forward")
        y = np.abs(psi) ** 2
        pot = 0.0
        for j, arr in setup.coeff_arrays.items():
            pot += float(np.mean(arr * y ** (j + 1) / (j + 1)))
        c["en"].append(float(np.sum(setup.omega * np.abs(u) ** 2)) + pot)
        c["bands"].append([float(np.sum(a2[idx])) for idx in setup.band_idx])
        c["blocks"].append([float(np.sum(a2[idx])) for idx in setup.block_idx])
        if config.track_orbital is not None:
            coeffs = {p: complex(u[setup.grid.flat_index(p)]) for p in setup.lattice.points}
            c["orb"].append(orbital_distance(coeffs, config.track_orbital, config.s, setup.lattice))

    def record(self):
        c = self.cols
        return {
            "times": np.asarray(c["t"]),
            "sobolev": np.asarray(c["sob"]),
            "mass": np.asarray(c["mass"]),
            "energy": np.asarray(c["en"]),
            "band_actions": np.asarray(c["bands"]),
            "block_actions": np.asarray(c["blocks"]),
            "orbital": np.asarray(c["orb"]) if c["orb"] else None,
            "extra": {},
        }


def _phase_field(coeff_arrays, y):
    phi = np.zeros_like(y)
    for j, arr in coeff_arrays.items():
        phi += arr * y**j
    return phi


def _rotation(angle):
    """``exp(i angle)``: the exponential of ``+0.0 + i angle``."""
    turn = np.zeros(angle.shape, dtype=complex)
    turn.imag = angle
    return np.exp(turn)


def _nls_meta(config, setup, integrator, dt, n_steps, u):
    return {
        "model": "nls",
        "integrator": integrator,
        "grid": setup.grid.size,
        "dt": dt,
        "n_steps": n_steps,
        "seed": config.seed,
        "epsilon": config.epsilon,
        "s": config.s,
        "band_floors": _band_floors(setup.bands, setup.table.beta),
        "final_modes": {
            p: complex(u[setup.grid.flat_index(p)]) for p in setup.lattice.points
        },
    }


def oracle_strang(config):
    """The Strang loop as the integrator runs it: in physical space between samples.

    Each stretch of ``m`` steps up to a sample enters with the half phase,
    takes ``m - 1`` steps of the nonlinear rotation and the linear
    propagator, and leaves through the last rotation and the half phase.
    The propagator is the dense matrix of the ``norm="forward"`` pair with
    the full phase between, column by column from the unit fields, on grids
    of at most 128 points, and that pair itself on larger ones.
    """
    setup = _NlsSetup(config)
    grid = setup.grid
    npts = grid.size**grid.dim
    u = _initial_spectrum(config, setup)
    dt = setup.dt
    n_steps = max(1, round(config.horizon / dt))
    phase_half = np.exp(-0.5j * dt * setup.omega)
    phase_full = np.exp(-1j * dt * setup.omega)
    # the coefficients of the angle -dt * phase
    folded = {j: -dt * arr for j, arr in setup.coeff_arrays.items()}

    def pair(psi):
        spectral = np.fft.fftn(psi, norm="forward").reshape(-1) * phase_full
        return np.fft.ifftn(spectral.reshape(grid.shape), norm="forward")

    if npts <= 128:
        units = np.eye(npts, dtype=complex).reshape(-1, *grid.shape)
        matrix = np.stack([pair(e).reshape(-1) for e in units], axis=1)

        def linear(psi):
            return np.dot(matrix, psi.reshape(-1)).reshape(grid.shape)

    else:
        linear = pair

    def rotate(psi):
        return psi * _rotation(_phase_field(folded, np.abs(psi) ** 2))

    sampler = _Sampler(setup, config)
    sampler.sample(0.0, u)
    for k in range(0, n_steps, config.stride):
        m = min(config.stride, n_steps - k)
        psi = np.fft.ifftn((u * phase_half).reshape(grid.shape), norm="forward")
        for _ in range(m - 1):
            psi = linear(rotate(psi))
        u = np.fft.fftn(rotate(psi), norm="forward").reshape(-1) * phase_half
        sampler.sample((k + m) * dt, u)
    return sampler.record(), _nls_meta(config, setup, "strang_splitting", dt, n_steps, u)


def oracle_strang_spectral(config):
    """The earlier Strang loop: spectral after every step, with a half phase
    on either side of the rotation."""
    setup = _NlsSetup(config)
    grid = setup.grid
    u = _initial_spectrum(config, setup)
    dt = setup.dt
    n_steps = max(1, round(config.horizon / dt))
    phase_half = np.exp(-0.5j * dt * setup.omega)
    # the coefficients of the angle -dt * phase
    folded = {j: -dt * arr for j, arr in setup.coeff_arrays.items()}
    sampler = _Sampler(setup, config)
    sampler.sample(0.0, u)
    for step in range(1, n_steps + 1):
        u = u * phase_half
        psi = np.fft.ifftn(u.reshape(grid.shape), norm="forward")
        psi = psi * _rotation(_phase_field(folded, np.abs(psi) ** 2))
        u = np.fft.fftn(psi, norm="forward").reshape(-1)
        u = u * phase_half
        if step % config.stride == 0 or step == n_steps:
            sampler.sample(step * dt, u)
    return sampler.record(), _nls_meta(config, setup, "strang_splitting", dt, n_steps, u)


def oracle_rk4(config):
    """Classic RK4 of the spectral NLS system, sampled as the integrators are."""
    setup = _NlsSetup(config)
    grid = setup.grid
    u = _initial_spectrum(config, setup)
    omega = setup.omega

    def rhs(v):
        psi = np.fft.ifftn(v.reshape(grid.shape), norm="forward")
        phi = _phase_field(setup.coeff_arrays, np.abs(psi) ** 2)
        nonlin = np.fft.fftn(phi * psi, norm="forward").reshape(-1)
        return -1j * (omega * v + nonlin)

    dt = setup.dt
    n_steps = max(1, round(config.horizon / dt))
    sampler = _Sampler(setup, config)
    sampler.sample(0.0, u)
    for step in range(1, n_steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % config.stride == 0 or step == n_steps:
            sampler.sample(step * dt, u)
    return sampler.record(), _nls_meta(config, setup, "rk4", dt, n_steps, u)


def oracle_beam(config):
    lattice = enumerate_lattice(config.dim, config.radius)
    g = _gram(config.dim, config.gram)
    table = build_spectrum(lattice, Beam(TorusLaplacian(gram=config.gram), config.mass_term))
    bands = band_partition(table)
    clusters = build_clusters(table, config.delta, config.c_delta)
    side = max((abs(c) for p in lattice.points for c in p), default=0)
    force = {int(j): c for j, c in (config.force or {}).items()}
    size = five_smooth((max(force, default=1) + 1) * side + 1)
    grid = _Grid(config.dim, size)
    npts = size**config.dim
    # the table's eigenvalue k^T G k of every grid frequency, one row at a time
    lam = np.asarray([k @ g @ k for k in grid.freqs.astype(float)])
    omega = np.sqrt(lam**2 + config.mass_term)
    sqrt_om = np.sqrt(omega)
    force_arrays = {j: _coeff_grid(c, grid) for j, c in sorted(force.items())}
    band_idx, block_idx = _monitor_indexes(table, bands, clusters, grid)
    w_s = grid.sobolev_weights(config.s)
    w_s2 = grid.sobolev_weights(config.s + 2.0)
    rev = np.asarray(
        [grid.flat_index(tuple(-int(c) for c in p)) for p in map(tuple, grid.freqs)], dtype=int
    )

    def unpack(u):
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
            psi_hat[grid.flat_index(p)] = wdecay * complex(rng.standard_normal(), rng.standard_normal())
            dpsi_hat[grid.flat_index(p)] = wdecay * complex(rng.standard_normal(), rng.standard_normal())
    psi_hat = 0.5 * (psi_hat + np.conj(psi_hat[rev]))
    dpsi_hat = 0.5 * (dpsi_hat + np.conj(dpsi_hat[rev]))

    def pair_norm(ph, dph):
        a = math.sqrt(float(np.sum(w_s2 * np.abs(ph) ** 2)))
        b = math.sqrt(float(np.sum(w_s * np.abs(dph) ** 2)))
        return a + b

    scale = config.epsilon / max(pair_norm(psi_hat, dpsi_hat), 1e-300)
    psi_hat *= scale
    dpsi_hat *= scale
    u = (sqrt_om * psi_hat + 1j * dpsi_hat / sqrt_om) / math.sqrt(2.0)

    max_omega = float(np.max(omega))
    dt = config.dt if config.dt is not None else 0.1 / max(max_omega, 1.0)
    n_steps = max(1, round(config.horizon / dt))
    phase = np.exp(-1j * dt * omega)

    def kick(u, tau):
        if not force_arrays:
            return u
        ph, _ = unpack(u)
        psi = np.fft.ifftn(ph.reshape(grid.shape), norm="forward").real
        dforce = np.zeros_like(psi)
        for j, arr in force_arrays.items():
            dforce += j * arr * psi ** (j - 1)
        fhat = np.fft.fftn(dforce, norm="forward").reshape(-1)
        return u - 1j * tau / math.sqrt(2.0) * fhat / sqrt_om

    times, sob, msr, en, bandJ, blockJ, extra_u = [], [], [], [], [], [], []

    def sample(t, u):
        ph, dph = unpack(u)
        a2 = np.abs(u) ** 2
        times.append(t)
        sob.append(pair_norm(ph, dph))
        msr.append(math.sqrt(float(np.sum(a2))))
        psi = np.fft.ifftn(ph.reshape(grid.shape), norm="forward").real
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
        "final_modes": {p: complex(u[grid.flat_index(p)]) for p in lattice.points},
    }
    cols = {
        "times": np.asarray(times),
        "sobolev": np.asarray(sob),
        "mass": np.asarray(msr),
        "energy": np.asarray(en),
        "band_actions": np.asarray(bandJ),
        "block_actions": np.asarray(blockJ),
        "orbital": None,
        "extra": {"u_sobolev": np.asarray(extra_u)},
    }
    return cols, meta


def _both_signs(u):
    x = np.empty(2 * len(u), dtype=complex)
    x[0::2] = u
    x[1::2] = u.conj()
    return x


class _Kick:
    """The nonlinear step of the normal-form loop.

    ``_rhs`` evaluates each minus derivative row as the kick does, without
    its table of shared leading pairs: ``x[c0] * x[c1]``, times each later
    column in order, times ``-i`` times the coefficient; the rows of zero
    codes or one are the coefficient times their column.  Each variable's
    rows are summed by one ``np.add.reduceat`` segment.  ``_gradient_rhs``
    is the field read off ``gradient`` instead, the same sums in another
    rounding.
    """

    def __init__(self, forms, points, rhs="rows"):
        self.points = list(points)
        exps, coeffs, self.rk, self.rows = [], [], [], []
        for f in forms:
            codes = f.codes
            if is_action_form(f):
                row, col = np.nonzero((codes & 1) == 0)
                e = np.zeros((len(codes), len(self.points)), dtype=int)
                np.add.at(e, (row, codes[row, col] >> 1), 1)
                exps.append(e)
                coeffs.append(f.values.real)
            elif np.any(codes & 1):
                self.rk.append((codes, f.values))
                var, rows, coef = f.derivatives
                minus = np.flatnonzero(var & 1)
                starts = np.flatnonzero(np.diff(var[minus], prepend=-1))
                targets = var[minus[starts]] >> 1
                rows = rows[minus]
                self.rows.append((rows, -1j * coef[minus], starts, targets))
        self.action_exps = np.concatenate(exps) if exps else None
        self.action_coeffs = np.concatenate(coeffs) if coeffs else None
        self.exact = not self.rk
        self.rhs = self._rhs if rhs == "rows" else self._gradient_rhs

    def theta(self, intensity):
        rows = np.prod(intensity[None, :] ** self.action_exps, axis=1)
        safe = np.where(intensity > 0.0, intensity, 1.0)
        return (self.action_exps.T @ (self.action_coeffs * rows)) / safe

    def _rhs(self, u):
        x = _both_signs(u)
        du = np.zeros_like(u)
        for rows, coef, starts, targets in self.rows:
            if rows.shape[1] < 2:
                terms = coef.copy()
                for col in rows.T:
                    terms = terms * x[col]
            else:
                terms = x[rows[:, 0]] * x[rows[:, 1]]
                for col in rows[:, 2:].T:
                    terms = terms * x[col]
                terms = terms * coef
            du[targets] += np.add.reduceat(terms, starts)
        return du

    def _gradient_rhs(self, u):
        x = _both_signs(u)
        du = np.zeros_like(u)
        for codes, coef in self.rk:
            du += gradient(codes, coef, x, len(x))[1::2]
        return -1j * du

    def apply(self, u, dt):
        if self.action_exps is not None:
            u = u * np.exp(-1j * dt * self.theta(np.abs(u) ** 2))
        if self.rk:
            k1 = self.rhs(u)
            k2 = self.rhs(u + 0.5 * dt * k1)
            k3 = self.rhs(u + 0.5 * dt * k2)
            k4 = self.rhs(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return u


def oracle_normal_form(
    table, parts, initial, *, dt, horizon, stride, s, bands, clusters, rhs="rows"
):
    """The normal-form splitting loop; ``rhs`` picks the kick's field,
    ``"rows"`` (the kernel's arithmetic) or ``"gradient"``."""
    points = list(table.lattice.points)
    index = {p: i for i, p in enumerate(points)}
    omega = np.asarray([float(table.omega(p)) for p in points])
    u = np.zeros(len(points), dtype=complex)
    for p, c in initial.items():
        u[index[tuple(p)]] = complex(c)
    kick = _Kick(parts, points, rhs)
    tables = [(f.codes, f.values) for f in parts]

    def energy(v):
        x = _both_signs(v)
        return float(sum(monomials(codes, c, x).sum() for codes, c in tables).real)

    bm = band_map(table, bands)
    band_idx = [
        np.asarray([index[p] for p in points if bm[p] == n], dtype=int)
        for n in range(bands.nbands)
    ]
    block_idx = [np.asarray([index[p] for p in block], dtype=int) for block in clusters.blocks]
    weights = (1.0 + np.asarray([table.norm(p) for p in points])) ** (2.0 * s)
    n_steps = max(1, round(horizon / dt))
    phase_half = np.exp(-0.5j * dt * omega)
    times, sob, msr, en, bandJ, blockJ = [], [], [], [], [], []

    def sample(t, v):
        a2 = np.abs(v) ** 2
        times.append(t)
        sob.append(math.sqrt(float(np.sum(weights * a2))))
        msr.append(math.sqrt(float(np.sum(a2))))
        en.append(float(np.sum(omega * a2)) + energy(v))
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
    cols = {
        "times": np.asarray(times),
        "sobolev": np.asarray(sob),
        "mass": np.asarray(msr),
        "energy": np.asarray(en),
        "band_actions": np.asarray(bandJ),
        "block_actions": np.asarray(blockJ),
        "orbital": None,
        "extra": {},
    }
    return cols, meta


# --- comparisons -------------------------------------------------------------


def _same(a, b):
    """Bit-identical values: arrays by ``np.array_equal``, containers by entry."""
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is None and b is None
    return type(a) is type(b) and np.array_equal(a, b)


def assert_matches(record, oracle):
    cols, meta = oracle
    for name in ("times", "sobolev", "mass", "energy", "band_actions", "block_actions"):
        got, want = getattr(record, name), cols[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert _same(record.orbital, cols["orbital"])
    assert sorted(record.extra) == sorted(cols["extra"])
    for name, col in cols["extra"].items():
        assert np.array_equal(record.extra[name], col), name
    assert sorted(record.meta) == sorted(meta)
    for key, want in meta.items():
        assert _same(record.meta[key], want), key


def assert_close(record, oracle, rtol):
    """Every column and the final modes within ``rtol`` of the oracle's.

    Each column is measured against its own largest value, and the band and
    block actions against the largest total action ``mass**2``: the actions
    of the high modes are about 1e-8 of the total, and the rounding of the
    low modes moves them by more than ``rtol`` of themselves.
    """
    cols, meta = oracle
    assert np.array_equal(record.times, cols["times"])
    scales = dict(
        sobolev=np.max(cols["sobolev"]),
        mass=np.max(cols["mass"]),
        energy=np.max(np.abs(cols["energy"])),
        band_actions=np.max(cols["mass"]) ** 2,
        block_actions=np.max(cols["mass"]) ** 2,
    )
    if cols["orbital"] is not None:
        scales["orbital"] = np.max(cols["orbital"])
    assert (record.orbital is None) == (cols["orbital"] is None)
    for name, scale in scales.items():
        got, want = getattr(record, name), cols[name]
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= rtol * scale, name
    final, final_want = record.meta["final_modes"], meta["final_modes"]
    assert list(final) == list(final_want)
    got, want = np.asarray(list(final.values())), np.asarray(list(final_want.values()))
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))
    assert record.meta["n_steps"] == meta["n_steps"] and record.meta["dt"] == meta["dt"]


NLS_CASE = dict(
    radius=5.0,
    potential={(0,): 0.05, (1,): -0.2, (-2,): 0.03},
    nonlinearity={1: -2.0, 2: 0.5},
    epsilon=0.05,
    horizon=0.4,
    stride=7,
    seed=3,
    track_orbital=1.0,
)


# A skew torus in two dimensions: the FFTs run over both grid axes, so the
# per-axis transforms must follow ``ifftn``/``fftn`` axis for axis.
GRAM_2D = ((1.0, 0.3), (0.3, 1.4))

NLS_CASE_2D = dict(
    dim=2,
    radius=3.0,
    gram=GRAM_2D,
    potential={(0, 0): 0.05, (1, 0): -0.2, (-1, 1): 0.03},
    nonlinearity={1: -2.0, 2: 0.5},
    epsilon=0.3,
    horizon=0.03,
    stride=7,
    seed=3,
    track_orbital=1.0,
)


def test_strang_nls_matches_the_oracle():
    cfg = SimulationConfig(**NLS_CASE)
    record = integrate_nls(cfg)
    assert record.orbital is not None
    assert_matches(record, oracle_strang(cfg))


def test_strang_nls_given_modes_matches_the_oracle():
    cfg = SimulationConfig(
        radius=4.0, dt=0.01, horizon=0.35, stride=10, nonlinearity={1: 1.5},
        initial_modes={(1,): 1.0 + 0j, (-2,): 0.5j, (0,): 0.2},
    )
    assert_matches(integrate_nls(cfg), oracle_strang(cfg))


def test_strang_nls_in_two_dimensions_matches_the_oracle():
    cfg = SimulationConfig(**NLS_CASE_2D)
    record = integrate_nls(cfg)
    assert record.meta["grid"] == 20 and record.meta["n_steps"] > 2 * cfg.stride
    assert_matches(record, oracle_strang(cfg))


# nls-line8's sweep on a 36-point line: coupling -12, dt 0.01, 4000 steps
# sampled every 1000.
NLS_CASE_LINE8 = dict(
    radius=8.0,
    potential={(0,): 0.05, (1,): -0.24, (-2,): 0.066, (3,): 0.004},
    nonlinearity={1: -12.0},
    epsilon=0.1,
    dt=0.01,
    horizon=40.0,
    stride=1000,
    seed=1,
    dt_bound=4.0,
)


def test_strang_nls_past_the_last_stride_matches_the_oracle():
    # stride > n_steps: one stretch of five steps from t = 0 to the end
    cfg = SimulationConfig(
        radius=4.0, dt=0.01, horizon=0.05, stride=100, nonlinearity={1: 1.5}, seed=2
    )
    record = integrate_nls(cfg)
    assert record.meta["n_steps"] == 5 and list(record.times) == [0.0, 5 * 0.01]
    assert_matches(record, oracle_strang(cfg))
    assert_close(record, oracle_strang_spectral(cfg), 1e-12)


def test_strang_nls_on_the_line8_grid_matches_the_oracle():
    cfg = SimulationConfig(**NLS_CASE_LINE8)
    record = integrate_nls(cfg)
    assert record.meta["n_steps"] == 4000 and len(record.times) == 5
    assert_matches(record, oracle_strang(cfg))


@pytest.mark.parametrize(
    "case, grid",
    [(NLS_CASE, 32), (NLS_CASE_2D, 20), (NLS_CASE_LINE8, 36)],
    ids=["two-powers", "2d-fft-pair", "line8-4000-steps"],
)
def test_strang_nls_stays_within_rounding_of_the_spectral_loop(case, grid):
    # the dense propagator on the 32- and 36-point lines, the transform pair
    # on the 400-point grid
    cfg = SimulationConfig(**case)
    record = integrate_nls(cfg)
    assert record.meta["grid"] == grid
    assert_close(record, oracle_strang_spectral(cfg), 1e-12)


@pytest.mark.parametrize("force", [{3: 0.1, 5: 0.02}, None])
def test_beam_matches_the_oracle(force):
    cfg = SimulationConfig(
        model="beam", radius=5.0, epsilon=0.05, horizon=0.3, stride=9, seed=2,
        force=force, mass_term=1.5,
    )
    assert_matches(integrate_beam(cfg), oracle_beam(cfg))


def test_beam_in_two_dimensions_matches_the_oracle():
    cfg = SimulationConfig(
        model="beam", dim=2, radius=3.0, gram=GRAM_2D, epsilon=0.05, horizon=0.03,
        stride=9, seed=2, force={3: 0.1, 5: 0.02},
        mass_term=1.5,
    )
    assert_matches(integrate_beam(cfg), oracle_beam(cfg))


def test_beam_given_modes_matches_the_oracle():
    cfg = SimulationConfig(
        model="beam", radius=4.0, horizon=0.2, stride=5, force={3: 0.2},
        initial_modes={(1,): 0.3, (-1,): 0.3, (2,): 0.1j, (-2,): -0.1j},
        initial_velocity_modes={(0,): 0.05},
    )
    assert_matches(integrate_beam(cfg), oracle_beam(cfg))


def _nf_initial(table, amplitude=0.05):
    rng = np.random.default_rng(8)
    return {
        p: amplitude * (1.0 + table.norm(p)) ** -2.0 * complex(np.exp(2j * np.pi * rng.random()))
        for p in table.lattice.points
    }


def test_normal_form_exact_kick_matches_the_oracle(torus_table, torus_partitions):
    j1sq = make_form(torus_table.lattice.points, {((((1,), 1), ((1,), 1), ((1,), -1), ((1,), -1))): 0.5})
    j12 = make_form(torus_table.lattice.points, {((((1,), 1), ((2,), 1), ((1,), -1), ((2,), -1))): -0.25})
    init = _nf_initial(torus_table)
    kw = dict(dt=0.05, horizon=2.0, stride=7, s=4.0, **torus_partitions)
    record = integrate_normal_form(torus_table, [j1sq, j12], init, **kw)
    assert record.meta["exact_kick"]
    assert_matches(record, oracle_normal_form(torus_table, [j1sq, j12], init, **kw))


def test_normal_form_quartic_kick_matches_the_oracle(torus_table, torus_partitions):
    parts = [nls_quartic(torus_table.lattice, -3.0)]
    init = _nf_initial(torus_table)
    kw = dict(dt=0.02, horizon=0.5, stride=6, s=3.0, **torus_partitions)
    record = integrate_normal_form(torus_table, parts, init, **kw)
    assert not record.meta["exact_kick"]
    assert_matches(record, oracle_normal_form(torus_table, parts, init, **kw))


def test_normal_form_quartic_kick_stays_within_rounding_of_the_gradient_field(
    torus_table, torus_partitions
):
    # the kick's field read off ``gradient``: the same sums of the same
    # products, grouped and rounded otherwise.  At amplitude 0.3 the columns
    # and final modes differ by up to 4.5e-16 of their scale; at 0.05 the
    # two records are the same bit for bit.
    parts = [nls_quartic(torus_table.lattice, -3.0)]
    init = _nf_initial(torus_table, amplitude=0.3)
    kw = dict(dt=0.02, horizon=0.5, stride=6, s=3.0, **torus_partitions)
    record = integrate_normal_form(torus_table, parts, init, **kw)
    assert_close(record, oracle_normal_form(torus_table, parts, init, rhs="gradient", **kw), 1e-14)


# --- one check for initial modes outside the truncation ----------------------


def test_initial_modes_outside_the_truncation_are_rejected(torus_table, torus_partitions):
    far = (int(torus_table.lattice.radius) + 3,)
    with pytest.raises(ValueError, match="outside the truncation"):
        integrate_nls(SimulationConfig(radius=4.0, initial_modes={far: 1.0}))
    with pytest.raises(ValueError, match="outside the truncation"):
        integrate_beam(SimulationConfig(model="beam", radius=4.0, initial_modes={(9,): 1.0}))
    with pytest.raises(ValueError, match="outside the truncation"):
        integrate_beam(
            SimulationConfig(
                model="beam", radius=4.0, initial_modes={(1,): 1.0},
                initial_velocity_modes={(9,): 1.0},
            )
        )
    with pytest.raises(ValueError, match="outside the truncation"):
        integrate_normal_form(torus_table, [], {far: 0.1}, dt=0.1, horizon=0.2, **torus_partitions)


def test_beam_rejects_orbital_tracking():
    with pytest.raises(ValueError, match="track_orbital"):
        SimulationConfig(model="beam", track_orbital=1.0)
