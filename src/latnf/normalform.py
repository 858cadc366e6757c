"""Resonant normal form engine: homological equation, Lie transforms, iteration.

The iteration removes, degree by degree, every monomial whose divisor is
controlled by the block-nonresonance test, conjugating the Hamiltonian with
time-1 flows of polynomial generators.  Polynomial arithmetic is truncated at
degree ``2r + 2``; dropped terms enter a measured remainder ledger.  The
normalized part is classified into four buckets:

    Z0    no high modes, paired within bands
    ZB    exactly two high modes, one cluster block, opposite signs
    Z2    exactly two high modes, distinct blocks, separated supports
    ZGE3  three or more high modes

which together are exactly the complement of the nonresonant set.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bands import BandPartition
from .clusters import ClusterPartition, block_index_map, high_mode_blocks
from .dynamics import _rk4
from .forms import (
    PolyHamiltonian,
    SymmetricForm,
    add_forms,
    band_superactions,
    block_superactions,
    hamiltonian_field,
    localized_norm,
    poisson_bracket,
    poly_from_forms,
    quadratic_hamiltonian,
    scale_form,
    scaled_norm,
    sobolev_norm,
    vector_field,
    zero_form,
)
from .frequencies import SpectrumTable
from .lattice import Point, point_distance
from .resonance import (
    CertificateError,
    NonresonanceCertificate,
    _resonant,
    _signed_bands,
    _signed_omegas,
    validate_cutoff,
)

BUCKETS = ("Z0", "ZB", "Z2", "ZGE3")
#: the label ``bucket_rows`` gives a row outside every bucket
NONRESONANT = len(BUCKETS)


class SmallnessError(ValueError):
    """The perturbation is too large for the normalization to contract."""


@dataclass(frozen=True)
class NormalFormConfig:
    """Parameters of a normalization run.

    The small-divisor constants ``gamma`` and ``tau`` of each degree are
    those of its nonresonance certificate.
    """

    r: int
    radius: float
    s: float = 4.0
    cutoff: Optional[float] = None
    nu: float = 2.0
    smoothing: float = 2.0
    mu_max: float = 1.0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not 0.0 < self.radius < 1.0:
            raise ValueError(f"radius must lie in (0,1), got {self.radius}")

    @property
    def r_bar(self) -> int:
        return 2 * self.r

    @property
    def degree_cap(self) -> int:
        return self.r_bar + 2


def choose_cutoff(table: SpectrumTable, partition: BandPartition, radius: float, tau: float) -> float:
    """Inter-band cutoff (floor scale) nearest to ``radius**(-1/(2 tau))``.

    Candidates are the midpoints of the spectral gaps between consecutive
    bands; the choice must land within a factor 2 of the target, which
    needs a positive ``tau`` and a target that a float can hold.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie in (0,1), got {radius}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive to choose a cutoff, got {tau}")
    if partition.nbands < 2:
        raise ValueError("single-band spectrum has no admissible cutoff")
    try:
        target = radius ** (-1.0 / (2.0 * tau))
    except OverflowError:
        raise ValueError(
            f"cutoff target radius**(-1/(2 tau)) overflows at tau={tau}"
        ) from None
    inv_beta = 1.0 / partition.beta
    candidates = []
    for (_, hi), (lo, _) in zip(partition.intervals, partition.intervals[1:]):
        a, b = hi**inv_beta, lo**inv_beta
        if b > a:
            candidates.append(0.5 * (a + b))
    admissible = [k for k in candidates if 0.5 * target <= k <= 2.0 * target]
    if not admissible:
        raise ValueError(
            f"no inter-band cutoff within a factor 2 of target {target:.6g}; "
            "truncation too small for this radius"
        )
    return min(admissible, key=lambda k: (abs(k - target), k))


def bucket_rows(form: SymmetricForm, table: SpectrumTable, bands: BandPartition, clusters: ClusterPartition, cutoff: float) -> np.ndarray:
    """Index into ``BUCKETS`` of every row of a form, ``NONRESONANT`` off them.

    High modes have floor norm > cutoff.  Three or more make ZGE3; none make
    Z0 when the row is on the resonant set; two in one cluster block make ZB
    with opposite signs; two in distinct blocks make Z2 beyond index distance
    ``c_delta * cutoff**delta``.  Every other row is block nonresonant: one
    high mode, or two with equal signs in one block or in distinct blocks
    within that distance, or none off the resonant set.
    """
    points, codes = form.points, form.codes
    high = np.array([table.floor(p) > cutoff for p in points], dtype=bool)[codes >> 1]
    n_high = high.sum(axis=1)
    out = np.full(len(codes), NONRESONANT)
    out[n_high >= 3] = BUCKETS.index("ZGE3")
    out[(n_high == 0) & _resonant(_signed_bands(table, bands, form.entries), codes)] = BUCKETS.index("Z0")
    two = np.flatnonzero(n_high == 2)
    pair = codes[two[:, None], np.nonzero(high[two])[1].reshape(-1, 2)]
    ids = block_index_map(clusters)
    block = np.array([ids[p] for p in points], dtype=np.int64)
    same = block[pair[:, 0] >> 1] == block[pair[:, 1] >> 1]
    opposite = ((pair[:, 0] ^ pair[:, 1]) & 1) == 1
    out[two[same & opposite]] = BUCKETS.index("ZB")
    ends, which = np.unique(pair >> 1, axis=0, return_inverse=True)
    reach = clusters.c_delta * cutoff**clusters.delta
    far = np.array([point_distance(points[a], points[b]) > reach for a, b in ends.tolist()], dtype=bool)
    out[two[~same & far[which.reshape(-1)]]] = BUCKETS.index("Z2")
    return out


@dataclass(frozen=True)
class HomologicalSolution:
    generator: SymmetricForm
    normal: SymmetricForm
    residual: float
    f_norm: float
    g_norm: float
    z_norm: float


def solve_homological(
    form: SymmetricForm,
    table: SpectrumTable,
    bands: BandPartition,
    clusters: ClusterPartition,
    cutoff: float,
    gamma: float,
    tau: float,
    *,
    verify: bool = True,
    nu: float = 2.0,
    smoothing: float = 2.0,
) -> HomologicalSolution:
    """Split F into a generator killing nonresonant terms and a normal part.

    Nonresonant keys get ``G = i F / divisor`` and ``Z = 0``; all other keys
    pass through to Z untouched.  Divisors on nonresonant keys are guarded
    against the certified floor ``gamma / max(1, max_j |a_j|)**tau``; a
    smaller divisor means the certificate does not cover this truncation.
    """
    validate_cutoff(table, bands, cutoff)
    solve = bucket_rows(form, table, bands, clusters, cutoff) == NONRESONANT
    codes, c = form.codes[solve], form.values[solve]
    # the signed frequency sum, added left to right from 0 as small_divisor does
    omega = _signed_omegas(table, form.entries)
    delta = np.zeros(len(codes), dtype=omega.dtype)
    for col in codes.T:
        delta = delta + omega[col]
    base = np.array([max(1.0, table.norm(p)) for p in form.points])[codes >> 1].max(axis=1, initial=1.0)
    scale = np.array([b**tau for b in base.tolist()])
    breach = np.flatnonzero(np.abs(delta) < gamma / scale)
    if len(breach):
        i = breach[0]
        key = tuple(form.entries[e] for e in codes[i].tolist())
        raise CertificateError(
            f"divisor {delta.tolist()[i]} below gamma/K_max^tau = {gamma / scale[i]:.3e} "
            f"on nonresonant key {key}: certificate breached"
        )
    # 1j * c / delta op for op as CPython computes it, so that every bit (the
    # sign of a zero too) matches: 1j * c, then complex / (delta + 0j)
    delta = np.asarray(delta, dtype=float)
    re, im = 0.0 * c.real - c.imag, 0.0 * c.imag + c.real
    ratio = 0.0 / delta
    g = np.column_stack(((re + im * ratio) / delta, (im - re * ratio) / delta)).view(complex).ravel()
    generator = SymmetricForm(form.points, codes, g)
    normal = SymmetricForm(form.points, form.codes[~solve], form.values[~solve])

    residual = 0.0
    f_norm = g_norm = z_norm = 0.0
    if verify:
        h0 = quadratic_hamiltonian(table)
        lhs = add_forms(poisson_bracket(h0, generator, tol=0.0), form, tol=0.0)
        diff = add_forms(lhs, scale_form(normal, -1.0), tol=0.0)
        residual = float(np.abs(diff.values).max(initial=0.0))
        kw = dict(nu=nu, smoothing=smoothing, zero_mode="lift")
        f_norm, g_norm, z_norm = (localized_norm(x, table, **kw) for x in (form, generator, normal))
        k_scan = max(1.0, float(table.lattice.radius))
        if residual > 1e-12:
            raise RuntimeError(f"homological residual {residual:.3e} exceeds 1e-12")
        if g_norm > (k_scan**tau / gamma) * f_norm * (1.0 + 1e-12):
            raise RuntimeError("generator norm bound violated")
        if z_norm > f_norm * (1.0 + 1e-12):
            raise RuntimeError("normal part norm bound violated")
    return HomologicalSolution(
        generator=generator,
        normal=normal,
        residual=residual,
        f_norm=f_norm,
        g_norm=g_norm,
        z_norm=z_norm,
    )


@dataclass(frozen=True)
class LedgerEntry:
    """A term dropped by the degree cap, with its measured scaled norm."""

    step: int
    source_degree: int
    lie_index: int
    degree: int
    norm_r: float
    form: SymmetricForm


def lie_terms_order(r_bar: int, part_order: int, gen_order: int) -> int:
    """Series truncation order ``ceil((r_bar + 3 - part_order) / gen_order)``."""
    if gen_order < 1:
        raise ValueError("generator must have positive order")
    return max(1, math.ceil((r_bar + 3 - part_order) / gen_order))


def lie_transform(
    generator: SymmetricForm,
    part: SymmetricForm,
    n: int,
    *,
    cap: int,
    table: SpectrumTable,
    radius: float,
    step: int = 0,
    nu: float = 2.0,
    smoothing: float = 2.0,
) -> Tuple[List[SymmetricForm], List[LedgerEntry]]:
    """Adjoint series ``sum_{k<=n} Ad_G^k P / k!`` split at the degree cap."""
    kept: List[SymmetricForm] = []
    ledger: List[LedgerEntry] = []
    current = part
    factorial = 1.0
    for k in range(n + 1):
        if k > 0:
            current = poisson_bracket(current, generator)
            factorial *= k
            if not len(current):
                break
        term = scale_form(current, 1.0 / factorial)
        if term.degree <= cap:
            kept.append(term)
        else:
            norm_r = scaled_norm(
                term, table, radius, nu=nu, smoothing=smoothing, zero_mode="lift"
            )
            ledger.append(
                LedgerEntry(
                    step=step,
                    source_degree=part.degree,
                    lie_index=k,
                    degree=term.degree,
                    norm_r=norm_r,
                    form=term,
                )
            )
    return kept, ledger


@dataclass(frozen=True)
class CommutationReport:
    max_band_residual: float
    max_block_residual: float
    z2_bracket_norm: float


def check_superaction_commutation(
    z0: PolyHamiltonian,
    zb: PolyHamiltonian,
    z2: Optional[PolyHamiltonian],
    table: SpectrumTable,
    bands: BandPartition,
    clusters: ClusterPartition,
    cutoff: float,
) -> CommutationReport:
    """Coefficient-level brackets of the normal part with every superaction.

    Band superactions must commute with Z0 and block superactions with ZB
    exactly (up to rounding); the Z2 bracket is reported, not asserted.  Each
    degree of a bucket is bracketed on its own and the maximum is taken.
    """

    def max_coeff(poly: Optional[PolyHamiltonian], j: SymmetricForm) -> float:
        if poly is None:
            return 0.0
        return max(
            (float(np.abs(poisson_bracket(poly.parts[d], j, tol=0.0).values).max(initial=0.0)) for d in poly.degrees),
            default=0.0,
        )

    band_res = max((max_coeff(z0, j) for j in band_superactions(table, bands)), default=0.0)
    block_res = 0.0
    z2_norm = 0.0
    for j in block_superactions(high_mode_blocks(clusters, table, cutoff)):
        block_res = max(block_res, max_coeff(zb, j))
        z2_norm = max(z2_norm, max_coeff(z2, j))
    return CommutationReport(
        max_band_residual=band_res,
        max_block_residual=block_res,
        z2_bracket_norm=z2_norm,
    )


@dataclass(frozen=True, eq=False)
class NormalFormResult:
    config: NormalFormConfig
    cutoff: float
    gamma: Dict[int, float]
    tau: Dict[int, float]
    z0: PolyHamiltonian
    zb: PolyHamiltonian
    z2: PolyHamiltonian
    zge3: PolyHamiltonian
    generators: Tuple[SymmetricForm, ...]
    step_norms: Tuple[float, ...]
    mu: float
    max_residual: float
    ledger: Tuple[LedgerEntry, ...]
    commutation: CommutationReport
    remainder_bound: float

    @property
    def ledger_bound(self) -> float:
        return sum(e.norm_r for e in self.ledger)

    def bucket(self, name: str) -> PolyHamiltonian:
        return {"Z0": self.z0, "ZB": self.zb, "Z2": self.z2, "ZGE3": self.zge3}[name]


def _constants_for(
    degree: int, by_order: Dict[int, NonresonanceCertificate]
) -> Tuple[float, float]:
    """``(gamma, tau)`` of the passed order-``degree`` certificate."""
    cert = by_order.get(degree)
    if cert is None:
        raise CertificateError(
            f"no nonresonance certificate of order {degree}; "
            "the engine refuses to run without one"
        )
    if cert.min_score == 0:
        raise CertificateError(
            f"order-{degree} certificate failed (min score 0: an exact "
            f"off-set resonance); witness {cert.witness}"
        )
    if not cert.passed:
        raise CertificateError(
            f"order-{degree} certificate failed (min score {cert.min_score:.3e} "
            f"< gamma {cert.gamma:.3e}); witness {cert.witness}"
        )
    return float(cert.gamma), float(cert.tau)


def normalize(
    table: SpectrumTable,
    perturbation: PolyHamiltonian,
    config: NormalFormConfig,
    certificates: Sequence[NonresonanceCertificate],
    *,
    bands: BandPartition,
    clusters: ClusterPartition,
    remainder_samples: int,
    seed: int = 0,
) -> NormalFormResult:
    """Iteratively normalize ``H0 + perturbation`` up to the degree cap.

    Each step solves the homological equation for the entire lowest-degree
    non-normalized part, conjugates every current term by the generator's
    time-1 flow (adjoint series, degree-capped), and re-sorts.  Per-step
    norms must contract: ``mu = (|P|_R / R^2) K^tau`` is required below
    ``mu_max`` and each step below ``2 mu`` times the previous.
    ``remainder_bound`` is the largest ``|X(u)|_s`` of the remainder's vector
    field over ``remainder_samples`` random states on the radius-R sphere: a
    lower estimate of its supremum there, not a bound.
    """
    if remainder_samples < 1:
        raise ValueError(f"remainder_samples must be >= 1, got {remainder_samples}")
    cap = config.degree_cap
    if not perturbation.degrees:
        raise ValueError("the perturbation is zero: nothing to normalize")
    for degree in perturbation.degrees:
        if degree < 3:
            raise ValueError(f"perturbation has a degree-{degree} part; need >= 3")
        if degree > cap:
            raise ValueError(
                f"perturbation degree {degree} above the cap {cap}; "
                "truncate the input Hamiltonian first"
            )
    by_order = {c.order: c for c in certificates}
    gammas: Dict[int, float] = {}
    taus: Dict[int, float] = {}
    for degree in perturbation.degrees:
        gammas[degree], taus[degree] = _constants_for(degree, by_order)

    if config.cutoff is not None:
        cutoff = float(config.cutoff)
        validate_cutoff(table, bands, cutoff)
    else:
        cutoff = choose_cutoff(table, bands, config.radius, max(taus.values()))

    norm_kw = dict(nu=config.nu, smoothing=config.smoothing, zero_mode="lift")
    radius = config.radius

    def poly_norm_r(poly: PolyHamiltonian) -> float:
        return sum(
            scaled_norm(poly.parts[d], table, radius, **norm_kw) for d in poly.degrees
        )

    h0 = quadratic_hamiltonian(table)
    current = perturbation
    normal_parts: Dict[int, SymmetricForm] = {}
    generators: List[SymmetricForm] = []
    ledger: List[LedgerEntry] = []
    step_norms: List[float] = [poly_norm_r(current)]

    tau_max = max(taus.values())
    mu = (step_norms[0] / radius**2) * cutoff**tau_max
    if mu > config.mu_max:
        raise SmallnessError(
            f"smallness violated before step 0: mu = {mu:.3e} > {config.mu_max}; "
            "radius too large for this truncation"
        )

    max_residual = 0.0
    for step in range(config.r_bar):
        low = current.lowest_degree
        if low is None:
            break
        if low not in gammas:
            gammas[low], taus[low] = _constants_for(low, by_order)
        f_part = current.part(low)
        sol = solve_homological(
            f_part, table, bands, clusters, cutoff, gammas[low], taus[low],
            nu=config.nu, smoothing=config.smoothing,
        )
        max_residual = max(max_residual, sol.residual)
        generator = sol.generator
        generators.append(generator)
        gen_order = generator.degree - 2

        pieces: List[SymmetricForm] = []
        sources = [h0] + [normal_parts[d] for d in sorted(normal_parts)]
        sources += [current.part(d) for d in current.degrees]
        for src in sources:
            if not len(src):
                continue
            n = lie_terms_order(config.r_bar, src.degree - 2, gen_order)
            kept, dropped = lie_transform(
                generator, src, n, cap=cap, table=table, radius=radius,
                step=step, nu=config.nu, smoothing=config.smoothing,
            )
            pieces.extend(kept)
            ledger.extend(dropped)

        acc = poly_from_forms(pieces)
        new_normal: Dict[int, SymmetricForm] = {}
        new_p_parts: List[SymmetricForm] = []
        for degree in acc.degrees:
            if degree == 2:
                continue
            part = acc.parts[degree]
            if degree <= low:
                new_normal[degree] = part
            else:
                new_p_parts.append(part)
        check = add_forms(new_normal.get(low, zero_form(low)), scale_form(sol.normal, -1.0), tol=0.0)
        step_residual = float(np.abs(check.values).max(initial=0.0))
        if step_residual > 1e-10:
            raise RuntimeError(
                f"step {step}: accumulated degree-{low} part differs from the "
                f"homological solution by {step_residual:.3e}"
            )
        max_residual = max(max_residual, step_residual)

        normal_parts = new_normal
        current = poly_from_forms(new_p_parts)
        p_norm = poly_norm_r(current)
        step_norms.append(p_norm)
        prev = step_norms[-2]
        if prev > 1e-13 * step_norms[0] and p_norm > 2.0 * mu * prev * (1.0 + 1e-9):
            raise SmallnessError(
                f"smallness violated at step {step}: |P({step + 1})|_R = {p_norm:.3e} "
                f"> 2 mu |P({step})|_R with mu = {mu:.3e}"
            )
    if current.degrees:
        raise RuntimeError(f"iteration left unnormalized degrees {current.degrees}")

    buckets: Dict[str, List[SymmetricForm]] = {name: [] for name in BUCKETS}
    for _, part in sorted(normal_parts.items()):
        label = bucket_rows(part, table, bands, clusters, cutoff)
        if (label == NONRESONANT).any():
            key = tuple(part.entries[e] for e in part.codes[np.argmax(label == NONRESONANT)].tolist())
            raise RuntimeError(f"nonresonant key {key} survived in the normal part")
        for i, name in enumerate(BUCKETS):
            buckets[name].append(SymmetricForm(part.points, part.codes[label == i], part.values[label == i]))

    polys = {name: poly_from_forms(buckets[name]) for name in BUCKETS}

    commutation = check_superaction_commutation(
        polys["Z0"], polys["ZB"], polys["Z2"], table, bands, clusters, cutoff
    )

    rng = np.random.default_rng(seed)
    remainder_forms = (
        [polys["Z2"].parts[d] for d in polys["Z2"].degrees]
        + [polys["ZGE3"].parts[d] for d in polys["ZGE3"].degrees]
        + [e.form for e in ledger]
    )
    remainder_bound = 0.0
    lattice = table.lattice
    points = lattice.points
    decay = np.array([(1.0 + table.norm(p)) ** (-config.s) for p in points])
    for _ in range(remainder_samples):
        z = rng.standard_normal((len(points), 2)).view(complex)[:, 0] * decay
        raw = np.column_stack((z, z.conj())).ravel()
        u = raw * (radius / sobolev_norm(raw, points, lattice, config.s))
        total = np.zeros_like(u)
        for f in remainder_forms:
            total += vector_field(f, u, points)
        remainder_bound = max(remainder_bound, sobolev_norm(total, points, lattice, config.s))

    return NormalFormResult(
        config=config,
        cutoff=cutoff,
        gamma=gammas,
        tau=taus,
        z0=polys["Z0"],
        zb=polys["ZB"],
        z2=polys["Z2"],
        zge3=polys["ZGE3"],
        generators=tuple(generators),
        step_norms=tuple(step_norms),
        mu=mu,
        max_residual=max_residual,
        ledger=tuple(ledger),
        commutation=commutation,
        remainder_bound=remainder_bound,
    )


def transform_state(
    generators: Sequence[SymmetricForm],
    x: np.ndarray,
    points: Sequence[Point],
    *,
    inverse: bool = False,
    tol: float = 1e-10,
    lattice=None,
    s: Optional[float] = None,
    ball: Optional[float] = None,
    max_steps: int = 4096,
) -> np.ndarray:
    """Compose the time-1 generator flows (forward: last generator first).

    ``x`` is a both-signs state over the sorted ``points``, which hold every
    point of the generators; each entry runs on its own (a state need not
    be conjugation paired), and the result is a state over ``points``.  Each
    flow integrates ``dx/dt = X_G(x)`` with ``dynamics._rk4`` at a fixed
    step, doubling the step count from 8 until two resolutions agree within
    ``tol``; at ``max_steps`` without agreement it raises ``ValueError``.
    With ``ball``, a state whose Sobolev norm (``lattice``, ``s``, both
    required then) exceeds it after any step raises ``ValueError``.
    """
    if ball is not None and (lattice is None or s is None):
        raise ValueError("the ball guard needs lattice and s")
    seq = list(generators) if inverse else list(generators)[::-1]
    rank = {p: i for i, p in enumerate(points)}

    def check(y: np.ndarray) -> None:
        if ball is not None and sobolev_norm(y, points, lattice, s) > ball:
            raise ValueError("flow exited the configured ball: smallness breach")

    for gen in seq:
        g = scale_form(gen, -1.0) if inverse else gen
        if len(g):
            codes = g.relabel(g.codes, rank)
            x = _flow_time_one(
                lambda y: hamiltonian_field(codes, g.values, y), x,
                tol=tol, max_steps=max_steps, check=check,
            )
    return x


def _flow_time_one(rhs, start: np.ndarray, *, tol, max_steps, check) -> np.ndarray:
    """Time-1 flow of ``dx/dt = rhs(x)``; ``check`` sees the state after every step."""

    def run(n_steps: int) -> np.ndarray:
        x = start
        for _ in range(n_steps):
            x = _rk4(rhs, x, 1.0 / n_steps)
            check(x)
        return x

    n = 8
    prev = run(n)
    distance = math.inf
    while n < max_steps:
        n *= 2
        cur = run(n)
        distance = float(np.linalg.norm(cur - prev))
        if distance <= tol:
            return cur
        prev = cur
    raise ValueError(
        f"time-1 flow did not converge within max_steps={max_steps}: "
        f"the last two resolutions differ by {distance:.3e} > tol={tol:g}"
    )


def normalform_manifest(result: NormalFormResult) -> dict:
    """JSON-ready summary: config echo, norms, bucket sizes, residuals."""
    return {
        "config": {**asdict(result.config), "cutoff": result.cutoff},
        "gamma": {str(k): v for k, v in sorted(result.gamma.items())},
        "tau": {str(k): v for k, v in sorted(result.tau.items())},
        "mu": result.mu,
        "step_norms": list(result.step_norms),
        "max_residual": result.max_residual,
        "bucket_terms": {
            name: result.bucket(name).n_terms() for name in BUCKETS
        },
        "commutation": asdict(result.commutation),
        "ledger": [
            {
                "step": e.step,
                "source_degree": e.source_degree,
                "lie_index": e.lie_index,
                "degree": e.degree,
                "norm_r": e.norm_r,
            }
            for e in result.ledger
        ],
        "ledger_bound": result.ledger_bound,
        "remainder_bound": result.remainder_bound,
        "n_generators": len(result.generators),
    }
