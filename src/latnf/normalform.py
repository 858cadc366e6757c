"""Resonant normal form engine: homological equation, Lie transforms, iteration.

The iteration removes, degree by degree, every monomial whose divisor is
controlled by the block-nonresonance test, conjugating the Hamiltonian with
time-1 flows of polynomial generators.  The degree cap ``2r + 2`` sets the
length of each Lie series, and the terms above it are dropped;
``normalize`` measures them into the remainder ledger.  Each
homological solve labels the rows of its degree once, and the normalized
part it leaves is classified there into four buckets:

    Z0    no high modes, paired within bands
    ZB    exactly two high modes, one cluster block, opposite signs
    Z2    exactly two high modes, distinct blocks, separated supports
    ZGE3  three or more high modes

which together are exactly the complement of the nonresonant set.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .bands import BandPartition
from .clusters import ClusterPartition, block_labels
from .dynamics import _rk4
from .forms import (
    PolyHamiltonian,
    SymmetricForm,
    add_forms,
    check_points,
    localized_norm,
    poisson_bracket,
    poisson_brackets,
    poly_from_forms,
    quadratic_hamiltonian,
    scale_form,
    scaled_norm,
    sobolev_norm,
    sobolev_weights,
    vector_field,
)
from .frequencies import SpectrumTable, point_floors
from .lattice import integer_array, point_norms
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
        for name in ("s", "nu", "smoothing", "mu_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def degree_cap(self) -> int:
        return 2 * self.r + 2


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
    check_points(form, table.lattice)
    codes = form.codes
    high = (point_floors(table) > cutoff)[codes >> 1]
    n_high = high.sum(axis=1)
    out = np.full(len(codes), NONRESONANT)
    out[n_high >= 3] = BUCKETS.index("ZGE3")
    out[(n_high == 0) & _resonant(_signed_bands(table, bands), codes)] = BUCKETS.index("Z0")
    two = np.flatnonzero(n_high == 2)
    pair = codes[two[:, None], np.nonzero(high[two])[1].reshape(-1, 2)]
    block = block_labels(table, clusters)
    same = block[pair[:, 0] >> 1] == block[pair[:, 1] >> 1]
    opposite = ((pair[:, 0] ^ pair[:, 1]) & 1) == 1
    out[two[same & opposite]] = BUCKETS.index("ZB")
    xy = integer_array(table.lattice)
    gap = xy[pair[:, 0] >> 1] - xy[pair[:, 1] >> 1]
    far = np.sqrt((gap * gap).sum(axis=1)) > clusters.c_delta * cutoff**clusters.delta
    out[two[~same & far]] = BUCKETS.index("Z2")
    return out


@dataclass(frozen=True)
class HomologicalSolution:
    generator: SymmetricForm
    normal: SymmetricForm
    buckets: Tuple[SymmetricForm, ...]
    h0_bracket: SymmetricForm
    residual: float


def solve_homological(
    form: SymmetricForm,
    table: SpectrumTable,
    bands: BandPartition,
    clusters: ClusterPartition,
    cutoff: float,
    gamma: float,
    tau: float,
    *,
    nu: float,
    smoothing: float,
) -> HomologicalSolution:
    """Split F into a generator killing nonresonant terms and a normal part.

    ``bucket_rows`` labels every row of F once.  Nonresonant keys get ``G =
    i F / divisor`` and ``Z = 0``; all other keys pass through to Z
    untouched, and Z comes also split by bucket, in ``BUCKETS`` order and in
    F's row order.  h0's Lie source ``{h0, G} = Z - F`` comes as ``-F`` on
    G's rows.  Divisors on nonresonant keys are guarded
    against the certified floor ``gamma / max(1, max_j |a_j|)**tau``; a
    smaller divisor means the certificate does not cover this truncation.
    The residual of ``{H0, G} + F - Z`` and the bounds ``|G| <= K**tau /
    gamma |F|`` and ``|Z| <= |F|`` in the localized norm are checked on
    every solve; a breach raises ``RuntimeError``.

    Z copies F off G's rows, so the residual lives on G's rows.  On a row r
    of degree ``n``, with ``W = sum_j |omega_j|`` and ``u = eps / 2``, its
    rounding is at most, to first order: ``(n - 1) u W |G|`` from the
    divisor's ``n - 1`` additions; ``u W |G|`` from the division;
    ``sqrt(2) (n + 1) u W |G|`` from the bracket (per entry a product by the
    run length and one by omega, then ``n - 1`` additions in all, the
    mirror's included, per component); ``2 u |F|`` from the sum with F.
    The bracket reads the plus entries' terms of r off the conjugate row
    ``r_bar``, as ``conj G(r_bar)``; that is ``G(r)`` exactly, since a real
    F and a divisor with ``delta(r_bar) = -delta(r)`` to the bit give a real
    generator.  The total is below the bound checked, ``2 n eps (|F| + |G|
    W)``, which scales with the coupling as F and G do.
    """
    validate_cutoff(table, bands, cutoff)
    label = bucket_rows(form, table, bands, clusters, cutoff)
    solve = label == NONRESONANT
    codes, c = form.codes[solve], form.values[solve]
    # the signed frequency sum, added left to right from 0 as
    # tests/oracles.py::conjugate_divisor does: each point's + and - entries
    # cancel one for one first (a cancelled entry adds 0), so that r_bar
    # adds the negated terms of r in the same order and the generator is
    # exactly real
    omega = _signed_omegas(table)
    rank, minus = codes >> 1, codes & 1
    delta = np.zeros(len(codes), dtype=omega.dtype)
    for j, col in enumerate(codes.T):
        same = rank == (col >> 1)[:, None]
        own = same & (minus == (col & 1)[:, None])
        keep = own[:, :j].sum(axis=1) >= (same & ~own).sum(axis=1)
        delta = delta + np.where(keep, omega[col], 0)
    del rank, minus
    base = np.maximum(point_norms(table.lattice), 1.0)[codes >> 1].max(axis=1, initial=1.0)
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
    buckets = tuple(SymmetricForm(form.points, form.codes[label == i], form.values[label == i]) for i in range(len(BUCKETS)))

    # F's nonresonant rows first, every row kept: the sums line up with G's
    h0 = quadratic_hamiltonian(table)
    lhs = add_forms(SymmetricForm(form.points, codes, c), poisson_bracket(h0, generator, tol=0.0), tol=-math.inf)
    res = np.abs(lhs.values)
    weight = np.abs(omega)[codes].sum(axis=1)
    bound = 2 * form.degree * np.finfo(float).eps * (np.abs(c) + np.abs(g) * weight)
    residual = float(res.max(initial=0.0))
    if len(lhs) != len(g) or not (res <= bound).all():
        raise RuntimeError(f"homological residual {residual:.3e} exceeds its rounding bound")
    kw = dict(nu=nu, smoothing=smoothing, zero_mode="lift")
    f_norm, g_norm, z_norm = (localized_norm(x, table, **kw) for x in (form, generator, normal))
    k_scan = max(1.0, float(table.lattice.radius))
    if g_norm > (k_scan**tau / gamma) * f_norm * (1.0 + 1e-12):
        raise RuntimeError("generator norm bound violated")
    if z_norm > f_norm * (1.0 + 1e-12):
        raise RuntimeError("normal part norm bound violated")
    h0_bracket = SymmetricForm(form.points, codes, -c)
    return HomologicalSolution(generator=generator, normal=normal, buckets=buckets, h0_bracket=h0_bracket, residual=residual)


@dataclass(frozen=True)
class LedgerEntry:
    """A term dropped by the degree cap, with its measured scaled norm."""

    step: int
    source_degree: int
    lie_index: int
    degree: int
    norm_r: float
    form: SymmetricForm


def lie_transform(
    generator: SymmetricForm,
    parts: Sequence[SymmetricForm],
    firsts: Sequence[int],
    *,
    cap: int,
) -> Tuple[List[SymmetricForm], List[Tuple[int, int, SymmetricForm]]]:
    """Adjoint series ``sum_{m<=k<=n} Ad_G^k P / k!`` of every part, split at the degree cap.

    ``parts[i]`` is the term ``Ad_G^m P`` of a source ``P``, ``firsts[i]`` its
    ``m``; the source has degree ``d0 = parts[i].degree - m g`` with ``g =
    G.degree - 2 >= 1``.  The cap sets the series length ``n = max(1,
    ceil((cap + 3 - d0) / g))``.  The series are built in one walk by
    degree: at each degree, the current terms ``Ad_G^k P`` of every part
    there (each at its own Lie index ``k``) are bracketed with G in one
    ``poisson_brackets`` pass.  A part's series stops at its ``n`` or at its
    first empty bracket.  Each term ``Ad_G^k P / k!`` of degree at most
    ``cap`` is kept; a higher one is dropped as ``(d0, k, term)``, for
    ``normalize`` to measure into its ledger.  Kept and dropped terms come
    in part order, then Lie index.
    """
    gen_order = generator.degree - 2
    if gen_order < 1:
        raise ValueError(f"generator must have degree >= 3, got {generator.degree}")
    sources = [part.degree - m * gen_order for part, m in zip(parts, firsts)]
    orders = [max(1, math.ceil((cap + 3 - d0) / gen_order)) for d0 in sources]
    kept: List[List[SymmetricForm]] = [[] for _ in parts]
    dropped: List[List[Tuple[int, int, SymmetricForm]]] = [[] for _ in parts]
    current = list(parts)
    index = list(firsts)
    factorial = [float(math.factorial(m)) for m in firsts]

    def emit(i: int, k: int) -> None:
        term = scale_form(current[i], 1.0 / factorial[i])
        if term.degree <= cap:
            kept[i].append(term)
        else:
            dropped[i].append((sources[i], k, term))

    for i in range(len(parts)):
        emit(i, index[i])
    live = [i for i, n in enumerate(orders) if index[i] < n]
    while live:
        degree = min(current[i].degree for i in live)
        batch = [i for i in live if current[i].degree == degree]
        for i, term in zip(batch, poisson_brackets([current[i] for i in batch], generator)):
            current[i] = term
            index[i] += 1
            factorial[i] *= index[i]
            if len(term):
                emit(i, index[i])
        live = [i for i in live if len(current[i]) and index[i] < orders[i]]
    return [t for terms in kept for t in terms], [d for terms in dropped for d in terms]


@dataclass(frozen=True)
class CommutationReport:
    max_band_residual: float
    max_block_residual: float
    z2_bracket_norm: float


def check_superaction_commutation(
    buckets: Mapping[str, PolyHamiltonian],
    table: SpectrumTable,
    bands: BandPartition,
    clusters: ClusterPartition,
    cutoff: float,
) -> CommutationReport:
    """Largest bracket coefficient of the normal part with every superaction.

    ``buckets`` maps the names Z0, ZB and Z2 to their parts.  A superaction
    ``J_S = sum_{a in S} u_{a,+} u_{a,-}`` is diagonal, so it brackets each
    monomial into itself: in the convention of ``forms.poisson_bracket``,
    ``{c u^M, J_S} = -i (sum_{j: a_j in S} sigma_j) c u^M`` with ``sigma_j``
    the sign of entry ``j``.  A row commutes with ``J_S`` exactly when its
    signed entries in S cancel, and its bracket coefficient has modulus
    ``|c| |count|``.  S is a band for Z0, and the high modes (floor norm
    > cutoff) of one cluster block for ZB and Z2.  Each field is the
    largest ``|c| |count|`` over the rows of every degree of its bucket and
    over every S.  Z0 and ZB must give 0; the Z2 value is reported, not
    asserted.
    """
    high_block = np.where(point_floors(table) > cutoff, block_labels(table, clusters), -1)
    # a plus entry's signed band is its band + 1
    band = _signed_bands(table, bands)[0::2] - 1

    def largest(poly: PolyHamiltonian, label: np.ndarray) -> float:
        out = 0.0
        for d in poly.degrees:
            form = poly.parts[d]
            sets = label[form.codes >> 1]
            sign = np.where(sets >= 0, 1 - 2 * (form.codes & 1), 0)
            # the signed count of the set of each entry, largest in modulus per row
            count = np.zeros(len(form), dtype=np.int64)
            for col in sets.T:
                count = np.maximum(count, np.abs((sign * (sets == col[:, None])).sum(axis=1)))
            out = max(out, float((np.abs(form.values) * count).max(initial=0.0)))
        return out

    return CommutationReport(
        max_band_residual=largest(buckets["Z0"], band),
        max_block_residual=largest(buckets["ZB"], high_block),
        z2_bracket_norm=largest(buckets["Z2"], high_block),
    )


@dataclass(frozen=True, eq=False)
class NormalFormResult:
    config: NormalFormConfig
    cutoff: float
    gamma: Dict[int, float]
    tau: Dict[int, float]
    #: the normal part by bucket name, in ``BUCKETS`` order
    buckets: Dict[str, PolyHamiltonian]
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
        return self.buckets[name]


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
    non-normalized part F and conjugates every current term by the
    generator's time-1 flow (adjoint series, degree-capped).  The sources
    of a step, ``h0``, then the normal parts and the current parts by
    degree, go through one ``lie_transform`` walk by degree, which brackets
    the same-degree terms of all sources with the generator in one pass, each
    series as long as the cap sets.  The terms it drops become ledger entries
    in source order, then Lie index, each measured here with the scaled norm
    of the step norms.  The solution gives ``{h0, G} = Z - F``, so h0's
    series enters at Lie index 1 there and h0 itself is never bracketed.
    The flow takes F to ``F + {h0, G}``, so the normal part of F's degree is
    Z itself, and its bucket split is the solution's too; the kept pieces
    above F's degree are summed, in source order, then Lie index, into the
    next current part.  Steps run
    until no degree is left: each raises the lowest degree, and the cap
    bounds them.  Per-step norms must contract: ``mu =
    (|P|_R / R^2) K^tau`` is required below ``mu_max`` and each step below
    ``2 mu`` times the previous.
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
    lattice = table.lattice
    # the remainder probe's weights, refused before any step
    sobolev_weights(lattice, config.s)

    def poly_norm_r(poly: PolyHamiltonian) -> float:
        return sum(
            scaled_norm(poly.parts[d], table, radius, **norm_kw) for d in poly.degrees
        )

    current = perturbation
    normal_parts: List[SymmetricForm] = []
    buckets: Dict[str, List[SymmetricForm]] = {name: [] for name in BUCKETS}
    generators: List[SymmetricForm] = []
    ledger: List[LedgerEntry] = []
    step_norms: List[float] = [poly_norm_r(current)]

    tau_max = max(taus.values())
    try:
        mu = (step_norms[0] / radius**2) * cutoff**tau_max
    except OverflowError:
        raise ValueError(f"cutoff**tau overflows at cutoff={cutoff}, tau={tau_max}") from None
    if not mu <= config.mu_max:
        raise SmallnessError(
            f"smallness violated before step 0: mu = {mu:.3e} > {config.mu_max}; "
            "radius too large for this truncation"
        )

    max_residual = 0.0
    while (low := current.lowest_degree) is not None:
        step = len(generators)
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

        # h0's series from Lie index 1, at {h0, G}
        sources = [(sol.h0_bracket, 1)]
        sources += [(z, 0) for z in normal_parts]
        sources += [(current.part(d), 0) for d in current.degrees]
        parts, firsts = zip(*[(src, first) for src, first in sources if len(src)])
        pieces, dropped = lie_transform(generator, parts, firsts, cap=cap)
        ledger.extend(
            LedgerEntry(step, d0, k, form.degree, scaled_norm(form, table, radius, **norm_kw), form)
            for d0, k, form in dropped
        )

        normal_parts.append(sol.normal)
        for name, part in zip(BUCKETS, sol.buckets):
            buckets[name].append(part)
        current = poly_from_forms(p for p in pieces if p.degree > low)
        p_norm = poly_norm_r(current)
        step_norms.append(p_norm)
        prev = step_norms[-2]
        if prev > 1e-13 * step_norms[0] and not p_norm <= 2.0 * mu * prev * (1.0 + 1e-9):
            raise SmallnessError(
                f"smallness violated at step {step}: |P({step + 1})|_R = {p_norm:.3e} "
                f"> 2 mu |P({step})|_R with mu = {mu:.3e}"
            )
    polys = {name: poly_from_forms(buckets[name]) for name in BUCKETS}
    commutation = check_superaction_commutation(polys, table, bands, clusters, cutoff)

    rng = np.random.default_rng(seed)
    remainder_forms = [
        polys[name].parts[d] for name in ("Z2", "ZGE3") for d in polys[name].degrees
    ] + [e.form for e in ledger]
    remainder_bound = 0.0
    decay = np.array([(1.0 + n) ** (-config.s) for n in point_norms(lattice).tolist()])
    for _ in range(remainder_samples):
        z = rng.standard_normal((lattice.npoints, 2)).view(complex)[:, 0] * decay
        raw = np.column_stack((z, z.conj())).ravel()
        u = raw * (radius / sobolev_norm(raw, lattice, config.s))
        total = np.zeros_like(u)
        for f in remainder_forms:
            total += vector_field(f, u)
        remainder_bound = max(remainder_bound, sobolev_norm(total, lattice, config.s))

    return NormalFormResult(
        config=config,
        cutoff=cutoff,
        gamma=gammas,
        tau=taus,
        buckets=polys,
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
    *,
    inverse: bool = False,
    tol: float = 1e-10,
    lattice=None,
    s: Optional[float] = None,
    ball: Optional[float] = None,
    max_steps: int = 4096,
) -> np.ndarray:
    """Compose the time-1 generator flows (forward: last generator first).

    ``x`` is a both-signs state over the lattice's points, which the
    generators' codes index; each entry runs on its own (a state need not
    be conjugation paired), and the result is a state over them.  Each
    flow integrates ``dx/dt = X_G(x)`` with ``dynamics._rk4`` at a fixed
    step, doubling the step count from 8 until two resolutions agree within
    ``tol``; at ``max_steps`` without agreement it raises ``ValueError``.
    With ``ball``, a state whose Sobolev norm (``lattice``, ``s``, both
    required then) exceeds it after any step raises ``ValueError``.
    """
    if ball is not None and (lattice is None or s is None):
        raise ValueError("the ball guard needs lattice and s")
    seq = list(generators) if inverse else list(generators)[::-1]

    def check(y: np.ndarray) -> None:
        if ball is not None and sobolev_norm(y, lattice, s) > ball:
            raise ValueError("flow exited the configured ball: smallness breach")

    for gen in seq:
        g = scale_form(gen, -1.0) if inverse else gen
        if len(g):
            x = _flow_time_one(
                lambda y: vector_field(g, y), x,
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
