"""Perturbation engine: resolvent identity, resonances, regular directions.

For a perturbation V = F* A F acting through the rigging, the second
resolvent identity collapses to k-by-k algebra:

    T_z(H + F* A F) = [1 + T_z(H) A]^-1 T_z(H).

Everything in this module is built on that identity.  The uncoupled
boundary data at lam is fixed once: the exact T_{lam+i0} when the base
model has a closed form, otherwise the y-samples of T_{lam+iy}.  Every
coupling is applied to that data through the identity, to the exact value
or, evaluated as one stack over the grid, to the samples before
extrapolation (:func:`boundary_limit`); the kernel is never evaluated again
for another coupling.  A coupling r is a *resonance* (relative to a
convergent anchor r0) exactly when 1 + (r - r0) T J is singular, which
happens at r = r0 - 1/mu for the real nonzero eigenvalues mu of T J.

Multiple eigenvalues of T J split like the square root of the data error
under rounding, so eigenvalues are grouped into clusters.  A cluster with
a real mean (= block trace / size, accurate to first order) is one
resonance of multiplicity equal to its size; otherwise each real member
counts once.  Every candidate must push sigma_min of the criterion operator
below ``sigma_dip`` before it is reported.

The cross-check counts the zeros of f(r) = det(1 + (r - r0) T J) in a box
about the coupling window by the argument principle (Kravanja & Van Barel,
*Computing the Zeros of Analytic Functions*, LNM 1727, 2000; Ying & Katz,
Numer. Math. 53, 1988).  The eigenvalue route's roots near the box are
divided out of f first, so the phase is smooth where they are right and is
tracked from 16 nodes per edge, one ``slogdet`` each.  The predicted count
plus the winding number is still the count of zeros of f; the routes agree
when the winding is 0, and every root the route did not report is tested on
sigma_min, so a dropped resonance is named.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .config import DEFAULT_ANCHORS, DEFAULT_TOLERANCES, DEFAULT_WINDOW
from .errors import AtResonance, EndpointOnSpectrum, GridEvaluationError, LapLabError
from .lap import (
    DEFAULT_GRID,
    BoundaryLimit,
    Converged,
    Diverged,
    YGrid,
    _grid_error,
    extrapolate_limit,
)
from .models import (
    FiniteHermitian,
    FiniteRigging,
    OperatorModel,
    Rigging,
    _resolvent_stack,
    boundary_exact,
    channel_count,
)


@dataclass(frozen=True, eq=False)
class Direction:
    """A Hermitian k-by-k matrix J defining the perturbation V = F* J F."""

    j: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "j", matkit.require_hermitian(self.j))

    @property
    def k(self) -> int:
        return self.j.shape[0]

    @classmethod
    def identity(cls, k: int) -> "Direction":
        return cls(np.eye(k))

    @classmethod
    def zero(cls, k: int) -> "Direction":
        return cls(np.zeros((k, k)))


@dataclass(frozen=True)
class Resonance:
    coupling: float
    multiplicity: int


@dataclass(frozen=True)
class ResonanceReport:
    """Resonance couplings of a direction relative to a convergent anchor.

    ``missed``, ``root_count`` and ``scan_agrees`` come from the contour
    cross-check of :func:`resonance_couplings` and are None without it.
    """

    anchor: float
    resonances: tuple[Resonance, ...]
    window: tuple[float, float]
    imag_tolerance: float
    missed: tuple[float, ...] | None = None
    root_count: int | None = None
    scan_agrees: bool | None = None


@dataclass(frozen=True)
class AnchorAttempt:
    anchor: float
    outcome: str  # "diverged" | "inconclusive" | "at_resonance" | "error"
    detail: float | None


@dataclass(frozen=True, eq=False)
class Regular:
    """Evidence that the direction is regular: a converged anchor limit."""

    witness_coupling: float
    limit: np.ndarray
    error_estimate: float
    method: str
    resonances: ResonanceReport


@dataclass(frozen=True)
class NotObserved:
    """No anchor produced a convergent limit; not a proof of non-regularity."""

    attempts: tuple[AnchorAttempt, ...]


RegularityVerdict = Regular | NotObserved


@dataclass(frozen=True, eq=False)
class ExistenceCertificate:
    """Outcome of the boundary invertibility criterion at one coupling."""

    exists: bool
    sigma_min: float
    null_vector: np.ndarray | None = None
    residual: float | None = None

    def __bool__(self) -> bool:
        return self.exists


def perturbed_resolvent(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Apply the resolvent identity: T -> [1 + T A]^-1 T.

    ``t`` may be a (..., k, k) stack.  ``AtResonance`` is raised when 1 + T A
    is numerically singular, for the first such T with its stack position
    in ``index``; that is a mathematical statement about the coupling, not
    a numerical fault.
    """
    t = matkit._as_square_stack(t)
    a = matkit.require_hermitian(a)
    if a.shape != t.shape[-2:]:
        raise ValueError(f"shapes differ: T {t.shape} vs A {a.shape}")
    m = t @ a  # T A, then 1 + T A in place
    bound = DEFAULT_TOLERANCES.invertibility_rtol * (1.0 + np.linalg.norm(m, 2, axis=(-2, -1)))
    m += np.eye(a.shape[0])
    sigma = np.linalg.svd(m, compute_uv=False)[..., -1]
    bad = np.flatnonzero(sigma <= bound)
    if bad.size:
        raise AtResonance(float(sigma.flat[bad[0]])).at(bad[0])
    return np.linalg.solve(m, t)


def exists_at_coupling(t_limit: np.ndarray, delta_a: np.ndarray) -> ExistenceCertificate:
    """Does the boundary value survive the additional perturbation delta_a?

    True (with a sigma_min certificate) when 1 + T delta_a is invertible;
    false with a Fredholm null-vector certificate otherwise.
    """
    t_limit = matkit.as_square(t_limit)
    delta_a = matkit.require_hermitian(delta_a)
    m = t_limit @ delta_a
    op = np.eye(m.shape[0]) + m
    threshold = DEFAULT_TOLERANCES.criterion_rtol * (1.0 + matkit.operator_norm(m))
    sigma, _, v = matkit.smallest_singular_triplet(op)
    if sigma > threshold:
        return ExistenceCertificate(exists=True, sigma_min=sigma)
    residual = float(np.linalg.norm(op @ v))
    return ExistenceCertificate(exists=False, sigma_min=sigma, null_vector=v, residual=residual)


def _cluster_eigenvalues(
    mu: np.ndarray,
    radius_of: np.ndarray,
) -> list[np.ndarray]:
    """Group eigenvalues into connected clusters; return each cluster's members."""
    n = len(mu)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero(np.abs(mu[:, None] - mu) <= np.maximum.outer(radius_of, radius_of))
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i < j:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [mu[members] for members in groups.values()]


def _criterion_sigma(tj: np.ndarray, rho: float) -> float:
    return matkit.smallest_singular(np.eye(tj.shape[0]) + rho * tj)


def _golden_section(f, a: float, b: float, slope: float, level: float, xatol: float = 1e-12) -> float | None:
    """A minimiser of f on [a, b], to within xatol when f is unimodal; None
    once the ``slope``-Lipschitz f stays above ``level`` on the bracket."""
    g = (5.0**0.5 - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(int(np.ceil(np.log((b - a) / xatol) / -np.log(g)))):
        if min(fc, fd) - slope * (b - a) > level:
            return None
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


#: Nodes per edge of the counting box before any halving.
_EDGE_NODES = 16
#: Halving levels after which an unresolved segment makes the count inconclusive.
_MAX_HALVINGS = 40


def _arg_change(sign_at, nodes: np.ndarray) -> float | None:
    """Change of a continuous argument of f along the path through ``nodes``.

    ``sign_at`` maps an array of path points to f/|f|, and to 0 where f
    vanishes; ``nodes`` has odd length and is evaluated first, so each
    segment from ``nodes[2i]`` to ``nodes[2i+2]`` starts with its midpoint
    known.  A segment is accepted when its phase step and the steps of both
    its halves are at most pi/4, so that the halves sum to its own step: a
    phase that turns by a further 2 pi inside the segment shows in its
    halves.  Otherwise the halves are new segments.  All midpoints of one
    halving level go to ``sign_at`` in one call.  None when f vanishes at a
    node or a segment is still unresolved after ``_MAX_HALVINGS`` levels.
    """
    signs = sign_at(nodes)
    if not signs.all():
        return None
    a, m, b = nodes[:-1:2], nodes[1::2], nodes[2::2]
    sa, sm, sb = signs[:-1:2], signs[1::2], signs[2::2]
    total = 0.0
    for _ in range(_MAX_HALVINGS):
        step = np.angle(sb * sa.conj())
        halves = np.maximum(np.abs(np.angle(sm * sa.conj())), np.abs(np.angle(sb * sm.conj())))
        ok = np.maximum(np.abs(step), halves) <= np.pi / 4
        total += float(step[ok].sum())
        split = ~ok
        if not split.any():
            return total
        a, b = np.concatenate((a[split], m[split])), np.concatenate((m[split], b[split]))
        sa, sb = np.concatenate((sa[split], sm[split])), np.concatenate((sm[split], sb[split]))
        m = 0.5 * (a + b)
        sm = sign_at(m)
        if not sm.all():
            return None
    return None


def _contour_count(
    tj: np.ndarray, anchor: float, box: tuple[float, float, float], near: np.ndarray, predicted: int
) -> int | None:
    """Zeros of f(r) = det(1 + (r - anchor) T J) inside the box, by the argument principle.

    ``box = (left, right, h)`` is the rectangle [left, right] x [-h, h] of
    the complex r-plane, run counterclockwise.  The factors 1 + (r - anchor)
    mu of ``near``, the nonzero eigenvalues of T J whose roots lie in the box
    or within h of it, are divided out first; the winding number of the
    quotient, smooth where they are right and tracked from 16 nodes per
    edge, plus their ``predicted`` count in the box is the true count.  None
    when it is inconclusive: f or a divided factor zero at a node, an
    unresolved segment, or a winding number that is not near an integer.
    """
    left, right, h = box
    corners = np.array([left - 1j * h, right - 1j * h, right + 1j * h, left + 1j * h, left - 1j * h])
    s = np.arange(_EDGE_NODES) / _EDGE_NODES
    nodes = np.concatenate([c + s * (d - c) for c, d in zip(corners[:-1], corners[1:])] + [corners[-1:]])
    k = tj.shape[0]

    def sign_at(r: np.ndarray) -> np.ndarray:
        stack = np.multiply.outer(r - anchor, tj)
        stack.reshape(len(r), k * k)[:, :: k + 1] += 1.0
        f = 1.0 + np.multiply.outer(r - anchor, near)
        phases = np.divide(f, np.abs(f), out=np.zeros_like(f), where=f != 0)
        return np.linalg.slogdet(stack)[0] * phases.prod(axis=1).conj()

    change = _arg_change(sign_at, nodes)
    if change is None:
        return None
    n = change / (2.0 * np.pi)
    return predicted + int(round(n)) if abs(n - round(n)) <= 1e-6 else None


def _missed_couplings(
    tj: np.ndarray,
    norm_tj: float,
    anchor: float,
    window: tuple[float, float],
    roots: np.ndarray,
    found: list[Resonance],
) -> tuple[float, ...]:
    """Couplings in the window where sigma_min dips but no resonance was reported.

    Each root with its real part in the window and not within
    1e-5 (1 + |r|) of a reported coupling r is refined by golden section of
    sigma_min(1 + (x - anchor) T J) over Re root +- max(|Im root|,
    1e-5 (1 + |Re root|)), clipped to the window.  The minimiser x is a miss
    when sigma_min(x) is below ``sigma_dip`` and below both ends of that
    interval (not a point on the slope of a reported dip), and x is not
    itself within 1e-5 (1 + |r|) of a reported or an earlier missed r.  The
    search ends early once sigma_min, ``norm_tj``-Lipschitz in x, cannot dip.
    """
    lo, hi = window
    sigma_dip = DEFAULT_TOLERANCES.sigma_dip

    def sigma(x: float) -> float:
        return _criterion_sigma(tj, x - anchor)

    def near(x: complex, named) -> bool:
        return any(abs(x - r) <= 1e-5 * (1.0 + abs(r)) for r in named)

    reported = [res.coupling for res in found]
    missed: list[float] = []
    for rho in roots:
        if not lo <= rho.real <= hi or near(rho, reported):
            continue
        w = max(abs(rho.imag), 1e-5 * (1.0 + abs(rho.real)))
        a, b = max(rho.real - w, lo), min(rho.real + w, hi)
        x = _golden_section(sigma, a, b, norm_tj, sigma_dip)
        if x is None:
            continue
        s = sigma(x)
        if s < sigma_dip and s < min(sigma(a), sigma(b)) and not near(x, reported + missed):
            missed.append(x)
    return tuple(sorted(missed))


def _eigenvalue_route(
    tj: np.ndarray,
    norm_tj: float,
    mu: np.ndarray,
    anchor: float,
    window: tuple[float, float],
    limit_error: float,
) -> list[Resonance]:
    """Resonances r = anchor - 1/mu in the window, by the clustering rule above."""
    lo, hi = window
    floor = 10.0 * np.sqrt(max(limit_error, 0.0))
    radius = np.maximum(DEFAULT_TOLERANCES.resonance_cluster_rtol * (1.0 + np.abs(mu)), floor)
    zero_tol = 1e-12 * (1.0 + norm_tj)
    imag_rtol = DEFAULT_TOLERANCES.resonance_imag_rtol
    sigma_dip = DEFAULT_TOLERANCES.sigma_dip

    def is_real(m: complex) -> bool:
        return abs(m.imag) <= imag_rtol * (1.0 + abs(m))

    candidates: list[tuple[complex, int]] = []
    for members in _cluster_eigenvalues(mu, radius):
        mean = members.mean()
        if is_real(mean):
            candidates.append((mean, len(members)))
        else:
            candidates.extend((m, 1) for m in members if is_real(m))
    found: list[Resonance] = []
    for m, multiplicity in candidates:
        if abs(m) <= zero_tol:
            continue
        r = anchor - (1.0 / m).real
        if lo <= r <= hi and _criterion_sigma(tj, r - anchor) < sigma_dip:
            found.append(Resonance(coupling=float(r), multiplicity=multiplicity))
    found.sort(key=lambda res: res.coupling)
    return found


def resonance_couplings(
    t_limit: np.ndarray,
    direction: Direction,
    window: tuple[float, float] = DEFAULT_WINDOW,
    anchor: float = 0.0,
    *,
    limit_error: float = 0.0,
    cross_check: bool = True,
) -> ResonanceReport:
    """Enumerate resonance couplings of ``direction`` relative to ``anchor``.

    ``t_limit`` is the converged boundary value at the anchor coupling and
    ``limit_error`` its error estimate (used to widen the eigenvalue
    clustering radius, since an entry error eps splits a multiple
    eigenvalue by about sqrt(eps)).  An empty report is a valid outcome.

    With ``cross_check``, the zeros of det(1 + (r - anchor) T J) are
    counted by the argument principle around the box [lo - h, hi + h] x
    [-h, h] with h = 1e-2 (hi - lo), which keeps a resonance at a window
    end off the contour, after the predicted roots are divided out (16
    nodes per edge, see :func:`_contour_count`).  ``root_count`` is that
    count (None when it is inconclusive); it must equal the number of
    nonzero eigenvalues mu of T J, with multiplicity, whose root
    anchor - 1/mu lies in the box.
    Every such root with its real part in the window that was not reported
    is refined on sigma_min, and the couplings where sigma_min dips below
    ``sigma_dip`` are ``missed``.  ``scan_agrees`` is true when the count
    is conclusive and equal, and nothing was missed.
    """
    t_limit = matkit.as_square(t_limit)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be a nonempty interval")
    tj = t_limit @ direction.j
    norm_tj = matkit.operator_norm(tj)
    mu = matkit.eig_general(tj)
    found = _eigenvalue_route(tj, norm_tj, mu, anchor, (lo, hi), limit_error)

    count = missed = agrees = None
    if cross_check:
        h = 1e-2 * (hi - lo)
        left, right = lo - h, hi + h
        mu = mu[mu != 0]
        roots = anchor - 1.0 / mu
        # how far each root lies outside the box: at most 0 inside, h near it
        out = np.maximum.reduce([left - roots.real, roots.real - right, np.abs(roots.imag) - h])
        count = _contour_count(tj, anchor, (left, right, h), mu[out <= h], int((out <= 0).sum()))
        roots = roots[out <= 0]
        missed = _missed_couplings(tj, norm_tj, anchor, (lo, hi), roots, found)
        agrees = count == len(roots) and not missed
    return ResonanceReport(
        anchor=float(anchor),
        resonances=tuple(found),
        window=(lo, hi),
        imag_tolerance=DEFAULT_TOLERANCES.resonance_imag_rtol,
        missed=missed,
        root_count=count,
        scan_agrees=agrees,
    )


Samples = list[tuple[float, np.ndarray]]
#: The uncoupled boundary data at lam: the exact T_{lam+i0}, or the y-samples.
BoundaryData = np.ndarray | Samples


def _samples(model: OperatorModel, rigging: Rigging, lam: float, grid: YGrid) -> Samples:
    """Uncoupled T_{lam+iy} on the y-grid, largest y first, evaluated as one stack over the grid.

    A failed sample raises :class:`GridEvaluationError` at the first failing y.
    """
    ys = grid.points()
    try:
        stack = _resolvent_stack(model, rigging, lam + 1j * np.array(ys))
    except LapLabError as exc:
        raise _grid_error(ys[exc.index], exc) from exc
    return list(zip(ys, stack))


def _boundary_data(model: OperatorModel, rigging: Rigging, lam: float, grid: YGrid) -> BoundaryData:
    """The exact T_{lam+i0} when :func:`boundary_exact` has it, else the y-samples."""
    exact = boundary_exact(model, rigging, lam)
    return exact if exact is not None else _samples(model, rigging, lam, grid)


def _uncoupled(t: np.ndarray, a: np.ndarray | None) -> bool:
    """No coupling: ``a`` is None, or has the shape of T and no nonzero entry."""
    return a is None or (np.shape(a) == t.shape and not np.any(a))


def _coupled(samples: Samples, a: np.ndarray | None) -> Samples:
    """Each sample of T(H) taken to T(H + F* a F), evaluated as one stack over the grid.

    ``AtResonance`` raises :class:`GridEvaluationError` at the first y where
    1 + T a is singular, as a failed kernel sample does.
    """
    if _uncoupled(samples[0][1], a):
        return samples
    ys, ts = zip(*samples)
    try:
        stack = perturbed_resolvent(np.array(ts), a)
    except AtResonance as exc:
        raise _grid_error(ys[exc.index], exc) from exc
    return list(zip(ys, stack))


def _limit_from(data: BoundaryData, a: np.ndarray | None, tol: float | None) -> BoundaryLimit:
    """The boundary value of H + F* a F, given the uncoupled ``data`` of H.

    Exact through the identity when ``data`` is the exact base value,
    otherwise the extrapolated coupled samples; a zero ``a`` or ``a=None``
    means no coupling.  ``AtResonance`` (exact route) and
    ``GridEvaluationError`` (numeric route) propagate.
    """
    if isinstance(data, np.ndarray):
        value = data if _uncoupled(data, a) else perturbed_resolvent(data, a)
        return Converged(value=value, error_estimate=0.0, method="exact")
    return extrapolate_limit(_coupled(data, a), tol)


def boundary_limit(
    model: OperatorModel,
    rigging: Rigging,
    lam: float,
    a: np.ndarray | None = None,
    grid: YGrid = DEFAULT_GRID,
    tol: float | None = None,
) -> BoundaryLimit:
    """Boundary value T_{lam+i0}(H + F* a F): exact where available, else numeric.

    Raises ``AtResonance`` when the exact route finds 1 + T a singular, and
    ``GridEvaluationError`` when a y-sample fails.
    """
    return _limit_from(_boundary_data(model, rigging, lam, grid), a, tol)


def regular_direction(
    model: OperatorModel,
    rigging: Rigging,
    lam: float,
    direction: Direction,
    anchors: tuple[float, ...] = DEFAULT_ANCHORS,
    grid: YGrid = DEFAULT_GRID,
    tol: float | None = None,
    window: tuple[float, float] = DEFAULT_WINDOW,
    *,
    cross_check: bool = True,
) -> RegularityVerdict:
    """Decide whether V = F* J F is a regular direction at lam.

    Anchors are tried in order; the first coupling with a convergent
    boundary value T_{lam+i0}(H_r) wins and its resonance report is
    attached.  The uncoupled boundary data is built once, before the
    anchor loop, and each anchor is coupled to it through the identity:
    exactly when the base model has an exact boundary value, otherwise
    evaluated as one stack over the grid and extrapolated.  When an
    uncoupled sample fails at some y, every anchor records ``error`` at that
    y.  ``NotObserved`` collects one diagnostic per failed anchor and is
    evidence of absence, not absence of the limit.
    """
    if not anchors:
        raise ValueError("anchor list must be nonempty")
    if direction.k != channel_count(rigging):
        raise ValueError("direction size does not match the channel count")
    try:
        data = _boundary_data(model, rigging, lam, grid)
    except GridEvaluationError as exc:
        return NotObserved(tuple(AnchorAttempt(r0, "error", float(exc.y)) for r0 in anchors))
    attempts: list[AnchorAttempt] = []
    for r0 in anchors:
        try:
            outcome = _limit_from(data, r0 * direction.j, tol)
        except AtResonance as exc:
            attempts.append(AnchorAttempt(r0, "at_resonance", exc.sigma_min))
            continue
        except GridEvaluationError as exc:
            attempts.append(AnchorAttempt(r0, "error", float(exc.y)))
            continue
        if isinstance(outcome, Converged):
            report = resonance_couplings(
                outcome.value,
                direction,
                window,
                anchor=r0,
                limit_error=outcome.error_estimate,
                cross_check=cross_check,
            )
            return Regular(
                witness_coupling=float(r0),
                limit=outcome.value,
                error_estimate=outcome.error_estimate,
                method=outcome.method,
                resonances=report,
            )
        if isinstance(outcome, Diverged):
            attempts.append(AnchorAttempt(r0, "diverged", outcome.blowup_exponent))
        else:
            attempts.append(AnchorAttempt(r0, "inconclusive", outcome.last_delta))
    return NotObserved(attempts=tuple(attempts))


def is_semi_regular(
    model: OperatorModel,
    rigging: Rigging,
    lam: float,
    anchors: tuple[float, ...] = DEFAULT_ANCHORS,
    grid: YGrid = DEFAULT_GRID,
    tol: float | None = None,
    window: tuple[float, float] = DEFAULT_WINDOW,
    *,
    cross_check: bool = True,
) -> RegularityVerdict:
    """Test the canonical direction F* F (J = identity).

    A single convergent anchor here certifies the point as semi-regular;
    regularity of any other direction implies this one works.
    """
    direction = Direction.identity(channel_count(rigging))
    return regular_direction(
        model, rigging, lam, direction, anchors, grid, tol, window,
        cross_check=cross_check,
    )


def finite_perturbed_hamiltonian(
    model: FiniteHermitian,
    rigging: FiniteRigging,
    a: np.ndarray,
) -> np.ndarray:
    """Assemble H + F* A F explicitly (the direct route of the dual check)."""
    a = matkit.require_hermitian(a)
    f = rigging.matrix
    h = model.h + f.conj().T @ a @ f
    return 0.5 * (h + h.conj().T)


def spectral_flow_finite(
    h0: np.ndarray,
    v: np.ndarray,
    lam: float,
    r_from: float,
    r_to: float,
) -> int:
    """Net eigenvalue flow of H0 + r V through lam as r goes r_from -> r_to.

    Returns N(H_from, lam) - N(H_to, lam) where N counts eigenvalues below
    lam, so an upward crossing contributes +1.  Endpoints must keep their
    spectrum away from lam.
    """
    h0 = matkit.require_hermitian(h0)
    v = matkit.require_hermitian(v)
    counts = []
    for r in (r_from, r_to):
        w = np.linalg.eigvalsh(h0 + r * v)
        scale = max(1.0, float(np.abs(w).max()))
        if np.abs(w - lam).min() <= 1e-10 * scale:
            raise EndpointOnSpectrum(f"eigenvalue at lam={lam!r} for coupling r={r!r}")
        counts.append(int((w < lam).sum()))
    return counts[0] - counts[1]
