"""Executable forms of the regular-direction theorem and its proof steps.

The main theorem says: if any direction J is regular at lam, then the
canonical direction F*F is regular there too.  ``verify_regular_direction_theorem`` runs
both sides on a concrete scenario and certifies the implication; the two
corollary verifiers do the same for the |J| direction and for monotone
enlargements of a PSD direction.  ``proof_chain_check`` replays the
individual algebraic steps of the underlying contradiction argument at a
certified singular point, and ``hellmann_feynman_derivative`` realizes the
eigenvalue-derivative lemma the argument leans on.

Verifiers consume verdicts from :mod:`laplab.perturb` rather than
re-deriving the criterion; each certificate embeds its raw evidence.
Vacuous passes (premise never established) are first class and labeled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import matkit
from .config import DEFAULT_ANCHORS, DEFAULT_TOLERANCES, DEFAULT_WINDOW
from .errors import DegenerateEigenvalue, InvalidPremise, NotSingular, SBelowNorm
from .lap import DEFAULT_GRID, YGrid
from .models import (
    DirectSum,
    FiniteHermitian,
    FiniteRigging,
    FreeLattice1D,
    LatticeRigging,
    OperatorModel,
    Rigging,
    SplitRigging,
    channel_count,
)
from .perturb import (
    Direction,
    NotObserved,
    Regular,
    RegularityVerdict,
    ResonanceReport,
    regular_direction,
    resonance_couplings,
)

#: Master seed for the randomized sweeps; scenario i uses MASTER_SEED + i.
MASTER_SEED = 20260808


@dataclass(frozen=True, eq=False)
class NullCertificate:
    """Unit vector phi with ||(1 + M) phi|| = residual below threshold."""

    vector: np.ndarray
    residual: float


def null_vector_certificate(m: np.ndarray) -> NullCertificate:
    """Fredholm alternative witness for a singular 1 + M.

    The vector is the right singular vector of the smallest singular value.
    Raises ``NotSingular`` when 1 + M is comfortably invertible.
    """
    m = matkit.as_square(m)
    op = np.eye(m.shape[0]) + m
    threshold = DEFAULT_TOLERANCES.null_residual_rtol * (1.0 + matkit.operator_norm(m))
    sigma, _, v = matkit.smallest_singular_triplet(op)
    if sigma > threshold:
        raise NotSingular(f"sigma_min={sigma:.3e} above threshold {threshold:.3e}")
    residual = float(np.linalg.norm(op @ v))
    return NullCertificate(vector=v, residual=residual)


@dataclass(frozen=True, eq=False)
class AnalyticPath:
    """Polynomial path of Hermitian matrices N_s = sum_j A_j s^j, degree <= 4."""

    coefficients: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("need at least one coefficient")
        if len(self.coefficients) > 5:
            raise ValueError("degree must be <= 4")
        coeffs = tuple(matkit.require_hermitian(a) for a in self.coefficients)
        if len({a.shape for a in coeffs}) != 1:
            raise ValueError("coefficients must share one shape")
        object.__setattr__(self, "coefficients", coeffs)

    def value(self, s: float) -> np.ndarray:
        return sum(a * (s**j) for j, a in enumerate(self.coefficients))

    def derivative(self, s: float) -> np.ndarray:
        zero = np.zeros_like(self.coefficients[0])
        return sum((j * a * (s ** (j - 1)) for j, a in enumerate(self.coefficients) if j >= 1), zero)


def hellmann_feynman_derivative(path: AnalyticPath, s0: float, which: int) -> float:
    """d/ds of the ``which``-th eigenvalue (ascending) of N_s at s0.

    Computed as <phi, N'_{s0} phi> with phi the unit eigenvector; equals
    the derivative of the eigenvalue branch as long as it is simple.
    """
    n = path.value(s0)
    w, u = matkit.eig_hermitian(n)
    if not 0 <= which < len(w):
        raise ValueError(f"eigenvalue index {which} out of range")
    gap = np.inf
    if which > 0:
        gap = min(gap, w[which] - w[which - 1])
    if which < len(w) - 1:
        gap = min(gap, w[which + 1] - w[which])
    scale = matkit.operator_norm(n)
    rtol = DEFAULT_TOLERANCES.eigengap_rtol
    if gap < rtol * max(scale, 1e-300):
        raise DegenerateEigenvalue(f"gap {gap:.3e} below {rtol:g} * ||N||")
    phi = u[:, which]
    return float(np.real(phi.conj() @ path.derivative(s0) @ phi))


@dataclass(frozen=True, eq=False)
class ProofChainReport:
    """Step-by-step residuals of the contradiction argument at one (r, s).

    ``status`` is "checked" at a certified singular point, or
    "vacuously_consistent" when Im T is positive definite so no singular
    point can exist at all.  ``inv_weight_form`` is <psi, (s-J)^-1 psi>;
    the argument forces it to vanish only along an analytic family of
    singular points, so pointwise it is recorded, never asserted.
    """

    status: str
    r: float
    s: float
    sigma_min: float
    eq1_residual: float | None = None
    im_annihilation: float | None = None
    eq2_residual: float | None = None
    inv_weight_form: float | None = None
    psi: np.ndarray | None = None


def proof_chain_check(
    t_limit: np.ndarray,
    direction: Direction,
    r: float,
    s: float,
) -> ProofChainReport:
    """Replay the singular-point algebra for 1 + r T (s - J).

    Requires s > ||J|| so that s - J is positive definite.  With
    psi the unit null vector of 1 + r sqrt(s-J) T sqrt(s-J), reports

    * the eigen-residual of r sqrt(s-J) T sqrt(s-J) psi = -psi,
    * || Im T sqrt(s-J) psi ||  (annihilation forced by Im T >= 0),
    * the residual of the real-part equation,
    * <psi, (s-J)^-1 psi>  (recorded only; see class docstring).
    """
    t_limit = matkit.as_square(t_limit)
    j = direction.j
    if j.shape != t_limit.shape:
        raise ValueError("direction size does not match T")
    norm_j = matkit.operator_norm(j)
    if s <= norm_j:
        raise SBelowNorm(f"s={s!r} must exceed ||J||={norm_j:.6g}")
    weight = s * np.eye(j.shape[0]) - j
    m = r * t_limit @ weight
    sigma = matkit.smallest_singular(np.eye(m.shape[0]) + m)
    threshold = DEFAULT_TOLERANCES.null_residual_rtol * (1.0 + matkit.operator_norm(m))
    if sigma > threshold:
        im_t = matkit.im_part(t_limit)
        if matkit.min_eig_hermitian(im_t) > 1e-8 * max(
            matkit.operator_norm(t_limit), 1e-300
        ):
            # strict Herglotz positivity: no real coupling can be singular
            return ProofChainReport(
                status="vacuously_consistent", r=float(r), s=float(s), sigma_min=sigma
            )
        raise NotSingular(
            f"1 + r T (s - J) is invertible at r={r!r}, s={s!r} (sigma_min={sigma:.3e})"
        )
    root = matkit.psd_sqrt(weight)
    m_sym = r * root @ t_limit @ root
    _, _, psi = matkit.smallest_singular_triplet(np.eye(m_sym.shape[0]) + m_sym)
    eq1 = float(np.linalg.norm(m_sym @ psi + psi))
    chi = root @ psi
    im_ann = float(np.linalg.norm(matkit.im_part(t_limit) @ chi))
    eq2 = float(np.linalg.norm(r * root @ matkit.re_part(t_limit) @ chi + psi))
    inv_weight = float(np.real(psi.conj() @ np.linalg.solve(weight, psi)))
    return ProofChainReport(
        status="checked",
        r=float(r),
        s=float(s),
        sigma_min=sigma,
        eq1_residual=eq1,
        im_annihilation=im_ann,
        eq2_residual=eq2,
        inv_weight_form=inv_weight,
        psi=psi,
    )


@dataclass(frozen=True, eq=False)
class TheoremCertificate:
    """Premise/conclusion evidence for one implication on one scenario.

    ``premise`` is None only when the claim's hypothesis failed before any
    verdict ran (an invalid premise).
    """

    claim: str
    scenario: str
    premise_direction: Direction
    conclusion_direction: Direction | None
    premise: RegularityVerdict | None
    conclusion: RegularityVerdict | None
    vacuous: bool
    passed: bool
    notes: tuple[str, ...] = ()
    projected_resonances: ResonanceReport | None = None


def _certify(
    claim: str,
    model: OperatorModel,
    rigging: Rigging,
    lam: float,
    premise_dir: Direction,
    conclusion_dir: Direction,
    anchors: tuple[float, ...],
    grid: YGrid,
    window: tuple[float, float],
    scenario: str,
    cross_check: bool,
) -> TheoremCertificate:
    """Premise verdict, then conclusion verdict: passed when the conclusion is regular.

    An unestablished premise makes the certificate vacuous: it passes
    without a conclusion verdict.
    """

    def verdict(direction: Direction) -> RegularityVerdict:
        return regular_direction(
            model, rigging, lam, direction, anchors, grid, None, window,
            cross_check=cross_check,
        )

    premise = verdict(premise_dir)
    if isinstance(premise, NotObserved):
        return TheoremCertificate(
            claim, scenario, premise_dir, conclusion_dir, premise, None,
            vacuous=True, passed=True, notes=("premise unestablished",),
        )
    conclusion = verdict(conclusion_dir)
    return TheoremCertificate(
        claim, scenario, premise_dir, conclusion_dir, premise, conclusion,
        vacuous=False, passed=isinstance(conclusion, Regular),
    )


def verify_regular_direction_theorem(
    model: OperatorModel,
    rigging: Rigging,
    lam: float,
    direction: Direction,
    anchors: tuple[float, ...] = DEFAULT_ANCHORS,
    grid: YGrid = DEFAULT_GRID,
    window: tuple[float, float] = DEFAULT_WINDOW,
    *,
    scenario: str = "",
    cross_check: bool = True,
) -> TheoremCertificate:
    """Premise: J regular at lam.  Conclusion: F*F regular at lam."""
    return _certify(
        "regular-direction-theorem", model, rigging, lam, direction,
        Direction.identity(channel_count(rigging)), anchors, grid, window,
        scenario, cross_check,
    )


def _projected_resonances(
    t_limit: np.ndarray,
    j_psd: np.ndarray,
    window: tuple[float, float],
    anchor: float,
) -> tuple[ResonanceReport, int]:
    """Resonance analysis restricted to the range of a singular PSD matrix.

    The eigenvalue problem for T J is compressed onto range(J) where the
    weight is invertible; nonzero eigenvalues are preserved, so this is
    the k'-by-k' form of the same criterion.
    """
    w, u = matkit.eig_hermitian(j_psd)
    scale = float(np.abs(w).max()) if w.size else 0.0
    keep = w > DEFAULT_TOLERANCES.psd_clamp_rtol * max(scale, 1e-300)
    basis = u[:, keep]
    rank = int(keep.sum())
    if rank == 0:
        return (
            ResonanceReport(
                anchor=float(anchor),
                resonances=(),
                window=window,
                imag_tolerance=DEFAULT_TOLERANCES.resonance_imag_rtol,
            ),
            0,
        )
    t_proj = basis.conj().T @ t_limit @ basis
    d_proj = basis.conj().T @ j_psd @ basis
    d_proj = 0.5 * (d_proj + d_proj.conj().T)
    report = resonance_couplings(t_proj, Direction(d_proj), window, anchor, cross_check=False)
    return report, rank


def verify_cor_abs(
    model: OperatorModel,
    rigging: Rigging,
    lam: float,
    direction: Direction,
    anchors: tuple[float, ...] = DEFAULT_ANCHORS,
    grid: YGrid = DEFAULT_GRID,
    window: tuple[float, float] = DEFAULT_WINDOW,
    *,
    scenario: str = "",
    cross_check: bool = True,
) -> TheoremCertificate:
    """Premise: J regular.  Conclusion: |J| regular.

    For singular |J| the conclusion's resonance analysis is additionally
    restricted to the range of |J| (the weight is invertible there); the
    projected report is attached to the certificate.
    """
    abs_j = matkit.abs_hermitian(direction.j)
    cert = _certify(
        "corollary-abs", model, rigging, lam, direction, Direction(abs_j),
        anchors, grid, window, scenario, cross_check,
    )
    if not isinstance(cert.conclusion, Regular):
        return cert
    rank_deficient = matkit.smallest_singular(abs_j) <= DEFAULT_TOLERANCES.psd_clamp_rtol * max(
        matkit.operator_norm(abs_j), 1e-300
    )
    if not rank_deficient:
        return cert
    projected, rank = _projected_resonances(
        cert.conclusion.limit, abs_j, window, cert.conclusion.witness_coupling
    )
    return replace(
        cert,
        notes=(f"|J| singular: resonance analysis projected to rank {rank} range",),
        projected_resonances=projected,
    )


def verify_cor_monotone(
    model: OperatorModel,
    rigging: Rigging,
    lam: float,
    direction: Direction,
    direction_tilde: Direction,
    anchors: tuple[float, ...] = DEFAULT_ANCHORS,
    grid: YGrid = DEFAULT_GRID,
    window: tuple[float, float] = DEFAULT_WINDOW,
    *,
    scenario: str = "",
    cross_check: bool = True,
) -> TheoremCertificate:
    """Premise: J >= 0 regular.  Conclusion: any J~ >= J is regular too."""
    j = direction.j
    jt = direction_tilde.j
    norm_j = max(matkit.operator_norm(j), 1e-300)
    if matkit.min_eig_hermitian(j) < -1e-10 * norm_j:
        raise InvalidPremise("J is not positive semidefinite")
    diff = jt - j
    norm_diff = max(matkit.operator_norm(diff), matkit.operator_norm(jt), 1e-300)
    if matkit.min_eig_hermitian(diff) < -1e-10 * norm_diff:
        raise InvalidPremise("J~ - J is not positive semidefinite")
    return _certify(
        "corollary-monotone", model, rigging, lam, direction, direction_tilde,
        anchors, grid, window, scenario, cross_check,
    )


# ---------------------------------------------------------------------------
# Randomized embedded-eigenvalue scenarios and sweep running
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmbeddedScenario:
    """Lattice plus a point mass planted exactly at the probe energy."""

    model: OperatorModel
    rigging: Rigging
    lam: float
    direction: Direction
    direction_tilde: Direction | None
    seed: int


def embedded_scenario(seed: int, *, monotone: bool = False) -> EmbeddedScenario:
    """Draw one scenario: random lam in (-1.9, 1.9), a random finitely
    supported lattice channel, a point mass at lam (the embedded
    singularity), and a random Hermitian 2x2 direction whose off-diagonal
    coupling entry is bounded away from zero.

    With ``monotone=True`` the direction is PSD and a PSD enlargement is
    drawn as well (for the monotone corollary).
    """
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(-1.9, 1.9))
    support = rng.choice(np.arange(-2, 3), size=int(rng.integers(1, 4)), replace=False)
    while True:
        amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        if np.abs(amps).max() > 0.3:
            break
    channel = {int(s): complex(a) for s, a in zip(support, amps)}
    point_amp = complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    lattice = (FreeLattice1D(), LatticeRigging((tuple(channel.items()),)))
    point = (FiniteHermitian(np.array([[lam]])), FiniteRigging(np.array([[point_amp]])))
    model = DirectSum(lattice[0], point[0])
    rigging = SplitRigging(lattice[1], point[1])
    if monotone:
        while True:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            j = g.conj().T @ g
            j = 0.5 * (j + j.conj().T)
            if abs(j[0, 1]) >= 0.2:
                break
        p = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        bump = p.conj().T @ p
        jt = j + 0.5 * (bump + bump.conj().T)
        return EmbeddedScenario(model, rigging, lam, Direction(j), Direction(jt), seed)
    diag = rng.normal(size=2)
    while True:
        w = complex(rng.normal(), rng.normal())
        if abs(w) >= 0.3:
            break
    j = np.array([[diag[0], w], [np.conj(w), diag[1]]])
    return EmbeddedScenario(model, rigging, lam, Direction(j), None, seed)


@dataclass(frozen=True, eq=False)
class SweepResult:
    kind: str
    master_seed: int
    certificates: tuple[TheoremCertificate, ...]
    established: int
    vacuous: int
    failures: int

    @property
    def count(self) -> int:
        return len(self.certificates)


def run_sweep(
    kind: str,
    count: int = 100,
    master_seed: int = MASTER_SEED,
) -> SweepResult:
    """Run a randomized certificate sweep.

    ``kind`` is one of "theorem", "cor-abs", "cor-monotone".  Scenario i
    derives from master_seed + i, so results are order-independent and
    reproducible.  :func:`sweep_details` turns the result into JSON.
    """
    if kind not in ("theorem", "cor-abs", "cor-monotone"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    certs = []
    for seed in range(master_seed, master_seed + count):
        scn = embedded_scenario(seed, monotone=(kind == "cor-monotone"))
        args = (scn.model, scn.rigging, scn.lam, scn.direction)
        common = dict(scenario=f"{kind}-seed-{seed}", cross_check=False)
        if kind == "theorem":
            certs.append(verify_regular_direction_theorem(*args, **common))
        elif kind == "cor-abs":
            certs.append(verify_cor_abs(*args, **common))
        else:
            certs.append(verify_cor_monotone(*args, scn.direction_tilde, **common))
    vacuous = sum(1 for c in certs if c.vacuous)
    return SweepResult(
        kind=kind,
        master_seed=master_seed,
        certificates=tuple(certs),
        established=count - vacuous,
        vacuous=vacuous,
        failures=sum(1 for c in certs if not c.passed),
    )


def sweep_details(result: SweepResult) -> dict:
    rows = []
    for cert in result.certificates:
        row = {
            "scenario": cert.scenario,
            "claim": cert.claim,
            "vacuous": cert.vacuous,
            "passed": cert.passed,
            "notes": list(cert.notes),
        }
        if isinstance(cert.premise, Regular):
            row["premise_witness"] = cert.premise.witness_coupling
            row["premise_resonances"] = [
                [res.coupling, res.multiplicity] for res in cert.premise.resonances.resonances
            ]
        if isinstance(cert.conclusion, Regular):
            row["conclusion_witness"] = cert.conclusion.witness_coupling
        rows.append(row)
    return {
        "kind": result.kind,
        "master_seed": result.master_seed,
        "count": result.count,
        "established": result.established,
        "vacuous": result.vacuous,
        "failures": result.failures,
        "scenarios": rows,
    }
