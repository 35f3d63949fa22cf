"""Central tolerance record and numeric defaults.

Every module reads its thresholds from the one frozen
:data:`DEFAULT_TOLERANCES` instance at call time; no function takes them
as an argument.  The only threshold a scenario sets is the extrapolation
tolerance (scenario key ``tol``, flag ``--tol``), passed on as ``tol``.
All relative tolerances are taken against the operator (spectral) norm of
the matrix they guard.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used across the package.

    Attributes
    ----------
    hermitian_rtol
        Entrywise relative tolerance for the M = M* check.
    solve_singular_rtol
        A square system is rejected as singular when the smallest singular
        value is at or below this times the largest one.
    psd_clamp_rtol
        Eigenvalues of a nominally PSD matrix in ``[-band, 0)`` with
        ``band = psd_clamp_rtol * ||M||`` are clamped to zero; anything
        below the band is an error.
    herglotz_rtol
        Allowed negative slack for the smallest eigenvalue of Im T.
    invertibility_rtol
        Threshold for ``1 + T A`` in the perturbed-resolvent identity.
    criterion_rtol
        Invertibility threshold for the boundary criterion operator.
    resonance_imag_rtol
        An eigenvalue cluster mean mu counts as real when
        ``|Im mu| <= resonance_imag_rtol * (1 + |mu|)``.
    resonance_cluster_rtol
        Relative radius used to group eigenvalues of T J into clusters
        before the reality test; multiple eigenvalues split like the
        square root of the data error, so they are judged by their
        cluster mean (first-order stable); only a cluster whose mean is
        not real is judged member by member.
    sigma_dip
        A reported resonance must push the smallest singular value of the
        criterion operator below this value.
    null_residual_rtol
        Residual threshold for Fredholm null-vector certificates.
    extrapolation_tol
        Default convergence tolerance for the y -> 0+ extrapolation.
    blowup_exponent_min
        Fitted growth exponents at or above this value classify a sample
        sequence as divergent.
    eigengap_rtol
        Minimal relative gap for an eigenvalue to count as simple.
    """

    hermitian_rtol: float = 1e-12
    solve_singular_rtol: float = 1e-13
    psd_clamp_rtol: float = 1e-10
    herglotz_rtol: float = 1e-10
    invertibility_rtol: float = 1e-12
    criterion_rtol: float = 1e-10
    resonance_imag_rtol: float = 1e-9
    resonance_cluster_rtol: float = 1e-4
    sigma_dip: float = 1e-6
    null_residual_rtol: float = 1e-8
    extrapolation_tol: float = 1e-6
    blowup_exponent_min: float = 0.5
    eigengap_rtol: float = 1e-6


DEFAULT_TOLERANCES = Tolerances()

#: Couplings tried, in order, when hunting for a convergent anchor.
DEFAULT_ANCHORS: tuple[float, ...] = (0.0, 1.0, -1.0, 0.5, 2.0)

#: Default real interval searched for coupling resonances.
DEFAULT_WINDOW: tuple[float, float] = (-5.0, 5.0)

#: Half-width (in sites) of the truncated-lattice brute-force oracle.
DEFAULT_TRUNCATION_SITES = 2000
