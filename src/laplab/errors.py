"""Exception hierarchy.

``AtResonance`` is the one member that routinely carries mathematical
meaning rather than signalling misuse: the boundary criterion operator is
singular at the requested coupling.
"""

from __future__ import annotations


class LapLabError(Exception):
    """Base class for all package errors; ``index`` is the stack position of
    the failing matrix when the error comes from a stack of matrices."""

    index: int | None = None

    def at(self, index: int) -> "LapLabError":
        self.index = int(index)
        return self


class SingularMatrix(LapLabError):
    """Linear system rejected: smallest singular value below threshold."""


class ConvergenceFailure(LapLabError):
    """The underlying eigenvalue iteration did not converge."""


class NotHermitian(LapLabError):
    """Matrix failed the M = M* check."""


class NotPSD(LapLabError):
    """Matrix has an eigenvalue below the PSD clamping band."""


class BoundaryOutsideAC(LapLabError):
    """Boundary evaluation requested at a band edge of the lattice."""


class GridEvaluationError(LapLabError):
    """Evaluation failed at one point of a y-grid."""

    def __init__(self, y: float, message: str = ""):
        self.y = y
        super().__init__(message or f"evaluation failed at y={y!r}")


class AtResonance(LapLabError):
    """1 + T A is numerically singular: the coupling sits on a resonance."""

    def __init__(self, sigma_min: float, message: str = ""):
        self.sigma_min = sigma_min
        super().__init__(message or f"criterion operator singular (sigma_min={sigma_min:.3e})")


class EndpointOnSpectrum(LapLabError):
    """Spectral-flow endpoint has an eigenvalue at the reference level."""


class NotSingular(LapLabError):
    """A Fredholm certificate was requested for an invertible operator."""


class SBelowNorm(LapLabError):
    """Proof-chain weight parameter s does not exceed ||J||."""


class DegenerateEigenvalue(LapLabError):
    """Selected eigenvalue is not simple within the gap guard."""


class InvalidPremise(LapLabError):
    """Ordering hypothesis of a corollary verifier is violated."""


class ScenarioError(LapLabError):
    """Scenario document failed validation.

    ``path`` points at the offending node, JSON-pointer style ("/J/0/1").
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
