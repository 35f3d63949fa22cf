"""laplab: boundary values of sandwiched resolvents at desk scale.

The package computes k-by-k sandwiched resolvents T_z = F (H - z)^-1 F* for
small concrete operator models, extrapolates them to the real axis,
classifies perturbation directions as regular or not, enumerates coupling
resonances, and machine-checks the supporting operator identities.
"""

from . import cli, config, errors, lap, matkit, models, perturb, scenario, verify

__version__ = "0.5.0"

__all__ = [
    "__version__",
    "cli",
    "config",
    "errors",
    "lap",
    "matkit",
    "models",
    "perturb",
    "scenario",
    "verify",
]
