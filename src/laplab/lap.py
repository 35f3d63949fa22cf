"""Numeric limiting absorption principle: extrapolate T_{lam + iy} to y = 0+.

Samples on a geometric y-grid feed a Neville polynomial extrapolation
(entrywise, convergence measured in operator norm).  The outcome is a
three-way classification:

* :class:`Converged` -- the last two extrapolant increments fell below the
  tolerance; carries the limit matrix and a heuristic error estimate (the
  last increment -- not a rigorous bound);
* :class:`Diverged` -- sample norms grow as y shrinks with a fitted
  blow-up exponent >= 0.5 (a boundary pole has exponent 1);
* :class:`Inconclusive` -- neither criterion fired.  This is reported as a
  distinct value, never silently folded into the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import GridEvaluationError, LapLabError
from .models import HalfPlanePoint


@dataclass(frozen=True)
class YGrid:
    """Geometric grid y_j = y0 * q^j, j = 0 .. n-1."""

    y0: float = 0.1
    q: float = 0.5
    n: int = 20

    def __post_init__(self):
        if not (self.y0 > 0):
            raise ValueError("y0 must be positive")
        if not (0 < self.q < 1):
            raise ValueError("q must lie in (0, 1)")
        if self.n < 4:
            raise ValueError("need at least 4 grid points")
        if self.y0 * self.q ** (self.n - 1) <= 1e-12:
            raise ValueError("grid floor below 1e-12; shrink n or raise y0")

    def points(self) -> tuple[float, ...]:
        return tuple(self.y0 * self.q**j for j in range(self.n))


DEFAULT_GRID = YGrid()


@dataclass(frozen=True, eq=False)
class Converged:
    value: np.ndarray
    error_estimate: float
    method: str  # "exact" | "extrapolated"

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error estimate must be >= 0")


@dataclass(frozen=True)
class Diverged:
    blowup_exponent: float
    norms_trace: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Inconclusive:
    last_delta: float
    blowup_exponent: float
    norms_trace: tuple[tuple[float, float], ...]


BoundaryLimit = Converged | Diverged | Inconclusive


def _grid_error(y: float, exc: LapLabError) -> GridEvaluationError:
    return GridEvaluationError(y, f"evaluation failed at y={y!r}: {exc}")


def evaluate_on_grid(
    t_of_z: Callable[[HalfPlanePoint], np.ndarray],
    lam: float,
    grid: YGrid = DEFAULT_GRID,
) -> list[tuple[float, np.ndarray]]:
    """Evaluate z -> T_z along the grid, largest y first.

    Evaluation errors are re-raised as :class:`GridEvaluationError` with
    the offending y attached.
    """
    out = []
    for y in grid.points():
        try:
            value = t_of_z(HalfPlanePoint(lam, y))
        except LapLabError as exc:
            raise _grid_error(y, exc) from exc
        out.append((y, np.atleast_2d(np.asarray(value, dtype=complex))))
    return out


def _fit_blowup(ys: np.ndarray, norms: np.ndarray) -> float:
    """Least-squares slope of log ||T(y)|| against -log y."""
    mask = norms > 0
    if mask.sum() < 2:
        return 0.0
    a = np.vstack([-np.log(ys[mask]), np.ones(mask.sum())]).T
    slope, _ = np.linalg.lstsq(a, np.log(norms[mask]), rcond=None)[0]
    return float(slope)


def extrapolate_limit(
    samples: Sequence[tuple[float, np.ndarray]],
    tol: float | None = None,
) -> BoundaryLimit:
    """Classify the y -> 0+ behaviour of a sampled matrix family.

    Samples are sorted by descending y internally, so the result does not
    depend on input order.  Needs at least 4 samples.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES.extrapolation_tol
    if len(samples) < 4:
        raise ValueError("need at least 4 samples to extrapolate")
    ordered = sorted(samples, key=lambda item: -item[0])
    ys = np.array([y for y, _ in ordered], dtype=float)
    if (ys <= 0).any() or (np.diff(ys) >= 0).any():
        raise ValueError("sample ordinates must be positive and distinct")
    vals = [np.atleast_2d(np.asarray(v, dtype=complex)) for _, v in ordered]
    norms = np.linalg.norm(np.array(vals), 2, axis=(1, 2))
    trace = tuple((float(y), float(nm)) for y, nm in zip(ys, norms))

    exponent = _fit_blowup(ys, norms)
    increasing = bool((np.diff(norms) > 0).all())
    if increasing and exponent >= DEFAULT_TOLERANCES.blowup_exponent_min:
        return Diverged(blowup_exponent=exponent, norms_trace=trace)

    # Neville table toward y = 0, processed sample by sample; diagonal
    # entries are the successive full-order extrapolants.
    prev_row: list[np.ndarray] = [vals[0]]
    deltas: list[float] = []
    for i in range(1, len(vals)):
        row = [vals[i]]
        for j in range(1, i + 1):
            factor = ys[i - j] / ys[i]
            row.append(row[j - 1] + (row[j - 1] - prev_row[j - 1]) / (factor - 1.0))
        delta = float(np.linalg.norm(row[-1] - prev_row[-1], 2))
        deltas.append(delta)
        if len(deltas) >= 2 and deltas[-1] < tol and deltas[-2] < tol:
            return Converged(value=row[-1], error_estimate=delta, method="extrapolated")
        prev_row = row
    return Inconclusive(last_delta=deltas[-1], blowup_exponent=exponent, norms_trace=trace)

