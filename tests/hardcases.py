"""Seeded generators of hard cases for the resonance cross-check.

Every class is drawn from a fixed numpy seed, so each run sees the same
cases and a count measured on one commit can be measured again on another.
A class is never shrunk to hide a defect.

Class (a), root clusters at the contour.  The contour count of
:func:`laplab.perturb.resonance_couplings` runs around the box
[lo - h, hi + h] x [-h, h], h = 1e-2 (hi - lo).  Each case plants a cluster
of 1 to min(8, k) roots of det(1 + r T J) (anchor 0), k drawn from 2-9:

* the centre lies within 1e-3 of a horizontal edge, within 1e-3 of a
  vertical edge, or anywhere in the box, one third each;
* 30% of the clusters are equal real roots; the others spread about a
  complex centre by 10^U(-6, -3) or not at all;
* the other k - m roots lie in [-3, 3] x [-0.5, 0.5]i.

T J = Q diag(mu) Q* with Q unitary and mu = -1/r, so the planted roots
are the truth the report is judged against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from laplab import matkit

CONTOUR_SEED = 12345
CONTOUR_CASES = 1500
CONTOUR_WINDOW = (-1.0, 1.0)


@dataclass(frozen=True, eq=False)
class ContourCase:
    tj: np.ndarray
    roots: np.ndarray


def in_box(roots: np.ndarray, window: tuple[float, float] = CONTOUR_WINDOW) -> np.ndarray:
    """Mask of the ``roots`` inside the counting box of ``window``."""
    lo, hi = window
    h = 1e-2 * (hi - lo)
    return (lo - h <= roots.real) & (roots.real <= hi + h) & (np.abs(roots.imag) <= h)


def _unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _cluster_centre(rng: np.random.Generator, left: float, right: float, h: float) -> complex:
    near = rng.uniform(-1e-3, 1e-3)
    where = rng.integers(3)
    if where == 0:  # a horizontal edge
        return complex(rng.uniform(left, right), rng.choice((-h, h)) + near)
    if where == 1:  # a vertical edge
        return complex(rng.choice((left, right)) + near, rng.uniform(-h, h))
    return complex(rng.uniform(left, right), rng.uniform(-h, h))


def contour_cluster_cases(
    seed: int = CONTOUR_SEED,
    n: int = CONTOUR_CASES,
    window: tuple[float, float] = CONTOUR_WINDOW,
) -> list[ContourCase]:
    """Class (a): ``n`` cases of one root cluster at or inside the counting box."""
    rng = np.random.default_rng(seed)
    lo, hi = window
    h = 1e-2 * (hi - lo)
    cases = []
    for _ in range(n):
        k = int(rng.integers(2, 10))
        m = int(rng.integers(1, min(8, k) + 1))
        centre = _cluster_centre(rng, lo - h, hi + h, h)
        if rng.uniform() < 0.3:
            cluster = np.full(m, centre.real, dtype=complex)
        else:
            spread = 10.0 ** rng.uniform(-6, -3) if rng.uniform() < 0.5 else 0.0
            offsets = rng.normal(size=m) + 1j * rng.normal(size=m)
            cluster = centre + spread * offsets
        others = rng.uniform(-3, 3, size=k - m) + 1j * rng.uniform(-0.5, 0.5, size=k - m)
        roots = np.concatenate((cluster, others))
        q = _unitary(rng, k)
        cases.append(ContourCase(tj=(q * (-1.0 / roots)) @ q.conj().T, roots=roots))
    return cases


def contour_outcome(case: ContourCase, report) -> str:
    """``correct``, ``false alarm`` or ``hidden miss`` for the report on one case.

    The eigenvalue route's roots -1/mu (anchor 0) are counted in the box as
    :mod:`laplab.perturb` sees them.  A false alarm is a disagreement (exit
    3) although that count is true and nothing is missed; a hidden miss is
    an agreement although the count is wrong.
    """
    mu = matkit.eig_general(case.tj)
    predicted = int(in_box(-1.0 / mu[mu != 0]).sum())
    truth = int(in_box(case.roots).sum())
    if report.scan_agrees and predicted != truth:
        return "hidden miss"
    if not report.scan_agrees and predicted == truth and not report.missed:
        return "false alarm"
    return "correct"
