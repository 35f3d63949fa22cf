"""Inputs, operations and output checks of the in-process workloads.

Inputs come from the benchmark's own generators and a seed, built through
laplab's public constructors, so a change to laplab's own scenario
generators cannot change a workload.  Operations call laplab through module
attributes (``perturb.regular_direction``), never through names bound at
import, so the traced run sees the top-level call of every operation.

Each case carries a check that returns ``None`` for a correct result or a
short reason; checks use numpy directly and run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from laplab import perturb, verify
from laplab.models import (
    DirectSum,
    FiniteHermitian,
    FiniteRigging,
    FreeLattice1D,
    LatticeRigging,
    SplitRigging,
)

HERGLOTZ_RTOL = 1e-10

#: Certificates drawn per seed for cert-sweep, a third of each kind.  More
#: than a 30-second run uses, so no case repeats and the tail is not set by
#: the few costliest draws replayed.
CERT_POOL = 1800
CERT_KINDS = ("theorem", "cor-abs", "cor-monotone")

WIDE_KS = (8, 32, 64)
#: Coupling window of the wide-channel verdicts; the sigma_min scan costs
#: (window / 1e-3) SVDs of k-by-k matrices, 1001 of them here.
WIDE_WINDOW = (-0.5, 0.5)
#: Rounds of wide-channel inputs drawn per seed; a run cycles through them.
WIDE_ROUNDS = 12


@dataclass(frozen=True)
class Case:
    label: str
    k: int
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _random_hermitian(rng, n: int) -> np.ndarray:
    """GUE-like draw with spectrum close to [-2, 2]."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / (2.0 * np.sqrt(n))


def _point_amplitude(rng) -> complex:
    return complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _embedded(lattice_channels, lam: float, rng) -> tuple[DirectSum, SplitRigging]:
    """Free lattice plus a point mass planted at lam, inside the band."""
    model = DirectSum(FreeLattice1D(), FiniteHermitian(np.array([[lam]])))
    rigging = SplitRigging(
        LatticeRigging(tuple(lattice_channels)),
        FiniteRigging(np.array([[_point_amplitude(rng)]])),
    )
    return model, rigging


def herglotz_violation(t: np.ndarray) -> str | None:
    """Reason string when min eig Im T < -1e-10 ||T||, else None."""
    if not np.isfinite(t).all():
        return "limit has non-finite entries"
    im = (t - t.conj().T) / 2j
    lowest = float(np.linalg.eigvalsh(im)[0])
    if lowest < -HERGLOTZ_RTOL * float(np.linalg.norm(t, 2)):
        return f"limit violates Im T >= 0 (min eig {lowest:.3e})"
    return None


# -- cert-sweep -------------------------------------------------------------


def _cert_inputs(rng, kind: str):
    """k=2 embedded-eigenvalue scenario: a lattice channel on up to three of
    the sites -2..2, a point mass at lam, and a direction that couples the
    two channels (PSD with a PSD enlargement for the monotone corollary)."""
    lam = float(rng.uniform(-1.9, 1.9))
    sites = rng.choice(np.arange(-2, 3), size=int(rng.integers(1, 4)), replace=False)
    amps = rng.normal(size=len(sites)) + 1j * rng.normal(size=len(sites))
    while np.abs(amps).max() <= 0.3:
        amps = rng.normal(size=len(sites)) + 1j * rng.normal(size=len(sites))
    model, rigging = _embedded([tuple(zip(sites.tolist(), amps.tolist()))], lam, rng)
    if kind == "cor-monotone":
        j = np.zeros((2, 2))
        while abs(j[0, 1]) < 0.2:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            j = g.conj().T @ g
        p = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        jt = j + p.conj().T @ p
        return model, rigging, lam, perturb.Direction(0.5 * (j + j.conj().T)), perturb.Direction(0.5 * (jt + jt.conj().T))
    w = 0.0
    while abs(w) < 0.3:
        w = complex(rng.normal(), rng.normal())
    d = rng.normal(size=2)
    return model, rigging, lam, perturb.Direction(np.array([[d[0], w], [np.conj(w), d[1]]])), None


def check_certificate(cert) -> str | None:
    if not cert.passed:
        return "certificate did not pass"
    for verdict in (cert.premise, cert.conclusion):
        if isinstance(verdict, perturb.Regular):
            reason = herglotz_violation(verdict.limit)
            if reason:
                return reason
    return None


def _cert_case(rng, kind: str, index: int) -> Case:
    model, rigging, lam, direction, direction_tilde = _cert_inputs(rng, kind)
    label = f"{kind}-{index}"
    if kind == "theorem":
        def run():
            return verify.verify_regular_direction_theorem(
                model, rigging, lam, direction, scenario=label, cross_check=False
            )
    elif kind == "cor-abs":
        def run():
            return verify.verify_cor_abs(model, rigging, lam, direction, scenario=label, cross_check=False)
    else:
        def run():
            return verify.verify_cor_monotone(
                model, rigging, lam, direction, direction_tilde, scenario=label, cross_check=False
            )
    return Case(label, 2, run, check_certificate)


def cert_sweep(seed: int, pool: int = CERT_POOL) -> list[list[Case]]:
    """Rounds of three certificates, one of each kind, in seeded order."""
    rng = np.random.default_rng(seed)
    rounds = []
    for i in range(pool // len(CERT_KINDS)):
        cases = [_cert_case(rng, kind, i) for kind in CERT_KINDS]
        rounds.append([cases[j] for j in rng.permutation(len(cases))])
    return rounds


# -- wide-channel -----------------------------------------------------------


def check_lattice_verdict(verdict) -> str | None:
    if not isinstance(verdict, perturb.Regular):
        return "no convergent anchor"
    if verdict.resonances.scan_agrees is not True:
        return "sigma_min scan disagrees with the eigenvalue route"
    return herglotz_violation(verdict.limit)


def check_finite_verdict(verdict, model, rigging, lam: float, direction) -> str | None:
    """Compare with F (H + r0 F*JF - lam)^-1 F* assembled and inverted densely."""
    reason = check_lattice_verdict(verdict)
    if reason:
        return reason
    h = perturb.finite_perturbed_hamiltonian(model, rigging, verdict.witness_coupling * direction.j)
    shifted = h - lam * np.eye(h.shape[0])
    f = rigging.matrix
    expected = f @ np.linalg.inv(shifted) @ f.conj().T
    error = float(np.linalg.norm(verdict.limit - expected, 2))
    # Both sides are backward stable, so they differ by about eps * cond.
    bound = 1e-10 * float(np.linalg.cond(shifted)) * max(1.0, float(np.linalg.norm(expected, 2)))
    if not error <= bound:
        return f"limit differs from dense assembly by {error:.3e} (bound {bound:.3e})"
    return None


def _lattice_case(rng, k: int) -> Case:
    """k-1 lattice channels on one or two random sites each, plus a point
    mass at lam: no exact boundary value, so the numeric route runs."""
    lam = float(rng.uniform(-1.9, 1.9))
    channels = []
    for p in range(k - 1):
        size = 1 + p % 2
        sites = rng.choice(np.arange(-2 * k, 2 * k + 1), size=size, replace=False)
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        channels.append(tuple(zip(sites.tolist(), amps.tolist())))
    model, rigging = _embedded(channels, lam, rng)
    direction = perturb.Direction(_random_hermitian(rng, k))

    def run():
        return perturb.regular_direction(model, rigging, lam, direction, window=WIDE_WINDOW, cross_check=True)

    return Case(f"lattice-k{k}", k, run, check_lattice_verdict)


def _finite_case(rng, k: int) -> Case:
    """Hermitian 2k-by-2k block with k random channels: exact route."""
    n = 2 * k
    model = FiniteHermitian(_random_hermitian(rng, n))
    rigging = FiniteRigging((rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))) / np.sqrt(2 * n))
    lam = float(rng.uniform(-1.9, 1.9))
    direction = perturb.Direction(_random_hermitian(rng, k))

    def run():
        return perturb.regular_direction(model, rigging, lam, direction, window=WIDE_WINDOW, cross_check=True)

    def check(verdict):
        return check_finite_verdict(verdict, model, rigging, lam, direction)

    return Case(f"finite-k{k}", k, run, check)


def wide_channel(seed: int, ks=WIDE_KS, rounds: int = WIDE_ROUNDS) -> list[list[Case]]:
    """Rounds of one lattice and one finite verdict per channel size, plus a
    second lattice verdict at the middle size.

    The extra case puts the median of a round inside one cluster of similar
    costs.  With equal halves the median falls in the gap between the finite
    and lattice clusters at the middle size and jumps between runs.
    """
    rng = np.random.default_rng(seed)
    middle = ks[len(ks) // 2]
    out = []
    for _ in range(rounds):
        cases = [make(rng, k) for k in ks for make in (_lattice_case, _finite_case)]
        cases.append(_lattice_case(rng, middle))
        out.append([cases[j] for j in rng.permutation(len(cases))])
    return out


WORKLOADS = {"cert-sweep": cert_sweep, "wide-channel": wide_channel}
