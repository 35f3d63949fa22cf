"""Concrete operator models with closed-form sandwiched resolvents.

A model is a self-adjoint operator H given through its resolvent; a rigging
is a finite-rank map F onto a k-dimensional channel space.  Together they
produce the k-by-k matrix

    T_z = F (H - z)^-1 F*,

a Herglotz function of z in the upper half-plane.  Three models are
supported:

* ``FiniteHermitian`` -- an explicit n-by-n Hermitian matrix;
* ``FreeLattice1D`` -- the hopping operator (H u)_n = u_{n+1} + u_{n-1} on
  l2(Z), whose resolvent kernel is known in closed form.  T_z is one matrix
  product A* G(z) A over amplitudes A and site distances D precomputed per
  rigging, rounding error about d*u (see :func:`sandwiched_resolvent`);
* ``DirectSum`` -- block sum of two rigged models, used to plant point
  spectrum inside the lattice band.

A y-grid of z is evaluated as one stack over the grid, in one kernel call.
Evaluation at real z is exact where the closed form extends to the axis;
:func:`boundary_exact` returns ``None`` ("absent") where it does not, which
tells the caller to fall back on the numeric limit machinery in
:mod:`laplab.lap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import matkit
from .config import DEFAULT_TRUNCATION_SITES
from .errors import BoundaryOutsideAC, LapLabError

_BAND_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class HalfPlanePoint:
    """Spectral parameter z = lam + i y with y >= 0; y = 0 marks the boundary."""

    lam: float
    y: float

    def __post_init__(self):
        if not np.isfinite(self.lam) or not np.isfinite(self.y):
            raise ValueError("non-finite half-plane point")
        if self.y < 0:
            raise ValueError("y must be >= 0; lower half-plane values follow by conjugation")

    @property
    def z(self) -> complex:
        return complex(self.lam, self.y)

    @property
    def boundary(self) -> bool:
        return self.y == 0.0


def _as_z(z) -> complex:
    if isinstance(z, HalfPlanePoint):
        return z.z
    return complex(z)


def _zeta(zc: complex) -> tuple[complex, complex]:
    """(zeta, zeta - 1/zeta) on the branch of :func:`free_lattice_kernel`."""
    if zc.imag == 0.0:
        lam = zc.real
        if abs(abs(lam) - 2.0) <= _BAND_EDGE_TOL:
            raise BoundaryOutsideAC(f"band edge lam={lam!r}: boundary value diverges")
        if abs(lam) < 2.0:
            s = np.sqrt(4.0 - lam * lam)
            return complex(lam, -s) / 2.0, complex(0.0, -s)
        w = np.sign(lam) * np.sqrt(lam * lam - 4.0)
        return (lam - w) / 2.0, -w
    w = np.sqrt(zc * zc - 4.0)
    if abs(zc + w) < abs(zc - w):
        w = -w
    return 2.0 / (zc + w), -w  # stable form of (z - w) / 2


def free_lattice_kernel(z, n: int, m: int) -> complex:
    """Resolvent kernel <delta_n, (H - z)^-1 delta_m> of the free 1-d lattice.

    R_z(n, m) = zeta^|n-m| / (zeta - 1/zeta), with zeta the root of
    zeta^2 - z zeta + 1 = 0 of modulus < 1 off the axis.  On the axis
    inside the band (|lam| < 2), zeta = (lam - i sqrt(4 - lam^2)) / 2 is
    the continuation from above and keeps Im R >= 0; outside it
    (|lam| > 2) both one-sided limits agree and the real root of modulus
    < 1 applies.  Band edges |lam| = 2 raise ``BoundaryOutsideAC``.
    """
    zeta, den = _zeta(_as_z(z))
    return complex(zeta ** abs(int(n) - int(m)) / den)


def _normalize_channel(channel) -> tuple[tuple[int, complex], ...]:
    items = channel.items() if isinstance(channel, dict) else channel
    acc: dict[int, complex] = {}
    for site, amp in items:
        acc[int(site)] = acc.get(int(site), 0.0) + complex(amp)
    cleaned = tuple(sorted((s, a) for s, a in acc.items() if a != 0))
    if not cleaned:
        raise ValueError("each lattice channel needs a nonzero amplitude")
    return cleaned


@dataclass(frozen=True, eq=False)
class LatticeRigging:
    """Channels given as finitely supported sequences over Z.

    Precomputed on first use for T_z = A* G(z) A: A[s, q], the amplitude of
    channel q at site s of the sorted site union S, and D = |s_i - s_j|.
    """

    channels: tuple[tuple[tuple[int, complex], ...], ...]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("rigging needs at least one channel")
        object.__setattr__(
            self, "channels", tuple(_normalize_channel(ch) for ch in self.channels)
        )

    @property
    def k(self) -> int:
        return len(self.channels)

    @cached_property
    def _sandwich(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, D) for the lattice sandwich T_z = A* G(z) A."""
        sites = np.array(sorted({s for ch in self.channels for s, _ in ch}))
        amps = np.zeros((len(sites), self.k), dtype=complex)
        for q, ch in enumerate(self.channels):
            at, amp = zip(*ch)
            amps[np.searchsorted(sites, at), q] = amp
        return amps, np.abs(sites[:, None] - sites[None, :])


def lattice_rigging(*channels) -> LatticeRigging:
    """Build a lattice rigging from dicts or (site, amplitude) iterables."""
    return LatticeRigging(tuple(channels))


def delta_rigging(site: int = 0, amplitude: complex = 1.0) -> LatticeRigging:
    """Single channel supported on one site."""
    return lattice_rigging({site: amplitude})


@dataclass(frozen=True, eq=False)
class FiniteRigging:
    """Channels given as the rows of a k-by-n matrix F."""

    matrix: np.ndarray

    def __post_init__(self):
        a = matkit.as_matrix(self.matrix)
        if not (np.abs(a) > 0).any(axis=1).all():
            raise ValueError("each channel (row of F) must be nonzero")
        object.__setattr__(self, "matrix", a)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class SplitRigging:
    """Rigging of a direct sum; channels of ``left`` come first."""

    left: "Rigging"
    right: "Rigging"

    @property
    def k(self) -> int:
        return channel_count(self.left) + channel_count(self.right)


Rigging = Union[LatticeRigging, FiniteRigging, SplitRigging]


@dataclass(frozen=True, eq=False)
class FiniteHermitian:
    """H is an explicit Hermitian matrix."""

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", matkit.require_hermitian(self.h))

    @property
    def n(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class FreeLattice1D:
    """(H u)_n = u_{n+1} + u_{n-1} on l2(Z); essential spectrum [-2, 2]."""


@dataclass(frozen=True, eq=False)
class DirectSum:
    left: "OperatorModel"
    right: "OperatorModel"


OperatorModel = Union[FiniteHermitian, FreeLattice1D, DirectSum]


def channel_count(rigging: Rigging) -> int:
    if not isinstance(rigging, (LatticeRigging, FiniteRigging, SplitRigging)):
        raise TypeError(f"not a rigging: {type(rigging).__name__}")
    return rigging.k


def make_direct_sum(left, right) -> tuple[DirectSum, SplitRigging]:
    """Combine two (model, rigging) pairs into a block-diagonal model.

    Sandwiched resolvents of the result are block diagonal, with the left
    block first.
    """
    lm, lr = left
    rm, rr = right
    if channel_count(lr) < 1 or channel_count(rr) < 1:
        raise ValueError("each summand needs at least one channel")
    return DirectSum(lm, rm), SplitRigging(lr, rr)


def essential_spectrum(model: OperatorModel) -> tuple[tuple[float, float], ...]:
    """Known essential-spectrum intervals; advisory metadata only."""
    if isinstance(model, FreeLattice1D):
        return ((-2.0, 2.0),)
    if isinstance(model, FiniteHermitian):
        return ()
    if isinstance(model, DirectSum):
        intervals = sorted(essential_spectrum(model.left) + essential_spectrum(model.right))
        merged: list[list[float]] = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return tuple((lo, hi) for lo, hi in merged)
    raise TypeError(f"not a model: {type(model).__name__}")


def _pair_check(model, rigging) -> None:
    ok = (
        (isinstance(model, FiniteHermitian) and isinstance(rigging, FiniteRigging))
        or (isinstance(model, FreeLattice1D) and isinstance(rigging, LatticeRigging))
        or (isinstance(model, DirectSum) and isinstance(rigging, SplitRigging))
    )
    if not ok:
        raise TypeError(
            f"rigging {type(rigging).__name__} does not match model {type(model).__name__}"
        )
    if isinstance(model, FiniteHermitian) and rigging.matrix.shape[1] != model.n:
        raise ValueError(
            f"rigging acts on C^{rigging.matrix.shape[1]} but the model lives on C^{model.n}"
        )


def _block_diagonal(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """diag(left, right), matrix by matrix over stacks: the sandwiched resolvent of a direct sum."""
    k = left.shape[-1]
    out = np.zeros(left.shape[:-2] + (k + right.shape[-1],) * 2, dtype=complex)
    out[..., :k, :k] = left
    out[..., k:, k:] = right
    return out


def _resolvent_stack(model: OperatorModel, rigging: Rigging, zs: np.ndarray) -> np.ndarray:
    """T_z for each z of the 1-d array ``zs``, evaluated as one (n, k, k) stack.

    A failing z raises the error of :func:`sandwiched_resolvent` at the
    first such z, with its position in ``index``.
    """
    _pair_check(model, rigging)
    if isinstance(model, FiniteHermitian):
        f = rigging.matrix
        shifted = model.h - zs[:, None, None] * np.eye(model.n)
        return f @ matkit.solve_linear(shifted, f.conj().T)
    if isinstance(model, FreeLattice1D):
        amps, dist = rigging._sandwich
        powers = np.ones((len(zs), dist.max() + 1), dtype=complex)
        dens = np.empty(len(zs), dtype=complex)
        for i, zc in enumerate(zs.tolist()):  # Python complex, as a single z was
            try:
                powers[i, 1:], dens[i] = _zeta(zc)
            except BoundaryOutsideAC as exc:
                raise exc.at(i)
        # take keeps G C-contiguous: each product is the BLAS call of one z
        g = np.take(np.cumprod(powers, axis=1), dist, axis=1)
        g /= dens[:, None, None]
        return amps.conj().T @ g @ amps
    try:
        left = _resolvent_stack(model.left, rigging.left, zs)
    except LapLabError as exc:  # the right block may fail at an earlier z
        _resolvent_stack(model.right, rigging.right, zs[: exc.index])
        raise
    return _block_diagonal(left, _resolvent_stack(model.right, rigging.right, zs))


def sandwiched_resolvent(model: OperatorModel, rigging: Rigging, z) -> np.ndarray:
    """Evaluate T_z = F (H - z)^-1 F* as a k-by-k array.

    ``z`` may be a :class:`HalfPlanePoint` or any non-real complex number
    (values below the axis are the conjugate mirror and enable symmetry
    checks).  At real z the exact boundary formulas are used and their
    errors propagate: ``SingularMatrix`` when z hits finite spectrum,
    ``BoundaryOutsideAC`` at lattice band edges.

    The grid's stack evaluation at one z.  On the lattice T_z = A* G(z) A,
    with A and D precomputed per :class:`LatticeRigging`, G = zeta^D /
    (zeta - 1/zeta) and zeta^d by cumulative product (relative error ~ d*u).
    """
    return _resolvent_stack(model, rigging, np.array([_as_z(z)]))[0]


def boundary_exact(model: OperatorModel, rigging: Rigging, lam: float) -> np.ndarray | None:
    """Exact boundary value T_{lam + i0} where analytically available.

    Returns ``None`` ("absent") when no closed form applies -- lattice band
    edges, finite models with lam on the spectrum, direct sums with either
    summand absent.  Absent is a value, not an error: it instructs callers
    to extrapolate numerically instead.
    """
    _pair_check(model, rigging)
    lam = float(lam)
    if isinstance(model, FreeLattice1D):
        if abs(abs(lam) - 2.0) <= _BAND_EDGE_TOL:
            return None
        return sandwiched_resolvent(model, rigging, complex(lam, 0.0))
    if isinstance(model, FiniteHermitian):
        w = np.linalg.eigvalsh(model.h)
        scale = max(1.0, float(np.abs(w).max()) if w.size else 0.0)
        if w.size and np.abs(w - lam).min() <= 1e-10 * scale:
            return None
        return sandwiched_resolvent(model, rigging, complex(lam, 0.0))
    left = boundary_exact(model.left, rigging.left, lam)
    right = None if left is None else boundary_exact(model.right, rigging.right, lam)
    return None if right is None else _block_diagonal(left, right)


def tridiagonal_solve(diag, rhs) -> np.ndarray:
    """Solve (S + S* + diag) x = rhs, S the unit shift, by the Thomas algorithm.

    Pivots obey p_n = d_n - 1/p_{n-1}, and Im(-1/p) has the sign of Im p, so
    none vanishes when Im d < 0 at every site (or Im d > 0 at every site).
    """
    d = np.asarray(diag, dtype=complex).tolist()
    pivots = d[:1]
    for dn in d[1:]:
        pivots.append(dn - 1.0 / pivots[-1])
    b = np.asarray(rhs, dtype=complex)
    columns = b.reshape(len(d), -1).T.tolist()
    for col in columns:
        for n in range(1, len(d)):
            col[n] -= col[n - 1] / pivots[n - 1]
        col[-1] /= pivots[-1]
        for n in range(len(d) - 2, -1, -1):
            col[n] = (col[n] - col[n + 1]) / pivots[n]
    return np.array(columns).T.reshape(b.shape)


def truncated_lattice_T(
    rigging: LatticeRigging,
    z,
    n_sites: int = DEFAULT_TRUNCATION_SITES,
) -> np.ndarray:
    """Brute-force oracle: T_z of the lattice truncated to sites [-N, N].

    Solves the tridiagonal system directly (Thomas algorithm), independent of
    the closed-form kernel.  The truncation error decays like |zeta|^N, so
    y >= 0.1 already gives far better than 1e-8 agreement at N = 2000.
    """
    zc = _as_z(z)
    if zc.imag == 0.0:
        raise ValueError("truncation oracle needs Im z != 0")
    size = 2 * n_sites + 1
    reach = max(abs(s) for ch in rigging.channels for s, _ in ch)
    if reach >= n_sites:
        raise ValueError("channel support too wide for the truncation window")
    rhs = np.zeros((size, rigging.k), dtype=complex)
    for q, ch in enumerate(rigging.channels):
        for site, amp in ch:
            rhs[n_sites + site, q] = amp
    x = tridiagonal_solve(np.full(size, -zc), rhs)
    return rhs.conj().T @ x


def truncate_lattice(
    rigging: LatticeRigging,
    n_sites: int,
) -> tuple[FiniteHermitian, FiniteRigging]:
    """Explicit finite model of the truncated lattice (small N only).

    The returned pair reproduces the lattice T_z through the generic
    finite-model code path, which makes it a fully independent cross-check
    of the kernel formula.
    """
    size = 2 * n_sites + 1
    h = np.zeros((size, size), dtype=complex)
    idx = np.arange(size - 1)
    h[idx, idx + 1] = 1.0
    h[idx + 1, idx] = 1.0
    f = np.zeros((rigging.k, size), dtype=complex)
    for p, ch in enumerate(rigging.channels):
        for site, amp in ch:
            if abs(site) >= n_sites:
                raise ValueError("channel support too wide for the truncation window")
            f[p, n_sites + site] = np.conj(amp)
    return FiniteHermitian(h), FiniteRigging(f)
