"""Dense complex small-matrix kernels.

Everything here is a pure function on plain ``numpy`` arrays; auxiliary
spaces in scope have k <= 64, so all paths are dense and double precision.
LAPACK (through numpy) does the heavy lifting; this module owns the
validation contracts, deterministic ordering, and error mapping.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import ConvergenceFailure, NotHermitian, NotPSD, SingularMatrix


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array with finite entries."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _as_square_stack(m) -> np.ndarray:
    """Coerce to a complex (..., k, k) stack with finite entries; a matrix is a stack of one."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_square(m) -> np.ndarray:
    return _as_square_stack(as_matrix(m))


def operator_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(as_matrix(m), 2))


def is_hermitian(m) -> bool:
    a = as_square(m)
    scale = float(np.abs(a).max()) if a.size else 0.0
    diff = float(np.abs(a - a.conj().T).max())
    if scale == 0.0:
        return diff == 0.0
    return diff <= DEFAULT_TOLERANCES.hermitian_rtol * scale


def require_hermitian(m) -> np.ndarray:
    a = as_square(m)
    if not is_hermitian(a):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return a


def solve_linear(m, b) -> np.ndarray:
    """Solve M X = B for square M, or for each M of a (..., k, k) stack,
    rejecting numerically singular systems.

    Raises ``SingularMatrix`` when the smallest singular value of M is at
    or below ``solve_singular_rtol * ||M||``, for the first such M in stack
    order, with its position in ``index``.
    """
    a = _as_square_stack(m)
    rhs = np.asarray(b, dtype=complex)
    if rhs.shape[0 if rhs.ndim == 1 else -2] != a.shape[-1]:
        raise ValueError(f"shapes not conformable: {a.shape} vs {rhs.shape}")
    svals = np.linalg.svd(a, compute_uv=False).reshape(-1, a.shape[-1])
    rtol = DEFAULT_TOLERANCES.solve_singular_rtol
    bad = np.flatnonzero(svals[:, -1] <= rtol * svals[:, 0])
    if bad.size:
        s = svals[bad[0]]
        raise SingularMatrix(f"sigma_min={s[-1]:.3e} <= {rtol:g} * sigma_max={s[0]:.3e}").at(bad[0])
    return np.linalg.solve(a, rhs)


def eig_general(m) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by (real, imag).

    The multiset includes algebraic multiplicity.  The ordering is
    deterministic for a fixed input.
    """
    a = as_square(m)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK cap
        raise ConvergenceFailure(str(exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition M = U diag(w) U* of a Hermitian matrix.

    Returns (w ascending, U with orthonormal columns).
    """
    a = require_hermitian(m)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    return w, u


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in ``[-psd_clamp_rtol * ||M||, 0)`` are clamped to zero;
    anything lower raises ``NotPSD``.
    """
    w, u = eig_hermitian(m)
    scale = float(np.abs(w).max()) if w.size else 0.0
    band = DEFAULT_TOLERANCES.psd_clamp_rtol * scale
    if w.size and w[0] < -band:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{band:.3e}")
    w = np.clip(w, 0.0, None)
    r = (u * np.sqrt(w)) @ u.conj().T
    return 0.5 * (r + r.conj().T)


def abs_hermitian(j) -> np.ndarray:
    """|J| = U diag(|w|) U* for Hermitian J."""
    w, u = eig_hermitian(j)
    a = (u * np.abs(w)) @ u.conj().T
    return 0.5 * (a + a.conj().T)


def im_part(t) -> np.ndarray:
    """Hermitian imaginary part (T - T*) / 2i.

    Exact identity by construction: im_part(T) + im_part(T*) == 0.
    Reconstruction re_part(T) + i * im_part(T) reproduces T up to a
    rounding at the matrix scale (bit-exactness is impossible alongside
    the Hermitian/anti-Hermitian split).
    """
    a = as_square(t)
    return (a - a.conj().T) * (-0.5j)


def re_part(t) -> np.ndarray:
    """Hermitian real part (T + T*) / 2."""
    a = as_square(t)
    return (a + a.conj().T) * 0.5


def smallest_singular(m) -> float:
    """sigma_min(M); zero iff M is singular up to numerics."""
    return float(np.linalg.svd(as_square(m), compute_uv=False)[-1])


def smallest_singular_triplet(m) -> tuple[float, np.ndarray, np.ndarray]:
    """(sigma_min, left vector u, right vector v) with M v = sigma_min u."""
    a = as_square(m)
    uu, ss, vh = np.linalg.svd(a)
    return float(ss[-1]), uu[:, -1], vh[-1].conj()


def min_eig_hermitian(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    w, _ = eig_hermitian(m)
    return float(w[0])
