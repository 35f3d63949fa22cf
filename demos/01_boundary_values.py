"""Boundary values of the free-lattice resolvent, exact and extrapolated.

The 1-d hopping operator has purely absolutely continuous spectrum [-2, 2].
Sandwiching its resolvent with the delta_0 channel gives the scalar
Herglotz function m(z) with the closed boundary value i / sqrt(4 - lam^2)
inside the band.  This script compares three routes to the same number:

1. the closed-form kernel evaluated directly on the axis,
2. Richardson/Neville extrapolation of m(lam + iy) over a geometric y-grid,
3. a brute-force banded solve on a 4001-site truncation (off the axis).
"""

import numpy as np

from laplab import lap, models, perturb

model = models.FreeLattice1D()
rig = models.delta_rigging()

print("=== boundary values on the band (-2, 2) ===")
print(f"{'lambda':>8} {'exact':>24} {'extrapolated':>24} {'error':>10}")
for lam in (-1.5, -0.5, 0.0, 0.9, 1.8):
    exact = complex(models.boundary_exact(model, rig, lam)[0, 0])
    samples = lap.evaluate_on_grid(
        lambda pt: models.sandwiched_resolvent(model, rig, pt), lam, lap.DEFAULT_GRID
    )
    out = lap.extrapolate_limit(samples, 1e-6)
    value = complex(out.value[0, 0])
    print(f"{lam:8.2f} {exact:24.12f} {value:24.12f} {abs(value - exact):10.2e}")

print()
print("the imaginary part pi * rho(lambda) recovers the arcsine density:")
for lam in (0.0, 1.0):
    im = models.boundary_exact(model, rig, lam)[0, 0].imag
    print(f"  Im m({lam}+i0) = {im:.12f}   vs 1/sqrt(4-lam^2) = {1/np.sqrt(4-lam**2):.12f}")

print()
print("=== outside the band the boundary value is real ===")
for lam in (2.5, 3.0, -3.0):
    value = complex(models.boundary_exact(model, rig, lam)[0, 0])
    print(f"  m({lam:+.1f}+i0) = {value.real:+.12f}  (imaginary part {value.imag:.1e})")

print()
print("=== truncation cross-check at z = 0.7 + 0.3i ===")
z = 0.7 + 0.3j
closed = models.sandwiched_resolvent(model, rig, z)[0, 0]
trunc = models.truncated_lattice_T(rig, z, n_sites=2000)[0, 0]
print(f"  closed form : {closed:.15f}")
print(f"  4001 sites  : {trunc:.15f}")
print(f"  difference  : {abs(closed - trunc):.2e}")

print()
print("=== a divergent case: grid trace of the point-mass channel ===")
point = models.FiniteHermitian(np.array([[0.0]]))
prig = models.FiniteRigging(np.array([[1.0]]))
outcome = perturb.boundary_limit(point, prig, 0.0)
print(f"  verdict: {type(outcome).__name__}, fitted blow-up exponent "
      f"{outcome.blowup_exponent:.3f} (a boundary pole has exponent 1)")
for y, nm in outcome.norms_trace[:5]:
    print(f"    y = {y:9.5f}   ||T|| = {nm:12.3f}")
