"""Coupling resonances outside the band: the rank-one textbook case.

At lambda = 3 (outside the lattice band) the boundary value is the real
number -1/sqrt(5).  For the rank-one direction J = [1], the criterion
operator 1 + r T J is singular exactly at r = sqrt(5): the coupling at
which H0 + r P0 grows a bound state at 3.  The eigenvalue route finds it
from the spectrum of T J; a count of the zeros of det(1 + r T J) by the
argument principle and a truncated eigensolve confirm it independently.
"""

import numpy as np

from laplab import models, perturb

model, rig = models.FreeLattice1D(), models.delta_rigging()
direction = perturb.Direction(np.array([[1.0]]))

t3 = models.boundary_exact(model, rig, 3.0)
print(f"T_(3+i0) = {complex(t3[0, 0]):.12f}   (real: lambda is outside the band)")

verdict = perturb.regular_direction(model, rig, 3.0, direction, window=(-3.0, 3.0))
print(f"regular at anchor r = {verdict.witness_coupling} via the {verdict.method} route")
print("resonances found by the eigenvalue route:")
for res in verdict.resonances.resonances:
    print(f"  r = {res.coupling:.12f}  multiplicity {res.multiplicity}")
print(f"  (sqrt(5)     = {np.sqrt(5):.12f})")
report = verdict.resonances
print(f"zeros of det(1 + r T J) counted around the window: {report.root_count}")
print(f"couplings the eigenvalue route missed: {report.missed}  (agrees: {report.scan_agrees})")

print()
print("=== confirmation: the truncated operator has a bound state at 3 ===")
n_sites = 200  # the bound state decays like 0.38^|n|
h = np.diag(np.ones(2 * n_sites), 1) + np.diag(np.ones(2 * n_sites), -1)
h[n_sites, n_sites] = np.sqrt(5.0)
vals = np.linalg.eigvalsh(h)
print(f"eigenvalues of H0 + sqrt(5) P0 above the band: {vals[(vals > 2.0) & (vals < 4.0)]}")

print()
print("=== inside the band the picture flips ===")
t0 = models.boundary_exact(model, rig, 0.0)
print(f"T_(0+i0) = {complex(t0[0, 0])}  (strictly positive imaginary part)")
at_zero = perturb.regular_direction(model, rig, 0.0, direction)
print(f"resonance set at lambda = 0: {at_zero.resonances.resonances!r}")
print("strict Herglotz positivity excludes real eigenvalues of T J,")
print("so no real coupling can break the limit once it exists here.")
