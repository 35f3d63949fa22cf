"""An eigenvalue embedded in the band, dissolved by coupling.

Take the free lattice (channel delta_0) plus a one-level block whose
eigenvalue sits exactly at lambda = 0, i.e. inside the essential spectrum
of the lattice.  The base boundary value diverges there -- the point mass
is a pole on the axis.  Coupling the two blocks through the off-diagonal
direction J = [[0,1],[1,0]] dissolves the embedded eigenvalue: at
coupling r = 1 the limit exists and equals [[0, 1], [1, 2i]], and the
only exceptional coupling (relative resonance) is r = 0 itself, with
multiplicity two.
"""

import numpy as np

from laplab import models, perturb

model, rig = models.make_direct_sum(
    (models.FreeLattice1D(), models.delta_rigging()),
    (models.FiniteHermitian(np.array([[0.0]])), models.FiniteRigging(np.array([[1.0]]))),
)

print("=== the base operator fails the limiting absorption principle at 0 ===")
base = perturb.boundary_limit(model, rig, 0.0)
print(f"verdict: {type(base).__name__}, blow-up exponent {base.blowup_exponent:.4f}")

print()
print("=== the swap direction regularizes it ===")
J = perturb.Direction(np.array([[0.0, 1.0], [1.0, 0.0]]))
verdict = perturb.regular_direction(model, rig, 0.0, J)
print(f"verdict: {type(verdict).__name__} at witness coupling r = {verdict.witness_coupling}")
print(f"method:  {verdict.method}, error estimate {verdict.error_estimate:.2e}")
print("limit T_(0+i0)(H_1):")
print(np.round(verdict.limit, 9))
print("resonance report (relative to the witness anchor):")
for res in verdict.resonances.resonances:
    print(f"  r = {res.coupling:+.2e}   multiplicity {res.multiplicity}")
print(f"contour cross-check agrees: {verdict.resonances.scan_agrees}")

print()
print("=== the canonical direction F*F works too (the theorem's content) ===")
semi = perturb.is_semi_regular(model, rig, 0.0)
print(f"verdict: {type(semi).__name__} at t = {semi.witness_coupling}")
print("limit T_(0+i0)(H0 + t F*F):")
print(np.round(semi.limit, 9))

print()
print("=== a direction that cannot help: J = 0 ===")
null = perturb.regular_direction(model, rig, 0.0, perturb.Direction.zero(2))
print(f"verdict: {type(null).__name__} (evidence of absence, not proof)")
for att in null.attempts:
    print(f"  anchor {att.anchor:+.1f}: {att.outcome} (exponent {att.detail:.3f})")
