"""Machine certificates for the regular-direction theorem and corollaries.

Each verifier establishes its premise on a concrete scenario, runs the
conclusion, and returns a certificate embedding both verdicts.  The
randomized sweeps replay this over seeded embedded-eigenvalue scenarios
(scenario i derives from master seed + i); this script writes each
sweep's per-case details as JSON.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from laplab import models, perturb, verify

model, rig = models.make_direct_sum(
    (models.FreeLattice1D(), models.delta_rigging()),
    (models.FiniteHermitian(np.array([[0.0]])), models.FiniteRigging(np.array([[1.0]]))),
)
swap = perturb.Direction(np.array([[0.0, 1.0], [1.0, 0.0]]))

print("=== theorem: a regular J implies F*F is regular ===")
cert = verify.verify_regular_direction_theorem(
    model, rig, 0.0, swap, scenario="embedded worked instance"
)
print(f"premise  (J):   regular at r = {cert.premise.witness_coupling}")
print(f"conclusion (I): regular at t = {cert.conclusion.witness_coupling}")
print(f"certificate passed = {cert.passed}, vacuous = {cert.vacuous}")

print()
print("=== corollary: |J| inherits regularity (projected when singular) ===")
rank_one = perturb.Direction(np.array([[1.0, 1.0], [1.0, 1.0]]))
cert_abs = verify.verify_cor_abs(model, rig, 0.0, rank_one, scenario="rank-one |J|")
print(f"passed = {cert_abs.passed}; notes: {cert_abs.notes}")
if cert_abs.projected_resonances is not None:
    print(f"projected resonances: {cert_abs.projected_resonances.resonances}")

print()
print("=== corollary: enlarging a PSD direction preserves regularity ===")
cert_mono = verify.verify_cor_monotone(
    model, rig, 0.0, perturb.Direction(np.eye(2)), perturb.Direction(2.0 * np.eye(2))
)
print(f"passed = {cert_mono.passed}")

print()
print("=== proof-chain replay at a certified singular point ===")
t3 = models.boundary_exact(models.FreeLattice1D(), models.delta_rigging(), 3.0)
rep = verify.proof_chain_check(t3, perturb.Direction(np.array([[1.0]])), np.sqrt(5.0), 2.0)
print(f"status {rep.status}: eigen-residual {rep.eq1_residual:.1e}, "
      f"Im-annihilation {rep.im_annihilation:.1e}, real-part residual {rep.eq2_residual:.1e}")
print(f"recorded <psi, (s-J)^-1 psi> = {rep.inv_weight_form:.6f} "
      "(nonzero: no analytic family of singular points passes through here)")

print()
print("=== randomized sweeps (100 seeded scenarios each) ===")
outdir = Path(tempfile.mkdtemp(prefix="laplab-sweeps-"))
for kind in ("theorem", "cor-abs", "cor-monotone"):
    result = verify.run_sweep(kind, count=100)
    details = json.dumps(verify.sweep_details(result), indent=2, sort_keys=True)
    (outdir / f"{kind}.json").write_text(details + "\n", encoding="utf-8")
    print(f"{kind:13s}: established {result.established}/100, "
          f"vacuous {result.vacuous}, failures {result.failures}")
print(f"detail files written under {outdir}")
