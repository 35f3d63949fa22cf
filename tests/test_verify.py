import json

import numpy as np
import pytest

from laplab import matkit, models, perturb, verify
from laplab.errors import (
    DegenerateEigenvalue,
    InvalidPremise,
    NotSingular,
    SBelowNorm,
)

from conftest import random_hermitian

SQ5 = np.sqrt(5.0)


class TestNullVectorCertificate:
    def test_scalar(self):
        cert = verify.null_vector_certificate(np.array([[-1.0]]))
        np.testing.assert_allclose(np.abs(cert.vector), [1.0], rtol=0, atol=1e-15)
        assert cert.residual == 0.0

    def test_picks_the_singular_axis(self):
        cert = verify.null_vector_certificate(np.diag([-1.0, 5.0]))
        np.testing.assert_allclose(np.abs(cert.vector), [1.0, 0.0], rtol=0, atol=1e-15)

    def test_lattice_resonance_instance(self):
        # M = r T J at the lam=3 resonance: exact scalar cancellation
        m = np.array([[SQ5 * (-1.0 / SQ5) * 1.0]])
        cert = verify.null_vector_certificate(m)
        assert cert.residual <= 1e-10

    def test_embedded_resonance_instance(self, swap_direction):
        t = np.array([[0.0, 1.0], [1.0, 2.0j]])
        m = -1.0 * (t @ swap_direction.j)  # relative coupling r - r0 = -1
        cert = verify.null_vector_certificate(m)
        np.testing.assert_allclose(np.abs(cert.vector), [0.0, 1.0], rtol=0, atol=1e-14)
        assert cert.residual <= 1e-12

    def test_invertible_rejected(self):
        with pytest.raises(NotSingular):
            verify.null_vector_certificate(np.zeros((2, 2)))

    def test_residual_contract_on_seeded_singular_points(self):
        rng = np.random.default_rng(811)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            # build 1 + M exactly singular: M = -I on a random unit vector
            v = rng.normal(size=k) + 1j * rng.normal(size=k)
            v /= np.linalg.norm(v)
            m = -np.outer(v, v.conj()) + 0.1 * random_hermitian(rng, k)
            m = m - np.outer(v, v.conj() @ (m + np.outer(v, v.conj())))  # re-pin null vector
            op_norm = 1.0 + np.linalg.norm(m, 2)
            if matkit.smallest_singular(np.eye(k) + m) > 1e-8 * op_norm:
                continue
            cert = verify.null_vector_certificate(m)
            assert cert.residual <= 1e-8 * op_norm


class TestAnalyticPath:
    def test_value_and_derivative(self):
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        path = verify.AnalyticPath((a, b))
        np.testing.assert_array_equal(path.value(2.0), a + 2.0 * b)
        np.testing.assert_array_equal(path.derivative(2.0), b)

    def test_degree_cap(self):
        coeffs = tuple(np.eye(2) for _ in range(6))
        with pytest.raises(ValueError):
            verify.AnalyticPath(coeffs)

    def test_hermitian_coefficients_required(self):
        with pytest.raises(Exception):
            verify.AnalyticPath((np.array([[0.0, 1.0], [0.0, 0.0]]),))


class TestHellmannFeynman:
    def test_diagonal_path(self):
        path = verify.AnalyticPath((np.zeros((2, 2)), np.diag([1.0, -1.0])))
        assert verify.hellmann_feynman_derivative(path, 1.0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_offdiagonal_path(self):
        path = verify.AnalyticPath((np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert verify.hellmann_feynman_derivative(path, 1.0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_matches_central_difference(self):
        rng = np.random.default_rng(20260808)
        for _ in range(10):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            path = verify.AnalyticPath((a, b))
            w = np.linalg.eigvalsh(path.value(1.0))
            gaps = np.minimum(
                np.diff(w, prepend=-np.inf), np.diff(w, append=np.inf)
            )
            which = int(np.argmax(gaps))
            an = verify.hellmann_feynman_derivative(path, 1.0, which)
            h = 1e-4
            fd = (
                np.linalg.eigvalsh(path.value(1.0 + h))[which]
                - np.linalg.eigvalsh(path.value(1.0 - h))[which]
            ) / (2 * h)
            assert abs(an - fd) <= 1e-6

    def test_degenerate_rejected(self):
        path = verify.AnalyticPath((np.eye(2),))
        with pytest.raises(DegenerateEigenvalue):
            verify.hellmann_feynman_derivative(path, 1.0, 0)

    def test_index_out_of_range(self):
        path = verify.AnalyticPath((np.eye(2),))
        with pytest.raises(ValueError):
            verify.hellmann_feynman_derivative(path, 1.0, 5)


class TestProofChain:
    def test_lattice_lambda3_instance(self):
        # T real: the imaginary-part step is trivially zero, the rest exact
        t = np.array([[-1.0 / SQ5]])
        rep = verify.proof_chain_check(t, perturb.Direction(np.array([[1.0]])), SQ5, 2.0)
        assert rep.status == "checked"
        assert rep.eq1_residual <= 1e-10
        assert rep.im_annihilation == 0.0
        assert rep.eq2_residual <= 1e-10
        # <psi, (s - J)^-1 psi> = 1/(2 - 1); recorded, not asserted by theory
        assert rep.inv_weight_form == pytest.approx(1.0, abs=1e-12)

    def test_in_band_real_channel_instance(self):
        # channel f = (H0 - lam) delta_0 has T(lam + i0) = -lam inside the band
        lam = 1.0
        rig = models.lattice_rigging({-1: 1.0, 0: -lam, 1: 1.0})
        t = models.boundary_exact(models.FreeLattice1D(), rig, lam)
        np.testing.assert_allclose(t, [[-lam]], rtol=0, atol=1e-12)
        # 1 + r T (s - 1) = 0 at r = 1/(lam (s-1)); take s = 2
        rep = verify.proof_chain_check(t, perturb.Direction(np.array([[1.0]])), 1.0 / lam, 2.0)
        assert rep.status == "checked"
        assert rep.eq1_residual <= 1e-8
        assert rep.im_annihilation <= 1e-7
        assert rep.eq2_residual <= 1e-7

    def test_embedded_template_has_no_singular_point(self, swap_direction):
        # with s - J positive definite the anchor limit is never singular:
        # the Herglotz structure blocks it (the theorem's own mechanism)
        t = np.array([[0.0, 1.0], [1.0, 2.0j]])
        with pytest.raises(NotSingular):
            verify.proof_chain_check(t, swap_direction, -1.0, 2.0)

    def test_positive_definite_im_is_vacuous(self):
        rep = verify.proof_chain_check(
            np.array([[0.5j]]), perturb.Direction(np.array([[1.0]])), 3.0, 2.0
        )
        assert rep.status == "vacuously_consistent"
        assert rep.eq1_residual is None

    def test_s_below_norm_rejected(self):
        with pytest.raises(SBelowNorm):
            verify.proof_chain_check(
                np.array([[-1.0]]), perturb.Direction(np.array([[3.0]])), 1.0, 2.0
            )


class TestRegularDirectionTheorem:
    def test_embedded_worked_instance(self, embedded_model, swap_direction):
        model, rig = embedded_model
        cert = verify.verify_regular_direction_theorem(model, rig, 0.0, swap_direction)
        assert cert.passed and not cert.vacuous
        assert isinstance(cert.conclusion, perturb.Regular)
        assert cert.conclusion.witness_coupling == 1.0
        np.testing.assert_allclose(
            cert.conclusion.limit, np.diag([0.2 + 0.4j, 1.0]), rtol=0, atol=1e-6
        )

    def test_lattice_trivial_case(self, lattice_delta0):
        model, rig = lattice_delta0
        cert = verify.verify_regular_direction_theorem(model, rig, 0.0, perturb.Direction(np.array([[5.0]])))
        assert cert.passed and not cert.vacuous
        assert cert.premise.witness_coupling == 0.0
        assert cert.conclusion.witness_coupling == 0.0

    def test_zero_direction_vacuous(self, embedded_model):
        model, rig = embedded_model
        cert = verify.verify_regular_direction_theorem(model, rig, 0.0, perturb.Direction.zero(2))
        assert cert.vacuous and cert.passed
        assert "premise unestablished" in cert.notes
        assert cert.conclusion is None


class TestVacuousCertificates:
    def test_three_claims_share_one_shape(self, embedded_model):
        # diag(1, 0) and 0 leave the embedded point untouched: no premise
        model, rig = embedded_model
        unseen = perturb.Direction(np.diag([1.0, 0.0]))
        certs = [
            verify.verify_regular_direction_theorem(model, rig, 0.0, perturb.Direction.zero(2)),
            verify.verify_cor_abs(model, rig, 0.0, unseen),
            verify.verify_cor_monotone(model, rig, 0.0, unseen, perturb.Direction(np.eye(2))),
        ]
        assert [c.claim for c in certs] == [
            "regular-direction-theorem", "corollary-abs", "corollary-monotone"
        ]
        for cert in certs:
            assert isinstance(cert.premise, perturb.NotObserved)
            assert cert.conclusion_direction is not None
            assert (cert.vacuous, cert.passed, cert.conclusion) == (True, True, None)
            assert cert.notes == ("premise unestablished",)
            assert cert.projected_resonances is None


class TestCorollaryAbs:
    def test_swap_direction(self, embedded_model, swap_direction):
        model, rig = embedded_model
        cert = verify.verify_cor_abs(model, rig, 0.0, swap_direction)
        assert cert.passed and not cert.vacuous
        np.testing.assert_allclose(cert.conclusion_direction.j, np.eye(2), rtol=0, atol=1e-12)

    def test_idempotent_case_is_vacuous(self, embedded_model):
        # J = diag(1, 0) leaves the embedded point untouched: premise never
        # establishes, certificate passes vacuously
        model, rig = embedded_model
        cert = verify.verify_cor_abs(model, rig, 0.0, perturb.Direction(np.diag([1.0, 0.0])))
        assert cert.vacuous and cert.passed

    def test_negative_scalar(self, lattice_delta0):
        model, rig = lattice_delta0
        cert = verify.verify_cor_abs(model, rig, 0.0, perturb.Direction(np.array([[-1.0]])))
        assert cert.passed and not cert.vacuous
        np.testing.assert_allclose(cert.conclusion_direction.j, [[1.0]], rtol=0, atol=1e-15)

    def test_singular_abs_projects_to_range(self, embedded_model):
        # rank-one PSD J with coupling: |J| = J singular, projected analysis
        model, rig = embedded_model
        j = np.array([[1.0, 1.0], [1.0, 1.0]])
        cert = verify.verify_cor_abs(model, rig, 0.0, perturb.Direction(j))
        assert cert.passed and not cert.vacuous
        assert cert.projected_resonances is not None
        assert any("projected" in note for note in cert.notes)
        # projected candidates match the unprojected nonzero-eigenvalue route
        full = cert.conclusion.resonances.resonances
        proj = cert.projected_resonances.resonances
        assert len(full) == len(proj)
        for a, b in zip(full, proj):
            assert abs(a.coupling - b.coupling) <= 1e-7
            assert a.multiplicity == b.multiplicity


class TestCorollaryMonotone:
    def test_scalar_enlargement(self, lattice_delta0):
        model, rig = lattice_delta0
        cert = verify.verify_cor_monotone(
            model, rig, 0.0,
            perturb.Direction(np.array([[1.0]])), perturb.Direction(np.array([[3.0]])),
        )
        assert cert.passed and not cert.vacuous

    def test_identity_scaling(self, embedded_model):
        model, rig = embedded_model
        cert = verify.verify_cor_monotone(
            model, rig, 0.0, perturb.Direction(np.eye(2)), perturb.Direction(2 * np.eye(2))
        )
        assert cert.passed and not cert.vacuous

    def test_ordering_violation(self, lattice_delta0):
        model, rig = lattice_delta0
        with pytest.raises(InvalidPremise):
            verify.verify_cor_monotone(
                model, rig, 0.0,
                perturb.Direction(np.array([[1.0]])), perturb.Direction(np.array([[0.5]])),
            )

    def test_non_psd_premise(self, lattice_delta0):
        model, rig = lattice_delta0
        with pytest.raises(InvalidPremise):
            verify.verify_cor_monotone(
                model, rig, 0.0,
                perturb.Direction(np.array([[-1.0]])), perturb.Direction(np.array([[1.0]])),
            )


class TestSweeps:
    def test_embedded_scenario_generator(self):
        scn = verify.embedded_scenario(verify.MASTER_SEED)
        assert -1.9 <= scn.lam <= 1.9
        assert abs(scn.direction.j[0, 1]) >= 0.3
        # the planted point mass sits exactly at lam
        assert scn.model.right.h[0, 0] == scn.lam

    def test_generator_establishment_smoke(self):
        established = 0
        for i in range(20):
            scn = verify.embedded_scenario(verify.MASTER_SEED + i)
            verdict = perturb.regular_direction(
                scn.model, scn.rigging, scn.lam, scn.direction, cross_check=False
            )
            established += isinstance(verdict, perturb.Regular)
        assert established >= 16

    def test_sweep_details(self):
        res = verify.run_sweep("theorem", count=5)
        assert res.count == 5 and res.failures == 0
        detail = verify.sweep_details(res)
        assert detail["count"] == 5 and len(detail["scenarios"]) == 5
        assert detail["scenarios"][0]["scenario"] == f"theorem-seed-{verify.MASTER_SEED}"
        assert json.loads(json.dumps(detail)) == detail

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            verify.run_sweep("nonsense", count=1)
