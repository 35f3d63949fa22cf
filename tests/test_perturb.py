import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplab import lap, matkit, models, perturb
from laplab.errors import (
    AtResonance,
    EndpointOnSpectrum,
    GridEvaluationError,
    NotHermitian,
    SingularMatrix,
)

from conftest import random_finite_pair, random_hermitian

SQ5 = np.sqrt(5.0)


def finite_direct_T(model, rigging, a, z):
    """Independent route: assemble H + F*AF and sandwich it directly."""
    h = perturb.finite_perturbed_hamiltonian(model, rigging, a)
    return models.sandwiched_resolvent(models.FiniteHermitian(h), rigging, z)


class TestDirection:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            perturb.Direction(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_identity_and_zero(self):
        assert perturb.Direction.identity(3).k == 3
        assert (perturb.Direction.zero(2).j == 0).all()


class TestPerturbedResolvent:
    def test_zero_direction_is_identity(self):
        t = np.array([[0.3 + 0.4j, 0.1], [0.1, -0.2 + 0.9j]])
        np.testing.assert_allclose(
            perturb.perturbed_resolvent(t, np.zeros((2, 2))), t, rtol=0, atol=1e-15
        )

    def test_scalar_arithmetic(self):
        # (i/2) / (1 + i) = 0.25 + 0.25i
        out = perturb.perturbed_resolvent(np.array([[0.5j]]), np.array([[2.0]]))
        np.testing.assert_allclose(out, [[0.25 + 0.25j]], rtol=0, atol=1e-15)

    def test_stack_raises_for_first_resonant_matrix(self):
        a = np.diag([1.0, 2.0])
        stack = np.array([np.diag([0.5j, 0.2j + j]) for j in range(5)])
        stack[2] = np.diag([-1.0, 0.3])  # 1 + T a = diag(0, 1.6)
        stack[4] = np.diag([0.1, -0.5 + 1e-14])
        with pytest.raises(AtResonance) as err:
            perturb.perturbed_resolvent(stack, a)
        assert err.value.index == 2
        with pytest.raises(AtResonance) as single:
            perturb.perturbed_resolvent(stack[2], a)
        assert str(err.value) == str(single.value)
        assert err.value.sigma_min == single.value.sigma_min

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        a = random_hermitian(rng, 3)
        out = perturb.perturbed_resolvent(stack, a)
        for t, o in zip(stack, out):
            np.testing.assert_array_equal(o, perturb.perturbed_resolvent(t, a))

    def test_scalar_arithmetic_vs_truncated_lattice(self):
        # independent oracle: tridiagonal solve of H0 + 2 P0 on 80001 sites,
        # extrapolated over y >> level spacing (pi/N ~ 8e-5)
        n_sites = 40000

        def truncated_perturbed(pt):
            size = 2 * n_sites + 1
            diag = np.full(size, -pt.z)
            diag[n_sites] += 2.0
            rhs = np.zeros(size, dtype=complex)
            rhs[n_sites] = 1.0
            return np.array([[models.tridiagonal_solve(diag, rhs)[n_sites]]])

        grid = lap.YGrid(0.1, 0.5, 8)
        out = lap.extrapolate_limit(lap.evaluate_on_grid(truncated_perturbed, 0.0, grid), 1e-6)
        assert isinstance(out, lap.Converged)
        assert abs(complex(out.value[0, 0]) - (0.25 + 0.25j)) <= 1e-6

    def test_resonant_coupling_raises(self):
        with pytest.raises(AtResonance) as err:
            perturb.perturbed_resolvent(np.array([[-1.0 / SQ5]]), np.array([[SQ5]]))
        assert err.value.sigma_min <= 1e-12

    def test_identity_consistency_seeded(self):
        rng = np.random.default_rng(301)
        for _ in range(50):
            model, rig = random_finite_pair(rng)
            a = random_hermitian(rng, rig.k)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
            t = models.sandwiched_resolvent(model, rig, z)
            via_identity = perturb.perturbed_resolvent(t, a)
            direct = finite_direct_T(model, rig, a, z)
            assert np.linalg.norm(via_identity - direct, 2) <= 1e-10

    def test_composition_law(self):
        rng = np.random.default_rng(303)
        for _ in range(50):
            model, rig = random_finite_pair(rng)
            a = random_hermitian(rng, rig.k)
            b = random_hermitian(rng, rig.k)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
            t = models.sandwiched_resolvent(model, rig, z)
            stacked = perturb.perturbed_resolvent(perturb.perturbed_resolvent(t, a), b)
            merged = perturb.perturbed_resolvent(t, a + b)
            assert np.linalg.norm(stacked - merged, 2) <= 1e-10

    def test_left_right_identity(self):
        rng = np.random.default_rng(307)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            t = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            a = random_hermitian(rng, k)
            left = perturb.perturbed_resolvent(t, a)
            right = t @ np.linalg.inv(np.eye(k) + a @ t)
            assert np.linalg.norm(left - right, 2) <= 1e-10

    def test_herglotz_preserved(self):
        rng = np.random.default_rng(311)
        for _ in range(100):
            model, rig = random_finite_pair(rng)
            a = random_hermitian(rng, rig.k)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
            t = perturb.perturbed_resolvent(models.sandwiched_resolvent(model, rig, z), a)
            norm = max(np.linalg.norm(t, 2), 1e-300)
            assert np.linalg.eigvalsh(matkit.im_part(t))[0] >= -1e-10 * norm


class TestBoundaryLimit:
    def test_exact_route(self, lattice_delta0):
        model, rig = lattice_delta0
        out = perturb.boundary_limit(model, rig, 0.0)
        assert isinstance(out, lap.Converged)
        assert out.method == "exact" and out.error_estimate == 0.0
        np.testing.assert_allclose(out.value, [[0.5j]], rtol=0, atol=1e-14)

    def test_exact_route_with_coupling(self):
        # two channels at lam = 0.7 inside the band, coupled by a Hermitian a
        model = models.FreeLattice1D()
        rig = models.lattice_rigging({0: 1.0}, {1: 0.5, 2: 1j})
        a = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
        out = perturb.boundary_limit(model, rig, 0.7, a)
        assert isinstance(out, lap.Converged) and out.method == "exact"
        expected = perturb.perturbed_resolvent(models.boundary_exact(model, rig, 0.7), a)
        np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-14)

    def test_exact_route_at_resonance_raises(self, lattice_delta0):
        # T_{3+i0} = -1/sqrt(5), so the coupling sqrt(5) is a resonance
        model, rig = lattice_delta0
        with pytest.raises(AtResonance):
            perturb.boundary_limit(model, rig, 3.0, np.array([[SQ5]]))

    def test_numeric_route_divergence(self, embedded_model):
        model, rig = embedded_model
        out = perturb.boundary_limit(model, rig, 0.0)
        assert isinstance(out, lap.Diverged)
        assert 0.9 <= out.blowup_exponent <= 1.1


class TestCoupledT:
    def test_zero_coupling(self, embedded_model, swap_direction):
        model, rig = embedded_model
        z = 0.4 + 0.8j
        base = models.sandwiched_resolvent(model, rig, z)
        np.testing.assert_allclose(
            perturb.perturbed_resolvent(base, 0.0 * swap_direction.j),
            base,
            rtol=0,
            atol=1e-14,
        )

    def test_both_routes_by_hand(self):
        # H=[0], F=[1], J=[1], r=1, z=i: direct 1/(1-i), identity i/(1+i)
        model = models.FiniteHermitian(np.array([[0.0]]))
        rig = models.FiniteRigging(np.array([[1.0]]))
        base = models.sandwiched_resolvent(model, rig, 1j)
        via_identity = perturb.perturbed_resolvent(base, np.array([[1.0]]))
        np.testing.assert_allclose(via_identity, [[0.5 + 0.5j]], rtol=0, atol=1e-14)
        direct = finite_direct_T(model, rig, np.array([[1.0]]), 1j)
        np.testing.assert_allclose(direct, [[0.5 + 0.5j]], rtol=0, atol=1e-14)

    def test_boundary_through_exact_base(self, lattice_delta0):
        model, rig = lattice_delta0
        base = models.sandwiched_resolvent(model, rig, models.HalfPlanePoint(3.0, 0.0))
        t = perturb.perturbed_resolvent(base, np.array([[1.0]]))
        # (-1/sqrt5) / (1 - 1/sqrt5)
        expected = (-1 / SQ5) / (1 - 1 / SQ5)
        np.testing.assert_allclose(t, [[expected]], rtol=0, atol=1e-14)


class TestExistsAtCoupling:
    def test_zero_delta(self):
        cert = perturb.exists_at_coupling(np.array([[0.5j]]), np.zeros((1, 1)))
        assert cert and cert.exists and cert.null_vector is None

    def test_imaginary_part_blocks_cancellation(self):
        for t_val in (-7.0, -1.0, 0.5, 4.0):
            cert = perturb.exists_at_coupling(np.array([[0.5j]]), np.array([[t_val]]))
            assert cert.exists
            assert cert.sigma_min >= 1.0 - 1e-12  # |1 + it/2| >= 1

    def test_resonant_point_yields_null_vector(self):
        cert = perturb.exists_at_coupling(np.array([[-1.0 / SQ5]]), np.array([[SQ5]]))
        assert not cert.exists
        np.testing.assert_allclose(np.abs(cert.null_vector), [1.0], rtol=0, atol=1e-14)
        assert cert.residual <= 1e-14


class TestResonanceCouplings:
    def test_lattice_outside_band(self, lattice_delta0):
        model, rig = lattice_delta0
        t = models.boundary_exact(model, rig, 3.0)
        report = perturb.resonance_couplings(
            t, perturb.Direction(np.array([[1.0]])), window=(-5.0, 5.0), anchor=0.0
        )
        assert len(report.resonances) == 1
        res = report.resonances[0]
        assert res.multiplicity == 1
        assert abs(res.coupling - SQ5) <= 1e-8
        assert report.scan_agrees

    def test_strict_positivity_gives_empty(self, lattice_delta0):
        model, rig = lattice_delta0
        t = models.boundary_exact(model, rig, 0.0)  # i/2, positive imaginary part
        report = perturb.resonance_couplings(t, perturb.Direction(np.array([[1.0]])))
        assert report.resonances == ()
        assert report.scan_agrees

    def test_embedded_exact_anchor(self, swap_direction):
        t = np.array([[0.0, 1.0], [1.0, 2.0j]])
        report = perturb.resonance_couplings(t, swap_direction, window=(-5.0, 5.0), anchor=1.0)
        assert len(report.resonances) == 1
        res = report.resonances[0]
        assert res.multiplicity == 2
        assert abs(res.coupling) <= 1e-12
        assert report.scan_agrees

    def test_real_member_of_complex_cluster(self):
        # mu = 1 and its complex neighbour 1.9e-4 away share a cluster whose
        # mean is not real; the real member is still a resonance at r = 0
        t = np.diag([1.0, 1.00007 + 1.77e-4j])
        report = perturb.resonance_couplings(
            t, perturb.Direction.identity(2), window=(-0.5, 0.5), anchor=1.0
        )
        assert len(report.resonances) == 1
        res = report.resonances[0]
        assert res.multiplicity == 1
        assert abs(res.coupling) <= 1e-12
        assert report.scan_agrees

    @pytest.mark.parametrize(
        "t, window, expected",
        [
            (np.array([[1234.5]]), (-1.0, 1.0), [-1.0 / 1234.5]),
            (np.diag([3000.7, 0.5]), (-5.0, 5.0), [-2.0, -1.0 / 3000.7]),
        ],
    )
    def test_dip_narrower_than_grid_step(self, t, window, expected):
        # ||TJ|| > 200: sigma_min dips narrower than 1e-3, which the contour
        # counts like any other root
        report = perturb.resonance_couplings(
            t, perturb.Direction.identity(t.shape[0]), window=window
        )
        found = [res.coupling for res in report.resonances]
        np.testing.assert_allclose(found, expected, rtol=1e-12, atol=0)
        assert report.scan_agrees

    def test_scan_reports_missed_resonance(self, monkeypatch):
        # mu = -1/sqrt5 + 1e-10 i fails a reality test tightened to 1e-15,
        # yet sigma_min dips to ~2e-10 at r = sqrt5: the routes disagree
        tight = dataclasses.replace(perturb.DEFAULT_TOLERANCES, resonance_imag_rtol=1e-15)
        monkeypatch.setattr(perturb, "DEFAULT_TOLERANCES", tight)
        report = perturb.resonance_couplings(
            np.array([[-1.0 / SQ5 + 1e-10j]]), perturb.Direction(np.array([[1.0]]))
        )
        assert report.resonances == ()
        assert len(report.missed) == 1 and abs(report.missed[0] - SQ5) <= 1e-8
        assert report.scan_agrees is False

    def test_far_complex_root_ends_its_search_early(self, monkeypatch):
        # rho = 0.3 + 0.01i lies in the counting box, but sigma_min(1 + x mu)
        # = |mu| |x - rho| >= 0.033 near it: the Weyl bound ends the golden
        # section after a few steps instead of the ~50 down to xatol
        rho = 0.3 + 0.01j
        calls = []
        real = perturb._criterion_sigma

        def counted(tj, r):
            calls.append(r)
            return real(tj, r)

        monkeypatch.setattr(perturb, "_criterion_sigma", counted)
        report = perturb.resonance_couplings(
            np.array([[-1.0 / rho]]), perturb.Direction(np.array([[1.0]])), window=(-1.0, 1.0)
        )
        assert report.resonances == () and report.missed == ()
        assert report.root_count == 1 and report.scan_agrees
        assert 0 < len(calls) <= 8

    def test_dropped_resonance_is_named(self, monkeypatch):
        # the eigenvalue route loses r = -2 of diag(3000.7, 0.5): the contour
        # still counts two roots, and sigma_min names the missing one
        real = perturb._eigenvalue_route

        def dropping(*args):
            return [res for res in real(*args) if abs(res.coupling + 2.0) > 1e-9]

        monkeypatch.setattr(perturb, "_eigenvalue_route", dropping)
        report = perturb.resonance_couplings(
            np.diag([3000.7, 0.5]), perturb.Direction.identity(2), window=(-5.0, 5.0)
        )
        np.testing.assert_allclose([r.coupling for r in report.resonances], [-1.0 / 3000.7])
        assert report.root_count == 2
        assert len(report.missed) == 1 and abs(report.missed[0] + 2.0) <= 1e-9
        assert report.scan_agrees is False

    @pytest.mark.parametrize("coupling", [0.0, 1.0])
    def test_complex_root_on_resonance_slope(self, coupling):
        # a complex root 2.9e-4 from the real resonance at r = 0 is no miss;
        # with the off-diagonal coupling sigma_min is below sigma_dip on the
        # whole refinement interval and smallest at its end nearest r = 0
        rho = 2.69e-4 - 1.02e-4j
        t = np.array([[1.0, coupling], [0.0, 1.0 / (1.0 - rho)]])
        report = perturb.resonance_couplings(
            t, perturb.Direction.identity(2), window=(-0.5, 0.5), anchor=1.0
        )
        assert len(report.resonances) == 1 and abs(report.resonances[0].coupling) <= 1e-12
        assert report.root_count == 2
        assert report.missed == ()
        assert report.scan_agrees

    def test_root_at_window_end(self):
        report = perturb.resonance_couplings(
            np.array([[1.0]]), perturb.Direction(np.array([[1.0]])), window=(-1.0, 1.0)
        )
        assert [res.coupling for res in report.resonances] == [-1.0]
        assert report.root_count == 1
        assert report.scan_agrees

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("x0", [0.1, 0.25, 0.7])
    def test_real_cluster_counted_in_full(self, m, x0):
        # m equal roots at x0 turn the phase by m times a single root's
        # turn between two nodes; each half must stay below pi/4 as well
        report = perturb.resonance_couplings(
            np.eye(m) * (-1.0 / x0), perturb.Direction.identity(m), window=(-1.0, 1.0)
        )
        assert len(report.resonances) == 1 and report.resonances[0].multiplicity == m
        assert report.root_count == m
        assert report.scan_agrees

    def test_root_on_contour_is_inconclusive(self):
        # window (-0.99, 0.01) puts the left edge of the box, and its middle
        # node, exactly on the root r = -1
        report = perturb.resonance_couplings(
            np.array([[1.0]]), perturb.Direction(np.array([[1.0]])), window=(-0.99, 0.01)
        )
        assert report.resonances == () and report.missed == ()
        assert report.root_count is None
        assert report.scan_agrees is False

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        k=st.integers(min_value=1, max_value=8),
        imag=st.sampled_from([0.0, 1e-3, 1e-2, 1.0]),
    )
    def test_root_count_matches_eigenvalues(self, seed, k, imag):
        # a real T J has real roots and conjugate pairs; a small imaginary
        # part moves roots just off the axis, in and out of the box
        rng = np.random.default_rng(seed)
        t = rng.normal(size=(k, k)) + 1j * imag * rng.normal(size=(k, k))
        window = (-1.0, 1.0)
        report = perturb.resonance_couplings(t, perturb.Direction.identity(k), window=window)
        mu = np.linalg.eigvals(t)
        roots = -1.0 / mu[mu != 0]
        h = 1e-2 * (window[1] - window[0])
        inside = (np.abs(roots.imag) <= h) & (np.abs(roots.real) <= window[1] + h)
        assert report.root_count == int(inside.sum())

    def test_strict_positivity_exclusion_random_directions(self):
        # Im T positive definite forbids real spectrum of T J for every J
        rng = np.random.default_rng(401)
        rig2 = models.lattice_rigging({0: 1.0}, {1: 1.0})
        t2 = models.boundary_exact(models.FreeLattice1D(), rig2, 0.3)
        assert np.linalg.eigvalsh(matkit.im_part(t2))[0] > 1e-8 * np.linalg.norm(t2, 2)
        for _ in range(100):
            j = random_hermitian(rng, 2)
            report = perturb.resonance_couplings(t2, perturb.Direction(j), cross_check=False)
            assert report.resonances == ()

    def test_anchor_independence(self, embedded_model, swap_direction):
        model, rig = embedded_model
        sets = []
        for anchor in (1.0, -1.0, 2.0):
            verdict = perturb.regular_direction(
                model, rig, 0.0, swap_direction, anchors=(anchor,)
            )
            assert isinstance(verdict, perturb.Regular)
            sets.append([r.coupling for r in verdict.resonances.resonances])
        for found in sets:
            assert len(found) == 1 and abs(found[0]) <= 1e-8


class TestRegularDirection:
    def test_lattice_band_center(self, lattice_delta0):
        model, rig = lattice_delta0
        verdict = perturb.regular_direction(
            model, rig, 0.0, perturb.Direction(np.array([[1.0]]))
        )
        assert isinstance(verdict, perturb.Regular)
        assert verdict.witness_coupling == 0.0
        assert verdict.method == "exact"
        assert verdict.resonances.resonances == ()

    def test_embedded_needs_second_anchor(self, embedded_model, swap_direction):
        model, rig = embedded_model
        verdict = perturb.regular_direction(model, rig, 0.0, swap_direction)
        assert isinstance(verdict, perturb.Regular)
        assert verdict.witness_coupling == 1.0
        assert verdict.method == "extrapolated"
        np.testing.assert_allclose(
            verdict.limit, [[0.0, 1.0], [1.0, 2.0j]], rtol=0, atol=1e-6
        )
        res = verdict.resonances.resonances
        assert len(res) == 1 and res[0].multiplicity == 2 and abs(res[0].coupling) <= 1e-8

    def test_zero_direction_not_observed(self, embedded_model):
        model, rig = embedded_model
        verdict = perturb.regular_direction(model, rig, 0.0, perturb.Direction.zero(2))
        assert isinstance(verdict, perturb.NotObserved)
        assert len(verdict.attempts) == len(perturb.DEFAULT_ANCHORS)
        assert all(att.outcome == "diverged" for att in verdict.attempts)

    def test_attempt_diagnostics_carry_exponent(self, embedded_model, swap_direction):
        model, rig = embedded_model
        verdict = perturb.regular_direction(model, rig, 0.0, swap_direction)
        # anchor 0 failed first, with a pole-rate diagnostic
        assert isinstance(verdict, perturb.Regular)

    def test_not_observed_diagnostics(self, embedded_model):
        model, rig = embedded_model
        verdict = perturb.regular_direction(
            model, rig, 0.0, perturb.Direction.zero(2), anchors=(0.0, 1.0)
        )
        assert isinstance(verdict, perturb.NotObserved)
        for att in verdict.attempts:
            assert att.outcome == "diverged"
            assert 0.9 <= att.detail <= 1.1


class TestSampledOnce:
    @staticmethod
    def _count_kernel(monkeypatch, fail_at=None):
        """Record the z-stack of each kernel evaluation; optionally plant a
        failure at one grid index."""
        calls = []
        kernel = perturb._resolvent_stack

        def counted(model_, rigging, zs):
            calls.append(zs)
            out = kernel(model_, rigging, zs)
            if fail_at is not None:
                raise SingularMatrix("planted failure").at(fail_at)
            return out

        monkeypatch.setattr(perturb, "_resolvent_stack", counted)
        return calls

    def test_kernel_sampled_once_per_verdict(self, embedded_model, swap_direction, monkeypatch):
        # anchor 0 diverges and anchor 1 converges: both couple the same samples
        model, rig = embedded_model
        calls = self._count_kernel(monkeypatch)
        verdict = perturb.regular_direction(model, rig, 0.0, swap_direction, anchors=(0.0, 1.0))
        assert isinstance(verdict, perturb.Regular) and verdict.witness_coupling == 1.0
        assert verdict.method == "extrapolated"
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0].imag, lap.DEFAULT_GRID.points())

    def test_base_sample_failure_fails_every_anchor(self, embedded_model, swap_direction, monkeypatch):
        model, rig = embedded_model
        bad_y = lap.DEFAULT_GRID.points()[3]
        calls = self._count_kernel(monkeypatch, fail_at=3)
        anchors = (0.0, 1.0, -1.0)
        verdict = perturb.regular_direction(model, rig, 0.0, swap_direction, anchors=anchors)
        assert isinstance(verdict, perturb.NotObserved)
        assert [(a.anchor, a.outcome, a.detail) for a in verdict.attempts] == [
            (r0, "error", bad_y) for r0 in anchors
        ]
        assert len(calls) == 1
        with pytest.raises(GridEvaluationError) as err:
            perturb.boundary_limit(model, rig, 0.0, swap_direction.j)
        assert err.value.y == bad_y
        assert str(err.value) == f"evaluation failed at y={bad_y!r}: planted failure"

    def test_call_budget_does_not_grow_with_the_grid(self, embedded_model, swap_direction, monkeypatch):
        # every y-sample layer is one stacked call: the LAPACK call count of a
        # verdict on the numeric route does not depend on the number of samples
        model, rig = embedded_model
        counts = {}
        for name in ("svd", "solve"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, **kwargs):
                counts["calls"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        budget = []
        for n in (10, 20):
            counts["calls"] = 0
            verdict = perturb.regular_direction(model, rig, 0.0, swap_direction, grid=lap.YGrid(n=n))
            assert isinstance(verdict, perturb.Regular) and verdict.method == "extrapolated"
            budget.append(counts["calls"])
        assert budget[0] == budget[1] > 0


class TestZeroCoupling:
    @staticmethod
    def _count_identity(monkeypatch):
        calls = []
        identity = perturb.perturbed_resolvent

        def counted(t, a):
            calls.append((np.shape(t), a))
            return identity(t, a)

        monkeypatch.setattr(perturb, "perturbed_resolvent", counted)
        return calls

    @pytest.mark.parametrize("route", ["exact", "extrapolated", "diverged"])
    def test_zero_is_no_coupling(self, route, lattice_delta0, embedded_model, monkeypatch):
        # lam = 0 in each: in the band; on the spectrum but F-orthogonal to
        # its eigenvector; on the embedded eigenvalue
        model, rig = {
            "exact": lattice_delta0,
            "extrapolated": (
                models.FiniteHermitian(np.diag([0.0, 1.0])),
                models.FiniteRigging(np.array([[0.0, 1.0]])),
            ),
            "diverged": embedded_model,
        }[route]
        uncoupled = perturb.boundary_limit(model, rig, 0.0)
        calls = self._count_identity(monkeypatch)
        out = perturb.boundary_limit(model, rig, 0.0, np.zeros((rig.k, rig.k)))
        assert calls == []
        if route == "diverged":
            assert isinstance(out, lap.Diverged) and out == uncoupled
        else:
            assert out.method == uncoupled.method == route
            np.testing.assert_array_equal(out.value, uncoupled.value)
            assert out.error_estimate == uncoupled.error_estimate

    def test_anchor_zero_makes_no_identity_calls(self, embedded_model, swap_direction, monkeypatch):
        # anchor 0 diverges without coupling; anchor 1 couples all samples in one call
        model, rig = embedded_model
        calls = self._count_identity(monkeypatch)
        verdict = perturb.regular_direction(model, rig, 0.0, swap_direction, anchors=(0.0, 1.0))
        assert isinstance(verdict, perturb.Regular) and verdict.witness_coupling == 1.0
        assert [shape for shape, _ in calls] == [(lap.DEFAULT_GRID.n, 2, 2)]
        np.testing.assert_array_equal(calls[0][1], swap_direction.j)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 3)])
    def test_zero_of_wrong_shape_raises(self, shape, embedded_model):
        model, rig = embedded_model
        with pytest.raises(ValueError):
            perturb.boundary_limit(model, rig, 0.3, np.zeros(shape))


class TestIsSemiRegular:
    def test_lattice(self, lattice_delta0):
        model, rig = lattice_delta0
        verdict = perturb.is_semi_regular(model, rig, 0.0)
        assert isinstance(verdict, perturb.Regular)

    def test_embedded_worked_instance(self, embedded_model):
        model, rig = embedded_model
        verdict = perturb.is_semi_regular(model, rig, 0.0)
        assert isinstance(verdict, perturb.Regular)
        assert verdict.witness_coupling == 1.0
        np.testing.assert_allclose(
            verdict.limit, np.diag([0.2 + 0.4j, 1.0]), rtol=0, atol=1e-6
        )

    def test_finite_point_shifted_away(self):
        # H=[0], F=[1], lam=0: anchor 0 diverges, anchor 1 gives T = 1
        model = models.FiniteHermitian(np.array([[0.0]]))
        rig = models.FiniteRigging(np.array([[1.0]]))
        verdict = perturb.is_semi_regular(model, rig, 0.0)
        assert isinstance(verdict, perturb.Regular)
        assert verdict.witness_coupling == 1.0
        np.testing.assert_allclose(verdict.limit, [[1.0]], rtol=0, atol=1e-10)


def brute_force_flow(h0, v, lam, r_from, r_to, steps=400):
    """Track sorted eigenvalue branches on a dense coupling grid and count
    signed crossings of lam (upward = +1)."""
    rs = np.linspace(r_from, r_to, steps + 1)
    branches = np.array([np.linalg.eigvalsh(h0 + r * v) for r in rs])
    signs = np.sign(branches - lam)
    total = 0
    for i in range(branches.shape[1]):
        s = signs[:, i]
        flips = np.diff(s) / 2.0
        total += int(round(flips.sum()))
    return total


class TestSpectralFlow:
    def test_single_upward_crossing(self):
        assert perturb.spectral_flow_finite(np.array([[0.0]]), np.array([[1.0]]), 0.5, 0.0, 1.0) == 1

    def test_zero_direction(self):
        h = np.diag([0.0, 2.0])
        assert perturb.spectral_flow_finite(h, np.zeros((2, 2)), 0.5, 0.0, 1.0) == 0

    def test_counting_function_difference(self):
        # diag(-1, 1) + r I through 0.5: one eigenvalue below at both ends
        h = np.diag([-1.0, 1.0])
        assert perturb.spectral_flow_finite(h, np.eye(2), 0.5, 0.0, 1.0) == 0

    def test_endpoint_on_spectrum(self):
        with pytest.raises(EndpointOnSpectrum):
            perturb.spectral_flow_finite(np.array([[0.5]]), np.array([[1.0]]), 0.5, 0.0, 1.0)

    def test_against_brute_force_tracking(self):
        rng = np.random.default_rng(601)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 9))
            h0 = random_hermitian(rng, n)
            v = random_hermitian(rng, n)
            lam = float(rng.uniform(-1.5, 1.5))
            r_from, r_to = sorted(rng.uniform(-2.0, 2.0, size=2))
            if r_to - r_from < 0.1:
                continue
            endpoints = [np.linalg.eigvalsh(h0 + r * v) for r in (r_from, r_to)]
            if min(np.abs(w - lam).min() for w in endpoints) < 1e-4:
                continue
            flow = perturb.spectral_flow_finite(h0, v, lam, r_from, r_to)
            assert flow == brute_force_flow(h0, v, lam, r_from, r_to)
            done += 1
