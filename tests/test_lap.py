import numpy as np
import pytest

from laplab import lap, models
from laplab.errors import GridEvaluationError, SingularMatrix


def lattice_map(rig=None):
    rig = rig or models.delta_rigging()
    return lambda pt: models.sandwiched_resolvent(models.FreeLattice1D(), rig, pt)


class TestYGrid:
    def test_defaults(self):
        g = lap.YGrid()
        pts = g.points()
        assert len(pts) == 20 and pts[0] == 0.1 and pts[1] == 0.05

    def test_floor_guard(self):
        with pytest.raises(ValueError):
            lap.YGrid(y0=1e-3, q=0.1, n=12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lap.YGrid(y0=-1.0)
        with pytest.raises(ValueError):
            lap.YGrid(q=1.0)
        with pytest.raises(ValueError):
            lap.YGrid(n=3)


class TestEvaluateOnGrid:
    def test_constant_function(self):
        samples = lap.evaluate_on_grid(lambda pt: np.eye(2), 0.0, lap.YGrid(n=6))
        assert len(samples) == 6
        for _, v in samples:
            np.testing.assert_array_equal(v, np.eye(2))

    def test_lattice_values_approach_boundary(self):
        samples = lap.evaluate_on_grid(lattice_map(), 0.0, lap.YGrid(0.1, 0.5, 8))
        values = [complex(v[0, 0]) for _, v in samples]
        errs = [abs(v - 0.5j) for v in values]
        assert errs == sorted(errs, reverse=True) and errs[-1] < errs[0]

    def test_point_mass_pole_rate(self):
        model = models.FiniteHermitian(np.array([[0.0]]))
        rig = models.FiniteRigging(np.array([[1.0]]))
        samples = lap.evaluate_on_grid(
            lambda pt: models.sandwiched_resolvent(model, rig, pt), 0.0, lap.YGrid(0.1, 0.5, 8)
        )
        for y, v in samples:
            assert complex(v[0, 0]) == pytest.approx(1j / y, rel=1e-12)

    def test_error_carries_offending_y(self):
        grid = lap.YGrid(0.1, 0.5, 6)
        bad_y = grid.points()[3]

        def flaky(pt):
            if pt.y == bad_y:
                raise SingularMatrix("boom")
            return np.eye(1)

        with pytest.raises(GridEvaluationError) as err:
            lap.evaluate_on_grid(flaky, 0.0, grid)
        assert err.value.y == bad_y


class TestExtrapolateLimit:
    def test_lattice_band_center(self):
        samples = lap.evaluate_on_grid(lattice_map(), 0.0, lap.DEFAULT_GRID)
        out = lap.extrapolate_limit(samples, 1e-6)
        assert isinstance(out, lap.Converged)
        assert out.method == "extrapolated"
        assert abs(complex(out.value[0, 0]) - 0.5j) <= 1e-6

    def test_pure_pole_diverges(self):
        ys = lap.DEFAULT_GRID.points()
        samples = [(y, np.array([[1j / y]])) for y in ys]
        out = lap.extrapolate_limit(samples, 1e-6)
        assert isinstance(out, lap.Diverged)
        assert out.blowup_exponent == pytest.approx(1.0, abs=1e-9)
        assert len(out.norms_trace) == len(ys)

    def test_constant_samples(self):
        ys = lap.YGrid(0.1, 0.5, 6).points()
        out = lap.extrapolate_limit([(y, np.eye(2)) for y in ys], 1e-6)
        assert isinstance(out, lap.Converged)
        assert out.error_estimate == 0.0
        np.testing.assert_array_equal(out.value, np.eye(2))

    def test_permutation_independence(self):
        samples = lap.evaluate_on_grid(lattice_map(), 0.3, lap.DEFAULT_GRID)
        rng = np.random.default_rng(5)
        shuffled = [samples[i] for i in rng.permutation(len(samples))]
        a = lap.extrapolate_limit(samples, 1e-6)
        b = lap.extrapolate_limit(shuffled, 1e-6)
        np.testing.assert_array_equal(a.value, b.value)
        assert a.error_estimate == b.error_estimate

    def test_slow_drift_is_inconclusive(self):
        # norms grow like y^-0.25: not convergent, exponent below the 0.5 bar
        ys = lap.DEFAULT_GRID.points()
        samples = [(y, np.array([[y**-0.25]])) for y in ys]
        out = lap.extrapolate_limit(samples, 1e-6)
        assert isinstance(out, lap.Inconclusive)
        assert out.blowup_exponent == pytest.approx(0.25, abs=1e-6)

    def test_needs_four_samples(self):
        with pytest.raises(ValueError):
            lap.extrapolate_limit([(0.1, np.eye(1)), (0.05, np.eye(1)), (0.025, np.eye(1))])

    def test_finite_model_pole_vs_regular_point(self):
        h = models.FiniteHermitian(np.diag([0.0, 1.0]))
        rig = models.FiniteRigging(np.array([[1.0, 1.0]]))
        probe = lambda pt: models.sandwiched_resolvent(h, rig, pt)
        on = lap.extrapolate_limit(lap.evaluate_on_grid(probe, 0.0, lap.DEFAULT_GRID), 1e-6)
        assert isinstance(on, lap.Diverged)
        assert 0.9 <= on.blowup_exponent <= 1.1
        off = lap.extrapolate_limit(lap.evaluate_on_grid(probe, 0.5, lap.DEFAULT_GRID), 1e-6)
        assert isinstance(off, lap.Converged)
        # oracle: 1/(0-0.5) + 1/(1-0.5) = 0
        assert abs(complex(off.value[0, 0])) <= 1e-6

    def test_doubling_grid_keeps_verdicts(self, embedded_model, lattice_delta0):
        # stability: doubling n never flips Converged -> Diverged
        for (model, rig), lam in [(lattice_delta0, 0.0), (embedded_model, 0.0)]:
            probe = lambda pt: models.sandwiched_resolvent(model, rig, pt)
            kinds = []
            for n in (20, 40):
                grid = lap.YGrid(0.1, 0.7, n)
                out = lap.extrapolate_limit(lap.evaluate_on_grid(probe, lam, grid), 1e-6)
                kinds.append(type(out).__name__)
            assert kinds[0] == kinds[1]

