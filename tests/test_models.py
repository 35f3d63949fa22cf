import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laplab import lap, models
from laplab.errors import BoundaryOutsideAC, SingularMatrix

from conftest import random_finite_pair

SQ5 = np.sqrt(5.0)


class TestFreeLatticeKernel:
    def test_band_center_boundary(self):
        # arcsine density 1/(pi sqrt(4-l^2)): Im = pi rho(0) = 1/2, Re = 0
        assert models.free_lattice_kernel(0.0 + 0.0j, 0, 0) == pytest.approx(0.5j, abs=1e-14)

    def test_outside_band_real_point(self):
        # zeta = (3 - sqrt5)/2, zeta - 1/zeta = -sqrt5
        v = models.free_lattice_kernel(3.0 + 0.0j, 0, 0)
        assert v == pytest.approx(-1.0 / SQ5, abs=1e-14)
        assert v.imag == 0.0

    def test_upper_half_plane_point(self):
        # zeta = i(1 - sqrt5)/2, zeta - 1/zeta = -i sqrt5
        assert models.free_lattice_kernel(1j, 0, 0) == pytest.approx(1j / SQ5, abs=1e-14)

    def test_negative_side_outside_band(self):
        v = models.free_lattice_kernel(-3.0 + 0.0j, 0, 0)
        assert v == pytest.approx(1.0 / SQ5, abs=1e-14)

    def test_band_edges_raise(self):
        for lam in (2.0, -2.0):
            with pytest.raises(BoundaryOutsideAC):
                models.free_lattice_kernel(complex(lam, 0.0), 0, 0)

    def test_in_band_boundary_values(self):
        assert models.free_lattice_kernel(1.0 + 0.0j, 0, 0) == pytest.approx(
            1j / np.sqrt(3.0), abs=1e-14
        )

    def test_boundary_imag_diagonal_closed_form(self):
        # Im R(lam+i0; n, n) = 1/sqrt(4 - lam^2) on a grid over (-1.9, 1.9)
        for lam in np.linspace(-1.9, 1.9, 39):
            v = models.free_lattice_kernel(complex(lam, 0.0), 3, 3)
            assert abs(v.imag - 1.0 / np.sqrt(4.0 - lam * lam)) <= 1e-12

    def test_translation_and_symmetry(self):
        z = 0.37 + 0.45j
        for n, m in [(0, 2), (-1, 4), (3, 3)]:
            assert models.free_lattice_kernel(z, n, m) == models.free_lattice_kernel(z, m, n)
            assert models.free_lattice_kernel(z, n, m) == models.free_lattice_kernel(
                z, 0, m - n
            )

    def test_continuity_onto_the_axis(self):
        for lam in (-1.3, 0.4, 1.7):
            bnd = models.free_lattice_kernel(complex(lam, 0.0), 0, 1)
            near = models.free_lattice_kernel(complex(lam, 1e-9), 0, 1)
            assert abs(bnd - near) <= 1e-8

    def test_against_truncated_lattice_oracle(self):
        # independent route: dense finite model through the generic machinery
        rig = models.lattice_rigging({-1: 0.5 + 0.25j, 0: 1.0, 2: -0.75j})
        fin_model, fin_rig = models.truncate_lattice(rig, 300)
        for z in (0.3 + 0.2j, -1.1 + 0.6j, 2.5 + 0.4j):
            exact = models.sandwiched_resolvent(models.FreeLattice1D(), rig, z)
            trunc = models.sandwiched_resolvent(fin_model, fin_rig, z)
            assert np.linalg.norm(exact - trunc, 2) <= 1e-9


class TestSandwichedResolvent:
    def test_scalar_finite_resolvent(self):
        model = models.FiniteHermitian(np.array([[0.0]]))
        rig = models.FiniteRigging(np.array([[1.0]]))
        t = models.sandwiched_resolvent(model, rig, 1j)
        np.testing.assert_allclose(t, [[1j]], rtol=0, atol=1e-15)

    def test_lattice_delta_channel(self, lattice_delta0):
        model, rig = lattice_delta0
        t = models.sandwiched_resolvent(model, rig, 1j)
        np.testing.assert_allclose(t, [[1j / SQ5]], rtol=0, atol=1e-14)

    def test_direct_sum_blocks(self, embedded_model):
        model, rig = embedded_model
        z = 0.3 + 0.7j
        t = models.sandwiched_resolvent(model, rig, z)
        np.testing.assert_allclose(
            t,
            np.diag([models.free_lattice_kernel(z, 0, 0), -1.0 / z]),
            rtol=0,
            atol=1e-14,
        )

    def test_finite_on_spectrum_boundary_raises(self):
        model = models.FiniteHermitian(np.array([[0.0]]))
        rig = models.FiniteRigging(np.array([[1.0]]))
        with pytest.raises(SingularMatrix):
            models.sandwiched_resolvent(model, rig, 0.0 + 0.0j)

    def test_herglotz_battery(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            model, rig = random_finite_pair(rng)
            z = complex(rng.uniform(-3, 3), rng.uniform(1e-3, 10.0))
            t = models.sandwiched_resolvent(model, rig, z)
            norm = max(np.linalg.norm(t, 2), 1e-300)
            w = np.linalg.eigvalsh((t - t.conj().T) * (-0.5j))
            assert w[0] >= -1e-10 * norm

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(73)
        rig = models.lattice_rigging({0: 1.0, 1: 0.5j}, {-2: 1.0})
        for _ in range(25):
            lam, y = rng.uniform(-3, 3), rng.uniform(1e-3, 5.0)
            upper = models.sandwiched_resolvent(models.FreeLattice1D(), rig, complex(lam, y))
            lower = models.sandwiched_resolvent(models.FreeLattice1D(), rig, complex(lam, -y))
            np.testing.assert_allclose(lower, upper.conj().T, rtol=0, atol=1e-12)
        for _ in range(25):
            model, frig = random_finite_pair(rng)
            lam, y = rng.uniform(-3, 3), rng.uniform(1e-3, 5.0)
            upper = models.sandwiched_resolvent(model, frig, complex(lam, y))
            lower = models.sandwiched_resolvent(model, frig, complex(lam, -y))
            np.testing.assert_allclose(lower, upper.conj().T, rtol=0, atol=1e-12)

    def test_mismatched_pair_rejected(self, lattice_delta0):
        model, _ = lattice_delta0
        with pytest.raises(TypeError):
            models.sandwiched_resolvent(model, models.FiniteRigging(np.array([[1.0]])), 1j)


class TestBoundaryExact:
    def test_lattice_band_center(self, lattice_delta0):
        model, rig = lattice_delta0
        np.testing.assert_allclose(
            models.boundary_exact(model, rig, 0.0), [[0.5j]], rtol=0, atol=1e-14
        )

    def test_lattice_inside_band(self, lattice_delta0):
        model, rig = lattice_delta0
        np.testing.assert_allclose(
            models.boundary_exact(model, rig, 1.0), [[1j / np.sqrt(3.0)]], rtol=0, atol=1e-14
        )

    def test_embedded_point_is_absent(self, embedded_model):
        model, rig = embedded_model
        assert models.boundary_exact(model, rig, 0.0) is None

    def test_band_edge_is_absent(self, lattice_delta0):
        model, rig = lattice_delta0
        assert models.boundary_exact(model, rig, 2.0) is None

    def test_finite_off_spectrum(self):
        model = models.FiniteHermitian(np.diag([1.0, -1.0]))
        rig = models.FiniteRigging(np.array([[1.0, 2.0]]))
        t = models.boundary_exact(model, rig, 0.0)
        # 1/(1-0) + 4/(-1-0) = -3
        np.testing.assert_allclose(t, [[-3.0]], rtol=0, atol=1e-13)

    def test_finite_on_spectrum_is_absent(self):
        model = models.FiniteHermitian(np.diag([1.0, -1.0]))
        rig = models.FiniteRigging(np.array([[1.0, 2.0]]))
        assert models.boundary_exact(model, rig, 1.0) is None

    def test_herglotz_at_boundary(self, lattice_delta0):
        model, rig = lattice_delta0
        for lam in (-1.5, 0.0, 0.9, 3.0):
            t = models.boundary_exact(model, rig, lam)
            w = np.linalg.eigvalsh((t - t.conj().T) * (-0.5j))
            assert w[0] >= -1e-12

    def test_boundary_consistency_with_extrapolation(self):
        # exact boundary values agree with the numeric y -> 0+ limit
        cases = [
            (models.FreeLattice1D(), models.lattice_rigging({0: 1.0, 1: -0.5 + 0.25j}),
             (-1.2, 0.0, 0.7)),
            (models.FiniteHermitian(np.diag([1.0, -1.0])),
             models.FiniteRigging(np.array([[1.0, 2.0], [0.5j, 1.0]])),
             (0.0, 0.4, 3.0)),
        ]
        for model, rig, lams in cases:
            for lam in lams:
                exact = models.boundary_exact(model, rig, lam)
                samples = lap.evaluate_on_grid(
                    lambda pt: models.sandwiched_resolvent(model, rig, pt), lam, lap.DEFAULT_GRID
                )
                outcome = lap.extrapolate_limit(samples, 1e-6)
                assert isinstance(outcome, lap.Converged)
                err = np.linalg.norm(outcome.value - exact, 2)
                assert err <= max(1e-6, 10.0 * outcome.error_estimate)


class TestDirectSum:
    def test_two_point_masses(self):
        point = lambda: (
            models.FiniteHermitian(np.array([[0.0]])),
            models.FiniteRigging(np.array([[1.0]])),
        )
        model, rig = models.make_direct_sum(point(), point())
        z = 0.5 + 0.25j
        np.testing.assert_allclose(
            models.sandwiched_resolvent(model, rig, z), (-1.0 / z) * np.eye(2), rtol=0, atol=1e-14
        )

    def test_embedded_blocks(self, embedded_model):
        model, rig = embedded_model
        z = -0.4 + 0.9j
        t = models.sandwiched_resolvent(model, rig, z)
        assert t[0, 1] == 0 and t[1, 0] == 0
        assert t[0, 0] == pytest.approx(models.free_lattice_kernel(z, 0, 0), abs=1e-14)
        assert t[1, 1] == pytest.approx(-1.0 / z, abs=1e-14)

    def test_associativity_witness(self):
        a = (models.FiniteHermitian(np.array([[0.5]])), models.FiniteRigging(np.array([[1.0]])))
        b = (models.FreeLattice1D(), models.delta_rigging())
        c = (models.FiniteHermitian(np.array([[-0.25]])), models.FiniteRigging(np.array([[2.0]])))
        left = models.make_direct_sum(models.make_direct_sum(a, b), c)
        right = models.make_direct_sum(a, models.make_direct_sum(b, c))
        z = 0.2 + 0.6j
        np.testing.assert_array_equal(
            models.sandwiched_resolvent(*left, z), models.sandwiched_resolvent(*right, z)
        )

    def test_essential_spectrum_metadata(self, embedded_model):
        model, _ = embedded_model
        assert models.essential_spectrum(model) == ((-2.0, 2.0),)
        assert models.essential_spectrum(models.FiniteHermitian(np.eye(2))) == ()
        twice = models.DirectSum(models.FreeLattice1D(), models.FreeLattice1D())
        assert models.essential_spectrum(twice) == ((-2.0, 2.0),)


class TestTruncationOracle:
    def test_lattice_vs_banded_truncation(self):
        rng = np.random.default_rng(79)
        rig = models.lattice_rigging({0: 1.0}, {1: 0.5, -1: 0.5j})
        for _ in range(8):
            z = complex(rng.uniform(-1.9, 1.9), rng.uniform(0.1, 2.0))
            exact = models.sandwiched_resolvent(models.FreeLattice1D(), rig, z)
            trunc = models.truncated_lattice_T(rig, z, n_sites=2000)
            assert np.linalg.norm(exact - trunc, 2) <= 1e-8

    def test_truncation_needs_offaxis_z(self):
        with pytest.raises(ValueError):
            models.truncated_lattice_T(models.delta_rigging(), 0.5 + 0.0j)


class TestValidation:
    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError):
            models.lattice_rigging({})

    def test_cancelling_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            models.LatticeRigging((((0, 1.0), (0, -1.0)),))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            models.FiniteRigging(np.array([[0.0, 0.0]]))

    def test_halfplane_point_validation(self):
        with pytest.raises(ValueError):
            models.HalfPlanePoint(0.0, -0.1)
        pt = models.HalfPlanePoint(1.5, 0.0)
        assert pt.boundary and pt.z == 1.5 + 0.0j


# hypothesis property checks -------------------------------------------------

_Y_FLOOR = lap.DEFAULT_GRID.points()[-1]
_amplitudes = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)


@st.composite
def _lattice_riggings(draw):
    """k = 1..8 channels over a shared pool of sites in -200..200."""
    pool = draw(st.lists(st.integers(-200, 200), min_size=1, max_size=8, unique=True))
    channel = st.dictionaries(st.sampled_from(pool), _amplitudes, min_size=1, max_size=4)
    return models.lattice_rigging(*draw(st.lists(channel, min_size=1, max_size=8)))


@st.composite
def _lattice_points(draw):
    """Off-axis z with y down to the grid floor, or real lam in or outside the band."""
    kind = draw(st.sampled_from(["upper", "band", "outside"]))
    if kind == "upper":
        y = 10.0 ** draw(st.floats(np.log10(_Y_FLOOR), 1.0))
        return complex(draw(st.floats(-6.0, 6.0)), y)
    if kind == "band":
        return complex(draw(st.floats(-2.0 + 1e-9, 2.0 - 1e-9)), 0.0)
    return complex(draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2.0 + 1e-9, 6.0)), 0.0)


def _scalar_sandwich(rigging, z):
    """T_z by a double loop over free_lattice_kernel, and the sum of |term| per entry."""
    k = rigging.k
    t = np.zeros((k, k), dtype=complex)
    size = np.zeros((k, k))
    for p, chp in enumerate(rigging.channels):
        for q, chq in enumerate(rigging.channels):
            for n, a in chp:
                for m, b in chq:
                    term = np.conj(a) * b * models.free_lattice_kernel(z, n, m)
                    t[p, q] += term
                    size[p, q] += abs(term)
    return t, size


@settings(max_examples=80, deadline=None)
@given(rig=_lattice_riggings(), z=_lattice_points())
@example(rig=models.lattice_rigging({-200: 1.0}, {200: 1j, -200: 0.5}), z=complex(0.3, _Y_FLOOR))
@example(rig=models.lattice_rigging({-200: 1.0, 200: -1.0}, {0: 1.0}), z=complex(-1.7, 0.0))
@example(rig=models.lattice_rigging({-150: 1.0}, {150: 2.0}), z=complex(2.5, 0.0))
def test_lattice_sandwich_matches_scalar_kernel(rig, z):
    t = models.sandwiched_resolvent(models.FreeLattice1D(), rig, z)
    oracle, size = _scalar_sandwich(rig, z)
    # relative to the terms before cancellation: delta_0 + delta_2 has T = 0 at lam = 0
    tol = 1e-12 * size.max()
    assert np.abs(t - oracle).max() <= tol
    # the branch: Im T >= 0 (Herglotz), and outside the band T <= 0 (lam > 2)
    # or T >= 0 (lam < -2), since H - lam is then negative or positive definite
    assert np.linalg.eigvalsh((t - t.conj().T) * (-0.5j))[0] >= -tol
    if z.imag == 0.0 and abs(z.real) > 2.0:
        assert np.linalg.eigvalsh(-np.sign(z.real) * (t + t.conj().T) / 2)[0] >= -tol


@pytest.mark.parametrize("lam", [2.0, -2.0, 2.0 + 1e-13, -2.0 - 1e-13])
def test_lattice_sandwich_band_edges_raise(lam):
    rig = models.lattice_rigging({-3: 1.0, 4: 0.5j}, {4: 2.0})
    with pytest.raises(BoundaryOutsideAC):
        models.sandwiched_resolvent(models.FreeLattice1D(), rig, complex(lam, 0.0))
    with pytest.raises(BoundaryOutsideAC):
        models.sandwiched_resolvent(models.FreeLattice1D(), rig, models.HalfPlanePoint(lam, 0.0))


@st.composite
def _stack_pairs(draw):
    """A lattice, finite or direct-sum (model, rigging) pair."""
    kind = draw(st.sampled_from(["lattice", "finite", "sum"]))
    lattice = (models.FreeLattice1D(), draw(_lattice_riggings()))
    finite = random_finite_pair(np.random.default_rng(draw(st.integers(0, 2**31 - 1))), n_max=6)
    return {"lattice": lattice, "finite": finite, "sum": models.make_direct_sum(lattice, finite)}[kind]


_upper_points = st.builds(
    complex, st.floats(-6.0, 6.0), st.floats(np.log10(_Y_FLOOR), 1.0).map(lambda e: 10.0**e)
)


@settings(max_examples=60, deadline=None)
@given(pair=_stack_pairs(), zs=st.lists(_upper_points, min_size=1, max_size=8))
def test_resolvent_stack_matches_single_points(pair, zs):
    stack = models._resolvent_stack(*pair, np.array(zs))
    assert stack.shape == (len(zs), pair[1].k, pair[1].k)
    for z, t in zip(zs, stack):
        single = models._resolvent_stack(*pair, np.array([z]))[0]
        assert np.abs(t - single).max() <= 1e-14 * np.abs(single).max()
        np.testing.assert_array_equal(models.sandwiched_resolvent(*pair, z), single)


@pytest.mark.parametrize(
    "placed, error, index",
    [
        ({1: 0.3, 2: -2.0}, SingularMatrix, 1),
        ({1: -2.0, 2: 0.3}, BoundaryOutsideAC, 1),
        ({1: 2.0, 2: 0.3}, BoundaryOutsideAC, 1),
        ({2: 0.3, 3: 2.0}, SingularMatrix, 2),
    ],
)
def test_resolvent_stack_raises_for_first_failing_point(placed, error, index):
    # the lattice (left) fails at band edges; the finite block (right), with
    # eigenvalues 0.3 and 2, at those; at z = 2 both fail, and the left
    # block's error is the one a single-point evaluation raises
    pair = models.make_direct_sum(
        (models.FreeLattice1D(), models.delta_rigging()),
        (models.FiniteHermitian(np.diag([0.3, 2.0])), models.FiniteRigging(np.eye(2))),
    )
    zs = np.full(5, 0.5 + 0.1j)
    zs[list(placed)] = list(placed.values())
    with pytest.raises(error) as err:
        models._resolvent_stack(*pair, zs)
    assert err.value.index == index
    with pytest.raises(error) as single:
        models.sandwiched_resolvent(*pair, zs[index])
    assert str(err.value) == str(single.value)
