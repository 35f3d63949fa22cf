import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplab import matkit
from laplab.errors import NotHermitian, NotPSD, SingularMatrix

from conftest import random_hermitian, random_psd


class TestSolveLinear:
    def test_identity(self):
        b = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(matkit.solve_linear(np.eye(2), b), b)

    def test_diagonal(self):
        x = matkit.solve_linear(np.diag([2.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(x, np.diag([0.5, 0.25]), rtol=0, atol=1e-15)

    def test_rank_deficient(self):
        with pytest.raises(SingularMatrix):
            matkit.solve_linear(np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_stack_raises_for_first_singular_matrix(self):
        stack = np.array([np.eye(2) * (1.0 + j) for j in range(5)], dtype=complex)
        stack[2] = [[1.0, 1.0], [0.0, 0.0]]
        stack[4] = [[2.0, 2.0], [1.0, 1.0]]
        with pytest.raises(SingularMatrix) as err:
            matkit.solve_linear(stack, np.eye(2))
        assert err.value.index == 2
        with pytest.raises(SingularMatrix) as single:
            matkit.solve_linear(stack[2], np.eye(2))
        assert str(err.value) == str(single.value)

    def test_stack_solves_each_matrix(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3)) + 4 * np.eye(3)
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        x = matkit.solve_linear(stack, b)
        for m, xm in zip(stack, x):
            np.testing.assert_array_equal(xm, matkit.solve_linear(m, b))

    def test_residual_on_seeded_corpus(self):
        # 500 well-conditioned random systems; residual stays at the contract
        rng = np.random.default_rng(101)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
            cond = np.linalg.cond(m)
            if cond > 1e6:
                continue
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            x = matkit.solve_linear(m, b)
            resid = np.linalg.norm(m @ x - b, 2)
            assert resid <= 1e-12 * max(np.linalg.norm(b, 2), 1.0) * cond


class TestEigGeneral:
    def test_diagonal(self):
        vals = matkit.eig_general(np.diag([1.0, 2.0j]))
        np.testing.assert_allclose(vals, [2.0j, 1.0], rtol=0, atol=1e-14)

    def test_triangular_product(self):
        # [[0,1],[1,2i]] @ [[0,1],[1,0]] is lower triangular with unit diagonal
        m = np.array([[0, 1], [1, 2j]]) @ np.array([[0, 1], [1, 0]])
        np.testing.assert_array_equal(m, np.array([[1, 0], [2j, 1]]))
        vals = matkit.eig_general(m)
        np.testing.assert_allclose(vals, [1.0, 1.0], rtol=0, atol=1e-12)
        # characteristic-polynomial oracle: mu^2 - tr mu + det
        tr, det = np.trace(m), np.linalg.det(m)
        for mu in vals:
            assert abs(mu * mu - tr * mu + det) <= 1e-12

    def test_defective_pair(self):
        # mu^2 - 2i mu - 1 = (mu - i)^2; roots split ~sqrt(eps) numerically
        vals = matkit.eig_general(np.array([[0, 1], [1, 2j]]))
        for mu in vals:
            assert abs(mu - 1j) <= 1e-6
            assert abs(mu * mu - 2j * mu - 1.0) <= 1e-12  # substitution oracle

    def test_transpose_multiset(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = matkit.eig_general(m)
            b = matkit.eig_general(m.T)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_deterministic_order(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        v1 = matkit.eig_general(m)
        v2 = matkit.eig_general(m.copy())
        np.testing.assert_array_equal(v1, v2)
        assert v1[0].real <= v1[1].real


class TestEigHermitian:
    def test_sorted(self):
        w, _ = matkit.eig_hermitian(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 3.0], rtol=0, atol=1e-14)

    def test_pauli(self):
        w, u = matkit.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), rtol=0, atol=1e-14)

    def test_identity(self):
        w, u = matkit.eig_hermitian(np.eye(3))
        np.testing.assert_allclose(w, [1, 1, 1], rtol=0, atol=0)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), rtol=0, atol=1e-14)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = random_hermitian(rng, int(rng.integers(1, 9)))
            w, u = matkit.eig_hermitian(m)
            norm = max(np.linalg.norm(m, 2), 1e-300)
            assert np.linalg.norm((u * w) @ u.conj().T - m, 2) <= 1e-11 * norm
            assert np.linalg.norm(u.conj().T @ u - np.eye(len(w)), 2) <= 1e-11

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            matkit.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matkit.psd_sqrt(np.eye(2)), np.eye(2), rtol=0, atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            matkit.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), rtol=0, atol=1e-14
        )

    def test_s_minus_j(self):
        # s - J for s = 2, J the swap matrix: eigenvalues 1 and 3 by hand
        m = 2.0 * np.eye(2) - np.array([[0.0, 1.0], [1.0, 0.0]])
        w = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(w, [1.0, 3.0], rtol=0, atol=1e-14)
        r = matkit.psd_sqrt(m)
        np.testing.assert_allclose(r @ r, m, rtol=0, atol=1e-10 * np.linalg.norm(m, 2))
        np.testing.assert_allclose(np.linalg.eigvalsh(r), [1.0, np.sqrt(3.0)], atol=1e-12)

    def test_clamps_tiny_negative(self):
        m = np.diag([1.0, -1e-12])
        r = matkit.psd_sqrt(m)
        assert np.linalg.eigvalsh(r)[0] >= 0

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            matkit.psd_sqrt(np.diag([1.0, -1.0]))

    def test_square_on_seeded_psd(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = random_psd(rng, int(rng.integers(1, 9)))
            r = matkit.psd_sqrt(m)
            norm = max(np.linalg.norm(m, 2), 1e-300)
            assert np.linalg.norm(r @ r - m, 2) <= 1e-10 * norm


class TestAbsHermitian:
    def test_diagonal(self):
        np.testing.assert_allclose(
            matkit.abs_hermitian(np.diag([2.0, -3.0])), np.diag([2.0, 3.0]), rtol=0, atol=1e-14
        )

    def test_swap(self):
        np.testing.assert_allclose(
            matkit.abs_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]])), np.eye(2), rtol=0, atol=1e-14
        )

    def test_zero(self):
        np.testing.assert_array_equal(matkit.abs_hermitian(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_dominance(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            j = random_hermitian(rng, int(rng.integers(1, 9)))
            a = matkit.abs_hermitian(j)
            norm = max(np.linalg.norm(j, 2), 1e-300)
            assert np.linalg.eigvalsh(a - j)[0] >= -1e-10 * norm
            assert np.linalg.eigvalsh(a + j)[0] >= -1e-10 * norm
            assert np.linalg.eigvalsh(a)[0] >= -1e-10 * norm


class TestParts:
    def test_scalar_boundary_value(self):
        t = np.array([[0.5j]])
        np.testing.assert_array_equal(matkit.im_part(t), np.array([[0.5]]))
        np.testing.assert_array_equal(matkit.re_part(t), np.array([[0.0]]))

    def test_hermitian_has_no_imaginary_part(self):
        t = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -3.0]])
        np.testing.assert_array_equal(matkit.im_part(t), np.zeros((2, 2)))

    def test_embedded_limit_parts(self):
        t = np.array([[0, 1], [1, 2j]])
        np.testing.assert_array_equal(matkit.im_part(t), np.diag([0.0, 2.0]))
        np.testing.assert_array_equal(matkit.re_part(t), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_antisymmetry_exact(self):
        # im_part(T) + im_part(T*) == 0 holds exactly, by construction
        rng = np.random.default_rng(41)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            t = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            assert (matkit.im_part(t) + matkit.im_part(t.conj().T) == 0).all()

    def test_reconstruction_one_ulp(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            t = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            back = matkit.re_part(t) + 1j * matkit.im_part(t)
            np.testing.assert_allclose(back, t, rtol=0, atol=4e-16 * np.abs(t).max())


class TestSmallestSingular:
    def test_identity(self):
        assert matkit.smallest_singular(np.eye(2)) == pytest.approx(1.0, abs=1e-15)

    def test_singular_diag(self):
        assert matkit.smallest_singular(np.diag([1.0, 0.0])) == 0.0

    def test_scalar_zero(self):
        assert matkit.smallest_singular(np.array([[0.0]])) == 0.0

    def test_triplet(self):
        sigma, u, v = matkit.smallest_singular_triplet(np.diag([3.0, 0.5]))
        assert sigma == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(np.abs(v), [0, 1], atol=1e-14)
        np.testing.assert_allclose(np.abs(u), [0, 1], atol=1e-14)


# hypothesis property checks -------------------------------------------------

_sizes = st.integers(min_value=1, max_value=6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), k=_sizes)
def test_solve_roundtrip_property(seed, k):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) + 4 * np.eye(k)
    b = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    x = matkit.solve_linear(m, b)
    assert np.linalg.norm(m @ x - b, 2) <= 1e-10 * max(1.0, np.linalg.norm(b, 2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), k=_sizes)
def test_psd_sqrt_property(seed, k):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, k)
    r = matkit.psd_sqrt(m)
    assert np.linalg.norm(r @ r - m, 2) <= 1e-10 * max(np.linalg.norm(m, 2), 1.0)
    assert np.linalg.eigvalsh(r)[0] >= -1e-12 * max(np.linalg.norm(r, 2), 1.0)
