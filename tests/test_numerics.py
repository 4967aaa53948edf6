import numpy as np
import pytest
from numpy.testing import assert_allclose

import maxcorr as mx
from maxcorr.errors import NonFinite, NotSymmetric
from maxcorr.numerics import (
    cg_minimum_norm,
    eigh,
    numerical_rank,
    pseudoinverse,
    solve_lp,
)

from conftest import lp_vertex_oracle, random_psd


def fixture_q():
    return mx.assemble_qd(mx.pairwise_from_joint(mx.nonadditive_fixture())).q


class TestSvd:
    """The eigh factor read as the SVD of a symmetric matrix: its singular
    values are |w|, which is why its rank cut is the SVD's."""

    @staticmethod
    def singular_values(a):
        return np.sort(np.abs(eigh(a).w))[::-1]

    def test_identity_singular_values(self):
        assert_allclose(self.singular_values(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-15)

    def test_all_ones_rank_one(self):
        res = eigh(np.ones((2, 2)))
        assert_allclose(res.w, [0.0, 2.0], atol=1e-15)
        assert res.kept().tolist() == [False, True]

    def test_reconstruction_is_its_own_oracle(self):
        rng = np.random.default_rng(99)
        a = rng.standard_normal((5, 5))
        a = a + a.T
        res = eigh(a)
        assert np.abs((res.v * res.w) @ res.v.T - a).max() < 1e-10

    def test_orthonormality(self):
        a = random_psd(6, seed=3, rank=4)
        res = eigh(a)
        assert_allclose(res.v.T @ res.v, np.eye(6), atol=1e-8)
        assert_allclose(res.v @ res.v.T, np.eye(6), atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_second_singular_value_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        perm = rng.permutation(6)
        s_base = self.singular_values(a)
        s_perm = self.singular_values(a[perm][:, perm])
        assert s_perm[1] == pytest.approx(s_base[1], abs=1e-10)
        assert_allclose(s_base, np.linalg.svd(a, compute_uv=False), atol=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            eigh(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def penrose_errors(a, a_pinv):
    return max(
        np.abs(a @ a_pinv @ a - a).max(),
        np.abs(a_pinv @ a @ a_pinv - a_pinv).max(),
        np.abs((a @ a_pinv).T - a @ a_pinv).max(),
        np.abs((a_pinv @ a).T - a_pinv @ a).max(),
    )


class TestPseudoinverse:
    def test_identity(self):
        assert_allclose(pseudoinverse(np.eye(4)), np.eye(4), atol=1e-15)

    def test_all_ones_two_by_two(self):
        assert_allclose(pseudoinverse(np.ones((2, 2))), np.full((2, 2), 0.25), atol=1e-15)

    def test_fixture_system_penrose_identities(self):
        q = fixture_q()
        assert penrose_errors(q, pseudoinverse(q)) < 1e-10

    @pytest.mark.parametrize("seed", range(100))
    def test_penrose_identities_random_psd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        rank = int(rng.integers(1, n + 1))
        a = random_psd(n, seed=rng.integers(1 << 31), rank=rank)
        assert penrose_errors(a, pseudoinverse(a)) < 1e-8


class TestNullspaceBasis:
    """The null columns of :func:`eigh`: the eigenvectors below the cut."""

    def test_identity_has_empty_basis(self):
        assert eigh(np.eye(3)).null_basis().shape == (3, 0)

    def test_all_ones_direction(self):
        basis = eigh(np.ones((2, 2))).null_basis()
        assert basis.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.abs(basis[:, 0] - expected).max(), np.abs(basis[:, 0] + expected).max()) < 1e-12

    def test_fixture_system_null_direction(self):
        q = fixture_q()
        basis = eigh(q).null_basis()
        assert basis.shape == (4, 1)
        expected = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        assert min(np.abs(basis[:, 0] - expected).max(), np.abs(basis[:, 0] + expected).max()) < 1e-10
        assert np.abs(q @ basis).max() < 1e-12

    def test_columns_orthonormal_and_annihilated(self):
        a = random_psd(12, seed=4, rank=7)
        basis = eigh(a).null_basis()
        assert basis.shape == (12, 5)
        assert_allclose(basis.T @ basis, np.eye(5), atol=1e-10)
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert np.abs(a @ basis).max() < 1e-8 * top

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(NotSymmetric):
            eigh(np.ones((2, 3)))


class TestEighSolve:
    """``solve`` is the pseudoinverse applied to a vector, from the one
    factor; the SVD-based :func:`pseudoinverse` is its oracle."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_pseudoinverse(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        a = random_psd(n, seed=rng.integers(1 << 31), rank=int(rng.integers(1, n + 1)))
        b = rng.standard_normal(n)
        assert_allclose(eigh(a).solve(b), pseudoinverse(a) @ b, atol=1e-8)

    def test_zero_matrix_keeps_nothing(self):
        res = eigh(np.zeros((3, 3)))
        assert not res.kept().any()
        assert_allclose(res.solve(np.ones(3)), 0.0, atol=0)
        assert res.null_basis().shape == (3, 3)


class TestCgMinimumNorm:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pseudoinverse_solution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        a = random_psd(n, seed=rng.integers(1 << 31), rank=int(rng.integers(1, n + 1)))
        # right-hand side inside the column space
        b = a @ rng.standard_normal(n)
        x_cg = cg_minimum_norm(a, b)
        x_pinv = pseudoinverse(a) @ b
        assert np.abs(x_cg - x_pinv).max() < 1e-8 * max(1.0, np.abs(x_pinv).max())

    def test_zero_rhs(self):
        assert_allclose(cg_minimum_norm(np.eye(3), np.zeros(3)), np.zeros(3), atol=0)


def random_lp(seed):
    """A feasible LP ``(c, a_ub, b_ub, bounds)`` in 2-5 boxed variables."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    n_rows = int(rng.integers(n, 2 * n + 3))
    a_ub = rng.standard_normal((n_rows, n))
    x_interior = rng.standard_normal(n)
    b_ub = a_ub @ x_interior + rng.uniform(0.1, 1.0, size=n_rows)  # feasible by construction
    c = rng.standard_normal(n)
    return c, a_ub, b_ub, (-10.0, 10.0)  # the box keeps the optimum bounded


class TestSolveLp:
    def test_simple_bound(self):
        status, point, value = solve_lp(
            np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-3.0])
        )
        assert status == "Optimal"
        assert value == pytest.approx(3.0, abs=1e-9)
        assert point[0] == pytest.approx(3.0, abs=1e-9)

    def test_infeasible(self):
        status, point, value = solve_lp(
            np.array([0.0]), a_ub=np.array([[-1.0], [1.0]]), b_ub=np.array([-1.0, 0.0])
        )
        assert status == "Infeasible"
        assert point is None and value is None

    def test_unbounded(self):
        status, _, _ = solve_lp(np.array([1.0]))
        assert status == "Unbounded"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp(np.array([1.0, 2.0]), a_ub=np.array([[1.0]]), b_ub=np.array([0.0]))

    @pytest.mark.parametrize("seed", range(15))
    def test_agrees_with_vertex_enumeration(self, seed):
        c, a_ub, b_ub, bounds = random_lp(seed)
        status, _, value = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        assert status == "Optimal"
        oracle = lp_vertex_oracle(c, a_ub=a_ub, b_ub=b_ub, bounds=[bounds] * len(c))
        assert value == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_sparse_constraints_match_dense_bit_for_bit(self, seed):
        from scipy.sparse import csr_array

        c, a_ub, b_ub, bounds = random_lp(seed)
        dense = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        sparse = solve_lp(c, a_ub=csr_array(a_ub), b_ub=b_ub, bounds=bounds)
        assert sparse[0] == dense[0] == "Optimal"
        assert sparse[2] == dense[2]
        assert np.array_equal(sparse[1], dense[1])

    def test_sparse_equality_constraints(self):
        from scipy.sparse import csr_array

        # x1 + x2 = 1, x >= 0: min x1 - x2 puts all the mass on x2
        a_eq = np.array([[1.0, 1.0]])
        args = dict(b_eq=np.array([1.0]), bounds=(0.0, None))
        dense = solve_lp(np.array([1.0, -1.0]), a_eq=a_eq, **args)
        sparse = solve_lp(np.array([1.0, -1.0]), a_eq=csr_array(a_eq), **args)
        assert dense[0] == sparse[0] == "Optimal"
        assert dense[2] == sparse[2] == -1.0
        assert np.array_equal(dense[1], sparse[1])

    def test_determinism(self):
        rng = np.random.default_rng(0)
        a_ub = rng.standard_normal((6, 3))
        b_ub = np.abs(rng.standard_normal(6)) + 1.0
        c = rng.standard_normal(3)
        first = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=(-5.0, 5.0))
        second = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=(-5.0, 5.0))
        assert first[2] == second[2]
        assert np.array_equal(first[1], second[1])


class TestNumericalRank:
    def test_rank_counts_above_relative_cutoff(self):
        assert numerical_rank(np.array([1.0, 1e-5, 1e-12])) == 2
        assert numerical_rank(np.array([0.0, 0.0])) == 0
