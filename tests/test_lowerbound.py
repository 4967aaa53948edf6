import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import maxcorr as mx
from maxcorr.errors import (
    DegenerateY,
    DimensionMismatch,
    DInconsistentWithQ,
    InconsistentMarginals,
)
from maxcorr.lowerbound import QdSystem, _clamp_gamma
from maxcorr.numerics import pseudoinverse

from conftest import legacy_pairwise_by_pair, negative_gamma_marginals, svd_rank


def system_of(joint):
    return mx.assemble_qd(mx.pairwise_from_joint(joint))


def random_system(seed, p=3, m=3):
    return system_of(mx.random_joint(mx.AlphabetSpec(p, m), seed=seed))


class TestAssembleQd:
    def test_independent_uniform_system(self):
        system = system_of(mx.uniform_joint(mx.AlphabetSpec(2, 2)))
        expected_q = np.array(
            [
                [0.5, 0.0, 0.25, 0.25],
                [0.0, 0.5, 0.25, 0.25],
                [0.25, 0.25, 0.5, 0.0],
                [0.25, 0.25, 0.0, 0.5],
            ]
        )
        assert_allclose(system.q, expected_q, atol=1e-15)
        assert_allclose(system.d, 0.0, atol=1e-15)

    def test_nonadditive_fixture_system(self):
        system = system_of(mx.nonadditive_fixture())
        assert_allclose(system.d, [0.3, -0.1, 0.1, 0.1], atol=1e-15)
        assert_allclose(system.q[:2, 2:], [[0.1, 0.4], [0.4, 0.1]], atol=1e-15)
        assert system.p_y1 == pytest.approx(0.6, abs=1e-12)

    def test_copy_fixture_system(self):
        system = system_of(mx.copy_fixture())
        assert_allclose(system.q, np.diag([0.5, 0.5]), atol=1e-15)
        assert_allclose(system.d, [-0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_structural_invariants(self, seed):
        system = random_system(seed)
        spec = system.spec
        p, m = spec.p, spec.m
        assert_allclose(system.q, system.q.T, atol=0)
        assert np.linalg.eigvalsh(system.q).min() >= -1e-10
        for i in range(p):
            block = system.q[i * m : (i + 1) * m, i * m : (i + 1) * m]
            assert_allclose(block, np.diag(np.diag(block)), atol=0)
            # every block's columns sum to the univariate marginal vector
            cols = system.q[:, i * m : (i + 1) * m].sum(axis=1)
            assert_allclose(cols, system.e_w, atol=1e-12)
            assert system.e_w[i * m : (i + 1) * m].sum() == pytest.approx(1.0, abs=1e-12)
        assert svd_rank(system.q) <= (m - 1) * p + 1
        # the linear term lies in the column space
        u = pseudoinverse(system.q) @ system.d
        assert np.linalg.norm(system.q @ u - system.d) < 1e-8

    def test_rejects_unrealizable_marginals_via_psd(self):
        # Pairwise-consistent tables whose Q is indefinite: an impossible
        # anticorrelation triangle among three binary features.
        spec = mx.AlphabetSpec(3, 2)
        neq = np.array([[0.0, 0.5], [0.5, 0.0]])
        xx = {}
        for i in range(3):
            for j in range(3):
                if i != j:
                    xx[(i, j)] = neq
        xy = np.full((3, 2, 2), 0.25)
        px = np.full((3, 2), 0.5)
        marginals = mx.PairwiseMarginalSet(spec, xx, xy, px)
        assert mx.validate_marginals(marginals).ok
        with pytest.raises(InconsistentMarginals):
            mx.assemble_qd(marginals)

    def test_takes_q_of_the_marginal_set_without_a_copy(self):
        marginals = mx.pairwise_from_joint(mx.random_joint(mx.AlphabetSpec(3, 3), seed=4))
        system = mx.assemble_qd(marginals)
        assert system.q is marginals.q
        assert np.shares_memory(system.q, marginals.q)
        assert np.shares_memory(system.e_w, marginals.q)


class TestGammaLowerBound:
    def test_independent_uniform_is_quarter(self):
        assert mx.gamma_lb_closed(system_of(mx.uniform_joint(mx.AlphabetSpec(2, 2)))) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_copy_fixture_is_zero(self):
        assert mx.gamma_lb_closed(system_of(mx.copy_fixture())) == pytest.approx(0.0, abs=1e-12)

    def test_nonadditive_fixture_value_against_solver_oracle(self):
        system = system_of(mx.nonadditive_fixture())
        # independent oracle: least-squares solve of the stationarity system
        z, *_ = np.linalg.lstsq(2.0 * system.q, system.d, rcond=None)
        oracle = float(z @ system.q @ z - system.d @ z + 0.25)
        assert oracle == pytest.approx(0.1775, abs=1e-12)
        assert mx.gamma_lb_closed(system) == pytest.approx(0.1775, abs=1e-9)

    @pytest.mark.parametrize("seed", range(30))
    def test_closed_and_iterative_agree(self, seed):
        system = random_system(seed)
        closed = mx.gamma_lb_closed(system)
        iterative = mx.gamma_lb_iterative(system)
        assert abs(closed - iterative.gamma_lb) <= 1e-10

    def test_iterative_result_fields(self):
        system = system_of(mx.copy_fixture())
        result = mx.gamma_lb_iterative(system)
        assert_allclose(result.z_star, [-0.5, 0.5], atol=1e-10)
        assert result.gamma_lb == pytest.approx(0.0, abs=1e-12)
        assert result.rho_lb == pytest.approx(1.0, abs=1e-12)
        assert result.rho_lb == pytest.approx(
            np.sqrt(1 - result.gamma_lb / system.var_y), abs=1e-12
        )

    def test_minimum_norm_z_star_is_orthogonal_to_null_space(self):
        system = system_of(mx.nonadditive_fixture())
        z = system.z0
        assert z @ np.array([1.0, 1.0, -1.0, -1.0]) == pytest.approx(0.0, abs=1e-12)
        assert np.abs(2 * system.q @ z - system.d).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_sign_of_linear_term_does_not_change_minimum(self, seed):
        system = random_system(seed, p=2, m=3)
        z = system.z0
        minimized = float(z @ system.q @ z - system.d @ z + 0.25)
        flipped = float(z @ system.q @ z + system.d @ (-z) + 0.25)
        assert abs(minimized - flipped) <= 1e-12

    def test_rejects_linear_term_outside_column_space(self):
        spec = mx.AlphabetSpec(1, 2)
        system = QdSystem(
            spec,
            q=np.diag([1.0, 0.0]),
            d=np.array([0.0, 1.0]),
            p_y1=0.5,
        )
        # every entry point, each after the one before has failed
        for entry in (
            mx.gamma_lb_closed,
            mx.rho_lb,
            lambda s: s.z0,
            mx.check_tightness,
            mx.gamma_lb_iterative,
        ):
            with pytest.raises(DInconsistentWithQ):
                entry(system)


class TestNegativeGamma:
    def test_every_gamma_route_refuses_it(self):
        """gamma = E[(Y - 1/2 - z'w)^2] >= 0 for every member of the class, so
        tables whose minimum is -0.05 describe no distribution."""
        system = mx.assemble_qd(negative_gamma_marginals())
        assert 0.25 * (1.0 - 2.0 * float(system.d @ system.z0)) == pytest.approx(-0.05, abs=1e-12)
        for entry in (mx.gamma_lb_closed, mx.rho_lb, mx.gamma_lb_iterative):
            with pytest.raises(DInconsistentWithQ, match="below 0 beyond roundoff"):
                entry(system)

    def test_roundoff_below_zero_is_clamped(self, caplog):
        assert _clamp_gamma(-1e-10) == 0.0
        assert not caplog.records
        with pytest.raises(DInconsistentWithQ):
            _clamp_gamma(-1.1e-10)


def legacy_gamma_lb_closed(system):
    """gamma as the closed form computed it before z0 was cached: its own
    solve of Q u = d, checked by its own residual."""
    u = system.factor.solve(system.d)
    dnorm = float(np.linalg.norm(system.d))
    resid = float(np.linalg.norm(system.q @ u - system.d))
    if dnorm > 0.0 and resid > 1e-8 * dnorm:
        raise DInconsistentWithQ(f"relative projection residual {resid / dnorm:.3e}")
    return min(max(0.25 * (1.0 - float(system.d @ u)), 0.0), 0.25)


def joint_of_kind(p, m, kind, seed, alpha):
    """A Dirichlet joint, with the last label of feature 1 never occurring
    (``zero_label``) or feature p copying feature 1 (``copy``)."""
    spec = mx.AlphabetSpec(p, m)
    prob = np.array(mx.random_joint(spec, seed=seed, alpha=alpha).prob)
    states = spec.states()
    if kind == "zero_label":
        prob[states[:, 0] == m - 1] = 0.0
    elif kind == "copy":
        prob[states[:, 0] != states[:, p - 1]] = 0.0
    return mx.DiscreteJoint(spec, prob / prob.sum())


class TestCachedMinimizer:
    """One solve per system: z0 is cached, read-only, and the closed form
    reads gamma off it."""

    def test_z0_is_read_only(self):
        system = system_of(mx.nonadditive_fixture())
        z0 = system.z0
        assert not z0.flags.writeable
        with pytest.raises(ValueError):
            z0[0] = 1.0
        with pytest.raises(AttributeError):
            system.z0 = np.zeros(system.spec.pm)
        assert system.z0 is z0

    def test_z0_is_the_minimum_norm_solve(self):
        system = random_system(3)
        assert system.z0.tobytes() == (0.5 * system.factor.solve(system.d)).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 5),
        m=st.integers(2, 4),
        kind=st.sampled_from(["full", "zero_label", "copy"]),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([0.3, 1.0, 5.0]),
    )
    def test_gamma_matches_its_own_solve_bit_for_bit(self, p, m, kind, seed, alpha):
        assume(p >= 2 or kind != "copy")
        system = system_of(joint_of_kind(p, m, kind, seed, alpha))
        assert mx.gamma_lb_closed(system).hex() == legacy_gamma_lb_closed(system).hex()


class TestRhoLowerBound:
    def test_independent_uniform_is_zero(self):
        assert mx.rho_lb(system_of(mx.uniform_joint(mx.AlphabetSpec(2, 2)))) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_copy_fixture_is_one(self):
        assert mx.rho_lb(system_of(mx.copy_fixture())) == pytest.approx(1.0, abs=1e-12)

    def test_nonadditive_fixture_value(self):
        expected = np.sqrt(1.0 - 0.1775 / 0.24)
        assert mx.rho_lb(system_of(mx.nonadditive_fixture())) == pytest.approx(expected, abs=1e-9)

    def test_degenerate_target_rejected(self):
        spec = mx.AlphabetSpec(1, 2)
        joint = mx.joint_from_table(spec, [((0,), 0, 0.5), ((1,), 0, 0.5)])
        with pytest.raises(DegenerateY):
            mx.rho_lb(system_of(joint))

    @pytest.mark.parametrize("seed", range(30))
    def test_never_exceeds_exact_maximal_correlation(self, seed):
        joint = mx.random_joint(mx.AlphabetSpec(2, 3), seed=seed)
        bound = mx.rho_lb(system_of(joint))
        exact = mx.hgr_svd(mx.flatten_joint(joint)).rho
        assert bound <= exact + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_relabeling_invariance(self, seed):
        joint = mx.random_joint(mx.AlphabetSpec(3, 3), seed=seed)
        rng = np.random.default_rng(seed + 1000)
        feature = int(rng.integers(3))
        perm = rng.permutation(3)
        permuted = mx.permute_labels(joint, feature, perm)
        base_sys, perm_sys = system_of(joint), system_of(permuted)
        assert mx.gamma_lb_closed(perm_sys) == pytest.approx(
            mx.gamma_lb_closed(base_sys), abs=1e-12
        )
        assert mx.rho_lb(perm_sys) == pytest.approx(mx.rho_lb(base_sys), abs=1e-12)
        # the minimizer's block for that feature is permuted along
        z_base = base_sys.z0
        z_perm = perm_sys.z0
        m = 3
        block = slice(feature * m, (feature + 1) * m)
        assert_allclose(z_perm[block][perm], z_base[block], atol=1e-10)


class TestPseudoinverseIdentities:
    """Exact identities tying E[w], Q and d together for realizable systems."""

    @pytest.mark.parametrize("seed", range(30))
    def test_identities_on_random_joints(self, seed):
        system = random_system(seed)
        q_pinv = pseudoinverse(system.q)
        e_w, d, p1 = system.e_w, system.d, system.p_y1
        assert e_w @ q_pinv @ e_w == pytest.approx(1.0, abs=1e-8)
        assert e_w @ q_pinv @ d == pytest.approx(2 * p1 - 1.0, abs=1e-8)
        d_prime = (0.5 * d + (0.5 - p1) * e_w) / np.sqrt(p1 * (1 - p1))
        assert e_w @ q_pinv @ d_prime == pytest.approx(0.0, abs=1e-8)

    def test_identities_on_fixtures(self):
        for joint in (mx.nonadditive_fixture(), mx.uniform_joint(mx.AlphabetSpec(2, 2))):
            system = system_of(joint)
            q_pinv = pseudoinverse(system.q)
            assert system.e_w @ q_pinv @ system.e_w == pytest.approx(1.0, abs=1e-8)
            assert system.e_w @ q_pinv @ system.d == pytest.approx(
                2 * system.p_y1 - 1.0, abs=1e-8
            )


class TestDesignSystem:
    def test_two_point_dataset(self):
        data = mx.Dataset(mx.AlphabetSpec(1, 2), np.array([[0, 0], [1, 1]]))
        design = mx.design_matrix(data)
        assert_allclose(design.w, np.eye(2), atol=0)
        assert_allclose(design.b, [-0.5, 0.5], atol=0)

    def test_row_encoding(self):
        data = mx.Dataset(mx.AlphabetSpec(2, 2), np.array([[1, 0, 1]]))
        design = mx.design_matrix(data)
        assert_allclose(design.w[0], [0.0, 1.0, 1.0, 0.0], atol=0)
        assert design.b[0] == 0.5

    @pytest.mark.parametrize("seed", range(5))
    def test_each_row_has_one_indicator_per_block(self, seed):
        joint = mx.random_joint(mx.AlphabetSpec(3, 3), seed=seed)
        data = mx.sample_dataset(joint, n=50, seed=seed)
        design = mx.design_matrix(data)
        assert_allclose(design.w.sum(axis=1), 3.0, atol=0)
        for i in range(3):
            assert_allclose(design.w[:, 3 * i : 3 * (i + 1)].sum(axis=1), 1.0, atol=0)

    def test_zero_vector_objective_is_quarter_n(self):
        data = mx.Dataset(mx.AlphabetSpec(1, 2), np.array([[0, 0], [1, 1], [0, 1], [1, 0]]))
        design = mx.design_matrix(data)
        assert mx.lsq_objective(design, np.zeros(2)) == pytest.approx(1.0, abs=0)  # n/4

    def test_copy_dataset_exact_fit(self):
        data = mx.Dataset(mx.AlphabetSpec(1, 2), np.array([[0, 0], [1, 1]]))
        design = mx.design_matrix(data)
        assert mx.lsq_objective(design, np.array([-0.5, 0.5])) == pytest.approx(0.0, abs=0)

    def test_dimension_mismatch(self):
        data = mx.Dataset(mx.AlphabetSpec(1, 2), np.array([[0, 0]]))
        with pytest.raises(DimensionMismatch):
            mx.lsq_objective(mx.design_matrix(data), np.zeros(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_normalized_objective_equals_marginal_quadratic(self, seed):
        joint = mx.random_joint(mx.AlphabetSpec(3, 3), seed=seed)
        data = mx.sample_dataset(joint, n=200, seed=seed + 500)
        design = mx.design_matrix(data)
        system = mx.assemble_qd(mx.pairwise_from_dataset(data))
        rng = np.random.default_rng(seed)
        for _ in range(10):
            z = rng.standard_normal(system.spec.pm)
            lhs = mx.lsq_objective(design, z) / data.n
            rhs = float(z @ system.q @ z - system.d @ z + 0.25)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestManyFeatures:
    """The marginal-only route at p in the hundreds: 5^200 states, pm = 1000."""

    def test_bound_and_certificate_of_a_wide_dataset(self):
        rng = np.random.default_rng(200)
        n, p, m = 20_000, 200, 5
        latent = rng.integers(0, m, size=n)
        copy = rng.uniform(size=(n, p)) < rng.uniform(0.3, 0.8, size=p)
        x = np.where(copy, latent[:, None], rng.integers(0, m, size=(n, p)))
        y = rng.uniform(size=n) < 0.2 + 0.6 * latent / (m - 1)
        data = mx.Dataset(mx.AlphabetSpec(p, m), np.column_stack([x, y]))
        tracemalloc.start()
        try:
            marginals = mx.pairwise_from_dataset(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the counts, their expansion, Q and a 1 MB buffer; a one-hot of all rows would be 160 MB
        assert peak < 64 * 2**20
        assert np.array_equal(marginals.q, legacy_pairwise_by_pair(data).q)
        system = mx.assemble_qd(marginals)
        assert 0.0 <= mx.rho_lb(system) <= 1.0
        assert mx.check_tightness(system).verdict in ("Tight", "NotTight")
