import tracemalloc

import numpy as np
import pytest

import maxcorr as mx
from maxcorr.errors import DegenerateY, DimensionMismatch, NotNormalized, ZeroVariance
from maxcorr.hgr import GenericJoint


def feasibility_errors(joint, result):
    """Worst violation of the mean/variance/value constraints for f*, g*."""
    px = joint.prob.sum(axis=1)[result.x_support]
    py = joint.prob.sum(axis=0)[result.y_support]
    f = result.f_star[result.x_support]
    g = result.g_star[result.y_support]
    sub = joint.prob[np.ix_(result.x_support, result.y_support)]
    return max(
        abs(float(px @ f)),
        abs(float(py @ g)),
        abs(float(px @ f**2) - 1.0),
        abs(float(py @ g**2) - 1.0),
        abs(float(f @ sub @ g) - result.rho),
    )


class TestHgrSvd:
    def test_product_distribution_is_exactly_zero(self):
        px = np.array([0.2, 0.3, 0.5])
        py = np.array([0.4, 0.6])
        joint = GenericJoint(np.outer(px, py))
        result = mx.hgr_svd(joint)
        assert result.rho == 0.0
        assert not result.degenerate
        assert feasibility_errors(joint, result) < 1e-8

    def test_copy_fixture_is_one(self):
        joint = mx.flatten_joint(mx.copy_fixture())
        result = mx.hgr_svd(joint)
        assert result.rho == pytest.approx(1.0, abs=1e-10)
        assert feasibility_errors(joint, result) < 1e-8

    def test_nonadditive_fixture_matches_correlation_ratio(self):
        # hand oracle: sqrt(Var(E[Y|X]) / Var(Y)) from the listed atoms
        px = np.array([0.1, 0.4, 0.4, 0.1])
        cond = np.array([1.0, 0.5, 0.75, 0.0])
        var_e = float(px @ (cond - 0.6) ** 2)
        oracle = np.sqrt(var_e / 0.24)
        assert var_e == pytest.approx(0.065, abs=1e-15)

        joint = mx.flatten_joint(mx.nonadditive_fixture())
        result = mx.hgr_svd(joint)
        assert result.rho == pytest.approx(oracle, abs=1e-10)
        assert result.rho == pytest.approx(0.5204164998665332, abs=1e-9)
        assert feasibility_errors(joint, result) < 1e-8

    def test_zero_probability_states_dropped(self):
        prob = np.array([[0.25, 0.25], [0.0, 0.0], [0.25, 0.25]])
        result = mx.hgr_svd(GenericJoint(prob))
        assert not result.x_support[1]
        assert np.isnan(result.f_star[1])
        assert result.rho == 0.0

    def test_one_point_support_reported_degenerate(self):
        prob = np.array([[0.6, 0.4], [0.0, 0.0]])
        result = mx.hgr_svd(GenericJoint(prob))
        assert result.degenerate
        assert result.rho == 0.0
        assert np.isnan(result.f_star).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_feasibility_on_random_joints(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = int(rng.integers(2, 8)), int(rng.integers(2, 5))
        joint = GenericJoint(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        result = mx.hgr_svd(joint)
        assert 0.0 <= result.rho <= 1.0
        assert feasibility_errors(joint, result) < 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_alphabet_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        prob = rng.dirichlet(np.ones(12)).reshape(4, 3)
        rows, cols = rng.permutation(4), rng.permutation(3)
        base = mx.hgr_svd(GenericJoint(prob)).rho
        permuted = mx.hgr_svd(GenericJoint(prob[rows][:, cols])).rho
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_bijective_recoding_of_flattened_states(self):
        joint = mx.random_joint(mx.AlphabetSpec(2, 3), seed=3)
        flat = mx.flatten_joint(joint)
        recoded = GenericJoint(flat.prob[::-1].copy(), tol=1e-12)
        assert mx.hgr_svd(recoded).rho == pytest.approx(mx.hgr_svd(flat).rho, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            GenericJoint(np.array([[0.5, 0.1], [0.1, 0.1]]))


class TestHgrSvdAtSize:
    def test_p10_m3_matches_correlation_ratio_in_bounded_memory(self):
        """118,098 atoms: the thin SVD keeps U at (m^p, 2), where the full
        one would ask for an (m^p, m^p) matrix of about 26 GiB."""
        joint = mx.random_joint(mx.AlphabetSpec(10, 3), seed=7)
        generic = mx.flatten_joint(joint)
        tracemalloc.start()
        try:
            result = mx.hgr_svd(generic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.rho == pytest.approx(mx.hgr_binary(joint), abs=1e-10)
        assert peak < 64 * 2**20


class TestHgrBinary:
    def test_fixture_value(self):
        assert mx.hgr_binary(mx.nonadditive_fixture()) == pytest.approx(
            np.sqrt(0.065 / 0.24), abs=1e-12
        )

    def test_independent_uniform_is_zero(self):
        assert mx.hgr_binary(mx.uniform_joint(mx.AlphabetSpec(2, 2))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_copy_fixture_is_one(self):
        assert mx.hgr_binary(mx.copy_fixture()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_spectral_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        joint = mx.random_joint(mx.AlphabetSpec(p, m), seed=seed + 10_000)
        assert mx.hgr_binary(joint) == pytest.approx(
            mx.hgr_svd(mx.flatten_joint(joint)).rho, abs=1e-10
        )

    def test_degenerate_target_rejected(self):
        spec = mx.AlphabetSpec(1, 2)
        joint = mx.joint_from_table(spec, [((0,), 1, 0.5), ((1,), 1, 0.5)])
        with pytest.raises(DegenerateY):
            mx.hgr_binary(joint)


class TestPearson:
    def test_copy_fixture_with_identity_embedding(self):
        joint = mx.flatten_joint(mx.copy_fixture())
        assert mx.pearson(joint, [0.0, 1.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_product_distribution_is_zero(self):
        joint = GenericJoint(np.outer([0.5, 0.5], [0.3, 0.7]))
        assert mx.pearson(joint, [0.0, 1.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_maximal_correlation_on_fixture(self):
        joint = mx.flatten_joint(mx.nonadditive_fixture())
        # embed x by its first feature label, y by its label
        x_values = [0.0, 1.0, 0.0, 1.0]
        rho = mx.pearson(joint, x_values, [0.0, 1.0])
        assert abs(rho) <= mx.hgr_svd(joint).rho + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_bounded_by_maximal_correlation_random(self, seed):
        rng = np.random.default_rng(seed)
        joint = GenericJoint(rng.dirichlet(np.ones(12)).reshape(4, 3))
        x_values = rng.standard_normal(4)
        y_values = rng.standard_normal(3)
        assert abs(mx.pearson(joint, x_values, y_values)) <= mx.hgr_svd(joint).rho + 1e-9

    def test_zero_variance_rejected(self):
        joint = GenericJoint(np.outer([0.5, 0.5], [0.3, 0.7]))
        with pytest.raises(ZeroVariance):
            mx.pearson(joint, [1.0, 1.0], [0.0, 1.0])

    def test_dimension_mismatch(self):
        joint = GenericJoint(np.outer([0.5, 0.5], [0.3, 0.7]))
        with pytest.raises(DimensionMismatch):
            mx.pearson(joint, [1.0, 2.0, 3.0], [0.0, 1.0])
