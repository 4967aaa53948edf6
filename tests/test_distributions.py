import tracemalloc
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import maxcorr as mx
import maxcorr.distributions as distributions
from maxcorr.distributions import (
    ATOM_CAP,
    GRAM_CHUNK,
    GRAM_MAX_M,
    Q_CAP,
    _pairwise_by_pair,
    empirical_joint,
)
from maxcorr.errors import (
    AtomCapExceeded,
    DuplicateEntry,
    InconsistentMarginals,
    InvalidEpsilon,
    LabelOutOfRange,
    NegativeProbability,
    NotNormalized,
    ValidationError,
)
from maxcorr.numerics import eigh, solve_lp

from conftest import (
    legacy_one_hot,
    legacy_permute_prob,
    legacy_sample_rows,
    legacy_states,
    legacy_validate_marginals,
)


class TestAlphabetSpec:
    def test_encoding_is_mixed_radix_first_label_fastest(self):
        spec = mx.AlphabetSpec(p=3, m=3)
        assert spec.encode((1, 0, 0)) == 1
        assert spec.encode((0, 1, 0)) == 3
        assert spec.encode((0, 0, 1)) == 9
        assert spec.decode(13) == (1, 1, 1)

    def test_states_enumeration_round_trips(self):
        spec = mx.AlphabetSpec(p=2, m=3)
        states = spec.states()
        for idx in range(spec.n_states):
            assert tuple(states[idx]) == spec.decode(idx)
            assert spec.encode(states[idx]) == idx

    @pytest.mark.parametrize(
        "p,m", [(0, 2), (1, 1), (-1, 3), (True, 2), (1, True), (2.0, 2), (1, "3")]
    )
    def test_rejects_bad_shape(self, p, m):
        with pytest.raises(ValidationError):
            mx.AlphabetSpec(p, m)

    def test_dense_cap(self):
        spec = mx.AlphabetSpec(p=25, m=2)  # 2^26 atoms
        assert spec.n_atoms > ATOM_CAP
        with pytest.raises(AtomCapExceeded):
            spec.require_dense()

    def test_many_features_construct_but_encode_no_states(self):
        spec = mx.AlphabetSpec(p=200, m=5)  # 5^200 states: marginal-only
        assert spec.pm == 1000
        with pytest.raises(ValidationError, match="overflows the state index"):
            spec.encode_rows(np.zeros((1, 200), dtype=int))
        with pytest.raises(AtomCapExceeded):
            spec.require_dense()


class TestJointFromTable:
    def test_nonadditive_fixture_values(self, fixture_atoms):
        joint = mx.nonadditive_fixture()
        spec = joint.spec
        for (x1, x2, y), value in fixture_atoms.items():
            assert joint.prob[spec.encode((x1, x2)), y] == value
        assert joint.p_y1 == pytest.approx(0.6, abs=1e-12)

    def test_copy_fixture(self):
        joint = mx.copy_fixture()
        assert joint.prob[0, 0] == 0.5
        assert joint.prob[1, 1] == 0.5
        assert joint.prob[0, 1] == 0.0

    def test_rejects_unnormalized(self):
        spec = mx.AlphabetSpec(1, 2)
        with pytest.raises(NotNormalized):
            mx.joint_from_table(spec, [((0,), 0, 0.5), ((1,), 1, 0.4)])

    def test_rejects_duplicates(self):
        spec = mx.AlphabetSpec(1, 2)
        with pytest.raises(DuplicateEntry):
            mx.joint_from_table(spec, [((0,), 0, 0.5), ((0,), 0, 0.5)])

    def test_rejects_negative(self):
        spec = mx.AlphabetSpec(1, 2)
        with pytest.raises(NegativeProbability):
            mx.joint_from_table(spec, [((0,), 0, -0.5), ((1,), 1, 1.5)])

    def test_rejects_out_of_range_labels(self):
        spec = mx.AlphabetSpec(1, 2)
        with pytest.raises(LabelOutOfRange):
            mx.joint_from_table(spec, [((2,), 0, 1.0)])
        with pytest.raises(LabelOutOfRange):
            mx.joint_from_table(spec, [((0,), 3, 1.0)])


class TestStateOrder:
    """``states()``, ``sample_dataset`` and ``permute_labels`` read the state
    order off ``AlphabetSpec.shape``; the hand-decoded routes are their
    oracles, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=st.integers(1, 6), m=st.integers(2, 5))
    def test_states_match_the_mixed_radix_loop(self, p, m):
        spec = mx.AlphabetSpec(p, m)
        got, want = spec.states(), legacy_states(spec)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 6),
        m=st.integers(2, 5),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_samples_match_the_mixed_radix_decode(self, p, m, n, seed):
        joint = mx.random_joint(mx.AlphabetSpec(p, m), seed=seed, alpha=0.3)
        got, want = mx.sample_dataset(joint, n, seed).rows, legacy_sample_rows(joint, n, seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=st.integers(1, 6), m=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_permute_labels_matches_the_encode_round_trip(self, p, m, seed, data):
        joint = mx.random_joint(mx.AlphabetSpec(p, m), seed=seed)
        feature = data.draw(st.integers(0, p - 1))
        perm = data.draw(st.permutations(range(m)))
        got = mx.permute_labels(joint, feature, perm).prob
        assert got.tobytes() == legacy_permute_prob(joint, feature, perm).tobytes()

    @pytest.mark.parametrize("feature", [-1, -3, 3, 7, 1.0, None])
    def test_permute_labels_refuses_a_feature_outside_0_to_p_minus_1(self, feature):
        """On the state tensor axis -1 is Y, so a negative index no longer
        wraps to the last feature."""
        joint = mx.random_joint(mx.AlphabetSpec(3, 2), seed=0)
        with pytest.raises(ValidationError, match="feature must be an integer in 0..2"):
            mx.permute_labels(joint, feature, [1, 0])

    def test_permute_labels_takes_a_numpy_feature_index(self):
        joint = mx.random_joint(mx.AlphabetSpec(3, 2), seed=0)
        got = mx.permute_labels(joint, np.int64(2), [1, 0]).prob
        assert got.tobytes() == legacy_permute_prob(joint, 2, [1, 0]).tobytes()


class TestLabelContract:
    """One label check serves every entry point: a value that is not an
    integer in range raises LabelOutOfRange, a fraction included, and an
    integral float such as 1.0 passes."""

    spec = mx.AlphabetSpec(1, 2)

    def test_dataset(self):
        with pytest.raises(LabelOutOfRange, match=r"^feature labels \(0\.7,\) at row 0 not in 0\.\.1$"):
            mx.Dataset(self.spec, [[0.7, 1.0]])
        with pytest.raises(LabelOutOfRange, match=r"^y label 0\.5 at row 1 not in 0\.\.1$"):
            mx.Dataset(self.spec, [[0, 1], [1, 0.5]])
        with pytest.raises(LabelOutOfRange, match=r"^feature labels \(0, 4\) at row 2 not in 0\.\.2$"):
            mx.Dataset(mx.AlphabetSpec(2, 3), [[0, 0, 0], [1, 2, 1], [0, 4, 1]])
        with pytest.raises(LabelOutOfRange, match="y label nan at row 0"):
            mx.Dataset(self.spec, [[1, np.nan]])
        rows = mx.Dataset(self.spec, [[1.0, 0.0], [0.0, 1.0]]).rows
        assert rows.dtype == np.int64 and rows.tolist() == [[1, 0], [0, 1]]

    def test_joint_from_arrays(self):
        with pytest.raises(LabelOutOfRange, match=r"^labels \(0\.6,\) at row 0"):
            mx.joint_from_arrays(self.spec, [[0.6], [1]], [0, 1], [0.5, 0.5])
        with pytest.raises(LabelOutOfRange, match=r"^y label 1\.7 at row 1"):
            mx.joint_from_arrays(self.spec, [[0], [1]], [0, 1.7], [0.5, 0.5])
        whole = mx.joint_from_arrays(self.spec, [[0.0], [1.0]], [0.0, 1.0], [0.5, 0.5])
        ints = mx.joint_from_arrays(self.spec, [[0], [1]], [0, 1], [0.5, 0.5])
        assert whole.prob.tobytes() == ints.prob.tobytes()

    def test_joint_from_table(self):
        with pytest.raises(LabelOutOfRange, match=r"^labels \(0\.6,\) at row 0"):
            mx.joint_from_table(self.spec, [((0.6,), 0, 0.5), ((1,), 1, 0.5)])
        with pytest.raises(LabelOutOfRange, match=r"^y label 1\.7 at row 0"):
            mx.joint_from_table(self.spec, [((0,), 1.7, 0.5), ((1,), 0, 0.5)])
        with pytest.raises(LabelOutOfRange, match="every cell needs 1 feature labels"):
            mx.joint_from_table(self.spec, [((0, 1), 0, 1.0)])
        whole = mx.joint_from_table(self.spec, [((0.0,), 1.0, 0.5), ((1.0,), 0.0, 0.5)])
        assert whole.prob.tolist() == [[0.0, 0.5], [0.5, 0.0]]

    def test_encode(self):
        spec = mx.AlphabetSpec(2, 3)
        with pytest.raises(LabelOutOfRange, match=r"^labels \(0\.5, 1\.0\) at row 0"):
            spec.encode((0.5, 1))
        with pytest.raises(LabelOutOfRange, match="expected 2 labels per row"):
            spec.encode((0, 1, 2))
        assert spec.encode((1.0, 2.0)) == spec.encode((1, 2)) == 7
        with pytest.raises(ValidationError, match="overflows the state index"):
            mx.AlphabetSpec(200, 5).encode((0,) * 200)

    def test_integer_labels_pass_without_a_copy(self):
        labels = np.zeros((4, 2), dtype=np.int64)
        assert distributions._labels(labels, 3) is labels


@pytest.mark.parametrize(
    "build,negative",
    [
        (lambda t: mx.DiscreteJoint(mx.AlphabetSpec(1, 2), t), NegativeProbability),
        (mx.GenericJoint, ValidationError),
    ],
    ids=["discrete", "generic"],
)
def test_both_joints_share_one_probability_table_check(build, negative):
    table = np.full((2, 2), 0.25)
    prob = build(table).prob
    assert prob is not table and not prob.flags.writeable and prob.tolist() == table.tolist()
    with pytest.raises(ValidationError, match="non-finite"):
        build(np.array([[np.nan, 0.25], [0.25, 0.25]]))
    with pytest.raises(ValidationError) as exc:
        build(np.array([[-0.5, 1.0], [0.25, 0.25]]))
    assert type(exc.value) is negative
    with pytest.raises(NotNormalized):
        build(2 * table)


class TestPairwiseFromJoint:
    def test_fixture_tables(self):
        marginals = mx.pairwise_from_joint(mx.nonadditive_fixture())
        assert marginals.xx[(0, 1)][1, 1] == pytest.approx(0.1, abs=1e-15)
        assert marginals.xy[0, 1, 0] == pytest.approx(0.3, abs=1e-15)
        assert_allclose(
            marginals.xx[(0, 1)], [[0.1, 0.4], [0.4, 0.1]], atol=1e-15
        )

    def test_independent_uniform_all_quarter(self):
        marginals = mx.pairwise_from_joint(mx.uniform_joint(mx.AlphabetSpec(2, 2)))
        assert_allclose(marginals.xx[(0, 1)], 0.25, atol=1e-15)
        assert_allclose(marginals.xy, 0.25, atol=1e-15)

    def test_copy_fixture_tables(self):
        marginals = mx.pairwise_from_joint(mx.copy_fixture())
        assert marginals.xy[0, 0, 0] == 0.5
        assert marginals.xy[0, 0, 1] == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_validates(self, seed):
        joint = mx.random_joint(mx.AlphabetSpec(3, 3), seed=seed)
        report = mx.validate_marginals(mx.pairwise_from_joint(joint))
        assert report.ok, report.violations

    def test_relabeling_permutes_tables(self):
        joint = mx.random_joint(mx.AlphabetSpec(3, 3), seed=5)
        perm = np.array([2, 0, 1])
        permuted = mx.permute_labels(joint, feature=1, perm=perm)
        base = mx.pairwise_from_joint(joint)
        moved = mx.pairwise_from_joint(permuted)
        # row k of every table touching feature 1 moves to row perm[k]
        assert_allclose(moved.xy[1][perm], base.xy[1], atol=0)
        assert_allclose(moved.px[1][perm], base.px[1], atol=0)
        assert_allclose(moved.xx[(1, 2)][perm, :], base.xx[(1, 2)], atol=0)
        assert_allclose(moved.xx[(0, 1)][:, perm], base.xx[(0, 1)], atol=0)
        assert_allclose(moved.xy[0], base.xy[0], atol=0)


class TestDatasets:
    def test_direct_counting(self):
        data = mx.Dataset(mx.AlphabetSpec(1, 2), np.array([[0, 0], [0, 0], [1, 1], [1, 1]]))
        marginals = mx.pairwise_from_dataset(data)
        assert marginals.xy[0, 0, 0] == 0.5
        assert marginals.xy[0, 1, 1] == 0.5
        assert marginals.xy[0, 0, 1] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_empirical_joint_route_exactly(self, seed):
        joint = mx.random_joint(mx.AlphabetSpec(3, 3), seed=seed)
        data = mx.sample_dataset(joint, n=100, seed=seed)
        via_data = mx.pairwise_from_dataset(data)
        via_joint = mx.pairwise_from_joint(empirical_joint(data))
        assert_allclose(via_data.xy, via_joint.xy, atol=0)
        assert_allclose(via_data.px, via_joint.px, atol=0)
        for key in via_data.xx:
            assert_allclose(via_data.xx[key], via_joint.xx[key], atol=0)

    def test_sampled_marginals_near_exact(self):
        joint = mx.nonadditive_fixture()
        data = mx.sample_dataset(joint, n=1000, seed=2024)
        sampled = mx.pairwise_from_dataset(data)
        exact = mx.pairwise_from_joint(joint)
        assert np.abs(sampled.xy - exact.xy).max() < 0.1
        assert np.abs(sampled.xx[(0, 1)] - exact.xx[(0, 1)]).max() < 0.1

    def test_above_the_cap_matches_the_pair_loop(self):
        rng = np.random.default_rng(22)
        n, p = 700, 22
        latent = rng.integers(0, 2, size=n)
        copy = rng.uniform(size=(n, p)) < rng.uniform(0.3, 0.8, size=p)
        x = np.where(copy, latent[:, None], rng.integers(0, 2, size=(n, p)))
        data = mx.Dataset(mx.AlphabetSpec(p, 2), np.column_stack([x, latent]))
        assert data.spec.n_atoms > ATOM_CAP
        assert_same_tables(mx.pairwise_from_dataset(data), _pairwise_by_pair(data))

    @pytest.mark.parametrize("m", [GRAM_MAX_M + 1, 12])
    def test_many_labels_count_pair_by_pair(self, m):
        data = mx.sample_dataset(mx.random_joint(mx.AlphabetSpec(3, m), seed=m), n=900, seed=m)
        via_joint = mx.pairwise_from_joint(empirical_joint(data))
        with mock.patch.object(distributions, "_pairwise_counts", side_effect=AssertionError("Gram taken")):
            via_loop = mx.pairwise_from_dataset(data)
        assert_allclose(via_loop.px, via_joint.px, atol=0)
        assert_allclose(via_loop.xy, via_joint.xy, atol=0)
        for key in via_joint.xx:
            assert_allclose(via_loop.xx[key], via_joint.xx[key], atol=0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 6),
        m=st.integers(2, 8),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        y_kind=st.sampled_from(["random", "zeros", "ones"]),
    )
    def test_tables_are_exact_counts_over_n(self, p, m, n, seed, y_kind):
        """Both sides of ``GRAM_MAX_M`` give integer counts divided by n once.
        The joint route sums up to m^(p-1) atoms per entry; over 3000 draws
        in this range it moved by at most 4.6e-15 (at p = 6), so 1e-14."""
        rng = np.random.default_rng(seed)
        tops = rng.integers(1, m + 1, size=p)  # feature i never takes labels >= tops[i]
        x = (rng.uniform(size=(n, p)) * tops).astype(np.int64)
        y = {"random": rng.integers(0, 2, size=n), "zeros": np.zeros(n, int), "ones": np.ones(n, int)}[y_kind]
        data = mx.Dataset(mx.AlphabetSpec(p, m), np.column_stack([x, y]))
        got = mx.pairwise_from_dataset(data)

        w = legacy_one_hot(x, m)
        assert np.array_equal(got.q, (w.T @ w) / n)
        assert np.array_equal(got.xy, np.stack([w.T @ (1 - y), w.T @ y], axis=1).reshape(p, m, 2) / n)

        via_joint = mx.pairwise_from_joint(empirical_joint(data))
        assert_allclose(got.q, via_joint.q, rtol=0, atol=1e-14)
        assert_allclose(got.xy, via_joint.xy, rtol=0, atol=1e-14)

    def test_rejects_empty_and_bad_labels(self):
        spec = mx.AlphabetSpec(1, 2)
        with pytest.raises(ValidationError):
            mx.Dataset(spec, np.zeros((0, 2), dtype=int))
        with pytest.raises(LabelOutOfRange):
            mx.Dataset(spec, np.array([[5, 0]]))


def assert_same_tables(got, want):
    assert np.array_equal(got.q, want.q)
    assert np.array_equal(got.xy, want.xy)


def via_gram(data, **patches):
    """``pairwise_from_dataset`` on the count Gram route, whatever p and m."""
    loop = mock.patch.object(distributions, "_pairwise_by_pair", side_effect=AssertionError("loop taken"))
    with mock.patch.multiple(distributions, GRAM_MAX_M=data.spec.m, **patches), loop:
        return mx.pairwise_from_dataset(data)


class TestGramCounts:
    """The chunked count Gram gives the pair loop's tables bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 8),
        m=st.integers(2, 8),
        chunk=st.integers(1, 8),
        n=st.integers(1, 27),
        seed=st.integers(0, 2**32 - 1),
        y_kind=st.sampled_from(["random", "zeros", "ones"]),
    )
    def test_matches_the_loop_across_chunks(self, p, m, chunk, n, seed, y_kind):
        rng = np.random.default_rng(seed)
        tops = rng.integers(1, m + 1, size=p)  # feature i never takes labels >= tops[i]
        x = (rng.uniform(size=(n, p)) * tops).astype(np.int64)
        y = {"random": rng.integers(0, 2, size=n), "zeros": np.zeros(n), "ones": np.ones(n)}
        data = mx.Dataset(mx.AlphabetSpec(p, m), np.column_stack([x, y[y_kind]]))
        got = via_gram(data, GRAM_CHUNK=chunk * p * m)  # `chunk` rows each
        assert_same_tables(got, _pairwise_by_pair(data))

    def test_matches_the_loop_past_two_full_size_chunks(self):
        p, m = 8, 5
        n = 2 * (GRAM_CHUNK // (p * m)) + 5
        joint = mx.random_joint(mx.AlphabetSpec(p, m), seed=3, alpha=0.3)
        data = mx.sample_dataset(joint, n=n, seed=3)
        assert_same_tables(via_gram(data), _pairwise_by_pair(data))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 30),
    p=st.integers(1, 8),
    m=st.integers(2, 12),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_hot_matches_the_fancy_index_build(n, p, m, dtype, seed):
    labels = np.random.default_rng(seed).integers(0, m, size=(n, p))
    got, want = distributions.one_hot(labels, m, dtype), legacy_one_hot(labels, m, dtype)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestConditionalExpectation:
    def test_fixture_values(self):
        joint = mx.nonadditive_fixture()
        cond = mx.conditional_expectation(joint)
        spec = joint.spec
        expected = {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.75, (1, 1): 0.0}
        for x, value in expected.items():
            assert cond.values[spec.encode(x)] == pytest.approx(value, abs=1e-15)
        assert cond.support.all()

    def test_uniform_is_constant_half(self):
        cond = mx.conditional_expectation(mx.uniform_joint(mx.AlphabetSpec(2, 2)))
        assert_allclose(cond.values, 0.5, atol=1e-15)

    def test_copy_is_deterministic(self):
        cond = mx.conditional_expectation(mx.copy_fixture())
        assert cond.values[0] == 0.0
        assert cond.values[1] == 1.0

    def test_off_support_flagged(self):
        spec = mx.AlphabetSpec(1, 3)
        joint = mx.joint_from_table(spec, [((0,), 0, 0.5), ((1,), 1, 0.5)])
        cond = mx.conditional_expectation(joint)
        assert not cond.support[2]


class TestValidateMarginals:
    def test_clean_set_passes(self):
        report = mx.validate_marginals(mx.pairwise_from_joint(mx.nonadditive_fixture()))
        assert report.ok and not report.violations

    def test_inconsistent_row_sums_flagged(self):
        marginals = mx.pairwise_from_joint(mx.uniform_joint(mx.AlphabetSpec(2, 2)))
        xx = {k: v.copy() for k, v in marginals.xx.items()}
        xx[(0, 1)] = np.array([[0.5, 0.0], [0.0, 0.5]])  # row sums no longer px[0]=.5?
        xx[(0, 1)] = np.array([[0.4, 0.0], [0.1, 0.5]])
        xx[(1, 0)] = xx[(0, 1)].T
        broken = mx.PairwiseMarginalSet(marginals.spec, xx, marginals.xy, marginals.px)
        report = mx.validate_marginals(broken)
        assert any("row sums" in v for v in report.violations)

    def test_asymmetric_pair_flagged(self):
        marginals = mx.pairwise_from_joint(mx.uniform_joint(mx.AlphabetSpec(2, 2)))
        xx = {k: v.copy() for k, v in marginals.xx.items()}
        xx[(1, 0)] = np.array([[0.3, 0.2], [0.2, 0.3]])
        broken = mx.PairwiseMarginalSet(marginals.spec, xx, marginals.xy, marginals.px)
        report = mx.validate_marginals(broken)
        assert any("transpose" in v for v in report.violations)

    def test_degenerate_target_warned_not_violated(self):
        spec = mx.AlphabetSpec(1, 2)
        joint = mx.joint_from_table(spec, [((0,), 0, 0.5), ((1,), 0, 0.5)])
        report = mx.validate_marginals(mx.pairwise_from_joint(joint))
        assert report.ok
        assert any("degenerate" in w for w in report.warnings)


BREAKS = ["negative", "sum", "transpose", "row_sum", "p_y", "degenerate"]


def broken_marginals(p, m, seed, breaks, size):
    """The marginals of a random joint with the listed faults put in, each
    at a random place, by ``size`` (below or above the 1e-9 tolerance)."""
    return mx.PairwiseMarginalSet(*broken_tables(p, m, seed, breaks, size))


def broken_tables(p, m, seed, breaks, size):
    """``(spec, xx, xy, px)`` of :func:`broken_marginals`."""
    rng = np.random.default_rng(seed)
    spec = mx.AlphabetSpec(p, m)
    if "degenerate" in breaks:
        prob = np.zeros((spec.n_states, 2))
        prob[:, int(rng.integers(2))] = rng.dirichlet(np.ones(spec.n_states))
        joint = mx.DiscreteJoint(spec, prob)
    else:
        joint = mx.random_joint(spec, seed)
    marginals = mx.pairwise_from_joint(joint)
    xx = dict(marginals.xx)  # frozen views, some of them transposed
    xy, px = np.array(marginals.xy), np.array(marginals.px)
    i, j = rng.choice(p, size=2, replace=p == 1)
    k, l = rng.integers(m, size=2)
    if "negative" in breaks:
        target = [px[i], xy[i, :, 0]] + ([xx[(i, j)].copy()] if i != j else [])
        tab = target[int(rng.integers(len(target)))]
        tab.flat[int(rng.integers(tab.size))] = -size
        if tab.ndim == 2:
            xx[(i, j)] = tab
    if "sum" in breaks:
        px[i] *= 1.0 + size
    if "transpose" in breaks and i != j:
        tab = xx[(i, j)].copy()
        tab[k, l] += size
        xx[(i, j)] = tab
    if "row_sum" in breaks:  # mass moves within px[i]; its sum holds
        px[i, k] += size
        px[i, (k + 1) % m] -= size
    if "p_y" in breaks:
        xy[i, k] += [size, -size]
    return spec, xx, xy, px


class TestValidateParity:
    """The block reductions give the report of the table-by-table loop:
    same violations, same messages, same order."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 5),
        m=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        breaks=st.sets(st.sampled_from(BREAKS)),
        size=st.sampled_from([1e-11, 9e-10, 1.5e-9, 1e-8, 0.05, 0.3]),
    )
    def test_matches_the_loop(self, p, m, seed, breaks, size):
        marginals = broken_marginals(p, m, seed, breaks, size)
        assert mx.validate_marginals(marginals) == legacy_validate_marginals(marginals)

    @pytest.mark.parametrize("tol", [1e-12, 1e-3])
    def test_matches_the_loop_at_other_tolerances(self, tol):
        for seed in range(20):
            marginals = broken_marginals(3, 3, seed, {"sum", "transpose", "p_y"}, 1e-6)
            report = mx.validate_marginals(marginals, tol)
            assert report == legacy_validate_marginals(marginals, tol)

    def test_every_check_fires(self):
        kinds = {"negative", "sums to", "transpose", "row sums", "P(Y)"}
        found = set()
        for seed in range(40):
            marginals = broken_marginals(3, 2, seed, set(BREAKS) - {"degenerate"}, 0.05)
            for text in mx.validate_marginals(marginals).violations:
                found.update(kind for kind in kinds if kind in text)
        assert found == kinds


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestStoredForm:
    """A marginal set stores Q and xy; px and xx are views of Q."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 6),
        m=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        breaks=st.sets(st.sampled_from(BREAKS)),
        size=st.sampled_from([1e-11, 1.5e-9, 0.05, 0.3]),
    )
    def test_dict_constructor_round_trips_bit_for_bit(self, p, m, seed, breaks, size):
        spec, xx, xy, px = broken_tables(p, m, seed, breaks, size)
        marginals = mx.PairwiseMarginalSet(spec, xx, xy, px)
        assert list(marginals.xx) == list(permutations(range(p), 2))
        for key, tab in xx.items():
            assert bits(marginals.xx[key]) == bits(tab)
            assert np.shares_memory(marginals.xx[key], marginals.q)
        assert bits(marginals.px) == bits(px)
        assert np.shares_memory(marginals.px, marginals.q)
        assert bits(marginals.xy) == bits(xy)

    def test_arrays_and_views_are_read_only(self):
        marginals = mx.pairwise_from_joint(mx.random_joint(mx.AlphabetSpec(3, 2), seed=5))
        for a in (marginals.q, marginals.xy, marginals.px, marginals.xx[(2, 0)]):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        with pytest.raises(TypeError):
            marginals.xx[(0, 1)] = np.zeros((2, 2))
        assert set(vars(marginals)) <= {"spec", "q", "xy", "xx"}

    def test_from_q_copies_and_checks(self):
        marginals = mx.pairwise_from_joint(mx.random_joint(mx.AlphabetSpec(2, 3), seed=6))
        q, xy = np.array(marginals.q), np.array(marginals.xy)
        copy = mx.PairwiseMarginalSet.from_q(marginals.spec, q, xy)
        q[0, 0] = 7.0
        assert np.array_equal(copy.q, marginals.q)
        with pytest.raises(ValidationError, match="q must have shape"):
            mx.PairwiseMarginalSet.from_q(marginals.spec, q[:5, :5], xy)
        nan = np.array(marginals.q)
        nan[1, 4] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            mx.PairwiseMarginalSet.from_q(marginals.spec, nan, xy)
        stray = np.array(marginals.q)
        stray[3, 5] = 0.01  # inside diagonal block 1, off its diagonal
        with pytest.raises(ValidationError, match="diagonal block 1 of q is not diagonal"):
            mx.PairwiseMarginalSet.from_q(marginals.spec, stray, xy)

    def test_q_cap(self):
        mx.AlphabetSpec(1, 8192).require_q()  # (pm)^2 == Q_CAP
        assert 8192**2 == Q_CAP
        with pytest.raises(AtomCapExceeded):
            mx.AlphabetSpec(1, 8193).require_q()
        with pytest.raises(AtomCapExceeded):
            mx.PairwiseMarginalSet(mx.AlphabetSpec(1, 8193), {}, np.zeros((1, 8193, 2)), np.zeros((1, 8193)))

    def test_joint_under_the_atom_cap_with_too_large_a_q_is_refused(self):
        spec = mx.AlphabetSpec(1, 16_384)
        assert spec.n_atoms <= ATOM_CAP < spec.pm**2
        joint = mx.uniform_joint(spec)
        tracemalloc.start()
        try:
            with pytest.raises(AtomCapExceeded):
                mx.pairwise_from_joint(joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_marginal_deviation_is_the_largest_table_difference(self, p):
        spec = mx.AlphabetSpec(p, 3)
        a = mx.pairwise_from_joint(mx.random_joint(spec, seed=p))
        b = mx.pairwise_from_joint(mx.random_joint(spec, seed=p + 10))
        worst = float(np.abs(a.xy - b.xy).max())
        for key, tab in a.xx.items():
            worst = max(worst, float(np.abs(tab - b.xx[key]).max()))
        assert mx.marginal_deviation(a, b) == worst == mx.marginal_deviation(b, a)
        # px, on the diagonal of Q, is left out
        moved = mx.PairwiseMarginalSet(spec, dict(a.xx), a.xy, a.px + 0.5)
        assert mx.marginal_deviation(a, moved) == 0.0


class TestUniformAndPerturb:
    def test_uniform_atom_mass(self):
        joint = mx.uniform_joint(mx.AlphabetSpec(2, 2))
        assert_allclose(joint.prob, 0.125, atol=0)

    def test_perturbation_stays_within_radius(self):
        base = mx.uniform_joint(mx.AlphabetSpec(2, 2))
        moved = mx.perturb_joint(base, eps=0.01, seed=7)
        assert np.abs(moved.prob - base.prob).sum() <= 0.01 + 1e-12
        assert moved.prob.min() >= 0
        assert moved.prob.sum() == pytest.approx(1.0, abs=1e-12)

    def test_small_radius_is_saturated_from_uniform(self):
        base = mx.uniform_joint(mx.AlphabetSpec(2, 2))
        moved = mx.perturb_joint(base, eps=0.01, seed=7)
        assert np.abs(moved.prob - base.prob).sum() == pytest.approx(0.01, rel=1e-9)

    def test_zero_radius_is_identity(self):
        base = mx.uniform_joint(mx.AlphabetSpec(2, 2))
        assert mx.perturb_joint(base, eps=0.0, seed=3) is base

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidEpsilon):
            mx.perturb_joint(mx.uniform_joint(mx.AlphabetSpec(2, 2)), eps=-0.1, seed=0)

    def test_zero_atoms_never_go_negative(self):
        moved = mx.perturb_joint(mx.copy_fixture(), eps=0.2, seed=11)
        assert moved.prob.min() >= 0


class TestAdditiveFixture:
    @pytest.mark.parametrize("seed", range(5))
    def test_conditional_mean_is_separable_by_construction(self, seed):
        spec = mx.AlphabetSpec(2, 3)
        joint = mx.additive_fixture(spec, seed=seed)
        decomposition = mx.is_additive(joint, tol=1e-9)
        assert decomposition.additive
        cond = mx.conditional_expectation(joint)
        assert cond.values.min() >= 0.05 - 1e-12
        assert cond.values.max() <= 0.95 + 1e-12


class TestSingletonClass:
    def test_fixture_marginals_admit_exactly_one_joint(self, fixture_atoms):
        """Brute-force LP over all atoms: each atom's min equals its max."""
        joint = mx.nonadditive_fixture()
        marginals = mx.pairwise_from_joint(joint)
        spec = joint.spec
        states = spec.states()

        rows, rhs = [], []
        for k in range(2):
            for l in range(2):
                mask = (states[:, 0] == k) & (states[:, 1] == l)
                cols = np.zeros(spec.n_atoms)
                cols[2 * np.nonzero(mask)[0]] = 1.0
                cols[2 * np.nonzero(mask)[0] + 1] = 1.0
                rows.append(cols)
                rhs.append(marginals.xx[(0, 1)][k, l])
        for i in range(2):
            for k in range(2):
                for y in (0, 1):
                    mask = states[:, i] == k
                    cols = np.zeros(spec.n_atoms)
                    cols[2 * np.nonzero(mask)[0] + y] = 1.0
                    rows.append(cols)
                    rhs.append(marginals.xy[i, k, y])
        rows.append(np.ones(spec.n_atoms))
        rhs.append(1.0)
        a_eq, b_eq = np.array(rows), np.array(rhs)

        for atom in range(spec.n_atoms):
            c = np.zeros(spec.n_atoms)
            c[atom] = 1.0
            _, _, low = solve_lp(c, a_eq=a_eq, b_eq=b_eq, bounds=(0.0, None))
            _, _, neg_high = solve_lp(-c, a_eq=a_eq, b_eq=b_eq, bounds=(0.0, None))
            expected = fixture_atoms[spec.decode(atom // 2) + (atom % 2,)]
            assert low == pytest.approx(expected, abs=1e-9)
            assert -neg_high == pytest.approx(expected, abs=1e-9)


class TestFeasibleMember:
    def test_singleton_class_returns_the_fixture(self):
        joint = mx.nonadditive_fixture()
        member = mx.feasible_member(mx.pairwise_from_joint(joint))
        assert_allclose(member.prob, joint.prob, atol=1e-9)

    def test_unrealizable_marginals_rejected(self):
        # Locally consistent but globally impossible: X1 = Y, X2 = Y, X1 != X2.
        spec = mx.AlphabetSpec(2, 2)
        eq = np.array([[0.5, 0.0], [0.0, 0.5]])
        neq = np.array([[0.0, 0.5], [0.5, 0.0]])
        infeasible = mx.PairwiseMarginalSet(
            spec,
            {(0, 1): neq, (1, 0): neq.T},
            np.stack([eq, eq]),
            np.full((2, 2), 0.5),
        )
        assert mx.validate_marginals(infeasible).ok  # passes every local screen
        with pytest.raises(InconsistentMarginals):
            mx.feasible_member(infeasible)


def build_each_array_dataclass():
    """One instance of every frozen dataclass that holds arrays, built afresh."""
    joint = mx.nonadditive_fixture()
    data = mx.sample_dataset(joint, n=20, seed=0)
    system = mx.assemble_qd(mx.pairwise_from_joint(joint))
    return {
        "DiscreteJoint": joint,
        "Dataset": data,
        "PairwiseMarginalSet": mx.pairwise_from_joint(joint),
        "ConditionalTable": mx.conditional_expectation(joint),
        "GenericJoint": mx.flatten_joint(joint),
        "HgrResult": mx.hgr_svd(mx.flatten_joint(joint)),
        "QdSystem": system,
        "LowerBoundResult": mx.gamma_lb_iterative(system),
        "DesignSystem": mx.design_matrix(data),
        "TightnessCertificate": mx.check_tightness(system),
        "AdditiveDecomposition": mx.is_additive(joint),
        "GaussianMoments": mx.GaussianMoments(np.zeros(2), np.eye(2)),
        "SymmetricEigen": eigh(np.eye(2)),
    }


class TestArrayDataclassEquality:
    """Dataclasses holding arrays compare by identity: ``==`` answers
    instead of raising on the truth value of an array."""

    @pytest.mark.parametrize("name", sorted(build_each_array_dataclass()))
    def test_two_builds_compare_without_raising(self, name):
        a, b = build_each_array_dataclass()[name], build_each_array_dataclass()[name]
        assert type(a).__name__ == name
        assert (a == b) is False
        assert (a != b) is True
        assert a == a
        assert len({a, b}) == 2

    def test_value_types_keep_value_equality(self):
        assert mx.AlphabetSpec(2, 3) == mx.AlphabetSpec(2, 3)
        assert mx.validate_marginals(mx.pairwise_from_joint(mx.nonadditive_fixture())) == (
            mx.validate_marginals(mx.pairwise_from_joint(mx.nonadditive_fixture()))
        )
