import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import maxcorr as mx
from maxcorr.errors import (
    DegenerateY,
    DimensionMismatch,
    HConstraintViolated,
    InvalidEpsilon,
    MarginalMismatch,
    NotStationary,
    ValidationError,
)

from maxcorr.io import read_marginals_json
from maxcorr.numerics import numerical_rank

import maxcorr.lowerbound
import maxcorr.numerics
import maxcorr.tightness
from conftest import forced_lp_certificate, pinned_tightness_lp, quadratic_grid_oracle

DATA = Path(__file__).resolve().parent / "data"


def system_of(joint):
    return mx.assemble_qd(mx.pairwise_from_joint(joint))


class TestHValue:
    def test_zero_vector(self):
        assert mx.h_value(np.zeros(4), mx.AlphabetSpec(2, 2)) == 0.0

    def test_single_block(self):
        assert mx.h_value(np.array([-0.5, 0.5]), mx.AlphabetSpec(1, 2)) == 0.5

    def test_two_blocks_sum_of_maxima(self):
        z = np.array([0.6, -0.025, 0.0, -0.375])
        assert mx.h_value(z, mx.AlphabetSpec(2, 2)) == pytest.approx(0.6, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mx.h_value(np.zeros(3), mx.AlphabetSpec(2, 2))


class TestCheckTightness:
    def test_independent_uniform(self):
        cert = mx.check_tightness(system_of(mx.uniform_joint(mx.AlphabetSpec(2, 2))))
        assert cert.verdict == "Tight" and cert.tight
        assert_allclose(cert.z_star, 0.0, atol=1e-10)
        assert cert.lp_value == pytest.approx(0.0, abs=1e-10)

    def test_copy_fixture_boundary_case(self):
        cert = mx.check_tightness(system_of(mx.copy_fixture()))
        assert cert.tight
        assert cert.lp_value == pytest.approx(0.5, abs=1e-10)
        assert_allclose(cert.z_star, [-0.5, 0.5], atol=1e-10)
        assert cert.h_pos == pytest.approx(0.5, abs=1e-10)
        assert cert.h_neg == pytest.approx(0.5, abs=1e-10)

    def test_nonadditive_fixture_not_tight(self):
        system = system_of(mx.nonadditive_fixture())
        cert = mx.check_tightness(system)
        assert cert.verdict == "NotTight"
        assert cert.lp_value == pytest.approx(0.6, abs=1e-9)
        # grid-scan oracle over the one-dimensional minimizer family
        z_base = np.array([0.6, -0.025, 0.0, -0.375])
        direction = np.array([1.0, 1.0, -1.0, -1.0])
        assert np.abs(2 * system.q @ z_base - system.d).max() < 1e-12
        oracle = quadratic_grid_oracle(system, z_base, direction, half_range=3.0, points=60001)
        assert cert.lp_value == pytest.approx(oracle, abs=1e-4)

    def test_certificate_vector_minimizes_the_quadratic(self):
        for joint in (
            mx.uniform_joint(mx.AlphabetSpec(2, 2)),
            mx.copy_fixture(),
            mx.nonadditive_fixture(),
            mx.additive_fixture(mx.AlphabetSpec(2, 3), seed=8),
        ):
            system = system_of(joint)
            cert = mx.check_tightness(system)
            assert system.quadratic(cert.z_star) == pytest.approx(
                mx.gamma_lb_closed(system), abs=1e-9
            )

    def test_degenerate_target_rejected(self):
        spec = mx.AlphabetSpec(1, 2)
        joint = mx.joint_from_table(spec, [((0,), 1, 0.5), ((1,), 1, 0.5)])
        with pytest.raises(DegenerateY):
            mx.check_tightness(system_of(joint))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300])
    def test_a_tolerance_that_is_not_finite_and_non_negative_is_refused(self, tol):
        system = system_of(mx.additive_fixture(mx.AlphabetSpec(2, 2), seed=0))
        with pytest.raises(ValidationError, match="tol must be a finite number >= 0"):
            mx.check_tightness(system, tol=tol)
        assert mx.check_tightness(system, tol=0.0).tol == 0.0

    def test_single_feature_always_tight(self):
        # with one feature every conditional mean is trivially separable
        for seed in range(5):
            joint = mx.random_joint(mx.AlphabetSpec(1, 3), seed=seed)
            assert mx.check_tightness(system_of(joint)).tight

    def test_unused_label_handled(self):
        spec = mx.AlphabetSpec(1, 3)
        joint = mx.joint_from_table(spec, [((0,), 0, 0.5), ((1,), 1, 0.5)])
        cert = mx.check_tightness(system_of(joint))
        assert cert.tight

    def test_agrees_with_additivity_on_singleton_classes(self):
        """When the marginals pin down a unique joint, the verdict must match
        a direct additivity check of that joint."""
        singletons = [mx.nonadditive_fixture()]  # unique by the LP check
        # with a single feature the pairwise tables determine the joint
        singletons += [mx.random_joint(mx.AlphabetSpec(1, 3), seed=s) for s in range(5)]
        for joint in singletons:
            verdict = mx.check_tightness(system_of(joint)).tight
            additive = mx.is_additive(joint).additive
            assert verdict == additive

    @pytest.mark.parametrize("seed", range(10))
    def test_verdict_invariant_under_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            joint = mx.additive_fixture(mx.AlphabetSpec(2, 3), seed=seed)
        else:
            joint = mx.random_joint(mx.AlphabetSpec(2, 3), seed=seed)
        cert = mx.check_tightness(system_of(joint))
        permuted = mx.permute_labels(joint, int(rng.integers(2)), rng.permutation(3))
        cert_perm = mx.check_tightness(system_of(permuted))
        assert cert_perm.verdict == cert.verdict
        assert cert_perm.lp_value == pytest.approx(cert.lp_value, abs=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_soundness_tight_implies_attainment(self, seed):
        joint = mx.additive_fixture(mx.AlphabetSpec(2, 2), seed=seed)
        system = system_of(joint)
        cert = mx.check_tightness(system)
        assert cert.tight
        constructed = mx.construct_additive(cert.z_star, joint)
        exact = mx.hgr_svd(mx.flatten_joint(constructed)).rho
        assert exact == pytest.approx(mx.rho_lb(system), abs=1e-8)


class TestIsAdditive:
    def test_nonadditive_fixture_rejected(self):
        # the alternating sum of conditional means over a 2x2 square is the
        # obstruction: 1 + 0 != 1/2 + 3/4
        decomposition = mx.is_additive(mx.nonadditive_fixture())
        assert not decomposition.additive
        assert decomposition.residual > 0.05

    def test_independent_uniform_equal_split(self):
        decomposition = mx.is_additive(mx.uniform_joint(mx.AlphabetSpec(2, 2)))
        assert decomposition.additive
        assert decomposition.residual <= 1e-12
        assert_allclose(decomposition.f, 0.25, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_constructed_joints_are_additive(self, seed):
        joint = mx.additive_fixture(mx.AlphabetSpec(3, 2), seed=seed)
        cert = mx.check_tightness(system_of(joint))
        constructed = mx.construct_additive(cert.z_star, joint)
        assert mx.is_additive(constructed, tol=1e-9).additive

    def test_support_restricted_fit(self):
        # off-support states carry no constraint even if a full-table fit fails
        spec = mx.AlphabetSpec(2, 2)
        rows = [((0, 0), 0, 0.2), ((0, 0), 1, 0.2), ((1, 1), 0, 0.3), ((1, 1), 1, 0.3)]
        joint = mx.joint_from_table(spec, rows)
        assert mx.is_additive(joint).additive

    def test_degenerate_target_rejected(self):
        spec = mx.AlphabetSpec(1, 2)
        joint = mx.joint_from_table(spec, [((0,), 0, 0.5), ((1,), 0, 0.5)])
        with pytest.raises(DegenerateY):
            mx.is_additive(joint)


class TestConstructAdditive:
    def test_uniform_with_zero_vector_returns_base(self):
        base = mx.uniform_joint(mx.AlphabetSpec(2, 2))
        constructed = mx.construct_additive(np.zeros(4), base)
        assert_allclose(constructed.prob, base.prob, atol=0)

    def test_copy_fixture_reproduces_itself(self):
        base = mx.copy_fixture()
        constructed = mx.construct_additive(np.array([-0.5, 0.5]), base)
        assert_allclose(constructed.prob, base.prob, atol=1e-15)
        cond = mx.conditional_expectation(constructed)
        assert cond.values[0] == pytest.approx(0.0, abs=1e-12)
        assert cond.values[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_full_pipeline_postconditions(self, seed):
        joint = mx.additive_fixture(mx.AlphabetSpec(2, 3), seed=seed)
        marginals = mx.pairwise_from_joint(joint)
        system = mx.assemble_qd(marginals)
        cert = mx.check_tightness(system)
        constructed = mx.construct_additive(cert.z_star, joint, expected_marginals=marginals)

        built = mx.pairwise_from_joint(constructed)
        assert np.abs(built.xy - marginals.xy).max() <= 1e-12
        for key in marginals.xx:
            assert np.abs(built.xx[key] - marginals.xx[key]).max() <= 1e-12

        cond = mx.conditional_expectation(constructed)
        shift = joint.spec.indicator_matrix() @ cert.z_star
        assert np.abs(cond.values[cond.support] - (0.5 + shift[cond.support])).max() <= 1e-10

        decomposition = mx.is_additive(constructed)
        assert decomposition.additive
        # block tables recover the certificate up to the 1/(2p) offset and gauge
        reconstructed = decomposition.f.reshape(-1) - 1.0 / (2 * joint.spec.p)
        fitted_shift = joint.spec.indicator_matrix() @ reconstructed
        assert np.abs(fitted_shift - shift).max() <= 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(p=st.integers(1, 6), m=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_gather_matches_the_indicator_matrix(self, p, m, seed):
        """P*(x, y) = (1/2 +- z'w_x) Q(x) with z'w_x within 1e-15 of
        ``indicator_matrix() @ z``."""
        joint = mx.additive_fixture(mx.AlphabetSpec(p, m), seed=seed)
        z = mx.check_tightness(system_of(joint)).z_star
        p1x = np.clip(0.5 + joint.spec.indicator_matrix() @ z, 0.0, 1.0)
        qx = joint.px[:, None]
        want = np.stack([1.0 - p1x, p1x], axis=1) * qx
        assert np.all(np.abs(mx.construct_additive(z, joint).prob - want) <= 1e-15 * qx)

    def test_builds_no_indicator_matrix(self):
        """At p=16, m=2 the 2^16 x 32 indicator matrix alone would take 16 MiB."""
        joint = mx.additive_fixture(mx.AlphabetSpec(16, 2), seed=0)
        z = mx.check_tightness(system_of(joint)).z_star
        tracemalloc.start()
        try:
            mx.construct_additive(z, joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_base_from_feasibility_lp_when_only_marginals_given(self):
        joint = mx.additive_fixture(mx.AlphabetSpec(2, 2), seed=77)
        marginals = mx.pairwise_from_joint(joint)
        base = mx.feasible_member(marginals)
        cert = mx.check_tightness(mx.assemble_qd(marginals))
        constructed = mx.construct_additive(cert.z_star, base, expected_marginals=marginals)
        built = mx.pairwise_from_joint(constructed)
        assert np.abs(built.xy - marginals.xy).max() <= 1e-9

    def test_rejects_nonstationary_vector(self):
        base = mx.uniform_joint(mx.AlphabetSpec(2, 2))
        with pytest.raises(NotStationary):
            mx.construct_additive(np.array([0.3, 0.0, 0.0, 0.0]), base)

    def test_rejects_h_violation(self):
        base = mx.nonadditive_fixture()
        system = system_of(base)
        z = system.z0
        with pytest.raises(HConstraintViolated):
            mx.construct_additive(z, base)

    def test_rejects_marginal_mismatch(self):
        base = mx.uniform_joint(mx.AlphabetSpec(2, 2))
        other = mx.pairwise_from_joint(mx.nonadditive_fixture())
        with pytest.raises(MarginalMismatch):
            mx.construct_additive(np.zeros(4), base, expected_marginals=other)


class TestTightnessGap:
    def test_independent_uniform_all_zero(self):
        exact, bound, gap = mx.tightness_gap(mx.uniform_joint(mx.AlphabetSpec(2, 2)))
        assert exact == pytest.approx(0.0, abs=1e-9)
        assert bound == pytest.approx(0.0, abs=1e-9)
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_nonadditive_fixture_strict_gap(self):
        exact, bound, gap = mx.tightness_gap(mx.nonadditive_fixture())
        assert exact == pytest.approx(np.sqrt(0.065 / 0.24), abs=1e-9)
        assert bound == pytest.approx(np.sqrt(1 - 0.1775 / 0.24), abs=1e-9)
        assert gap == pytest.approx(0.0101061367867, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_additive_fixture_gap_vanishes(self, seed):
        joint = mx.additive_fixture(mx.AlphabetSpec(2, 3), seed=seed)
        _, _, gap = mx.tightness_gap(joint)
        assert -1e-9 <= gap <= 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_gap_never_negative(self, seed):
        joint = mx.random_joint(mx.AlphabetSpec(3, 2), seed=seed)
        _, _, gap = mx.tightness_gap(joint)
        assert gap >= -1e-9


class TestNearUniformProbe:
    def test_zero_radius_always_tight(self):
        assert mx.near_uniform_probe(mx.AlphabetSpec(2, 2), eps=0.0, trials=5, seed=1) == 1.0

    def test_small_radius_all_tight(self):
        fraction = mx.near_uniform_probe(mx.AlphabetSpec(2, 2), eps=0.01, trials=40, seed=11)
        assert fraction == 1.0

    def test_seeding_is_reproducible(self):
        a = mx.near_uniform_probe(mx.AlphabetSpec(2, 2), eps=0.5, trials=25, seed=3)
        b = mx.near_uniform_probe(mx.AlphabetSpec(2, 2), eps=0.5, trials=25, seed=3)
        assert a == b

    def test_large_radius_admits_failures(self):
        """At radius 1.9 nearly the whole simplex is reachable; combined with
        the known NotTight fixture the tight fraction drops below one."""
        fraction = mx.near_uniform_probe(mx.AlphabetSpec(2, 2), eps=1.9, trials=50, seed=5)
        fixture_tight = mx.check_tightness(system_of(mx.nonadditive_fixture())).tight
        assert not fixture_tight
        combined = (fraction * 50 + int(fixture_tight)) / 51
        assert combined < 1.0

    def test_invalid_radius(self):
        with pytest.raises(InvalidEpsilon):
            mx.near_uniform_probe(mx.AlphabetSpec(2, 2), eps=-1.0, trials=5, seed=0)


def degenerate_joint(p, m, kind, seed, additive):
    """A joint with zero-probability X-states.  Four kinds give
    nullity(Q) > p - 1: the last label of one feature (``zero_label``) or of
    two features (``zero_labels``) never occurs, one feature copies another
    (``copy``), or only p(m - 1) X-states occur (``thin``), fewer than the
    pm - p + 1 a Q with only the block shifts in its null space needs.
    ``sparse`` keeps about 30% of the X-states, which mostly leaves only the
    block shifts: over seeds 0-29, p 2-4 and m 2-3 with ``additive=False``,
    122 of 180 draws have nullity(Q) = p - 1."""
    spec = mx.AlphabetSpec(p, m)
    base = mx.additive_fixture(spec, seed) if additive else mx.random_joint(spec, seed)
    rng = np.random.default_rng(seed)
    states = spec.states()
    prob = np.array(base.prob)
    if kind.startswith("zero_label"):
        for i in rng.choice(p, size=2 if kind == "zero_labels" else 1, replace=False):
            prob[states[:, i] == m - 1] = 0.0
    elif kind == "sparse":
        keep = rng.uniform(size=spec.n_states) < 0.3
        keep[rng.choice(spec.n_states, size=2, replace=False)] = True  # both y values occur
        prob[~keep] = 0.0
    elif kind == "thin":
        keep = np.zeros(spec.n_states, dtype=bool)
        keep[rng.choice(spec.n_states, size=p * (m - 1), replace=False)] = True
        prob[~keep] = 0.0
    else:
        i, j = rng.choice(p, size=2, replace=False)
        prob[states[:, i] != states[:, j]] = 0.0
    return mx.DiscreteJoint(spec, prob / prob.sum())


class TestBlockShiftRays:
    """The block shifts 1_i - 1_j lie in null(Q) and leave h(z), h(-z)
    unchanged; the LP must not see them as free rays."""

    def test_copy_feature_set_solves(self):
        # p=6, m=3, feature 6 a copy of feature 4, nullity(Q) = 7: HiGHS
        # failed with status 4 while the block shifts stayed in the basis.
        system = mx.assemble_qd(read_marginals_json(DATA / "copy_feature_p6_m3.json"))
        cert = mx.check_tightness(system)
        oracle = pinned_tightness_lp(system)
        assert cert.lp_value == pytest.approx(oracle, abs=1e-9)
        assert cert.lp_value == pytest.approx(0.2631370964, abs=1e-9)
        assert cert.verdict == "Tight"
        assert max(cert.h_pos, cert.h_neg) <= 0.5 + cert.tol

    def test_not_tight_witness_keeps_h_values(self):
        """A NotTight z_star may sit anywhere along the block shifts; the LP
        value and both h values are what the certificate fixes."""
        cert = mx.check_tightness(system_of(mx.nonadditive_fixture()))
        assert cert.verdict == "NotTight"
        assert cert.lp_value == pytest.approx(0.6, abs=1e-9)
        assert cert.h_pos == pytest.approx(0.6, abs=1e-9)
        assert cert.h_neg == pytest.approx(0.4, abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 41])
    def test_keeps_every_other_null_direction(self, seed):
        """Sparse supports where the LP needs both null directions left once
        the block shifts are out: dropping either one makes it NotTight."""
        system = system_of(degenerate_joint(4, 2, "sparse", seed, additive=False))
        cert = mx.check_tightness(system)
        assert cert.verdict == "Tight"
        assert cert.lp_value == pytest.approx(pinned_tightness_lp(system), abs=1e-9)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        p=st.integers(2, 6),
        m=st.integers(2, 3),
        kind=st.sampled_from(["zero_label", "zero_labels", "copy", "sparse"]),
        seed=st.integers(0, 2**32 - 1),
        additive=st.booleans(),
    )
    def test_matches_pinned_lp(self, p, m, kind, seed, additive):
        system = system_of(degenerate_joint(p, m, kind, seed, additive))
        cert = mx.check_tightness(system)
        oracle = pinned_tightness_lp(system)
        assert cert.verdict == ("Tight" if oracle <= 0.5 + cert.tol else "NotTight")
        assert cert.lp_value == pytest.approx(oracle, abs=1e-9)


def full_support_joint(p, m, seed, additive):
    spec = mx.AlphabetSpec(p, m)
    return mx.additive_fixture(spec, seed) if additive else mx.random_joint(spec, seed)


@pytest.fixture
def lp_calls(monkeypatch):
    """Calls of ``solve_lp`` from the tightness module."""
    calls = []
    real = maxcorr.tightness.solve_lp

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(maxcorr.tightness, "solve_lp", counting)
    return calls


class TestClosedForm:
    """When null(Q) holds only the block shifts, every minimizer has the
    same h values: the certificate is max(h(z0), h(-z0)), without the LP."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        p=st.integers(2, 6),
        m=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        additive=st.booleans(),
    )
    def test_matches_the_lp_on_full_support(self, p, m, seed, additive):
        system = system_of(full_support_joint(p, m, seed, additive))
        cert = mx.check_tightness(system)
        lp = forced_lp_certificate(system)
        assert cert.verdict == lp.verdict
        assert cert.z_star.tobytes() == lp.z_star.tobytes()
        assert (cert.h_pos, cert.h_neg) == (lp.h_pos, lp.h_neg)
        assert abs(cert.lp_value - lp.lp_value) <= 1e-14

    @pytest.mark.parametrize("p, m", [(1, 2), (2, 2), (3, 3), (6, 3)])
    def test_no_lp_on_full_support(self, lp_calls, monkeypatch, p, m):
        # nor a search for free labels or dependent features: nullity <= p - 1
        # settles the route
        monkeypatch.setattr(maxcorr.tightness, "_free_labels", None)
        monkeypatch.setattr(maxcorr.tightness, "_merge_functions", None)
        for seed, additive in [(0, True), (1, False)]:
            mx.check_tightness(system_of(full_support_joint(p, m, seed, additive)))
        assert lp_calls == []

    @pytest.mark.parametrize("kind", ["zero_label", "copy", "thin"])
    def test_one_lp_on_extra_null_directions(self, lp_calls, kind):
        """A thin support takes one LP; a zero label alone takes the
        closed form of :class:`TestZeroLabelClosedForm`, a copied feature
        that of :class:`TestDependentFeatureClosedForm`."""
        mx.check_tightness(system_of(degenerate_joint(4, 3, kind, seed=5, additive=True)))
        assert len(lp_calls) == {"zero_label": 0, "copy": 0, "thin": 1}[kind]

    def test_copy_feature_fixture_takes_no_lp(self, lp_calls):
        system = mx.assemble_qd(read_marginals_json(DATA / "copy_feature_p6_m3.json"))
        cert = mx.check_tightness(system)
        assert lp_calls == []
        assert abs(cert.lp_value - forced_lp_certificate(system).lp_value) <= 1e-14

    def test_witness_is_a_fresh_array(self):
        for joint in (mx.nonadditive_fixture(), full_support_joint(3, 2, 4, True)):
            system = system_of(joint)
            cert = mx.check_tightness(system)
            assert cert.z_star.base is None
            assert not np.shares_memory(cert.z_star, system.factor.v)


def zero_label_joint(p, m, counts, seed, additive):
    """A full-support joint with ``counts[i]`` labels of feature i, drawn
    from ``seed``, given probability exactly zero."""
    spec = mx.AlphabetSpec(p, m)
    prob = np.array(full_support_joint(p, m, seed, additive).prob)
    rng = np.random.default_rng(seed)
    states = spec.states()
    for i, count in enumerate(counts):
        prob[np.isin(states[:, i], rng.choice(m, size=count, replace=False))] = 0.0
    return mx.DiscreteJoint(spec, prob / prob.sum())


@st.composite
def zero_label_cases(draw):
    p, m = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(0, m - 1), min_size=p, max_size=p).filter(any))
    return p, m, counts, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


class TestZeroLabelClosedForm:
    """A label of probability exactly zero adds only its unit direction to
    null(Q), along which h(z) and h(-z) stay put inside the block's range:
    the certificate is z0 with those coordinates clipped, without the LP."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=zero_label_cases())
    @example(case=(3, 3, [2, 0, 1], 5, True))  # one support label: two zeros in a block
    @example(case=(2, 4, [3, 2], 1, False))
    @example(case=(1, 3, [2], 0, True))
    def test_matches_the_lp_oracles(self, case):
        p, m, counts, seed, additive = case
        system = system_of(zero_label_joint(p, m, counts, seed, additive))
        free = maxcorr.tightness._free_labels(system)
        assert np.count_nonzero(free) == sum(counts)
        # the route: null(Q) is the block shifts and the free labels
        assert system.factor.null_basis().shape[1] == p - 1 + sum(counts)
        cert = mx.check_tightness(system)
        lp = forced_lp_certificate(system)
        pinned = pinned_tightness_lp(system)
        assert cert.verdict == lp.verdict
        assert cert.verdict == ("Tight" if pinned <= 0.5 + cert.tol else "NotTight")
        assert abs(cert.lp_value - lp.lp_value) <= 1e-14
        assert cert.lp_value == pytest.approx(pinned, abs=1e-9)

        z, z0 = cert.z_star, system.z0
        assert (cert.h_pos, cert.h_neg) == (mx.h_value(z, system.spec), mx.h_value(-z, system.spec))
        assert np.linalg.norm(2.0 * system.q @ z - system.d) <= 1e-12
        if cert.tight:
            assert max(cert.h_pos, cert.h_neg) <= 0.5 + cert.tol
        # only free coordinates move, and only when z0 has them out of range
        assert (z[~free] + 0.0).tobytes() == (z0[~free] + 0.0).tobytes()
        blocks, mask = z0.reshape(p, m), free.reshape(p, m)
        lo = np.where(mask, np.inf, blocks).min(axis=1, keepdims=True)
        hi = np.where(mask, -np.inf, blocks).max(axis=1, keepdims=True)
        if np.all((blocks >= lo) & (blocks <= hi) | ~mask):
            assert (z + 0.0).tobytes() == (z0 + 0.0).tobytes()

    def test_witness_clips_free_coordinates_into_range(self):
        clip = maxcorr.tightness._clip_free
        free = np.array([False, True, False, True, False, False])
        z0 = np.array([0.3, -0.0, -0.2, 0.1, 0.5, 0.7])
        z = clip(z0, free, mx.AlphabetSpec(2, 3))
        assert z.tobytes() == np.array([0.3, 0.0, -0.2, 0.5, 0.5, 0.7]).tobytes()
        # one support label: the range is that label's value
        z = clip(np.array([1e-17, -0.4, 0.2]), np.array([True, False, True]), mx.AlphabetSpec(1, 3))
        assert z.tolist() == [-0.4, -0.4, -0.4]

    def test_a_block_without_support_has_no_free_labels(self, lp_calls):
        """Q = 0 leaves no range to clip into; the LP decides."""
        spec = mx.AlphabetSpec(1, 2)
        system = mx.QdSystem(spec, np.zeros((2, 2)), np.zeros(2), 0.5)
        assert not maxcorr.tightness._free_labels(system).any()
        assert mx.check_tightness(system).lp_value == 0.0
        assert len(lp_calls) == 1

    def test_near_zero_probability_takes_the_lp(self, lp_calls):
        """px = 1e-13 in place of an exact 0: the direction is below the
        rank cut, but the label is not free, so the LP decides."""
        joint = zero_label_joint(3, 3, [0, 1, 0], 2, True)
        k = int(np.flatnonzero(system_of(joint).q.diagonal()[3:6] == 0.0)[0])
        prob = np.array(joint.prob)
        hit = joint.spec.states()[:, 1] == k  # feature 2 takes its zero label
        prob[hit] = 1e-13 / prob[hit].size
        system = system_of(mx.DiscreteJoint(joint.spec, prob))
        assert system.q[3 + k, 3 + k] == pytest.approx(1e-13, rel=1e-6)
        assert system.factor.null_basis().shape[1] == 3
        cert = mx.check_tightness(system)
        assert len(lp_calls) == 1
        assert cert.lp_value == pytest.approx(pinned_tightness_lp(system), abs=1e-9)

    def test_zero_probability_with_a_nonzero_q_entry_takes_the_lp(self, lp_calls):
        """px exactly 0 but a nonzero entry in the label's row of Q (a set
        no joint realizes): not free, so the LP decides."""
        system = system_of(zero_label_joint(3, 3, [0, 1, 0], 2, True))
        k = int(np.flatnonzero(system.q.diagonal() == 0.0)[0])
        q = np.array(system.q)
        q[k, 0] = q[0, k] = 1e-13
        system = mx.QdSystem(system.spec, q, system.d, system.p_y1)
        assert system.factor.null_basis().shape[1] == 3
        assert not maxcorr.tightness._free_labels(system).any()
        cert = mx.check_tightness(system)
        assert len(lp_calls) == 1
        assert cert.lp_value == pytest.approx(forced_lp_certificate(system).lp_value, abs=1e-14)


def dependent_joint(p, m, derived, seed, additive, zero_label):
    """A joint on p features, of which the last ``len(derived)`` are drawn
    from the first ones and then all are shuffled by ``seed``.

    ``derived`` lists (source, kind) per derived feature: the feature is a
    function of the feature at index ``source`` among those before it, so
    chains occur.  ``kind`` is ``copy`` (a random relabeling), ``map`` (a
    random map of the labels, many-to-one in general) or ``constant``.  The
    shuffle puts a feature before or after its source.  With ``zero_label``
    one label of the first feature never occurs.
    """
    rng = np.random.default_rng(seed)
    b = p - len(derived)
    base = full_support_joint(b, m, seed, additive)
    x = mx.AlphabetSpec(b, m).states()
    prob = np.array(base.prob)
    if zero_label:
        prob[x[:, 0] == rng.integers(m)] = 0.0
    for source, kind in derived:
        g = {
            "copy": rng.permutation(m),
            "map": rng.integers(m, size=m),
            "constant": np.full(m, rng.integers(m)),
        }[kind]
        x = np.column_stack([x, g[x[:, source]]])
    x = x[:, rng.permutation(p)]
    spec = mx.AlphabetSpec(p, m)
    out = np.zeros((spec.n_states, 2))
    np.add.at(out, spec.encode_rows(x), prob)
    return mx.DiscreteJoint(spec, out / out.sum())


@st.composite
def dependent_cases(draw):
    p, m = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    b = draw(st.integers(1, p - 1))
    kinds = st.sampled_from(["copy", "map", "constant"])
    derived = [(draw(st.integers(0, k - 1)), draw(kinds)) for k in range(b, p)]
    return p, m, derived, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), draw(st.booleans())


class TestDependentFeatureClosedForm:
    """A feature that is a function of another adds null directions along
    which z moves into the other feature's block without raising h(z) or
    h(-z): the certificate is z0 merged that way, without the LP.  The LP
    stays the oracle, and decides wherever the merge leaves a direction
    unexplained."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=dependent_cases())
    @example(case=(3, 3, [(0, "copy"), (1, "copy")], 1, True, False))  # a chain of copies
    @example(case=(4, 4, [(1, "map"), (0, "constant")], 2, False, True))
    @example(case=(2, 2, [(0, "constant")], 3, True, True))
    @example(case=(6, 2, [(1, "copy"), (4, "map")], 4, False, False))
    def test_matches_the_lp(self, case):
        p, m, derived, seed, additive, zero_label = case
        system = system_of(dependent_joint(p, m, derived, seed, additive, zero_label))
        cert = mx.check_tightness(system)
        lp = forced_lp_certificate(system)
        assert cert.verdict == lp.verdict
        assert abs(cert.lp_value - lp.lp_value) <= 1e-11
        z, spec = cert.z_star, system.spec
        assert (cert.h_pos, cert.h_neg) == (mx.h_value(z, spec), mx.h_value(-z, spec))
        if cert.tight:
            assert np.linalg.norm(2.0 * system.q @ z - system.d) <= 1e-9
            assert max(cert.h_pos, cert.h_neg) <= 0.5 + cert.tol

        # the merge, with the free labels clipped, keeps z a minimizer and
        # raises neither h
        merged, _ = maxcorr.tightness._merge_functions(system)
        z = maxcorr.tightness._clip_free(merged, maxcorr.tightness._free_labels(system), spec)
        z0 = system.z0
        assert np.linalg.norm(2.0 * system.q @ z - system.d) <= 1e-9
        assert mx.h_value(z, spec) <= mx.h_value(z0, spec) + 1e-12
        assert mx.h_value(-z, spec) <= mx.h_value(-z0, spec) + 1e-12

    def test_merges_copies_maps_and_chains(self, lp_calls):
        """X2 a relabeled copy of X1, X3 a many-to-one map of X2, X4 constant:
        the merge accounts for every null direction beyond the shifts."""
        derived = [(0, "copy"), (1, "map"), (0, "constant")]
        system = system_of(dependent_joint(5, 3, derived, 7, True, False))
        free = maxcorr.tightness._free_labels(system)
        _, merged = maxcorr.tightness._merge_functions(system)
        extra = system.factor.null_basis().shape[1] - (system.spec.p - 1)
        assert extra == np.count_nonzero(free) + merged > np.count_nonzero(free)
        mx.check_tightness(system)
        assert lp_calls == []

    def test_off_entry_takes_the_lp(self, lp_calls):
        """X3 a copy of X1, with 1e-13 in place of a zero of their block:
        the direction stays below the rank cut, but X3 is no longer a
        function of X1, so the LP decides."""
        system = system_of(append_copy(full_support_joint(2, 3, 4, True), 0))
        exact = mx.check_tightness(system)
        assert lp_calls == []
        q = np.array(system.q)
        q[0, 7] = q[7, 0] = 1e-13  # row (1, 0), column (3, 1)
        system = mx.QdSystem(system.spec, q, system.d, system.p_y1)
        assert system.factor.null_basis().shape[1] == 2 + 2
        cert = mx.check_tightness(system)
        assert len(lp_calls) == 1
        assert cert.verdict == exact.verdict
        assert cert.lp_value == pytest.approx(exact.lp_value, abs=1e-9)

    def test_nothing_merges_into_a_block_without_support(self, lp_calls):
        """Block 1 of Q all zero: every feature is vacuously a function of
        it, but merging into it would zero z_2, which is no null move."""
        inner = system_of(full_support_joint(1, 3, 2, True))
        q = np.zeros((6, 6))
        q[3:, 3:] = inner.q
        d = np.concatenate([np.zeros(3), inner.d])
        system = mx.QdSystem(mx.AlphabetSpec(2, 3), q, d, inner.p_y1)
        _, merged = maxcorr.tightness._merge_functions(system)
        assert merged == 0
        cert = mx.check_tightness(system)
        assert len(lp_calls) == 1
        assert cert.lp_value == forced_lp_certificate(system).lp_value

    @pytest.mark.parametrize("with_copy", [False, True])
    def test_unexplained_direction_takes_the_lp(self, lp_calls, with_copy):
        """X2 is a function of X1 on this support, but a null direction that
        no dependency explains is left, with or without an appended copy."""
        joint = degenerate_joint(4, 2, "sparse", 1, False)
        system = system_of(append_copy(joint, 0) if with_copy else joint)
        _, merged = maxcorr.tightness._merge_functions(system)
        assert merged > 0
        cert = mx.check_tightness(system)
        assert len(lp_calls) == 1
        lp = forced_lp_certificate(system)
        assert (cert.verdict, cert.lp_value) == (lp.verdict, lp.lp_value)


class TestOneFactorization:
    @pytest.fixture
    def linalg_calls(self, monkeypatch):
        """Calls of the numpy factorizations, by name, and of the factor's
        minimum-norm ``solve``."""
        calls = {"eigh": 0, "eigvalsh": 0, "svd": 0, "qr": 0, "solve": 0}
        for name in calls:
            owner = maxcorr.numerics.SymmetricEigen if name == "solve" else np.linalg
            real = getattr(owner, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        return calls

    def test_one_eigh_per_system(self, linalg_calls):
        for joint, lp_route in (
            (mx.nonadditive_fixture(), False),
            (full_support_joint(4, 3, 2, False), False),
            (degenerate_joint(3, 3, "zero_label", 2, True), False),
            (degenerate_joint(4, 2, "copy", 5, False), False),
            (degenerate_joint(4, 2, "sparse", 1, False), True),
        ):
            for name in linalg_calls:
                linalg_calls[name] = 0
            system = system_of(joint)  # assemble_qd(check=True)
            mx.gamma_lb_closed(system)
            mx.rho_lb(system)
            system.z0
            mx.check_tightness(system)
            assert linalg_calls["eigh"] == 1
            assert linalg_calls["eigvalsh"] == 0
            # the LP route alone orthonormalizes its basis, by one SVD; a
            # zero label or a copied feature takes a closed form
            assert linalg_calls["svd"] == int(lp_route)
            assert linalg_calls["qr"] == 0
            # z0 is solved for once, then read by the bound and the certificate
            assert linalg_calls["solve"] == 1

    def test_factor_is_the_eigh_of_q(self):
        system = system_of(full_support_joint(3, 3, 1, False))
        w, v = np.linalg.eigh(system.q)
        assert system.factor.w.tobytes() == w.tobytes()
        assert system.factor.v.tobytes() == v.tobytes()


def nearly_singular_system(rel):
    """A full-support system whose smallest nonzero eigenvalue is moved to
    ``rel`` times the top one, with d kept out of that direction so that it
    stays in the column space whichever way the rank is decided."""
    system = system_of(full_support_joint(3, 2, 7, False))
    p = system.spec.p
    vals, vecs = np.linalg.eigh(system.q)
    v = vecs[:, p - 1]  # the first eigenvector past the p - 1 block shifts
    assert vals[p - 2] < 1e-14 < vals[p - 1]
    q = system.q + (rel * vals[-1] - vals[p - 1]) * np.outer(v, v)
    q = 0.5 * (q + q.T)
    d = system.d - (v @ system.d) * v
    return mx.QdSystem(system.spec, q, d, system.p_y1)


class TestNearlySingularQ:
    """The rank cut RANK_TOL = 1e-10 decides the route, as it decides the
    null basis of the factor."""

    def test_direction_below_the_cut_takes_the_lp(self, lp_calls):
        system = nearly_singular_system(1e-12)
        assert system.factor.null_basis().shape[1] == system.spec.p
        cert = mx.check_tightness(system)
        assert len(lp_calls) == 1
        # the LP also ranges along the dropped direction, so it can beat z0
        assert cert.lp_value <= max(cert.h_pos, cert.h_neg) + 1e-12

    def test_direction_above_the_cut_takes_the_closed_form(self, lp_calls):
        system = nearly_singular_system(1e-8)
        assert system.factor.null_basis().shape[1] == system.spec.p - 1
        cert = mx.check_tightness(system)
        assert lp_calls == []
        assert cert.lp_value == max(cert.h_pos, cert.h_neg)


class TestRankParity:
    """The eigenvalue cut |w| > RANK_TOL * max|w| decides the same rank as
    the SVD cut of :func:`numerical_rank` on the singular values of Q."""

    @staticmethod
    def assert_same_rank(system):
        svd_rank = numerical_rank(np.linalg.svd(system.q, compute_uv=False))
        assert int(system.factor.kept().sum()) == svd_rank

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        p=st.integers(2, 6),
        m=st.integers(2, 3),
        kind=st.sampled_from(["full", "zero_label", "copy", "sparse"]),
        seed=st.integers(0, 2**32 - 1),
        additive=st.booleans(),
    )
    def test_matches_the_svd_cut(self, p, m, kind, seed, additive):
        if kind == "full":
            joint = full_support_joint(p, m, seed, additive)
        else:
            joint = degenerate_joint(p, m, kind, seed, additive)
        self.assert_same_rank(mx.assemble_qd(mx.pairwise_from_joint(joint), check=False))

    @pytest.mark.parametrize("rel", [1e-12, 1e-8])
    def test_matches_the_svd_cut_nearly_singular(self, rel):
        self.assert_same_rank(nearly_singular_system(rel))


def certificate_route(system):
    """The route :func:`check_tightness` takes: ``closed`` (nullity at most
    p - 1), ``clip`` (zero-probability labels account for the rest),
    ``merge`` (features that are functions of others account for what the
    zero-probability labels leave) or ``lp``."""
    extra = system.factor.null_basis().shape[1] - (system.spec.p - 1)
    if extra <= 0:
        return "closed"
    if np.count_nonzero(maxcorr.tightness._free_labels(system)) == extra:
        return "clip"
    return "lp" if maxcorr.tightness._known_null_minimizer(system, extra) is None else "merge"


def permute_features(joint, order):
    """Feature k of the result is feature ``order[k]`` of ``joint``."""
    spec = joint.spec
    prob = np.zeros_like(joint.prob)
    prob[spec.encode_rows(spec.states()[:, order])] = joint.prob
    return mx.DiscreteJoint(spec, prob)


def flip_y(joint):
    return mx.DiscreteJoint(joint.spec, joint.prob[:, ::-1].copy())


def append_copy(joint, feature):
    """``joint`` with a feature p + 1 that always equals ``feature``."""
    spec = joint.spec
    wide = mx.AlphabetSpec(spec.p + 1, spec.m)
    states = wide.states()
    on = states[:, -1] == states[:, feature]
    prob = np.zeros((wide.n_states, 2))
    prob[on] = joint.prob[spec.encode_rows(states[on, :-1])]
    return mx.DiscreteJoint(wide, prob)


#: transform name -> (joint, rng) -> transformed joint
TRANSFORMS = {
    "permute_labels": lambda joint, rng: mx.permute_labels(
        joint, int(rng.integers(joint.spec.p)), rng.permutation(joint.spec.m)
    ),
    "permute_features": lambda joint, rng: permute_features(joint, rng.permutation(joint.spec.p)),
    "flip_y": lambda joint, rng: flip_y(joint),
    "append_copy": lambda joint, rng: append_copy(joint, int(rng.integers(joint.spec.p))),
}

#: base kind -> the route its certificate takes; a thin base is drawn again
#: when zero labels or dependent features explain its support
BASE_ROUTES = {"full": "closed", "zero_label": "clip", "copy": "merge", "thin": "lp"}


class TestMetamorphic:
    """Relabeling a feature, reordering the features, swapping the two
    values of Y and appending a copy of a feature leave the marginal class's
    bound and certificate unchanged: the same verdict, and gamma and
    lp_value within 1e-13.  ``rho_lb`` is compared squared, since the
    square root amplifies rounding near 0.  The bases reach all four
    routes, and an appended copy sends most of them to the merge."""

    @staticmethod
    def summary(joint):
        system = system_of(joint)
        cert = mx.check_tightness(system)
        bound = mx.rho_lb(system) ** 2
        return certificate_route(system), cert.verdict, mx.gamma_lb_closed(system), cert.lp_value, bound

    @pytest.mark.parametrize("transform", sorted(TRANSFORMS))
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        p=st.integers(2, 4),
        m=st.integers(2, 3),
        kind=st.sampled_from(sorted(BASE_ROUTES)),
        seed=st.integers(0, 2**32 - 1),
        additive=st.booleans(),
    )
    def test_certificate_is_invariant(self, transform, p, m, kind, seed, additive):
        if kind == "full":
            joint = full_support_joint(p, m, seed, additive)
        else:
            joint = degenerate_joint(p, m, kind, seed, additive)
        route, verdict, gamma, lp_value, bound = self.summary(joint)
        assume(kind != "thin" or route == "lp")
        assert route == BASE_ROUTES[kind]
        moved = TRANSFORMS[transform](joint, np.random.default_rng(seed))
        route_t, verdict_t, gamma_t, lp_value_t, bound_t = self.summary(moved)
        if transform != "append_copy":  # a copy of a one-label feature takes the clip
            assert route_t == route
        assert verdict_t == verdict
        assert abs(gamma_t - gamma) <= 1e-13
        assert abs(lp_value_t - lp_value) <= 1e-13
        assert abs(bound_t - bound) <= 1e-13
