"""Walkthrough: building the distribution that attains the bound.

When some quadratic minimizer z* passes both per-block max bounds, the joint

    P*(x, y=1) = (1/2 + z*'w_x) Q(x),   P*(x, y=0) = (1/2 - z*'w_x) Q(x)

(for any base Q in the marginal class) keeps every pairwise marginal, has an
additive conditional mean, and its exact maximal correlation equals the
bound.  We verify all three properties on a random additive example.
"""

import maxcorr as mx

spec = mx.AlphabetSpec(p=3, m=3)
joint = mx.additive_fixture(spec, seed=2025)
marginals = mx.pairwise_from_joint(joint)
system = mx.assemble_qd(marginals)

cert = mx.check_tightness(system)
print(f"verdict: {cert.verdict}   (lp value {cert.lp_value:.6f} <= 0.5)")

constructed = mx.construct_additive(cert.z_star, joint, expected_marginals=marginals)

# 1. marginals preserved
worst = mx.marginal_deviation(mx.pairwise_from_joint(constructed), marginals)
print(f"max marginal deviation of the construction: {worst:.3e}")

# 2. conditional mean is additive with tables z* block + 1/(2p)
decomposition = mx.is_additive(constructed)
print(f"additive fit residual: {decomposition.residual:.3e}")
print("per-feature tables f_i(k):")
print(decomposition.f)

# 3. the construction attains the bound
bound = mx.rho_lb(system)
attained = mx.hgr_svd(mx.flatten_joint(constructed)).rho
print(f"\nseparable bound:             {bound:.12f}")
print(f"maximal corr. of the build:  {attained:.12f}")
print(f"difference:                  {attained - bound:.3e}")

# The base need not be the original joint: any member of the class works.
# Here we recover one from the marginals alone by a feasibility LP.
member = mx.feasible_member(marginals)
rebuilt = mx.construct_additive(cert.z_star, member, expected_marginals=marginals)
print(
    "\nsame construction from an LP-recovered base, maximal corr.:",
    f"{mx.hgr_svd(mx.flatten_joint(rebuilt)).rho:.12f}",
)
