"""Is the separable lower bound achieved, and by which distribution?

A member of the marginal class attains rho_lb exactly when its conditional
mean E[Y|X] is additive, 1/2 + z'w_x for a minimizer z of the quadratic, at
every x it gives positive probability.  The certificate asks whether some
minimizer satisfies the per-block max bounds

    h(z) <= 1/2  and  h(-z) <= 1/2,
    h(z) = sum_i max(z over block i).

Those bounds keep 1/2 + z'w_x inside [0, 1] at every x of the product
alphabet, so a passing z yields the achieving joint directly:

    P*(x, y=1) = (1/2 + z'w_x) Q(x),    P*(x, y=0) = (1/2 - z'w_x) Q(x)

for any base Q in the class.  P* keeps the pairwise marginals, has the
additive conditional mean 1/2 + z'w_x, and attains rho_lb.  So Tight proves
the bound attained.  NotTight proves that no member whose X marginal has
full support attains it; a member that gives some x probability 0 needs the
bounds only on the other x, and may attain it (the golden input sparse_4x2
has such a member, zero on one of its 16 states).

The decision ranges over the FULL minimizer set {z0 + N c : c free} (z0
the minimum-norm stationary point, N a null-space basis of Q), since the
minimum-norm point alone may violate the bounds while another minimizer
passes.  The block shifts 1_i - 1_j (all ones on block i, minus all ones on
block j) always lie in null(Q) and leave both h(z) and h(-z) unchanged, so N
is taken orthogonal to them.

When the nullity of Q is at most p - 1, the null space holds nothing but
the block shifts, every minimizer has the same h values and the answer is
max(h(z0), h(-z0)) in closed form.  That is the case for every class with
full support.  A label of probability exactly zero (its row of Q and its
entry of d are 0) adds only its unit direction to null(Q); moving along it
keeps h(z) and h(-z) while the coordinate stays within the range of its
block's coordinates on labels of nonzero probability.  So when the nullity
is p - 1 plus the number of such free labels, the answer is still in closed
form: z0 with each free coordinate clipped into that range.  A feature X_j
that is a function g of another feature X_i (a copy, or a binned version)
adds the directions e_(j,l) - sum over g(k) = l of e_(i,k); moving z_j into
z_i along them raises neither h(z) nor h(-z).  So when the free labels and
such features account for the whole nullity, the answer is z0 merged that
way, its free coordinates clipped.  On these routes no LP is built and scipy
is not imported.  Otherwise (a sparse support that no dependency explains,
or a label of merely near-zero probability) a small LP over c decides; the
shifts are left out of it because they would only give it flat rays, on
which HiGHS can fail.  z0 is the bound's cached ``QdSystem.z0``, and N comes
from the same factor of Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .distributions import (
    AlphabetSpec,
    DiscreteJoint,
    conditional_expectation,
    epsilon,
    marginal_deviation,
    pairwise_from_joint,
    perturb_joint,
    uniform_joint,
)
from .errors import (
    DegenerateY,
    DimensionMismatch,
    HConstraintViolated,
    LpFailure,
    MarginalMismatch,
    NotStationary,
    ValidationError,
)
from .hgr import flatten_joint, hgr_svd
from .lowerbound import QdSystem, assemble_qd, rho_lb
from .numerics import solve_lp

#: Default slack for the h <= 1/2 boundary (non-strict in exact arithmetic).
TIGHT_TOL = 1e-9


def tolerance(tol) -> float:
    """``tol`` as a float, refused unless it is a finite number >= 0."""
    if not 0.0 <= (tol := float(tol)) < np.inf:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol}")
    return tol


@dataclass(frozen=True, eq=False)
class TightnessCertificate:
    """Outcome of the achievability test.

    ``lp_value`` is min over the minimizer set of max(h(z), h(-z)); the
    verdict is Tight iff it is <= 1/2 + tol.  ``z_star`` is a feasible
    witness when Tight (the minimum-norm minimizer whenever it already
    passes), otherwise a minimizer attaining ``lp_value``.
    """

    verdict: str
    z_star: np.ndarray
    h_pos: float
    h_neg: float
    lp_value: float
    tol: float

    @property
    def tight(self) -> bool:
        return self.verdict == "Tight"


@dataclass(frozen=True, eq=False)
class AdditiveDecomposition:
    """Per-feature tables f_i with E[Y|X=x] ~ sum_i f_i(x_i) on the support."""

    f: np.ndarray  # (p, m)
    residual: float
    additive: bool


def h_value(z: np.ndarray, spec: AlphabetSpec) -> float:
    """Sum over feature blocks of the per-block maximum of z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.pm,):
        raise DimensionMismatch(f"z must have length {spec.pm}, got shape {z.shape}")
    return float(z.reshape(spec.p, spec.m).max(axis=1).sum())


def _without_block_shifts(basis: np.ndarray, spec: AlphabetSpec) -> np.ndarray:
    """Orthonormal basis of span(basis) minus the block-shift directions.

    The shifts 1_i - 1_j span the block-constant vectors whose block values
    sum to zero, so projecting them out subtracts from each block its mean
    less the mean over blocks.  That leaves singular values near 1 on the
    directions kept and near 0 on the shifts dropped.
    """
    blocks = basis.reshape(spec.p, spec.m, -1)
    means = blocks.mean(axis=1, keepdims=True)
    rest = (blocks - (means - means.mean(axis=0, keepdims=True))).reshape(basis.shape)
    u, s, _ = np.linalg.svd(rest, full_matrices=False)
    return u[:, s > 0.5]


def _minimize_h(
    z0: np.ndarray, basis: np.ndarray, spec: AlphabetSpec
) -> tuple[float, np.ndarray]:
    """The LP  min u  s.t.  u >= sum_i t_i,  u >= sum_i s_i,
                            t_i >= (z0 + N c) on block i,
                            s_i >= -(z0 + N c) on block i,
    over free (c, t, s, u), N = ``basis``: its optimum, min max(h(z), h(-z))
    over z0 + span(N), and the minimizing z."""
    p, pm = spec.p, spec.pm
    ndim = basis.shape[1]
    nv = ndim + 2 * p + 1  # variables: c, t, s, u
    block = np.repeat(np.eye(p), spec.m, axis=0)  # (pm, p): entry (i*m + k, i) is 1

    # Rows alternate the t and s bounds of each entry of z, then the two u rows.
    a_ub = np.zeros((2 * pm + 2, nv))
    b_ub = np.zeros(2 * pm + 2)
    a_ub[0 : 2 * pm : 2, :ndim] = basis
    a_ub[0 : 2 * pm : 2, ndim : ndim + p] = -block
    b_ub[0 : 2 * pm : 2] = -z0
    a_ub[1 : 2 * pm : 2, :ndim] = -basis
    a_ub[1 : 2 * pm : 2, ndim + p : ndim + 2 * p] = -block
    b_ub[1 : 2 * pm : 2] = z0
    a_ub[-2, ndim : ndim + p] = 1.0
    a_ub[-1, ndim + p : ndim + 2 * p] = 1.0
    a_ub[-2:, -1] = -1.0

    objective = np.zeros(nv)
    objective[-1] = 1.0
    status, point, value = solve_lp(objective, a_ub=a_ub, b_ub=b_ub)
    if status != "Optimal":
        raise LpFailure(f"tightness LP ended with status {status}")
    return float(value), z0 + basis @ point[:ndim]


def _free_labels(system: QdSystem) -> np.ndarray:
    """Mask of the free labels: those whose row of Q and entry of d are
    exactly 0, in a block that keeps a label that is not free."""
    spec = system.spec
    free = ((system.d == 0.0) & ~system.q.any(axis=1)).reshape(spec.p, spec.m)
    return (free & ~free.all(axis=1, keepdims=True)).reshape(spec.pm)


def _clip_free(z0: np.ndarray, free: np.ndarray, spec: AlphabetSpec) -> np.ndarray:
    """z0 with each free coordinate clipped into [min, max] of its block's
    coordinates that are not free, as a fresh array with -0.0 turned into 0.0."""
    blocks = z0.reshape(spec.p, spec.m)
    mask = free.reshape(spec.p, spec.m)
    lo = np.where(mask, np.inf, blocks).min(axis=1, keepdims=True)
    hi = np.where(mask, -np.inf, blocks).max(axis=1, keepdims=True)
    return np.where(mask, np.clip(blocks, lo, hi), blocks).reshape(spec.pm) + 0.0


def _merge_functions(system: QdSystem) -> tuple[np.ndarray, int]:
    """z0 merged along the features that are functions of others, and the
    number of null directions beyond the block shifts and the free labels
    that this accounts for.

    X_j is a function g of X_i when every support row k of block (i, j) of Q
    has exactly one nonzero entry, in column g(k).  Each
    e_(j,l) - sum over k in g^-1(l) of e_(i,k) then lies in null(Q), so moving
    z_j[g(k)] into z_i[k] and setting z_j to 0 gives another minimizer, with
    h(z) and h(-z) no larger.  Pairs are merged in row-major order, skipping
    any whose feature has already been merged away; each merged j adds
    |supp j| - 1 directions.  A block of Q that is all zero (no joint has
    one) has no support rows, and nothing is merged into it.
    """
    p, m = system.spec.p, system.spec.m
    support = system.q.diagonal().reshape(p, m) > 0.0
    nonzero = system.q.reshape(p, m, p, m) != 0.0
    function = ((nonzero.sum(axis=3) == 1) | ~support[:, :, None]).all(axis=1)
    function &= support.any(axis=1)[:, None]
    np.fill_diagonal(function, False)
    z = system.z0.reshape(p, m).copy()
    gone = np.zeros(p, dtype=bool)
    merged = 0
    for i, j in zip(*np.nonzero(function)):
        if gone[i] or gone[j]:
            continue
        rows = support[i]
        z[i, rows] += z[j, nonzero[i, rows, j].argmax(axis=1)]
        z[j] = 0.0
        gone[j] = True
        merged += np.count_nonzero(support[j]) - 1
    return z.reshape(p * m), merged


def _known_null_minimizer(system: QdSystem, extra: int) -> np.ndarray | None:
    """A minimizer attaining min max(h(z), h(-z)) when the free labels and
    the features that are functions of others account for all ``extra``
    null directions beyond the block shifts, else None.

    Every move along those directions is a move of z0 that leaves h(z) and
    h(-z) no larger once the free coordinates are clipped into range, so the
    merged z0 with its free labels clipped attains the optimum.  The merge
    runs only when the free labels alone fall short.
    """
    free = _free_labels(system)
    z, known = system.z0, np.count_nonzero(free)
    if known < extra:
        z, merged = _merge_functions(system)
        known += merged
    return _clip_free(z, free, system.spec) if known == extra else None


def _h_pair(z: np.ndarray, spec: AlphabetSpec) -> tuple[float, float]:
    """(h(z), h(-z))."""
    return h_value(z, spec), h_value(-z, spec)


def _certificate(
    z0: np.ndarray,
    h0: tuple[float, float],
    z_min: np.ndarray,
    h_min: tuple[float, float] | None,
    value: float,
    spec: AlphabetSpec,
    tol: float,
) -> TightnessCertificate:
    """The certificate for optimum ``value``, attained at ``z_min``; ``h0``
    is :func:`_h_pair` at ``z0``, ``h_min`` at ``z_min`` or None if not yet
    computed."""
    verdict = "Tight" if value <= 0.5 + tol else "NotTight"
    # Prefer the minimum-norm minimizer as the witness when it already passes.
    if max(h0) <= 0.5 + tol:
        z_star, (h_pos, h_neg) = z0, h0
    else:
        z_star, (h_pos, h_neg) = z_min, h_min if h_min is not None else _h_pair(z_min, spec)
    return TightnessCertificate(
        verdict=verdict, z_star=z_star, h_pos=h_pos, h_neg=h_neg, lp_value=value, tol=tol
    )


def check_tightness(system: QdSystem, tol: float = TIGHT_TOL) -> TightnessCertificate:
    """Decide whether the lower bound is attained over the marginal class.

    The optimum min max(h(z), h(-z)) over all quadratic minimizers
    z = z0 + N c is max(h(z0), h(-z0)) when null(Q) has dimension at most
    p - 1 (only the block shifts).  When the free labels (see
    :func:`_free_labels`) and the features that are functions of others (see
    :func:`_merge_functions`) account for every further dimension, it is
    max(h(z), h(-z)) at z0 merged along those features, with the free
    coordinates clipped into their blocks' ranges.  Otherwise it is the LP
    of :func:`_minimize_h` over N, the null space of Q minus the block
    shifts.  ``tol`` must be a finite number >= 0.
    """
    tol = tolerance(tol)
    if system.p_y1 <= 0.0 or system.p_y1 >= 1.0:
        raise DegenerateY(f"P(Y=1) = {system.p_y1}; tightness test undefined")
    spec = system.spec
    z0 = system.z0
    h0, h_min = _h_pair(z0, spec), None
    null = system.factor.null_basis()
    extra = null.shape[1] - (spec.p - 1)
    if extra <= 0:
        # "+ 0.0" turns -0.0 into 0.0, as adding the LP's empty N c does, so
        # h at z_min may differ from h0 in the sign of a zero.
        value, z_min = max(h0), z0 + 0.0
    elif (z_min := _known_null_minimizer(system, extra)) is not None:
        h_min = _h_pair(z_min, spec)
        value = max(h_min)
    else:
        value, z_min = _minimize_h(z0, _without_block_shifts(null, spec), spec)
    return _certificate(z0, h0, z_min, h_min, value, spec, tol)


def is_additive(joint: DiscreteJoint, tol: float = TIGHT_TOL) -> AdditiveDecomposition:
    """Fit E[Y|X=x] by a sum of per-feature tables over the support.

    Probability-weighted least squares; off-support states carry no
    constraint.  ``additive`` is set when the worst support residual is
    within ``tol``, a finite number >= 0.
    """
    tol = tolerance(tol)
    p1 = joint.p_y1
    if p1 <= 0.0 or p1 >= 1.0:
        raise DegenerateY(f"P(Y=1) = {p1}; additivity test undefined")
    spec = joint.spec
    cond = conditional_expectation(joint)
    support = cond.support
    w = spec.indicator_matrix()[support]
    e = cond.values[support]
    weights = np.sqrt(joint.px[support])
    coef, *_ = np.linalg.lstsq(w * weights[:, None], e * weights, rcond=None)
    fitted = w @ coef
    residual = float(np.abs(fitted - e).max())
    return AdditiveDecomposition(coef.reshape(spec.p, spec.m), residual, residual <= tol)


def construct_additive(
    z_star: np.ndarray,
    base: DiscreteJoint,
    expected_marginals=None,
    tol: float = TIGHT_TOL,
) -> DiscreteJoint:
    """Build the additive-structure joint P* from a passing minimizer.

    ``base`` must carry the marginals that produced ``z_star`` (checked
    against ``expected_marginals`` entrywise when given, and always via the
    stationarity residual).  The result keeps all pairwise marginals of the
    base and has conditional P*(Y=1|x) = 1/2 + z_star'w_x, an additive
    function with per-feature tables z block + 1/(2p).  ``tol``, the slack
    on ``h``, must be a finite number >= 0.
    """
    tol = tolerance(tol)
    spec = base.spec
    z_star = np.asarray(z_star, dtype=float)
    if z_star.shape != (spec.pm,):
        raise DimensionMismatch(f"z_star must have length {spec.pm}")

    base_marginals = pairwise_from_joint(base)
    if expected_marginals is not None:
        worst = marginal_deviation(expected_marginals, base_marginals)
        if worst > 1e-9:
            raise MarginalMismatch(f"base marginals deviate by {worst:.3e}")

    system = assemble_qd(base_marginals, check=False)
    resid = float(np.linalg.norm(2.0 * system.q @ z_star - system.d))
    if resid > 1e-8:
        raise NotStationary(f"||2Qz - d|| = {resid:.3e}; z_star does not minimize the quadratic")

    hp = h_value(z_star, spec)
    hn = h_value(-z_star, spec)
    if hp > 0.5 + tol or hn > 0.5 + tol:
        raise HConstraintViolated(
            f"h(z) = {hp:.12f}, h(-z) = {hn:.12f} exceed 1/2; the construction "
            "would produce negative probabilities"
        )

    # z'w_x for every state: block i broadcast along x_i, summed in feature order.
    shift = reduce(np.add.outer, z_star.reshape(spec.p, spec.m)).reshape(-1, order="F")
    p1x = np.clip(0.5 + shift, 0.0, 1.0)
    qx = base.px
    prob = np.stack([(1.0 - p1x) * qx, p1x * qx], axis=1)
    return DiscreteJoint(spec, prob, tol=1e-12)


def tightness_gap(joint: DiscreteJoint) -> tuple[float, float, float]:
    """(exact maximal correlation, separable bound, gap) for one joint.

    The gap is for this particular class member; when the verdict is
    NotTight it says nothing about the minimum over the whole class beyond
    being an upper bound on it.
    """
    rho_oracle = hgr_svd(flatten_joint(joint)).rho
    bound = rho_lb(assemble_qd(pairwise_from_joint(joint)))
    return rho_oracle, bound, rho_oracle - bound


def near_uniform_probe(
    spec: AlphabetSpec, eps: float, trials: int, seed, tol: float = TIGHT_TOL
) -> float:
    """Fraction of random eps-perturbations of the uniform joint whose
    marginal class still contains an additive distribution.

    Each trial perturbs the uniform joint by at most eps in L1, extracts
    marginals, and runs the tightness test.  Trials are seeded independently
    so the result does not depend on evaluation order.
    """
    epsilon(eps)
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    base = uniform_joint(spec)
    hits = 0
    for trial in range(trials):
        joint = perturb_joint(base, eps, seed=(seed, trial))
        system = assemble_qd(pairwise_from_joint(joint), check=False)
        if check_tightness(system, tol=tol).tight:
            hits += 1
    return hits / trials
