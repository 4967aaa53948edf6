"""Exact maximal-correlation oracle for finite joint distributions.

For a finite joint P(x, y) the maximal correlation

    rho_m = sup { E[f(X) g(Y)] : E f = E g = 0, E f^2 = E g^2 = 1 }

is the second singular value of the normalized table
B[x, y] = P(x, y) / sqrt(P(x) P(y)) restricted to the support.  The top
singular pair of B is always (sqrt(P(x)), sqrt(P(y))) with value 1 and
corresponds to the constant functions excluded by the mean constraint, so we
deflate it explicitly and take the largest singular value of the remainder;
this stays correct when rho_m = 1 ties the top two values.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .distributions import INPUT_TOL, DiscreteJoint, conditional_expectation, probability_table
from .errors import DegenerateY, DimensionMismatch, ValidationError, ZeroVariance

logger = logging.getLogger(__name__)

#: Deflated singular values at or below this are reported as exact independence.
INDEPENDENCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GenericJoint:
    """Dense joint table over two finite alphabets (no structure assumed)."""

    prob: np.ndarray
    tol: float = INPUT_TOL

    def __post_init__(self):
        prob = np.asarray(self.prob, dtype=float)
        if prob.ndim != 2:
            raise ValidationError(f"joint table must be 2-D, got shape {prob.shape}")
        # A negative entry raises plain ValidationError, as the generic reader does.
        object.__setattr__(self, "prob", probability_table(prob, self.tol, ValidationError))

    @property
    def nx(self) -> int:
        return self.prob.shape[0]

    @property
    def ny(self) -> int:
        return self.prob.shape[1]


@dataclass(frozen=True, eq=False)
class HgrResult:
    """Maximal correlation and a pair of optimal transforms.

    ``f_star``/``g_star`` are full-alphabet tables with NaN off support;
    ``degenerate`` marks a one-point support on either side, where the
    feasible set is empty and rho is reported as 0 by convention.
    """

    rho: float
    f_star: np.ndarray
    g_star: np.ndarray
    x_support: np.ndarray
    y_support: np.ndarray
    degenerate: bool = False


def flatten_joint(joint: DiscreteJoint) -> GenericJoint:
    """View a (X_1..X_p, Y) joint as a generic m^p-by-2 table."""
    return GenericJoint(joint.prob, tol=INPUT_TOL)


def _orthogonalize(u: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Project u off the anchor direction and renormalize; deterministic
    fallback when u is (numerically) parallel to the anchor."""
    v = u - (anchor @ u) * anchor
    norm = float(np.linalg.norm(v))
    if norm < 1e-8:
        idx = int(np.argmin(np.abs(anchor)))
        v = -anchor * anchor[idx]
        v[idx] += 1.0  # e_idx minus its anchor component
        norm = float(np.linalg.norm(v))
    return v / norm


def hgr_svd(joint: GenericJoint) -> HgrResult:
    """Maximal correlation of a finite joint via the spectral characterization.

    Zero-probability rows/columns are dropped first (the coefficient is a
    property of the support).  Deflated singular values within roundoff of
    zero are snapped to exactly 0, so product distributions report exact
    independence.
    """
    px = joint.prob.sum(axis=1)
    py = joint.prob.sum(axis=0)
    x_support = px > 0
    y_support = py > 0

    f_star = np.full(joint.nx, np.nan)
    g_star = np.full(joint.ny, np.nan)
    if int(x_support.sum()) < 2 or int(y_support.sum()) < 2:
        logger.info("one-point support: maximal correlation reported as 0")
        return HgrResult(0.0, f_star, g_star, x_support, y_support, degenerate=True)

    sub = joint.prob[np.ix_(x_support, y_support)]
    spx = np.sqrt(px[x_support])
    spy = np.sqrt(py[y_support])
    b = sub / np.outer(spx, spy)
    deflated = b - np.outer(spx, spy)
    # Only the top singular triple is read, so the thin SVD suffices; the
    # full one would build an (n_x, n_x) U.
    u, s, vt = np.linalg.svd(deflated, full_matrices=False)

    rho = float(s[0])
    if rho > 1.0:
        if rho > 1.0 + 1e-9:
            logger.warning("maximal correlation %0.17g clamped to 1", rho)
        rho = 1.0
    if rho <= INDEPENDENCE_TOL:
        rho = 0.0

    fu = _orthogonalize(u[:, 0], spx)
    gv = _orthogonalize(vt[0], spy)
    f_star[x_support] = fu / spx
    g_star[y_support] = gv / spy
    return HgrResult(rho, f_star, g_star, x_support, y_support)


def hgr_binary(joint: DiscreteJoint) -> float:
    """Maximal correlation for binary Y via the correlation ratio.

    With Y in {0,1} the only feasible transform of Y is its standardization,
    which collapses the problem to sqrt(Var(E[Y|X]) / Var(Y)).
    """
    p1 = joint.p_y1
    var_y = p1 * (1.0 - p1)
    if var_y <= 0.0:
        raise DegenerateY(f"P(Y=1) = {p1}; maximal correlation undefined")
    cond = conditional_expectation(joint)
    px = joint.px[cond.support]
    e = cond.values[cond.support]
    var_e = float(px @ (e - p1) ** 2)
    return float(np.sqrt(min(var_e / var_y, 1.0)))


def pearson(joint: GenericJoint, x_values, y_values) -> float:
    """Pearson correlation of fixed numeric embeddings of the two alphabets."""
    x_values = np.asarray(x_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    if x_values.shape != (joint.nx,) or y_values.shape != (joint.ny,):
        raise DimensionMismatch("embedding lengths must match the alphabets")
    px = joint.prob.sum(axis=1)
    py = joint.prob.sum(axis=0)
    ex = float(px @ x_values)
    ey = float(py @ y_values)
    var_x = float(px @ (x_values - ex) ** 2)
    var_y = float(py @ (y_values - ey) ** 2)
    if var_x <= 0.0 or var_y <= 0.0:
        raise ZeroVariance("both embeddings need nonzero variance")
    cov = float((x_values - ex) @ joint.prob @ (y_values - ey))
    return cov / np.sqrt(var_x * var_y)
