"""Independent routes the benchmark checks the program's outputs against.

Nothing here imports maxcorr.  Every reference value is re-derived from the
generated tables by direct sums, dense least squares and an LP built from
scratch, in the manner of the brute-force oracles in tests/test_acceptance.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

#: Tolerances taken from tests/test_acceptance.py.
TOL_ROUTES = 1e-10  # closed vs iterative gamma; spectral vs correlation-ratio oracle
TOL_VALUE = 1e-9  # gamma / rho_lb against the reference; bound <= oracle slack
TOL_MARGINALS = 1e-9  # constructed joint keeps the marginals
TOL_CONSTRUCTION = 1e-8  # hgr of the constructed joint equals rho_lb
TOL_LP = 1e-8  # lp_value against the reference LP
TOL_TIGHT = 1e-9  # h(z) <= 1/2 + tol for a Tight witness


@dataclass
class Marginals:
    """Pairwise marginals as plain arrays (0-based features, i < j in xx)."""

    p: int
    m: int
    px: np.ndarray  # (p, m)
    xy: np.ndarray  # (p, m, 2)
    xx: dict  # (i, j) -> (m, m)


@dataclass
class Expected:
    """Reference values for one input."""

    gamma: float
    rho_lb: float
    rho: float  # exact maximal correlation of the generating (or empirical) joint
    lp_value: float
    verdict: str
    q: np.ndarray
    d: np.ndarray


def states(p: int, m: int) -> np.ndarray:
    """All label tuples as an (m^p, p) array, x_1 least significant."""
    idx = np.arange(m**p)
    return np.stack([(idx // m**i) % m for i in range(p)], axis=1)


def joint_marginals(prob: np.ndarray, p: int, m: int) -> Marginals:
    """Pairwise marginals of a dense (m^p, 2) table by explicit sums."""
    lab = states(p, m)
    px_state = prob.sum(axis=1)
    px = np.zeros((p, m))
    xy = np.zeros((p, m, 2))
    for i in range(p):
        for y in (0, 1):
            xy[i, :, y] = np.bincount(lab[:, i], weights=prob[:, y], minlength=m)
        px[i] = xy[i].sum(axis=1)
    xx = {}
    for i in range(p):
        for j in range(i + 1, p):
            cell = lab[:, i] * m + lab[:, j]
            xx[(i, j)] = np.bincount(cell, weights=px_state, minlength=m * m).reshape(m, m)
    return Marginals(p, m, px, xy, xx)


def dataset_marginals(rows: np.ndarray, m: int) -> Marginals:
    """Empirical pairwise marginals of a label matrix (last column y)."""
    n, p = rows.shape[0], rows.shape[1] - 1
    x, y = rows[:, :p], rows[:, p]
    xy = np.stack([np.bincount(x[:, i] * 2 + y, minlength=2 * m).reshape(m, 2) for i in range(p)]) / n
    xx = {
        (i, j): np.bincount(x[:, i] * m + x[:, j], minlength=m * m).reshape(m, m) / n
        for i in range(p)
        for j in range(i + 1, p)
    }
    return Marginals(p, m, xy.sum(axis=2), xy, xx)


def quadratic(mg: Marginals) -> tuple[np.ndarray, np.ndarray, float]:
    """(Q, d, P(Y=1)) of the separable bound."""
    p, m = mg.p, mg.m
    q = np.zeros((p * m, p * m))
    for i in range(p):
        q[i * m : (i + 1) * m, i * m : (i + 1) * m] = np.diag(mg.px[i])
    for (i, j), tab in mg.xx.items():
        q[i * m : (i + 1) * m, j * m : (j + 1) * m] = tab
        q[j * m : (j + 1) * m, i * m : (i + 1) * m] = tab.T
    d = (mg.xy[:, :, 1] - mg.xy[:, :, 0]).reshape(-1)
    return q, d, float(mg.xy[0, :, 1].sum())


def correlation_ratio(px: np.ndarray, p1x: np.ndarray) -> float:
    """Exact maximal correlation with binary Y: sqrt(Var E[Y|X] / Var Y)."""
    p1 = float(p1x.sum())
    on = px > 0
    e = p1x[on] / px[on]
    return float(np.sqrt(min(float(px[on] @ (e - p1) ** 2) / (p1 * (1.0 - p1)), 1.0)))


def h_value(z: np.ndarray, p: int, m: int) -> float:
    return float(np.asarray(z).reshape(p, m).max(axis=1).sum())


def tightness_lp(q: np.ndarray, d: np.ndarray, p: int, m: int) -> float:
    """min over {z : 2Qz = d} of max(h(z), h(-z)), parametrized by z directly.

    The minimizer set is z0 + null(Q) with z0 from dense least squares and
    the null space from a symmetric eigendecomposition; variables are
    (c, t, s, u) with t_i >= z on block i, s_i >= -z on block i, u >= sum t,
    u >= sum s.  The block shifts 1_i - 1_j lie in null(Q) and leave the
    objective unchanged, so ``c`` is boxed: without it, roundoff along those
    rays can make HiGHS report the LP unbounded.  The value returned is the
    objective evaluated exactly at the LP's point, which is more accurate
    than the solver's own objective on such rays.
    """
    pm = p * m
    z0 = np.linalg.lstsq(2.0 * q, d, rcond=None)[0]
    vals, vecs = np.linalg.eigh(q)
    basis = vecs[:, vals <= 1e-10 * max(float(vals.max()), 0.0)]
    k = basis.shape[1]
    block = np.kron(np.eye(p), np.ones((m, 1)))  # (pm, p): row (i,k) -> feature i
    zeros = np.zeros((pm, p))
    a_ub = np.vstack(
        [
            np.hstack([basis, -block, zeros, np.zeros((pm, 1))]),
            np.hstack([-basis, zeros, -block, np.zeros((pm, 1))]),
            np.hstack([np.zeros((1, k)), np.ones((1, p)), np.zeros((1, p)), -np.ones((1, 1))]),
            np.hstack([np.zeros((1, k)), np.zeros((1, p)), np.ones((1, p)), -np.ones((1, 1))]),
        ]
    )
    b_ub = np.concatenate([-z0, z0, [0.0, 0.0]])
    c = np.zeros(k + 2 * p + 1)
    c[-1] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(-1e3, 1e3)] * k + [(None, None)] * (2 * p + 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"reference tightness LP failed: {res.message}")
    z = z0 + basis @ res.x[:k]
    return max(h_value(z, p, m), h_value(-z, p, m))


def expected(mg: Marginals, rho: float) -> Expected:
    """Reference gamma, rho_lb, LP value and verdict for one marginal set."""
    q, d, p1 = quadratic(mg)
    z = np.linalg.lstsq(2.0 * q, d, rcond=None)[0]
    gamma = min(max(float(z @ q @ z - d @ z + 0.25), 0.0), 0.25)
    rho_lb = float(np.sqrt(max(1.0 - gamma / (p1 * (1.0 - p1)), 0.0)))
    lp_value = tightness_lp(q, d, mg.p, mg.m)
    verdict = "Tight" if lp_value <= 0.5 + TOL_TIGHT else "NotTight"
    return Expected(gamma, rho_lb, rho, lp_value, verdict, q, d)


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def near(what: str, got, want, tol: float):
    if got is None or not abs(float(got) - float(want)) <= tol:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} within {tol}")


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def check_bound(ref: Expected, gamma_closed, gamma_iter, rho_lb):
    """Closed vs iterative gamma, both against the reference, and rho_lb <= rho."""
    near("gamma closed vs iterative", gamma_closed, gamma_iter, TOL_ROUTES)
    near("gamma vs reference", gamma_closed, ref.gamma, TOL_VALUE)
    near("rho_lb vs reference", rho_lb, ref.rho_lb, TOL_VALUE)
    require(rho_lb <= ref.rho + TOL_VALUE, f"rho_lb {rho_lb} exceeds the exact {ref.rho}")


def check_certificate(ref: Expected, p: int, m: int, verdict, lp_value, z_star):
    """Verdict and LP value against the reference LP; a Tight witness must be
    a stationary point with h(z), h(-z) <= 1/2."""
    require(verdict == ref.verdict, f"verdict {verdict!r}, expected {ref.verdict!r}")
    near("lp_value vs reference", lp_value, ref.lp_value, TOL_LP)
    if verdict == "Tight":
        z = np.asarray(z_star, dtype=float)
        dnorm = max(float(np.linalg.norm(ref.d)), 1.0)
        require(
            float(np.linalg.norm(2.0 * ref.q @ z - ref.d)) <= 1e-8 * dnorm,
            "Tight witness is not stationary",
        )
        worst = max(h_value(z, p, m), h_value(-z, p, m))
        require(worst <= 0.5 + TOL_TIGHT, f"Tight witness has max(h(z), h(-z)) = {worst}")
