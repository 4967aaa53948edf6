"""Minimum maximal correlation under first and second moments (continuous case).

Among all distributions of (X_1..X_p, Y) with given mean vector and second
moment matrix, the jointly Gaussian one minimizes the maximal correlation,
and the minimum has a closed form: with a the regression vector of Y on X
(Sigma_XX a = Sigma_XY),

    min rho_m = sqrt( Var(a'X) / Var(Y) ) = sqrt( a' Sigma_XX a / sigma_Y^2 ).

For p = 1 this reduces to |corr(X, Y)|.  A discretized bivariate Gaussian
serves as a numerical witness: its exact finite-alphabet maximal correlation
must approach |rho| under grid refinement.

``scipy.special`` is imported on the first call of the witness
(:func:`discretize_bivariate_gaussian`), so the closed form loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateY, InconsistentMoments, InvalidRho, NotSymmetric, ValidationError
from .hgr import GenericJoint
from .numerics import pseudoinverse


@dataclass(frozen=True, eq=False)
class GaussianMoments:
    """First moment mu = E[(X Y)] (Y last) and second moment lam = E[(X Y)'(X Y)]."""

    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        if mu.ndim != 1 or mu.size < 2:
            raise ValidationError("mu must be a vector of length p + 1 >= 2")
        n = mu.size
        if lam.shape != (n, n):
            raise ValidationError(f"lambda must be {n}x{n}, got {lam.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(lam))):
            raise ValidationError("moments contain non-finite entries")
        if not np.allclose(lam, lam.T, atol=1e-9, rtol=0):
            raise NotSymmetric("second-moment matrix is not symmetric")
        lam = 0.5 * (lam + lam.T)
        sigma = lam - np.outer(mu, mu)
        min_eig = float(np.linalg.eigvalsh(sigma).min())
        if min_eig < -1e-10:
            raise InconsistentMoments(
                f"covariance has eigenvalue {min_eig:.3e} < 0; moments are not realizable"
            )
        mu = mu.copy()
        mu.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)

    @property
    def p(self) -> int:
        return self.mu.shape[0] - 1

    @property
    def sigma(self) -> np.ndarray:
        return self.lam - np.outer(self.mu, self.mu)

    @property
    def sigma_xx(self) -> np.ndarray:
        return self.sigma[: self.p, : self.p]

    @property
    def sigma_xy(self) -> np.ndarray:
        return self.sigma[: self.p, self.p]

    @property
    def var_y(self) -> float:
        return float(self.sigma[self.p, self.p])


def regression_vector(moments: GaussianMoments) -> np.ndarray:
    """a with Sigma_XX a = Sigma_XY, so Y - a'X is uncorrelated with X.

    Collinear features are handled by the pseudoinverse; a cross-covariance
    outside the range of Sigma_XX contradicts positive semidefiniteness of
    the full covariance and raises :class:`InconsistentMoments`.
    """
    sxx = moments.sigma_xx
    sxy = moments.sigma_xy
    a = pseudoinverse(sxx) @ sxy
    resid = float(np.linalg.norm(sxx @ a - sxy))
    if resid > 1e-8 * max(1.0, float(np.linalg.norm(sxy))):
        raise InconsistentMoments(
            f"cross-covariance leaves the feature covariance range (residual {resid:.3e})"
        )
    return a


def min_hgr_gaussian(moments: GaussianMoments) -> float:
    """sqrt(a' Sigma_XX a / Var Y): the moment-constrained minimum, attained
    by the jointly Gaussian distribution."""
    if moments.var_y <= 0.0:
        raise DegenerateY(f"Var(Y) = {moments.var_y}; minimum correlation undefined")
    a = regression_vector(moments)
    ratio = float(a @ moments.sigma_xx @ a) / moments.var_y
    if ratio > 1.0 + 1e-9:
        raise InconsistentMoments(
            f"Var(a'X)/Var(Y) = {ratio} > 1 contradicts Var of the residual being >= 0"
        )
    return float(np.sqrt(min(max(ratio, 0.0), 1.0)))


def discretize_bivariate_gaussian(
    rho: float, grid_n: int = 200, half_width: float = 5.0
) -> tuple[GenericJoint, float]:
    """Cell-by-cell discretization of a standard bivariate normal.

    Partitions [-half_width, half_width]^2 into grid_n^2 cells, integrates
    the density exactly over each cell (conditioning on x plus 24-node
    Gauss-Legendre in the x direction), renormalizes, and reports the
    truncated tail mass.  Cell integration keeps the discretization error
    monotone under grid refinement, which midpoint sampling does not once
    truncation dominates.

    Returns ``(joint, tail_mass)``.
    """
    from scipy.special import ndtr, roots_legendre

    if not np.isfinite(rho) or abs(rho) >= 1.0:
        raise InvalidRho(f"rho must satisfy |rho| < 1, got {rho}")
    if grid_n < 16:
        raise ValidationError(f"grid_n must be >= 16, got {grid_n}")
    if half_width <= 0:
        raise ValidationError(f"half_width must be > 0, got {half_width}")

    edges = np.linspace(-half_width, half_width, grid_n + 1)
    s = np.sqrt(1.0 - rho * rho)
    nodes, weights = roots_legendre(24)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    xs = mid[:, None] + half * nodes[None, :]  # (n, q)
    wts = half * weights[None, :]
    phi = np.exp(-0.5 * xs**2) / np.sqrt(2.0 * np.pi)

    if rho == 0.0:
        # Independent case: exact product of identical 1-D cell masses.
        col = ndtr(edges[1:]) - ndtr(edges[:-1])
        mass = np.outer(col, col)
    else:
        t = (edges[None, None, :] - rho * xs[:, :, None]) / s
        cdf = ndtr(t)
        mass = np.einsum("nq,nqm->nm", phi * wts, cdf[:, :, 1:] - cdf[:, :, :-1])

    tail = float(1.0 - mass.sum())
    mass = np.maximum(mass, 0.0)
    mass /= mass.sum()
    return GenericJoint(mass, tol=1e-12), tail
