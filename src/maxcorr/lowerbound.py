"""Separable lower bound on maximal correlation from pairwise marginals.

Restricting the transform of X in the maximal-correlation problem to sums
f(X) = sum_i xi_i(X_i) turns it into a quadratic program over the one-hot
indicator encoding w of (X_1..X_p).  With

    Q[(i,k), (j,l)] = P(X_i = k, X_j = l)         (pm x pm, PSD)
    d[(i,k)]        = P(X_i=k, Y=1) - P(X_i=k, Y=0)

the bound is

    rho_lb = sqrt(1 - gamma / (P(Y=0) P(Y=1))),
    gamma  = min_z  z'Qz - d'z + 1/4  =  (1 - d'Q^+ d) / 4,

whose minimizers are exactly the solutions of 2Qz = d.  The sign of the
linear term is a pure convention (z -> -z flips it without changing gamma);
this package consistently uses the least-squares form above, under which
gamma equals E[(w'z - b)^2] with b = y - 1/2, and the additive construction
downstream reads P*(Y=1|x) = 1/2 + z'w_x.

Everything here depends on the marginals only, so the bound is shared by the
whole class of joints with those marginals.  Q is factored and solved once
per system: ``QdSystem.z0`` = Q^+ d / 2, checked against 2Qz = d when first
read, serves the bound and the tightness certificate, under the fixed rank
cut ``numerics.RANK_TOL``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import AlphabetSpec, Dataset, PairwiseMarginalSet, one_hot, validate_marginals
from .errors import (
    DegenerateY,
    DimensionMismatch,
    DInconsistentWithQ,
    InconsistentMarginals,
)
from .numerics import SymmetricEigen, cg_minimum_norm, eigh

logger = logging.getLogger(__name__)

#: Relative residual above which d is declared outside the column space of Q.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class QdSystem:
    """Assembled quadratic system (Q, d) plus P(Y=1) and E[w].

    ``factor``, the symmetric eigendecomposition of Q, and ``z0``, the
    minimum-norm minimizer, are computed on first use and shared by the PSD
    check, the bound, the tightness certificate and its null space.
    """

    spec: AlphabetSpec
    q: np.ndarray
    d: np.ndarray
    p_y1: float

    def __post_init__(self):
        pm = self.spec.pm
        if self.q.shape != (pm, pm) or self.d.shape != (pm,):
            raise DimensionMismatch("QdSystem arrays inconsistent with spec")

    @cached_property
    def factor(self) -> SymmetricEigen:
        return eigh(self.q)

    @cached_property
    def z0(self) -> np.ndarray:
        """Read-only minimum-norm solution of 2Qz = d, checked by its residual."""
        z = 0.5 * self.factor.solve(self.d)
        _check_residual(self, z)
        z.setflags(write=False)
        return z

    @property
    def e_w(self) -> np.ndarray:
        """E[w], the marginals P(X_i = k): a read-only view of Q's diagonal."""
        return np.diagonal(self.q)

    @property
    def var_y(self) -> float:
        return self.p_y1 * (1.0 - self.p_y1)

    def quadratic(self, z: np.ndarray) -> float:
        """The least-squares objective z'Qz - d'z + 1/4 at z."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.spec.pm,):
            raise DimensionMismatch(f"z must have length {self.spec.pm}")
        return float(z @ self.q @ z - self.d @ z + 0.25)


@dataclass(frozen=True, eq=False)
class LowerBoundResult:
    """gamma, the derived correlation bound, and the minimizer used."""

    gamma_lb: float
    rho_lb: float
    z_star: np.ndarray


@dataclass(frozen=True, eq=False)
class DesignSystem:
    """Indicator design matrix W (n x pm) and target b in {-1/2, +1/2}^n."""

    w: np.ndarray
    b: np.ndarray


def assemble_qd(marginals: PairwiseMarginalSet, check: bool = True) -> QdSystem:
    """Build (Q, d, P(Y=1)) from a pairwise marginal set.

    Layout: block i covers indices i*m .. i*m + m - 1 and entry k within the
    block is label k.  Raises :class:`InconsistentMarginals` when the local
    validity screen fails or Q is not positive semidefinite (a necessary
    condition for the marginals to be realizable); the check factors Q.
    """
    if check:
        report = validate_marginals(marginals)
        if not report.ok:
            raise InconsistentMarginals("; ".join(report.violations))

    spec = marginals.spec
    d = (marginals.xy[:, :, 1] - marginals.xy[:, :, 0]).reshape(-1)
    system = QdSystem(spec, marginals.q, d, float(marginals.p_y[1]))
    if check:
        min_eig = float(system.factor.w[0])
        if min_eig < -1e-10:
            raise InconsistentMarginals(
                f"Q has eigenvalue {min_eig:.3e} < 0; no joint realizes these marginals"
            )
    return system


def _check_residual(system: QdSystem, z: np.ndarray):
    """Reject z unless 2Qz = d holds to relative tolerance (d = 0 passes)."""
    dnorm = float(np.linalg.norm(system.d))
    resid = float(np.linalg.norm(2.0 * system.q @ z - system.d))
    if dnorm > 0.0 and resid > RESIDUAL_TOL * dnorm:
        raise DInconsistentWithQ(
            f"relative stationarity residual {resid / dnorm:.3e} exceeds "
            f"{RESIDUAL_TOL}; d is outside the column space of Q"
        )


def _clamp_gamma(gamma: float) -> float:
    """gamma clipped to [0, 1/4].  For every member of the class gamma =
    E[(Y - 1/2 - z'w)^2] >= 0, so a value below -1e-10 is refused."""
    if gamma < -1e-10:
        raise DInconsistentWithQ(
            f"gamma {gamma} is below 0 beyond roundoff; no distribution has these marginals"
        )
    clipped = min(max(gamma, 0.0), 0.25)
    if abs(clipped - gamma) > 1e-10:
        logger.warning("gamma_lb %.17g clamped to %.17g", gamma, clipped)
    return clipped


def gamma_lb_closed(system: QdSystem) -> float:
    """gamma via the pseudoinverse identity (1 - d'Q^+ d) / 4 = (1 - 2 d'z0) / 4."""
    return _clamp_gamma(0.25 * (1.0 - 2.0 * float(system.d @ system.z0)))


def gamma_lb_iterative(system: QdSystem) -> LowerBoundResult:
    """gamma by conjugate-gradient minimization of the quadratic.

    Solves Q z = d/2 from a zero start, which converges to the same
    minimum-norm stationary point as the closed form but through an
    independent numerical route.
    """
    z = cg_minimum_norm(system.q, 0.5 * system.d)
    _check_residual(system, z)
    gamma = _clamp_gamma(system.quadratic(z))
    return LowerBoundResult(gamma, _rho_from_gamma(system, gamma), z)


def _rho_from_gamma(system: QdSystem, gamma: float) -> float:
    if system.p_y1 <= 0.0 or system.p_y1 >= 1.0:
        raise DegenerateY(f"P(Y=1) = {system.p_y1}; the bound is undefined")
    radicand = 1.0 - gamma / system.var_y
    if radicand < -1e-9:
        raise DInconsistentWithQ(f"gamma {gamma} exceeds Var(Y) = {system.var_y} beyond roundoff")
    return float(np.sqrt(max(radicand, 0.0)))


def rho_lb(system: QdSystem) -> float:
    """The separable lower bound sqrt(1 - gamma / (P(Y=0) P(Y=1)))."""
    return _rho_from_gamma(system, gamma_lb_closed(system))


def design_matrix(data: Dataset) -> DesignSystem:
    """One-hot design W (one indicator per feature block per row) and
    centered targets b = y - 1/2."""
    spec = data.spec
    b = data.rows[:, spec.p].astype(float) - 0.5
    return DesignSystem(one_hot(data.rows[:, : spec.p], spec.m), b)


def lsq_objective(design: DesignSystem, z: np.ndarray) -> float:
    """||W z - b||^2.  Dividing by n reproduces the quadratic objective built
    from the same dataset's empirical marginals."""
    z = np.asarray(z, dtype=float)
    if z.shape != (design.w.shape[1],):
        raise DimensionMismatch(
            f"z must have length {design.w.shape[1]}, got shape {z.shape}"
        )
    r = design.w @ z - design.b
    return float(r @ r)
