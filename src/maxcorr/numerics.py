"""Dense linear-algebra and LP kernel.

Thin, contract-checked wrappers over LAPACK (via numpy), a call of HiGHS
(via scipy.optimize.linprog) whose constraint matrices may be dense arrays
or ``scipy.sparse`` matrices, and a conjugate-gradient solve for consistent
positive-semidefinite systems that serves as the iterative counterpart to
pseudoinverse-based formulas.  :func:`eigh` factors a symmetric matrix once;
its range, null space and minimum-norm solves all come from that one
eigendecomposition.  :func:`pseudoinverse` is SVD-based, for general
matrices.  Every rank decision is the one fixed cut ``RANK_TOL``, relative
to the largest singular value or |eigenvalue|.  Everything is double
precision and deterministic under fixed inputs.  ``scipy.optimize`` is
imported on the first :func:`solve_lp` call, so the other kernels load no
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LpFailure, NonFinite, NotSymmetric

#: Relative cutoff below which singular values, or |eigenvalues|, count as zero.
RANK_TOL = 1e-10


def _require_finite(a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains NaN or infinity")


def _above_cut(mag: np.ndarray) -> np.ndarray:
    """Mask of the magnitudes above ``RANK_TOL`` times the largest: the rank cut."""
    return mag > RANK_TOL * mag.max(initial=0.0)


def numerical_rank(s: np.ndarray) -> int:
    """Count of singular values above ``RANK_TOL * s_max``."""
    return int(np.count_nonzero(_above_cut(np.asarray(s, dtype=float))))


def pseudoinverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse, truncating at ``RANK_TOL`` of the top singular value."""
    a = np.asarray(a, dtype=float)
    _require_finite(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    r = numerical_rank(s)
    if r == 0:
        return np.zeros((a.shape[1], a.shape[0]))
    inv = np.zeros_like(s)
    inv[:r] = 1.0 / s[:r]
    return (vt.T * inv) @ u.T


@dataclass(frozen=True, eq=False)
class SymmetricEigen:
    """Eigendecomposition ``A = V diag(w) V'`` of a symmetric matrix, w ascending.

    An eigenvalue counts as nonzero when ``|w| > RANK_TOL * max|w|``, the
    cut :func:`numerical_rank` makes on the singular values ``|w|``.
    """

    w: np.ndarray
    v: np.ndarray

    def kept(self) -> np.ndarray:
        """Mask of the eigenvalues above the rank cut."""
        return _above_cut(np.abs(self.w))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^+ b`` as ``V_r ((V_r' b) / w_r)``, without forming ``A^+``."""
        keep = self.kept()
        vr = self.v[:, keep]
        return vr @ ((vr.T @ b) / self.w[keep])

    def null_basis(self) -> np.ndarray:
        """Orthonormal (n, n - rank) basis of the null space: the
        eigenvectors below the cut."""
        return self.v[:, ~self.kept()]


def eigh(a: np.ndarray) -> SymmetricEigen:
    """Symmetric eigendecomposition of a dense, finite, symmetric matrix."""
    a = np.asarray(a, dtype=float)
    _require_finite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10 * max(1.0, float(np.abs(a).max())), rtol=0):
        raise NotSymmetric("matrix is not symmetric")
    w, v = np.linalg.eigh(a)
    return SymmetricEigen(w, v)


def cg_minimum_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of the consistent PSD system ``a @ x = b`` by
    conjugate gradients started at zero.

    Iterates stay in the Krylov space of ``a`` applied to ``b``, hence in the
    column space, so the limit is the minimum-norm solution.  The iteration
    stops at a residual of ``1e-14 max(1, |b|)`` or after ``50 n`` steps.
    Callers must check the residual when ``b`` may leave the column space.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    n = b.shape[0]
    bnorm = float(np.linalg.norm(b))
    x = np.zeros(n)
    if bnorm == 0.0:
        return x
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for _ in range(50 * n):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            break  # direction fell into the numerical null space
        alpha = rs / pap
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= 1e-14 * max(1.0, bnorm):
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def solve_lp(
    objective: np.ndarray, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(None, None)
) -> tuple[str, np.ndarray | None, float | None]:
    """min objective @ x  s.t.  a_ub @ x <= b_ub,  a_eq @ x = b_eq,  bounds;
    returns ``(status, point, value)``.

    The arguments reach ``linprog`` as given: the constraint matrices may be
    dense arrays or ``scipy.sparse`` matrices, and ``bounds`` is a single
    (lo, hi) pair for every variable or a sequence of pairs, ``None`` ends
    meaning unbounded.  Inconsistent shapes raise ``ValueError``.  Status is
    one of ``"Optimal"``, ``"Infeasible"``, ``"Unbounded"``; anything else
    from the backend raises :class:`LpFailure`.  HiGHS with tightened
    feasibility tolerances keeps vertex solutions of the LPs built here
    accurate to ~1e-12, and is deterministic for fixed input.
    """
    from scipy.optimize import linprog

    res = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 0:
        return "Optimal", np.asarray(res.x, dtype=float), float(res.fun)
    if res.status == 2:
        return "Infeasible", None, None
    if res.status == 3:
        return "Unbounded", None, None
    raise LpFailure(f"LP solver returned status {res.status}: {res.message}")
