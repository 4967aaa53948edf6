"""Dense linear-algebra and small-LP kernel.

Thin, contract-checked wrappers over LAPACK (via numpy) and HiGHS (via
scipy.optimize.linprog), plus a conjugate-gradient solve for consistent
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


def numerical_rank(s: np.ndarray) -> int:
    """Count of singular values above ``RANK_TOL * s_max``."""
    s = np.asarray(s, dtype=float)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


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
        mag = np.abs(self.w)
        return mag > RANK_TOL * mag.max(initial=0.0)

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


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective @ x  s.t.  a_ub @ x <= b_ub,  a_eq @ x = b_eq, bounds.

    ``bounds`` is either a single (lo, hi) pair applied to every variable or
    a sequence of pairs; ``None`` endpoints mean unbounded.
    """

    objective: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: object = (None, None)

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if c.ndim != 1:
            raise DimensionMismatch("objective must be a vector")
        n = c.shape[0]
        for name, mat, vec in (("ub", self.a_ub, self.b_ub), ("eq", self.a_eq, self.b_eq)):
            if (mat is None) != (vec is None):
                raise DimensionMismatch(f"a_{name} and b_{name} must be given together")
            if mat is not None:
                mat = np.asarray(mat, dtype=float)
                vec = np.asarray(vec, dtype=float)
                if mat.ndim != 2 or mat.shape[1] != n or vec.shape != (mat.shape[0],):
                    raise DimensionMismatch(f"a_{name}/b_{name} shapes inconsistent with {n} variables")
        object.__setattr__(self, "objective", c)


def solve_lp(lp: LinearProgram) -> tuple[str, np.ndarray | None, float | None]:
    """Solve a small dense LP; returns ``(status, point, value)``.

    Status is one of ``"Optimal"``, ``"Infeasible"``, ``"Unbounded"``;
    anything else from the backend raises :class:`LpFailure`.  HiGHS with
    tightened feasibility tolerances keeps vertex solutions accurate to
    ~1e-12 at this scale, and is deterministic for fixed input.
    """
    from scipy.optimize import linprog

    res = linprog(
        lp.objective,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=lp.bounds,
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
