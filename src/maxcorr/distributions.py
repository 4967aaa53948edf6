"""Joint distributions over categorical features and a binary target.

The objects here are dense probability tables over ``(X_1..X_p, Y)`` with a
common feature alphabet ``{0..m-1}`` and ``Y in {0, 1}``, plus the pairwise
marginal sets that summarize them:

* ``mu^{ij}[k, l] = P(X_i = k, X_j = l)`` for every feature pair,
* ``mu^{i}[k, y]  = P(X_i = k, Y = y)`` for every feature.

X-states are encoded in mixed radix with ``x_1`` least significant, so state
``x`` maps to index ``x_1 + x_2*m + ... + x_p*m^(p-1)`` (``AlphabetSpec.shape``
in Fortran order).  This fixes the iteration order for every table,
flattening, and file in the package.

Dense full-joint operations are capped at ``2 * m^p <= 2**22`` atoms; larger
problems must stay in marginal form.  A pairwise marginal set is stored as
the (pm, pm) matrix ``Q = E[w w']`` of the one-hot features ``w``, capped at
``Q_CAP`` entries, plus the ``mu^{i}`` tables.  This module builds ``Q``,
and ``tightness._free_labels`` and ``_merge_functions`` also read it by blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from types import MappingProxyType

import numpy as np

from .errors import (
    AtomCapExceeded,
    DuplicateEntry,
    InconsistentMarginals,
    InvalidEpsilon,
    LabelOutOfRange,
    NegativeProbability,
    NotNormalized,
    ValidationError,
)
from .numerics import solve_lp

#: Tolerance for user-supplied tables (files, hand-built rows).
INPUT_TOL = 1e-9
#: Tolerance for tables constructed internally; looser means a bug.
INTERNAL_TOL = 1e-12
#: Dense-table cap: m^p * 2 atoms must fit under this.
ATOM_CAP = 2**22
#: Entries of the (pm, pm) matrix Q of a marginal set: 512 MB of float64.
Q_CAP = 2**26
#: One-hot entries per row chunk of the count Gram (a 4 MB float32 block);
#: below 2^24, so every chunk's float32 counts are exact.
GRAM_CHUNK = 2**20
#: Largest m for which a dataset's tables come from the count Gram, not the
#: pair loop: per row the Gram does (pm)^2 multiply-adds, the loop p^2 / 2
#: bincount steps.  Best-of-5 ms, Gram / loop, n = 50,000, one BLAS thread:
#:     p \ m      4        8       12       16       20       24
#:       3    1.9/1.6  3.2/1.5  3.9/1.5  7.4/1.9  8.7/1.6   10/1.6
#:       8    4.6/16   8.2/17    11/16    18/16    21/16    37/19
#:      12     14/39    17/43    25/41    38/43    52/41    70/42
#:      24     16/165   31/172   51/152   95/162  115/155  171/153
#: No single value is no slower on every shape, so 6 stays for now.
GRAM_MAX_M = 6


@dataclass(frozen=True)
class AlphabetSpec:
    """Shape of the problem: p features, each over {0..m-1}, binary Y."""

    p: int
    m: int

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise ValidationError(f"p must be an integer >= 1, got {self.p!r}")
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise ValidationError(f"m must be an integer >= 2, got {self.m!r}")

    @property
    def shape(self) -> tuple:
        """Axes (x_1, ..., x_p) of the states; read in Fortran order, x_1 fastest."""
        return (self.m,) * self.p

    @property
    def n_states(self) -> int:
        return self.m**self.p

    @property
    def n_atoms(self) -> int:
        return 2 * self.n_states

    @property
    def pm(self) -> int:
        """Length of the one-hot indicator vector."""
        return self.p * self.m

    def require_dense(self):
        if self.n_atoms > ATOM_CAP:
            raise AtomCapExceeded(
                f"{self.n_atoms} atoms exceed the dense cap {ATOM_CAP}; "
                "only marginal-based operations are available at this size"
            )

    def require_q(self):
        if self.pm**2 > Q_CAP:
            raise AtomCapExceeded(f"Q of {self.pm}^2 entries exceeds the cap {Q_CAP}")

    def encode(self, x) -> int:
        """Mixed-radix state index of label tuple ``x`` (x_1 least significant)."""
        return int(self.encode_rows([x])[0])

    def encode_rows(self, labels) -> np.ndarray:
        """State indices of an (n, p) label array, the vectorized :meth:`encode`.

        The indices are int64, so this needs ``m^p < 2^62``; marginal-only
        work never encodes states and has no such limit.
        """
        # Exact integer arithmetic; guards m^p against int64 overflow.
        if self.m**self.p >= 2**62:
            raise ValidationError(f"m^p = {self.m}^{self.p} overflows the state index")
        labels = _labels(labels, self.m)
        if labels.ndim != 2 or labels.shape[1] != self.p:
            raise LabelOutOfRange(f"expected {self.p} labels per row, got shape {labels.shape}")
        return labels @ self.m ** np.arange(self.p, dtype=np.int64)

    def decode(self, idx: int) -> tuple:
        if idx < 0 or idx >= self.n_states:
            raise LabelOutOfRange(f"state index {idx} outside 0..{self.n_states - 1}")
        return tuple((idx // self.m**i) % self.m for i in range(self.p))

    def states(self) -> np.ndarray:
        """All state label tuples as an (m^p, p) array, in index order."""
        self.require_dense()
        return np.stack(np.unravel_index(np.arange(self.n_states), self.shape, order="F"), axis=1)

    def indicator_matrix(self) -> np.ndarray:
        """One-hot rows w_x over all states: (m^p, p*m), block i holds X_i."""
        return one_hot(self.states(), self.m)


def one_hot(labels: np.ndarray, m: int, dtype=float) -> np.ndarray:
    """The (n, p*m) one-hot rows of (n, p) labels in 0..m-1: block i holds X_i.

    The ones go in by one scatter into the flat array, at
    ``r * p*m + i*m + labels[r, i]``.
    """
    n, p = labels.shape
    w = np.zeros((n, p * m), dtype=dtype)
    flat = labels + np.arange(p) * m
    flat += np.arange(0, n * p * m, p * m)[:, None]
    w.reshape(-1)[flat] = 1.0
    return w


def _labels(a, hi: int, what: str = "labels") -> np.ndarray:
    """``a`` as int64 labels, or :class:`LabelOutOfRange` naming the first
    row with a value that is not an integer in ``0..hi-1`` (0.7 included).
    Integer input costs one min and one max and is not copied."""
    x = np.atleast_1d(a)
    whole = x.dtype.kind in "biu"
    if not whole:
        try:
            x = np.asarray(x, dtype=float)
        except (TypeError, ValueError) as exc:
            raise LabelOutOfRange(f"{what} must be integers: {exc}") from exc
    if x.size == 0 or (x.min() >= 0 and x.max() < hi and (whole or np.all(x == np.floor(x)))):
        return x.astype(np.int64, copy=False)
    bad = (x < 0) | (x >= hi) | (x != np.floor(x))  # out of range, a fraction or NaN
    k = int(np.argmax(bad.reshape(len(x), -1).any(axis=1)))
    row = tuple(x[k].tolist()) if x.ndim > 1 else x[k].item()
    raise LabelOutOfRange(f"{what} {row} at row {k} not in 0..{hi - 1}")


def probability_table(prob: np.ndarray, tol: float, negative=NegativeProbability) -> np.ndarray:
    """A read-only copy of ``prob`` once it is finite, non-negative (else
    ``negative`` is raised) and sums to 1 within ``tol``."""
    if not np.all(np.isfinite(prob)):
        raise ValidationError("joint table contains non-finite entries")
    if np.any(prob < 0):
        raise negative(f"negative probability {float(prob.min())}")
    total = float(prob.sum())
    if abs(total - 1.0) > tol:
        raise NotNormalized(f"probabilities sum to {total}, not 1 within {tol}")
    return _freeze(prob)


def _freeze(a, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _shaped(a, shape: tuple, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Dense joint table: ``prob[state, y] = P(X = x(state), Y = y)``."""

    spec: AlphabetSpec
    prob: np.ndarray
    tol: float = INPUT_TOL

    def __post_init__(self):
        self.spec.require_dense()
        prob = np.asarray(self.prob, dtype=float)
        if prob.shape != (self.spec.n_states, 2):
            raise ValidationError(
                f"joint table must have shape {(self.spec.n_states, 2)}, got {prob.shape}"
            )
        object.__setattr__(self, "prob", probability_table(prob, self.tol))

    @property
    def p_y1(self) -> float:
        return float(self.prob[:, 1].sum())

    @property
    def px(self) -> np.ndarray:
        """State marginals P(X = x), length m^p."""
        return self.prob.sum(axis=1)


@dataclass(frozen=True, eq=False)
class Dataset:
    """n rows of labels (x_1..x_p, y)."""

    spec: AlphabetSpec
    rows: np.ndarray

    def __post_init__(self):
        p = self.spec.p
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != p + 1:
            raise ValidationError(f"dataset rows must have shape (n, {p + 1}), got {rows.shape}")
        if rows.shape[0] < 1:
            raise ValidationError("dataset must contain at least one row")
        _labels(rows[:, :p], self.spec.m, "feature labels")
        _labels(rows[:, p], 2, "y label")
        object.__setattr__(self, "rows", _freeze(rows, np.int64))

    @property
    def n(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, init=False, eq=False)
class PairwiseMarginalSet:
    """Two read-only arrays: the (pm, pm) matrix Q of the separable bound,
    ``q[i*m + k, j*m + l] = P(X_i = k, X_j = l)`` (diagonal block i is
    ``diag(P(X_i = .))``), and ``xy[i, k, y] = P(X_i = k, Y = y)``.  ``px``
    (``px[i, k] = P(X_i = k)``, the diagonal) and ``xx[(i, j)]`` (block
    (i, j), every ordered i != j, row-major) are read-only views of ``q``.

    ``PairwiseMarginalSet(spec, xx, xy, px)`` scatters the tables into ``q``
    once, :meth:`from_q` takes ``q`` itself; a ``q`` over ``Q_CAP`` entries
    is refused before it is allocated.  Construction checks shapes and
    finiteness only; the probabilistic invariants are the business of
    :func:`validate_marginals`, so that broken sets can be diagnosed.
    """

    spec: AlphabetSpec
    q: np.ndarray
    xy: np.ndarray

    def __init__(self, spec: AlphabetSpec, xx, xy, px):
        p, m = spec.p, spec.m
        spec.require_q()
        xy, px = _shaped(xy, (p, m, 2), "xy"), _shaped(px, (p, m), "px")
        q = np.diag(px.reshape(-1)).reshape(p, m, p, m)
        for i, j in permutations(range(p), 2):
            if (i, j) not in xx:
                raise ValidationError(f"missing pairwise table for ({i}, {j})")
            t = np.asarray(xx[(i, j)], dtype=float)
            if t.shape != (m, m):
                raise ValidationError(f"xx[{i},{j}] must be {m}x{m}, got {t.shape}")
            q[i, :, j] = t
        self._store(spec, q.reshape(p * m, p * m), xy)

    @classmethod
    def from_q(cls, spec: AlphabetSpec, q, xy) -> "PairwiseMarginalSet":
        """The set with a copy of ``q`` as its Q: checks its shape and
        finiteness, and that every diagonal block is diagonal."""
        marginals = cls.__new__(cls)
        marginals._store(spec, np.array(q, dtype=float, order="C"), xy)
        return marginals

    def _store(self, spec: AlphabetSpec, q: np.ndarray, xy):
        p, m = spec.p, spec.m
        q, xy = _shaped(q, (p * m, p * m), "q"), _shaped(xy, (p, m, 2), "xy")
        if not (np.isfinite(q).all() and np.isfinite(xy).all()):
            raise ValidationError("marginal table contains non-finite entries")
        diagonal = q.reshape(p, m, p, m)[np.arange(p), :, np.arange(p)]
        stray = diagonal[:, ~np.eye(m, dtype=bool)].any(axis=1)
        if stray.any():
            raise ValidationError(f"diagonal block {int(np.argmax(stray))} of q is not diagonal")
        q.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "xy", _freeze(xy))

    @property
    def px(self) -> np.ndarray:
        return np.diagonal(self.q).reshape(self.spec.p, self.spec.m)

    @cached_property
    def xx(self) -> MappingProxyType:
        p, m = self.spec.p, self.spec.m
        blocks = self.q.reshape(p, m, p, m)
        return MappingProxyType({(i, j): blocks[i, :, j] for i, j in permutations(range(p), 2)})

    @property
    def p_y(self) -> np.ndarray:
        """(P(Y=0), P(Y=1)) read off the first feature's table."""
        return self.xy[0].sum(axis=0)


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """E[Y | X = x] on the support of X; off-support states are only flagged."""

    spec: AlphabetSpec
    values: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        support = np.asarray(self.support, dtype=bool)
        if values.shape != (self.spec.n_states,) or support.shape != values.shape:
            raise ValidationError("conditional table shape mismatch")
        on = values[support]
        if on.size and (on.min() < -INTERNAL_TOL or on.max() > 1 + INTERNAL_TOL):
            raise ValidationError("conditional expectations must lie in [0, 1]")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "support", _freeze(support, bool))


@dataclass(frozen=True)
class ValidationReport:
    """Findings from marginal validation; empty ``violations`` means pass."""

    violations: tuple
    warnings: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# construction and extraction
# ---------------------------------------------------------------------------


def joint_from_arrays(spec: AlphabetSpec, labels, y, prob) -> DiscreteJoint:
    """Build a joint from parallel cell arrays: (n, p) feature labels, n
    ``y`` labels and n probabilities.

    Unspecified cells default to zero; duplicate cells and out-of-range
    labels are rejected, and the entries must form a probability table.
    """
    spec.require_dense()
    y = np.asarray(y)
    prob = np.asarray(prob, dtype=float)
    if y.ndim != 1 or prob.shape != y.shape or np.shape(labels)[:1] != y.shape:
        raise ValidationError("labels, y and prob must describe the same number of cells")
    y = _labels(y, 2, "y label")
    cell = 2 * spec.encode_rows(labels) + y
    counts = np.bincount(cell, minlength=spec.n_atoms)
    if counts.max() > 1:
        dup = int(np.argmax(counts > 1))
        raise DuplicateEntry(f"cell (x={spec.decode(dup // 2)}, y={dup % 2}) specified twice")
    negative = prob < 0
    if negative.any():
        k = int(np.argmax(negative))
        x = spec.decode(int(cell[k]) // 2)
        raise NegativeProbability(f"negative probability {prob[k]} at (x={x}, y={int(y[k])})")
    table = np.zeros(spec.n_atoms)
    table[cell] = prob
    return DiscreteJoint(spec, table.reshape(spec.n_states, 2))


def joint_from_table(spec: AlphabetSpec, rows) -> DiscreteJoint:
    """Build a joint from sparse ``(x_tuple, y, prob)`` triples; the checks
    are those of :func:`joint_from_arrays`."""
    rows = list(rows)
    xs, ys, values = zip(*rows) if rows else ((), (), ())
    try:
        labels = np.reshape(xs, (len(rows), spec.p))
    except ValueError as exc:
        raise LabelOutOfRange(f"every cell needs {spec.p} feature labels") from exc
    return joint_from_arrays(spec, labels, ys, values)


def _state_tensor(spec: AlphabetSpec, flat: np.ndarray) -> np.ndarray:
    """Reshape an (m^p, ...) array to axes (x_1, ..., x_p, ...)."""
    return flat.reshape(spec.shape + flat.shape[1:], order="F")


def pairwise_from_joint(joint: DiscreteJoint) -> PairwiseMarginalSet:
    """Exact pairwise marginals of a dense joint."""
    spec = joint.spec
    p, m = spec.p, spec.m
    spec.require_q()
    tx = _state_tensor(spec, joint.px)
    ty = [_state_tensor(spec, joint.prob[:, y].copy()) for y in (0, 1)]

    px, xy = np.zeros((p, m)), np.zeros((p, m, 2))
    for i in range(p):
        others = tuple(ax for ax in range(p) if ax != i)
        px[i] = tx.sum(axis=others)
        for y in (0, 1):
            xy[i, :, y] = ty[y].sum(axis=others)

    pairs = combinations(range(p), 2)  # each table's axes come out ordered (i, j)
    upper = [tx.sum(axis=tuple(ax for ax in range(p) if ax not in ij)) for ij in pairs]
    return PairwiseMarginalSet.from_q(spec, q_from_upper(spec, upper, px), xy)


def empirical_joint(data: Dataset) -> DiscreteJoint:
    """Frequency table of a dataset as a joint distribution."""
    spec = data.spec
    spec.require_dense()
    flat = spec.encode_rows(data.rows[:, : spec.p]) * 2 + data.rows[:, spec.p]
    counts = np.bincount(flat, minlength=spec.n_atoms).astype(float)
    return DiscreteJoint(spec, (counts / data.n).reshape(spec.n_states, 2), tol=INTERNAL_TOL)


def pairwise_from_dataset(data: Dataset) -> PairwiseMarginalSet:
    """Empirical pairwise marginals of a dataset, counted from its rows at
    every size, without the ``m^p`` joint table.

    For ``m <= GRAM_MAX_M``, ``Q`` is the count Gram ``W'W`` of the (n, pm)
    one-hot matrix ``W`` over ``n``: pair counts in its off-diagonal blocks,
    label counts on its diagonal; ``W'y`` counts the labels with ``Y = 1``.
    The counts are exact (see :func:`_pairwise_counts`), so each entry is an
    integer count divided by ``n`` once.  Rows are taken in chunks of about
    ``GRAM_CHUNK`` one-hot entries, so the extra memory is the Gram, its copy
    ``Q`` and a few MB whatever ``n``.  For larger ``m`` the tables are
    counted one ``np.bincount`` per feature and per pair.
    """
    spec = data.spec
    spec.require_q()
    if spec.m > GRAM_MAX_M:
        return _pairwise_by_pair(data)

    p, m, n = spec.p, spec.m, data.n
    gram, wy = _pairwise_counts(data.rows[:, :p], data.rows[:, p], m)
    xy = np.stack([np.diag(gram) - wy, wy], axis=1).reshape(p, m, 2) / n
    return PairwiseMarginalSet.from_q(spec, np.divide(gram, n, out=gram), xy)


def _pairwise_counts(x: np.ndarray, y: np.ndarray, m: int) -> tuple:
    """``(W'W, W'y)`` for (n, p) labels ``x`` in 0..m-1 and n binary ``y``,
    where row r of ``W`` is the one-hot vector of ``x[r]``.

    ``W`` is built as float32 for ``GRAM_CHUNK // pm`` rows at a time, and
    the chunk products are summed in float64.  Every sum is exact: each
    chunk's entries are integer counts no larger than its row count, which
    stays below 2^24, and the totals are integers no larger than n.
    """
    n, p = x.shape
    pm = p * m
    rows = max(1, GRAM_CHUNK // pm)
    yf = np.asarray(y, dtype=np.float32)
    gram = np.zeros((pm, pm))
    wy = np.zeros(pm)
    for lo in range(0, n, rows):
        w = one_hot(x[lo : lo + rows], m, np.float32)
        gram += w.T @ w
        wy += yf[lo : lo + rows] @ w
    return gram, wy


def _pairwise_by_pair(data: Dataset) -> PairwiseMarginalSet:
    """Empirical pairwise marginals, one ``np.bincount`` per feature and per
    feature pair; the caller checks ``Q_CAP``."""
    spec = data.spec
    p, m, n = spec.p, spec.m, data.n
    x = data.rows[:, :p]
    y = data.rows[:, p]
    px, xy = np.zeros((p, m)), np.zeros((p, m, 2))
    for i in range(p):
        px[i] = np.bincount(x[:, i], minlength=m) / n
        xy[i] = np.bincount(x[:, i] * 2 + y, minlength=2 * m).reshape(m, 2) / n
    pairs = combinations(range(p), 2)
    upper = [np.bincount(x[:, i] * m + x[:, j], minlength=m * m) / n for i, j in pairs]
    return PairwiseMarginalSet.from_q(spec, q_from_upper(spec, upper, px), xy)


def q_from_upper(spec: AlphabetSpec, upper, px) -> np.ndarray:
    """The matrix Q of px and the tables ``mu^{ij}``, i < j, stacked as
    ``upper`` in ``np.triu_indices(p, 1)`` order; block (j, i) is the
    transpose of block (i, j)."""
    spec.require_q()
    p, m = spec.p, spec.m
    upper = np.reshape(upper, (-1, m, m))
    q = np.diag(np.reshape(px, -1).astype(float)).reshape(p, m, p, m)
    i, j = np.triu_indices(p, 1)
    q[i, :, j] = upper
    q[j, :, i] = np.swapaxes(upper, 1, 2)
    return q.reshape(p * m, p * m)


def marginal_deviation(a: PairwiseMarginalSet, b: PairwiseMarginalSet) -> float:
    """Largest entrywise difference of two marginal sets over their ``xy``
    tables and their pairwise tables (the off-diagonal blocks of Q)."""
    p, m = a.spec.p, a.spec.m
    blocks = np.abs(a.q - b.q).reshape(p, m, p, m).max(axis=(1, 3))[~np.eye(p, dtype=bool)]
    return max(float(np.abs(a.xy - b.xy).max()), float(blocks.max(initial=0.0)))


def conditional_expectation(joint: DiscreteJoint) -> ConditionalTable:
    """E[Y | X = x] = P(x, 1) / P(x) wherever P(x) > 0."""
    px = joint.px
    support = px > 0
    values = np.zeros(joint.spec.n_states)
    values[support] = joint.prob[support, 1] / px[support]
    return ConditionalTable(joint.spec, values, support)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_marginals(marginals: PairwiseMarginalSet, tol: float = INPUT_TOL) -> ValidationReport:
    """Check every necessary local condition on a pairwise marginal set.

    Passing is necessary but NOT sufficient for the marginals to be realized
    by some joint distribution; exact membership in the marginal polytope is
    only decidable by :func:`feasible_member` at dense scale.

    Each check runs as one reduction over all tables; messages are built
    for the flagged tables only, in the order the checks are listed below.
    """
    spec = marginals.spec
    p, m = spec.p, spec.m
    q, px, xy = marginals.q, marginals.px, marginals.xy
    blocks = q.reshape(p, m, p, m)  # blocks[i, :, j] is xx[(i, j)]
    i_up, j_up = np.triu_indices(p, 1)
    upper = blocks[i_up, :, j_up]  # xx[(i, j)] for i < j, in (i, j) order
    violations = []
    warnings = []

    # Every table is a distribution: px[i] and xy[i] for each i, then
    # xx[(i, j)] for i < j.  Entry 2i is px[i], 2i + 1 is xy[i], 2p + k is
    # the k-th pair.
    def per_table(reduce):
        singles = np.column_stack([reduce(px), reduce(xy.reshape(p, 2 * m))]).reshape(-1)
        return np.concatenate([singles, reduce(upper.reshape(-1, m * m))])

    negative = per_table(lambda a: a.min(axis=1)) < -tol
    off_sum = np.abs(per_table(lambda a: a.sum(axis=1)) - 1.0) > tol
    for k in np.flatnonzero(negative | off_sum).tolist():
        if k < 2 * p:
            name, tab = f"{('px', 'xy')[k % 2]}[{k // 2}]", (px, xy)[k % 2][k // 2]
        else:
            name, tab = f"xx[{i_up[k - 2 * p]},{j_up[k - 2 * p]}]", upper[k - 2 * p]
        if negative[k]:
            violations.append(f"{name}: negative entry {tab.min():.3e}")
        if off_sum[k]:
            violations.append(f"{name}: sums to {tab.sum():.12f}, not 1")

    asymmetric = ~(np.abs(q - q.T) <= tol).reshape(p, m, p, m).all(axis=(1, 3))
    for i, j in zip(*np.nonzero(np.triu(asymmetric, 1))):
        violations.append(f"xx[{i},{j}] is not the transpose of xx[{j},{i}]")

    # Row sums of every table must reproduce the univariate marginals: for
    # each i, xy[i] first, then xx[(i, j)] for j != i.  Column 0 of
    # ``off_rows`` is xy[i] and column 1 + j is block (i, j) of Q; the
    # diagonal block diag(px[i]) sums to px[i] exactly, so it never shows.
    pair_rows = blocks.sum(axis=3).transpose(0, 2, 1)
    rows = np.concatenate([xy.sum(axis=2)[:, None], pair_rows], axis=1)
    off_rows = ~(np.abs(rows - px[:, None, :]) <= tol).all(axis=2)
    for i, c in zip(*(idx.tolist() for idx in np.nonzero(off_rows))):
        table = f"xy[{i}]" if c == 0 else f"xx[{i},{c - 1}]"
        violations.append(f"{table} row sums disagree with px[{i}]")

    py = xy.sum(axis=1)  # (p, 2)
    disagree = ~(np.abs(py[1:] - py[0]) <= tol).all(axis=1)
    for i in (np.flatnonzero(disagree) + 1).tolist():
        violations.append(f"xy[{i}] implies P(Y) = {py[i]} but xy[0] implies {py[0]}")

    p_y1 = float(py[0, 1])
    if p_y1 <= 0.0 or p_y1 >= 1.0:
        warnings.append(f"degenerate target: P(Y=1) = {p_y1}; correlation ops will reject this")

    return ValidationReport(tuple(violations), tuple(warnings))


def feasible_member(marginals: PairwiseMarginalSet, tol: float = INPUT_TOL) -> DiscreteJoint:
    """Some joint distribution realizing the marginals, via a feasibility LP
    over all atoms (dense cap applies).

    Raises :class:`InconsistentMarginals` when the class is empty.
    """
    spec = marginals.spec
    spec.require_dense()
    report = validate_marginals(marginals, tol=tol)
    if not report.ok:
        raise InconsistentMarginals("; ".join(report.violations))

    # Equality rows: each entry of xx[(i, j)], i < j (both atoms of a state),
    # each entry of xy[i] (one atom), and the total mass (the last row).
    p, m, n_states = spec.p, spec.m, spec.n_states
    w = spec.indicator_matrix().reshape(n_states, p, m)
    i, j = np.triu_indices(p, 1)
    pairs = (w[:, i, :, None] * w[:, j, None, :]).reshape(n_states, -1).T
    a_eq = np.ones((len(pairs) + 2 * p * m + 1, spec.n_atoms))
    a_eq[: len(pairs), 0::2] = a_eq[: len(pairs), 1::2] = pairs
    a_eq[len(pairs) : -1] = np.kron(w.reshape(n_states, -1).T, np.eye(2))
    upper = marginals.q.reshape(p, m, p, m)[i, :, j]
    b_eq = np.concatenate([upper.reshape(-1), marginals.xy.reshape(-1), [1.0]])
    status, point, _ = solve_lp(np.zeros(spec.n_atoms), a_eq=a_eq, b_eq=b_eq, bounds=(0.0, None))
    if status != "Optimal":
        raise InconsistentMarginals(f"no joint realizes these marginals (LP status: {status})")
    prob = np.maximum(point, 0.0).reshape(n_states, 2)
    prob /= prob.sum()
    return DiscreteJoint(spec, prob, tol=INTERNAL_TOL)


# ---------------------------------------------------------------------------
# fixtures and synthetic joints
# ---------------------------------------------------------------------------


def uniform_joint(spec: AlphabetSpec) -> DiscreteJoint:
    """Every atom gets mass 1 / (2 m^p): features and target all independent."""
    spec.require_dense()
    prob = np.full((spec.n_states, 2), 1.0 / spec.n_atoms)
    return DiscreteJoint(spec, prob, tol=INTERNAL_TOL)


def perturb_joint(joint: DiscreteJoint, eps: float, seed) -> DiscreteJoint:
    """A valid joint within L1 distance ``eps`` of ``joint``.

    Adds a seeded zero-sum perturbation, rescaled (never clipped) so that no
    entry goes negative.  ``eps = 0`` returns the input unchanged.
    """
    if eps < 0:
        raise InvalidEpsilon(f"eps must be >= 0, got {eps}")
    if eps == 0:
        return joint
    rng = np.random.default_rng(seed)
    flat = joint.prob.reshape(-1)
    v = rng.standard_normal(flat.size)
    v -= v.mean()
    l1 = np.abs(v).sum()
    if l1 == 0:
        return joint
    scale = eps / l1
    neg = v < 0
    if np.any(neg):
        headroom = flat[neg] / -v[neg]
        scale = min(scale, float(headroom.min()))
    perturbed = np.maximum(flat + scale * v, 0.0)
    return DiscreteJoint(joint.spec, perturbed.reshape(joint.prob.shape), tol=INTERNAL_TOL)


def nonadditive_fixture() -> DiscreteJoint:
    """Two binary features whose pairwise marginals admit exactly one joint,
    and that joint's conditional mean E[Y|X] is not a sum f_1(X_1) + f_2(X_2).

    The canonical witness that the separable lower bound can be strict.
    """
    spec = AlphabetSpec(p=2, m=2)
    rows = [
        ((0, 0), 0, 0.0),
        ((0, 0), 1, 0.1),
        ((1, 0), 0, 0.2),
        ((1, 0), 1, 0.2),
        ((0, 1), 0, 0.1),
        ((0, 1), 1, 0.3),
        ((1, 1), 0, 0.1),
        ((1, 1), 1, 0.0),
    ]
    return joint_from_table(spec, rows)


def copy_fixture() -> DiscreteJoint:
    """Single binary feature with Y = X_1: maximal correlation 1."""
    spec = AlphabetSpec(p=1, m=2)
    return joint_from_table(spec, [((0,), 0, 0.5), ((1,), 1, 0.5)])


def additive_fixture(spec: AlphabetSpec, seed, delta: float = 0.05) -> DiscreteJoint:
    """Random joint with uniform X and a separable conditional mean.

    Draws per-feature tables f_i and rescales them so the total
    sum(f_i(x_i)) stays inside [delta, 1 - delta] over ALL states, keeping
    every conditional probability valid and the target non-degenerate.
    """
    if not 0 < delta < 0.5:
        raise ValidationError(f"delta must lie in (0, 0.5), got {delta}")
    spec.require_dense()
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, 1.0, size=(spec.p, spec.m)) / spec.p
    lo = f.min(axis=1)
    span = float(f.max(axis=1).sum() - lo.sum())
    scale = (1.0 - 2.0 * delta) / span if span > 0 else 0.0
    f = scale * (f - lo[:, None]) + delta / spec.p

    states = spec.states()
    cond = f[np.arange(spec.p)[None, :], states].sum(axis=1)
    px = 1.0 / spec.n_states
    prob = np.stack([(1.0 - cond) * px, cond * px], axis=1)
    return DiscreteJoint(spec, prob, tol=INTERNAL_TOL)


def random_joint(spec: AlphabetSpec, seed, alpha: float = 1.0) -> DiscreteJoint:
    """Dirichlet(alpha) draw over all atoms; strictly positive a.s."""
    spec.require_dense()
    rng = np.random.default_rng(seed)
    prob = rng.dirichlet(np.full(spec.n_atoms, alpha)).reshape(spec.n_states, 2)
    return DiscreteJoint(spec, prob, tol=INTERNAL_TOL)


def sample_dataset(joint: DiscreteJoint, n: int, seed) -> Dataset:
    """n i.i.d. samples from a joint."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    flat = joint.prob.reshape(-1)
    draws = rng.choice(flat.size, size=n, p=flat / flat.sum())
    states, ys = np.divmod(draws, 2)
    cols = np.unravel_index(states, joint.spec.shape, order="F")
    return Dataset(joint.spec, np.stack(cols + (ys,), axis=1))


def permute_labels(joint: DiscreteJoint, feature: int, perm) -> DiscreteJoint:
    """Relabel feature ``feature`` by ``perm`` (new_label = perm[old_label])."""
    spec = joint.spec
    if not (isinstance(feature, (int, np.integer)) and 0 <= feature < spec.p):
        raise ValidationError(f"feature must be an integer in 0..{spec.p - 1}, got {feature!r}")
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(spec.m)):
        raise ValidationError(f"perm must be a permutation of 0..{spec.m - 1}")
    # Label j of the result is label argsort(perm)[j] of the input.
    tensor = np.take(_state_tensor(spec, joint.prob), np.argsort(perm), axis=feature)
    return DiscreteJoint(spec, tensor.reshape(joint.prob.shape, order="F"), tol=INTERNAL_TOL)
