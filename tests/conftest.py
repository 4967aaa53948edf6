"""Shared test helpers: independent brute-force oracles."""

import csv
import itertools
import json

import numpy as np
import pytest
from scipy.optimize import linprog

import maxcorr as mx
from maxcorr import tightness
from maxcorr.distributions import INPUT_TOL, INTERNAL_TOL, q_from_upper, upper_pairs
from maxcorr.errors import (
    DuplicateEntry,
    InconsistentMarginals,
    LabelOutOfRange,
    NegativeProbability,
    ValidationError,
)
from maxcorr.numerics import RANK_TOL, solve_lp
from maxcorr.tightness import TIGHT_TOL


@pytest.fixture
def fixture_atoms():
    """The 8 hand-written atoms of the nonadditive singleton example."""
    return {
        (0, 0, 0): 0.0,
        (0, 0, 1): 0.1,
        (1, 0, 0): 0.2,
        (1, 0, 1): 0.2,
        (0, 1, 0): 0.1,
        (0, 1, 1): 0.3,
        (1, 1, 0): 0.1,
        (1, 1, 1): 0.0,
    }


def random_psd(n, seed, rank=None):
    """Random symmetric PSD matrix of the given size and rank."""
    rng = np.random.default_rng(seed)
    k = rank if rank is not None else n
    b = rng.standard_normal((n, k))
    return b @ b.T


def negative_gamma_marginals():
    """Pairwise tables that no distribution has: three uniform binary
    features, each pair equal with probability 0.275, and every xy table
    [[0.3, 0.2], [0.2, 0.3]].  Each table is consistent with the others,
    but the minimum of the quadratic, gamma, is -0.05."""
    agree = np.array([[0.1375, 0.3625], [0.3625, 0.1375]])
    xx = {(i, j): agree for i in range(3) for j in range(3) if i != j}
    xy = np.tile([[0.3, 0.2], [0.2, 0.3]], (3, 1, 1))
    return mx.PairwiseMarginalSet(mx.AlphabetSpec(3, 2), xx, xy, np.full((3, 2), 0.5))


def independent_y_marginals():
    """The feature tables of :func:`negative_gamma_marginals` with every xy
    entry 0.25 (Y independent of each feature).  No distribution has them
    either, as the three features alone break the triangle inequality, but
    gamma is 1/4 and every local check passes."""
    negative = negative_gamma_marginals()
    return mx.PairwiseMarginalSet(negative.spec, dict(negative.xx), np.full((3, 2, 2), 0.25), negative.px)


def svd_rank(a):
    """Count of singular values of ``a`` above ``RANK_TOL`` times the largest:
    the SVD form of the library's one rank cut."""
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s.max(initial=0.0)))


def legacy_is_symmetric(a):
    """The symmetry rule :func:`maxcorr.numerics.eigh` applied before it
    took one reduction: ``np.allclose`` with ``rtol=0`` at the same ``atol``."""
    return np.allclose(a, a.T, atol=1e-10 * max(1.0, float(np.abs(a).max())), rtol=0)


def lp_vertex_oracle(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """Exhaustive vertex enumeration for small bounded-feasible LPs.

    Collects every inequality (rows of a_ub, plus variable bounds) and every
    equality, then tries all active sets completing the equalities to n
    constraints.  Returns the best feasible vertex value, or None when no
    vertex is feasible.  Only meant for n <= 8 test problems with a bounded
    optimum attained at a vertex.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    ineqs = []
    if a_ub is not None:
        for row, rhs in zip(np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)):
            ineqs.append((row, rhs))
    if bounds is not None:
        if isinstance(bounds, tuple):
            bounds = [bounds] * n
        for i, (lo, hi) in enumerate(bounds):
            e = np.zeros(n)
            e[i] = 1.0
            if lo is not None:
                ineqs.append((-e, -lo))
            if hi is not None:
                ineqs.append((e, hi))
    eqs = []
    if a_eq is not None:
        for row, rhs in zip(np.asarray(a_eq, dtype=float), np.asarray(b_eq, dtype=float)):
            eqs.append((row, rhs))

    best = None
    need = n - len(eqs)
    for combo in itertools.combinations(range(len(ineqs)), need):
        rows = [r for r, _ in eqs] + [ineqs[i][0] for i in combo]
        rhs = [v for _, v in eqs] + [ineqs[i][1] for i in combo]
        a = np.array(rows)
        if np.linalg.matrix_rank(a) < n:
            continue
        x = np.linalg.solve(a, np.array(rhs))
        feasible = all(row @ x <= val + 1e-9 for row, val in ineqs)
        feasible = feasible and all(abs(row @ x - val) <= 1e-9 for row, val in eqs)
        if feasible:
            value = float(c @ x)
            if best is None or value < best:
                best = value
    return best


def quadratic_grid_oracle(system, z_base, direction, half_range=5.0, points=100001):
    """min over the line z_base + t*direction of max(h(z), h(-z))."""
    spec = system.spec
    ts = np.linspace(-half_range, half_range, points)
    best = np.inf
    for t in ts:
        z = z_base + t * direction
        best = min(best, max(mx.h_value(z, spec), mx.h_value(-z, spec)))
    return best


def pinned_tightness_lp(system):
    """min over {z : 2Qz = d} of max(h(z), h(-z)), built independently of
    :func:`maxcorr.check_tightness`.

    z0 comes from dense least squares and the null space from a symmetric
    eigendecomposition, kept whole (block shifts included).  Equality rows
    pin the sums of blocks 2..p of the null-space step to 0: that removes
    the flat block-shift rays, which leave h(z) and h(-z) unchanged, and
    changes no optimum.  The free coefficients are unbounded, and the value
    is the objective evaluated exactly at the LP's point.
    """
    spec = system.spec
    p, m, pm = spec.p, spec.m, spec.pm
    q, d = system.q, system.d
    z0 = np.linalg.lstsq(2.0 * q, d, rcond=None)[0]
    vals, vecs = np.linalg.eigh(q)
    basis = vecs[:, vals <= 1e-10 * max(float(vals.max()), 0.0)]
    k = basis.shape[1]
    block = np.kron(np.eye(p), np.ones((m, 1)))
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
    a_eq = np.hstack([(block.T @ basis)[1:], np.zeros((p - 1, 2 * p + 1))])
    c = np.zeros(k + 2 * p + 1)
    c[-1] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.zeros(p - 1),
        bounds=(None, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    z = z0 + basis @ res.x[:k]
    return max(mx.h_value(z, spec), mx.h_value(-z, spec))


def forced_lp_certificate(system, tol=TIGHT_TOL):
    """:func:`maxcorr.check_tightness` with the LP run even where the closed
    form applies: the same z0, null basis and certificate assembly, with
    ``_minimize_h`` deciding over an empty or non-empty basis alike."""
    spec = system.spec
    z0 = system.z0
    basis = tightness._without_block_shifts(system.factor.null_basis(), spec)
    value, z_min = tightness._minimize_h(z0, basis, spec)
    return tightness._certificate(z0, tightness._h_pair(z0, spec), z_min, None, value, spec, tol)


def legacy_feasible_member(marginals, tol=INPUT_TOL):
    """:func:`maxcorr.feasible_member` with its equality rows built densely:
    the one-hot indicator of every state, its pair products and a Kronecker
    block.  The parity oracle of the gathered sparse rows."""
    spec = marginals.spec
    spec.require_dense()
    report = mx.validate_marginals(marginals, tol=tol)
    if not report.ok:
        raise InconsistentMarginals("; ".join(report.violations))

    # Equality rows: each entry of xx[(i, j)], i < j (both atoms of a state),
    # each entry of xy[i] (one atom), and the total mass (the last row).
    p, m, n_states = spec.p, spec.m, spec.n_states
    w = spec.indicator_matrix().reshape(n_states, p, m)
    i, j = upper_pairs(p)
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
    return mx.DiscreteJoint(spec, prob, tol=INTERNAL_TOL)


# ---------------------------------------------------------------------------
# table-by-table marginal validation: the loop the block reductions
# replaced, kept as their parity oracle
# ---------------------------------------------------------------------------


def legacy_one_hot(labels, m):
    """One-hot rows by 2-D fancy indexing: row index against column index."""
    n, p = labels.shape
    w = np.zeros((n, p * m))
    w[np.arange(n)[:, None], labels + np.arange(p) * m] = 1.0
    return w


def legacy_pairwise_by_pair(data):
    """Empirical pairwise marginals, one ``np.bincount`` per feature and per
    feature pair over all rows."""
    spec = data.spec
    p, m, n = spec.p, spec.m, data.n
    x = data.rows[:, :p]
    y = data.rows[:, p]
    px, xy = np.zeros((p, m)), np.zeros((p, m, 2))
    for i in range(p):
        px[i] = np.bincount(x[:, i], minlength=m) / n
        xy[i] = np.bincount(x[:, i] * 2 + y, minlength=2 * m).reshape(m, 2) / n
    pairs = itertools.combinations(range(p), 2)
    upper = [np.bincount(x[:, i] * m + x[:, j], minlength=m * m) / n for i, j in pairs]
    return mx.PairwiseMarginalSet.from_q(spec, q_from_upper(spec, upper, px), xy)


def legacy_validate_marginals(marginals, tol=INPUT_TOL):
    spec = marginals.spec
    p = spec.p
    violations = []
    warnings = []

    def check_table(name, tab):
        if tab.min() < -tol:
            violations.append(f"{name}: negative entry {tab.min():.3e}")
        if abs(tab.sum() - 1.0) > tol:
            violations.append(f"{name}: sums to {tab.sum():.12f}, not 1")

    for i in range(p):
        check_table(f"px[{i}]", marginals.px[i])
        check_table(f"xy[{i}]", marginals.xy[i])
    for (i, j), tab in marginals.xx.items():
        if i < j:
            check_table(f"xx[{i},{j}]", tab)

    for i in range(p):
        for j in range(i + 1, p):
            if not np.allclose(marginals.xx[(i, j)], marginals.xx[(j, i)].T, atol=tol, rtol=0):
                violations.append(f"xx[{i},{j}] is not the transpose of xx[{j},{i}]")

    for i in range(p):
        if not np.allclose(marginals.xy[i].sum(axis=1), marginals.px[i], atol=tol, rtol=0):
            violations.append(f"xy[{i}] row sums disagree with px[{i}]")
        for j in range(p):
            if i == j:
                continue
            rows = marginals.xx[(i, j)].sum(axis=1)
            if not np.allclose(rows, marginals.px[i], atol=tol, rtol=0):
                violations.append(f"xx[{i},{j}] row sums disagree with px[{i}]")

    py = marginals.xy.sum(axis=1)
    for i in range(1, p):
        if not np.allclose(py[i], py[0], atol=tol, rtol=0):
            violations.append(f"xy[{i}] implies P(Y) = {py[i]} but xy[0] implies {py[0]}")

    p_y1 = float(py[0, 1])
    if p_y1 <= 0.0 or p_y1 >= 1.0:
        warnings.append(f"degenerate target: P(Y=1) = {p_y1}; correlation ops will reject this")

    return mx.ValidationReport(tuple(violations), tuple(warnings))


# ---------------------------------------------------------------------------
# csv-module readers and writer: the row-by-row route the numpy parsers
# replaced, kept as their parity oracle
# ---------------------------------------------------------------------------


def _legacy_label(text, what):
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad {what} label {text!r}") from exc


def _legacy_prob(text):
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad probability {text!r}") from exc


def legacy_joint_from_table(spec, rows):
    """Per-row joint builder: y range, label range, duplicate, sign checks."""
    spec.require_dense()
    prob = np.zeros((spec.n_states, 2))
    seen = set()
    for x, y, value in rows:
        y = int(y)
        if y not in (0, 1):
            raise LabelOutOfRange(f"y label {y} outside {{0, 1}}")
        idx = spec.encode(x)
        if (idx, y) in seen:
            raise DuplicateEntry(f"cell (x={tuple(x)}, y={y}) specified twice")
        seen.add((idx, y))
        value = float(value)
        if value < 0:
            raise NegativeProbability(f"negative probability {value}")
        prob[idx, y] = value
    return mx.DiscreteJoint(spec, prob)


def legacy_read_joint_csv(path, m=None):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if len(header) < 3 or header[-1] != "prob" or header[-2] != "y":
            raise ValidationError(f"{path}: expected header x1,...,xp,y,prob")
        p = len(header) - 2
        rows = []
        for line in reader:
            if not line:
                continue
            if len(line) != p + 2:
                raise ValidationError(f"{path}: row has {len(line)} fields, expected {p + 2}")
            x = tuple(_legacy_label(v, "feature") for v in line[:p])
            rows.append((x, _legacy_label(line[p], "y"), _legacy_prob(line[p + 1])))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    if m is None:
        m = max(2, 1 + max(max(x) for x, _, _ in rows))
    return legacy_joint_from_table(mx.AlphabetSpec(p, m), rows)


def legacy_write_joint_csv(joint, path):
    spec = joint.spec
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(spec.p)] + ["y", "prob"])
        for idx in range(spec.n_states):
            labels = spec.decode(idx)
            for y in (0, 1):
                writer.writerow(list(labels) + [y, format(joint.prob[idx, y], ".17g")])


def legacy_read_dataset_csv(path, m=None):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "y":
            raise ValidationError(f"{path}: expected header x1,...,xp,y")
        p = len(header) - 1
        rows = []
        for line in reader:
            if not line:
                continue
            if len(line) != p + 1:
                raise ValidationError(f"{path}: row has {len(line)} fields, expected {p + 1}")
            rows.append([_legacy_label(v, "feature") for v in line[:p]] + [_legacy_label(line[p], "y")])
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    rows = np.asarray(rows, dtype=int)
    if m is None:
        m = max(2, 1 + int(rows[:, :p].max()))
    return mx.Dataset(mx.AlphabetSpec(p, m), rows)


def legacy_parse_fixed_width(body, ncols):
    """The byte view of ``maxcorr.io._parse_fixed_width`` before it took one
    row template: the body viewed in place through three strided views, its
    digit, separator and line-end bytes checked by separate reductions."""
    buf = np.frombuffer(body, dtype=np.uint8)
    last = 2 * ncols - 1  # offset of the first row's terminator
    crlf = last < buf.size and buf[last] == ord("\r")
    line = last + 1 + crlf
    rows, rest = divmod(buf.size, line)
    if not buf.size or rest not in (0, last):  # a partial row is the last one, unterminated
        return None
    total = rows + (rest > 0)
    strided = np.lib.stride_tricks.as_strided
    labels = strided(buf, (total, ncols), (line, 2), writeable=False) - ord("0")
    commas = strided(buf[1:], (total, ncols - 1), (line, 2), writeable=False)
    ends = strided(buf[last:], (rows, 1 + crlf), (line, 1), writeable=False)

    def all_in(view, lo, hi):
        return view.size == 0 or (lo <= view.min() and view.max() <= hi)

    if not (
        labels.max() <= 9  # a byte below "0" wraps past 9 in uint8
        and all_in(commas, ord(","), ord(","))
        and all_in(ends[:, :-1], ord("\r"), ord("\r"))
        and all_in(ends[:, -1], ord("\n"), ord("\n"))
    ):
        return None
    return labels


def legacy_read_generic_csv(path):
    cells = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "y", "prob"]:
            raise ValidationError(f"{path}: expected header x,y,prob")
        for line in reader:
            if not line:
                continue
            if len(line) != 3:
                raise ValidationError(f"{path}: row has {len(line)} fields, expected 3")
            x = _legacy_label(line[0], "x")
            y = _legacy_label(line[1], "y")
            if x < 0 or y < 0:
                raise ValidationError(f"{path}: labels must be non-negative")
            if (x, y) in cells:
                raise ValidationError(f"{path}: cell ({x}, {y}) specified twice")
            cells[(x, y)] = _legacy_prob(line[2])
    if not cells:
        raise ValidationError(f"{path}: no data rows")
    prob = np.zeros((1 + max(x for x, _ in cells), 1 + max(y for _, y in cells)))
    for (x, y), v in cells.items():
        prob[x, y] = v
    return mx.GenericJoint(prob)


# ---------------------------------------------------------------------------
# item-by-item canonical JSON: the recursive renderer the one-pass float
# route replaced, kept as its parity oracle
# ---------------------------------------------------------------------------


def _legacy_render(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            out.append("null")
        elif np.isinf(x):
            raise ValidationError("cannot serialize infinity")
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for idx, key in enumerate(sorted(obj)):
            if idx:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _legacy_render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for idx, item in enumerate(obj):
            if idx:
                out.append(",")
            _legacy_render(item, out)
        out.append("]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")


def legacy_dumps_canonical(obj):
    out = []
    _legacy_render(obj, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# the state order decoded by hand: the mixed-radix loops and the encode
# round trip that ``AlphabetSpec.shape`` replaced, kept as their oracles
# ---------------------------------------------------------------------------


def _legacy_decode(idx, spec):
    return [(idx // spec.m**i) % spec.m for i in range(spec.p)]


def legacy_states(spec):
    """All state label tuples, one mixed-radix digit per column."""
    return np.stack(_legacy_decode(np.arange(spec.n_states), spec), axis=1)


def legacy_sample_rows(joint, n, seed):
    """The rows of ``sample_dataset``: the same draws, decoded digit by digit."""
    rng = np.random.default_rng(seed)
    flat = joint.prob.reshape(-1)
    draws = rng.choice(flat.size, size=n, p=flat / flat.sum())
    return np.stack(_legacy_decode(draws // 2, joint.spec) + [draws % 2], axis=1)


def legacy_permute_prob(joint, feature, perm):
    """The table of ``permute_labels``: relabel the state tuples, encode
    them again and scatter each row of the table to its new state."""
    spec = joint.spec
    states = legacy_states(spec)
    states[:, feature] = np.asarray(perm)[states[:, feature]]
    prob = np.zeros_like(joint.prob)
    prob[states @ spec.m ** np.arange(spec.p)] = joint.prob
    return prob
