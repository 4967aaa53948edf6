"""File formats: joint/dataset CSV, marginals JSON, moments JSON.

Joint CSV      header ``x1,...,xp,y,prob``; integer labels, decimal
               probabilities, rows in any order, missing cells are zero.
Dataset CSV    header ``x1,...,xp,y``; one sample per row.
Generic CSV    header ``x,y,prob`` for an unstructured two-alphabet joint.
Marginals JSON object with ``p``, ``m``, ``xx`` (map "i,j" -> m*m row-major,
               1-based i < j) and ``xy`` (map "i" -> m*2 row-major).
Moments JSON   object with ``mu`` (length p+1, Y last) and ``lambda``
               ((p+1)^2 row-major).

Every file is read as UTF-8 text; other bytes are an input error naming
the file.

CSV number syntax: fields are comma-separated, may be wrapped in double
quotes and may carry spaces around them; empty lines are skipped.  Labels
are decimal integers with an optional sign (``7``, ``+7``, ``-1``) that fit
in 64 bits; ``1.5``, ``1e3`` and ``1_000`` are rejected.  Probabilities are
decimal or exponent floats (``0.25``, ``.25``, ``2.5e-1``, ``nan``,
``inf``); hex floats and digit separators are rejected.  Every data row
must have as many fields as the header.

How a dataset body is parsed does not change what it may contain.  Both
dataset readers read the file in blocks of whole rows through one byte view
while its body is single-digit fields, separated by ``,``, every row ending
in the same ``\\n`` or ``\\r\\n`` (the last one optional); this is what
``write_dataset_csv`` writes whenever every label has one digit.  A file the
byte view refuses, the bytes read so far and the rest, goes through
``np.loadtxt``, the text route that joint and generic CSVs always take.

Alphabet sizes are inferred from the data (max label + 1, at least 2).
``dumps_canonical`` renders JSON deterministically with
17-significant-digit floats for byte-stable reports.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import warnings

import numpy as np

from . import distributions
from .distributions import (
    ATOM_CAP,
    AlphabetSpec,
    Dataset,
    DiscreteJoint,
    PairwiseCounts,
    PairwiseMarginalSet,
    joint_from_arrays,
    pairwise_from_dataset,
    q_from_upper,
)
from .errors import AtomCapExceeded, ValidationError
from .gaussian import GaussianMoments
from .hgr import GenericJoint


@contextlib.contextmanager
def _decoding(path):
    """Raise bytes of ``path`` that are not UTF-8, met inside the block, as a
    :class:`ValidationError` naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_header(fh, path, header_ok, expected: str) -> list:
    """The stripped header fields of text file ``fh``, checked by
    ``header_ok(fields)``."""
    line = fh.readline()
    if not line:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in next(csv.reader([line]), [])]
    if not header_ok(header):
        raise ValidationError(f"{path}: expected header {expected}")
    return header


def _loadtxt_body(fh, path, header: list):
    """Parse the CSV body left in text file ``fh`` in one numpy call: (int64
    label block, float64 probability column or None).

    When the last header field is ``prob`` that column is read as floats
    and every other column as labels.
    """
    with_prob = header[-1] == "prob"
    dtype = [("labels", np.int64, (len(header) - with_prob,))]
    if with_prob:
        dtype.append(("prob", np.float64))
    with warnings.catch_warnings():
        # A header-only file is reported below as a ValidationError.
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        try:
            cells = np.loadtxt(
                fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1
            )
        except UnicodeDecodeError:
            raise  # for the caller's _decoding
        except ValueError as exc:
            reason = str(exc).split("; use `usecols`")[0]
            raise ValidationError(f"{path}: {reason}") from exc
    if cells.size == 0:
        raise ValidationError(f"{path}: no data rows")
    return cells["labels"], cells["prob"] if with_prob else None


def _read_csv(path, header_ok, expected: str, raw=None):
    """Header and body of CSV file ``path``, or of its bytes ``raw`` when
    given, streamed as text through :func:`_loadtxt_body`."""
    fh = open(path, encoding="utf-8") if raw is None else io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    with fh, _decoding(path):
        return _loadtxt_body(fh, path, _read_header(fh, path, header_ok, expected))


def _parse_fixed_width(body, ncols: int) -> np.ndarray | None:
    """The (rows, ncols) uint8 labels of a dataset body of single-digit
    fields, or None for any other body.

    Accepted: every field is one decimal digit, fields are separated by
    ``,`` and every row ends in the same ``\\n`` or ``\\r\\n``; the last row
    may lack it.  The body is viewed in place as (rows, 2 ncols) bytes and
    every digit, separator and terminator byte is checked.  Anything else,
    blank lines, spaces, quotes, signs and wider fields included, is left to
    the text route.
    """
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
    if not (
        labels.max() <= 9  # a byte below "0" wraps past 9 in uint8
        and _all_in(commas, ord(","), ord(","))
        and _all_in(ends[:, :-1], ord("\r"), ord("\r"))
        and _all_in(ends[:, -1], ord("\n"), ord("\n"))
    ):
        return None
    return labels


def _all_in(view: np.ndarray, lo: int, hi: int) -> bool:
    return view.size == 0 or (lo <= view.min() and view.max() <= hi)


def read_joint_csv(path) -> DiscreteJoint:
    """Load a joint table; infers p from the header and m from the labels."""
    labels, prob = _read_csv(
        path,
        lambda h: len(h) >= 3 and h[-1] == "prob" and h[-2] == "y",
        "x1,...,xp,y,prob",
    )
    p = labels.shape[1] - 1
    x = labels[:, :p]
    m = max(2, 1 + int(x.max()))
    return joint_from_arrays(AlphabetSpec(p, m), x, labels[:, p], prob)


def write_joint_csv(joint: DiscreteJoint, path):
    """Write every atom (including zeros) in state-index order.

    Lines end in CRLF and probabilities carry 17 significant digits.
    """
    spec = joint.spec
    # Label prefixes of every state in index order, x_1 varying fastest.
    labels = [str(k) for k in range(spec.m)]
    for _ in range(spec.p - 1):
        labels = [f"{prefix},{k}" for k in range(spec.m) for prefix in labels]
    values = [format(v, ".17g") for v in joint.prob.ravel().tolist()]
    header = ",".join([f"x{i + 1}" for i in range(spec.p)] + ["y", "prob"])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.write(
            "".join(
                f"{x},0,{v0}\r\n{x},1,{v1}\r\n"
                for x, v0, v1 in zip(labels, values[0::2], values[1::2])
            )
        )


def read_dataset_csv(path) -> Dataset:
    """Load samples; infers p from the header and m from the labels.  The file
    is read once: a refused one goes to the text route as bytes in memory."""
    raw = []
    with open(path, "rb") as fh:
        blocks = list(_byte_view_blocks(fh, raw.append))
        raw = None if blocks[-1] is not None else b"".join([*raw, fh.read()])
    rows = None if raw is not None else np.concatenate(blocks)
    del blocks  # before the text route, or the rows' copy into the Dataset
    if rows is None:  # the bytes go before the rows' copy
        rows, raw = _read_csv(path, *_DATASET_HEADER, raw)[0], None
    p = rows.shape[1] - 1
    return Dataset(AlphabetSpec(p, max(2, 1 + int(rows[:, :p].max()))), rows)


def read_dataset_marginals(path) -> tuple:
    """(empirical pairwise marginals, input digest) of a dataset CSV: the
    bits of ``pairwise_from_dataset(read_dataset_csv(path))`` and of
    :func:`_digest_file`, with the same errors.

    The blocks of :func:`_byte_view_blocks` are hashed and counted into one
    :class:`PairwiseCounts` as they arrive, so memory does not grow with the
    number of rows.  Where the byte view refuses the file, or a ``y`` outside
    {0, 1} or a ``Q`` over its cap turns up, the counts are dropped:
    :func:`read_dataset_csv` reads the file to the result or the error, and
    :func:`_digest_file` hashes it.
    """
    sha, counts = hashlib.sha256(), None
    # A ValidationError here is the cap on Q, reported below with the file's own m.
    with contextlib.suppress(ValidationError), open(path, "rb") as fh:
        for labels in _byte_view_blocks(fh, sha.update):
            if labels is None or labels[:, -1].max() > 1:
                break
            if counts is None:
                counts = PairwiseCounts(AlphabetSpec(labels.shape[1] - 1, 2))
            counts.widen(max(2, 1 + int(labels[:, :-1].max())))
            counts.add(labels[:, :-1], labels[:, -1])
        else:
            return counts.marginals(), "sha256:" + sha.hexdigest()
    return pairwise_from_dataset(read_dataset_csv(path)), _digest_file(path)


def _digest_file(path) -> str:
    """``sha256:`` and the hex SHA-256 of the bytes of file ``path``, read
    in blocks of 1 MiB."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(2**20), b""):
            sha.update(block)
    return "sha256:" + sha.hexdigest()


#: The header check of a dataset CSV and the header it expects.
_DATASET_HEADER = (lambda h: len(h) >= 2 and h[-1] == "y", "x1,...,xp,y")


def _byte_view_blocks(fh, seen):
    """The uint8 labels of the dataset CSV open in binary ``fh``, a block of
    whole rows (about ``GRAM_CHUNK`` bytes) at a time, while the file stays
    in the byte view of :func:`_parse_fixed_width`; then None, where it
    leaves it.  ``seen`` is given the header and each block as read."""
    head, first = fh.readline(), b""
    seen(head)
    # The header must end where a text-mode read ends it, in \n or \r\n.
    with contextlib.suppress(UnicodeDecodeError, ValidationError):
        if head.endswith(b"\n") and b"\r" not in head[:-2]:
            ncols = len(_read_header(io.StringIO(head.decode("utf-8")), None, *_DATASET_HEADER))
            first = fh.readline()
    if not first:
        yield None
        return
    # Every row is as long as the first, and `probe` is the byte that
    # tells its \n from \r\n, so it must read alike in every block.
    size = max(1, distributions.GRAM_CHUNK // len(first)) * len(first)
    probe = slice(2 * ncols - 1, 2 * ncols)
    block = first + fh.read(size - len(first))
    while block:
        seen(block)
        labels = _parse_fixed_width(block, ncols)
        if labels is None or block[probe] not in (b"", first[probe]):
            yield None
            return
        yield labels
        block = fh.read(size)


def write_dataset_csv(data: Dataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(data.spec.p)] + ["y"])
        writer.writerows(data.rows.tolist())


def read_generic_csv(path) -> GenericJoint:
    """Unstructured two-alphabet joint from ``x,y,prob`` rows."""
    labels, prob = _read_csv(path, lambda h: h == ["x", "y", "prob"], "x,y,prob")
    if labels.min() < 0:
        raise ValidationError(f"{path}: labels must be non-negative")
    nx, ny = (int(v) + 1 for v in labels.max(axis=0))
    # Checked before any allocation; under the cap the flat cell index cannot overflow.
    if nx * ny > ATOM_CAP:
        raise AtomCapExceeded(f"{path}: a {nx} x {ny} table exceeds the dense cap {ATOM_CAP}")
    table = np.zeros(nx * ny)
    cell = labels[:, 0] * ny + labels[:, 1]
    counts = np.bincount(cell, minlength=nx * ny)
    if counts.max() > 1:
        dup = int(np.argmax(counts > 1))
        raise ValidationError(f"{path}: cell ({dup // ny}, {dup % ny}) specified twice")
    table[cell] = prob
    return GenericJoint(table.reshape(nx, ny))


def marginals_to_json_obj(marginals: PairwiseMarginalSet) -> dict:
    spec = marginals.spec
    xx = {f"{i + 1},{j + 1}": t.reshape(-1).tolist() for (i, j), t in marginals.xx.items() if i < j}
    xy = {str(i + 1): t.reshape(-1).tolist() for i, t in enumerate(marginals.xy)}
    return {"p": spec.p, "m": spec.m, "xx": xx, "xy": xy}


def marginals_from_json_obj(obj: dict) -> PairwiseMarginalSet:
    try:
        p, m = obj["p"], obj["m"]
        xy_raw = obj["xy"]
        xx_raw = obj.get("xx", {})
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed marginals object: {exc}") from exc
    spec = AlphabetSpec(p, m)  # refuses a float, string or bool p or m
    xy = np.array([_json_table(xy_raw, "xy", "feature", str(i + 1), m, 2) for i in range(p)])
    spec.require_q()
    pairs = itertools.combinations(range(p), 2)
    upper = [_json_table(xx_raw, "xx", "pair", f"{i + 1},{j + 1}", m, m) for i, j in pairs]
    return PairwiseMarginalSet.from_q(spec, q_from_upper(spec, upper, xy.sum(axis=2)), xy)


def _json_table(raw: dict, name: str, what: str, key: str, rows: int, cols: int) -> np.ndarray:
    if not isinstance(raw, dict):
        raise ValidationError(f"marginals {name} must be an object")
    if key not in raw:
        raise ValidationError(f"marginals missing {name} table for {what} {key}")
    try:
        tab = np.asarray(raw[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}[{key}] must be a flat list of numbers") from exc
    if tab.size != rows * cols:
        raise ValidationError(f"{name}[{key}] must have {rows * cols} entries")
    return tab.reshape(rows, cols)


def _read_json(path):
    """The JSON value held in file ``path``."""
    with open(path, encoding="utf-8") as fh, _decoding(path):
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


def read_marginals_json(path) -> PairwiseMarginalSet:
    obj = _read_json(path)
    try:
        return marginals_from_json_obj(obj)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_marginals_json(marginals: PairwiseMarginalSet, path):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(marginals_to_json_obj(marginals)))
        fh.write("\n")


def read_moments_json(path) -> GaussianMoments:
    obj = _read_json(path)
    try:
        mu = np.asarray(obj["mu"], dtype=float)
        lam = np.asarray(obj["lambda"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed moments object: {exc}") from exc
    if mu.ndim == 1 and lam.size == mu.size**2:
        lam = lam.reshape(mu.size, mu.size)
    try:
        # GaussianMoments checks mu's shape before lambda's.
        return GaussianMoments(mu, lam)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


#: Item types of a sequence that renders in one pass.
_FLAT = {float, type(None)}


def _render_flat(items) -> str:
    """Items of Python floats and ``None`` in one join.  Same bytes as the
    item-by-item route: ``.17g`` never yields ``nan`` or ``inf`` inside a
    finite number, so both can be found in the joined text."""
    text = ",".join(["null" if v is None else format(v, ".17g") for v in items])
    if "inf" in text:
        raise ValidationError("cannot serialize infinity")
    return text.replace("nan", "null")


def _render(obj, out: list):
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
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 0:
        _render(obj[()], out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if isinstance(items, (list, tuple)) and set(map(type, items)) <= _FLAT:
            out.append("[" + _render_flat(items) + "]")
            return
        out.append("[")
        for idx, item in enumerate(obj):
            if idx:
                out.append(",")
            _render(item, out)
        out.append("]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out: list = []
    _render(obj, out)
    return "".join(out)
