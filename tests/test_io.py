import argparse
import hashlib
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import maxcorr as mx
import maxcorr.cli
import maxcorr.distributions as distributions
import maxcorr.io as mio
from maxcorr.distributions import ATOM_CAP
from maxcorr.errors import (
    AtomCapExceeded,
    DuplicateEntry,
    InconsistentMoments,
    LabelOutOfRange,
    NegativeProbability,
    NotNormalized,
    ValidationError,
)
from maxcorr.io import (
    dumps_canonical,
    marginals_from_json_obj,
    marginals_to_json_obj,
    read_dataset_csv,
    read_generic_csv,
    read_joint_csv,
    read_marginals_json,
    read_moments_json,
    write_dataset_csv,
    write_joint_csv,
    write_marginals_json,
)

from conftest import (
    legacy_dumps_canonical,
    legacy_pairwise_by_pair,
    legacy_read_dataset_csv,
    legacy_read_generic_csv,
    legacy_read_joint_csv,
    legacy_write_joint_csv,
)


class TestJointCsv:
    def test_round_trip(self, tmp_path):
        joint = mx.nonadditive_fixture()
        path = tmp_path / "joint.csv"
        write_joint_csv(joint, path)
        loaded = read_joint_csv(path)
        assert loaded.spec == joint.spec
        assert_allclose(loaded.prob, joint.prob, atol=0)

    def test_rows_in_any_order_and_missing_atoms(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("x1,y,prob\n1,1,0.5\n0,0,0.5\n")
        loaded = read_joint_csv(path)
        assert_allclose(loaded.prob, mx.copy_fixture().prob, atol=0)

    def test_alphabet_inferred_from_labels(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("x1,x2,y,prob\n2,0,0,0.5\n0,1,1,0.5\n")
        loaded = read_joint_csv(path)
        assert loaded.spec.m == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("a,b,c\n0,0,1\n")
        with pytest.raises(ValidationError):
            read_joint_csv(path)

    def test_unnormalized_rejected(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("x1,y,prob\n0,0,0.5\n1,1,0.4\n")
        with pytest.raises(NotNormalized):
            read_joint_csv(path)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = mx.sample_dataset(mx.nonadditive_fixture(), n=37, seed=0)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        loaded = read_dataset_csv(path)
        assert loaded.rows.dtype == np.int64  # the byte view's uint8 rows are not exposed
        assert np.array_equal(loaded.rows, data.rows)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,y\n0,7\n")
        with pytest.raises(ValidationError):
            read_dataset_csv(path)

    def test_byte_view_peaks_no_higher_than_loadtxt(self, tmp_path, monkeypatch):
        """50,000 x 25 single-digit fields.  The whole read peaks no higher on
        the byte view than on ``np.loadtxt``, and the block reader holds
        little beyond the rows' labels: no copy of the body, which is twice
        their size."""
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.integers(0, 10, (50_000, 24)), rng.integers(0, 2, 50_000)])
        path = tmp_path / "data.csv"
        write_dataset_csv(mx.Dataset(mx.AlphabetSpec(24, 10), rows), path)

        def peak(read):
            tracemalloc.start()
            try:
                result = read(path)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        with open(path, "rb") as fh:
            reader, blocks = peak(lambda path: list(mio._byte_view_blocks(fh, lambda raw: None)))
        assert np.array_equal(np.concatenate(blocks), rows)
        assert reader < rows.size + 3 * distributions.GRAM_CHUNK  # a block's bytes, read and joined
        byte_view, _ = peak(read_dataset_csv)
        monkeypatch.setattr(mio, "_parse_fixed_width", lambda body, ncols: None)
        loadtxt, _ = peak(read_dataset_csv)
        assert byte_view <= loadtxt

    def test_zero_padded_labels_read_as_the_written_rows(self, tmp_path):
        """Labels and y written as two digits take the text route to the
        rows that ``write_dataset_csv`` writes as one digit each."""
        data = mx.sample_dataset(mx.nonadditive_fixture(), n=37, seed=0)
        written, padded = tmp_path / "written.csv", tmp_path / "padded.csv"
        write_dataset_csv(data, written)
        lines = written.read_text().splitlines()
        body = [",".join(f.zfill(2) for f in line.split(",")) for line in lines[1:]]
        padded.write_text("\n".join([lines[0], *body]) + "\n")
        ncols = data.spec.p + 1
        assert mio._parse_fixed_width(padded.read_bytes().split(b"\n", 1)[1], ncols) is None
        assert np.array_equal(read_dataset_csv(padded).rows, read_dataset_csv(written).rows)


class TestGenericCsv:
    def test_reads_cells(self, tmp_path):
        path = tmp_path / "generic.csv"
        path.write_text("x,y,prob\n0,0,0.25\n0,1,0.25\n1,0,0.25\n2,1,0.25\n")
        joint = read_generic_csv(path)
        assert joint.nx == 3 and joint.ny == 2
        assert joint.prob[2, 1] == 0.25
        assert joint.prob[1, 1] == 0.0

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "generic.csv"
        path.write_text("x,y,prob\n0,0,0.5\n0,0,0.5\n")
        with pytest.raises(ValidationError):
            read_generic_csv(path)

    def test_dense_cap_boundary(self, tmp_path):
        """A 2048 x 2048 table (ATOM_CAP cells) is read; a 2049 x 2048 one is
        refused before it is allocated."""
        path = tmp_path / "generic.csv"
        path.write_text("x,y,prob\n0,0,0.5\n2047,2047,0.5\n")
        joint = read_generic_csv(path)
        assert joint.prob.shape == (2048, 2048) and joint.prob.size == ATOM_CAP
        assert joint.prob[2047, 2047] == 0.5
        path.write_text("x,y,prob\n0,0,0.5\n2048,2047,0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(AtomCapExceeded, match="2049 x 2048"):
                read_generic_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMarginalsJson:
    def test_round_trip(self, tmp_path):
        marginals = mx.pairwise_from_joint(mx.random_joint(mx.AlphabetSpec(3, 2), seed=9))
        path = tmp_path / "marginals.json"
        write_marginals_json(marginals, path)
        loaded = read_marginals_json(path)
        assert loaded.spec == marginals.spec
        assert np.array_equal(loaded.xy, marginals.xy)
        # the file holds no px: the reader takes the row sums of xy
        want = mx.PairwiseMarginalSet(
            marginals.spec, dict(marginals.xx), marginals.xy, marginals.xy.sum(axis=2)
        )
        assert np.array_equal(loaded.q, want.q)
        assert mx.validate_marginals(loaded).ok

    def test_one_feature_over_many_labels_is_refused_before_q(self, tmp_path):
        m = 10_000  # Q would hold 10^8 entries, 800 MB
        path = tmp_path / "marginals.json"
        path.write_text(json.dumps({"p": 1, "m": m, "xy": {"1": [0.5 / m] * (2 * m)}, "xx": {}}))
        tracemalloc.start()
        try:
            with pytest.raises(AtomCapExceeded, match="exceeds the cap"):
                read_marginals_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_keys_are_one_based_upper_triangle(self):
        marginals = mx.pairwise_from_joint(mx.random_joint(mx.AlphabetSpec(3, 2), seed=1))
        obj = marginals_to_json_obj(marginals)
        assert set(obj["xx"]) == {"1,2", "1,3", "2,3"}
        assert set(obj["xy"]) == {"1", "2", "3"}
        tab = np.asarray(obj["xx"]["1,2"]).reshape(2, 2)
        assert_allclose(tab, marginals.xx[(0, 1)], atol=0)

    def test_missing_table_rejected(self):
        marginals = mx.pairwise_from_joint(mx.random_joint(mx.AlphabetSpec(2, 2), seed=2))
        obj = marginals_to_json_obj(marginals)
        del obj["xx"]["1,2"]
        with pytest.raises(ValidationError):
            marginals_from_json_obj(obj)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "marginals.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            read_marginals_json(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("xy", {"1": ["a", 0.25, 0.25, 0.25], "2": [0.25] * 4}),
            ("xy", {"1": [[0.25, 0.25], [0.25]], "2": [0.25] * 4}),
            ("xy", {"1": {"a": 1}, "2": [0.25] * 4}),
            ("xy", "x1"),
            ("xx", "1,2"),
            ("xx", {"1,2": [0.25, None, "b", 0.25]}),
            ("p", 1e999),
            ("p", 2.7),
            ("p", "2"),
            ("p", True),
            ("m", 2.9),
        ],
        ids=[
            "non-number", "ragged", "object entry", "xy string", "xx string", "xx mixed",
            "p inf", "p fractional", "p string", "p bool", "m fractional",
        ],  # fmt: skip
    )
    def test_malformed_tables_are_validation_errors_naming_the_file(self, tmp_path, key, value):
        obj = marginals_to_json_obj(mx.pairwise_from_joint(mx.nonadditive_fixture()))
        obj[key] = value
        path = tmp_path / "marginals.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
            read_marginals_json(path)


class TestMomentsJson:
    def test_reads_mu_and_lambda(self, tmp_path):
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"mu": [0, 0], "lambda": [1, 0.5, 0.5, 1]}))
        moments = read_moments_json(path)
        assert moments.p == 1
        assert moments.sigma[0, 1] == 0.5

    def test_wrong_lambda_size_rejected(self, tmp_path):
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"mu": [0, 0], "lambda": [1, 0, 0]}))
        with pytest.raises(ValidationError):
            read_moments_json(path)

    def test_scalar_mu_rejected(self, tmp_path):
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"mu": 5, "lambda": [1]}))
        with pytest.raises(ValidationError, match="mu must be a vector"):
            read_moments_json(path)

    @pytest.mark.parametrize(
        "obj, reason",
        [
            ({"mu": [[0, 0], [0, 0]], "lambda": [1, 0.5, 0.5, 1]}, "mu must be a vector"),
            ({"mu": [[0, 0], [0, 0]], "lambda": [0] * 16}, "mu must be a vector"),
            ({"lambda": [1, 0, 0, 1]}, "malformed moments object"),
            ({"mu": [0, 0], "lambda": [1, 0, 0]}, "lambda must be 2x2"),
            ({"mu": [0, 0], "lambda": [1, 0.5, 0.4, 1]}, "not symmetric"),
            ({"mu": [0, float("nan")], "lambda": [1, 0, 0, 1]}, "non-finite"),
        ],
        ids=["2-D mu", "2-D mu, 16 entries", "no mu", "short lambda", "asymmetric", "nan"],
    )
    def test_validation_errors_name_the_file(self, tmp_path, obj, reason):
        path = tmp_path / "moments.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: .*{reason}"):
            read_moments_json(path)

    def test_unrealizable_moments_stay_a_domain_error(self, tmp_path):
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"mu": [0, 0], "lambda": [1, 2, 2, 1]}))
        with pytest.raises(InconsistentMoments, match="^covariance has eigenvalue"):
            read_moments_json(path)


def _joint_text(header):
    """A valid joint or generic CSV of 2001 rows: longer than the 8192 bytes
    a text read decodes first, so that a bad last byte reaches the body's parse."""
    return header + "".join(f"{k},0,0\n" for k in range(2000)) + "1,1,1\n"


#: kind -> (reader, text of a valid file)
NOT_UTF8 = {
    "joint": (read_joint_csv, _joint_text("x1,y,prob\n")),
    "dataset": (read_dataset_csv, "x1,y\n" + "0,0\n" * 4000 + "10,1\n"),  # loadtxt route
    "generic": (read_generic_csv, _joint_text("x,y,prob\n")),
    "marginals": (
        read_marginals_json,
        json.dumps(marginals_to_json_obj(mx.pairwise_from_joint(mx.nonadditive_fixture()))),
    ),
    "moments": (read_moments_json, json.dumps({"mu": [0, 0], "lambda": [1, 0.5, 0.5, 1]})),
}


class TestNotUtf8:
    """Bytes that are not UTF-8 are a ValidationError naming the file, in
    every reader, wherever in the file they are."""

    @pytest.mark.parametrize("where", ["first byte", "last byte"])
    @pytest.mark.parametrize("kind", sorted(NOT_UTF8))
    def test_raises_a_validation_error_naming_the_file(self, tmp_path, kind, where):
        read, text = NOT_UTF8[kind]
        raw = text.encode()
        raw = b"\xff" + raw if where == "first byte" else raw[:-2] + b"\xe9" + raw[-1:]
        path = tmp_path / "input"
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read(path)


class TestCanonicalJson:
    def test_sorted_keys_and_17_digit_floats(self):
        text = dumps_canonical({"b": 0.6, "a": [1, 2.0, None, True]})
        assert text == '{"a":[1,2,null,true],"b":0.59999999999999998}'

    def test_nan_becomes_null(self):
        assert dumps_canonical([float("nan")]) == "[null]"

    def test_round_trips_through_json_loads(self):
        value = {"x": [0.1, 1e-300, 123456789.123456789], "y": "s"}
        text = dumps_canonical(value)
        parsed = json.loads(text)
        assert parsed["x"] == value["x"]

    def test_deterministic(self):
        obj = {"z": np.array([0.3, 0.7]), "a": {"nested": 1.5}}
        assert dumps_canonical(obj) == dumps_canonical(obj)

    def test_rejects_infinity(self):
        with pytest.raises(ValidationError):
            dumps_canonical([float("inf")])

    @pytest.mark.parametrize(
        "value,text",
        [(np.array(0.5), "0.5"), (np.array(np.nan), "null"), (np.array(3), "3"), (np.float32(0.25), "0.25")],
    )
    def test_zero_d_arrays_render_as_their_scalar(self, value, text):
        a = np.asarray(value)
        assert a.ndim == 0
        assert dumps_canonical(a) == dumps_canonical(a[()]) == text
        assert dumps_canonical({"k": [a, a]}) == f'{{"k":[{text},{text}]}}'

    def test_zero_d_bool_and_infinity_raise(self):
        with pytest.raises(ValidationError, match="cannot serialize bool"):
            dumps_canonical(np.array(True))
        with pytest.raises(ValidationError, match="cannot serialize infinity"):
            dumps_canonical(np.array(np.inf))

    @pytest.mark.parametrize("inf", [float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda v: [0.5, v, None],
            lambda v: (v,),
            lambda v: np.array([[0.25, np.nan], [v, 1.0]]),
            lambda v: {"a": [1, "s", v]},
            lambda v: np.float64(v),
        ],
    )
    def test_infinity_raises_on_both_routes(self, inf, wrap):
        for dumps in (dumps_canonical, legacy_dumps_canonical):
            with pytest.raises(ValidationError, match="cannot serialize infinity"):
                dumps(wrap(inf))


# ---------------------------------------------------------------------------
# parity of the one-pass float renderer with the item-by-item route
# ---------------------------------------------------------------------------

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e-300, 1e300, 0.1, 1 / 3, 123456789.123456789,
    float("nan"), float("inf"), float("-inf"),
]  # fmt: skip
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
scalars = st.one_of(
    floats,
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=floats),
    hnp.arrays(np.float32, shapes, elements=st.floats(width=32)),
    hnp.arrays(np.int64, shapes),
    hnp.arrays(np.bool_, shapes),
)
flat = st.lists(st.one_of(floats, st.none()), max_size=8)
documents = st.recursive(
    st.one_of(scalars, flat, flat.map(tuple), arrays),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=24,
)


def rendered(dumps, obj):
    try:
        return dumps(obj)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(documents)
def test_dumps_canonical_matches_item_by_item_route(obj):
    assert rendered(dumps_canonical, obj) == rendered(legacy_dumps_canonical, obj)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, st.integers(0, 12), elements=floats))
def test_arrays_render_as_the_list_reports_once_built(a):
    """Reports hand their float64 arrays to ``dumps_canonical`` as they are.
    The bytes are those of the list the CLI once built from each, NaN as
    None; infinity raises on both."""
    old = [None if np.isnan(v) else float(v) for v in a]
    if np.isinf(a).any():
        for obj in (a, old):
            with pytest.raises(ValidationError, match="cannot serialize infinity"):
                dumps_canonical(obj)
    else:
        assert dumps_canonical(a) == dumps_canonical(old)


# ---------------------------------------------------------------------------
# parity of the numpy parsers and writer with the csv-module route
# ---------------------------------------------------------------------------


def render(header, rows, rng, spaces, blank_lines, crlf):
    """CSV text with optional spaces around fields, empty lines and CRLF."""
    pad = (lambda f: f" {f} ") if spaces else str
    lines = [",".join(header)] + [",".join(pad(f) for f in row) for row in rows]
    if blank_lines:
        for _ in range(int(rng.integers(1, 4))):
            lines.insert(int(rng.integers(1, len(lines) + 1)), "")
    end = "\r\n" if crlf else "\n"
    return end.join(lines) + end


def parity(examples):
    """Derandomized examples; each one rewrites the same file, so sharing
    ``tmp_path`` between them is safe."""
    return settings(
        max_examples=examples,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


layout = dict(spaces=st.booleans(), blank_lines=st.booleans(), crlf=st.booleans())
FLOAT_FORMATS = (repr, lambda v: format(v, ".17g"), lambda v: format(v, ".12e"))


@parity(80)
@given(p=st.integers(1, 4), m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), **layout)
def test_joint_reader_matches_csv_route(tmp_path, p, m, seed, spaces, blank_lines, crlf):
    rng = np.random.default_rng(seed)
    spec = mx.AlphabetSpec(p, m)
    n_cells = int(rng.integers(1, spec.n_atoms + 1))  # one row up to every atom
    cells = rng.choice(spec.n_atoms, size=n_cells, replace=False)  # shuffled, some missing
    values = rng.dirichlet(np.ones(n_cells)).tolist()
    fmt = FLOAT_FORMATS[int(rng.integers(len(FLOAT_FORMATS)))]
    rows = [
        [*map(str, spec.decode(int(c) // 2)), str(int(c) % 2), fmt(v)] for c, v in zip(cells, values)
    ]
    header = [f"x{i + 1}" for i in range(p)] + ["y", "prob"]
    path = tmp_path / "joint.csv"
    path.write_text(render(header, rows, rng, spaces, blank_lines, crlf))
    got, want = read_joint_csv(path), legacy_read_joint_csv(path)
    assert got.spec == want.spec
    assert np.array_equal(got.prob, want.prob)


@parity(60)
@given(p=st.integers(1, 5), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), **layout)
def test_dataset_reader_matches_csv_route(tmp_path, p, n, seed, spaces, blank_lines, crlf):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    rows = np.column_stack([rng.integers(0, m, size=(n, p)), rng.integers(0, 2, size=n)])
    header = [f"x{i + 1}" for i in range(p)] + ["y"]
    path = tmp_path / "data.csv"
    path.write_text(render(header, rows.astype(str).tolist(), rng, spaces, blank_lines, crlf))
    got, want = read_dataset_csv(path), legacy_read_dataset_csv(path)
    assert got.spec == want.spec
    assert got.rows.dtype == want.rows.dtype
    assert np.array_equal(got.rows, want.rows)


def loadtxt_rows(path):
    """The label rows of a dataset CSV by the ``np.loadtxt`` route alone,
    with the file streamed as text."""
    with open(path) as fh:
        header = mio._read_header(fh, path, lambda h: len(h) >= 2 and h[-1] == "y", "x1,...,xp,y")
        return mio._loadtxt_body(fh, path, header)[0]


def outcome(read, path):
    try:
        return read(path)
    except ValidationError as exc:
        return exc


def assert_same_outcome(path, byte_view=False):
    """:func:`read_dataset_csv` and the ``np.loadtxt`` route read ``path``
    to equal rows, or raise the same class with the same message.  The rows
    handed to the Dataset are uint8 where the byte view takes the body, and
    the text route is taken exactly where it does not."""
    with (
        mock.patch.object(mio, "Dataset", lambda spec, rows: rows),
        mock.patch.object(mio, "_read_csv", wraps=mio._read_csv) as text_route,
    ):
        got = outcome(read_dataset_csv, path)
    want = outcome(loadtxt_rows, path)
    assert text_route.called != byte_view
    if isinstance(want, ValidationError):
        assert type(got) is type(want)
        assert str(got) == str(want)
    else:
        assert want.dtype == np.int64
        assert got.dtype == (np.uint8 if byte_view else np.int64)
        assert np.array_equal(got, want)


#: Bodies that the byte view must leave to ``np.loadtxt``.
NEAR_MISSES = [
    "mixed widths",
    "shifted comma",
    "other separator",
    "blank line",
    "blank line at the end",
    "space",
    "quoted field",
    "plus sign",
    "minus sign",
    "19 digits",
    "non-digit",
    "CR line ends",
    "other line end",
    "ragged row",
]


@st.composite
def dataset_files(draw):
    """(text of a dataset CSV, its header fields, its body, field width,
    near miss or None).  With no near miss every field has the same width
    and every row the same line end, the last one optional."""
    ncols, n, width = draw(st.integers(2, 5)), draw(st.integers(1, 12)), draw(st.integers(1, 3))
    values = st.integers(0, 10**width - 1)
    rows = [[str(draw(values)).zfill(width) for _ in range(ncols)] for _ in range(n)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.booleans())
    miss = draw(st.sampled_from([None, *NEAR_MISSES]))
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, ncols - 1))
    if miss == "mixed widths":
        rows[r][c] = "0" + rows[r][c]
    elif miss == "space":
        rows[r][c] = draw(st.sampled_from([" ", "\t"])) + rows[r][c]
    elif miss == "quoted field":
        rows[r][c] = f'"{rows[r][c]}"'
    elif miss == "plus sign":
        rows[r][c] = "+" + rows[r][c]
    elif miss == "minus sign":
        rows[r][c] = "-" + rows[r][c]
    elif miss == "19 digits":
        rows[r][c] = str(draw(st.integers(10**18, 10**19 - 1)))
    elif miss == "non-digit":  # same width: "07" becomes " 7" or "a7"
        rows[r][c] = draw(st.sampled_from(" a.+-")) + rows[r][c][1:]
    elif miss == "ragged row":
        del rows[r][c]
    elif miss == "CR line ends":
        end = "\r"
    lines = [",".join(row) for row in rows]
    if miss == "shifted comma":  # same row length: "00,11" becomes "001,1"
        k = lines[r].index(",")
        lines[r] = lines[r][:k] + lines[r][k + 1] + "," + lines[r][k + 2 :]
    elif miss == "other separator":  # "0,1,2" becomes "0;1,2" or "071,2"
        k = lines[r].index(",")
        lines[r] = lines[r][:k] + draw(st.sampled_from(";\t 7")) + lines[r][k + 1 :]
    elif miss == "blank line":  # after any row but the last
        lines.insert(draw(st.integers(1, max(1, n - 1))), "")
    elif miss == "blank line at the end":
        lines.append("")
    final |= miss in ("blank line", "blank line at the end", "other line end")
    header = [f"x{i + 1}" for i in range(ncols - 1)] + ["y"]
    body = end.join(lines) + (end if final else "")
    if miss == "other line end":  # one byte of the last row's line end
        at = len(body) - len(end) + draw(st.integers(0, len(end) - 1))
        body = body[:at] + draw(st.sampled_from(";7 ")) + body[at + 1 :]
    return ",".join(header) + end + body, header, body, width, miss


@parity(400)
@given(dataset_files())
def test_byte_view_matches_the_loadtxt_route(tmp_path, case):
    """The byte view takes exactly the single-digit bodies with no near
    miss; every drawn file reads as on the ``np.loadtxt`` route."""
    text, header, body, width, miss = case
    parsed = mio._parse_fixed_width(body.encode(), len(header))
    assert (parsed is not None) == (width == 1 and miss is None)
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    assert_same_outcome(path, byte_view=parsed is not None)


def test_byte_view_reads_nothing_past_the_body():
    """A body that ends inside a row is refused, even where the bytes after
    it in the same buffer would complete the row."""
    buf = memoryview(b"0,0\n0,1\n5,5\n")
    assert np.array_equal(mio._parse_fixed_width(buf[:8], 2), [[0, 0], [0, 1]])
    assert np.array_equal(mio._parse_fixed_width(buf[:7], 2), [[0, 0], [0, 1]])
    for end in (5, 6, 9, 10):
        assert mio._parse_fixed_width(buf[:end], 2) is None


@pytest.mark.parametrize("field", ["0" * 18, "9" * 18, str(2**63 - 1), str(2**63), "9" * 19])
def test_long_fields_match_the_loadtxt_route(tmp_path, field):
    """The byte view refuses every field wider than one digit; np.loadtxt
    reads it or reports the overflow."""
    body = f"{field},{field}\n" * 2
    assert mio._parse_fixed_width(body.encode(), 2) is None
    path = tmp_path / "data.csv"
    path.write_text("x1,y\n" + body)
    assert_same_outcome(path)


def whole_file_route(path):
    """(q, xy, digest) of a dataset CSV read whole, the digest taken by
    ``hashlib`` directly, or the error raised."""
    try:
        marginals = mx.pairwise_from_dataset(read_dataset_csv(path))
    except ValidationError as exc:
        return exc
    return marginals.q, marginals.xy, "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def streamed_route(path, chunk):
    """(q, xy, digest) from :func:`read_dataset_marginals` with ``GRAM_CHUNK``
    set to ``chunk``, or the error raised."""
    with mock.patch.object(distributions, "GRAM_CHUNK", chunk):
        try:
            marginals, digest = mio.read_dataset_marginals(path)
        except ValidationError as exc:
            return exc
    return marginals.q, marginals.xy, digest


def assert_same_result(got, want):
    if isinstance(want, ValidationError):
        assert type(got) is type(want)
        assert str(got) == str(want)
    else:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]


def dataset_bytes(rows, end="\n", final=True) -> bytes:
    header = [f"x{i + 1}" for i in range(len(rows[0]) - 1)] + ["y"]
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    return (end.join(lines) + (end if final else "")).encode()


@parity(200)
@given(
    p=st.integers(1, 5),
    n=st.integers(1, 60),
    m=st.integers(2, 10),
    chunk=st.integers(1, 96),
    seed=st.integers(0, 2**32 - 1),
    crlf=st.booleans(),
    final=st.booleans(),
)
def test_streamed_reader_matches_the_whole_file_route(tmp_path, p, n, m, chunk, seed, crlf, final):
    """Single-digit files in blocks of 1 to 24 rows give the whole-file
    route's q and xy bit for bit, and the file's digest: with either line
    end, with or without the last one, when a later block raises m, and on
    the bincount route (m from 7 to 10)."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, m, size=(n, p))
    rise = int(rng.integers(0, n + 1))
    x[:rise] %= int(rng.integers(1, m + 1))  # the first rows take fewer labels
    rows = np.column_stack([x, rng.integers(0, 2, size=n)]).tolist()
    path = tmp_path / "data.csv"
    path.write_bytes(dataset_bytes(rows, "\r\n" if crlf else "\n", final))
    with mock.patch.object(mio, "_read_csv") as text_route, mock.patch.object(mio, "_digest_file") as digest:
        got = streamed_route(path, chunk)
    assert not text_route.called and not digest.called  # no fallback
    want = whole_file_route(path)
    assert_same_result(got, want)
    assert np.array_equal(want[0], legacy_pairwise_by_pair(legacy_read_dataset_csv(path)).q)


def loadtxt_dataset(path):
    """The dataset of :func:`loadtxt_rows`, m read off the labels."""
    rows = loadtxt_rows(path)
    p = rows.shape[1] - 1
    return mx.Dataset(mx.AlphabetSpec(p, max(2, 1 + int(rows[:, :p].max()))), rows)


#: Rows that leave the byte view but not the CSV syntax, and a y outside {0, 1}.
ROW_FAULTS = ["two-digit label", "space", "other line end", "blank line", "y = 2"]


@parity(200)
@given(
    p=st.integers(1, 5),
    n=st.integers(2, 60),
    chunk=st.integers(1, 96),
    seed=st.integers(0, 2**32 - 1),
    crlf=st.booleans(),
    final=st.booleans(),
    fault=st.sampled_from([None, *ROW_FAULTS]),
)
def test_dataset_reader_over_many_blocks_matches_the_loadtxt_route(
    tmp_path, p, n, chunk, seed, crlf, final, fault
):
    """Single-digit files in blocks of 1 to 24 rows read to the rows of the
    ``np.loadtxt`` route, with either line end, with or without the last
    one.  A row that leaves the byte view, in whichever block, sends the
    file to the text route; a ``y = 2`` raises the same class and message."""
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.integers(0, 10, size=(n, p)), rng.integers(0, 2, size=n)]).tolist()
    at = int(rng.integers(fault == "other line end", n))  # the first row sets the line end
    lines = [",".join(map(str, row)) for row in rows]
    end, other = ("\r\n", "\n") if crlf else ("\n", "\r\n")
    ends = [end] * n
    if fault == "two-digit label":
        lines[at] = "1" + lines[at]
    elif fault == "space":
        lines[at] = " " + lines[at]
    elif fault == "other line end":
        ends[at] = other
    elif fault == "blank line":
        ends[at] += end
    elif fault == "y = 2":
        lines[at] = lines[at][:-1] + "2"
    if not final and ends[-1] == end:
        ends[-1] = ""
    header = ",".join([f"x{i + 1}" for i in range(p)] + ["y"])
    path = tmp_path / "data.csv"
    path.write_bytes((header + end + "".join(map(str.__add__, lines, ends))).encode())
    with (
        mock.patch.object(distributions, "GRAM_CHUNK", chunk),
        mock.patch.object(mio, "_read_csv", wraps=mio._read_csv) as text_route,
    ):
        got = outcome(read_dataset_csv, path)
    assert text_route.called == (fault not in (None, "y = 2"))
    want = outcome(loadtxt_dataset, path)
    if isinstance(want, ValidationError):
        assert fault == "y = 2"
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got.spec == want.spec
        assert np.array_equal(got.rows, want.rows)


def test_a_later_block_that_raises_m_widens_the_counts(tmp_path):
    """Blocks of one row: labels 0-1, then 0-3 (the Gram), then 0-8 (the
    bincount route); the counts are re-laid twice and stay exact, and a
    block with fewer labels leaves them as they are."""
    rows = [[0, 1, 0], [1, 1, 1], [3, 0, 1], [2, 3, 0], [8, 0, 1], [1, 7, 0]]
    path = tmp_path / "data.csv"
    path.write_bytes(dataset_bytes(rows))
    widen = mock.patch.object(
        distributions.PairwiseCounts, "widen", autospec=True, side_effect=distributions.PairwiseCounts.widen
    )
    with widen as spy:
        got = streamed_route(path, 6)  # one row of 6 bytes per block
    assert [c.args[1] for c in spy.call_args_list] == [2, 2, 4, 4, 9, 8]
    assert_same_result(got, whole_file_route(path))


def test_labels_that_rise_to_8_in_a_later_full_size_block(tmp_path):
    """p=4 in blocks of ``GRAM_CHUNK`` bytes: the first 60,000 rows take
    labels 0-4 and are counted by the Gram, the next 20,000 take labels 0-8
    and are counted pair by pair, into the widened counts."""
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.integers(0, 5, size=(60_000, 4)), rng.integers(0, 9, size=(20_000, 4))])
    rows = np.column_stack([x, rng.integers(0, 2, size=len(x))]).tolist()
    path = tmp_path / "data.csv"
    path.write_bytes(dataset_bytes(rows))
    assert len(dataset_bytes(rows[:60_000])) > 2 * distributions.GRAM_CHUNK  # the rise is in a later block
    routes = []

    def spy(name):
        method = getattr(distributions.PairwiseCounts, name)

        def record(counts, x, y):
            routes.append((name, counts.spec.m))
            method(counts, x, y)

        return mock.patch.object(distributions.PairwiseCounts, name, record)

    with spy("_add_gram"), spy("_add_pairs"):
        marginals, digest = mio.read_dataset_marginals(path)
    assert routes == sorted(routes) and set(routes) == {("_add_gram", 5), ("_add_pairs", 9)}
    want = mx.pairwise_from_dataset(read_dataset_csv(path))
    assert np.array_equal(marginals.q, want.q) and np.array_equal(marginals.xy, want.xy)
    assert digest == mio._digest_file(path)


#: Files that leave the byte view, and whether they get past a first block.
FALLBACKS = [
    ("two-digit label in the last block", dataset_bytes([[0, 1]] * 9 + [[10, 1]]), True),
    ("blank line", b"x1,y\n" + b"0,1\n" * 5 + b"\n1,0\n", True),
    ("LF rows after CRLF rows", b"x1,y\r\n" + b"0,1\r\n" * 4 + b"1,0\n" * 5, True),
    ("y = 2 in the last block", dataset_bytes([[0, 1]] * 9 + [[1, 2]]), True),
    ("header and no rows", b"x1,x2,y\n", False),
    ("non-UTF-8 header", b"x\xe91,y\n0,1\n", False),
    ("Q over the cap", dataset_bytes([[0] * 4097 + [1], [5] + [0] * 4096 + [1]]), False),
]


@pytest.mark.parametrize(
    "text,late", [(t, late) for _, t, late in FALLBACKS], ids=[d for d, _, _ in FALLBACKS]
)
def test_files_off_the_byte_view_read_as_before(tmp_path, text, late):
    """The streamed reader gives up, counts and all, and
    :func:`read_dataset_csv` gives the whole-file result, or the same class
    and message."""
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    add = mock.patch.object(
        distributions.PairwiseCounts, "add", autospec=True, side_effect=distributions.PairwiseCounts.add
    )
    with add as spy, mock.patch.object(mio, "read_dataset_csv", wraps=read_dataset_csv) as fallback:
        got = streamed_route(path, 20)  # 4 or 5 rows a block
    assert spy.called == late
    assert fallback.call_count == 1
    assert_same_result(got, whole_file_route(path))


@pytest.mark.parametrize(
    "text,csv_opens,marginal_opens",
    [(dataset_bytes([[0, 1]] * 9), 1, 1), (dataset_bytes([[0, 1]] * 9 + [[10, 1]]), 1, 3)],
    ids=["byte view", "refused in the last block"],
)
def test_each_reader_opens_the_file(tmp_path, text, csv_opens, marginal_opens):
    """A file is opened and read once by :func:`read_dataset_csv`: a refused
    one goes to the text route as the bytes read and the rest.  The
    ``--data`` route reads a file in the byte view once; a refused one it
    reads up to the refusing block, then by :func:`read_dataset_csv`, and
    once more for its digest."""
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    for read, opens in [(read_dataset_csv, csv_opens), (mio.read_dataset_marginals, marginal_opens)]:
        with (
            mock.patch.object(mio, "open", wraps=open, create=True) as spy,
            mock.patch.object(distributions, "GRAM_CHUNK", 20),
        ):
            read(path)
        assert spy.call_count == opens


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_streamed_load_peaks_below_4_mib_at_any_n(tmp_path, n):
    """p=8, m=4: the whole-file route peaks at 17.6 MiB at n=10^5 and
    137 MiB at n=10^6 (tracemalloc); the stream holds one block of rows."""
    p, m = 8, 4
    rng = np.random.default_rng(n)
    rows = np.column_stack(
        [rng.integers(0, m, size=(n, p), dtype=np.uint8), rng.integers(0, 2, size=n, dtype=np.uint8)]
    )
    body = np.full((n, 2 * (p + 1)), ord(","), dtype=np.uint8)
    body[:, 0::2] = rows + ord("0")
    body[:, -1] = ord("\n")
    path = tmp_path / "data.csv"
    with open(path, "wb") as fh:
        fh.write((",".join([f"x{i + 1}" for i in range(p)] + ["y"]) + "\n").encode())
        body.tofile(fh)
    del body
    args = argparse.Namespace(joint=None, data=str(path), marginals=None)
    tracemalloc.start()
    try:
        marginals, digest = maxcorr.cli._load_marginals(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    counts = [np.bincount(rows[:, i], minlength=m) for i in range(p)]
    assert np.array_equal(marginals.px, np.array(counts) / n)
    assert digest == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


@parity(60)
@given(nx=st.integers(1, 6), ny=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), **layout)
def test_generic_reader_matches_csv_route(tmp_path, nx, ny, seed, spaces, blank_lines, crlf):
    rng = np.random.default_rng(seed)
    n_cells = int(rng.integers(1, nx * ny + 1))
    cells = rng.choice(nx * ny, size=n_cells, replace=False)
    values = rng.dirichlet(np.ones(n_cells)).tolist()
    rows = [[str(int(c) // ny), str(int(c) % ny), repr(v)] for c, v in zip(cells, values)]
    path = tmp_path / "generic.csv"
    path.write_text(render(["x", "y", "prob"], rows, rng, spaces, blank_lines, crlf))
    got, want = read_generic_csv(path), legacy_read_generic_csv(path)
    assert np.array_equal(got.prob, want.prob)


READERS = {
    "joint": (read_joint_csv, legacy_read_joint_csv),
    "dataset": (read_dataset_csv, legacy_read_dataset_csv),
    "generic": (read_generic_csv, legacy_read_generic_csv),
}

EDGE_CASES = [
    ("joint", "one data row", "x1,y,prob\n1,1,1\n"),
    ("joint", "spaces and blank lines", "x1 , y , prob\n\n 0 , 0 , 0.25 \n\n1,1,0.75\n\n"),
    ("joint", "quoted fields", '"x1","y","prob"\n"0",0,"0.5"\n1,1,0.5\n'),
    ("joint", "signs and exponents", "x1,y,prob\n+1,1,5e-1\n0,0,.5\n"),
    ("dataset", "one data row", "x1,y\n0,1\n"),
    ("generic", "one data row", "x,y,prob\n0,0,1\n"),
]


@pytest.mark.parametrize(
    "kind,text", [(k, t) for k, _, t in EDGE_CASES], ids=[f"{k}-{d}" for k, d, _ in EDGE_CASES]
)
def test_edge_layouts_match_csv_route(tmp_path, kind, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    read, legacy = READERS[kind]
    got, want = read(path), legacy(path)
    field = "rows" if kind == "dataset" else "prob"
    assert np.array_equal(getattr(got, field), getattr(want, field))


MALFORMED = [
    ("joint", "ragged row", "x1,y,prob\n0,0,0.5\n1,1\n", ValidationError),
    ("joint", "extra field", "x1,y,prob\n0,0,0.5\n1,1,0.5,0\n", ValidationError),
    ("joint", "label 1.5", "x1,y,prob\n1.5,0,0.5\n0,1,0.5\n", ValidationError),
    ("joint", "label a", "x1,y,prob\na,0,0.5\n0,1,0.5\n", ValidationError),
    ("joint", "probability x", "x1,y,prob\n0,0,x\n1,1,0.5\n", ValidationError),
    ("joint", "empty probability", "x1,y,prob\n0,0,\n1,1,1\n", ValidationError),
    ("joint", "duplicate cell", "x1,y,prob\n0,0,0.5\n0,0,0.5\n", DuplicateEntry),
    ("joint", "y=2", "x1,y,prob\n0,2,0.5\n1,1,0.5\n", LabelOutOfRange),
    ("joint", "negative label", "x1,y,prob\n-1,0,0.5\n1,1,0.5\n", LabelOutOfRange),
    ("joint", "negative probability", "x1,y,prob\n0,0,-0.5\n1,1,1.5\n", NegativeProbability),
    ("joint", "not normalized", "x1,y,prob\n0,0,0.5\n1,1,0.4\n", NotNormalized),
    ("joint", "non-finite probability", "x1,y,prob\n0,0,nan\n1,1,1\n", ValidationError),
    ("joint", "comment line", "x1,y,prob\n# note\n0,0,0.5\n1,1,0.5\n", ValidationError),
    ("joint", "bad header", "a,b,c\n0,0,1\n", ValidationError),
    ("joint", "header only", "x1,y,prob\n", ValidationError),
    ("joint", "empty file", "", ValidationError),
    ("dataset", "ragged row", "x1,x2,y\n0,1,0\n1,1\n", ValidationError),
    ("dataset", "label 1.5", "x1,y\n1.5,0\n", ValidationError),
    ("dataset", "label a", "x1,y\na,0\n", ValidationError),
    ("dataset", "y=2", "x1,y\n0,2\n", LabelOutOfRange),
    ("dataset", "negative label", "x1,y\n-1,0\n", LabelOutOfRange),
    ("dataset", "header only", "x1,y\n", ValidationError),
    ("generic", "ragged row", "x,y,prob\n0,0,0.5\n1,1\n", ValidationError),
    ("generic", "label 1.5", "x,y,prob\n1.5,0,0.5\n0,1,0.5\n", ValidationError),
    ("generic", "label a", "x,y,prob\na,0,0.5\n0,1,0.5\n", ValidationError),
    ("generic", "probability x", "x,y,prob\n0,0,x\n0,1,0.5\n", ValidationError),
    ("generic", "duplicate cell", "x,y,prob\n0,0,0.5\n0,0,0.5\n", ValidationError),
    ("generic", "negative label", "x,y,prob\n-1,0,0.5\n0,1,0.5\n", ValidationError),
    ("generic", "negative probability", "x,y,prob\n0,0,-0.5\n0,1,1.5\n", ValidationError),
    ("generic", "header only", "x,y,prob\n", ValidationError),
]


@pytest.mark.parametrize(
    "kind,text,error", [(k, t, e) for k, _, t, e in MALFORMED], ids=[f"{k}-{d}" for k, d, _, _ in MALFORMED]
)
def test_malformed_input_raises_the_csv_route_class(tmp_path, monkeypatch, kind, text, error):
    path = tmp_path / "input.csv"
    path.write_text(text)
    read, legacy = READERS[kind]
    with pytest.raises(ValidationError) as want:
        legacy(path)
    with pytest.raises(ValidationError) as got:
        read(path)
    assert type(got.value) is type(want.value) is error
    if kind == "dataset":
        with monkeypatch.context() as patch:
            patch.setattr(mio, "_byte_view_blocks", lambda fh, seen: iter([None]))  # the text route alone
            with pytest.raises(error) as loadtxt:
                read(path)
        assert str(got.value) == str(loadtxt.value)


@parity(40)
@given(
    p=st.integers(1, 4),
    m=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 0.9),
)
def test_joint_writer_bytes_match_csv_route(tmp_path, p, m, seed, zeros):
    rng = np.random.default_rng(seed)
    spec = mx.AlphabetSpec(p, m)
    prob = rng.dirichlet(np.ones(spec.n_atoms))
    prob[rng.uniform(size=spec.n_atoms) < zeros] = 0.0
    if prob.sum() == 0.0:
        prob[0] = 1.0
    joint = mx.DiscreteJoint(spec, (prob / prob.sum()).reshape(spec.n_states, 2))
    write_joint_csv(joint, tmp_path / "new.csv")
    legacy_write_joint_csv(joint, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
