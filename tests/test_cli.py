import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import maxcorr as mx
import maxcorr.cli
import maxcorr.distributions
import maxcorr.lowerbound
import maxcorr.tightness
from maxcorr.cli import main
from maxcorr.io import (
    read_joint_csv,
    read_marginals_json,
    write_dataset_csv,
    write_joint_csv,
    write_marginals_json,
)

from conftest import negative_gamma_marginals


@pytest.fixture
def files(tmp_path):
    paths = {}
    write_joint_csv(mx.nonadditive_fixture(), tmp_path / "nonadditive.csv")
    write_joint_csv(mx.copy_fixture(), tmp_path / "copy.csv")
    write_joint_csv(mx.uniform_joint(mx.AlphabetSpec(2, 2)), tmp_path / "product.csv")
    write_joint_csv(mx.additive_fixture(mx.AlphabetSpec(2, 2), seed=4), tmp_path / "additive.csv")
    write_marginals_json(
        mx.pairwise_from_joint(mx.nonadditive_fixture()), tmp_path / "marginals.json"
    )
    write_dataset_csv(
        mx.sample_dataset(mx.nonadditive_fixture(), n=200, seed=0), tmp_path / "data.csv"
    )
    (tmp_path / "moments.json").write_text(
        json.dumps({"mu": [0, 0, 0], "lambda": [1, 0.5, 0.6, 0.5, 1, 0.3, 0.6, 0.3, 1]})
    )
    degenerate = mx.joint_from_table(
        mx.AlphabetSpec(1, 2), [((0,), 1, 0.5), ((1,), 1, 0.5)]
    )
    write_joint_csv(degenerate, tmp_path / "degenerate.csv")
    (tmp_path / "garbage.csv").write_text("x1,y,prob\n0,0,not_a_number\n")
    (tmp_path / "generic.csv").write_text("x,y,prob\n0,0,0.5\n1,1,0.25\n2,0,0.25\n")
    for name in (
        "nonadditive.csv",
        "copy.csv",
        "product.csv",
        "additive.csv",
        "marginals.json",
        "data.csv",
        "moments.json",
        "degenerate.csv",
        "garbage.csv",
        "generic.csv",
    ):
        paths[name] = str(tmp_path / name)
    paths["out"] = str(tmp_path / "constructed.csv")
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    result = None
    if captured.out:
        result = json.loads(captured.out)
    return code, result, captured


class TestOracle:
    def test_nonadditive_fixture(self, capsys, files):
        code, report, _ = run(capsys, ["oracle", "--joint", files["nonadditive.csv"]])
        assert code == 0
        assert report["schema"] == 1
        assert report["args"]["joint"] == files["nonadditive.csv"]
        assert report["input_digest"].startswith("sha256:")
        assert report["results"]["rho"] == pytest.approx(np.sqrt(0.065 / 0.24), abs=1e-9)
        assert report["results"]["method_delta"] <= 1e-10

    def test_copy_is_one_product_is_zero(self, capsys, files):
        code, report, _ = run(capsys, ["oracle", "--joint", files["copy.csv"]])
        assert code == 0 and report["results"]["rho"] == pytest.approx(1.0, abs=1e-10)
        code, report, _ = run(capsys, ["oracle", "--joint", files["product.csv"]])
        assert code == 0 and report["results"]["rho"] == 0.0

    def test_generic_input(self, capsys, files, tmp_path):
        path = tmp_path / "generic.csv"
        path.write_text("x,y,prob\n0,0,0.5\n1,1,0.5\n")
        code, report, _ = run(capsys, ["oracle", "--generic", str(path)])
        assert code == 0
        assert report["results"]["rho"] == pytest.approx(1.0, abs=1e-10)

    def test_a_stray_generic_label_is_refused_before_the_table(self, capsys, tmp_path):
        # nx is read off the largest label: the table would hold 2^41 cells (16 TiB).
        path = tmp_path / "generic.csv"
        path.write_text("x,y,prob\n0,0,0.5\n1099511627776,1,0.5\n")
        tracemalloc.start()
        try:
            code = main(["oracle", "--generic", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "exceeds the dense cap" in capsys.readouterr().err
        assert peak < 16 * 2**20


class TestLowerBound:
    def test_values_from_joint(self, capsys, files):
        code, report, _ = run(capsys, ["lower-bound", "--joint", files["nonadditive.csv"]])
        assert code == 0
        results = report["results"]
        assert results["gamma_lb_closed"] == pytest.approx(0.1775, abs=1e-9)
        assert results["gamma_delta"] <= 1e-10
        assert results["rho_lb"] == pytest.approx(np.sqrt(1 - 0.1775 / 0.24), abs=1e-9)
        assert results["p_y1"] == pytest.approx(0.6, abs=1e-12)

    def test_from_marginals_matches_joint_route(self, capsys, files):
        _, via_joint, _ = run(capsys, ["lower-bound", "--joint", files["nonadditive.csv"]])
        _, via_marginals, _ = run(capsys, ["lower-bound", "--marginals", files["marginals.json"]])
        assert via_marginals["results"]["rho_lb"] == pytest.approx(
            via_joint["results"]["rho_lb"], abs=1e-12
        )

    def test_from_dataset(self, capsys, files):
        code, report, _ = run(capsys, ["lower-bound", "--data", files["data.csv"]])
        assert code == 0
        assert 0.0 <= report["results"]["rho_lb"] <= 1.0

    def test_marginals_beyond_the_state_index(self, capsys, tmp_path):
        rng = np.random.default_rng(40)
        x = rng.integers(0, 3, size=(500, 40))  # 3^40 states: past 2^62
        y = (x[:, 0] + rng.integers(0, 2, size=500)) % 2
        data = mx.Dataset(mx.AlphabetSpec(40, 3), np.column_stack([x, y]))
        marginals = mx.pairwise_from_dataset(data)
        write_marginals_json(marginals, tmp_path / "wide.json")
        code, report, _ = run(capsys, ["lower-bound", "--marginals", str(tmp_path / "wide.json")])
        assert code == 0
        assert report["results"]["rho_lb"] == mx.rho_lb(mx.assemble_qd(marginals))

    def test_a_stray_label_is_refused_before_q(self, capsys, tmp_path):
        # m is read off the largest label: 100001 labels, so Q would hold
        # 4 * 10^10 entries and the pair loop would ask for 10^10 bins.
        path = tmp_path / "stray.csv"
        path.write_text("x1,x2,y\n0,1,0\n1,0,1\n100000,1,1\n")
        tracemalloc.start()
        try:
            code = main(["lower-bound", "--data", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert peak < 16 * 2**20

    def test_extremes(self, capsys, files):
        _, product, _ = run(capsys, ["lower-bound", "--joint", files["product.csv"]])
        assert product["results"]["rho_lb"] == pytest.approx(0.0, abs=1e-9)
        _, copy, _ = run(capsys, ["lower-bound", "--joint", files["copy.csv"]])
        assert copy["results"]["rho_lb"] == pytest.approx(1.0, abs=1e-12)


class TestCheckTight:
    def test_nonadditive_fixture_not_tight_exit_zero(self, capsys, files):
        code, report, _ = run(capsys, ["check-tight", "--joint", files["nonadditive.csv"]])
        assert code == 0  # verdict is data, not failure
        assert report["results"]["verdict"] == "NotTight"
        assert report["results"]["lp_value"] == pytest.approx(0.6, abs=1e-9)

    def test_product_and_copy_tight(self, capsys, files):
        _, product, _ = run(capsys, ["check-tight", "--joint", files["product.csv"]])
        assert product["results"]["verdict"] == "Tight"
        _, copy, _ = run(capsys, ["check-tight", "--joint", files["copy.csv"]])
        assert copy["results"]["verdict"] == "Tight"
        assert copy["results"]["lp_value"] == pytest.approx(0.5, abs=1e-9)

    def test_tolerance_flag_follows_subcommand_and_is_echoed(self, capsys, files):
        code, report, _ = run(
            capsys, ["check-tight", "--joint", files["copy.csv"], "--tol", "1e-6"]
        )
        assert code == 0
        assert report["tol"] == 1e-6


class TestConstruct:
    def test_not_tight_exits_four(self, capsys, files):
        code, report, captured = run(
            capsys, ["construct", "--joint", files["nonadditive.csv"], "--out", files["out"]]
        )
        assert code == 4
        assert report is None
        assert "no additive distribution" in captured.err

    def test_product_reproduces_itself(self, capsys, files):
        code, report, _ = run(
            capsys, ["construct", "--joint", files["product.csv"], "--out", files["out"]]
        )
        assert code == 0
        assert report["results"]["marginal_match_max_err"] <= 1e-12
        constructed = read_joint_csv(files["out"])
        assert np.abs(constructed.prob - mx.uniform_joint(mx.AlphabetSpec(2, 2)).prob).max() == 0

    def test_additive_fixture_attains_bound(self, capsys, files):
        code, report, _ = run(
            capsys, ["construct", "--joint", files["additive.csv"], "--out", files["out"]]
        )
        assert code == 0
        assert report["results"]["delta"] <= 1e-8
        assert report["results"]["additivity_residual"] <= 1e-9


class TestGaussianCommand:
    def test_two_feature_fixture(self, capsys, files):
        code, report, _ = run(capsys, ["gaussian", "--moments", files["moments.json"]])
        assert code == 0
        assert report["results"]["min_hgr"] == pytest.approx(0.6, abs=1e-12)
        assert report["results"]["a"][0] == pytest.approx(0.6, abs=1e-9)


class TestProbeCommand:
    def test_small_radius(self, capsys, files):
        code, report, _ = run(
            capsys,
            ["probe-uniform", "--p", "2", "--m", "2", "--eps", "0.01", "--trials", "20", "--seed", "5"],
        )
        assert code == 0
        assert report["results"]["fraction_tight"] == 1.0

    def test_beyond_the_dense_cap_is_a_parse_error(self, capsys):
        code = main(["probe-uniform", "--p", "60", "--m", "3", "--eps", "0.1"])
        assert code == 2
        assert "exceed the dense cap" in capsys.readouterr().err


class TestErrorContract:
    def test_missing_file_is_parse_error(self, capsys, files):
        code, report, captured = run(capsys, ["oracle", "--joint", "missing.csv"])
        assert code == 2
        assert report is None
        assert "input error" in captured.err

    def test_garbage_file_is_parse_error(self, capsys, files):
        code, _, _ = run(capsys, ["oracle", "--joint", files["garbage.csv"]])
        assert code == 2

    def test_degenerate_target_is_domain_error(self, capsys, files):
        code, _, captured = run(capsys, ["lower-bound", "--joint", files["degenerate.csv"]])
        assert code == 3
        assert "domain error" in captured.err

    @pytest.mark.parametrize("command", ["lower-bound", "check-tight"])
    def test_tables_with_a_negative_gamma_are_a_domain_error(self, capsys, tmp_path, command):
        path = tmp_path / "negative_gamma.json"
        write_marginals_json(negative_gamma_marginals(), path)
        code, result, captured = run(capsys, [command, "--marginals", str(path)])
        assert code == 3 and result is None
        assert captured.err.startswith("domain error: gamma -0.04999")

    def test_check_tight_refuses_a_negative_gamma_before_it_certifies(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "negative_gamma.json"
        write_marginals_json(negative_gamma_marginals(), path)
        spy = mock.Mock(wraps=maxcorr.cli.check_tightness)
        monkeypatch.setattr(maxcorr.cli, "check_tightness", spy)
        code, _, captured = run(capsys, ["check-tight", "--marginals", str(path)])
        assert code == 3 and captured.err.startswith("domain error: gamma -0.04999")
        assert spy.call_count == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--joint"],
            ["oracle", "--generic"],
            ["lower-bound", "--data"],
            ["check-tight", "--marginals"],
            ["gaussian", "--moments"],
        ],
    )
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes("x1,y,prob\n0,0,0.5\n1,1,0.5 \u00e9\n".encode("latin-1"))
        code, report, captured = run(capsys, [*argv, str(path)])
        assert code == 2 and report is None
        assert captured.err == f"input error: {path}: not UTF-8 text (invalid continuation byte)\n"

    @pytest.mark.parametrize(
        "xy", [{"1": ["a", 0.25, 0.25, 0.25]}, {"1": [[0.25, 0.25], [0.25]]}, "x1"]
    )
    def test_a_malformed_marginals_table_is_a_parse_error(self, capsys, tmp_path, xy):
        path = tmp_path / "marginals.json"
        path.write_text(json.dumps({"p": 1, "m": 2, "xy": xy}))
        code, report, captured = run(capsys, ["lower-bound", "--marginals", str(path)])
        assert code == 2 and report is None
        assert captured.err.startswith(f"input error: {path}: ")

    @pytest.mark.parametrize("tol", ["--tol=nan", "--tol=inf", "--tol=-inf", "--tol=-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--joint", "nonadditive.csv"],
            ["lower-bound", "--joint", "nonadditive.csv"],
            ["check-tight", "--joint", "nonadditive.csv"],
            ["construct", "--joint", "additive.csv", "--out", "out"],
            ["gaussian", "--moments", "moments.json"],
            ["probe-uniform", "--p", "2", "--m", "2", "--eps", "0.01"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_tolerance_that_is_not_finite_and_non_negative_is_a_usage_error(
        self, capsys, files, monkeypatch, argv, tol
    ):
        """Refused while the arguments are parsed: no input is read and
        nothing is written."""
        monkeypatch.setattr(maxcorr.cli, "_digest_file", pytest.fail)
        with pytest.raises(SystemExit) as info:
            main([files.get(a, a) for a in argv] + [tol])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tol: invalid tolerance value: '{tol[6:]}'" in captured.err
        assert not os.path.exists(files["out"])

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-0.1"])
    def test_a_radius_that_is_not_finite_and_non_negative_is_a_usage_error(self, capsys, monkeypatch, eps):
        """Refused while the arguments are parsed, before any trial."""
        monkeypatch.setattr(maxcorr.tightness, "uniform_joint", pytest.fail)
        with pytest.raises(SystemExit) as info:
            main(["probe-uniform", "--p", "2", "--m", "2", f"--eps={eps}", "--trials", "3"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --eps: invalid epsilon value: '{eps}'" in captured.err

    def test_unknown_flag_is_usage_error(self, capsys, files):
        with pytest.raises(SystemExit) as info:
            main(["oracle", "--nope"])
        assert info.value.code == 2


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, files):
        _, _, first = run(capsys, ["lower-bound", "--joint", files["nonadditive.csv"]])
        _, _, second = run(capsys, ["lower-bound", "--joint", files["nonadditive.csv"]])
        assert first.out == second.out
        assert first.out.endswith("\n")

    def test_stdout_is_json_only(self, capsys, files):
        _, _, captured = run(capsys, ["check-tight", "--joint", files["nonadditive.csv"]])
        json.loads(captured.out)  # a single JSON document


class TestValidateOnce:
    @pytest.mark.parametrize("command", ["lower-bound", "check-tight"])
    def test_one_validation_per_op(self, capsys, files, monkeypatch, command):
        calls = []
        real = maxcorr.distributions.validate_marginals

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (maxcorr.distributions, maxcorr.lowerbound):
            monkeypatch.setattr(module, "validate_marginals", counting)
        monkeypatch.setattr(maxcorr.cli, "validate_marginals", counting, raising=False)
        code, report, _ = run(capsys, [command, "--joint", files["nonadditive.csv"]])
        assert code == 0 and report["warnings"] == []
        assert len(calls) == 1

    def test_inconsistent_marginals_keep_their_message(self, capsys, files, tmp_path):
        obj = json.loads(Path(files["marginals.json"]).read_text())
        obj["xy"]["1"] = [0.5, 0.5, 0.5, 0.5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        for command in ("lower-bound", "check-tight"):
            code, report, captured = run(capsys, [command, "--marginals", str(path)])
            assert code == 2 and report is None
            assert captured.err.startswith("input error: px[0]: sums to 2.000000000000, not 1; ")


def test_no_library_path_builds_the_indicator_matrix(capsys, tmp_path, monkeypatch):
    """feasible_member, is_additive and the construct subcommand gather their
    one-hot rows; only tests call ``AlphabetSpec.indicator_matrix``."""
    golden = Path(__file__).parent / "data" / "golden"
    monkeypatch.setattr(
        mx.AlphabetSpec, "indicator_matrix", mock.Mock(side_effect=AssertionError("indicator_matrix"))
    )
    marginals = read_marginals_json(golden / "inputs" / "random_3x2.json")
    assert mx.marginal_deviation(mx.pairwise_from_joint(mx.feasible_member(marginals)), marginals) <= 1e-9
    assert mx.is_additive(read_joint_csv(golden / "inputs" / "additive_2x2.csv")).additive

    record = json.loads((golden / "records" / "cli_small_construct.json").read_text())
    (tmp_path / "cli_additive.csv").write_bytes((golden / "inputs" / "cli_additive.csv").read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main(record["argv"]) == record["code"]
    assert capsys.readouterr().out == record["stdout"]
    assert (tmp_path / "out.csv").read_bytes().decode() == record["out"]


# ---------------------------------------------------------------------------
# the script entry point in a fresh interpreter
# ---------------------------------------------------------------------------

SRC = str(Path(mx.__file__).resolve().parents[1])


def script_env():
    """The environment of this pytest run with block-buffered standard streams,
    so that a report lost in a buffer at exit shows."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_script(argv):
    """``python -m maxcorr.cli``: (exit code, stdout, stderr), read through pipes."""
    proc = subprocess.run(
        [sys.executable, "-m", "maxcorr.cli", *argv],
        capture_output=True,
        env=script_env(),
        timeout=300,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def run_in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def same_as_in_process(capsys, argv, out=None):
    """Run ``argv`` in process and as a script; both must give the same
    exit code, stdout, stderr and written file, which the script's run
    leaves in place.  Returns the exit code and stdout."""
    runs = []
    for route in (lambda: run_in_process(capsys, argv), lambda: run_script(argv)):
        if out is not None:
            Path(out).unlink(missing_ok=True)
        result = route()
        written = Path(out).read_bytes() if out is not None and Path(out).exists() else None
        runs.append((*result, written))
    assert runs[1] == runs[0]
    return runs[1][:2]


SCRIPT_CASES = [
    (["oracle", "--joint", "nonadditive.csv"], 0),
    (["oracle", "--generic", "generic.csv"], 0),
    (["lower-bound", "--joint", "nonadditive.csv"], 0),
    (["lower-bound", "--marginals", "marginals.json"], 0),
    (["lower-bound", "--data", "data.csv", "--tol", "1e-6"], 0),
    (["check-tight", "--joint", "nonadditive.csv"], 0),
    (["check-tight", "--joint", "copy.csv"], 0),
    (["check-tight", "--marginals", "marginals.json"], 0),
    (["construct", "--joint", "additive.csv", "--out", "out"], 0),
    (["construct", "--joint", "nonadditive.csv", "--out", "out"], 4),
    (["gaussian", "--moments", "moments.json"], 0),
    (["probe-uniform", "--p", "2", "--m", "2", "--eps", "0.01", "--trials", "5"], 0),
    (["oracle", "--joint", "missing.csv"], 2),
    (["oracle", "--joint", "garbage.csv"], 2),
    (["oracle", "--nope"], 2),
    (["lower-bound", "--joint", "degenerate.csv"], 3),
]


class TestScriptEntryPoint:
    @pytest.mark.parametrize("argv, expected", SCRIPT_CASES)
    def test_matches_in_process_main(self, capsys, files, argv, expected):
        argv = [files.get(token, token) for token in argv]
        out = files["out"] if "--out" in argv else None
        assert same_as_in_process(capsys, argv, out)[0] == expected

    def test_large_report_arrives_whole_through_a_pipe(self, capsys, tmp_path):
        path = tmp_path / "joint.csv"
        write_joint_csv(mx.random_joint(mx.AlphabetSpec(6, 4), seed=3), path)
        code, out = same_as_in_process(capsys, ["oracle", "--joint", str(path)])
        assert code == 0
        assert len(json.loads(out)["results"]["f_star"]) == 4096

    def test_written_csv_is_complete_after_exit(self, capsys, tmp_path):
        path, out = tmp_path / "joint.csv", tmp_path / "built.csv"
        joint = mx.additive_fixture(mx.AlphabetSpec(6, 4), seed=2)
        write_joint_csv(joint, path)
        argv = ["construct", "--joint", str(path), "--out", str(out)]
        assert same_as_in_process(capsys, argv, out)[0] == 0
        built = read_joint_csv(out)
        assert built.prob.shape == (4096, 2)
        assert np.abs(built.prob.sum() - 1.0) < 1e-12


IMPORT_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import maxcorr, maxcorr.cli
    seen = {"import": scipy_modules()}
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert maxcorr.cli.main(argv) == 0
        seen[argv[0]] = scipy_modules()
    maxcorr.discretize_bivariate_gaussian(0.5, grid_n=16)
    seen["witness"] = scipy_modules()
    with contextlib.redirect_stdout(io.StringIO()):
        assert maxcorr.cli.main(json.loads(sys.argv[2])) == 0
    seen["lp"] = scipy_modules()
    print(json.dumps(seen))
    """
)


def test_scipy_loads_only_on_the_lp_and_witness_routes(files):
    # A fresh interpreter: this pytest process has scipy loaded (conftest imports it).
    # Full-support inputs, labels of zero probability and a copied feature
    # take the closed-form certificate; the sparse-support joint has null
    # directions that neither free labels nor dependent features explain,
    # and needs the LP.
    data = Path(__file__).parent / "data"
    no_scipy = [
        ["oracle", "--joint", files["nonadditive.csv"]],
        ["lower-bound", "--joint", files["nonadditive.csv"]],
        ["gaussian", "--moments", files["moments.json"]],
        ["check-tight", "--joint", files["nonadditive.csv"]],
        ["check-tight", "--marginals", files["marginals.json"]],
        ["construct", "--joint", files["additive.csv"], "--out", files["out"]],
        ["probe-uniform", "--p", "2", "--m", "2", "--eps", "0.01", "--trials", "5"],
        ["check-tight", "--joint", str(data / "golden" / "inputs" / "zero_label_3x3.csv")],
        ["check-tight", "--data", str(data / "golden" / "inputs" / "mixed_labels.csv")],
        ["check-tight", "--marginals", str(data / "copy_feature_p6_m3.json")],
    ]
    lp = ["check-tight", "--joint", str(data / "golden" / "inputs" / "sparse_support_4x2.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(no_scipy), json.dumps(lp)],
        capture_output=True,
        text=True,
        env=script_env(),
        timeout=300,
        check=True,
    )
    seen = json.loads(proc.stdout)
    for stage in ["import", *(argv[0] for argv in no_scipy)]:
        assert seen[stage] == [], stage
    assert "scipy.optimize" in seen["lp"]
    assert "scipy.special" in seen["witness"]
