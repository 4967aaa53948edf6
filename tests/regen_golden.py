"""The golden CLI corpus: its cases, how one is run, and how the records are
rewritten.

``tests/data/golden/inputs/`` holds small input files; ``records/`` holds,
per case, the exit code, stdout and stderr of ``maxcorr.cli.main`` and the
bytes of any CSV the case writes.  ``tests/test_golden.py`` reruns every case
and compares bytes.  The records are rewritten only by hand:

    PYTHONPATH=src python tests/regen_golden.py            # rewrite records
    PYTHONPATH=src python tests/regen_golden.py --inputs   # inputs, then records

A change that rewrites a record names it in CHANGES.md, with the reason and
the largest numeric change, which ``--diff`` prints without rewriting
anything: for each record the current code no longer matches, the largest
absolute change of each numeric field of the report (and of the ``prob``
column of a written CSV).  It exits non-zero if anything else moved: the
exit code, stderr, a verdict or any other non-numeric field.

    PYTHONPATH=src python tests/regen_golden.py --diff

With the package installed, ``--check-script``
runs the named cases through the ``maxcorr`` console script instead and
exits non-zero unless each matches its record:

    python tests/regen_golden.py --check-script construct_additive_2x2 check_tight_copy_feature

Any other arguments, or an unknown case name, print the usage to stderr and
exit 2 without writing anything.

``--inputs`` draws every input again from fixed seeds; the ``cli_small``
inputs come from the benchmark's own set-up (``bench/workloads.py``, seed 11).
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "golden"
INPUTS = GOLDEN / "inputs"
RECORDS = GOLDEN / "records"
OUT = "out.csv"

# Joints from (2,2) to (5,3): name -> (p, m, generator, seed, Dirichlet alpha).
JOINTS = {
    "additive_2x2": (2, 2, "additive", 0, None),
    "random_2x3": (2, 3, "random", 0, 1.0),  # NotTight
    "random_3x2": (3, 2, "random", 1, 1.0),  # NotTight
    "random_3x3": (3, 3, "random", 0, 1.0),
    "sparse_4x2": (4, 2, "random", 0, 0.3),  # NotTight
    "edge_4x2": (4, 2, "random", 2, 0.3),  # Tight, lp_value 0.493
    "additive_5x3": (5, 3, "additive", 1, None),
}


def _joint_cases():
    cases = {}
    for name in ["nonadditive", "copy_p1", "zero_label_3x3", *JOINTS]:
        joint = f"{name}.csv"
        cases[f"oracle_{name}"] = ["oracle", "--joint", joint]
        cases[f"lower_bound_{name}"] = ["lower-bound", "--joint", joint]
        cases[f"check_tight_{name}"] = ["check-tight", "--joint", joint]
        cases[f"construct_{name}"] = ["construct", "--joint", joint, "--out", OUT]
    for name in ("nonadditive", "zero_label_3x3", "random_3x2", "additive_5x3"):
        cases[f"lower_bound_{name}_json"] = ["lower-bound", "--marginals", f"{name}.json"]
        cases[f"check_tight_{name}_json"] = ["check-tight", "--marginals", f"{name}.json"]
    return cases


#: case name -> argv, with paths relative to the inputs directory.
CASES = {
    **_joint_cases(),
    # the cli_small workload's six ops
    "cli_small_oracle": ["oracle", "--joint", "cli_fixture.csv"],
    "cli_small_lower_bound": ["lower-bound", "--marginals", "cli_fixture.json"],
    "cli_small_check_tight": ["check-tight", "--joint", "cli_fixture.csv"],
    "cli_small_construct": ["construct", "--joint", "cli_additive.csv", "--out", OUT],
    "cli_small_gaussian": ["gaussian", "--moments", "cli_moments.json"],
    "cli_small_probe_uniform": [
        "probe-uniform", "--p", "2", "--m", "2", "--eps", "0.01", "--trials", "20",
        "--seed", "442307189",
    ],  # fmt: skip
    # a copied feature, merged into its source in closed form
    "check_tight_copy_feature": ["check-tight", "--marginals", "copy_feature_p6_m3.json"],
    "lower_bound_copy_feature": ["lower-bound", "--marginals", "copy_feature_p6_m3.json"],
    # the LP route: a sparse support that no dependency explains
    "check_tight_sparse_support": ["check-tight", "--joint", "sparse_support_4x2.csv"],
    # marginal-only: a dataset above the dense cap
    "lower_bound_wide": ["lower-bound", "--data", "wide_p22_m2.csv"],
    "check_tight_wide": ["check-tight", "--data", "wide_p22_m2.csv"],
    # the same rows with LF line ends and no final one
    "lower_bound_wide_lf": ["lower-bound", "--data", "wide_p22_m2_lf.csv"],
    # marginal-only past the int64 state index: 2^64 states
    "lower_bound_wide_p64": ["lower-bound", "--data", "wide_p64_m2.csv"],
    "check_tight_wide_p64": ["check-tight", "--data", "wide_p64_m2.csv"],
    # features using 2-4 of 5 labels: eight labels of zero probability
    "check_tight_mixed_labels": ["check-tight", "--data", "mixed_labels.csv"],
    "lower_bound_data": ["lower-bound", "--data", "nonadditive_data.csv", "--tol", "1e-6"],
    # labels 0-11: one and two digits in the same file
    "lower_bound_data_m12": ["lower-bound", "--data", "data_m12.csv"],
    "check_tight_tol": ["check-tight", "--joint", "random_3x3.csv", "--tol", "1e-6"],
    "oracle_generic": ["oracle", "--generic", "generic.csv"],
    "gaussian_three": ["gaussian", "--moments", "moments_3.json"],
    "probe_uniform_p3": ["probe-uniform", "--p", "3", "--m", "2", "--eps", "0.3", "--trials", "12"],
    # errors
    "error_missing_file": ["oracle", "--joint", "missing.csv"],
    "error_garbage": ["oracle", "--joint", "garbage.csv"],
    "error_degenerate": ["lower-bound", "--joint", "degenerate.csv"],
    "error_degenerate_check_tight": ["check-tight", "--joint", "degenerate.csv"],
    "error_inconsistent": ["check-tight", "--marginals", "inconsistent.json"],
    "error_indefinite": ["lower-bound", "--marginals", "indefinite.json"],
    "error_negative_gamma": ["lower-bound", "--marginals", "negative_gamma.json"],
    # m is read off the largest label, so Q would have (2 * 100001)^2 entries
    "error_stray_label": ["lower-bound", "--data", "stray_label.csv"],
    # nx is read off the largest label, so the table would have 2^41 cells
    "error_generic_stray_label": ["oracle", "--generic", "stray_generic.csv"],
    "error_dataset_ragged": ["lower-bound", "--data", "ragged.csv"],
    "error_dataset_float_label": ["lower-bound", "--data", "float_label.csv"],
    "error_dataset_not_utf8": ["lower-bound", "--data", "latin1.csv"],
    "error_marginals_non_number": ["check-tight", "--marginals", "non_number.json"],
    # p read as 2 by truncation would give the nonadditive report
    "error_marginals_fractional_p": ["lower-bound", "--marginals", "fractional_p.json"],
    "error_moments_2d_mu": ["gaussian", "--moments", "moments_2d_mu.json"],
    "error_unknown_flag": ["oracle", "--nope"],
    # a slack that is not a finite number >= 0 is refused before any input is read
    "error_check_tight_tol_nan": ["check-tight", "--joint", "additive_2x2.csv", "--tol", "nan"],
    "error_construct_tol_inf": ["construct", "--joint", "nonadditive.csv", "--out", OUT, "--tol", "inf"],
    # a radius that is not a finite number >= 0 is refused before any trial
    "error_probe_uniform_eps_nan": ["probe-uniform", "--p", "2", "--m", "2", "--eps", "nan"],
}


def _record(argv, workdir, invoke) -> dict:
    """The record of one case: ``invoke(argv, workdir)`` gives the exit
    code, stdout and stderr; ``out.csv`` is added when the case writes it."""
    workdir = Path(workdir)
    (workdir / OUT).unlink(missing_ok=True)
    code, stdout, stderr = invoke(list(argv), workdir)
    record = {"argv": list(argv), "code": code, "stdout": stdout, "stderr": stderr}
    if (workdir / OUT).exists():
        record["out"] = (workdir / OUT).read_bytes().decode()
    return record


def run_case(argv, workdir) -> dict:
    """Run ``maxcorr.cli.main(argv)`` in ``workdir``: exit code, stdout,
    stderr, and the text of ``out.csv`` when the case writes it.

    Log records reach stderr through logging's last-resort handler, as in a
    fresh CLI process, even where a test harness has handlers on the root
    logger.
    """
    return _record(argv, workdir, _in_process)


def run_script(argv, workdir) -> dict:
    """:func:`run_case` through the installed ``maxcorr`` console script."""
    return _record(argv, workdir, _console_script)


def _console_script(argv, workdir):
    proc = subprocess.run(["maxcorr", *argv], cwd=workdir, capture_output=True)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _in_process(argv, workdir):
    from maxcorr.cli import main

    out, err = io.StringIO(), io.StringIO()
    logger = logging.getLogger("maxcorr")
    propagate, cwd = logger.propagate, os.getcwd()
    logger.propagate = False
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
        logger.propagate = propagate
    return code, out.getvalue(), err.getvalue()


def write_inputs():
    """Draw every input file again from its fixed seed."""
    import numpy as np

    import maxcorr as mx
    from maxcorr.io import write_dataset_csv, write_joint_csv, write_marginals_json

    shutil.rmtree(INPUTS, ignore_errors=True)
    INPUTS.mkdir(parents=True)

    def joint_files(name, joint, marginals=False):
        write_joint_csv(joint, INPUTS / f"{name}.csv")
        if marginals:
            write_marginals_json(mx.pairwise_from_joint(joint), INPUTS / f"{name}.json")

    joint_files("nonadditive", mx.nonadditive_fixture(), marginals=True)
    joint_files("copy_p1", mx.copy_fixture())
    spec = mx.AlphabetSpec(3, 3)
    prob = np.array(mx.additive_fixture(spec, seed=2).prob)
    prob[spec.states()[:, 1] == 2] = 0.0  # label 2 of feature 2 never occurs
    joint_files("zero_label_3x3", mx.DiscreteJoint(spec, prob / prob.sum()), marginals=True)
    for name, (p, m, kind, seed, alpha) in JOINTS.items():
        spec = mx.AlphabetSpec(p, m)
        if kind == "additive":
            joint = mx.additive_fixture(spec, seed=seed)
        else:
            joint = mx.random_joint(spec, seed=seed, alpha=alpha)
        joint_files(name, joint, marginals=name in ("random_3x2", "additive_5x3"))

    # p=4, m=2: 70% of the states never occur, which leaves null(Q) with
    # directions that neither free labels nor dependent features explain, so
    # the certificate takes the LP.
    spec = mx.AlphabetSpec(4, 2)
    prob = np.array(mx.random_joint(spec, seed=1).prob)
    rng = np.random.default_rng(1)
    keep = rng.uniform(size=spec.n_states) < 0.3
    keep[rng.choice(spec.n_states, size=2, replace=False)] = True  # both y values occur
    prob[~keep] = 0.0
    joint_files("sparse_support_4x2", mx.DiscreteJoint(spec, prob / prob.sum()))

    shutil.copy(HERE / "data" / "copy_feature_p6_m3.json", INPUTS)
    data = mx.sample_dataset(mx.nonadditive_fixture(), n=200, seed=0)
    write_dataset_csv(data, INPUTS / "nonadditive_data.csv")

    # p=22 and p=64, m=2, 300 rows: features copy a shared binary latent
    # with per-feature strength, and Y leans on the latent.
    for p in (22, 64):
        rng = np.random.default_rng(p)
        n = 300
        latent = rng.integers(0, 2, size=n)
        copy = rng.uniform(size=(n, p)) < rng.uniform(0.3, 0.8, size=p)
        x = np.where(copy, latent[:, None], rng.integers(0, 2, size=(n, p)))
        y = (rng.uniform(size=n) < 0.25 + 0.5 * latent).astype(int)
        write_dataset_csv(mx.Dataset(mx.AlphabetSpec(p, 2), np.column_stack([x, y])),
                          INPUTS / f"wide_p{p}_m2.csv")  # fmt: skip
    crlf = (INPUTS / "wide_p22_m2.csv").read_bytes()
    (INPUTS / "wide_p22_m2_lf.csv").write_bytes(crlf.replace(b"\r\n", b"\n").rstrip(b"\n"))
    # p=4, m=5, 300 rows: the features use 2, 3, 4 and 3 of the five labels.
    rng = np.random.default_rng(4)
    used = [[0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 2, 4]]
    x = np.column_stack([rng.choice(labels, size=300) for labels in used])
    y = (rng.uniform(size=300) < 0.2 + 0.15 * (x[:, 0] + (x[:, 1] == 2))).astype(int)
    write_dataset_csv(mx.Dataset(mx.AlphabetSpec(4, 5), np.column_stack([x, y])),
                      INPUTS / "mixed_labels.csv")  # fmt: skip
    m12 = mx.sample_dataset(mx.random_joint(mx.AlphabetSpec(2, 12), seed=0), n=400, seed=0)
    write_dataset_csv(m12, INPUTS / "data_m12.csv")

    (INPUTS / "generic.csv").write_text("x,y,prob\n0,0,0.5\n1,1,0.25\n2,0,0.25\n")
    (INPUTS / "moments_3.json").write_text(
        json.dumps({"mu": [0, 0, 0], "lambda": [1, 0.5, 0.6, 0.5, 1, 0.3, 0.6, 0.3, 1]}) + "\n"
    )
    degenerate = mx.joint_from_table(mx.AlphabetSpec(1, 2), [((0,), 1, 0.5), ((1,), 1, 0.5)])
    write_joint_csv(degenerate, INPUTS / "degenerate.csv")
    (INPUTS / "garbage.csv").write_text("x1,y,prob\n0,0,not_a_number\n")
    (INPUTS / "stray_label.csv").write_text("x1,x2,y\n0,1,0\n1,0,1\n100000,1,1\n")
    (INPUTS / "ragged.csv").write_text("x1,x2,y\n0,1,0\n1,0\n")
    (INPUTS / "float_label.csv").write_text("x1,x2,y\n0,1,0\n1.5,0,1\n")
    (INPUTS / "stray_generic.csv").write_text("x,y,prob\n0,0,0.5\n1099511627776,1,0.5\n")
    bad = json.loads((INPUTS / "nonadditive.json").read_text())
    bad["xy"]["1"] = [0.5, 0.5, 0.5, 0.5]
    (INPUTS / "inconsistent.json").write_text(json.dumps(bad, sort_keys=True) + "\n")
    bad["xy"]["1"] = ["a", 0.25, 0.25, 0.25]
    (INPUTS / "non_number.json").write_text(json.dumps(bad, sort_keys=True) + "\n")
    fractional = json.loads((INPUTS / "nonadditive.json").read_text())
    fractional["p"] = 2.7
    (INPUTS / "fractional_p.json").write_text(json.dumps(fractional, sort_keys=True) + "\n")
    (INPUTS / "moments_2d_mu.json").write_text(
        json.dumps({"mu": [[0, 0], [0, 0]], "lambda": [1, 0.5, 0.5, 1]}) + "\n"
    )
    (INPUTS / "latin1.csv").write_bytes("x1,x2,y\n0,1,0\n1,0,1 \u00e9\n".encode("latin-1"))
    # Pairwise-consistent tables whose Q is indefinite: three binary
    # features, each pair always unequal.
    neq = np.array([[0.0, 0.5], [0.5, 0.0]])
    xx = {(i, j): neq for i in range(3) for j in range(3) if i != j}
    triangle = mx.PairwiseMarginalSet(
        mx.AlphabetSpec(3, 2), xx, np.full((3, 2, 2), 0.25), np.full((3, 2), 0.5)
    )
    write_marginals_json(triangle, INPUTS / "indefinite.json")
    # Pairwise tables, each consistent with the others, that no distribution
    # has: three uniform binary features, each pair equal with probability
    # 0.275, every xy table [[0.3, 0.2], [0.2, 0.3]]; gamma is -0.05.
    agree = np.array([[0.1375, 0.3625], [0.3625, 0.1375]])
    xx = {(i, j): agree for i in range(3) for j in range(3) if i != j}
    xy = np.tile([[0.3, 0.2], [0.2, 0.3]], (3, 1, 1))
    negative = mx.PairwiseMarginalSet(mx.AlphabetSpec(3, 2), xx, xy, np.full((3, 2), 0.5))
    write_marginals_json(negative, INPUTS / "negative_gamma.json")

    # The cli_small inputs, as the benchmark's set-up writes them for seed 11.
    sys.path.insert(0, str(HERE.parent / "bench"))
    from workloads import CliSmall

    with tempfile.TemporaryDirectory() as tmp:
        workload = CliSmall(Path(tmp), seed=11, toy=False, env={})
        workload.setup()
        for name in ("fixture.csv", "fixture.json", "additive.csv", "moments.json"):
            shutil.copy(Path(tmp) / name, INPUTS / f"cli_{name}")
    probe_seed = CASES["cli_small_probe_uniform"][-1]
    if str(workload.probe_seed) != probe_seed:
        raise SystemExit(f"cli_small probe seed is {workload.probe_seed}, CASES has {probe_seed}")


def write_records():
    """Run every case on a copy of the inputs and rewrite ``records/``."""
    shutil.rmtree(RECORDS, ignore_errors=True)
    RECORDS.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "inputs"
        shutil.copytree(INPUTS, work)
        for name, argv in CASES.items():
            record = run_case(argv, work)
            text = json.dumps(record, indent=1, sort_keys=True) + "\n"
            (RECORDS / f"{name}.json").write_text(text)


def check_script(names) -> bool:
    """Run the named cases through :func:`run_script` on a copy of the
    inputs, report each, and tell whether all match their records."""
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "inputs"
        shutil.copytree(INPUTS, work)
        for name in names:
            expected = json.loads((RECORDS / f"{name}.json").read_text())
            same = run_script(CASES[name], work) == expected
            print(f"{name}: {'identical' if same else 'differs from its record'}")
            ok &= same
    return ok


def _fields(record: dict) -> list:
    """``(path, value, numeric)`` triples of a record.  The report on stdout
    is split into its leaves (a list's items share its path) and the
    ``prob`` column of a written CSV into numbers; ``numeric`` marks those
    numbers, everything else is compared as it is."""
    fields = [(key, record[key], False) for key in ("argv", "code", "stderr")]

    def leaves(obj, path):
        if isinstance(obj, dict):
            for key in sorted(obj):
                leaves(obj[key], f"{path}.{key}")
        elif isinstance(obj, list):
            for item in obj:
                leaves(item, path)
        else:
            numeric = isinstance(obj, (int, float)) and not isinstance(obj, bool)
            fields.append((path, obj, numeric))

    try:
        leaves(json.loads(record["stdout"]), "stdout")
    except ValueError:
        fields.append(("stdout", record["stdout"], False))
    if "out" in record:
        # prob is the last column; the rest of each line, line ends included,
        # is compared as text
        header, *rows = record["out"].split("\n")
        skeleton = [header]
        for row in rows:
            head, _, tail = row.rpartition(",")
            prob = tail.rstrip("\r")
            if prob:
                fields.append(("out.prob", float(prob), True))
            skeleton.append(f"{head},#{tail[len(prob):]}" if head else row)
        fields.append(("out", "\n".join(skeleton), False))
    return fields


def diff_records() -> bool:
    """Print, for each case whose current record differs from the stored one,
    the largest absolute change of each numeric field; tell whether nothing
    but numbers moved."""
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "inputs"
        shutil.copytree(INPUTS, work)
        for name, argv in CASES.items():
            stored = RECORDS / f"{name}.json"
            if not stored.exists():
                print(f"{name}: no record")
                ok = False
                continue
            new = run_case(argv, work)
            old = json.loads(stored.read_text())
            if new == old:
                continue
            before, after = _fields(old), _fields(new)
            if [f[0] for f in before] != [f[0] for f in after]:
                print(f"{name}: the layout of the record moved")
                ok = False
                continue
            change, moved = {}, []
            for (field, a, numeric), (_, b, numeric_b) in zip(before, after):
                if numeric and numeric_b:
                    change[field] = max(change.get(field, 0.0), abs(b - a))
                elif a != b and field not in moved:
                    moved.append(field)
            numbers = ", ".join(f"{k} {v:.2g}" for k, v in change.items() if v > 0)
            print(f"{name}: {numbers or 'no numeric change'}")
            for field in moved:
                print(f"  {field} moved")
            ok &= not moved
    return ok


USAGE = "usage: regen_golden.py [--inputs | --diff | --check-script NAME [NAME ...]]\n"


def main(argv) -> int:
    """Rewrite the records (and with ``--inputs`` the inputs first), print
    ``--diff``, or run ``--check-script`` on known case names.  Any other
    arguments print the usage and return 2 without writing anything."""
    if argv in ([], ["--inputs"]):
        if argv:
            write_inputs()
        write_records()
        return 0
    if argv == ["--diff"]:
        return 0 if diff_records() else 1
    unknown = []
    if argv[:1] == ["--check-script"]:
        unknown = [name for name in argv[1:] if name not in CASES]
        if len(argv) > 1 and not unknown:
            return 0 if check_script(argv[1:]) else 1
    sys.stderr.write(USAGE + "".join(f"unknown case: {name}\n" for name in unknown))
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
