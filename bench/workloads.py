"""The four benchmark workloads: inputs from a seed, the ops, and their checks.

Inputs are drawn with numpy from ``--seed`` and written with the benchmark's
own writers; the program sees only the files (or, for ``marginal_sweep``,
the marginal-set objects built from the drawn tables).  Each op's output is
checked against ``reference``, which never calls maxcorr.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import maxcorr
import maxcorr.cli
import maxcorr.lowerbound
import maxcorr.tightness
import reference as ref
from reference import near, require
from spans import merge

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    """One unit of work.  ``run(op_id, tracer)`` returns the raw output;
    ``check(output)`` raises :class:`CheckFailed` when it is wrong."""

    kind: str
    run: Callable
    check: Callable


def in_process(kind: str, fn: Callable, check: Callable) -> Op:
    def run(op_id, tracer):
        if tracer is None:
            return fn(op_id)
        return tracer.run_op(op_id, kind, lambda: fn(op_id))

    return Op(kind, run, check)


def run_cli(argv: list) -> tuple:
    """``maxcorr.cli.main`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = maxcorr.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def report_of(output, code: int = 0) -> dict:
    got, stdout, stderr = output
    require(got == code, f"exit code {got}, expected {code}: {stderr.strip()[:200]}")
    return json.loads(stdout)["results"]


# ---------------------------------------------------------------------------
# input generation and writers
# ---------------------------------------------------------------------------


def full_support_px(rng, n: int) -> np.ndarray:
    """A non-uniform distribution with every state positive."""
    w = rng.gamma(2.0, size=n)
    return w / w.sum()


def additive_joint(rng, p: int, m: int, px: np.ndarray, lo=0.1, hi=0.9) -> np.ndarray:
    """(m^p, 2) table with P(X) = px and E[Y|X] = sum_i f_i(x_i) spanning [lo, hi]."""
    f = rng.uniform(size=(p, m))
    f -= f.min(axis=1, keepdims=True)
    f *= (hi - lo) / f.max(axis=1).sum()
    cond = lo + f[np.arange(p), ref.states(p, m)].sum(axis=1)
    return np.stack([(1.0 - cond) * px, cond * px], axis=1)


def write_joint_csv(prob: np.ndarray, p: int, m: int, path: Path):
    lab = ref.states(p, m)
    rows = np.repeat(lab, 2, axis=0)
    ys = np.tile([0, 1], lab.shape[0])
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(p)] + ["y", "prob"]) + "\n")
        for x, y, v in zip(rows.tolist(), ys.tolist(), prob.reshape(-1).tolist()):
            fh.write(",".join(map(str, x)) + f",{y},{v!r}\n")


def read_joint_csv(path: Path, p: int, m: int) -> np.ndarray:
    """The benchmark's own reader, for checking files the program wrote."""
    cells = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    labels = cells[:, :p].astype(np.int64)
    idx = (labels * (m ** np.arange(p))).sum(axis=1)
    prob = np.zeros((m**p, 2))
    prob[idx, cells[:, p].astype(np.int64)] = cells[:, p + 1]
    return prob


def marginals_json(mg: ref.Marginals) -> dict:
    return {
        "p": mg.p,
        "m": mg.m,
        "xx": {f"{i + 1},{j + 1}": tab.reshape(-1).tolist() for (i, j), tab in mg.xx.items()},
        "xy": {str(i + 1): mg.xy[i].reshape(-1).tolist() for i in range(mg.p)},
    }


def program_marginals(mg: ref.Marginals):
    """The same marginals as the program's PairwiseMarginalSet."""
    xx = {}
    for (i, j), tab in mg.xx.items():
        xx[(i, j)] = tab
        xx[(j, i)] = tab.T
    return maxcorr.PairwiseMarginalSet(maxcorr.AlphabetSpec(mg.p, mg.m), xx, mg.xy, mg.px)


def expected_for_joint(prob: np.ndarray, p: int, m: int) -> ref.Expected:
    mg = ref.joint_marginals(prob, p, m)
    return ref.expected(mg, ref.correlation_ratio(prob.sum(axis=1), prob[:, 1]))


# ---------------------------------------------------------------------------
# shared checks on CLI reports
# ---------------------------------------------------------------------------


def check_oracle(output, exp: ref.Expected):
    res = report_of(output)
    near("rho vs hgr_binary", res["rho"], res["rho_cross_check"], ref.TOL_ROUTES)
    near("rho vs correlation ratio", res["rho"], exp.rho, ref.TOL_ROUTES)
    require(exp.rho_lb <= res["rho"] + ref.TOL_VALUE, "oracle rho below the bound")


def check_lower_bound(output, exp: ref.Expected):
    res = report_of(output)
    ref.check_bound(exp, res["gamma_lb_closed"], res["gamma_lb_iterative"], res["rho_lb"])


def check_tight(output, exp: ref.Expected, p: int, m: int):
    res = report_of(output)
    ref.check_certificate(exp, p, m, res["verdict"], res["lp_value"], res["z_star"])
    near("gamma_lb vs reference", res["gamma_lb"], exp.gamma, ref.TOL_VALUE)


def check_construct(output, exp: ref.Expected, base: np.ndarray, p: int, m: int):
    """Marginals kept at 1e-9 and hgr of the constructed joint equal to
    rho_lb at 1e-8, read back from the written file."""
    res = report_of(output)
    out = Path(res["out"])
    try:
        built = read_joint_csv(out, p, m)
    finally:
        out.unlink(missing_ok=True)
    want, got = ref.joint_marginals(base, p, m), ref.joint_marginals(built, p, m)
    worst = max(
        float(np.abs(got.xy - want.xy).max()),
        max((float(np.abs(got.xx[k] - want.xx[k]).max()) for k in want.xx), default=0.0),
    )
    require(worst <= ref.TOL_MARGINALS, f"constructed marginals drift by {worst}")
    require(res["marginal_match_max_err"] <= ref.TOL_MARGINALS, "reported marginal drift")
    rho_built = ref.correlation_ratio(built.sum(axis=1), built[:, 1])
    near("hgr of the construction vs rho_lb", rho_built, exp.rho_lb, ref.TOL_CONSTRUCTION)
    near("reported hgr_construction vs rho_lb", res["hgr_construction"], exp.rho_lb, ref.TOL_CONSTRUCTION)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: ``setup`` makes the inputs (timed as set-up), ``prepare_checks``
    derives the reference values (untimed), ``cycle`` lists one round of ops."""

    name = ""
    trace_cycles = 1

    def __init__(self, workdir: Path, seed: int, toy: bool, env: dict):
        self.workdir = workdir
        self.seed = seed
        self.toy = toy
        self.env = env

    def rng(self, stream: int):
        return np.random.default_rng((self.seed, stream))

    def setup(self):
        raise NotImplementedError

    def prepare_checks(self):
        raise NotImplementedError

    def cycle(self) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        return self.cycle()

    def reset_peak(self):
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def out_path(self, op_id: int) -> str:
        return str(self.workdir / f"constructed-{op_id}.csv")


class CliSmall(Workload):
    """All six subcommands as fresh ``python -m maxcorr.cli`` processes."""

    name = "cli_small"

    FIXTURE = {  # (x1, x2, y) -> probability: the nonadditive singleton example
        (0, 0, 0): 0.0, (0, 0, 1): 0.1, (1, 0, 0): 0.2, (1, 0, 1): 0.2,
        (0, 1, 0): 0.1, (0, 1, 1): 0.3, (1, 1, 0): 0.1, (1, 1, 1): 0.0,
    }  # fmt: skip

    def setup(self):
        w = self.workdir
        self.fixture = np.zeros((4, 2))
        for (x1, x2, y), v in self.FIXTURE.items():
            self.fixture[x1 + 2 * x2, y] = v
        write_joint_csv(self.fixture, 2, 2, w / "fixture.csv")
        with open(w / "fixture.json", "w") as fh:
            json.dump(marginals_json(ref.joint_marginals(self.fixture, 2, 2)), fh)

        rng = self.rng(1)
        self.additive = additive_joint(rng, 3, 2, full_support_px(rng, 8))
        write_joint_csv(self.additive, 3, 2, w / "additive.csv")

        a = rng.standard_normal((4, 4))
        mu = rng.standard_normal(4)
        self.sigma = a @ a.T + 0.1 * np.eye(4)
        lam = self.sigma + np.outer(mu, mu)
        with open(w / "moments.json", "w") as fh:
            json.dump({"mu": mu.tolist(), "lambda": lam.reshape(-1).tolist()}, fh)
        self.probe_seed = int(rng.integers(0, 2**31))
        self.peaks: list = []

    def prepare_checks(self):
        self.fixture_exp = expected_for_joint(self.fixture, 2, 2)
        self.additive_exp = expected_for_joint(self.additive, 3, 2)
        sxx, sxy = self.sigma[:3, :3], self.sigma[:3, 3]
        self.a = np.linalg.solve(sxx, sxy)
        self.min_hgr = float(np.sqrt(self.a @ sxx @ self.a / self.sigma[3, 3]))

    def child(self, kind: str, argv: list, writes_out: bool = False):
        """An op that runs the CLI in a fresh process, one at a time."""

        def run(op_id, tracer):
            args = list(argv)
            if writes_out:
                args += ["--out", self.out_path(op_id)]
            spans_path = self.workdir / f"spans-{op_id}.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "maxcorr.cli", *args]
            else:
                cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(spans_path), kind, "--", *args]
            stdout_path = self.workdir / "child.out"
            stderr_path = self.workdir / "child.err"
            with open(stdout_path, "w+b") as out, open(stderr_path, "w+b") as err:
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.peaks.append(usage.ru_maxrss / 1024.0)
            if tracer is not None and spans_path.exists():
                with open(spans_path) as fh:
                    merge(tracer.spans, json.load(fh), op_id)
                spans_path.unlink()
            return proc.returncode, stdout_path.read_text(), stderr_path.read_text()

        return run

    def cycle(self):
        w = str(self.workdir)
        probe = ["probe-uniform", "--p", "2", "--m", "2", "--eps", "0.01",
                 "--trials", "20", "--seed", str(self.probe_seed)]  # fmt: skip
        return [
            Op("oracle", self.child("oracle", ["oracle", "--joint", f"{w}/fixture.csv"]),
               lambda out: check_oracle(out, self.fixture_exp)),
            Op("lower-bound", self.child("lower-bound", ["lower-bound", "--marginals", f"{w}/fixture.json"]),
               lambda out: check_lower_bound(out, self.fixture_exp)),
            Op("check-tight", self.child("check-tight", ["check-tight", "--joint", f"{w}/fixture.csv"]),
               lambda out: check_tight(out, self.fixture_exp, 2, 2)),
            Op("construct", self.child("construct", ["construct", "--joint", f"{w}/additive.csv"], True),
               lambda out: check_construct(out, self.additive_exp, self.additive, 3, 2)),
            Op("gaussian", self.child("gaussian", ["gaussian", "--moments", f"{w}/moments.json"]),
               self.check_gaussian),
            Op("probe-uniform", self.child("probe-uniform", probe), self.check_probe),
        ]  # fmt: skip

    def warmup(self):
        # One start-up brings the interpreter and libraries into the page
        # cache; a full cycle of processes would only repeat that.
        return [op for op in self.cycle() if op.kind == "gaussian"]

    def check_gaussian(self, output):
        res = report_of(output)
        near("min_hgr vs closed form", res["min_hgr"], self.min_hgr, ref.TOL_ROUTES)
        require(np.allclose(res["a"], self.a, atol=1e-8, rtol=0), "regression vector differs")

    def check_probe(self, output):
        # Perturbations of the uniform joint this small keep the class Tight.
        res = report_of(output)
        require(res["fraction_tight"] == 1.0, f"fraction_tight {res['fraction_tight']} != 1")

    def reset_peak(self):
        self.peaks = []

    def peak_rss_mb(self) -> float:
        return max(self.peaks)


class DenseJoint(Workload):
    """oracle / lower-bound / check-tight / construct on one dense joint CSV."""

    name = "dense_joint"
    trace_cycles = 2

    def setup(self):
        self.p, self.m = (3, 2) if self.toy else (6, 4)
        rng = self.rng(2)
        self.prob = additive_joint(rng, self.p, self.m, full_support_px(rng, self.m**self.p))
        self.path = str(self.workdir / "joint.csv")
        write_joint_csv(self.prob, self.p, self.m, Path(self.path))

    def prepare_checks(self):
        self.exp = expected_for_joint(self.prob, self.p, self.m)
        require(self.exp.verdict == "Tight", "an additive joint must give a Tight class")

    def cycle(self):
        path, p, m = self.path, self.p, self.m
        return [
            in_process("oracle", lambda i: run_cli(["oracle", "--joint", path]),
                       lambda out: check_oracle(out, self.exp)),
            in_process("lower-bound", lambda i: run_cli(["lower-bound", "--joint", path]),
                       lambda out: check_lower_bound(out, self.exp)),
            in_process("check-tight", lambda i: run_cli(["check-tight", "--joint", path]),
                       lambda out: check_tight(out, self.exp, p, m)),
            in_process("construct", lambda i: run_cli(["construct", "--joint", path, "--out", self.out_path(i)]),
                       lambda out: check_construct(out, self.exp, self.prob, p, m)),
        ]  # fmt: skip


class MarginalSweep(Workload):
    """Library calls over in-memory pairwise marginal sets of mixed size."""

    name = "marginal_sweep"
    trace_cycles = 16

    SHAPES = [(2, 2), (2, 3), (3, 3), (4, 2), (4, 3), (5, 3), (6, 3), (8, 3)]
    # Per shape: a quarter of the sets are degenerate (nullity(Q) > p-1).
    KINDS = ["additive", "random", "additive", "random", "additive", "random", "zero_label", "copy"]

    def draw(self, rng, p: int, m: int, kind: str) -> np.ndarray:
        n = m**p
        if kind in ("additive", "zero_label"):
            prob = additive_joint(rng, p, m, full_support_px(rng, n))
        else:
            prob = rng.dirichlet(np.ones(2 * n)).reshape(n, 2)
        lab = ref.states(p, m)
        if kind == "zero_label":  # one label of one feature never occurs
            prob[lab[:, rng.integers(p)] == m - 1] = 0.0
        elif kind == "copy":  # feature j is a copy of feature i
            i, j = rng.choice(p, size=2, replace=False)
            prob[lab[:, i] != lab[:, j]] = 0.0
        return prob / prob.sum()

    def setup(self):
        rng = self.rng(3)
        if self.toy:
            plan = list(zip(self.SHAPES, self.KINDS))
        else:
            plan = [(shape, kind) for shape in self.SHAPES for kind in self.KINDS]
        self.sets = []
        for (p, m), kind in plan:
            prob = self.draw(rng, p, m, kind)
            mg = ref.joint_marginals(prob, p, m)
            self.sets.append((kind, prob, mg, program_marginals(mg)))

    def prepare_checks(self):
        self.exps = [
            ref.expected(mg, ref.correlation_ratio(prob.sum(axis=1), prob[:, 1]))
            for _, prob, mg, _ in self.sets
        ]

    @staticmethod
    def certify(marginals):
        lb, tt = maxcorr.lowerbound, maxcorr.tightness
        system = lb.assemble_qd(marginals)
        closed = lb.gamma_lb_closed(system)
        iterative = lb.gamma_lb_iterative(system)
        bound = lb.rho_lb(system)
        cert = tt.check_tightness(system)
        return closed, iterative.gamma_lb, bound, cert.verdict, cert.lp_value, cert.z_star

    def cycle(self):
        return [
            in_process(kind, lambda i, mk=marginals: self.certify(mk), lambda out, k=k: self.check(k, out))
            for k, (kind, _, _, marginals) in enumerate(self.sets)
        ]

    def check(self, k: int, out):
        closed, iterative, bound, verdict, lp_value, z_star = out
        mg, exp = self.sets[k][2], self.exps[k]
        ref.check_bound(exp, closed, iterative, bound)
        ref.check_certificate(exp, mg.p, mg.m, verdict, lp_value, z_star)


class WideDataset(Workload):
    """lower-bound / check-tight on a dataset above the dense cap."""

    name = "wide_dataset"
    trace_cycles = 2

    CHUNK = 5000  # rows drawn at a time, so set-up stays small beside the program's peak RSS

    def setup(self):
        n, p, m = (400, 12, 4) if self.toy else (50_000, 24, 5)
        rng = self.rng(4)
        strength = rng.uniform(0.3, 0.8, size=p)
        self.rows = np.empty((n, p + 1), dtype=np.int8)
        for lo in range(0, n, self.CHUNK):
            k = min(self.CHUNK, n - lo)
            latent = rng.integers(0, m, size=k)
            copy = rng.uniform(size=(k, p)) < strength
            self.rows[lo : lo + k, :p] = np.where(copy, latent[:, None], rng.integers(0, m, size=(k, p)))
            self.rows[lo : lo + k, p] = rng.uniform(size=k) < 0.2 + 0.6 * latent / (m - 1)
        self.path = str(self.workdir / "data.csv")
        header = ",".join([f"x{i + 1}" for i in range(p)] + ["y"])
        np.savetxt(self.path, self.rows, fmt="%d", delimiter=",", header=header, comments="")

    def prepare_checks(self):
        rows = self.rows.astype(np.int64)
        n, p = rows.shape[0], rows.shape[1] - 1
        self.p, self.m = p, max(2, int(rows[:, :p].max()) + 1)
        _, group = np.unique(rows[:, :p], axis=0, return_inverse=True)
        group = group.reshape(-1)
        px = np.bincount(group) / n
        p1x = np.bincount(group, weights=rows[:, p]) / n
        self.exp = ref.expected(ref.dataset_marginals(rows, self.m), ref.correlation_ratio(px, p1x))

    def cycle(self):
        path = self.path
        return [
            in_process("lower-bound", lambda i: run_cli(["lower-bound", "--data", path]),
                       lambda out: check_lower_bound(out, self.exp)),
            in_process("check-tight", lambda i: run_cli(["check-tight", "--data", path]),
                       lambda out: check_tight(out, self.exp, self.p, self.m)),
        ]  # fmt: skip


WORKLOADS = {w.name: w for w in (CliSmall, DenseJoint, MarginalSweep, WideDataset)}
