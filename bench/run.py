"""maxcorr benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  All load comes from this one process as a closed loop
with one client: an op starts only when the previous one has finished (in
``cli_small`` the op is a child process, and children run one at a time).

``--trace 0`` sets up the inputs several times (``setup_s`` is the median),
runs whole cycles of ops for ``--seconds``, checks every output, and prints
the end-to-end metrics.  ``--trace 1`` alternates a fixed number of
untraced cycles with the same cycles run with every maxcorr function
wrapped, and prints the per-layer metrics and the tracing overhead.  ``--smoke`` runs every workload
at toy size, untraced and traced, and fails only on a wrong output or an
empty run.  The last line of stdout is the result object.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, which children inherit.  On a 2-core VM an idle OpenBLAS
# worker spinning on the second core slowed the Python-level parsing by up
# to a quarter and widened the run-to-run spread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3
TAIL_SAMPLES = 10  # the tail percentile has at least this many samples above it


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds(env: dict) -> float:
    """Time of ``import maxcorr`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import maxcorr; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(proc.stdout.strip())


def machine(seed: int) -> dict:
    import numpy
    import scipy

    info = {"nproc": NPROC, "cpu_model": None, "mem_total_mb": None, "seed": seed}
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                info["mem_total_mb"] = int(line.split()[1]) // 1024
                break
    info.update(
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=blas_info(),
    )
    return info


def blas_info() -> dict:
    import ctypes

    import numpy

    info = {"library": None, "version": None, "threads": None, "threads_requested": BLAS_THREADS}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(library=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def execute(ops: list, records: list, tracer=None):
    """Run ``ops`` in order, appending (op, seconds, output, error) records."""
    for op in ops:
        op_id = len(records)
        start = perf_counter()
        try:
            output, error = op.run(op_id, tracer), None
        except Exception as exc:  # an op that raises counts as failed
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append((op, perf_counter() - start, output, error))


def check_all(records: list) -> list:
    """Check every output once; returns the failure messages."""
    from reference import CheckFailed

    failures = []
    for op, _, output, error in records:
        if error is None:
            try:
                op.check(output)
            except (CheckFailed, ValueError, KeyError, TypeError, OSError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.kind}: {error}"[:300])
    return failures


def tail(durations: list) -> tuple:
    """Highest percentile with at least TAIL_SAMPLES samples above it."""
    ordered = sorted(durations)
    idx = max(len(ordered) - TAIL_SAMPLES - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(wl, seconds: float, env: dict) -> tuple:
    setups = []
    for _ in range(SETUP_ROUNDS):
        imported = import_seconds(env)
        start = perf_counter()
        wl.setup()
        execute(wl.warmup(), [])
        setups.append(imported + perf_counter() - start)
    cycle = wl.cycle()

    wl.reset_peak()
    records: list = []
    cycles = 0
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds:
        execute(cycle, records)
        cycles += 1
    wall = perf_counter() - start
    # Read before the reference values are derived, so the peak is the
    # program's: imports, its inputs and the ops.
    peak_rss_mb = wl.peak_rss_mb()
    wl.prepare_checks()
    failures = check_all(records)

    n = len(records)
    durations = [r[1] for r in records]
    tail_s, tail_pct, above = tail(durations)
    metrics = {
        "ops_per_s": metric(n / wall, "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(durations), "ms"),
        "op_tail_ms": metric(1e3 * tail_s, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ops_ok_frac": metric((n - len(failures)) / n, "ratio"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    detail = {
        "ops": n,
        "cycles": cycles,
        "wall_s": wall,
        "op_tail": {"percentile": tail_pct, "samples": n, "samples_above": above},
        "setup_rounds_s": setups,
        "by_kind_p50_ms": {
            kind: 1e3 * statistics.median(d for op, d, _, _ in records if op.kind == kind)
            for kind in dict.fromkeys(op.kind for op in cycle)
        },
    }
    return n, failures, metrics, detail


def run_traced(wl, env: dict, spans_out: Path) -> tuple:
    from spans import Summary, Tracer, import_times, layer_metrics

    wl.setup()
    wl.prepare_checks()
    cycle = wl.cycle()
    execute(wl.warmup(), [])

    # Untraced and traced cycles alternate, so drift in the machine's speed
    # falls on both sides of the overhead ratio.  One record list keeps op
    # ids (and the files ops write) distinct.
    records: list = []
    tracer = Tracer()
    plain_s = traced_s = 0.0
    n = 0
    for _ in range(wl.trace_cycles):
        start = perf_counter()
        execute(cycle, records)
        plain_s += perf_counter() - start
        tracer.install()
        try:
            start = perf_counter()
            execute(cycle, records, tracer)
            traced_s += perf_counter() - start
        finally:
            tracer.uninstall()
        n += len(cycle)
    failures = check_all(records)

    layers = layer_metrics(tracer.spans, n)
    layers.update(import_times(env))
    layers["trace.overhead"] = (traced_s / plain_s, "ratio")
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    detail = {
        "trace_overhead": {"traced_s": traced_s, "untraced_s": plain_s, "base_ops": n},
        "by_kind": Summary(tracer.spans).by_op_kind(),
    }
    with open(spans_out, "w") as fh:
        json.dump({"detail": detail, "spans": tracer.spans}, fh)
    return len(records), failures, metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    from workloads import WORKLOADS

    env = child_env()
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](workdir, seed, toy, env)
        if trace:
            spans_out = ROOT / ".bench_work" / f"{name}-seed{seed}-spans.json"
            attempted, failures, metrics, detail = run_traced(wl, env, spans_out)
        else:
            attempted, failures, metrics, detail = run_timed(wl, seconds, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(workload=name, trace=trace, failures=failures[:10])
    print(json.dumps({"detail": detail}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload at toy size, untraced and traced: outputs correct, ops > 0."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=0, seconds=0.0, trace=trace, toy=True)
            good = result["correct"] and result["attempted"] > 0
            ok = ok and good
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"({result['attempted']} ops, {result['failed']} failed)")  # fmt: skip
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size correctness run of every workload")
    args = parser.parse_args(argv)

    if not (SRC / "maxcorr" / "__init__.py").is_file():
        sys.stderr.write(f"no maxcorr sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    print(json.dumps({"machine": machine(args.seed)}))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
