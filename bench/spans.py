"""Span recorder for the traced run, and the per-layer metrics built from it.

``Tracer.install`` replaces every public function of every ``maxcorr``
module with a wrapper, at each place the function is looked up: a function
imported into another module (``maxcorr.cli.hgr_svd``,
``maxcorr.tightness.hgr_svd``) is replaced there as well as where it is
defined, and internal callers such as ``pseudoinverse -> svd`` go through the
module global, so they are caught too.  Each call records a span: name,
start, end, parent span and the op it belongs to.  Spans stay in memory and
are written out when the run ends.

A layer's self time is its spans' durations minus the time their child spans
cover.  Peak allocation is measured with ``tracemalloc`` inside the few spans
listed in ``PEAK_SPANS`` only, so the rest of the run is not slowed by it.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

#: Spans whose peak allocation is measured.
PEAK_SPANS = ("hgr.hgr_svd", "tightness.is_additive")

# Span record fields.
NAME, START, END, PARENT, OP, PEAK, NBYTES = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str, nbytes: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0, nbytes])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, kind: str, fn):
        """Run ``fn()`` as the root span ``op.<kind>`` of op ``op_id``."""
        self.op = op_id
        idx = self._enter("op." + kind)
        try:
            return fn()
        finally:
            self._exit(idx)

    def _wrap(self, fn, name: str):
        peak = name in PEAK_SPANS
        reads_file = name.startswith("io.read_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nbytes = os.path.getsize(args[0]) if reads_file and args else 0
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            idx = self._enter(name, nbytes)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
                if measure:
                    self.spans[idx][PEAK] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        return wrapper

    def install(self):
        """Wrap the public functions of every loaded maxcorr module."""
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "maxcorr" and not modname.startswith("maxcorr."):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("maxcorr."):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.split(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()


def merge(spans: list, extra: list, op_id: int) -> None:
    """Append spans recorded in another process as op ``op_id``."""
    offset = len(spans)
    for s in extra:
        s = list(s)
        s[PARENT] = s[PARENT] + offset if s[PARENT] >= 0 else -1
        s[OP] = op_id
        spans.append(s)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


class Summary:
    """Totals over a list of spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def _outermost(self, names) -> list:
        """Indices of spans named in ``names`` with no ancestor in ``names``."""
        out = []
        for i, s in enumerate(self.spans):
            if s[NAME] not in names:
                continue
            parent = s[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                out.append(i)
        return out

    def ms(self, *names) -> float:
        """Wall time covered by the named spans, nested repeats counted once."""
        return 1e3 * sum(self.dur[i] for i in self._outermost(set(names)))

    def self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return 1e3 * sum(t for s, t in zip(self.spans, self.self_time) if s[NAME].startswith(prefix))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def calls_under(self, name: str, ancestor: str) -> int:
        count = 0
        for s in self.spans:
            if s[NAME] != name:
                continue
            parent = s[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != ancestor:
                parent = self.spans[parent][PARENT]
            count += parent >= 0
        return count

    def peak_mb(self, name: str) -> float:
        return max((s[PEAK] for s in self.spans if s[NAME] == name), default=0) / 2**20

    def nbytes(self) -> int:
        return sum(s[NBYTES] for s in self.spans)

    def by_op_kind(self, top: int = 4) -> dict:
        """Per op kind: op count, mean op time, and the functions with the
        most inclusive time (each name counted once per nesting chain)."""
        kinds: dict = {}
        for i, s in enumerate(self.spans):
            if s[PARENT] < 0 and s[NAME].startswith("op."):
                kinds.setdefault(s[NAME][3:], []).append(i)
        out = {}
        for kind, roots in kinds.items():
            ops = {self.spans[i][OP] for i in roots}
            total = sum(self.dur[i] for i in roots)
            names = {s[NAME] for s in self.spans if s[OP] in ops and not s[NAME].startswith("op.")}
            incl = {
                n: 1e3 * sum(self.dur[i] for i in self._outermost({n}) if self.spans[i][OP] in ops)
                for n in names
            }
            best = sorted(incl.items(), key=lambda kv: -kv[1])[:top]
            out[kind] = {
                "ops": len(roots),
                "op_ms": 1e3 * total / len(roots),
                "share_of_op": {n: round(v / (1e3 * total), 4) for n, v in best},
            }
        return out


def layer_metrics(spans: list, n_ops: int) -> dict:
    """The per-layer metrics, as totals over the traced ops."""
    t = Summary(spans)
    svd_calls = t.calls("numerics.svd")
    checks = t.calls("tightness.check_tightness")
    return {
        "cli.self_ms": (t.self_ms("cli"), "ms"),
        "io.dumps_ms": (t.ms("io.dumps_canonical"), "ms"),
        "io.read_joint_ms": (t.ms("io.read_joint_csv"), "ms"),
        "io.write_joint_ms": (t.ms("io.write_joint_csv"), "ms"),
        "io.read_dataset_ms": (t.ms("io.read_dataset_csv"), "ms"),
        "io.bytes_in": (t.nbytes(), "bytes"),
        "distributions.pairwise_ms": (
            t.ms("distributions.pairwise_from_joint", "distributions.pairwise_from_dataset"),
            "ms",
        ),
        "distributions.joint_build_ms": (t.ms("distributions.joint_from_table"), "ms"),
        "distributions.validate_ms": (t.ms("distributions.validate_marginals"), "ms"),
        "hgr.svd_ms": (t.ms("hgr.hgr_svd"), "ms"),
        "hgr.svd_peak_mb": (t.peak_mb("hgr.hgr_svd"), "MB"),
        "tightness.is_additive_ms": (t.ms("tightness.is_additive"), "ms"),
        "tightness.is_additive_peak_mb": (t.peak_mb("tightness.is_additive"), "MB"),
        "tightness.construct_ms": (t.ms("tightness.construct_additive"), "ms"),
        "tightness.check_ms": (t.ms("tightness.check_tightness"), "ms"),
        "tightness.lp_per_check": (
            t.calls_under("numerics.solve_lp", "tightness.check_tightness") / checks if checks else 0.0,
            "count",
        ),
        "numerics.svd_calls": (svd_calls, "count"),
        "numerics.svd_ms": (t.ms("numerics.svd"), "ms"),
        "numerics.svd_per_op": (svd_calls / n_ops, "count"),
        "numerics.lp_calls": (t.calls("numerics.solve_lp"), "count"),
        "numerics.lp_ms": (t.ms("numerics.solve_lp"), "ms"),
        "numerics.cg_ms": (t.ms("numerics.cg_minimum_norm"), "ms"),
        "lowerbound.assemble_ms": (t.ms("lowerbound.assemble_qd"), "ms"),
        "lowerbound.gamma_closed_ms": (t.ms("lowerbound.gamma_lb_closed"), "ms"),
        "lowerbound.gamma_iter_ms": (t.ms("lowerbound.gamma_lb_iterative"), "ms"),
        "gaussian.self_ms": (t.self_ms("gaussian"), "ms"),
    }


# ---------------------------------------------------------------------------
# import time
# ---------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(env: dict, repeats: int = 3) -> dict:
    """``import maxcorr`` under ``-X importtime`` in fresh processes.

    ``import.maxcorr_ms`` is the cumulative time of the ``maxcorr`` entry;
    ``import.scipy_ms`` is the self time of every ``scipy`` module, which is
    the share scipy adds whichever maxcorr module pulls it in.  Medians over
    ``repeats`` processes.
    """
    totals, scipy = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import maxcorr"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        own = sci = 0
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if not match:
                continue
            self_us, cumulative_us, _, name = match.groups()
            if name == "maxcorr":
                own = int(cumulative_us)
            if name == "scipy" or name.startswith("scipy."):
                sci += int(self_us)
        totals.append(own / 1e3)
        scipy.append(sci / 1e3)
    return {
        "import.maxcorr_ms": (statistics.median(totals), "ms"),
        "import.scipy_ms": (statistics.median(scipy), "ms"),
    }
