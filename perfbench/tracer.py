"""Span tracing of the ssgauss layers, installed from outside the package.

Each traced function is replaced, in the namespace its callers look it
up in, by a wrapper that records a span (name, start, end, parent, thread
and a few counts taken from its arguments or result).  Spans stay in
memory until the run ends; layer metrics, self times included, are
derived from them afterwards.  A name that no longer exists at some later
commit is recorded as absent and its metrics are left out; nothing else
changes.

Worker threads (sampler chunks under --threads) have no span of their own
open when they start, so their spans are parented to the innermost span
open in the main thread, which is the sample_batch call waiting on them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import threading
import time
import tracemalloc
from collections import defaultdict


def _points(b, result):
    return {"points": int(getattr(result, "size", 1))}


def _grid(b, result):
    # the normalized correlation does not depend on n, so a grid is (model, N)
    key = json.dumps(b["model"].describe(), sort_keys=True, default=str)
    return {"entries": int(b["N"]) ** 2, "grid": f"{key}|{int(b['N'])}"}


def _jitter(b, result):
    return {"jittered": int(result.jitter > 0.0)}


def _normals(b, result):
    return {"normals": int(b["count"])}


def _write_bytes(b, result):
    batch = b["batch"]
    return {"bytes": 32 + 8 * int(batch.M) * int(batch.N)}


def _table(b, result):
    self, y = b["self"], b["y"]
    size = int(getattr(y, "size", 1))
    return {"table_bytes": 8 * (self.q_max + 1) * size}


def _terms(b, result):
    return {"terms": int(b["M"])}


def _draws(b, result):
    return {"draws": int(b["B"]) * int(b["values"].size)}


def _flops(b, result):
    ic, t = b["ic"], b.get("t", 1.0)
    m = int(math.floor(ic.n * t))
    return {"flops": 2 * m**3}


# (owner in the namespace that calls it, attribute, span name, counts,
#  track memory).  The span name is the layer function, so one function
#  imported into several modules shares a name.
TRACED = [
    ("ssgauss.models:Model", "r", "models.r", _points, False),
    ("ssgauss.montecarlo", "increment_cov", "covgrid.increment_cov", _grid, False),
    ("ssgauss.sampler", "increment_cov", "covgrid.increment_cov", _grid, False),
    ("ssgauss.analysis", "increment_cov", "covgrid.increment_cov", _grid, False),
    ("ssgauss.montecarlo", "cholesky", "sampler.cholesky", _jitter, False),
    ("ssgauss.sampler", "cholesky", "sampler.cholesky", _jitter, False),
    ("ssgauss.montecarlo", "sample_batch", "sampler.sample_batch", None, False),
    ("ssgauss.sampler", "sample_batch", "sampler.sample_batch", None, False),
    ("ssgauss.sampler", "_replica_normals", "sampler.replica_normals", _normals, False),
    ("ssgauss.sampler", "normal_icdf", "sampler.normal_icdf", None, False),
    ("ssgauss.sampler", "write_batch", "sampler.write_batch", _write_bytes, False),
    ("ssgauss.hermite:HermiteFunction", "evaluate", "hermite.evaluate", _table, True),
    ("ssgauss.hermite", "builtin_family", "hermite.builtin_family", None, False),
    ("ssgauss.limitvar", "sigma_sq", "limitvar.sigma_sq", None, False),
    ("ssgauss.montecarlo", "sigma_sq", "limitvar.sigma_sq", None, False),
    ("ssgauss.limitvar", "sigma_q_sq", "limitvar.sigma_q_sq", None, False),
    ("ssgauss.analysis", "sigma_q_sq", "limitvar.sigma_q_sq", None, False),
    ("ssgauss.limitvar", "_partial_sum", "limitvar.partial_sum", _terms, False),
    ("ssgauss.montecarlo", "run_experiment", "montecarlo.run_experiment", None, False),
    ("ssgauss.montecarlo", "exact_variance_from_corr", "montecarlo.exact_variance_from_corr",
     None, False),
    ("ssgauss.montecarlo", "_bootstrap_moments", "montecarlo.bootstrap", _draws, False),
    ("ssgauss.montecarlo", "ks_test_normal", "montecarlo.ks_test", None, False),
    ("ssgauss.montecarlo", "exact_variance", "montecarlo.exact_variance", None, False),
    ("ssgauss.analysis", "run_all_checks", "analysis.run_all_checks", None, False),
    ("ssgauss.analysis", "contraction_report", "analysis.contraction_report", None, False),
    ("ssgauss.analysis", "contraction_norm", "analysis.contraction_norm", _flops, False),
    ("ssgauss.analysis", "tv_bound", "analysis.tv_bound", None, False),
    ("ssgauss.cli", "main", "cli.main", None, False),
]


# (metric, span name, reduction, unit); reductions are listed in
# Tracer.layer_metrics.
LAYER_METRICS = [
    ("models.r.points", "models.r", "points", "count"),
    ("models.r.s", "models.r", "s", "s"),
    ("covgrid.increment_cov.calls", "covgrid.increment_cov", "calls", "count"),
    ("covgrid.increment_cov.s", "covgrid.increment_cov", "s", "s"),
    ("covgrid.entries", "covgrid.increment_cov", "entries", "count"),
    ("covgrid.distinct_frac", "covgrid.increment_cov", "distinct", "frac"),
    ("sampler.cholesky.s", "sampler.cholesky", "s", "s"),
    ("sampler.cholesky.jittered", "sampler.cholesky", "jittered", "count"),
    ("sampler.normals.count", "sampler.replica_normals", "normals", "count"),
    ("sampler.replica_normals.s", "sampler.replica_normals", "s", "s"),
    ("sampler.normal_icdf.calls", "sampler.normal_icdf", "calls", "count"),
    ("sampler.normal_icdf.s", "sampler.normal_icdf", "s", "s"),
    ("sampler.sample_batch.self_s", "sampler.sample_batch", "self_s", "s"),
    ("sampler.write_batch.s", "sampler.write_batch", "s", "s"),
    ("sampler.write_batch.bytes", "sampler.write_batch", "bytes", "bytes"),
    ("hermite.evaluate.s", "hermite.evaluate", "s", "s"),
    ("hermite.evaluate.table_bytes", "hermite.evaluate", "table_bytes", "bytes"),
    ("hermite.evaluate.peak_mb", "hermite.evaluate", "peak_bytes", "MB"),
    ("limitvar.sigma_q_sq.calls", "limitvar.sigma_q_sq", "calls", "count"),
    ("limitvar.sigma_q_sq.failed", "limitvar.sigma_q_sq", "failed", "count"),
    ("limitvar.sigma_q_sq.s", "limitvar.sigma_q_sq", "s", "s"),
    ("limitvar.partial_sum.calls", "limitvar.partial_sum", "calls", "count"),
    ("limitvar.terms_evaluated", "limitvar.partial_sum", "terms", "count"),
    ("limitvar.certified_frac", "limitvar.sigma_q_sq", "certified", "frac"),
    ("montecarlo.run_experiment.self_s", "montecarlo.run_experiment", "self_s", "s"),
    ("montecarlo.bootstrap.s", "montecarlo.bootstrap", "s", "s"),
    ("montecarlo.bootstrap.draws", "montecarlo.bootstrap", "draws", "count"),
    ("montecarlo.ks_test.s", "montecarlo.ks_test", "s", "s"),
    ("montecarlo.exact_variance.s", "montecarlo.exact_variance", "s", "s"),
    ("analysis.contraction_norm.calls", "analysis.contraction_norm", "calls", "count"),
    ("analysis.contraction_norm.s", "analysis.contraction_norm", "s", "s"),
    ("analysis.contraction_flops", "analysis.contraction_norm", "flops", "flop"),
    ("analysis.tv_bound.s", "analysis.tv_bound", "s", "s"),
    ("analysis.run_all_checks.s", "analysis.run_all_checks", "s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; restores every original on remove()."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> dict:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(threading.main_thread().ident) or [None]
                parent = main[-1]
            span = {"id": len(self.spans), "name": name, "parent": parent, "thread": tid,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            self.spans.append(span)
            stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        with self._lock:
            self._stacks[span["thread"]].pop()

    def _wrap(self, original, name, count, track_memory):
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            measure = track_memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                if measure:
                    span["counts"]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(span)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"].update(count(bound.arguments, result))
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, count, track_memory in TRACED:
            try:
                target = _resolve(owner)
                original = getattr(target, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{owner}.{attr}")
                continue
            self._patches.append((target, attr, original))
            setattr(target, attr, self._wrap(original, name, count, track_memory))

    def remove(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)

    # -- derived metrics ----------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[int, float]:
        """Span duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for lo, hi in sorted(children[s["id"]]):
                lo, hi = max(lo, reach), min(hi, s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name -> (value, unit); see BENCHMARK.json.

        Each metric reduces the spans of one traced name: "s" is busy time
        (summed durations), "self_s" self time, "calls" the span count, a
        count key sums that count, "certified"/"failed" count spans that
        returned or raised NumericalError, "distinct" the distinct grids.
        A metric whose name is absent at this commit is left out.
        """
        by = defaultdict(list)
        for s in self.spans:
            by[s["name"]].append(s)
        selfs = self.self_times()
        present = {name for owner, attr, name, _, _ in TRACED
                   if f"{owner}.{attr}" not in self.absent}

        def reduce(spans, how):
            if how == "s":
                return sum(s["end"] - s["start"] for s in spans)
            if how == "self_s":
                return sum(selfs[s["id"]] for s in spans)
            if how == "calls":
                return len(spans)
            if how == "failed":
                return sum(s.get("error") == "NumericalError" for s in spans)
            if how == "certified":
                return sum("error" not in s for s in spans) / len(spans) if spans else 0.0
            if how == "distinct":
                return len({s["counts"]["grid"] for s in spans}) / len(spans) if spans else 0.0
            if how == "peak_bytes":
                return max((s["counts"].get(how, 0) for s in spans), default=0) / 2**20
            return sum(s["counts"].get(how, 0) for s in spans)

        return {metric: (float(reduce(by[span], how)), unit)
                for metric, span, how, unit in LAYER_METRICS if span in present}
