"""The names, arguments and output keys the benchmark in perfbench/ reads.

perfbench/tracer.py wraps package functions by name and binds their
arguments, and perfbench/checks.py reads output keys such as
truncation_m, per_chaos, tails, norms, tv_bound and the audit figures.
A rename there does not fail any other test: the tracer records the name
as absent and drops its per-layer metric, or run.py raises outside any
guard.  This test runs one tiny op per benchmark command under the
tracer and holds the package to that contract.
"""

import json
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# per-layer metrics that child.py (set-up tracer) and run.py add themselves
ADDED_OUTSIDE_TRACER = {"hermite.builtin_family.s", "cli.bytes_written", "trace.overhead_s"}

SWANSON, FBM = ("swanson",), ("fbm", 0.3)

OPS = [
    Op(id="variance/fbm", command="variance", model=FBM, f="hermite:2",
       argv=("variance", *workloads.model_argv(FBM), "--f", "hermite:2")),
    # the closed-form families, held to the reference's own projections
    *(Op(id=f"variance/fbm/{f}", command="variance", model=FBM, f=f,
         argv=("variance", *workloads.model_argv(FBM), "--f", f))
      for f in ("even_power:2", "odd_abs_power:1")),
    Op(id="check/swanson", command="check", model=SWANSON,
       argv=("check", "--model", "swanson")),
    Op(id="contraction/swanson", command="contraction", model=SWANSON,
       argv=("contraction", "--model", "swanson", "--q", "2", "--n", "16,32"),
       extra={"q": 2, "ns": (16, 32)}),
    # fbm at alpha = 1.4: sigma_2^2 cannot be certified, so no tv_bound is written
    Op(id="contraction/fbm", command="contraction", model=("fbm", 0.7),
       argv=("contraction", *workloads.model_argv(("fbm", 0.7)), "--q", "2", "--n", "16,32"),
       extra={"q": 2, "ns": (16, 32)}),
    Op(id="clt/swanson", command="clt", model=SWANSON, f="hermite:2", n=32,
       argv=("clt", "--model", "swanson", "--f", "hermite:2", "--n", "32",
             "--t-grid", "0.5,1.0", "--M", "200", "--threads", "1", "--seed", "0"),
       extra={"t_grid": (0.5, 1.0), "M": 200, "seed": 0}),
    Op(id="simulate/swanson", command="simulate", model=SWANSON, n=32,
       argv=("simulate", "--model", "swanson", "--n", "32", "--N", "32", "--M", "20",
             "--threads", "1", "--seed", "0"),
       extra={"N": 32, "M": 20, "seed": 0}),
    Op(id="exact_variance/swanson", command="exact_variance", model=SWANSON,
       f="hermite:2", n=32),
]


def test_benchmark_reads_every_name_and_key(tmp_path):
    wl = workloads.Workload(
        name="contract", ops=OPS,
        models={op.model: workloads.build_model(op.model) for op in OPS},
        fs={op.f: workloads.build_f(op.f) for op in OPS if op.f},
        workdir=tmp_path)
    tr = tracer.Tracer()
    tr.install()
    try:
        outcomes = [workloads.execute(wl, op) for op in OPS]
    finally:
        tr.remove()

    for oc in outcomes:
        assert checks.classify(oc) == (None, False), (oc.op.id, oc.stderr, oc.error)
    assert sum(checks.series_terms(oc) for oc in outcomes) > 0
    digested = {key for oc in outcomes for key in checks.digests(oc)}
    assert {"variance/fbm/variance.json", "contraction/swanson/contraction.json",
            "clt/swanson/experiment.json", "simulate/swanson/batch.bin"} <= digested

    assert tr.absent == ["ssgauss.montecarlo.increment_cov", "ssgauss.montecarlo.cholesky",
                         "ssgauss.montecarlo.exact_variance_from_corr"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared} - ADDED_OUTSIDE_TRACER
    assert wanted - set(tr.layer_metrics()) == set()
