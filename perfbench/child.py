"""One measured process of the benchmark: set-up, then at most one pass.

    python3 perfbench/child.py <workload> <seed> <threads> <workdir> {setup,pass,traced}

run.py starts one of these per pass, so each pass's wall time and peak
resident memory belong to a fresh process that has imported only numpy,
ssgauss and the op runner (and tracer.py for a traced pass); no state
of an earlier pass carries over.  The set-up time covers importing
ssgauss with numpy already loaded, building the workload's models and
test functions, and one warm-up call.  The last line of standard output
is one JSON object: setup_s, and for a pass wall_s, peak_rss_mb and the
op outcomes, which run.py checks; a traced pass adds its layer metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401  (a dependency's import is not the package's set-up)

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    name, seed, threads, workdir, mode = argv
    seed, threads, workdir = int(seed), int(threads), Path(workdir)
    traced = mode == "traced"
    if traced:
        import tracer

        setup_tr, tr = tracer.Tracer(), tracer.Tracer()
    t0 = time.perf_counter()
    import workloads

    if traced:
        setup_tr.install()
    try:
        wl = workloads.prepare(name, seed, threads, workdir)
    finally:
        if traced:
            setup_tr.remove()
    result = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    if traced:
        tr.install()
    t0 = time.perf_counter()
    try:
        outcomes = [workloads.execute(wl, op) for op in wl.ops]
    finally:
        if traced:
            tr.remove()
    result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["outcomes"] = [workloads.record(oc) for oc in outcomes]
    if traced:
        tr.dump(workdir / f"trace-{name}-seed{seed}.json")
        layers = tr.layer_metrics()
        if "ssgauss.hermite.builtin_family" not in setup_tr.absent:
            layers["hermite.builtin_family.s"] = (setup_tr.busy("hermite.builtin_family"), "s")
        result |= {"layers": layers, "spans": len(tr.spans), "absent": tr.absent}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
