"""ssgauss benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload clt-mc --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy, and the run stops with exit
code 2 when src/ is missing.

Every pass of the workload's fixed op list runs in a fresh process
(child.py) that imports only numpy and ssgauss; this process starts
them one at a time, waits for each, and checks and digests their outputs
afterwards, so neither its own imports (scipy, the references) nor state
kept from an earlier pass reach the measured figures.

With --trace 0 the run prints the end-to-end metrics: setup_s (median
set-up time over the pass processes and extra set-up-only processes,
SETUP_REPS in all: import ssgauss with numpy already loaded, build the
workload's models and test functions, one warm-up call), wall_s (median
wall time of a pass; passes repeat until their wall times add up to
--seconds), peak_rss_mb (the lowest high-water mark of a pass process:
whether the kernel backs numpy's large arrays with huge pages varies
from pass to pass and only ever adds to it) and ops_ok_frac (completed
ops over attempted ops; its complement, ops_failed_frac, is printed
above the result).  With --trace 1 it runs one untraced pass, one with
every layer wrapped (see tracer.py) and one more untraced, and prints
the per-layer metrics and the tracing overhead (traced wall time minus
the mean of the two untraced ones).  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  "correct" is false when any output the package
produced disagrees with its reference; "failed" counts every failed op,
including ops that produced no output.

The `digests` line gives the sha256 of every output file per op; at the
default seed they are compared with perfbench/reference_digests.json,
which holds, per workload, the `digests` object of a seed-0 run.  A
mismatch is reported, not failed.

BLAS runs on one thread and the only multi-threaded op (simulate) gets
min(2, nproc) workers, so the run never uses more threads than cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
DIGEST_FILE = HERE / "reference_digests.json"
DEFAULT_SEED = 0
SETUP_REPS = 7
PROCESS_TIMEOUT_S = 120


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": nproc(), "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "cli_threads": {"clt": 1, "simulate": threads}}


def measure(args, threads: int, mode: str) -> dict:
    """Run child.py in `mode` (setup, pass or traced) and return its result."""
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
           str(threads), str(WORKDIR), mode]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
                          cwd=ROOT)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def assess(checks, workloads, outcomes, tally) -> int:
    """Classify each outcome, collect digests, remove outputs; returns the
    bytes the pass wrote."""
    written = 0
    for oc in outcomes:
        reason, wrong = checks.classify(oc)
        tally["attempted"] += 1
        tally["failed"] += reason is not None
        tally["wrong"] += wrong
        tally["series_terms"] += checks.series_terms(oc)
        written += checks.bytes_written(oc)
        for key, digest in checks.digests(oc).items():
            tally["digests"].setdefault(key, set()).add(digest)
        status = "ok" if reason is None else f"FAILED {reason}"
        print(f"op {oc.op.id:<34} {oc.seconds:9.4f}s rc={oc.rc} {status}")
        workloads.discard(oc)
    return written


def digest_report(tally, args) -> dict:
    found = {k: sorted(v)[0] for k, v in tally["digests"].items()}
    report = {"repeatable": all(len(v) == 1 for v in tally["digests"].values()),
              "digests": found}
    if args.seed != DEFAULT_SEED:
        return report
    stored = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.is_file() else {}
    want = stored.get(args.workload, {})
    report["reference"] = {
        "matched": sum(found.get(k) == v for k, v in want.items()),
        "mismatched": sorted(k for k, v in want.items() if k in found and found[k] != v),
        "missing": sorted(set(want) - set(found)),
        "new": sorted(set(found) - set(want)),
    }
    return report


def main(argv=None) -> int:
    if not (SRC / "ssgauss" / "__init__.py").is_file():
        print(f"error: no ssgauss sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import ssgauss
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if Path(ssgauss.__file__).resolve().parent != SRC / "ssgauss":
        print(f"error: ssgauss imported from {ssgauss.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    WORKDIR.mkdir(exist_ok=True)
    threads = min(2, nproc())
    ops = workloads.make_ops(args.workload, args.seed, threads)
    by_id = {op.id: op for op in ops}
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "series_terms": 0, "digests": {}}

    def run_pass(mode: str) -> dict:
        res = measure(args, threads, mode)
        outcomes = [workloads.from_record(by_id, rec) for rec in res["outcomes"]]
        res["written"] = assess(checks, workloads, outcomes, tally)
        return res

    if args.trace:
        # untraced passes before and after the traced one, so drift over
        # the run does not land in the overhead
        passes = [run_pass("pass"), run_pass("traced"), run_pass("pass")]
        traced = passes[1]
        wall = (passes[0]["wall_s"] + passes[2]["wall_s"]) / 2.0
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["layers"].items()}
        metrics["cli.bytes_written"] = {"value": float(traced["written"]), "unit": "bytes"}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - wall, "unit": "s"}
        print(f"tracing: untraced wall {wall:.4f}s, traced wall {traced['wall_s']:.4f}s, "
              f"{traced['spans']} spans, absent names: {traced['absent'] or 'none'}")
        setups = []
    else:
        passes = []
        while sum(p["wall_s"] for p in passes) < args.seconds:
            passes.append(run_pass("pass"))
        setups = [p["setup_s"] for p in passes]
        setups += [measure(args, threads, "setup")["setup_s"]
                   for _ in range(SETUP_REPS - len(setups))]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": min(p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "ops_ok_frac": {"value": 1.0 - tally["failed"] / tally["attempted"], "unit": "frac"},
        }

    work = workloads.work_sizes(ops) | {"series_terms": tally["series_terms"] // len(passes)}
    print("env " + json.dumps(environment(threads)))
    print("work " + json.dumps(work | {
        "passes": len(passes), "setup_samples_s": setups,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes]}))
    print("digests " + json.dumps(digest_report(tally, args), sort_keys=True))
    print(f"ops_failed_frac={tally['failed'] / tally['attempted']:.6g} "
          f"({tally['failed']} of {tally['attempted']}; {tally['wrong']} wrong outputs)")
    print(json.dumps({"correct": tally["wrong"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
