"""Failure accounting of the benchmark, one test per exit case.

    python3 -m pytest perfbench/test_accounting.py -q

A raise and an exit 4 that writes nothing fail the op; exit 3 completes
an op only past the applicability gate; an exit 4 verdict completes only
for an input whose documented verdict is red, when its file is written
and re-derives, and is a wrong output when it does not.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def wl(tmp_path):
    return workloads.Workload(name="test", ops=[], models={}, fs={}, workdir=tmp_path)


def outcome_of(wl, op):
    oc = workloads.execute(wl, op)
    return oc, checks.classify(oc)


def test_raise_fails_the_op(wl, monkeypatch):
    def crash(argv):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(workloads.cli, "main", crash)
    oc, (reason, wrong) = outcome_of(wl, workloads.Op(id="crash", command="clt", argv=("clt",)))
    assert oc.rc is None
    assert reason.startswith("raised ZeroDivisionError")
    assert not wrong


GATE_ARGV = ("variance", "--model", "fbm", "--H", "0.9", "--f", "hermite:2")


def test_gate_exit_3_completes_past_the_gate(wl):
    op = workloads.Op(id="gate", command="variance", argv=GATE_ARGV, model=("fbm", 0.9),
                      f="hermite:2", past_gate=True)
    oc, verdict = outcome_of(wl, op)
    assert oc.rc == 3
    assert verdict == (None, False)


def test_gate_exit_3_fails_an_input_the_theory_covers(wl):
    op = workloads.Op(id="gate", command="variance", argv=GATE_ARGV, model=("fbm", 0.9),
                      f="hermite:2", past_gate=False)
    oc, (reason, wrong) = outcome_of(wl, op)
    assert oc.rc == 3
    assert reason.startswith("exit 3")
    assert not wrong


DW_Z1_ARGV = ("check", "--model", "dw-z1", "--alpha", "0.5")


def test_verdict_exit_4_completes_when_written_and_rederived(wl):
    op = workloads.Op(id="check", command="check", model=("dw-z1", 0.5), argv=DW_Z1_ARGV,
                      red=True)
    oc, verdict = outcome_of(wl, op)
    assert oc.rc == 4
    assert checks.output_file(oc).is_file()
    assert verdict == (None, False)


def test_verdict_exit_4_fails_an_input_documented_green(wl):
    op = workloads.Op(id="check", command="check", model=("dw-z1", 0.5), argv=DW_Z1_ARGV)
    oc, (reason, wrong) = outcome_of(wl, op)
    assert oc.rc == 4
    assert checks.output_file(oc).is_file()
    assert reason.startswith("exit 4 (documented: 0)")
    assert not wrong


def test_green_verdict_fails_an_input_documented_red(wl):
    op = workloads.Op(id="check", command="check", model=("fbm", 0.35), red=True,
                      argv=("check", "--model", "fbm", "--H", "0.35"))
    oc, (reason, wrong) = outcome_of(wl, op)
    assert oc.rc == 0
    assert reason.startswith("exit 0 (documented: 4)")


def test_audit_figures_are_recomputed_from_the_stored_ratios(wl):
    op = workloads.Op(id="check", command="check", model=("fbm", 0.35),
                      argv=("check", "--model", "fbm", "--H", "0.35"))
    oc, verdict = outcome_of(wl, op)
    assert verdict == (None, False)
    path = checks.output_file(oc)
    saved = json.loads(path.read_text())
    rep = saved["reports"]["phi-deriv1-tail"]
    rep["ratios"] = [2.0 * v for v in rep["ratios"]]
    path.write_text(json.dumps(saved))
    reason, wrong = checks.classify(oc)
    assert "phi-deriv1-tail: stored ratio_sup" in reason
    assert wrong


def test_verdict_exit_4_that_disagrees_with_its_file_is_wrong(wl):
    op = workloads.Op(id="check", command="check", model=("dw-z1", 0.5), argv=DW_Z1_ARGV,
                      red=True)
    oc = workloads.execute(wl, op)
    path = checks.output_file(oc)
    saved = json.loads(path.read_text())
    for rep in saved["reports"].values():
        rep["verdict"] = True
    path.write_text(json.dumps(saved))
    reason, wrong = checks.classify(oc)
    assert reason.startswith("check failed")
    assert wrong


CLT_OP = workloads.Op(id="clt", command="clt", model=("fbm", 0.5), f="hermite:2", n=64,
                      argv=("clt", "--model", "fbm", "--H", "0.5", "--f", "hermite:2",
                            "--n", "64", "--M", "200", "--seed", "1"),
                      extra={"t_grid": (1.0,), "M": 200, "seed": 1})


def test_clt_statistics_are_held_to_the_recomputed_experiment(wl):
    oc, verdict = outcome_of(wl, CLT_OP)
    assert oc.rc == 0
    assert verdict == (None, False)
    path = checks.output_file(oc)
    saved = json.loads(path.read_text())
    ts = saved["times"][0]
    # off by 20%, with a bootstrap error wide enough that report still passes it
    ts["sample_var"] *= 1.2
    ts["se_var"] *= 100.0
    path.write_text(json.dumps(saved))
    reason, wrong = checks.classify(oc)
    assert reason.startswith("check failed: t=1.0 sample_var")
    assert wrong


def test_clt_exit_is_held_to_the_recomputed_verdict(wl, monkeypatch):
    oc = workloads.execute(wl, CLT_OP)
    assert oc.rc == 0
    red = dict(checks.experiment_ref(CLT_OP), passed=False)
    monkeypatch.setattr(checks, "experiment_ref", lambda op: red)
    reason, wrong = checks.classify(oc)
    assert reason.startswith("exit 0 (documented: 4)")
    assert not wrong


def test_clt_verdict_is_rederived_by_report(wl):
    oc, verdict = outcome_of(wl, CLT_OP)
    assert oc.rc == 0
    assert verdict == (None, False)
    path = checks.output_file(oc)
    saved = json.loads(path.read_text())
    saved["passed"] = not saved["passed"]
    path.write_text(json.dumps(saved))
    reason, wrong = checks.classify(oc)
    assert reason.startswith("check failed")
    assert wrong


def test_numerical_exit_4_without_output_fails_the_op(wl, monkeypatch):
    def numerical_failure(argv):
        print("numerical failure: tail certificate not met", file=sys.stderr)
        return 4

    monkeypatch.setattr(workloads.cli, "main", numerical_failure)
    op = workloads.Op(id="hole", command="variance", argv=("variance",), model=("fbm", 0.6),
                      f="hermite:2")
    oc, (reason, wrong) = outcome_of(wl, op)
    assert oc.rc == 4
    assert reason == "exit 4 with no output: numerical failure: tail certificate not met"
    assert not wrong
