import argparse
import json

import numpy as np
import pytest

from ssgauss import cli
from ssgauss.cli import build_parser, main
from ssgauss.sampler import read_batch


def run_cli(args):
    return main(args)


def test_models_table(capsys):
    assert run_cli(["models"]) == 0
    out = capsys.readouterr().out
    assert "swanson" in out and "0.5" in out and "bifbm" in out


def test_models_json(capsys):
    assert run_cli(["models", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["model"] for r in rows} == {"fbm", "subfbm", "bifbm", "swanson",
                                          "dw-z1", "dw-z2"}


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["models", "--nosuchflag"])
    assert exc.value.code == 2


def test_variance_brownian(tmp_path, capsys):
    rc = run_cli(["variance", "--model", "fbm", "--H", "0.5", "--f", "hermite:2",
                  "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "variance.json").read_text())
    assert payload["sigma_sq"] == pytest.approx(2.0)
    assert payload["per_chaos"]["2"] == pytest.approx(2.0)
    assert payload["version"]
    assert payload["config"]["model"] == "fbm"


def test_variance_arcsine_matches_series_value(tmp_path):
    rc = run_cli(["variance", "--model", "swanson", "--f", "hermite:2",
                  "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "variance.json").read_text())
    # frozen direct-summation value of the limit series at alpha = 1/2
    assert payload["sigma_sq"] == pytest.approx(2.35748744831344, abs=5e-10)
    assert payload["tails"]["2"] > 0.0


def test_variance_gate_exit_3(tmp_path, capsys):
    rc = run_cli(["variance", "--model", "fbm", "--H", "0.8", "--f", "hermite:2",
                  "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "2 - 1/d" in err
    assert not (tmp_path / "variance.json").exists()


def test_clt_gate_exit_3(tmp_path):
    rc = run_cli(["clt", "--model", "fbm", "--H", "0.8", "--f", "hermite:2",
                  "--n", "64", "--M", "200", "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "experiment.json").exists()


def test_clt_rank_gate_exit_3(tmp_path):
    rc = run_cli(["clt", "--model", "fbm", "--H", "0.5", "--f", "hermite:1",
                  "--n", "64", "--M", "200", "--out", str(tmp_path)])
    assert rc == 3


def test_clt_run_and_report_round_trip(tmp_path, capsys):
    rc = run_cli(["clt", "--model", "fbm", "--H", "0.5", "--f", "hermite:2",
                  "--n", "128", "--t-grid", "0.5,1.0", "--M", "400",
                  "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "experiment.json").read_text())
    assert payload["passed"] is True
    assert payload["config"]["n"] == 128
    assert payload["config"]["seed"] == 7
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "t,exact_var,sample_var,se,kurtosis_ratio,ks_stat,ks_p"
    assert len(summary) == 3
    capsys.readouterr()
    rc = run_cli(["report", "--input", str(tmp_path / "experiment.json")])
    assert rc == 0
    assert "rederived verdict = pass" in capsys.readouterr().out


def test_clt_underreplication_exit_2(tmp_path):
    rc = run_cli(["clt", "--model", "fbm", "--H", "0.5", "--f", "hermite:2",
                  "--n", "64", "--M", "50", "--out", str(tmp_path)])
    assert rc == 2


def test_clt_bad_time_grid_exit_2(tmp_path):
    rc = run_cli(["clt", "--model", "fbm", "--H", "0.5", "--f", "hermite:2",
                  "--n", "64", "--M", "200", "--t-grid", "0", "--out", str(tmp_path)])
    assert rc == 2


def test_clt_time_below_one_over_n_exit_2(tmp_path, capsys):
    rc = run_cli(["clt", "--model", "fbm", "--H", "0.5", "--f", "hermite:2",
                  "--n", "16", "--M", "200", "--t-grid", "0.01,1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "1/n = 0.0625" in err
    assert not (tmp_path / "experiment.json").exists()


def test_check_swanson_passes(tmp_path, capsys):
    rc = run_cli(["check", "--model", "swanson", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "far-covariance-decay" in out
    reports = json.loads((tmp_path / "reports" / "swanson_checks.json").read_text())
    assert all(rep["verdict"] for rep in reports["reports"].values())


def test_check_smooth_model_fails_exit_4(tmp_path):
    rc = run_cli(["check", "--model", "dw-z1", "--alpha", "0.5", "--out", str(tmp_path)])
    assert rc == 4


def test_check_gate_warning_still_runs(tmp_path, capsys):
    rc = run_cli(["check", "--model", "fbm", "--H", "0.9", "--f", "hermite:2",
                  "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "warning" in out and "1.5" in out
    assert rc == 0  # audits themselves pass for fbm


def test_contraction_brownian_values(tmp_path, capsys):
    rc = run_cli(["contraction", "--model", "fbm", "--H", "0.5", "--q", "2",
                  "--n", "64,128,256", "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "contraction.json").read_text())["norms"]
    assert [r["norm"] for r in rows] == pytest.approx([1 / 64, 1 / 128, 1 / 256])


def test_contraction_keeps_norms_where_sigma_q_is_not_certified(tmp_path, capsys):
    # alpha = 1.4 sits inside the q = 2 gate, where the sigma_2^2 tail
    # certificate is not met, so tv_bound stays empty and the norms stay
    rc = run_cli(["contraction", "--model", "fbm", "--H", "0.7", "--q", "2",
                  "--n", "64,128", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "contraction.json").read_text())
    assert [r["norm"] for r in payload["norms"]] == pytest.approx([0.2414, 0.1846], abs=1e-4)
    assert payload["tv_bound"] == {}


@pytest.mark.parametrize("q", [83, 171])
def test_contraction_keeps_norms_where_tv_bound_overflows(tmp_path, capsys, q):
    # from q = 83 tv_bound's weights, and from q = 171 q!, pass the double range
    rc = run_cli(["contraction", "--model", "fbm", "--H", "0.3", "--q", str(q),
                  "--n", "8", "--out", str(tmp_path)])
    assert rc != 1
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads((tmp_path / "contraction.json").read_text())
    assert [r["n"] for r in payload["norms"]] == [8]
    assert all(np.isfinite(r["norm"]) for r in payload["norms"])
    assert payload["tv_bound"] == {}


def test_simulate_batch_beyond_the_cap_exits_2(tmp_path, capsys):
    rc = run_cli(["simulate", "--model", "fbm", "--H", "0.3", "--n", "64",
                  "--M", "4611686018427387904", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "M=4611686018427387904" in err and "N=64" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("f", ["even_power:85", "even_power:86", "odd_abs_power:80",
                               "hermite:171"])
def test_norm_beyond_double_range_exits_without_inf(tmp_path, capsys, f):
    rc = run_cli(["variance", "--model", "fbm", "--H", "0.3", "--f", f,
                  "--out", str(tmp_path)])
    assert rc in (2, 4)
    out, err = capsys.readouterr()
    assert f in err
    assert "Traceback" not in err
    assert "inf" not in out
    assert not (tmp_path / "variance.json").exists()


@pytest.mark.parametrize("args", [
    pytest.param(["clt", "--f", "hermite:2", "--n", "64", "--M", "200", "--t-grid", "nan"],
                 id="clt-nan"),
    pytest.param(["clt", "--f", "hermite:2", "--n", "64", "--M", "200", "--t-grid", "0.5,inf"],
                 id="clt-inf"),
    pytest.param(["contraction", "--n", "64", "--t", "nan"], id="contraction-nan"),
    pytest.param(["contraction", "--n", "64", "--t", "inf"], id="contraction-inf"),
    pytest.param(["contraction", "--n", "64", "--t", "1e308"], id="contraction-overflow"),
])
def test_non_finite_time_exits_2(tmp_path, capsys, args):
    # n * t must be a finite increment count; 1e308 overflows at n = 64
    rc = run_cli(args + ["--model", "fbm", "--H", "0.3", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "time t=" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_sets_its_grid_by_n_only(tmp_path, capsys, value):
    # --t-max was a second way to set --N; a time no longer reaches simulate
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--model", "fbm", "--H", "0.3", "--n", "8", "--M", "2",
                 "--t-max", value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--t-max" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_option_sets_are_pinned():
    # --seed and --threads only where random numbers are drawn
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    got = {name: {o for a in p._actions for o in a.option_strings} for name, p in subs.items()}
    common = {"-h", "--help", "--config", "--print-config", "--out",
              "--model", "--H", "--K", "--alpha"}
    assert got == {
        "models": {"-h", "--help", "--json"},
        "variance": common | {"--f", "--rel-tol"},
        "simulate": common | {"--seed", "--threads", "--n", "--N", "--M"},
        "clt": common | {"--seed", "--threads", "--f", "--n", "--t-grid", "--M", "--all-pairs"},
        "check": common | {"--f"},
        "contraction": common | {"--q", "--r", "--n", "--t"},
        "report": {"-h", "--help", "--input"},
    }


def test_variance_prints_the_chaos_cut_share(tmp_path, capsys):
    # tail_sq / (l2_norm_sq + tail_sq): the share of Var f(Z) above the cut
    for f, share in (("odd_abs_power:1", "4.3e-05"), ("odd_abs_power:12", "0.46")):
        assert run_cli(["variance", "--model", "fbm", "--H", "0.3", "--f", f,
                        "--out", str(tmp_path)]) == 0
        assert f"the chaos cut leaves out {share} of Var f(Z)" in capsys.readouterr().out
    assert run_cli(["variance", "--model", "fbm", "--H", "0.3", "--f", "even_power:2",
                    "--out", str(tmp_path)]) == 0
    assert "chaos cut" not in capsys.readouterr().out


def test_simulate_threads_deterministic(tmp_path):
    base = ["simulate", "--model", "fbm", "--H", "0.7", "--n", "64", "--N", "64",
            "--M", "300", "--seed", "5"]
    d1, d8 = tmp_path / "a", tmp_path / "b"
    assert run_cli(base + ["--threads", "1", "--out", str(d1)]) == 0
    assert run_cli(base + ["--threads", "8", "--out", str(d8)]) == 0
    assert (d1 / "batch.bin").read_bytes() == (d8 / "batch.bin").read_bytes()
    header, data = read_batch(d1 / "batch.bin")
    assert header == {"n": 64, "N": 64, "M": 300, "seed": 5}
    assert data.shape == (300, 64)


def test_variance_bifbm_k1_is_fbm(tmp_path):
    values = []
    for extra, out in ((["--model", "bifbm", "--K", "1"], "bif"), (["--model", "fbm"], "fbm")):
        rc = run_cli(["variance", *extra, "--H", "0.3", "--f", "hermite:2",
                      "--out", str(tmp_path / out)])
        assert rc == 0
        values.append(json.loads((tmp_path / out / "variance.json").read_text())["sigma_sq"])
    assert values[0] == values[1]


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SSGAUSS_SEED", "4242")
    rc = run_cli(["simulate", "--model", "fbm", "--H", "0.5", "--n", "8",
                  "--M", "2", "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "batch.json").read_text())
    assert meta["config"]["seed"] == 4242


@pytest.mark.parametrize("args,env,named", [
    (["clt", "--f", "hermite:x", "--n", "64"], None, "--f value 'x'"),
    (["clt", "--f", "hermite:2", "--n", "64", "--t-grid", "0.5,abc"], None,
     "--t-grid value 'abc'"),
    (["contraction", "--n", "64,abc"], None, "--n value 'abc'"),
    (["simulate", "--n", "8", "--M", "2"], "abc", "SSGAUSS_SEED value 'abc'"),
])
def test_malformed_values_exit_2(tmp_path, monkeypatch, capsys, args, env, named):
    if env is not None:
        monkeypatch.setenv("SSGAUSS_SEED", env)
    rc = run_cli(args + ["--model", "fbm", "--H", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args,config,named", [
    pytest.param(["clt", "--f", "hermite:2", "--n", "64", "--M", "0"], None, "M=0",
                 id="clt-M0"),
    pytest.param(["clt", "--f", "hermite:2", "--n", "0"], None, "n must be >= 2, got 0",
                 id="clt-n0"),
    pytest.param(["simulate", "--n", "8", "--N", "0", "--M", "2"], None,
                 "N must be >= 1, got 0", id="simulate-N0"),
    pytest.param(["simulate", "--n", "8", "--M", "2", "--threads", "0"], None,
                 "thread count must be >= 1, got 0", id="simulate-threads0"),
    pytest.param(["contraction", "--q", "0"], None, "q=0", id="contraction-q0"),
    pytest.param(["contraction", "--t", "0"], None, "t=0.0", id="contraction-t0"),
    pytest.param(["variance", "--f", "hermite:2", "--rel-tol", "0"], None,
                 "rel_tol must be > 0, got 0.0", id="variance-rel-tol0"),
    pytest.param(["variance", "--f", "hermite:2"], {"H": "abc"}, "--H value 'abc'",
                 id="config-H-abc"),
    pytest.param(["contraction"], {"q": "two"}, "--q value 'two'", id="config-q-two"),
    pytest.param(["simulate", "--M", "2"], None, "a --n value is required",
                 id="simulate-no-n"),
    pytest.param(["simulate"], {"n": 8}, "a --M value is required",
                 id="simulate-config-no-M"),
    pytest.param(["clt", "--f", "hermite:2"], {"M": 200}, "a --n value is required",
                 id="clt-config-no-n"),
])
def test_zero_or_config_value_is_never_replaced_by_default(tmp_path, capsys, args, config,
                                                          named):
    # zeros and config-file values reach the handlers as given: a zero is
    # refused by name instead of falling back to the default, and a
    # malformed or missing config value exits 2 without a traceback
    extra = ["--model", "fbm", "--out", str(tmp_path)]
    cfg = {"H": 0.3} | (config or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli(args + extra + ["--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_config_file_supplies_n_and_m(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "fbm", "H": 0.5, "n": 8, "M": 3, "seed": 2}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, _ = read_batch(tmp_path / "batch.bin")
    assert header == {"n": 8, "N": 8, "M": 3, "seed": 2}
    echo = json.loads((tmp_path / "batch.json").read_text())["config"]
    assert echo["n"] == 8 and echo["M"] == 3


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "fbm", "H": 0.5, "f": "hermite:2",
                               "n": 64, "M": 200, "seed": 1}))
    rc = run_cli(["clt", "--config", str(cfg), "--n", "128", "--print-config"])
    assert rc == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["n"] == 128  # flag wins
    assert shown["M"] == 200  # file value survives
    rc = run_cli(["clt", "--config", str(cfg), "--n", "128", "--M", "400",
                  "--out", str(tmp_path)])
    assert rc == 0
    echo = json.loads((tmp_path / "experiment.json").read_text())["config"]
    assert echo["n"] == 128 and echo["M"] == 400


@pytest.mark.parametrize("text,named", [
    (None, "cannot read config file"),
    ('{"model": "fbm",', "is not valid JSON"),
    ('["model", "fbm"]', "must hold a JSON object, not list"),
])
def test_unusable_config_file_exits_2(tmp_path, capsys, text, named):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    rc = run_cli(["variance", "--model", "fbm", "--H", "0.3", "--f", "hermite:2",
                  "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "variance.json").exists()


def test_config_key_the_command_does_not_take_exits_2(tmp_path, capsys):
    # variance takes no seed, and t_max belongs to no command
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "fbm", "H": 0.3, "f": "hermite:2",
                                "seed": 5, "t_max": 2.0}))
    rc = run_cli(["variance", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'seed', 't_max'" in err and "variance does not take" in err
    assert not (tmp_path / "variance.json").exists()
    path.write_text(json.dumps({"model": "fbm", "H": 0.3, "f": "hermite:2"}))
    assert run_cli(["variance", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_report_missing_file_exit_2(tmp_path):
    assert run_cli(["report", "--input", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize("args", [
    pytest.param(["variance", "--f", "hermite:2"], id="variance"),
    pytest.param(["check"], id="check"),
    pytest.param(["contraction", "--n", "64"], id="contraction"),
    pytest.param(["simulate", "--n", "8", "--M", "2"], id="simulate"),
    pytest.param(["clt", "--f", "hermite:2", "--n", "64", "--M", "200"], id="clt"),
])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, args):
    calls = []
    monkeypatch.setattr(cli, "_build_model", lambda cfg: calls.append(cfg))
    taken = tmp_path / "taken"
    taken.write_text("keep")
    rc = run_cli(args + ["--model", "fbm", "--H", "0.3", "--out", str(taken)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(taken) in err and "Traceback" not in err
    assert calls == []
    assert taken.read_text() == "keep"


def test_check_reports_path_taken_by_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "reports").write_text("keep")
    assert run_cli(["check", "--model", "swanson", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "reports") in err and "Traceback" not in err


def test_out_creates_nested_directories_and_print_config_creates_none(tmp_path, capsys):
    nested = tmp_path / "a" / "b"
    args = ["variance", "--model", "fbm", "--H", "0.3", "--f", "hermite:2", "--out", str(nested)]
    assert run_cli(args + ["--print-config"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert run_cli(args) == 0
    assert (nested / "variance.json").is_file()


@pytest.mark.parametrize("content,named", [
    pytest.param(None, "cannot read experiment file", id="directory"),
    pytest.param(b"\xff\xfe", "is not valid JSON", id="not-utf8"),
    pytest.param(b"[1, 2]", "must hold a JSON object, not list", id="list"),
    pytest.param(b"{}", "is not a saved clt run: missing or malformed 'times'", id="empty"),
    pytest.param(b'{"times": [{"t": 1.0}], "cross": [], "config": {"tolerances": {}}}',
                 "is not a saved clt run", id="incomplete-row"),
])
def test_report_input_faults_exit_2(tmp_path, capsys, content, named):
    path = tmp_path / "experiment.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert run_cli(["report", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and named in err and str(path) in err
    assert "Traceback" not in err
    assert out == ""


def test_main_maps_only_the_typed_errors(monkeypatch):
    # a KeyError from a handler is a bug, not a usage error
    def broken(cfg):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_variance", broken)
    with pytest.raises(KeyError):
        run_cli(["variance"])


def test_f_given_as_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "fbm", "H": 0.3,
                                "f": {"f": "single_hermite", "q": 2}}))
    rc = run_cli(["variance", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "malformed --f value {'f': 'single_hermite', 'q': 2}" in err
    assert not (tmp_path / "variance.json").exists()
