import csv
import json
import math
import re

import numpy as np
import pytest

from ssgauss import cli, covgrid, montecarlo
from ssgauss.covgrid import increment_cov
from ssgauss.errors import DomainError, GateError, GridError, NumericalError
from ssgauss.hermite import HermiteFunction, builtin_family
from ssgauss.limitvar import sigma_q_sq
from ssgauss.models import make_model
from ssgauss.montecarlo import (
    BOOTSTRAP_B,
    _bootstrap_moments,
    exact_variance,
    functional,
    kolmogorov_sf,
    ks_test_normal,
    run_experiment,
)
from ssgauss.sampler import sample_batch

from conftest import peak_bytes
from oracles import bootstrap_moments_whole_array, functional_whole_array

H2 = builtin_family("single_hermite", 2)


def test_functional_zero_below_first_gridpoint():
    rows = np.zeros(16)
    assert functional(rows, H2, 32, [0.01]).tolist() == [0.0]
    assert exact_variance(make_model("fbm", H=0.5), H2, 32, 0.01) == 0.0


def test_functional_constant_rows():
    # He_2(0) = -1 on every term; row i of the result is F_n(t_grid[i])
    rows = np.zeros(16)
    assert functional(rows, H2, 16, [1.0, 0.5]) == pytest.approx([-16.0 / 4.0, -8.0 / 4.0])
    batch = functional(np.zeros((3, 16)), H2, 16, [1.0, 0.5])
    assert batch.shape == (2, 3)
    assert batch[1] == pytest.approx([-2.0] * 3)


def test_functional_grid_overflow():
    with pytest.raises(GridError):
        functional(np.zeros(8), H2, 16, [1.0])


@pytest.mark.parametrize("t", [math.nan, math.inf, 1e308])
def test_non_finite_time_is_a_domain_error(t):
    # n * t must be a finite number of increments; 1e308 overflows at n = 64
    with pytest.raises(DomainError, match=re.escape(f"t={t}")):
        exact_variance(make_model("fbm", H=0.5), H2, 64, t)
    with pytest.raises(DomainError, match=re.escape(f"t={t}")):
        functional(np.zeros(16), H2, 64, [0.25, t])


def test_exact_variance_brownian_values():
    m = make_model("fbm", H=0.5)
    assert exact_variance(m, H2, 128, 1.0) == 2.0
    assert exact_variance(m, H2, 128, 0.5) == 1.0


def test_exact_variance_additive_over_chaoses():
    m = make_model("swanson")
    mix = HermiteFunction(coeffs={2: 0.8, 3: -1.3})
    only2 = HermiteFunction(coeffs={2: 0.8})
    only3 = HermiteFunction(coeffs={3: -1.3})
    n = 64
    total = exact_variance(m, mix, n, 1.0)
    parts = exact_variance(m, only2, n, 1.0) + exact_variance(m, only3, n, 1.0)
    assert total == pytest.approx(parts, rel=1e-12)


def test_exact_variance_approaches_series_limit():
    m = make_model("swanson")
    target = sigma_q_sq(0.5, 2).value
    gaps = [abs(exact_variance(m, H2, n, 1.0) - target) for n in (128, 512, 2048)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_exact_variance_linear_in_time():
    # Brownian-limit property at high resolution
    m = make_model("fbm", H=0.3)
    n = 4096
    ts = np.linspace(0.125, 1.0, 8)
    vs = np.array([exact_variance(m, H2, n, t) for t in ts])
    slope, intercept = np.polyfit(ts, vs, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((vs - fitted) ** 2))
    ss_tot = float(np.sum((vs - vs.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot >= 0.999


@pytest.mark.parametrize("name,kw,f", [
    ("swanson", {}, "odd_abs_power:1"),
    ("subfbm", {"H": 0.35}, "odd_abs_power:1"),
    ("bifbm", {"H": 0.6, "K": 0.5}, "even_power:2"),
])
def test_exact_variance_against_fifty_digit_chaos_sum(name, kw, f):
    # the same double corr and c_q, summed over every chaos and entry in
    # 50-digit arithmetic: what is left is the rounding of the double sum
    mp = pytest.importorskip("mpmath")
    kind, k = f.split(":")
    hf = builtin_family(kind, int(k))
    m, n = make_model(name, **kw), 64
    corr = increment_cov(m, n, n).corr
    with mp.workdps(50):
        weights = [(q, mp.factorial(q) * mp.mpf(c) ** 2) for q, c in hf.coeffs.items()]
        exact = mp.fsum(w * mp.mpf(float(rho)) ** q
                        for rho in corr.ravel() for q, w in weights) / n
        assert abs(exact_variance(m, hf, n, 1.0) - exact) <= 1e-15 * abs(exact)


@pytest.mark.parametrize("coeffs", [{171: 1e-160}, {2: 1e200}, {170: 1.0}])
def test_exact_variance_beyond_double_range_is_a_numerical_error(coeffs, monkeypatch, cpus):
    # a weight q! c_q^2 past the double range, or a sum that overflows
    # (170! over the 64^2 entries of fbm at H = 0.2), is no number; on two
    # workers, over bands of a few rows, too, where each worker enters its
    # own error state and no RuntimeWarning escapes
    f = HermiteFunction(coeffs)
    with pytest.raises(NumericalError, match="exceeds the double range at n = 64, t = 1"):
        exact_variance(make_model("fbm", H=0.2), f, 64, 1.0)
    cpus.usable(2)
    monkeypatch.setattr(covgrid, "_BLOCK_ENTRIES", 256)
    assert len(covgrid._schedule(64)) > 2
    with pytest.raises(NumericalError, match="exceeds the double range at n = 64, t = 1"):
        exact_variance(make_model("fbm", H=0.2), f, 64, 1.0, threads=2)


def test_exact_variance_refuses_sizes_that_are_not_integers():
    # 64.5 would sum over 64 increments and divide by 64.5
    m = make_model("swanson")
    with pytest.raises(DomainError, match="n must be an integer, got 64.5"):
        exact_variance(m, H2, 64.5, 1.0)
    # a thread count is None or an integer >= 1, also where no band is formed
    for t in (1.0, 0.001):
        with pytest.raises(DomainError, match="thread count must be >= 1, got 0"):
            exact_variance(m, H2, 64, t, threads=0)
        with pytest.raises(DomainError, match="threads must be an integer, got 1.5"):
            exact_variance(m, H2, 64, t, threads=1.5)
    assert exact_variance(m, H2, np.int64(64), 1.0) == exact_variance(m, H2, 64, 1.0)


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_resolution_below_two_is_refused(n):
    # exact_variance gave -2.23 at n = -5, t = -1 and a value at n = 1;
    # functional's 1/sqrt(n) raised a bare math error or divided by zero
    for call in (lambda: exact_variance(make_model("swanson"), H2, n, -1.0),
                 lambda: exact_variance(make_model("swanson"), H2, n, 1.0),
                 lambda: functional(np.zeros(4), H2, n, [1.0])):
        with pytest.raises(DomainError, match=f"grid resolution n must be >= 2, got {n}"):
            call()


def test_kolmogorov_sf_against_scipy():
    kolmogorov = pytest.importorskip("scipy.special").kolmogorov
    for lam in (0.3, 0.7, 1.0, 1.18, 1.5, 2.5):
        assert kolmogorov_sf(lam) == pytest.approx(float(kolmogorov(lam)), abs=1e-12)


def test_ks_against_scipy_reference():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(123)
    x = rng.standard_normal(500)
    d, p = ks_test_normal(x)
    ref = stats.kstest(x, "norm", mode="asymp")
    assert d == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)


def test_run_experiment_small_brownian():
    m = make_model("fbm", H=0.5)
    res = run_experiment(m, H2, 128, [0.5, 1.0], M=400, seed=7)
    assert res["passed"]
    for ts in res["times"]:
        assert abs(ts["sample_var"] - ts["exact_var"]) <= 4.0 * ts["se_var"]
        assert ts["exact_var"] == pytest.approx(2.0 * ts["t"], rel=1e-12)
        assert ts["predicted_var"] == pytest.approx(2.0 * ts["t"], rel=1e-12)
    assert len(res["cross"]) == 1
    assert abs(res["cross"][0]["cov"]) <= 4.0 * res["cross"][0]["se"]
    # reproducible end to end
    res2 = run_experiment(m, H2, 128, [0.5, 1.0], M=400, seed=7)
    assert res == res2


@pytest.mark.parametrize("name,kw", [("swanson", {}), ("subfbm", {"H": 0.35}),
                                     ("dw-z2", {"alpha": 0.5})])
def test_run_experiment_takes_its_grid_from_the_one_path(name, kw):
    # run_experiment builds no grid of its own: its oracle and its sample
    # variances are, bit for bit, those of exact_variance and sample_batch
    # called alone
    m = make_model(name, **kw)
    f = builtin_family("even_power", 2)
    n, M, seed, ts = 64, 200, 11, [0.25, 0.5, 1.0]
    res = run_experiment(m, f, n, ts, M=M, seed=seed)
    for row, t in zip(res["times"], ts):
        assert row["exact_var"] == exact_variance(m, f, n, t)
    F = functional(sample_batch(m, n, 64, M, seed).normalized, f, n, ts)
    assert [row["sample_var"] for row in res["times"]] == [float(np.var(x, ddof=1)) for x in F]


@pytest.mark.parametrize("coeffs,named", [({2: 1e-100}, "kurtosis_ratio at t = 1 is nan"),
                                          ({100: 1.0}, "se_var at t = 1 is inf")])
def test_run_experiment_statistic_beyond_double_range_is_a_numerical_error(coeffs, named):
    # F^4 of a tiny f underflows to 0 / 0, and of a large f overflows
    with pytest.raises(NumericalError, match=named):
        run_experiment(make_model("fbm", H=0.2), HermiteFunction(coeffs), 64, [1.0], M=100)


def test_run_experiment_all_pairs_flag():
    m = make_model("fbm", H=0.5)
    res = run_experiment(m, H2, 64, [0.25, 0.5, 1.0], M=200, seed=1, all_pairs=True)
    assert len(res["cross"]) == 3  # every pair of the three increments


def test_run_experiment_gates():
    m = make_model("fbm", H=0.8)  # alpha = 1.6 >= 1.5
    with pytest.raises(GateError):
        run_experiment(m, H2, 64, [1.0], M=200, seed=0)
    f1 = HermiteFunction(coeffs={1: 1.0})
    with pytest.raises(GateError):
        run_experiment(make_model("fbm", H=0.5), f1, 64, [1.0], M=200, seed=0)
    with pytest.raises(DomainError):
        run_experiment(make_model("fbm", H=0.5), H2, 64, [1.0], M=50, seed=0)
    with pytest.raises(DomainError):
        run_experiment(make_model("fbm", H=0.5), H2, 64, [], M=200, seed=0)
    # a size that is not an integer is refused by name, not truncated
    with pytest.raises(DomainError, match="n must be an integer, got 64.5"):
        run_experiment(make_model("swanson"), H2, 64.5, [1.0], M=200, seed=0)
    with pytest.raises(DomainError, match="M must be an integer, got 150.5"):
        run_experiment(make_model("swanson"), H2, 64, [1.0], M=150.5, seed=0)
    with pytest.raises(DomainError, match="thread count must be >= 1, got 0"):
        run_experiment(make_model("swanson"), H2, 64, [1.0], M=200, seed=0, threads=0)


def test_run_experiment_rejects_time_below_one_over_n():
    with pytest.raises(GridError, match="1/n = 0.0625"):
        run_experiment(make_model("fbm", H=0.5), H2, 16, [0.01, 1.0], M=200, seed=0)


@pytest.mark.parametrize("seed,stream", [(0, 0), (20240801, 3)])
def test_bootstrap_moments_bit_identical_to_oracle(seed, stream):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(1500) ** 2 - 1.0
    assert _bootstrap_moments(values, seed, stream) == \
        bootstrap_moments_whole_array(values, seed, stream, BOOTSTRAP_B)


def _hex(pair):
    return [float(x).hex() for x in pair]


@pytest.mark.parametrize("m,B,entries", [
    (4000, 37, None),      # 16 rows a block; B no multiple of it
    (70000, 7, None),      # m above the block: one row a block
    (1500, 100, 1000),     # the same with a small block, 100 blocks
    (300, 1000, 2048),     # 6 rows a block, 167 blocks
])
def test_blocked_bootstrap_is_the_whole_array_bits(m, B, entries, monkeypatch):
    # the blocks continue one Philox stream and reduce each row with one
    # pairwise mean, so no block size moves a bit
    if entries is not None:
        monkeypatch.setattr(montecarlo, "_BOOTSTRAP_ENTRIES", entries)
    values = np.random.default_rng(m).standard_normal(m) ** 2 - 1.0
    assert _hex(_bootstrap_moments(values, 5, 2, B=B)) == \
        _hex(bootstrap_moments_whole_array(values, 5, 2, B))


_FS = [H2, builtin_family("odd_abs_power", 1)]


@pytest.mark.parametrize("f", _FS, ids=["hermite2", "odd_abs_power1"])
@pytest.mark.parametrize("shape,ts,entries", [
    ((3, 64), [0.25, 1.0], None),            # M below one block
    ((1000, 64), [0.5, 1.0], None),          # 512 rows a block; 1000 no multiple
    ((4000, 512), [0.25, 0.5, 1.0], None),   # the clt-mc batch: 64 rows a block
    ((300, 96), [0.25, 0.5], None),          # top = 48 < N: strided slices
    ((300, 96), [0.0, 0.25, 0.75], 150),     # top = 72: 2 rows a block, strided
    ((50, 96), [1.0], 10),                   # block below one row: one row a block
    ((2, 5, 64), [0.5, 1.0], 64),            # a stack of batches
    ((96,), [0.0, 0.25, 0.5, 1.0], 8),       # one row
])
def test_blocked_functional_is_the_whole_array_bits(f, shape, ts, entries, monkeypatch):
    if entries is not None:
        monkeypatch.setattr(montecarlo, "_FUNCTIONAL_ENTRIES", entries)
    # n = N, so t = 1 reaches the last increment
    n = shape[-1]
    rows = np.random.default_rng(len(shape) + n).standard_normal(shape)
    got = functional(rows, f, n, ts)
    want = functional_whole_array(rows, f, n, ts)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_bootstrap_peak_memory_is_blocks_plus_vectors():
    # the draws and the gathered values of one block (the next block's
    # draws are made while the last ones are alive), two powers of the
    # values and a few B-vectors; a whole-array bootstrap holds
    # B x m draws and gathered values, 128 MB here
    m, B = 8000, BOOTSTRAP_B
    values = np.random.default_rng(0).standard_normal(m)
    _bootstrap_moments(values, 0, 0, B=10)
    _, peak = peak_bytes(lambda: _bootstrap_moments(values, 0, 0, B=B))
    block = 8 * max(montecarlo._BOOTSTRAP_ENTRIES, m)
    assert peak <= 3 * block + 8 * (4 * m + 10 * B), peak / 2**20


def test_functional_peak_memory_is_prefix_plus_one_block():
    # the (M, top + 1) prefix sums, the result and its scaled copy, and
    # the recurrence temporaries of one block: f, He_(q-1), He_q, He_(q+1)
    # and c_q He_q; a whole-array pass holds those five at (M, N)
    M, N, n = 4000, 512, 512
    f = builtin_family("odd_abs_power", 1)
    rows = np.random.default_rng(0).standard_normal((M, N))
    ts = [0.0, 0.25, 0.5, 0.75, 1.0]
    functional(rows[:2], f, n, ts)
    out, peak = peak_bytes(lambda: functional(rows, f, n, ts))
    assert out.shape == (len(ts), M)
    allowance = 8 * M * (N + 1) + 2 * 8 * len(ts) * M + 6 * 8 * montecarlo._FUNCTIONAL_ENTRIES
    assert peak <= allowance, peak / 2**20


def test_sigma_sq_hole_fails_before_any_sampling(monkeypatch):
    # fbm at H = 0.7 (alpha = 1.4) passes the gate for rank 2 but its
    # sigma^2 series cannot be certified; the run stops before a batch
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample_batch reached")

    monkeypatch.setattr(montecarlo, "sample_batch", no_sampling)
    with pytest.raises(NumericalError):
        run_experiment(make_model("fbm", H=0.7), H2, 512, [0.5, 1.0], M=4000, seed=0)


def test_experiment_summary_rows(tmp_path):
    args = ["clt", "--model", "fbm", "--H", "0.5", "--f", "hermite:2", "--n", "64",
            "--t-grid", "1.0", "--M", "150", "--seed", "3", "--out", str(tmp_path)]
    assert cli.main(args) in (0, 4)
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["t", "exact_var", "sample_var", "se",
                             "kurtosis_ratio", "ks_stat", "ks_p"]
    assert float(rows[0]["t"]) == 1.0
    # each column is the repr of its time row's value; se is se_var
    ts = json.loads((tmp_path / "experiment.json").read_text())["times"][0]
    assert [float(v) for v in rows[0].values()] == [
        ts[k] for k in ("t", "exact_var", "sample_var", "se_var",
                        "kurtosis_ratio", "ks_stat", "ks_p")]


def test_experiment_record_format(tmp_path, capsys):
    # no class lists the fields of a run: these lists are the format of
    # experiment.json and summary.csv, and report re-derives the verdict
    args = ["clt", "--model", "swanson", "--f", "hermite:2", "--n", "64",
            "--t-grid", "0.5,1.0", "--M", "150", "--seed", "3", "--out", str(tmp_path)]
    rc = cli.main(args)
    saved = json.loads((tmp_path / "experiment.json").read_text())
    assert list(saved) == ["config", "version", "times", "cross", "passed"]
    assert [list(row) for row in saved["times"]] == [[
        "t", "num_terms", "mean", "sample_var", "se_var", "fourth_moment",
        "kurtosis_ratio", "se_kurtosis", "ks_stat", "ks_p", "exact_var",
        "predicted_var", "var_ok", "kurt_ok", "ks_ok"]] * 2
    assert [list(row) for row in saved["cross"]] == [
        ["t_lo", "t_mid", "t_hi", "cov", "se", "ok"]]
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header == "t,exact_var,sample_var,se,kurtosis_ratio,ks_stat,ks_p"
    # run_experiment returns the object the file holds
    res = run_experiment(make_model("swanson"), H2, 64, [0.5, 1.0], M=150, seed=3)
    assert type(res) is dict
    assert json.loads(json.dumps(res)) == saved
    assert rc == (0 if saved["passed"] else 4)
    capsys.readouterr()
    assert cli.main(["report", "--input", str(tmp_path / "experiment.json")]) == rc
    assert "disagrees" not in capsys.readouterr().out


@pytest.mark.parametrize("n,ts,named", [
    (64, [0.5, 0.5, 1.0], "t = 0.5 and t = 0.5 both give floor(n*t) = 32 at n = 64"),
    (3, [0.4, 0.5], "t = 0.4 and t = 0.5 both give floor(n*t) = 1 at n = 3"),
])
def test_run_experiment_rejects_two_times_with_one_count(n, ts, named):
    # their path increment is 0, so every cross row holding it is vacuous
    with pytest.raises(GridError, match=re.escape(named)):
        run_experiment(make_model("swanson"), H2, n, ts, M=200, seed=0)
