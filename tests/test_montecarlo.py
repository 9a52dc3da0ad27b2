import math
import re

import numpy as np
import pytest

from ssgauss.covgrid import increment_cov
from ssgauss.errors import DomainError, GateError, GridError
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

from conftest import SubFBMNamedFBM

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


def test_exact_variance_refuses_a_grid_of_another_model():
    fbm = make_model("fbm", H=0.3)
    ic = increment_cov(make_model("swanson"), 16, 16)
    with pytest.raises(DomainError, match="swanson"):
        exact_variance(fbm, H2, 16, 1.0, ic=ic)
    # subfbm's kernel under fbm's describe() is another model too
    ic = increment_cov(SubFBMNamedFBM(0.3), 16, 16)
    with pytest.raises(DomainError, match="SubFBMNamedFBM"):
        exact_variance(fbm, H2, 16, 1.0, ic=ic)


def test_exact_variance_reads_a_grid_at_another_resolution():
    # corr does not depend on n, so a grid built at n = 64 serves n = 16
    m = make_model("fbm", H=0.3)
    ic = increment_cov(m, 64, 16)
    assert exact_variance(m, H2, 16, 1.0, ic=ic) == exact_variance(m, H2, 16, 1.0)


def test_exact_variance_approaches_series_limit():
    m = make_model("swanson")
    target = sigma_q_sq(0.5, 2).value
    gaps = [abs(exact_variance(m, H2, n, 1.0) - target) for n in (128, 512, 2048)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_exact_variance_linear_in_time():
    # Brownian-limit property at high resolution
    m = make_model("fbm", H=0.3)
    n = 4096
    ic = increment_cov(m, n, n)
    ts = np.linspace(0.125, 1.0, 8)
    vs = np.array([exact_variance(m, H2, n, t, ic=ic) for t in ts])
    slope, intercept = np.polyfit(ts, vs, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((vs - fitted) ** 2))
    ss_tot = float(np.sum((vs - vs.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot >= 0.999


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
    assert res.passed
    for ts in res.times:
        assert abs(ts.sample_var - ts.exact_var) <= 4.0 * ts.se_var
        assert ts.exact_var == pytest.approx(2.0 * ts.t, rel=1e-12)
        assert ts.predicted_var == pytest.approx(2.0 * ts.t, rel=1e-12)
    assert len(res.cross) == 1
    assert abs(res.cross[0].cov) <= 4.0 * res.cross[0].se
    # reproducible end to end
    res2 = run_experiment(m, H2, 128, [0.5, 1.0], M=400, seed=7)
    assert res.to_dict() == res2.to_dict()


def test_run_experiment_all_pairs_flag():
    m = make_model("fbm", H=0.5)
    res = run_experiment(m, H2, 64, [0.25, 0.5, 1.0], M=200, seed=1, all_pairs=True)
    assert len(res.cross) == 3  # every pair of the three increments


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


def test_run_experiment_rejects_time_below_one_over_n():
    with pytest.raises(GridError, match="1/n = 0.0625"):
        run_experiment(make_model("fbm", H=0.5), H2, 16, [0.01, 1.0], M=200, seed=0)


def _bootstrap_moments_oracle(values, seed, stream, B=BOOTSTRAP_B):
    # the formula as first written: powers of the gathered draws
    m = values.size
    key = np.array([seed & (2**64 - 1), (1 << 32) + stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    idx = rng.integers(0, m, size=(B, m))
    draws = values[idx]
    m2 = np.mean(draws**2, axis=1) - np.mean(draws, axis=1) ** 2
    m4 = np.mean(draws**4, axis=1)
    kurt = m4 / (3.0 * np.maximum(np.mean(draws**2, axis=1), 1e-300) ** 2)
    return float(np.std(m2, ddof=1)), float(np.std(kurt, ddof=1))


@pytest.mark.parametrize("seed,stream", [(0, 0), (20240801, 3)])
def test_bootstrap_moments_bit_identical_to_oracle(seed, stream):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(1500) ** 2 - 1.0
    assert _bootstrap_moments(values, seed, stream) == \
        _bootstrap_moments_oracle(values, seed, stream)


def test_experiment_summary_rows():
    m = make_model("fbm", H=0.5)
    res = run_experiment(m, H2, 64, [1.0], M=150, seed=3)
    rows = res.summary_rows()
    assert list(rows[0]) == ["t", "exact_var", "sample_var", "se",
                             "kurtosis_ratio", "ks_stat", "ks_p"]
    assert rows[0]["t"] == 1.0
