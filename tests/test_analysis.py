import math

import numpy as np
import pytest

from ssgauss import analysis
from ssgauss.analysis import (
    check_adjacent_covariance,
    check_far_decay,
    check_increment_variance,
    check_separated_covariance,
    check_shape_derivatives,
    check_tail_derivatives,
    contraction_norm,
    contraction_report,
    run_all_checks,
    tv_bound,
)
from ssgauss.covgrid import IncrementCovariance, increment_cov
from ssgauss.errors import DomainError
from ssgauss.limitvar import sigma_q_sq
from ssgauss.models import make_model

from conftest import CATALOG_CASES
from oracles import contraction_norm_bruteforce, far_decay_ratios_on_grid

HONEST_RESIDUAL_CASES = [
    ("swanson", {}),
    ("subfbm", {"H": 0.35}),
    ("subfbm", {"H": 0.8}),
    ("bifbm", {"H": 0.6, "K": 0.5}),
    ("fbm", {"H": 0.3}),
    ("fbm", {"H": 0.7}),
]

SMOOTH_CASES = [("dw-z1", {"alpha": 0.5}), ("dw-z2", {"alpha": 0.5})]


def _random_corr_instance(N, seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((N, 2 * N))
    cov = W @ W.T
    std = np.sqrt(np.diag(cov))
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    return IncrementCovariance(model=make_model("fbm", H=0.5), n=N, N=N,
                               std=std, corr=corr)


def test_contraction_identity_on_brownian_grid():
    ic = increment_cov(make_model("fbm", H=0.5), 100, 100)
    assert contraction_norm(ic, 2, 1, 1.0, 1.0) == pytest.approx(0.01, rel=1e-14)
    ic10 = increment_cov(make_model("fbm", H=0.5), 10, 10)
    assert contraction_norm(ic10, 2, 1, 1.0, 1.0) == pytest.approx(0.1, rel=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("q,r", [(2, 1), (3, 1), (3, 2)])
def test_trace_form_equals_quadruple_sum(seed, q, r):
    ic = _random_corr_instance(6, seed)
    fast = contraction_norm(ic, q, r, 0.7, 1.0)
    slow = contraction_norm_bruteforce(ic, q, r, 0.7, 1.0)
    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)


def test_contraction_argument_validation():
    ic = _random_corr_instance(4, 0)
    with pytest.raises(DomainError):
        contraction_norm(ic, 2, 0, 1.0, 1.0)
    with pytest.raises(DomainError):
        contraction_norm(ic, 2, 2, 1.0, 1.0)


def test_contraction_decreases_with_resolution():
    m = make_model("swanson")
    norms = []
    for n in (64, 128, 256):
        ic = increment_cov(m, n, n)
        norms.append(contraction_norm(ic, 2, 1, 1.0, 1.0))
    assert norms[0] > norms[1] > norms[2]


def test_smooth_model_contraction_grows():
    # dw-z2 increments become perfectly correlated as the grid refines,
    # so its contraction norms grow with n instead of vanishing
    m = make_model("dw-z2", alpha=0.5)
    norms = []
    for n in (64, 128):
        ic = increment_cov(m, n, n)
        norms.append(contraction_norm(ic, 2, 1, 1.0, 1.0))
    assert norms[1] > norms[0]


def _tv_at(model, n, q):
    # tv_bound over the norms r = 1..q-1 of the grid with n = N
    ic = increment_cov(model, n, n)
    norms = {r: contraction_norm(ic, q, r, 1.0, 1.0) for r in range(1, q)}
    return tv_bound(norms, q, sigma_q_sq(model.alpha, q).value, 1.0)


def test_tv_bound_brownian_wiring():
    bm = make_model("fbm", H=0.5)
    assert _tv_at(bm, 100, 2) == pytest.approx(math.sqrt(8.0 / 100), rel=1e-12)
    vals = [_tv_at(bm, nn, 2) for nn in (64, 128, 256)]
    assert vals[0] > vals[1] > vals[2]


def test_contraction_report_over_ladder():
    rep = contraction_report(make_model("fbm", H=0.5), 2, (64, 128, 256))
    assert rep.r_values == (1,)
    assert [rep.norms[(n, 1)] for n in rep.n_values] == pytest.approx(
        [1 / 64, 1 / 128, 1 / 256])
    assert rep.tv[64] == pytest.approx(math.sqrt(8.0 / 64), rel=1e-12)
    assert rep.non_increasing()
    d = rep.to_dict()
    assert d["norms"][0] == {"n": 64, "r": 1, "norm": pytest.approx(1 / 64)}
    # past the gate the norms still compute (and grow, the reason the gate
    # exists) while tv is dropped since the limit variance is undefined
    hot = contraction_report(make_model("fbm", H=0.9), 2, (16, 32))
    assert hot.tv == {}
    assert hot.norms[(32, 1)] > hot.norms[(16, 1)]
    assert not hot.non_increasing()


def test_contraction_report_computes_each_norm_once(monkeypatch):
    calls = []

    def counted(ic, q, r, c_q, t=1.0):
        calls.append((ic.n, q, r, c_q))
        return contraction_norm(ic, q, r, c_q, t)

    monkeypatch.setattr(analysis, "contraction_norm", counted)
    m, ns = make_model("swanson"), (32, 64, 96)
    rep = contraction_report(m, 4, ns)
    # tv_bound reuses the report's c_q = 1 norms for r = 1..q-1
    assert len(calls) == len(ns) * 3
    for n in ns:
        assert rep.tv[n] == _tv_at(m, n, 4)
    # with a partial r list, the report still computes every order once
    calls.clear()
    rep = contraction_report(m, 4, ns, r_values=(2,))
    assert len(calls) == len(ns) * 3
    calls.clear()
    part = contraction_report(m, 4, ns, r_values=(1, 3))
    assert len(calls) == len(ns) * 3
    assert part.tv == contraction_report(m, 4, ns).tv


def test_contraction_report_sums_sigma_q_once(monkeypatch):
    calls = []

    def counted(alpha, q, *args, **kwargs):
        calls.append((alpha, q))
        return sigma_q_sq(alpha, q, *args, **kwargs)

    monkeypatch.setattr(analysis, "sigma_q_sq", counted)
    rep = contraction_report(make_model("swanson"), 3, (32, 64, 96))
    assert calls == [(0.5, 3)]
    assert set(rep.tv) == {32, 64, 96}
    # past the gate the one call refuses and no tv is written
    calls.clear()
    assert contraction_report(make_model("fbm", H=0.9), 2, (16, 32)).tv == {}
    assert calls == [(1.8, 2)]


def test_tv_bound_swanson_decreases():
    vals = [_tv_at(make_model("swanson"), nn, 2) for nn in (64, 128, 256)]
    assert vals[0] > vals[1] > vals[2]
    assert all(math.isfinite(v) and v > 0 for v in vals)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_derivative_envelopes_pass_for_all_models(name, kw):
    m = make_model(name, **kw)
    for rep in check_shape_derivatives(m) + check_tail_derivatives(m):
        assert rep.verdict, f"{name}: {rep.target} slope={rep.trend_slope:.3f}"
        assert math.isfinite(rep.ratio_sup) or rep.target == "psi-slope-identity"


def test_tail_decay_exponent_branches():
    # nu = 2 - alpha for the smooth families; tail audits hold there even
    # though the near-diagonal ones do not
    m = make_model("dw-z1", alpha=0.4)
    assert m.nu == pytest.approx(1.6)
    for rep in check_tail_derivatives(m):
        assert rep.verdict
    # alpha >= 1 branch exercises the (x-1)^(a-2) envelope
    for rep in check_tail_derivatives(make_model("fbm", H=0.7)):
        assert rep.verdict


def test_slope_identity_enforced_above_one():
    rep = check_shape_derivatives(make_model("subfbm", H=0.7))[2]
    assert rep.target == "psi-slope-identity"
    assert rep.verdict and rep.ratio_sup <= 1e-9
    # informational below alpha = 1, even when psi'(1) diverges
    rep_dw = check_shape_derivatives(make_model("dw-z1", alpha=0.5))[2]
    assert rep_dw.verdict and rep_dw.ratio_sup == math.inf


@pytest.mark.parametrize("name,kw", HONEST_RESIDUAL_CASES)
def test_residual_audits_pass_for_envelope_models(name, kw):
    m = make_model(name, **kw)
    for rep in (check_increment_variance(m), check_adjacent_covariance(m),
                check_separated_covariance(m), check_far_decay(m)):
        assert rep.verdict, f"{name}{kw}: {rep.target} slope={rep.trend_slope:.3f}"


def test_fbm_residuals_vanish_identically():
    for H in (0.3, 0.7):
        m = make_model("fbm", H=H)
        for rep in (check_increment_variance(m), check_adjacent_covariance(m),
                    check_separated_covariance(m)):
            assert rep.ratio_sup == 0.0


@pytest.mark.parametrize("name,kw", SMOOTH_CASES)
def test_smooth_models_fail_near_diagonal_audits(name, kw):
    # interior increments of these models scale with step exponent >= 1,
    # so the residual is of the order of the main term and the audited
    # ratios grow like 1/s; the far-pair decay bound still holds
    m = make_model(name, **kw)
    assert not check_increment_variance(m).verdict
    assert not check_adjacent_covariance(m).verdict
    assert not check_separated_covariance(m).verdict
    far = check_far_decay(m)
    assert far.verdict
    assert far.note != ""


def test_far_decay_brownian_like_branches():
    # alpha < 1 branch with nu = 2 - 2H
    rep = check_far_decay(make_model("fbm", H=0.3))
    assert rep.verdict and rep.ratio_sup < 1.0
    # alpha >= 1 branch
    rep = check_far_decay(make_model("subfbm", H=0.8))
    assert rep.verdict


@pytest.mark.parametrize("name,kw", CATALOG_CASES + [("fbm", {"H": 0.7}),
                                                     ("subfbm", {"H": 0.8})])
def test_far_decay_on_the_integer_grid_matches_the_n_729_assembly(name, kw):
    # self-similarity: the rectangles of model.r on the integer grid are the
    # n = 729 increment covariances times 729^(2 beta); only the rounding of
    # the cancelling rectangle differs
    m = make_model(name, **kw)
    rep = check_far_decay(m)
    want = far_decay_ratios_on_grid(m)
    assert rep.grid == [3.0**e for e in range(1, 7)]
    assert rep.ratios == pytest.approx(want, rel=1e-8)
    # the trend window is the top four pairs, as none of the ratios is zero
    slope = float(np.polyfit(np.log(rep.grid[-4:]), np.log(want[-4:]), 1)[0])
    assert rep.trend_slope == pytest.approx(slope, abs=1e-8)
    assert rep.verdict == (slope <= analysis.SLOPE_TOL)


def test_run_all_checks_shape():
    reports = run_all_checks(make_model("swanson"))
    assert set(reports) == {
        "psi-deriv1-envelope", "psi-deriv2-envelope", "psi-slope-identity",
        "phi-deriv1-tail", "phi-deriv2-tail", "increment-variance-residual",
        "adjacent-covariance-residual", "separated-covariance-residual",
        "far-covariance-decay",
    }
    assert all(rep.verdict for rep in reports.values())
    # ratio_sup is the fitted constant; no second key repeats it
    assert set(reports["far-covariance-decay"].to_dict()) == {
        "target", "model", "grid", "ratios", "ratio_sup", "trend_slope", "verdict", "note",
    }
