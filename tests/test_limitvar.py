import math

import numpy as np
import pytest

from ssgauss.analysis import contraction_report
from ssgauss import limitvar
from ssgauss.cli import main as cli_main
from ssgauss.errors import GateError, NumericalError
from ssgauss.hermite import HermiteFunction, builtin_family
from ssgauss.limitvar import _partial_sum, second_difference, sigma_q_sq, sigma_sq
from ssgauss.models import make_model
from ssgauss.montecarlo import run_experiment

from oracles import partial_sum_three_powers

# frozen from a pre-build direct summation over |m| <= 1e7 (tail < 2e-14 rel)
SIGMA2_HALF_Q2 = 2.35748744831344


def direct_series(alpha, q, M):
    """Independent oracle: plain chunked summation of the variance series."""
    chunk = 1 << 20
    parts = []
    for lo in range(1, M + 1, chunk):
        m = np.arange(lo, min(lo + chunk, M + 1), dtype=float)
        parts.append(float(np.sum(((m + 1.0) ** alpha + (m - 1.0) ** alpha
                                   - 2.0 * m**alpha) ** q)))
    return 2.0**-q * math.factorial(q) * (2.0**q + 2.0 * math.fsum(parts))


def test_second_difference_values():
    assert second_difference(0, 0.77) == 2.0
    assert second_difference(1, 1.0) == 0.0
    assert second_difference(2, 0.5) == pytest.approx(
        math.sqrt(3.0) + 1.0 - 2.0 * math.sqrt(2.0), rel=1e-14)


def test_second_difference_symmetry_and_sign():
    m = np.arange(1, 1001)
    a_low = second_difference(m, 0.5)
    assert np.array_equal(a_low, second_difference(-m, 0.5))
    assert np.all(a_low < 0.0)
    a_high = second_difference(np.arange(2, 1001), 1.5)
    assert np.all(a_high > 0.0)


def test_collapses_to_factorial_at_alpha_one():
    for q in range(2, 9):
        res = sigma_q_sq(1.0, q)
        assert res.value == float(math.factorial(q))
        assert res.tail_bound == 0.0


def test_against_frozen_direct_summation_oracle():
    res = sigma_q_sq(0.5, 2)
    assert abs(res.value - SIGMA2_HALF_Q2) <= res.tail_bound + 5e-12
    # a tighter tolerance walks the cutoff out and shrinks the gap
    tight = sigma_q_sq(0.5, 2, rel_tol=1e-13)
    assert abs(tight.value - SIGMA2_HALF_Q2) <= 5e-12


def test_live_oracle_other_exponent():
    res = sigma_q_sq(0.7, 3, rel_tol=1e-12)
    assert res.value == pytest.approx(direct_series(0.7, 3, 10**6), rel=1e-10)


def test_truncation_is_monotone_within_tail_bound():
    alpha, q, M = 0.7, 2, 2048
    prefac = 2.0**-q * math.factorial(q)
    p1 = prefac * _partial_sum(alpha, q, M)
    p2 = prefac * _partial_sum(alpha, q, 2 * M)
    expo = q * (alpha - 2.0) + 1.0
    tail = prefac * 2.0 * (alpha * abs(alpha - 1.0)) ** q * (M - 1.0) ** expo / abs(expo)
    assert abs(p2 - p1) < tail


CHUNK = 256  # a small chunk grid, so that many chunks and boundaries run cheaply
BOUNDARY_MS = [1, 2, 255, 256, 257, 511, 512, 513, 1000, 5 * CHUNK, 5 * CHUNK + 1, 4097]


@pytest.mark.parametrize("alpha", [0.3, 0.7, 0.99, 1.0, 1.01, 1.3, 1.7])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_partial_sum_is_bit_equal_to_three_power_sum(monkeypatch, alpha, q):
    # one power per lattice point and reused whole chunks change no bit,
    # below, on and across chunk boundaries, with and without reuse
    monkeypatch.setattr(limitvar, "_CHUNK", CHUNK)
    whole: dict[int, float] = {}
    for M in BOUNDARY_MS:
        want = partial_sum_three_powers(alpha, q, M, chunk=CHUNK).hex()
        assert _partial_sum(alpha, q, M).hex() == want, M
        assert _partial_sum(alpha, q, M, whole).hex() == want, M
    assert sorted(whole) == list(range(1, 4097 - CHUNK + 1, CHUNK))


def test_failing_series_sums_each_whole_chunk_once(monkeypatch):
    # the cutoff doubles 1024 -> 2048 -> 4096 -> 8192 -> 10000 and fails there;
    # each whole chunk is summed once, a partial last chunk once per cutoff
    alpha, q, m_cap = 1.3, 2, 10_000
    monkeypatch.setattr(limitvar, "_CHUNK", CHUNK)
    monkeypatch.setattr(limitvar, "_partial_sum", lambda a, k, M, whole=None:
                        partial_sum_three_powers(a, k, M, chunk=CHUNK))
    with pytest.raises(NumericalError) as want:
        sigma_q_sq(alpha, q, m_cap=m_cap)
    monkeypatch.undo()

    monkeypatch.setattr(limitvar, "_CHUNK", CHUNK)
    starts = []
    arange = np.arange

    def counting_arange(start, *args, **kwargs):
        starts.append(start + 1)
        return arange(start, *args, **kwargs)

    monkeypatch.setattr(limitvar.np, "arange", counting_arange)
    with pytest.raises(NumericalError) as got:
        sigma_q_sq(alpha, q, m_cap=m_cap)
    monkeypatch.undo()
    assert str(got.value) == str(want.value)
    whole_los = list(range(1, m_cap - CHUNK + 2, CHUNK))
    assert sorted(lo for lo in starts if lo in whole_los) == whole_los
    assert sorted(lo for lo in starts if lo not in whole_los) == [m_cap - m_cap % CHUNK + 1]


def test_gate_rejections():
    with pytest.raises(GateError):
        sigma_q_sq(1.5, 2)
    with pytest.raises(GateError):
        sigma_q_sq(1.7, 3)
    f1 = HermiteFunction(coeffs={1: 1.0})
    with pytest.raises(GateError):
        sigma_sq(f1, 0.5)
    f2 = builtin_family("single_hermite", 2)
    with pytest.raises(GateError):
        sigma_sq(f2, 1.6)


def test_gate_is_closed_at_two_minus_one_over_d():
    # alpha = 1.9 = 2 - 1/10 exactly; the series certificate exponent
    # 10 (alpha - 2) + 1 rounds to -9e-16 there, so only the gate refuses
    with pytest.raises(GateError, match="2 - 1/d"):
        sigma_q_sq(1.9, 10)


# (d, H) for fbm with alpha = 2H, and whether the gate alpha < 2 - 1/d admits it
GATE_CASES = [(2, 0.75, False), (10, 0.95, False), (3, 0.9, False),
              (2, 0.5, True), (3, 0.5, True)]


@pytest.mark.parametrize("d,H,admitted", GATE_CASES)
def test_every_caller_applies_the_same_gate(tmp_path, capsys, d, H, admitted):
    model, f = make_model("fbm", H=H), builtin_family("single_hermite", d)
    for call in (lambda: sigma_sq(f, model.alpha), lambda: sigma_q_sq(model.alpha, d),
                 lambda: run_experiment(model, f, 16, [1.0], M=100, seed=0)):
        if admitted:
            call()
        else:
            with pytest.raises(GateError):
                call()
    assert bool(contraction_report(model, d, (16,)).tv) == admitted
    cli_main(["check", "--model", "fbm", "--H", str(H), "--f", f"hermite:{d}",
              "--out", str(tmp_path)])
    assert ("warning" in capsys.readouterr().out) != admitted


def test_non_finite_total_is_a_numerical_error():
    with pytest.raises(NumericalError, match="double range"):
        sigma_sq(HermiteFunction({2: 1e154}), 0.5)


@pytest.mark.parametrize("q", [171, 197])
def test_sigma_q_past_the_double_range_is_a_numerical_error(q):
    # sigma_q^2 is about q!, past the double range from q = 171; the
    # prefactor q!/2^q is too from q = 197
    with pytest.raises(NumericalError, match=f"double range.*q={q}"):
        sigma_q_sq(0.6, q)


def test_blowup_toward_gate():
    # certified accuracy degrades as alpha approaches the q=2 gate at 1.5
    # (the tail exponent 2(alpha-2)+1 tends to 0), so audit the growth at
    # a few-percent tolerance where the certificate is still attainable
    v = [sigma_q_sq(a, 2, rel_tol=2e-2).value for a in (1.2, 1.3, 1.4)]
    assert v[0] < v[1] < v[2]


def test_cap_failure_raises():
    with pytest.raises(NumericalError):
        sigma_q_sq(0.9, 2, rel_tol=1e-14, m_cap=10_000)


def test_aggregate_trivial_values():
    f2 = builtin_family("single_hermite", 2)
    assert sigma_sq(f2, 1.0).sigma_sq == pytest.approx(2.0, rel=1e-15)
    f4 = builtin_family("even_power", 2)
    lv = sigma_sq(f4, 1.0)
    assert lv.sigma_sq == pytest.approx(96.0, rel=1e-12)
    assert set(lv.per_chaos) == {2, 4}
    assert lv.per_chaos[2] == pytest.approx(2.0)
    assert lv.per_chaos[4] == pytest.approx(24.0)
    assert set(lv.truncation_m) == {2, 4}
    assert all(b >= 0.0 for b in lv.tail_bound.values())


def test_fbm_cross_check_small():
    # the series with alpha = 2H against its direct summation
    H = 0.3
    f2 = builtin_family("single_hermite", 2)
    lv = sigma_sq(f2, 2.0 * H, rel_tol=1e-12)
    assert lv.sigma_sq == pytest.approx(direct_series(0.6, 2, 10**7), rel=1e-9)
