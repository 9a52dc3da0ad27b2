import math
import tracemalloc

import numpy as np
import pytest

from ssgauss import covgrid
from ssgauss.covgrid import MAX_N, increment_cov
from ssgauss.errors import DomainError
from ssgauss.hermite import builtin_family
from ssgauss.models import make_model
from ssgauss.montecarlo import exact_variance

from conftest import CATALOG_CASES
from oracles import increment_cov_full_grid

EPS = np.finfo(float).eps


def test_brownian_increments_are_independent():
    ic = increment_cov(make_model("fbm", H=0.5), 4, 4)
    assert np.array_equal(ic.cov, np.eye(4) / 4.0)
    assert np.array_equal(ic.corr, np.eye(4))


def test_first_increment_variance_is_scaled_phi_one():
    for name, kw in CATALOG_CASES:
        m = make_model(name, **kw)
        ic = increment_cov(m, 16, 4)
        expected = 16.0 ** (-2.0 * m.beta) * m.phi(1.0)
        assert ic.cov[0, 0] == pytest.approx(expected, rel=1e-13)


def test_swanson_first_diagonal_entry():
    ic = increment_cov(make_model("swanson"), 16, 4)
    assert ic.cov[0, 0] == pytest.approx(math.pi / 32.0, rel=1e-15)


def test_fbm_increments_match_stationary_closed_form():
    H = 0.7
    ic = increment_cov(make_model("fbm", H=H), 8, 8)
    m = np.arange(8)[:, None] - np.arange(8)[None, :]
    expected = 8.0 ** (-2 * H) * 0.5 * (
        np.abs(m + 1.0) ** (2 * H) + np.abs(m - 1.0) ** (2 * H) - 2.0 * np.abs(m) ** (2 * H)
    )
    assert np.allclose(ic.cov, expected, rtol=1e-12, atol=1e-16)


def test_fbm_correlation_is_toeplitz():
    ic = increment_cov(make_model("fbm", H=0.3), 32, 32)
    for lag in (1, 2, 5):
        diag = np.diagonal(ic.corr, offset=lag)
        assert np.allclose(diag, diag[0], rtol=1e-11)


def test_swanson_adjacent_correlation_limit():
    # stationary-like limit (2^alpha - 2) / 2 of the adjacent correlation
    ic = increment_cov(make_model("swanson"), 64, 64)
    assert ic.corr[63, 62] == pytest.approx((math.sqrt(2.0) - 2.0) / 2.0, abs=0.02)


def test_diagonal_matches_roughness_expansion_on_grid_data():
    # |cov_jj - 2 lam (j/n)^(2b-a) n^-a| stays inside the first-order
    # envelope with a modest fitted constant, on the assembled matrix itself
    m = make_model("swanson")
    n = 256
    ic = increment_cov(m, n, n)
    j = np.arange(8, n)
    t = j / n
    main = 2.0 * m.lam * t ** (2 * m.beta - m.alpha) * (1.0 / n) ** m.alpha
    resid = np.abs(np.diag(ic.cov)[8:] - main)
    env = (1.0 / n) * t ** (2 * m.beta - 1.0)
    assert np.max(resid / env) < 1.0  # measured fitted constant ~0.16


def test_fbm_scale_coherence_under_doubling():
    H = 0.3
    m = make_model("fbm", H=H)
    a = increment_cov(m, 64, 32)
    b = increment_cov(m, 128, 32)
    assert np.allclose(b.std**2 * 2.0 ** (2 * H), a.std**2, rtol=1e-12)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_cov_symmetric_psd_unit_diagonal(name, kw):
    ic = increment_cov(make_model(name, **kw), 128, 128)
    assert np.array_equal(ic.cov, ic.cov.T)
    assert np.all(np.diag(ic.corr) == 1.0)
    assert np.max(np.abs(ic.corr)) <= 1.0 + 1e-12
    eig = np.linalg.eigvalsh(ic.cov)
    assert eig.min() >= -1e-8 * np.trace(ic.cov)
    assert np.allclose(ic.corr * np.outer(ic.std, ic.std), ic.cov,
                       rtol=1e-12, atol=1e-300)


def test_input_validation():
    m = make_model("fbm", H=0.5)
    with pytest.raises(DomainError):
        increment_cov(m, 1, 4)
    with pytest.raises(DomainError):
        increment_cov(m, 4, 0)
    with pytest.raises(DomainError):
        increment_cov(m, 4, MAX_N + 1)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_blocked_assembly_bit_identical_to_full_grid(name, kw, monkeypatch):
    # block entries 1 gives one row per block, 3000 a few rows, None the
    # package's own block size; every block edge must leave the bits alone
    m = make_model(name, **kw)
    sizes = [(2, 1), (7, 7), (255, 255), (256, 256), (257, 257), (600, 600),
             (64, 257), (1000, 600), (16, 7)]
    for entries in (None, 1, 3000):
        if entries is not None:
            monkeypatch.setattr(covgrid, "_BLOCK_ENTRIES", entries)
        for n, N in sizes:
            ic = increment_cov(m, n, N)
            cov, std, corr = increment_cov_full_grid(m, n, N)
            for got, want in ((ic.std, std), (ic.corr, corr)):
                assert got.tobytes() == want.tobytes(), (entries, n, N)
            # the derived cov rounds std[j] std[k], corr and their product,
            # each by at most half an ulp
            derived = ic.cov
            assert np.array_equal(derived == 0.0, cov == 0.0), (entries, n, N)
            assert np.all(np.abs(derived - cov) <= 2 * EPS * np.abs(cov)), (entries, n, N)


def _block_allowance(N):
    # a kernel block is rows + 1 by at most N + 1 values, at most
    # _BLOCK_ENTRIES + N + 1 doubles; Model.r holds its ordered operands and
    # power and sum terms, and the rectangle differences, mask and std outer
    # product follow: at most 12 block-sized arrays live at once
    return 12 * 8 * (covgrid._BLOCK_ENTRIES + N + 1)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assembly_peak_memory_is_one_output_plus_blocks():
    # corr is the one 8 N^2-byte array; a full-grid assembly peaks at about
    # 8 x 8 N^2 with its kernel grid and mirrored temporaries
    m = make_model("bifbm", H=0.6, K=0.5)
    N = 2048
    increment_cov(m, 64, 64)
    ic, peak = _peak_bytes(lambda: increment_cov(m, N, N))
    assert ic.corr.shape == (N, N)
    assert peak <= 8 * N * N + _block_allowance(N), peak / (8 * N * N)


def test_exact_variance_peak_memory_is_corr_plus_one_power():
    # corr and the elementwise power summed for each chaos
    m = make_model("bifbm", H=0.6, K=0.5)
    f = builtin_family("single_hermite", 2)
    N = 2048
    exact_variance(m, f, 64, 1.0)
    value, peak = _peak_bytes(lambda: exact_variance(m, f, N, 1.0))
    assert value > 0.0
    assert peak <= 2 * 8 * N * N + _block_allowance(N), peak / (8 * N * N)
