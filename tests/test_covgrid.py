import dataclasses
import math
import platform
import resource
import sys
import tracemalloc

import numpy as np
import pytest

from ssgauss import cli, covgrid
from ssgauss.covgrid import MAX_N, increment_cov
from ssgauss.errors import DomainError
from ssgauss.hermite import builtin_family
from ssgauss.models import make_model
from ssgauss.montecarlo import exact_variance, run_experiment

from conftest import CATALOG_CASES, peak_bytes
from oracles import increment_cov_full_grid, kernel_masked, kernel_mp

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
    # a size that is not an integer is refused by name, not truncated
    with pytest.raises(DomainError, match="n must be an integer, got 2.5"):
        increment_cov(m, 2.5, 4)
    with pytest.raises(DomainError, match="N must be an integer, got 4.5"):
        increment_cov(m, 8, 4.5)
    assert increment_cov(m, np.int64(8), np.int32(4)).N == 4
    # a thread count is None or an integer >= 1
    with pytest.raises(DomainError, match="thread count must be >= 1, got 0"):
        increment_cov(m, 8, 4, threads=0)
    with pytest.raises(DomainError, match="threads must be an integer, got 1.5"):
        increment_cov(m, 8, 4, threads=1.5)


def test_streamed_bands_refuse_a_size_that_is_not_an_integer():
    with pytest.raises(DomainError, match="N must be an integer, got 3.5"):
        covgrid.map_bands(make_model("swanson"), 3.5, lambda j0, blk: blk, threads=1)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_every_band_is_rows_of_corr(name, kw, monkeypatch):
    # a band is rows j0..j1-1 of the unit-scale corr from column j0 on, its
    # square included: mirrored below its diagonal, with a diagonal of 1
    m = make_model(name, **kw)
    for entries in (None, 1, 3000):
        if entries is not None:
            monkeypatch.setattr(covgrid, "_BLOCK_ENTRIES", entries)
        for N in (7, 257):
            corr = increment_cov(m, 64, N).corr
            j0 = 0
            for blk in covgrid.map_bands(m, N, lambda j0, blk: blk, threads=1):
                j1 = j0 + blk.shape[0]
                assert blk.tobytes() == corr[j0:j1, j0:].tobytes(), (entries, N, j0)
                j0 = j1
            assert j0 == N


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_blocked_assembly_bit_identical_to_full_grid(name, kw, monkeypatch):
    # block entries 1 gives one row per block, 3000 a few rows, None the
    # package's own block size; every block edge must leave the bits alone
    m = make_model(name, **kw)
    sizes = [(2, 1), (7, 7), (255, 255), (256, 256), (257, 257), (600, 600),
             (64, 257), (1000, 600), (16, 7)]
    # 10**9 makes one band whose square is the whole grid, many tiles wide
    for entries in (None, 1, 3000, 10**9):
        if entries is not None:
            monkeypatch.setattr(covgrid, "_BLOCK_ENTRIES", entries)
        for n, N in sizes:
            ic = increment_cov(m, n, N)
            cov, std_unit, corr = increment_cov_full_grid(m, 1, N)
            # std at resolution n is the unit-scale std times n^(-beta)
            std = std_unit * float(n) ** (-m.beta)
            for got, want in ((ic.std, std), (ic.corr, corr)):
                assert got.tobytes() == want.tobytes(), (entries, n, N)
            # the derived cov rounds std[j] std[k], corr and their product,
            # each by at most half an ulp; corr is formed from the unit-scale
            # rectangles, so with the unit-scale std it gives them back
            derived = dataclasses.replace(ic, std=std_unit).cov
            assert np.array_equal(derived == 0.0, cov == 0.0), (entries, n, N)
            assert np.all(np.abs(derived - cov) <= 2 * EPS * np.abs(cov)), (entries, n, N)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_rectangle_is_the_grid_rectangle(name, kw):
    # on and above the diagonal, the rectangles of the integer times 0..40
    # from the masked kernel, grouped as the grid groups them
    m = make_model(name, **kw)
    t = np.arange(41, dtype=float)
    R = kernel_masked(m, t[:, None], t[None, :])
    want = (R[1:, 1:] - R[:-1, 1:]) - (R[1:, :-1] - R[:-1, :-1])
    got = covgrid.rectangle(m, t[:-1, None], t[1:, None], t[None, :-1], t[None, 1:])
    upper = np.triu(np.ones((40, 40), dtype=bool))
    assert got[upper].tobytes() == want[upper].tobytes()


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_unit_scale_std_against_50_digit_rectangles(name, kw):
    # std[j]^2 is the rectangle rect = A - 2B + D of the kernel values
    # A = R(j+1, j+1), B = R(j, j+1) = R(j+1, j) and D = R(j, j), formed as
    # (A - B) - (B - D).  If Model.r gives them with relative errors at most
    # rho, the three subtractions each round by at most u = eps/2 of a
    # partial sum, and those sums total at most S = |A| + 2|B| + |D|; the
    # square root rounds by u, which squaring (exact here) doubles.  So
    #     |std^2 - rect| <= (rho + 2u) S + 2u |rect|
    # to first order in u: a relative error of kappa (rho + 2u) + 2u, with
    # kappa = S / |rect| the rectangle's condition number.  The test allows
    # (rho + eps) S + 2 eps |rect|, with room for the second-order terms.
    mp = pytest.importorskip("mpmath")
    m = make_model(name, **kw)
    N = 1024
    times = np.arange(N + 1, dtype=float)
    std = covgrid._std(m, times)
    got_diag, got_off = m.r(times, times), m.r(times[:-1], times[1:])
    eps = mp.mpf(EPS)
    with mp.workdps(50):
        diag = [kernel_mp(m, j, j) for j in range(N + 1)]
        off = [kernel_mp(m, j, j + 1) for j in range(N)]
        for j in range(N):
            corners = ((got_diag[j + 1], diag[j + 1]), (got_off[j], off[j]),
                       (got_diag[j], diag[j]))
            rho = max((abs(mp.mpf(g) - x) / abs(x) if x else mp.mpf(0)) for g, x in corners)
            S = abs(diag[j + 1]) + 2 * abs(off[j]) + abs(diag[j])
            rect = diag[j + 1] - 2 * off[j] + diag[j]
            gap = abs(mp.mpf(std[j]) ** 2 - rect)
            assert gap <= (rho + eps) * S + 2 * eps * abs(rect), (name, j)


def test_a_grid_does_not_depend_on_earlier_calls():
    # cold, after another model's grid and after a larger grid of the same
    # model, a call returns the same bits; std is the unit-scale std times
    # n^(-beta)
    other = make_model("subfbm", H=0.35)
    for m in (make_model("swanson"), make_model("bifbm", H=0.6, K=0.5)):
        std_unit = increment_cov_full_grid(m, 1, 1000)[1]
        for n, N in ((64, 256), (1000, 128), (2, 7), (1000, 1000)):
            cold = increment_cov(m, n, N)
            increment_cov(other, n, N)
            after_other = increment_cov(m, n, N)
            increment_cov(m, n, 1000)
            after_larger = increment_cov(m, n, N)
            for ic in (after_other, after_larger):
                assert ic.corr.tobytes() == cold.corr.tobytes(), (m.name, n, N)
                assert ic.std.tobytes() == cold.std.tobytes(), (m.name, n, N)
            want = std_unit[:N] * float(n) ** (-m.beta)
            assert cold.std.tobytes() == want.tobytes(), (m.name, n, N)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_a_grid_is_the_leading_block_of_a_larger_one(name, kw):
    # the two grids cut their bands at different rows, and the resolution
    # of a request never reaches corr
    m = make_model(name, **kw)
    lead = increment_cov(m, 64, 256).corr
    assert lead.tobytes() == increment_cov(m, 2048, 2048).corr[:256, :256].tobytes()


def test_returned_corr_is_read_only():
    m = make_model("swanson")
    for N in (32, 24, 16):
        corr = increment_cov(m, 64, N).corr
        with pytest.raises(ValueError):
            corr[0, 1] = 0.0


@pytest.mark.parametrize("name,kw", [("bifbm", {"H": 0.6, "K": 0.5}), ("swanson", {})])
def test_band_passes_give_the_same_bits_on_any_worker_count(name, kw, cpus):
    # each band is formed whole by one worker, increment_cov writes disjoint
    # slices of corr and exact_variance adds the band sums with fsum, which
    # rounds the exact sum once: no worker count moves a bit.  N = 64 is one
    # band, 1024 many, and 777 ends on a band cut short by N.
    # Eight workers on a short switch interval interleave the writes of
    # many bands into the one corr.
    m = make_model(name, **kw)
    fs = [builtin_family("single_hermite", 2), builtin_family("odd_abs_power", 1)]
    want = {}
    interval = sys.getswitchinterval()
    try:
        for workers in (1, 2, 8):
            cpus.usable(workers)
            sys.setswitchinterval(1e-5 if workers > 2 else interval)
            for N in (64, 1024, 777):
                ic = increment_cov(m, 256, N)
                got = (ic.corr.tobytes(), ic.std.tobytes(),
                       *[float.hex(exact_variance(m, f, N, 1.0)) for f in fs])
                assert got == want.setdefault(N, got), (workers, N)
    finally:
        sys.setswitchinterval(interval)


def test_band_pools_follow_the_thread_count(cpus, tmp_path):
    # threads=1 and a grid of one band form their bands inline; simulate
    # --threads 2 assembles on two workers
    cpus.usable(2)
    m, f = make_model("swanson"), builtin_family("single_hermite", 2)
    assert len(covgrid._schedule(512)) > 1
    run_experiment(m, f, 512, [0.5, 1.0], M=100, seed=0, threads=1)
    assert cpus.pools == []
    assert len(covgrid._schedule(64)) == 1
    increment_cov(m, 64, 64)
    exact_variance(m, f, 64, 1.0)
    assert cpus.pools == []
    exact_variance(m, f, 512, 1.0)
    assert cpus.pools == [2]
    assert cli.main(["simulate", "--model", "swanson", "--n", "512", "--M", "2",
                     "--threads", "2", "--out", str(tmp_path)]) == 0
    assert cpus.pools == [2, 2]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc settings")
def test_a_warm_band_pass_faults_in_no_pages():
    # freed band temporaries stay in the heaps for the next band; left to
    # glibc's defaults, a pass at N = 2048 faults in about 15,000 pages
    m, f = make_model("bifbm", H=0.6, K=0.5), builtin_family("single_hermite", 2)
    for threads in (1, 2):
        exact_variance(m, f, 2048, 1.0, threads=threads)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        exact_variance(m, f, 2048, 1.0, threads=threads)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 512, (threads, faults)


def _block_allowance(N):
    # a kernel block is rows + 1 by at most N + 1 values, at most
    # _BLOCK_ENTRIES + N + 1 doubles; Model.r holds its ordered operands and
    # power and sum terms, and the rectangle differences, mask and std outer
    # product follow: at most 12 block-sized arrays live at once
    return 12 * 8 * (covgrid._BLOCK_ENTRIES + N + 1)


def test_assembly_peak_memory_is_one_output_plus_blocks(cpus):
    # corr is the one 8 N^2-byte array; a full-grid assembly peaks at about
    # 8 x 8 N^2 with its kernel grid and mirrored temporaries.  Two CPUs put
    # two bands in flight by default; one thread forms one at a time.
    cpus.usable(2)
    m = make_model("bifbm", H=0.6, K=0.5)
    N = 2048
    increment_cov(m, 64, 64)
    for threads in (None, 1):
        ic, peak = peak_bytes(lambda: increment_cov(m, N, N, threads=threads))
        assert ic.corr.shape == (N, N)
        assert peak <= 8 * N * N + _block_allowance(N), (threads, peak / (8 * N * N))


def test_exact_variance_peak_memory_is_block_temporaries(cpus):
    # the oracle streams corr one band of rows at a time on each worker: it
    # allocates the bands' temporaries and the std of the grid, never an
    # N x N array.  Two CPUs put two bands in flight by default.
    cpus.usable(2)
    m = make_model("bifbm", H=0.6, K=0.5)
    N = 2048
    for f in (builtin_family("single_hermite", 2), builtin_family("odd_abs_power", 1)):
        for threads in (None, 1):
            value, peak = peak_bytes(lambda: exact_variance(m, f, N, 1.0, threads=threads))
            assert value > 0.0
            assert peak <= _block_allowance(N), (threads, peak)


def test_no_grid_outlives_its_caller():
    m = make_model("bifbm", H=0.6, K=0.5)
    N = 2048
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ic = increment_cov(m, N, N)
        assert ic.corr.shape == (N, N)
        del ic
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert left <= _block_allowance(N), left


def _oracle(m, f, n, t):
    # (1/n) fsum of f.covariance over the whole full-grid corr of floor(n t)
    corr = increment_cov_full_grid(m, 1, math.floor(n * t))[2]
    return math.fsum(f.covariance(corr).ravel()) / n


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_streamed_exact_variance_against_the_full_grid_sum(name, kw, monkeypatch):
    # the streamed bands add the same g(corr[j, k]) in another order: the
    # corr above the diagonal is the grid's, bit for bit, and the grid is
    # exactly symmetric with a unit diagonal; what is left is the rounding
    # of each band's pairwise sum, held to 4 ulps of the value
    m = make_model(name, **kw)
    fs = [builtin_family("single_hermite", 2), builtin_family("odd_abs_power", 1),
          builtin_family("even_power", 2)]
    for entries in (None, 1, 3000):
        if entries is not None:
            monkeypatch.setattr(covgrid, "_BLOCK_ENTRIES", entries)
        for n, t in ((7, 1.0), (64, 0.37), (300, 1.0), (1000, 0.37)):
            for f in fs:
                want = _oracle(m, f, n, t)
                got = exact_variance(m, f, n, t)
                assert abs(got - want) <= 4 * EPS * abs(want), (entries, n, t, f.label)


def test_exact_variance_is_not_capped_by_the_dense_grid(monkeypatch):
    # MAX_N caps the grids increment_cov returns; the streamed oracle forms none
    monkeypatch.setattr(covgrid, "MAX_N", 64)
    m = make_model("subfbm", H=0.35)
    f = builtin_family("single_hermite", 2)
    n, t = 128, 100 / 128
    want = _oracle(m, f, n, t)
    assert abs(exact_variance(m, f, n, t) - want) <= 4 * EPS * abs(want)
    with pytest.raises(DomainError, match="exceeds the dense-matrix cap 64"):
        increment_cov(m, n, 100)
