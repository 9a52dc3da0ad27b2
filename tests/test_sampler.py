import os
import re
import struct
import weakref

import numpy as np
import pytest

from ssgauss import covgrid, sampler
from ssgauss.covgrid import MAX_N, IncrementCovariance, increment_cov
from ssgauss.errors import DomainError, NumericalError
from ssgauss.models import make_model
from ssgauss.sampler import (
    _REPLICA_CHUNK,
    _replica_normals,
    _uniform_rows,
    cholesky,
    normal_icdf,
    read_batch,
    sample_batch,
    write_batch,
)

from conftest import CATALOG_CASES, peak_bytes
from oracles import (
    normal_icdf_masked,
    replica_uniforms_fresh_philox,
    sample_normalized_whole_chunks,
)


def _manual_ic(cov, n=2):
    std = np.sqrt(np.diag(cov))
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    return IncrementCovariance(model=make_model("fbm", H=0.5), n=n,
                               N=cov.shape[0], std=std, corr=corr)


def test_cholesky_brownian_grid():
    # L factors corr; diag(std) L factors cov
    ic = increment_cov(make_model("fbm", H=0.5), 4, 4)
    factor = cholesky(ic)
    assert factor.jitter == 0.0
    assert np.array_equal(factor.L, np.eye(4))
    assert np.array_equal(ic.std[:, None] * factor.L, np.eye(4) / 2.0)


def test_cholesky_diagonal_input():
    ic = _manual_ic(np.diag([4.0, 1.0]))
    factor = cholesky(ic)
    assert np.array_equal(factor.L, np.eye(2))
    assert np.array_equal(ic.std[:, None] * factor.L, np.diag([2.0, 1.0]))


def test_cholesky_swanson_without_jitter():
    ic = increment_cov(make_model("swanson"), 256, 256)
    factor = cholesky(ic)
    assert factor.jitter == 0.0
    # eigenvalue oracle for the same matrix
    assert np.linalg.eigvalsh(ic.cov).min() >= -1e-12 * np.trace(ic.cov)


def test_cholesky_escalates_then_fails():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    from ssgauss.errors import NumericalError
    with pytest.raises(NumericalError):
        cholesky(_manual_ic(bad))


def test_normal_icdf_against_scipy():
    ndtri = pytest.importorskip("scipy.special").ndtri
    u = np.linspace(1e-10, 1.0 - 1e-10, 20001)
    assert np.max(np.abs(normal_icdf(u) - ndtri(u))) <= 1e-13
    assert normal_icdf(0.5) == 0.0
    with pytest.raises(DomainError):
        normal_icdf(0.0)
    with pytest.raises(DomainError):
        normal_icdf(1.0)


def test_normal_icdf_refuses_nan():
    with pytest.raises(DomainError):
        normal_icdf(np.nan)
    with pytest.raises(DomainError):
        normal_icdf(np.array([0.3, np.nan]))


def test_draw_is_deterministic_per_replica():
    a = _replica_normals(99, 5, 1000)
    b = _replica_normals(99, 5, 1000)
    assert np.array_equal(a, b)
    c = _replica_normals(99, 6, 1000)
    corr = np.corrcoef(a, c)[0, 1]
    assert abs(corr) < 0.1  # 3/sqrt(N) band for distinct streams


def test_identity_draw_moments():
    z = _replica_normals(7, 0, 10_000)
    assert abs(z.mean()) < 0.05
    assert z.var() == pytest.approx(1.0, abs=0.05)


def test_batch_shapes_and_determinism():
    m = make_model("fbm", H=0.5)
    one = sample_batch(m, 16, 16, 1, seed=3)
    assert one.increments.shape == (1, 16)
    b1 = sample_batch(m, 16, 16, 700, seed=3, threads=1)
    b8 = sample_batch(m, 16, 16, 700, seed=3, threads=8)
    assert np.array_equal(b1.increments, b8.increments)
    assert np.array_equal(b1.normalized, b8.normalized)
    # row i is the replica-i stream regardless of batch size
    assert np.array_equal(b1.increments[0], one.increments[0])
    assert (one.M, b1.M) == (1, 700)


def test_batch_rows_are_replica_normals_times_factor():
    m = make_model("swanson")
    seed, n, N, M = 11, 64, 48, _REPLICA_CHUNK + 9
    batch = sample_batch(m, n, N, M, seed=seed)
    ic = increment_cov(m, n, N)
    L = cholesky(ic).L
    for i in (0, 1, _REPLICA_CHUNK - 1, _REPLICA_CHUNK, M - 1):
        want = _replica_normals(seed, i, N) @ L.T
        scale = np.max(np.abs(want))
        assert np.max(np.abs(batch.normalized[i] - want)) <= 1e-12 * scale
        want = want * ic.std
        scale = np.max(np.abs(want))
        assert np.max(np.abs(batch.increments[i] - want)) <= 1e-12 * scale


def test_threads_capped_at_usable_cpus(cpus):
    m = make_model("fbm", H=0.5)
    b1 = sample_batch(m, 16, 16, 3 * _REPLICA_CHUNK, seed=3, threads=1)
    cpus.usable(1)
    assert covgrid._worker_count(8) == 1
    b8 = sample_batch(m, 16, 16, 3 * _REPLICA_CHUNK, seed=3, threads=8)
    assert cpus.pools == []  # one usable CPU: the chunks are filled inline, in turn
    assert b8.increments.tobytes() == b1.increments.tobytes()
    cpus.usable(2)
    b8 = sample_batch(m, 16, 16, 3 * _REPLICA_CHUNK, seed=3, threads=8)
    assert cpus.pools == [2]
    assert b8.increments.tobytes() == b1.increments.tobytes()


def test_worker_count_without_affinity_call(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    m = make_model("fbm", H=0.5)
    b1 = sample_batch(m, 16, 16, 3 * _REPLICA_CHUNK, seed=3, threads=1)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert covgrid._worker_count(1) == 1
    assert covgrid._worker_count(4) == min(4, os.cpu_count() or 1)
    for threads in (1, 4):
        bt = sample_batch(m, 16, 16, 3 * _REPLICA_CHUNK, seed=3, threads=threads)
        assert bt.normalized.tobytes() == b1.normalized.tobytes()


def test_batch_empirical_covariance_in_band():
    m = make_model("fbm", H=0.7)
    M, N = 2000, 64
    ic = increment_cov(m, 64, N)
    batch = sample_batch(m, 64, N, M, seed=2024)
    emp = batch.increments.T @ batch.increments / M
    band = np.sqrt((np.outer(np.diag(ic.cov), np.diag(ic.cov)) + ic.cov**2) / M)
    assert np.max(np.abs(emp - ic.cov)) <= 5.0 * np.max(band)
    var = batch.normalized.var(axis=0, ddof=1)
    assert np.all(var >= 1.0 - 5.0 / np.sqrt(M))
    assert np.all(var <= 1.0 + 5.0 / np.sqrt(M))


def test_batch_beyond_the_cap_is_refused_before_any_work(monkeypatch):
    # M * N = MAX_N^2 + 1 entries, one more than the largest dense grid
    def no_grid(*args):
        raise AssertionError("assembled a grid for a refused batch")

    monkeypatch.setattr(sampler, "increment_cov", no_grid)
    N = 5
    M = (MAX_N**2 + 1) // N
    assert M * N == MAX_N**2 + 1
    with pytest.raises(DomainError, match=f"M={M} .*N={N} .*{MAX_N**2}"):
        sample_batch(make_model("fbm", H=0.3), 8, N, M, seed=0)


def test_batch_rejects_empty():
    with pytest.raises(DomainError):
        sample_batch(make_model("fbm", H=0.5), 8, 8, 0, seed=1)
    # a replica count or seed that is not an integer is refused by name
    with pytest.raises(DomainError, match="M must be an integer, got 3.5"):
        sample_batch(make_model("fbm", H=0.5), 8, 8, 3.5, seed=1)
    with pytest.raises(DomainError, match="seed must be an integer, got 0.5"):
        sample_batch(make_model("fbm", H=0.5), 8, 8, 3, seed=0.5)
    # numpy integers are integers, and draw the bits of their Python values
    want = sample_batch(make_model("fbm", H=0.5), 8, 8, 3, seed=1).normalized
    got = sample_batch(make_model("fbm", H=0.5), np.int64(8), np.int64(8), np.int64(3),
                       seed=np.int64(1)).normalized
    assert got.tobytes() == want.tobytes()


def test_binary_round_trip(tmp_path):
    m = make_model("swanson")
    batch = sample_batch(m, 8, 8, 5, seed=10)
    path = tmp_path / "batch.bin"
    write_batch(batch, path)
    header, data = read_batch(path)
    assert header == {"n": 8, "N": 8, "M": 5, "seed": 10}
    assert np.array_equal(data, batch.increments)


def test_binary_length_checked(tmp_path):
    batch = sample_batch(make_model("fbm", H=0.5), 16, 16, 4, seed=1)
    path = tmp_path / "batch.bin"
    write_batch(batch, path)
    raw = path.read_bytes()
    assert len(raw) == 32 + 8 * 4 * 16
    for bad, size in ((raw[:-1], len(raw) - 1), (raw + b"\0" * 8, len(raw) + 8),
                      (raw[:20], 20)):
        path.write_bytes(bad)
        with pytest.raises(DomainError, match=f"holds {size} bytes"):
            read_batch(path)


@pytest.mark.parametrize("n,N,M,body", [(4, -2, -3, 48), (4, -1, -1, 8), (4, 16, 0, 0),
                                        (1, 16, 4, 8 * 4 * 16), (4, 0, 4, 0)])
def test_binary_header_outside_any_batch_is_refused(tmp_path, n, N, M, body):
    # negative M and N whose product matches the body, an empty batch and a
    # resolution below 2 are no batch write_batch writes
    path = tmp_path / "batch.bin"
    path.write_bytes(struct.pack("<4q", n, N, M, 0) + b"\0" * body)
    with pytest.raises(DomainError, match=re.escape(f"batch file {path} has header")):
        read_batch(path)


def test_chunk_icdf_equals_per_replica_normals():
    seed, N = 20240801, 96
    u = np.stack([replica_uniforms_fresh_philox(seed, rep, N) for rep in range(_REPLICA_CHUNK)])
    rows = np.stack([_replica_normals(seed, rep, N) for rep in range(_REPLICA_CHUNK)])
    assert normal_icdf(u).tobytes() == rows.tobytes()
    assert rows.tobytes() == normal_icdf_masked(u).tobytes()
    # every branch of AS 241: central, r <= 5 and r > 5 tails, both signs,
    # out to the smallest uniform and the largest double below 1, and the
    # branch points |u - 0.5| = 0.425 and r = 5 with their neighbours
    assert np.any(np.abs(u - 0.5) > 0.425)
    r5 = np.exp(-25.0)
    edge = (0.5 * 2.0**-53, 1.0 - 2.0**-53, 1e-12, 1.0 - 1e-12, 0.01, 0.99,
            0.075, 0.925, np.nextafter(0.075, 0.0), np.nextafter(0.925, 1.0),
            np.nextafter(0.075, 1.0), np.nextafter(0.925, 0.0),
            r5, 1.0 - r5, np.nextafter(r5, 0.0), np.nextafter(r5, 1.0), 0.5)
    u[7, :len(edge)] = edge
    u[300, -len(edge):] = edge
    block = normal_icdf(u)
    assert block.tobytes() == normal_icdf_masked(u).tobytes()
    assert np.array_equal(block, np.stack([normal_icdf(row) for row in u]))
    assert np.array_equal(block[7, :len(edge)], [normal_icdf(x) for x in edge])
    assert np.all(np.abs(block[7, :4]) > 7.0)  # r > 5 branch
    assert np.array_equal(np.sign(block[7, :6]), [-1, 1, -1, 1, -1, 1])


@pytest.mark.parametrize("N,M,entries,threads", [
    (96, _REPLICA_CHUNK + 9, None, 1),         # 341 rows a block; 512 no multiple
    (96, 2 * _REPLICA_CHUNK + 100, None, 2),   # three chunks on two threads
    (48, 700, 200, 2),                         # 4 rows a block
    (64, 300, 16, 1),                          # block below one row: one row a block
    (37, _REPLICA_CHUNK + 5, None, 1),         # odd N: 885 rows a block
    (1, _REPLICA_CHUNK + 5, None, 2),          # N = 1: a whole chunk in one block
])
def test_blocked_icdf_batch_is_the_whole_chunk_bits(N, M, entries, threads, monkeypatch, cpus):
    # the generator is re-keyed per replica, the inverse CDF is elementwise
    # and each chunk still takes one product with L^T, so neither the
    # block size nor the shared generator moves a bit
    if entries is not None:
        monkeypatch.setattr(sampler, "_ICDF_ENTRIES", entries)
    cpus.usable(2)
    m = make_model("swanson")
    batch = sample_batch(m, 64, N, M, seed=20240801, threads=threads)
    want = sample_normalized_whole_chunks(m, 64, N, M, 20240801)
    assert batch.normalized.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,N,M,seed", [
    (512, 512, 4000, 0),        # the batch of a `clt` op
    (8, 40, 30, -(1 << 63)),    # the int64 edges of the seed
    (8, 40, 30, (1 << 63) - 1),
])
def test_batch_is_the_fresh_generator_bits(n, N, M, seed):
    m = make_model("swanson")
    batch = sample_batch(m, n, N, M, seed=seed)
    want = sample_normalized_whole_chunks(m, n, N, M, seed)
    assert batch.normalized.tobytes() == want.tobytes()


def test_top_uniform_stays_below_one():
    raw = np.array([2**64 - 1, 0, 2**63], dtype=np.uint64)

    class FakePhilox:
        state = None

        def random_raw(self, count):
            return raw[:count].copy()

    u = np.empty((2, 3))
    _uniform_rows(FakePhilox(), 0, 0, np.empty((2, 3), dtype=np.uint64), u)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.all(u[:, 0] == np.nextafter(1.0, 0.0))
    unclamped = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(u[:, 1:], np.stack([unclamped[1:]] * 2))
    assert np.all(np.isfinite(normal_icdf(u)))


def test_generator_is_re_keyed_per_replica():
    # each row starts its stream afresh, whatever the generator drew before
    bitgen = np.random.Philox()
    bitgen.random_raw(5)
    u = np.empty((3, 7))
    _uniform_rows(bitgen, -5, 9, np.empty((3, 7), dtype=np.uint64), u)
    want = np.stack([replica_uniforms_fresh_philox(-5, rep, 7) for rep in (9, 10, 11)])
    assert u.tobytes() == want.tobytes()
    assert _replica_normals(-5, 10, 7).tobytes() == normal_icdf_masked(want[1]).tobytes()


def test_unjittered_factor_is_the_same_bits_at_two_resolutions():
    # corr does not depend on n, and an unjittered factor is read from corr
    # alone, so the factor and the normalized rows are n-free to the bit
    unjittered = 0
    for name, kw in CATALOG_CASES:
        m = make_model(name, **kw)
        coarse, fine = cholesky(increment_cov(m, 64, 48)), cholesky(increment_cov(m, 4096, 48))
        if coarse.jitter == 0.0:
            unjittered += 1
            assert fine.jitter == 0.0
            assert coarse.L.tobytes() == fine.L.tobytes(), name
            a, b = (sample_batch(m, n, 48, 3, seed=5).normalized for n in (64, 4096))
            assert a.tobytes() == b.tobytes(), name
    assert unjittered == len(CATALOG_CASES) - 1  # all but dw-z2


def test_increments_are_normalized_times_std():
    m = make_model("bifbm", H=0.6, K=0.5)
    batch = sample_batch(m, 32, 40, _REPLICA_CHUNK + 3, seed=8)
    want = batch.normalized * increment_cov(m, 32, 40).std
    assert batch.increments.tobytes() == want.tobytes()


# the jitter cholesky chose when it factored cov + eps I itself: the same
# rung of the ladder, in cov units, or the same failure (None)
_COV_JITTER = {64: 2.5552159381310732e-14, 512: 1.1511107842976692e-13, 2048: None}


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_corr_factor_keeps_the_cov_jitter(name, kw):
    # corr + eps diag(std^-2) is cov + eps I in correlation units, so each
    # grid takes the rung it took on cov.  Rungs are a factor 10 apart, and
    # eps = eps_rel trace(cov) / N moves only with std, at rounding level
    # (1.3e-7 relative at most, dw-z2 at a = 0.3 and N = 4096), so 1e-6
    # tells the rungs apart
    m = make_model(name, **kw)
    for N in (64, 512, 2048):
        want = _COV_JITTER[N] if name == "dw-z2" else 0.0
        ic = increment_cov(m, N, N)
        if want is None:
            with pytest.raises(NumericalError, match=f"n={N}, N={N}"):
                cholesky(ic)
        else:
            assert cholesky(ic).jitter == pytest.approx(want, rel=1e-6, abs=0.0), N


def test_cholesky_never_forms_cov(monkeypatch):
    monkeypatch.setattr(IncrementCovariance, "cov",
                        property(lambda ic: pytest.fail("formed cov")))
    for name, kw in (("swanson", {}), ("dw-z2", {"alpha": 0.5})):  # unjittered, jittered
        ic = increment_cov(make_model(name, **kw), 64, 64)
        assert (cholesky(ic).jitter > 0.0) == (name == "dw-z2")


def test_batch_peak_memory_is_one_array_plus_chunk_temporaries(monkeypatch):
    # a batch stores normalized alone; the rest is the factor and its
    # transpose, a chunk of normals with its product, and the inverse-CDF
    # temporaries of one block (AS 241 keeps about a dozen block arrays).
    # The peak is reached at the L^T copy, so it cannot see a factor held
    # through the draw: the factor's L must be gone when the first normals
    # are drawn.
    m = make_model("swanson")
    N, M = 256, 16 * _REPLICA_CHUNK
    sample_batch(m, 64, N, 1, seed=1)  # a first call: one-time allocations stay out of the peak
    factors, held = [], []

    def traced_cholesky(ic):
        factor = cholesky(ic)
        factors.append(weakref.ref(factor.L))
        return factor

    def traced_icdf(u):
        held.append(factors[-1]() is not None)
        return normal_icdf(u)

    monkeypatch.setattr(sampler, "cholesky", traced_cholesky)
    monkeypatch.setattr(sampler, "normal_icdf", traced_icdf)
    batch, peak = peak_bytes(lambda: sample_batch(m, 64, N, M, seed=1))
    allowance = 8 * (2 * N * N + 2 * _REPLICA_CHUNK * N + 16 * sampler._ICDF_ENTRIES)
    assert peak <= 8 * M * N + allowance, peak / (8 * M * N)
    assert batch.normalized.nbytes == 8 * M * N
    assert held and not any(held)


@pytest.mark.parametrize("seed", [1 << 63, -(1 << 63) - 1, (1 << 64) + 3])
def test_seed_outside_int64_is_refused_before_any_work(monkeypatch, seed):
    # the batch header stores an int64, and the Philox key reads the seed
    # modulo 2^64, so seed + 2^64 would alias seed
    def no_grid(*args):
        raise AssertionError("assembled a grid for a refused seed")

    monkeypatch.setattr(sampler, "increment_cov", no_grid)
    with pytest.raises(DomainError, match=f"seed {seed} "):
        sample_batch(make_model("fbm", H=0.3), 8, 8, 2, seed=seed)


def test_seed_at_the_int64_edges_is_drawn_and_written(tmp_path):
    m = make_model("fbm", H=0.3)
    for seed in (-(1 << 63), (1 << 63) - 1):
        write_batch(sample_batch(m, 8, 8, 2, seed=seed), tmp_path / "batch.bin")
        assert read_batch(tmp_path / "batch.bin")[0]["seed"] == seed
