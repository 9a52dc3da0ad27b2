import numpy as np
import pytest

from ssgauss import sampler
from ssgauss.covgrid import MAX_N, IncrementCovariance, increment_cov
from ssgauss.errors import DomainError
from ssgauss.models import make_model
from ssgauss.sampler import (
    _REPLICA_CHUNK,
    _replica_normals,
    _replica_uniforms,
    cholesky,
    normal_icdf,
    read_batch,
    sample_batch,
    write_batch,
)

from oracles import sample_increments_whole_chunks


def _manual_ic(cov, n=2):
    std = np.sqrt(np.diag(cov))
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    return IncrementCovariance(model=make_model("fbm", H=0.5), n=n,
                               N=cov.shape[0], std=std, corr=corr)


def test_cholesky_brownian_grid():
    ic = increment_cov(make_model("fbm", H=0.5), 4, 4)
    factor = cholesky(ic)
    assert factor.jitter == 0.0
    assert np.array_equal(factor.L, np.eye(4) / 2.0)


def test_cholesky_diagonal_input():
    factor = cholesky(_manual_ic(np.diag([4.0, 1.0])))
    assert np.array_equal(factor.L, np.diag([2.0, 1.0]))


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
    L = cholesky(increment_cov(m, n, N)).L
    for i in (0, 1, _REPLICA_CHUNK - 1, _REPLICA_CHUNK, M - 1):
        want = _replica_normals(seed, i, N) @ L.T
        scale = np.max(np.abs(want))
        assert np.max(np.abs(batch.increments[i] - want)) <= 1e-12 * scale


def test_threads_capped_at_usable_cpus(monkeypatch):
    m = make_model("fbm", H=0.5)
    b1 = sample_batch(m, 16, 16, 3 * _REPLICA_CHUNK, seed=3, threads=1)
    pools = []

    class Recorder(sampler.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sampler, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: {0})
    assert sampler._worker_count(8) == 1
    b8 = sample_batch(m, 16, 16, 3 * _REPLICA_CHUNK, seed=3, threads=8)
    assert pools == []  # one usable CPU: no pool, chunks filled in turn
    assert b8.increments.tobytes() == b1.increments.tobytes()
    monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: {0, 1})
    b8 = sample_batch(m, 16, 16, 3 * _REPLICA_CHUNK, seed=3, threads=8)
    assert pools == [2]
    assert b8.increments.tobytes() == b1.increments.tobytes()


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


def test_chunk_icdf_equals_per_replica_normals():
    seed, N = 20240801, 96
    u = np.stack([_replica_uniforms(seed, rep, N) for rep in range(_REPLICA_CHUNK)])
    rows = np.stack([_replica_normals(seed, rep, N) for rep in range(_REPLICA_CHUNK)])
    assert np.array_equal(normal_icdf(u), rows)
    # every branch of AS 241: central, r <= 5 and r > 5 tails, both signs,
    # out to the smallest uniform and the largest double below 1
    assert np.any(np.abs(u - 0.5) > 0.425)
    edge = (0.5 * 2.0**-53, 1.0 - 2.0**-53, 1e-12, 1.0 - 1e-12, 0.01, 0.99)
    u[7, :len(edge)] = edge
    u[300, -len(edge):] = edge
    block = normal_icdf(u)
    assert np.array_equal(block, np.stack([normal_icdf(row) for row in u]))
    assert np.all(np.abs(block[7, :4]) > 7.0)  # r > 5 branch
    assert np.array_equal(np.sign(block[7, :6]), [-1, 1, -1, 1, -1, 1])


@pytest.mark.parametrize("N,M,entries,threads", [
    (96, _REPLICA_CHUNK + 9, None, 1),         # 341 rows a block; 512 no multiple
    (96, 2 * _REPLICA_CHUNK + 100, None, 2),   # three chunks on two threads
    (48, 700, 200, 2),                         # 4 rows a block
    (64, 300, 16, 1),                          # block below one row: one row a block
])
def test_blocked_icdf_batch_is_the_whole_chunk_bits(N, M, entries, threads, monkeypatch):
    # the inverse CDF is elementwise and each chunk still takes one
    # product with L^T, so the block size never moves a bit
    if entries is not None:
        monkeypatch.setattr(sampler, "_ICDF_ENTRIES", entries)
    monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: {0, 1})
    m = make_model("swanson")
    batch = sample_batch(m, 64, N, M, seed=20240801, threads=threads)
    want = sample_increments_whole_chunks(m, 64, N, M, 20240801)
    assert batch.increments.tobytes() == want.tobytes()


def test_top_uniform_stays_below_one(monkeypatch):
    raw = np.array([2**64 - 1, 0, 2**63], dtype=np.uint64)

    class FakePhilox:
        def __init__(self, key):
            pass

        def random_raw(self, count):
            return raw[:count].copy()

    monkeypatch.setattr(np.random, "Philox", FakePhilox)
    u = _replica_uniforms(0, 0, 3)
    assert np.all((u > 0.0) & (u < 1.0))
    assert u[0] == np.nextafter(1.0, 0.0)
    unclamped = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(u[1:], unclamped[1:])
    assert np.all(np.isfinite(_replica_normals(0, 0, 3)))
