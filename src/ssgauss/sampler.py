"""Exact Gaussian increment sampling with replica-indexed randomness.

Sampling is exact: a Cholesky factor L of the increment correlation
turns i.i.d. standard normals z into rows L z with the law of the
normalized increments DX_j / std[j], which do not depend on n.  Randomness
is counter-based and splittable: replica i draws its normals from a
Philox stream keyed by (seed, i), so no thread count moves a bit; a row
in a short last chunk can move in its last place with the batch size, as
the BLAS takes another product for one to a few rows.

Normals come from the inverse CDF applied to open-interval uniforms
built from the raw 64-bit stream.  The inverse CDF is algorithm AS 241
(PPND16), a rational approximation with absolute error below 1e-13
(measured ~2e-15 against an independent implementation), chosen over
rejection samplers because it consumes exactly one uniform per normal
and keeps streams aligned.  Its central rational function runs over
every entry and only the tail entries are gathered and overwritten.

Each replica chunk is made in one pass over blocks of rows sized to stay
in a core's L2 cache.  The chunk builds one Philox generator and re-keys
it to (seed, i) for each replica i; a block's raw words become uniforms
and then normals in place, and everything is elementwise, so a block
gives the bits of one stream per replica.  The chunk then takes one
product with L^T, written straight into the batch.  The chunks are
mapped over the workers by covgrid._pmap, the package's one pool; one
worker, or one chunk, fills them in turn on the calling thread.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .covgrid import MAX_N, IncrementCovariance, _pmap, _worker_count, increment_cov
from .errors import DomainError, NumericalError, require_integers
from .models import Model

__all__ = [
    "CholeskyFactor",
    "cholesky",
    "SampleBatch",
    "sample_batch",
    "normal_icdf",
    "write_batch",
    "read_batch",
]

# jitter escalation ladder, in units of trace/N
JITTER_LADDER = (0.0, 1.0e-12, 1.0e-11, 1.0e-10, 1.0e-9, 1.0e-8)

# replicas are generated in fixed blocks so that the thread count never
# changes how work is partitioned
_REPLICA_CHUNK = 512

# a chunk is drawn in blocks of rows of about this many uniforms, so that
# a block's raw words, its uniforms and the temporaries of AS 241 stay in
# a core's L2 cache instead of spanning the whole chunk
_ICDF_ENTRIES = 1 << 15

_MASK64 = (1 << 64) - 1

# largest double below 1: the top 53-bit value would otherwise round to 1.0
_U_MAX = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular L with L L^T = corr + jitter diag(std^-2) for an
    increment grid, so diag(std) L factors cov + jitter I.  jitter is in
    the units of cov; unjittered, L does not depend on n."""

    L: np.ndarray
    jitter: float


def cholesky(ic: IncrementCovariance) -> CholeskyFactor:
    """Lower-triangular factor of corr + eps diag(std^-2), which is
    cov + eps*I in correlation units, for the smallest workable eps.

    eps walks the escalation ladder scaled by trace(cov)/N; exhausting it
    means the assembled matrix is not close to positive semidefinite and
    signals an invalid model/grid combination.  cov itself is never formed.
    """
    var = ic.std**2
    scale = float(var.sum()) / ic.N
    for eps_rel in JITTER_LADDER:
        eps = eps_rel * scale
        a = ic.corr if eps == 0.0 else ic.corr + np.diag(eps / var)
        try:
            return CholeskyFactor(L=np.linalg.cholesky(a), jitter=eps)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"Cholesky failed at every jitter up to {JITTER_LADDER[-1]:g}*trace/N "
        f"(model {ic.model.name}, n={ic.n}, N={ic.N})"
    )


# ---------------------------------------------------------------------------
# AS 241 (PPND16) inverse of the standard normal CDF.

_PPND_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
           1.9715909503065514427e3, 1.3731693765509461125e4,
           4.5921953931549871457e4, 6.7265770927008700853e4,
           3.3430575583588128105e4, 2.5090809287301226727e3)
_PPND_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
           5.3941960214247511077e3, 2.1213794301586595867e4,
           3.9307895800092710610e4, 2.8729085735721942674e4,
           5.2264952788528545610e3)
_PPND_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
           5.76949722146069140550e0, 3.64784832476320460504e0,
           1.27045825245236838258e0, 2.41780725177450611770e-1,
           2.27238449892691845833e-2, 7.74545014278341407640e-4)
_PPND_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
           6.89767334985100004550e-1, 1.48103976427480074590e-1,
           1.51986665636164571966e-2, 5.47593808499534494600e-4,
           1.05075007164441684324e-9)
_PPND_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
           1.78482653991729133580e0, 2.96560571828504891230e-1,
           2.65321895265761230930e-2, 1.24266094738807843860e-3,
           2.71155556874348757815e-5, 2.01033439929228813265e-7)
_PPND_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
           1.48753612908506148525e-2, 7.86869131145613259100e-4,
           1.84631831751005468180e-5, 1.42151175831644588870e-7,
           2.04426310338993978564e-15)


def _poly(coeffs, r):
    # Horner in place: acc = acc * r + c from the top coefficient down
    acc = r * coeffs[-1]
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= r
        acc += c
    return acc


def normal_icdf(u):
    """Inverse standard normal CDF (AS 241, PPND16) for u in (0, 1).

    Each rational function runs over a whole contiguous array and the
    entries of a narrower branch overwrite it: the central one over every
    entry (its denominator stays above 1e-3 on (0, 1)), the r <= 5 tail
    over the gathered |u - 0.5| > 0.425 entries, the r > 5 tail over the
    rare rest.  Each entry takes the operations of its own branch alone.
    """
    ua = np.asarray(u, dtype=float)
    scalar = ua.ndim == 0
    ua = np.atleast_1d(ua)
    if not np.all((ua > 0.0) & (ua < 1.0)):
        raise DomainError("normal_icdf needs u strictly inside (0, 1)")
    q = ua - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    out = _poly(_PPND_A, r)
    out *= q
    out /= _poly(_PPND_B, r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        qt = q.take(tail)
        ut = ua.take(tail)
        r = np.sqrt(-np.log(np.where(qt < 0.0, ut, 1.0 - ut)))
        rm = r - 1.6
        res = _poly(_PPND_C, rm)
        res /= _poly(_PPND_D, rm)
        far = r > 5.0
        if np.any(far):
            rf = r[far] - 5.0
            res[far] = _poly(_PPND_E, rf) / _poly(_PPND_F, rf)
        out.put(tail, np.sign(qt) * res)
    return float(out[0]) if scalar else out


def _uniform_rows(bitgen, seed: int, first: int, raw: np.ndarray,
                  out: np.ndarray) -> None:
    """Row k of out: the open-interval uniforms of the Philox stream keyed
    (seed, first + k).  The Philox bitgen is re-keyed for each row, at
    counter 0 with an empty buffer, the state Philox(key=...) starts in;
    raw is a uint64 scratch array of out's shape."""
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k in range(out.shape[0]):
        key[1] = first + k
        bitgen.state = state
        raw[k] = bitgen.random_raw(out.shape[1])
    # top 53 bits k, u = (k + 0.5) 2^-53, one uniform per normal.  For
    # k >= 2^52 the + 0.5 is not representable and rounds to even, and
    # k = 2^53 - 1 rounds to u = 1.0; the clamp keeps u inside (0, 1)
    raw >>= np.uint64(11)
    np.add(raw, 0.5, out=out)
    out *= 2.0**-53
    np.minimum(out, _U_MAX, out=out)


def _replica_normals(seed: int, replica: int, count: int) -> np.ndarray:
    """count standard normals from the Philox stream keyed (seed, replica);
    row `replica` of sample_batch is these normals times L^T."""
    u = np.empty((1, count))
    _uniform_rows(np.random.Philox(), seed, replica, np.empty((1, count), dtype=np.uint64), u)
    return normal_icdf(u[0])


@dataclass(frozen=True)
class SampleBatch:
    """Replica-indexed batch of normalized increment rows.

    Row i is replica i: normalized[i, j] = DX_j / std[j], with unit
    variance.  Only normalized and std are stored; the increments are
    formed on each access.  jitter is the eps, in cov units, of the
    Cholesky factor that drew the rows.  Content is a pure function of
    (model, n, N, M, seed); the threads argument of sample_batch never
    changes it.
    """

    seed: int
    M: int
    n: int
    N: int
    normalized: np.ndarray
    std: np.ndarray
    jitter: float

    @property
    def increments(self) -> np.ndarray:
        """normalized * std, a new array on each access."""
        return self.normalized * self.std


def sample_batch(model: Model, n: int, N: int, M: int, seed: int,
                 threads: int | None = 1) -> SampleBatch:
    """M independent increment rows of the model at resolution n.

    The batch stores one array of at most MAX_N^2 entries, the size of the
    largest dense grid.  The seed must fit the int64 of the batch header.
    threads, None for every usable CPU, bounds the workers that fill the
    replica chunks and those of the band pass that assembles the grid; it
    is capped at the usable CPU count and never changes the result.
    """
    require_integers(M=M, seed=seed)
    seed = int(seed)  # the Philox key masks it as a Python int
    if not -(1 << 63) <= seed < 1 << 63:
        raise DomainError(f"seed {seed} is outside [-2^63, 2^63), the range "
                          f"a batch file stores")
    if M < 1:
        raise DomainError(f"replica count M must be >= 1, got {M}")
    workers = _worker_count(threads)
    if M * N > MAX_N**2:
        raise DomainError(f"a batch of M={M} rows of N={N} increments exceeds "
                          f"the cap of MAX_N^2 = {MAX_N**2} entries")
    ic = increment_cov(model, n, N, threads=workers)
    factor = cholesky(ic)
    LT, jitter = factor.L.T.copy(), factor.jitter
    del factor  # L itself is not held while the batch is drawn
    normalized = np.empty((M, N), dtype=float)
    step = max(1, _ICDF_ENTRIES // N)

    def fill(lo: int, hi: int) -> None:
        # one pass over blocks of rows: each block's uniforms are drawn by
        # the chunk's own generator, re-keyed per replica, and replaced by
        # their normals.  normal_icdf is elementwise, so the block size
        # never moves a bit; the chunk takes one product with L^T, written
        # straight into the batch, so the block size never reaches the BLAS
        bitgen = np.random.Philox()  # re-keyed for every replica
        raw = np.empty((min(step, hi - lo), N), dtype=np.uint64)
        z = np.empty((hi - lo, N), dtype=float)
        for r0 in range(0, hi - lo, step):
            block = z[r0:r0 + step]
            _uniform_rows(bitgen, seed, lo + r0, raw[:len(block)], block)
            block[...] = normal_icdf(block)
        np.matmul(z, LT, out=normalized[lo:hi])

    chunks = [(lo, min(lo + _REPLICA_CHUNK, M)) for lo in range(0, M, _REPLICA_CHUNK)]
    _pmap(lambda c: fill(*c), chunks, workers)
    return SampleBatch(seed=seed, M=int(M), n=int(n), N=int(N),
                       normalized=normalized, std=ic.std, jitter=jitter)


# ---------------------------------------------------------------------------
# Binary batch persistence: header of four little-endian int64 (n, N, M,
# seed) followed by the increment rows, row-major little-endian float64.

_HEADER = struct.Struct("<4q")


def write_batch(batch: SampleBatch, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(batch.n, batch.N, batch.M, batch.seed))
        fh.write(np.ascontiguousarray(batch.increments, dtype="<f8"))


def read_batch(path) -> tuple[dict, np.ndarray]:
    """Read a batch dump; returns (header dict, increments array).

    Raises DomainError when the header holds no batch write_batch writes
    (n < 2, N < 1 or M < 1) or the file size disagrees with it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise DomainError(
            f"batch file {path} holds {len(raw)} bytes, "
            f"shorter than its {_HEADER.size}-byte header"
        )
    n, N, M, seed = _HEADER.unpack_from(raw)
    if n < 2 or N < 1 or M < 1:
        raise DomainError(f"batch file {path} has header (n={n}, N={N}, M={M}); "
                          f"a batch needs n >= 2, N >= 1 and M >= 1")
    expected = _HEADER.size + 8 * M * N
    if len(raw) != expected:
        raise DomainError(
            f"batch file {path} holds {len(raw)} bytes; its header "
            f"(M={M}, N={N}) needs {expected}"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(M, N)
    return {"n": n, "N": N, "M": M, "seed": seed}, data.astype(float)
