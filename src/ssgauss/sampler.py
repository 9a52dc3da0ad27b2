"""Exact Gaussian increment sampling with replica-indexed randomness.

Sampling is exact: a Cholesky factor L of the increment covariance turns
i.i.d. standard normals z into rows L z with the target law.  Randomness
is counter-based and splittable: replica i draws its normals from a
Philox stream keyed by (seed, i), so any degree of parallelism, and any
chunking of the replica range, reproduces identical batches bit for bit.

Normals come from the inverse CDF applied to open-interval uniforms
built from the raw 64-bit stream.  The inverse CDF is algorithm AS 241
(PPND16), a rational approximation with absolute error below 1e-13
(measured ~2e-15 against an independent implementation), chosen over
rejection samplers because it consumes exactly one uniform per normal
and keeps streams aligned.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .covgrid import MAX_N, IncrementCovariance, increment_cov
from .errors import DomainError, NumericalError
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

_MASK64 = (1 << 64) - 1

# largest double below 1: the top 53-bit value would otherwise round to 1.0
_U_MAX = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular L with L L^T = cov + jitter I for an increment
    covariance."""

    L: np.ndarray
    jitter: float


def cholesky(ic: IncrementCovariance) -> CholeskyFactor:
    """Lower-triangular factor of cov + eps*I for the smallest workable eps.

    eps walks the escalation ladder scaled by trace/N; exhausting it means
    the assembled matrix is not close to positive semidefinite and signals
    an invalid model/grid combination.
    """
    cov = ic.cov
    scale = float(np.trace(cov)) / ic.N
    for eps_rel in JITTER_LADDER:
        eps = eps_rel * scale
        try:
            L = np.linalg.cholesky(cov if eps == 0.0 else cov + eps * np.eye(ic.N))
            return CholeskyFactor(L=L, jitter=eps)
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
    acc = np.full_like(r, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * r + c
    return acc


def normal_icdf(u):
    """Inverse standard normal CDF (AS 241, PPND16) for u in (0, 1)."""
    ua = np.asarray(u, dtype=float)
    scalar = ua.ndim == 0
    ua = np.atleast_1d(ua)
    if np.any(ua <= 0.0) or np.any(ua >= 1.0):
        raise DomainError("normal_icdf needs u strictly inside (0, 1)")
    q = ua - 0.5
    out = np.empty_like(ua)
    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] ** 2
        out[central] = q[central] * _poly(_PPND_A, r) / _poly(_PPND_B, r)
    tail = ~central
    if np.any(tail):
        p = np.where(q[tail] < 0.0, ua[tail], 1.0 - ua[tail])
        r = np.sqrt(-np.log(p))
        res = np.empty_like(r)
        mid = r <= 5.0
        if np.any(mid):
            rm = r[mid] - 1.6
            res[mid] = _poly(_PPND_C, rm) / _poly(_PPND_D, rm)
        if np.any(~mid):
            rf = r[~mid] - 5.0
            res[~mid] = _poly(_PPND_E, rf) / _poly(_PPND_F, rf)
        out[tail] = np.sign(q[tail]) * res
    return float(out[0]) if scalar else out


def _replica_uniforms(seed: int, replica: int, count: int) -> np.ndarray:
    """count open-interval uniforms from the Philox stream keyed (seed, replica)."""
    key = np.array([seed & _MASK64, replica & _MASK64], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(count)
    # top 53 bits k, u = (k + 0.5) 2^-53, one uniform per normal.  For
    # k >= 2^52 the + 0.5 is not representable and rounds to even, and
    # k = 2^53 - 1 rounds to u = 1.0; the clamp keeps u inside (0, 1)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _U_MAX, out=u)


def _replica_normals(seed: int, replica: int, count: int) -> np.ndarray:
    """count standard normals from the Philox stream keyed (seed, replica);
    row `replica` of sample_batch is these normals times L^T."""
    return normal_icdf(_replica_uniforms(seed, replica, count))


@dataclass(frozen=True)
class SampleBatch:
    """Replica-indexed batch of increment rows and their normalizations.

    Row i is replica i.  Content is a pure function of (model, n, N, M,
    seed); the threads argument of sample_batch never changes it.
    """

    seed: int
    M: int
    n: int
    N: int
    increments: np.ndarray
    normalized: np.ndarray


def _worker_count(threads: int) -> int:
    """threads capped at the CPUs this process may run on: workers beyond
    that only queue behind each other and behind the BLAS threads."""
    return min(int(threads), len(os.sched_getaffinity(0)))


def sample_batch(model: Model, n: int, N: int, M: int, seed: int,
                 threads: int = 1) -> SampleBatch:
    """M independent increment rows of the model at resolution n.

    The batch holds at most MAX_N^2 entries, the size of the largest
    dense grid.  threads is capped at the usable CPU count; it never
    changes the result.
    """
    if M < 1:
        raise DomainError(f"replica count M must be >= 1, got {M}")
    if threads < 1:
        raise DomainError(f"thread count must be >= 1, got {threads}")
    if M * N > MAX_N**2:
        raise DomainError(f"a batch of M={M} rows of N={N} increments exceeds "
                          f"the cap of MAX_N^2 = {MAX_N**2} entries")
    ic = increment_cov(model, n, N)
    LT = cholesky(ic).L.T.copy()
    inc = np.empty((M, N), dtype=float)

    def fill(lo: int, hi: int) -> None:
        # normal_icdf is elementwise, so one call on the chunk's uniforms
        # gives the same normals as one call per replica stream
        u = np.empty((hi - lo, N), dtype=float)
        for rep in range(lo, hi):
            u[rep - lo] = _replica_uniforms(seed, rep, N)
        inc[lo:hi] = normal_icdf(u) @ LT

    chunks = [(lo, min(lo + _REPLICA_CHUNK, M)) for lo in range(0, M, _REPLICA_CHUNK)]
    workers = _worker_count(threads)
    if workers <= 1 or len(chunks) == 1:
        for lo, hi in chunks:
            fill(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda c: fill(*c), chunks))
    normalized = inc / ic.std[None, :]
    return SampleBatch(seed=int(seed), M=int(M), n=int(n), N=int(N),
                       increments=inc, normalized=normalized)


# ---------------------------------------------------------------------------
# Binary batch persistence: header of four little-endian int64 (n, N, M,
# seed) followed by the increment rows, row-major little-endian float64.

_HEADER = struct.Struct("<4q")


def write_batch(batch: SampleBatch, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(batch.n, batch.N, batch.M, batch.seed))
        fh.write(np.ascontiguousarray(batch.increments, dtype="<f8").tobytes())


def read_batch(path) -> tuple[dict, np.ndarray]:
    """Read a batch dump; returns (header dict, increments array).

    Raises DomainError when the file size disagrees with the header.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise DomainError(
            f"batch file {path} holds {len(raw)} bytes, "
            f"shorter than its {_HEADER.size}-byte header"
        )
    n, N, M, seed = _HEADER.unpack_from(raw)
    expected = _HEADER.size + 8 * M * N
    if len(raw) != expected:
        raise DomainError(
            f"batch file {path} holds {len(raw)} bytes; its header "
            f"(M={M}, N={N}) needs {expected}"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(M, N)
    return {"n": n, "N": N, "M": M, "seed": seed}, data.astype(float)
