"""Exact covariance structure of process increments on the grid {j/n}.

For increments DX_j = X_((j+1)/n) - X_(j/n), j = 0..N-1, the covariance
is assembled through the rectangle identity

    cov[j, k] = R((j+1)/n, (k+1)/n) - R(j/n, (k+1)/n)
              - R((j+1)/n, k/n)     + R(j/n, k/n)

with R(0, .) = 0.  Differences are grouped so that nearest-magnitude
kernel values are subtracted first, which is what limits cancellation for
far-apart index pairs.  Matrices are dense; exactness is the point here,
and the increments are non-stationary for every model except fbm, so
circulant or FFT shortcuts do not apply.

Self-similarity, R(cs, ct) = c^(2 beta) R(s, t), makes the correlation
corr[j, k] = cov[j, k] / (std[j] std[k]) independent of n, and the N x N
correlation the leading block of every larger one.  So corr is assembled
at unit scale, on the integer times 0..N, together with the unit-scale
std, the square roots of the diagonal rectangles on the integer times;
std at resolution n is std_unit[j] n^(-beta).  Each call assembles the
grid it returns; nothing is kept between calls.

The assembly runs in bands of rows of about 2^16 kernel values, so that
a band and its temporaries fit in a core's 2 MiB L2 cache; the rows per
band grow as the upper triangle narrows.  _schedule owns that schedule, and
_band forms one band: for rows j0..j1-1 it evaluates R on times j0..j1
against the times j0 to N, i.e. once per unordered pair of grid times up
to the thin diagonal strip.  It forms the rectangle entries and divides
them by the unit-scale std[j] std[k] as they are formed.  Every kernel
value a band reads has s <= t, which Model.r evaluates on the ordered
column and row without its minimum, maximum and mask; only the tiles of
_TILE x _TILE on the band square's diagonal take the general path.  The
square is mirrored and given its unit diagonal, so a band is rows
j0..j1-1 of corr from column j0 on.  cov = corr std[j] std[k] is not
stored.

The bands are independent, so map_bands, the one band pass, which
increment_cov and montecarlo.exact_variance both call, maps them over W
workers, W = _worker_count(threads): the usable CPUs for threads=None,
the default of all three.  The map is _pmap, which the sampler's replica
chunks use too: each worker forms whole bands under the caller's numpy
error state, and one worker, or one band, runs the map inline with no
thread.  No worker count moves a bit: a band does not depend on which
thread forms it, increment_cov writes each band and its transpose into
slices of corr that no other band writes, and exact_variance adds its
band sums with math.fsum, which rounds their exact sum once in any
order.  Peak memory is the one N x N array corr plus the temporaries of
W bands, a few MB each.  Those temporaries are freed and allocated again
for every band, so before its first pass covgrid asks glibc to keep
freed memory below 4 MB in its heaps (see _MALLOPT) rather than fault
it in afresh for each band; this holds for the whole process.  A
reduction over the bands, as the oracle is, needs no N x N array, and
MAX_N, the cap on dense grids, does not bound it; its memory is the
band temporaries and the O(N) std.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, require_integers
from .models import Model

__all__ = ["IncrementCovariance", "increment_cov", "map_bands", "num_increments"]

# Dense N x N doubles; 8192^2 is one ~0.5 GB matrix, the ceiling for
# desk-scale runs.  It caps the grids increment_cov returns, not the bands
# map_bands passes to a reduction.
MAX_N = 8192

# Rows per band are chosen so that a band of kernel values holds about this
# many doubles (512 KB); the band and its few temporaries then fit in a
# core's 2 MiB L2 cache.
_BLOCK_ENTRIES = 1 << 16

# A band allocates and frees a few MB of temporaries.  Left to its dynamic
# thresholds, glibc hands the freed top of a heap back to the kernel once it
# passes about 1 MB, so every band faults its pages in afresh: 280,000 minor
# faults and half a second of system time for exact_variance at n = 256..4096
# on three models (2-core box).  Before the first pass glibc is asked to serve
# allocations below 4 MB from its heaps (M_MMAP_THRESHOLD) and to keep 16 MB
# of freed memory at the top of each heap (M_TOP_PAD); larger arrays are
# still mapped and returned whole.
_MALLOPT = ((-3, 4 << 20), (-2, 16 << 20))

# A band's square takes the ordered path of Model.r but for the tiles of
# this many rows and columns on its diagonal, which take the general path.
_TILE = 64


def _require_resolution(n: int) -> None:
    """DomainError unless the grid resolution n is at least 2."""
    if n < 2:
        raise DomainError(f"grid resolution n must be >= 2, got {n}")


def num_increments(n: int, t: float) -> int:
    """floor(n t), the number of grid increments DX_j with j < n t."""
    _require_resolution(n)
    if not math.isfinite(n * t):
        raise DomainError(f"time t={t} gives a non-finite n*t at n={n}")
    return math.floor(n * t)


@dataclass(frozen=True)
class IncrementCovariance:
    """std[j], the L2 norm of DX_j, and corr[j, k], the correlation of DX_j
    and DX_k, on a grid of resolution n with N increments.  corr does not
    depend on n, and std only through the factor n^(-beta) (self-
    similarity); cov[j, k] = corr[j, k] std[j] std[k] is not stored but
    formed on each access.  Instances are immutable and safe to share
    across workers."""

    model: Model
    n: int
    N: int
    std: np.ndarray
    corr: np.ndarray

    @property
    def cov(self) -> np.ndarray:
        """The N x N increment covariance, a new array on each access."""
        cov = np.outer(self.std, self.std)
        cov *= self.corr
        return cov


def _std(model: Model, times: np.ndarray) -> np.ndarray:
    """Square roots of the diagonal rectangles on consecutive times, with
    the operands in the order _band subtracts them, so they hold the bits
    of the assembled diagonal; raises on a nonpositive one."""
    lo, hi = times[:-1], times[1:]
    diag = (model.r(hi, hi) - model.r(lo, hi)) - (model.r(hi, lo) - model.r(lo, lo))
    if np.any(diag <= 0.0):
        j = int(np.argmin(diag))
        raise NumericalError(
            f"{model.name}: nonpositive increment variance {diag[j]!r} at j={j}"
        )
    return np.sqrt(diag)


def _worker_count(threads: int | None) -> int:
    """The workers of a pass: threads, or every usable CPU for None, capped
    at the CPUs this process may run on; workers beyond that only queue
    behind each other and behind the BLAS threads.  DomainError unless
    threads is None or an integer >= 1."""
    if threads is not None:
        require_integers(threads=threads)
        if threads < 1:
            raise DomainError(f"thread count must be >= 1, got {threads}")
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity call
        usable = os.cpu_count() or 1
    return usable if threads is None else min(int(threads), usable)


def _schedule(N: int) -> list[tuple[int, int]]:
    """(j0, j1) of each band of rows j0..j1-1 of the first N increments, in
    order: about _BLOCK_ENTRIES kernel values each, the rows growing as the
    upper triangle narrows."""
    spans, j0 = [], 0
    while j0 < N:
        j1 = min(j0 + max(1, _BLOCK_ENTRIES // (N + 1 - j0)), N)
        spans.append((j0, j1))
        j0 = j1
    return spans


def _band(model: Model, times: np.ndarray, std: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """The unit-scale corr[j0:j1, j0:N]: the rectangles of rows j0..j1-1
    against columns j0..N-1, each divided by std[j] std[k] as it is formed,
    with the band's square blk[:, :j1 - j0] mirrored from above its
    diagonal and a diagonal of 1.  Every entry is the grid's corr, bit for
    bit."""
    N, b = std.size, j1 - j0
    # kernel rows j0..j1 against columns j0..N hold every kernel value the
    # band's entries read.  The columns from j1 on lie at or above every row
    # time and take the ordered path of Model.r.  Of the square before them
    # the upper part does too, a tile of columns at a time against the rows
    # before the tile; each tile on the diagonal takes the general path.
    # Model.r orders its arguments, so R is bitwise symmetric: the square's
    # strict lower part is its upper part mirrored, and no time pair outside
    # the kernel's domain is evaluated.
    t = times[j0:j1 + 1]
    R = np.empty((b + 1, N + 1 - j0))
    R[:, b:] = model.r(t[:, None], times[None, j1:])
    for a in range(0, b, _TILE):
        c = min(a + _TILE, b)
        if a:
            R[:a, a:c] = model.r(t[:a, None], t[None, a:c])
        R[a:c, a:c] = model.r(t[a:c, None], t[None, a:c])
    sq = R[:, :b + 1]
    np.copyto(sq, sq.T, where=np.tri(b + 1, k=-1, dtype=bool))
    blk = (R[1:, 1:] - R[:-1, 1:]) - (R[1:, :-1] - R[:-1, :-1])
    del R, sq
    blk /= np.outer(std[j0:j1], std[j0:])
    # the rectangle of a symmetric kernel is symmetric: the band's square
    # takes its lower triangle from its upper one, and its diagonal is 1
    sq = blk[:, :b]
    np.copyto(sq, sq.T, where=np.tri(b, k=-1, dtype=bool))
    np.fill_diagonal(sq, 1.0)
    return blk


@functools.cache
def _keep_band_memory() -> None:
    """Set glibc's _MALLOPT, once; where there is no glibc, nothing."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # a libc without mallopt
        return
    for param, value in _MALLOPT:
        mallopt(param, value)


def _pmap(fn, items, threads) -> list:
    """[fn(item) for item in items], in order, on at most
    _worker_count(threads) workers, one per item.  Each worker enters the
    caller's numpy error state, which is thread-local; one worker, or one
    item, runs the same map inline and starts no thread."""
    workers = min(_worker_count(threads), len(items))
    if workers <= 1:
        return list(map(fn, items))
    err = np.geterr()

    def run(item):
        with np.errstate(**err):
            return fn(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, items))


def map_bands(model: Model, N: int, fn, threads: int | None = None) -> list:
    """[fn(j0, blk)] for each band blk of the unit-scale corr of the first
    N increments of model, rows j0..j1-1 from column j0 on, in order, on
    _worker_count(threads) workers; no N x N array is held."""
    require_integers(N=N)
    times = np.arange(N + 1, dtype=float)
    std = _std(model, times)
    _keep_band_memory()
    return _pmap(lambda span: fn(span[0], _band(model, times, std, *span)),
                 _schedule(N), threads)


def increment_cov(model: Model, n: int, N: int, threads: int | None = None
                  ) -> IncrementCovariance:
    """The exact increment correlation and norms at resolution n, corr
    read-only, its bands formed by map_bands on _worker_count(threads)
    workers (see the module docstring)."""
    require_integers(n=n, N=N)
    _require_resolution(n)
    if N < 1:
        raise DomainError(f"increment count N must be >= 1, got {N}")
    if N > MAX_N:
        raise DomainError(f"N={N} exceeds the dense-matrix cap {MAX_N}")
    workers = _worker_count(threads)
    corr = np.empty((N, N), dtype=float)

    def write(j0, blk):
        # a band and its transpose; no two bands write the same entry
        j1 = j0 + blk.shape[0]
        corr[j0:j1, j0:] = blk
        corr[j0:, j0:j1] = blk.T

    map_bands(model, N, write, workers)
    corr.flags.writeable = False
    # self-similarity: the increments on {j/n} are n^(-beta) times those
    # on the integers
    std = _std(model, np.arange(N + 1, dtype=float)) * float(n) ** (-model.beta)
    return IncrementCovariance(model=model, n=int(n), N=int(N), std=std, corr=corr)
