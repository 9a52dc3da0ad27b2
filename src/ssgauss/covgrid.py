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
at unit scale, on the integer times 0..N, and the module holds one grid,
of the model last asked for, keyed on the model's class and describe().
A request for a model with the same key and at most the held N is
served the leading block, read-only: a view of the held grid, or a copy
when it has at most half the held increments.  A view keeps its grid
alive after the module drops it, and a copy never does, so no result
keeps alive more than four times its own corr.  A request for a larger
N grows the held grid: the held block is copied and only the entries of
the new columns are formed.  A request for another model drops the held
grid before assembling its own, and release_grid() drops it outright.
std is formed at resolution n from the diagonal rectangles, O(N) kernel
values per call.

The assembly runs in row blocks of about 2^18 kernel values.  A block of
rows j0..j1-1 evaluates R on times j0..j1 against the times from
max(j0, N0) to N, where N0 is the size of the held block (0 for a fresh
grid), i.e. once per unordered pair of new grid times up to the thin
diagonal strip.  It forms the rectangle entries on and above the
diagonal, divides them by the unit-scale std[j] std[k] as they are
formed, and writes their transpose below the diagonal.  Peak memory is
the one N x N array corr, plus the held block while it grows, plus block
temporaries of a few MB.  cov = corr std[j] std[k] is not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .models import Model

__all__ = ["IncrementCovariance", "increment_cov", "num_increments", "release_grid"]

# Dense N x N doubles; 8192^2 is one ~0.5 GB matrix, the ceiling for
# desk-scale runs.
MAX_N = 8192

_FLUSH_EPS = 1.0e-300

# Rows per assembly block are chosen so that a block of kernel values holds
# about this many doubles (2 MB); the block temporaries then stay small
# next to the one N x N output (~0.5 GB at MAX_N).
_BLOCK_ENTRIES = 1 << 18


def num_increments(n: int, t: float) -> int:
    """floor(n t), the number of grid increments DX_j with j < n t."""
    if not math.isfinite(n * t):
        raise DomainError(f"time t={t} gives a non-finite n*t at n={n}")
    return math.floor(n * t)


@dataclass(frozen=True)
class IncrementCovariance:
    """std[j], the L2 norm of DX_j, and corr[j, k], the correlation of DX_j
    and DX_k, on a grid of resolution n with N increments.  corr does not
    depend on n (self-similarity); cov[j, k] = corr[j, k] std[j] std[k] is
    not stored but formed on each access.  Instances are immutable and
    safe to share across workers."""

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


# The held grid: (class and describe() of its model, its read-only
# unit-scale corr).
_held: tuple | None = None


def release_grid() -> None:
    """Drop the held grid; the next request assembles its own."""
    global _held
    _held = None


def _std(model: Model, times: np.ndarray, n: int) -> np.ndarray:
    """Square roots of the diagonal rectangles on consecutive times, with
    the operands in the order the blocks of _grow subtract them, so they
    hold the bits of the assembled diagonal; raises on a nonpositive one."""
    lo, hi = times[:-1], times[1:]
    diag = (model.r(hi, hi) - model.r(lo, hi)) - (model.r(hi, lo) - model.r(lo, lo))
    diag[np.abs(diag) < _FLUSH_EPS] = 0.0
    if np.any(diag <= 0.0):
        j = int(np.argmin(diag))
        raise NumericalError(
            f"{model.name}: nonpositive increment variance {diag[j]!r} at j={j}, n={n}"
        )
    return np.sqrt(diag)


def _grow(model: Model, held: np.ndarray | None, N: int) -> np.ndarray:
    """The unit-scale N x N corr, read-only: the held leading block of the
    same model copied (none for a fresh grid) and only the entries of the
    new columns and their mirror formed."""
    N0 = 0 if held is None else held.shape[0]
    times = np.arange(N + 1, dtype=float)
    std = _std(model, times, 1)
    corr = np.empty((N, N), dtype=float)
    if N0:
        corr[:N0, :N0] = held
    rows = max(1, _BLOCK_ENTRIES // (N + 1 - N0))
    for j0 in range(0, N, rows):
        j1 = min(j0 + rows, N)
        c0 = max(j0, N0)
        # rows j0..j1 of R against columns c0..N hold every kernel value
        # the new upper-triangle entries of corr rows j0..j1-1 read,
        # R[j+1, j] on the diagonal included: Model.r orders its arguments,
        # so R is bitwise symmetric and R[j+1, j] = R[j, j+1]
        R = model.r(times[j0:j1 + 1, None], times[None, c0:])
        blk = (R[1:, 1:] - R[:-1, 1:]) - (R[1:, :-1] - R[:-1, :-1])
        del R
        blk[np.abs(blk) < _FLUSH_EPS] = 0.0
        blk /= np.outer(std[j0:j1], std[c0:])
        # the rectangle of a symmetric kernel is symmetric; mirror the upper
        # triangle of the block's square on the diagonal (rows and columns
        # c0..j1-1) so the stored matrix is exactly so
        b = max(j1 - c0, 0)
        square = blk[c0 - j0:, :b]
        lower = np.tril_indices(b, -1)
        square[lower] = square.T[lower]
        corr[j0:j1, c0:] = blk
        corr[c0:, j0:j1] = blk.T
    np.fill_diagonal(corr, 1.0)
    corr.flags.writeable = False
    return corr


def increment_cov(model: Model, n: int, N: int) -> IncrementCovariance:
    """The exact increment correlation and norms at resolution n; corr is
    read from the held grid (see the module docstring)."""
    global _held
    if n < 2:
        raise DomainError(f"grid resolution n must be >= 2, got {n}")
    if N < 1:
        raise DomainError(f"increment count N must be >= 1, got {N}")
    if N > MAX_N:
        raise DomainError(f"N={N} exceeds the dense-matrix cap {MAX_N}")

    std = _std(model, np.arange(N + 1, dtype=float) / float(n), n)
    key = (type(model), model.describe())
    # one read of _held, so a concurrent call can cost an assembly but
    # never mix two grids
    held_key, held = _held or (None, None)
    if held_key != key:
        held = None
    if held is None or held.shape[0] < N:
        _held = None
        held = _grow(model, held, N)
        _held = (key, held)
    corr = held[:N, :N]
    if 2 * N <= held.shape[0]:
        corr = corr.copy()
        corr.flags.writeable = False
    return IncrementCovariance(model=model, n=int(n), N=int(N), std=std, corr=corr)
