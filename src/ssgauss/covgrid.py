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

The assembly runs in row blocks of about 2^18 kernel values.  A block of
rows j0..j1-1 evaluates R on times j0..j1 against j0..N, i.e. once per
unordered pair of grid times up to the thin diagonal strip, forms the
rectangle entries on and above the diagonal and writes their transpose
below it, divided by std[j] std[k] as it is formed; std comes first, from
the diagonal rectangles.  Peak memory is the one N x N array corr plus
block temporaries of a few MB.  cov = corr std[j] std[k] is not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .models import Model

__all__ = ["IncrementCovariance", "increment_cov", "num_increments"]

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


def increment_cov(model: Model, n: int, N: int) -> IncrementCovariance:
    """Assemble the exact increment correlation and norms at resolution n."""
    if n < 2:
        raise DomainError(f"grid resolution n must be >= 2, got {n}")
    if N < 1:
        raise DomainError(f"increment count N must be >= 1, got {N}")
    if N > MAX_N:
        raise DomainError(f"N={N} exceeds the dense-matrix cap {MAX_N}")

    times = np.arange(N + 1, dtype=float) / float(n)
    # the diagonal rectangles, with the operands in the order the blocks
    # below subtract them, so std holds the bits of the assembled diagonal
    lo, hi = times[:-1], times[1:]
    diag = (model.r(hi, hi) - model.r(lo, hi)) - (model.r(hi, lo) - model.r(lo, lo))
    diag[np.abs(diag) < _FLUSH_EPS] = 0.0
    if np.any(diag <= 0.0):
        j = int(np.argmin(diag))
        raise NumericalError(
            f"{model.name}: nonpositive increment variance {diag[j]!r} at j={j}, n={n}"
        )
    std = np.sqrt(diag)

    rows = max(1, _BLOCK_ENTRIES // (N + 1))
    corr = np.empty((N, N), dtype=float)
    for j0 in range(0, N, rows):
        j1 = min(j0 + rows, N)
        # rows j0..j1 of R against columns j0..N hold every kernel value
        # the upper triangle of corr rows j0..j1-1 reads, R[j+1, j] on its
        # diagonal included: Model.r orders its arguments, so R is
        # bitwise symmetric and R[j+1, j] = R[j, j+1]
        R = model.r(times[j0:j1 + 1, None], times[None, j0:])
        blk = (R[1:, 1:] - R[:-1, 1:]) - (R[1:, :-1] - R[:-1, :-1])
        del R
        blk[np.abs(blk) < _FLUSH_EPS] = 0.0
        blk /= np.outer(std[j0:j1], std[j0:])
        # the rectangle of a symmetric kernel is symmetric; mirror the upper
        # triangle so the stored matrix is exactly so
        b = j1 - j0
        square = blk[:, :b]
        lower = np.tril_indices(b, -1)
        square[lower] = square.T[lower]
        corr[j0:j1, j0:] = blk
        corr[j1:, j0:j1] = blk[:, b:].T
    np.fill_diagonal(corr, 1.0)
    return IncrementCovariance(model=model, n=int(n), N=int(N), std=std, corr=corr)
