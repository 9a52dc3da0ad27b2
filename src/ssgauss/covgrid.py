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
band grow as the upper triangle narrows.  One generator, _bands, forms
every band: for rows j0..j1-1 it evaluates R on times j0..j1 against the
times j0 to N, i.e. once per unordered pair of grid times up to the thin
diagonal strip.  It forms the rectangle entries and divides them by the
unit-scale std[j] std[k] as they are formed.  Past the band's small
diagonal square every kernel value has s <= t, which Model.r evaluates
on the ordered column and row without its minimum, maximum and mask.
The square is mirrored and given its unit diagonal, so a band is rows
j0..j1-1 of corr from column j0 on, and increment_cov writes each band
and its transpose; peak memory is the one N x N array corr plus band
temporaries of a few MB.  cov = corr std[j] std[k] is not stored.

upper_bands streams the same bands, for a reduction over corr that needs
no N x N array: montecarlo.exact_variance sums over them.  MAX_N, the
cap on dense grids, does not bound it; its memory is the band
temporaries and the O(N) std.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, require_integers
from .models import Model

__all__ = ["IncrementCovariance", "increment_cov", "num_increments", "upper_bands"]

# Dense N x N doubles; 8192^2 is one ~0.5 GB matrix, the ceiling for
# desk-scale runs.  It caps the grids increment_cov returns, not upper_bands.
MAX_N = 8192

# Rows per band are chosen so that a band of kernel values holds about this
# many doubles (512 KB); the band and its few temporaries then fit in a
# core's 2 MiB L2 cache.
_BLOCK_ENTRIES = 1 << 16


def num_increments(n: int, t: float) -> int:
    """floor(n t), the number of grid increments DX_j with j < n t."""
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
    the operands in the order _bands subtracts them, so they hold the bits
    of the assembled diagonal; raises on a nonpositive one."""
    lo, hi = times[:-1], times[1:]
    diag = (model.r(hi, hi) - model.r(lo, hi)) - (model.r(hi, lo) - model.r(lo, lo))
    if np.any(diag <= 0.0):
        j = int(np.argmin(diag))
        raise NumericalError(
            f"{model.name}: nonpositive increment variance {diag[j]!r} at j={j}"
        )
    return np.sqrt(diag)


def _bands(model: Model, times: np.ndarray, std: np.ndarray):
    """The unit-scale corr[j0:j1, j0:N] for each band of rows j0..j1-1 of
    about _BLOCK_ENTRIES kernel values, in order: the rectangles of the
    rows against columns j0..N-1, each divided by std[j] std[k] as it is
    formed, with the band's square blk[:, :j1 - j0] mirrored from above
    its diagonal and a diagonal of 1.  Every entry is the grid's corr,
    bit for bit."""
    N = std.size
    j0 = 0
    while j0 < N:
        j1 = min(j0 + max(1, _BLOCK_ENTRIES // (N + 1 - j0)), N)
        # kernel rows j0..j1 against columns j0..N hold every kernel value
        # the upper-triangle entries read, R[j+1, j] on the diagonal
        # included: Model.r orders its arguments, so R is bitwise symmetric
        # and R[j+1, j] = R[j, j+1].  The columns from j1 on lie at or above
        # every row time and take the ordered path of Model.r; the square
        # before them takes the general one, so no time pair outside the
        # kernel's domain is evaluated.
        rows = times[j0:j1 + 1, None]
        R = np.empty((rows.size, N + 1 - j0))
        R[:, :j1 - j0] = model.r(rows, times[None, j0:j1])
        R[:, j1 - j0:] = model.r(rows, times[None, j1:])
        blk = (R[1:, 1:] - R[:-1, 1:]) - (R[1:, :-1] - R[:-1, :-1])
        del R
        blk /= np.outer(std[j0:j1], std[j0:])
        # the rectangle of a symmetric kernel is symmetric: the band's square
        # takes its lower triangle from its upper one, and its diagonal is 1
        sq = blk[:, :j1 - j0]
        np.copyto(sq, sq.T, where=np.tri(j1 - j0, k=-1, dtype=bool))
        np.fill_diagonal(sq, 1.0)
        yield blk
        j0 = j1


def upper_bands(model: Model, N: int):
    """The unit-scale corr of the first N increments of model, streamed
    band by band as _bands forms it (see there): no N x N array is held."""
    times = np.arange(N + 1, dtype=float)
    yield from _bands(model, times, _std(model, times))


def increment_cov(model: Model, n: int, N: int) -> IncrementCovariance:
    """The exact increment correlation and norms at resolution n, corr
    read-only (see the module docstring)."""
    require_integers(n=n, N=N)
    if n < 2:
        raise DomainError(f"grid resolution n must be >= 2, got {n}")
    if N < 1:
        raise DomainError(f"increment count N must be >= 1, got {N}")
    if N > MAX_N:
        raise DomainError(f"N={N} exceeds the dense-matrix cap {MAX_N}")

    times = np.arange(N + 1, dtype=float)
    std_unit = _std(model, times)
    corr = np.empty((N, N), dtype=float)
    j0 = 0
    for blk in _bands(model, times, std_unit):
        j1 = j0 + blk.shape[0]
        corr[j0:j1, j0:] = blk
        corr[j0:, j0:j1] = blk.T
        j0 = j1
    corr.flags.writeable = False
    # self-similarity: the increments on {j/n} are n^(-beta) times those
    # on the integers
    std = std_unit * float(n) ** (-model.beta)
    return IncrementCovariance(model=model, n=int(n), N=int(N), std=std, corr=corr)
