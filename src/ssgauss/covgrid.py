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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .models import Model

__all__ = ["IncrementCovariance", "increment_cov", "dump_csv"]

# Dense N x N doubles; 8192^2 is a ~540 MB pair of matrices, the default
# ceiling for desk-scale runs.
DEFAULT_MAX_N = 8192

_FLUSH_EPS = 1.0e-300


@dataclass(frozen=True)
class IncrementCovariance:
    """Increment covariance, per-increment standard deviations and the
    normalized correlation matrix for a grid resolution n with N increments.

    std[j] is the L2 norm of DX_j; corr is cov rescaled to unit diagonal.
    Instances are immutable and safe to share across workers.
    """

    model: Model
    n: int
    N: int
    cov: np.ndarray
    std: np.ndarray
    corr: np.ndarray


def increment_cov(model: Model, n: int, N: int, max_n: int = DEFAULT_MAX_N) -> IncrementCovariance:
    """Assemble the exact N x N increment covariance at resolution n."""
    if n < 2:
        raise DomainError(f"grid resolution n must be >= 2, got {n}")
    if N < 1:
        raise DomainError(f"increment count N must be >= 1, got {N}")
    if N > max_n:
        raise DomainError(f"N={N} exceeds the dense-matrix cap {max_n}")

    times = np.arange(N + 1, dtype=float) / float(n)
    R = model.r(times[:, None], times[None, :])
    raw = (R[1:, 1:] - R[:-1, 1:]) - (R[1:, :-1] - R[:-1, :-1])
    del R
    # the rectangle of a symmetric kernel is symmetric; mirror the upper
    # triangle so the stored matrix is exactly so
    cov = np.triu(raw) + np.triu(raw, 1).T
    del raw
    cov[np.abs(cov) < _FLUSH_EPS] = 0.0

    diag = np.diag(cov).copy()
    if np.any(diag <= 0.0):
        j = int(np.argmin(diag))
        raise NumericalError(
            f"{model.name}: nonpositive increment variance {diag[j]!r} at j={j}, n={n}"
        )
    std = np.sqrt(diag)
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    return IncrementCovariance(model=model, n=int(n), N=int(N), cov=cov, std=std, corr=corr)


def dump_csv(ic: IncrementCovariance, path, which: str = "cov") -> None:
    """Write cov or corr row-major as lines ``j,k,value``."""
    if which not in ("cov", "corr"):
        raise DomainError(f"which must be 'cov' or 'corr', got {which!r}")
    mat = ic.cov if which == "cov" else ic.corr
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("j,k,value\n")
        for j in range(ic.N):
            row = mat[j]
            fh.write("\n".join(f"{j},{k},{row[k]:.17g}" for k in range(ic.N)))
            fh.write("\n")
