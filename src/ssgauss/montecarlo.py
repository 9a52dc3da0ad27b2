"""Replicated experiments probing the Brownian limit of Hermite variations.

The functional under study is

    F_n(t) = n^(-1/2) sum_{j < floor(n t)} f(Y_j),    Y_j = DX_j / ||DX_j||,

which is zero when floor(n t) < 1.  Its second moment admits an exact
finite-n oracle through chaos orthogonality,

    E[F_n(t)^2] = sum_q q! c_q^2 (1/n) sum_{j,k < floor(nt)} corr[j,k]^q,

so Monte Carlo output can be held against a non-random target at every n
rather than only against the n -> infinity limit.  The experiment
records, per grid time: sample variance (bootstrap standard error),
fourth-moment ratio E[F^4] / (3 E[F^2]^2), a one-sample KS test of
F_n(t)/sqrt(exact variance) against the standard normal, and the
covariance of consecutive path increments of F_n (which the limit says
vanish).  KS standardization uses the exact finite-n variance, not the
limit value, to keep slow variance convergence from contaminating the
shape test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__ as _VERSION
from .covgrid import increment_cov, num_increments
from .errors import DomainError, GridError
from .hermite import HermiteFunction
from .limitvar import gate, sigma_sq
from .models import Model
from .sampler import sample_batch

__all__ = [
    "functional",
    "exact_variance",
    "run_experiment",
    "ExperimentResult",
    "TimeStats",
    "CrossStats",
    "kolmogorov_sf",
    "ks_test_normal",
]

DEFAULT_M = 4000
MIN_REPLICAS = 100
BOOTSTRAP_B = 1000

# verdict tolerances, in units of the corresponding standard errors
TOLERANCES = {
    "var_se_mult": 4.0,
    "kurt_se_mult": 5.0,
    "ks_p_min": 1.0e-3,
    "cross_se_mult": 4.0,
}


def functional(rows: np.ndarray, f: HermiteFunction, n: int, t_grid) -> np.ndarray:
    """F_n(t) at each t of t_grid, from one normalized row or a batch of M.

    Row i of the result is F_n(t_grid[i]): a float for one row, an (M,)
    array for a batch.  f is evaluated once on the increments below the
    largest time, and every F_n(t) is a prefix sum of those values.
    """
    arr = np.asarray(rows, dtype=float)
    ms = [max(num_increments(n, t), 0) for t in t_grid]
    top = max(ms, default=0)
    if top > arr.shape[-1]:
        raise GridError(f"floor(n*t) = {top} exceeds the sampled grid N = {arr.shape[-1]}")
    prefix = np.zeros(arr.shape[:-1] + (top + 1,))
    np.cumsum(f.evaluate(arr[..., :top]), axis=-1, out=prefix[..., 1:])
    return np.moveaxis(prefix, -1, 0)[ms] / math.sqrt(n)


def exact_variance(model: Model, f: HermiteFunction, n: int, t: float) -> float:
    """The orthogonality-based oracle for E[F_n(t)^2], from the n-free
    corr of the first floor(n t) increments."""
    m = num_increments(n, t)
    if m < 1:
        return 0.0
    sub = increment_cov(model, n, m).corr
    total = 0.0
    for q, c in sorted(f.coeffs.items()):
        total += math.factorial(q) * c * c * float(np.sum(sub**q)) / n
    return total


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov against the standard normal.

def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Alternating series for large argument, Jacobi-transformed series for
    small; the crossover at 1.18 keeps both branches short.
    """
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        t = math.exp(-math.pi**2 / (8.0 * lam * lam))
        cdf = math.sqrt(2.0 * math.pi) / lam * (t + t**9 + t**25 + t**49)
        return 1.0 - cdf
    total = 0.0
    for k in range(1, 101):
        term = (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1.0e-16:
            break
    return max(0.0, min(1.0, 2.0 * total))


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))


def ks_test_normal(sample: np.ndarray) -> tuple[float, float]:
    """One-sample KS statistic and asymptotic p-value against N(0, 1)."""
    x = np.sort(np.asarray(sample, dtype=float))
    m = x.size
    cdf = _normal_cdf(x)
    grid = np.arange(1, m + 1, dtype=float) / m
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / m)))
    d = max(d_plus, d_minus)
    return d, kolmogorov_sf(math.sqrt(m) * d)


# ---------------------------------------------------------------------------
# Experiment records.

@dataclass(frozen=True)
class TimeStats:
    t: float
    num_terms: int
    mean: float
    sample_var: float
    se_var: float
    fourth_moment: float
    kurtosis_ratio: float
    se_kurtosis: float
    ks_stat: float
    ks_p: float
    exact_var: float
    predicted_var: float
    var_ok: bool
    kurt_ok: bool
    ks_ok: bool


@dataclass(frozen=True)
class CrossStats:
    t_lo: float
    t_mid: float
    t_hi: float
    cov: float
    se: float
    ok: bool


@dataclass(frozen=True)
class ExperimentResult:
    """Reproducible record of one replicated experiment.

    Verdicts are pure functions of the stored statistics and the
    tolerances echoed in config, so they can be re-derived from the JSON.
    """

    config: dict
    times: list[TimeStats] = field(default_factory=list)
    cross: list[CrossStats] = field(default_factory=list)
    passed: bool = False
    version: str = _VERSION

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "version": self.version,
            "times": [vars(ts) | {} for ts in self.times],
            "cross": [vars(cs) | {} for cs in self.cross],
            "passed": self.passed,
        }

    def summary_rows(self) -> list[dict]:
        cols = ("t", "exact_var", "sample_var", "se", "kurtosis_ratio", "ks_stat", "ks_p")
        return [
            dict(zip(cols, (ts.t, ts.exact_var, ts.sample_var, ts.se_var,
                            ts.kurtosis_ratio, ts.ks_stat, ts.ks_p)))
            for ts in self.times
        ]


def _verdicts(row: dict, tol: dict) -> dict[str, bool]:
    """The verdict flags of one row of statistics: ok for a cross row,
    var_ok, kurt_ok and ks_ok for a time row."""
    if "cov" in row:
        return {"ok": abs(row["cov"]) <= tol["cross_se_mult"] * row["se"]}
    return {
        "var_ok": abs(row["sample_var"] - row["exact_var"]) <= tol["var_se_mult"] * row["se_var"],
        "kurt_ok": abs(row["kurtosis_ratio"] - 1.0) <= tol["kurt_se_mult"] * row["se_kurtosis"],
        "ks_ok": row["ks_p"] >= tol["ks_p_min"],
    }


def derive_verdicts(times: list[dict], cross: list[dict], tol: dict) -> bool:
    """The overall verdict from the statistics alone (run_experiment sets
    passed with it, and the report command audits a saved run with it)."""
    return all(all(_verdicts(row, tol).values()) for row in [*times, *cross])


def _bootstrap_moments(values: np.ndarray, seed: int, stream: int,
                       B: int = BOOTSTRAP_B) -> tuple[float, float]:
    """Bootstrap standard errors of the sample variance and of the
    fourth-moment ratio, from a dedicated Philox stream."""
    m = values.size
    key = np.array([seed & (2**64 - 1), (1 << 32) + stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    idx = rng.integers(0, m, size=(B, m))
    # powers are elementwise, so raising before the gather reduces the
    # same (B, m) values in the same order as raising the gathered draws
    mean1 = np.mean(values[idx], axis=1)
    mean2 = np.mean((values**2)[idx], axis=1)
    m4 = np.mean((values**4)[idx], axis=1)
    m2 = mean2 - mean1**2
    kurt = m4 / (3.0 * np.maximum(mean2, 1e-300) ** 2)
    return float(np.std(m2, ddof=1)), float(np.std(kurt, ddof=1))


def run_experiment(model: Model, f: HermiteFunction, n: int, t_grid,
                   M: int = DEFAULT_M, seed: int = 0, threads: int = 1,
                   all_pairs: bool = False) -> ExperimentResult:
    """Replicated CLT experiment over a time grid.

    Computes per-time variance/kurtosis/KS statistics with their verdicts
    and the pairwise covariances of path increments of F_n (consecutive
    pairs by default, every pair with all_pairs).
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid or t_grid[0] <= 0.0:
        raise DomainError("t_grid must contain positive times")
    if n < 2:
        raise DomainError(f"grid resolution n must be >= 2, got {n}")
    if M < MIN_REPLICAS:
        raise DomainError(f"M={M} below the minimum replication {MIN_REPLICAS}")
    gate(f.rank, model.alpha)

    terms = [num_increments(n, t) for t in t_grid]
    if terms[0] < 1:
        raise GridError(
            f"t = {t_grid[0]:g} gives floor(n*t) = 0 at n = {n}; "
            f"the smallest allowed time is 1/n = {1.0 / n:g}"
        )
    N = terms[-1]
    batch = sample_batch(model, n, N, M, seed, threads=threads)

    limit = sigma_sq(f, model.alpha)

    # F_n over the grid with time 0 in front, so that consecutive rows
    # give the path increments
    grid0 = [0.0] + t_grid
    paths = functional(batch.normalized, f, n, grid0)

    tol = TOLERANCES
    times: list[TimeStats] = []
    for i, t in enumerate(t_grid):
        F = paths[i + 1]
        exact = exact_variance(model, f, n, t)
        s_var = float(np.var(F, ddof=1))
        m2 = float(np.mean(F**2))
        m4 = float(np.mean(F**4))
        kurt = m4 / (3.0 * m2 * m2)
        se_var, se_kurt = _bootstrap_moments(F, seed, i)
        ks_stat, ks_p = ks_test_normal(F / math.sqrt(exact))
        row = dict(
            t=t, num_terms=terms[i], mean=float(np.mean(F)),
            sample_var=s_var, se_var=se_var, fourth_moment=m4,
            kurtosis_ratio=kurt, se_kurtosis=se_kurt,
            ks_stat=ks_stat, ks_p=ks_p, exact_var=exact,
            predicted_var=limit.sigma_sq * t,
        )
        times.append(TimeStats(**row, **_verdicts(row, tol)))

    cross: list[CrossStats] = []
    G = np.diff(paths, axis=0)
    pairs = (
        [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
        if all_pairs else [(i, i + 1) for i in range(len(G) - 1)]
    )
    for i, j in pairs:
        prod = G[i] * G[j]
        cov = float(np.mean(prod) - np.mean(G[i]) * np.mean(G[j]))
        se = float(np.std(prod, ddof=1) / math.sqrt(M))
        row = dict(t_lo=grid0[i], t_mid=grid0[i + 1], t_hi=grid0[j + 1], cov=cov, se=se)
        cross.append(CrossStats(**row, **_verdicts(row, tol)))

    passed = derive_verdicts([vars(ts) for ts in times], [vars(cs) for cs in cross], tol)
    config = {
        "model": model.describe(),
        "f": f.describe(),
        "n": int(n),
        "t_grid": t_grid,
        "M": int(M),
        "seed": int(seed),
        "tolerances": dict(tol),
        "sigma_sq": limit.sigma_sq,
    }
    return ExperimentResult(config=config, times=times, cross=cross, passed=passed)
