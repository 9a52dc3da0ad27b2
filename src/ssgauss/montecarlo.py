"""Replicated experiments probing the Brownian limit of Hermite variations.

The functional under study is

    F_n(t) = n^(-1/2) sum_{j < floor(n t)} f(Y_j),    Y_j = DX_j / ||DX_j||,

which is zero when floor(n t) < 1.  Its second moment admits an exact
finite-n oracle through chaos orthogonality,

    E[F_n(t)^2] = (1/n) sum_{j,k < floor(nt)} g(corr[j,k]),
    g(rho) = E[f(X) f(Y)] = sum_q q! c_q^2 rho^q = f.covariance(rho),

so Monte Carlo output can be held against a non-random target at every n
rather than only against the n -> infinity limit.  run_experiment
returns the experiment.json object itself, {"config", "version",
"times", "cross", "passed"}.  Each time row records the sample variance
(bootstrap standard error), the fourth-moment ratio
E[F^4] / (3 E[F^2]^2) and a one-sample KS test of
F_n(t)/sqrt(exact variance) against the standard normal; each cross row
the covariance of two path increments of F_n, which the limit says
vanish.  Each row carries its verdicts; derive_verdicts, the one reader
of the record, re-derives passed for run_experiment and for report.  KS
standardization uses the exact finite-n variance, not the limit value,
to keep slow variance convergence from contaminating the shape test.

The per-row passes run in blocks of rows sized to stay in a core's L2
cache: the Hermite recurrence and prefix sums of F_n, and the draws,
gathers and means of the bootstrap.  None moves a bit: the recurrence
and prefix sums act on each row alone, each bootstrap row is still one
pairwise mean over its own draws, and the blocks of draws continue one
Philox stream.  The oracle maps covgrid.map_bands over the bands of
corr, rows from the diagonal on, W bands in flight on W workers
(covgrid._worker_count of its threads, every usable CPU by default, the
run's own threads under run_experiment), and adds the sum over each
band's square once and over the rest of the band twice with math.fsum.
fsum is exact, so neither the order nor the worker count of the bands
moves a bit; the oracle forms and holds no m x m array and is not capped
by covgrid.MAX_N.

A statistic or oracle that leaves the double range, as the fourth
powers of a large or a tiny f do, stops the experiment with
NumericalError naming it and t; nothing non-finite is recorded.
"""

from __future__ import annotations

import math

import numpy as np

from ._version import __version__ as _VERSION
from .covgrid import _require_resolution, _worker_count, map_bands, num_increments
from .errors import DomainError, GridError, NumericalError, require_integers
from .hermite import HermiteFunction
from .limitvar import gate, sigma_sq
from .models import Model
from .sampler import sample_batch

__all__ = [
    "functional",
    "exact_variance",
    "run_experiment",
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
_SPAN = ("t_lo", "t_mid", "t_hi")  # the keys of a cross row's three times

# The Hermite recurrence and prefix sums of functional, and the draws and
# gathers of _bootstrap_moments, run on blocks of rows of about these many
# values, so that a block and its temporaries stay in a core's L2 cache
# instead of spanning whole (M, N) and (B, M) arrays.  exact_variance
# takes its bands from covgrid, sized by covgrid._BLOCK_ENTRIES.
_FUNCTIONAL_ENTRIES = 1 << 15
_BOOTSTRAP_ENTRIES = 1 << 16


def functional(rows: np.ndarray, f: HermiteFunction, n: int, t_grid) -> np.ndarray:
    """F_n(t) at each t of t_grid, from one normalized row or a batch of M.

    Row i of the result is F_n(t_grid[i]): a float for one row, an (M,)
    array for a batch.  f is evaluated once on the increments below the
    largest time, and every F_n(t) is a prefix sum of those values.  Both
    run on blocks of rows of about _FUNCTIONAL_ENTRIES values; each value
    depends on its own row alone, so the blocks give the bits of one pass.
    """
    arr = np.asarray(rows, dtype=float)
    ms = [max(num_increments(n, t), 0) for t in t_grid]
    top = max(ms, default=0)
    if top > arr.shape[-1]:
        raise GridError(f"floor(n*t) = {top} exceeds the sampled grid N = {arr.shape[-1]}")
    flat = arr.reshape(-1, arr.shape[-1])
    prefix = np.zeros((flat.shape[0], top + 1))
    step = max(1, _FUNCTIONAL_ENTRIES // max(top, 1))
    for lo in range(0, flat.shape[0], step):
        np.cumsum(f.evaluate(flat[lo:lo + step, :top]), axis=-1,
                  out=prefix[lo:lo + step, 1:])
    prefix = prefix.reshape(arr.shape[:-1] + (top + 1,))
    return np.moveaxis(prefix, -1, 0)[ms] / math.sqrt(n)


def exact_variance(model: Model, f: HermiteFunction, n: int, t: float,
                   threads: int | None = None) -> float:
    """The orthogonality-based oracle for E[F_n(t)^2]: (1/n) times the sum
    of g = f.covariance over the n-free corr of the first m = floor(n t)
    increments: of each band of covgrid.map_bands, formed on
    _worker_count(threads) workers, the sum over its square once and over
    the rest twice, added exactly (see the module docstring).
    NumericalError when it is not finite."""
    m = num_increments(n, t)
    workers = _worker_count(threads)
    if m < 1:
        return 0.0

    def band_sums(j0, blk):
        b = blk.shape[0]  # the band's square, which holds its diagonal
        # past the double range a weight or a band sum is inf, and an inf
        # weight times a zero correlation nan; fsum refuses overflow and
        # inf - inf.  The kernel runs outside this errstate block, so
        # nothing of it is hidden.
        with np.errstate(over="ignore", invalid="ignore"):
            g = f.covariance(blk)
            return float(np.sum(g[:, :b])), 2.0 * float(np.sum(g[:, b:]))

    # fsum rounds the exact sum once, whatever the order of its terms
    sums = [s for pair in map_bands(model, m, band_sums, workers) for s in pair]
    try:
        total = math.fsum(sums) / n
    except (OverflowError, ValueError):
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(f"E[F_n(t)^2] of {f.label or 'f'} exceeds the double range "
                             f"at n = {n}, t = {t:g}")
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

def _verdicts(row: dict, cross: bool) -> dict[str, bool]:
    """The verdict flags of a time row, or with cross of a cross row, under TOLERANCES."""
    tol = TOLERANCES
    if cross:
        return {"ok": abs(row["cov"]) <= tol["cross_se_mult"] * row["se"]}
    return {
        "var_ok": abs(row["sample_var"] - row["exact_var"]) <= tol["var_se_mult"] * row["se_var"],
        "kurt_ok": abs(row["kurtosis_ratio"] - 1.0) <= tol["kurt_se_mult"] * row["se_kurtosis"],
        "ks_ok": row["ks_p"] - tol["ks_p_min"] >= 0.0,  # subtracted: a non-double raises
    }


def _spans(grid0: list, all_pairs: bool) -> list[tuple[int, int, tuple]]:
    """(i, j, times) of the pairs i < j of path increments a record holds, consecutive
    or every pair; increment i runs from grid0[i] to grid0[i + 1], grid0[0] = 0."""
    k = len(grid0) - 1
    return [(i, j, (grid0[i], grid0[i + 1], grid0[j + 1])) for i in range(k)
            for j in range(i + 1, k) if all_pairs or j == i + 1]


def derive_verdicts(record: dict) -> bool:
    """passed of a clt record, re-derived under TOLERANCES for run_experiment
    and report.  DomainError, worded to follow the record's name, unless
    run_experiment could have written it: rows those of config.t_grid, cross
    rows of consecutive or of every pair, tolerances TOLERANCES."""
    try:
        times, cross, config = record["times"], record["cross"], record["config"]
        # every row is judged, so a record that passes holds all its statistics
        flags = [_verdicts(row, False) for row in times] + [_verdicts(row, True) for row in cross]
        if not isinstance(config, dict):
            raise TypeError(f"config of type {type(config).__name__}")
        grid0 = [0.0, *map(float, config.get("t_grid", ()))]  # a time row on it is a number
        rows = ([row["t"] for row in times], [tuple(row[key] for key in _SPAN) for row in cross])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"is not a saved clt run: missing or malformed {exc}") from None
    if not times:  # run_experiment refuses an empty grid
        raise DomainError("is not a saved clt run: it holds no times")
    if rows not in [(grid0[1:], [s for *_, s in _spans(grid0, every)]) for every in (False, True)]:
        raise DomainError(f"is not a saved clt run: its rows are not those of its "
                          f"t_grid {grid0[1:]}")
    if (tolerances := config.get("tolerances")) != TOLERANCES:
        raise DomainError(f"was judged under tolerances {tolerances}, "
                          f"not this version's {TOLERANCES}")
    return all(all(row.values()) for row in flags)


def _bootstrap_moments(values: np.ndarray, seed: int, stream: int,
                       B: int = BOOTSTRAP_B) -> tuple[float, float]:
    """Bootstrap standard errors of the sample variance and of the
    fourth-moment ratio, from a dedicated Philox stream.

    The B resamples are drawn and reduced in blocks of rows of about
    _BOOTSTRAP_ENTRIES draws: consecutive draws continue the one Philox
    stream, and each row is still one pairwise mean over its m draws, so
    the blocks give the bits of a single (B, m) pass.
    """
    m = values.size
    key = np.array([seed & (2**64 - 1), (1 << 32) + stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    # powers are elementwise, so raising before the gather reduces the
    # same values in the same order as raising the gathered draws
    powers = (values, values**2, values**4)
    means = np.empty((3, B))
    rows = max(1, _BOOTSTRAP_ENTRIES // m)
    buf = np.empty((min(rows, B), m))
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        idx = rng.integers(0, m, size=(hi - lo, m))
        for src, mean in zip(powers, means):
            # every draw lies in [0, m), so clip moves none; unlike the
            # default mode it lets take write into buf without a copy
            np.take(src, idx, out=buf[:hi - lo], mode="clip")
            np.mean(buf[:hi - lo], axis=1, out=mean[lo:hi])
    mean1, mean2, m4 = means
    m2 = mean2 - mean1**2
    kurt = m4 / (3.0 * np.maximum(mean2, 1e-300) ** 2)
    return float(np.std(m2, ddof=1)), float(np.std(kurt, ddof=1))


def _require_finite(row: dict, where: str) -> None:
    """NumericalError naming the first statistic of row that is not finite."""
    for key, value in row.items():
        if not math.isfinite(value):
            raise NumericalError(f"{key} at {where} is {value}: the statistics of f "
                                 "leave the double range")


def run_experiment(model: Model, f: HermiteFunction, n: int, t_grid,
                   M: int = DEFAULT_M, seed: int = 0, threads: int | None = 1,
                   all_pairs: bool = False) -> dict:
    """Replicated CLT experiment over a time grid, as the experiment.json
    object {"config", "version", "times", "cross", "passed"}.

    Each time row holds the variance/kurtosis/KS statistics of F_n(t)
    with their verdicts, and each cross row the covariance of two path
    increments of F_n, for the pairs of _spans.  passed is
    derive_verdicts of the record, which report re-derives.  threads
    bounds the sampler's workers and the band passes of its grid and of
    exact_variance; it never moves a bit.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid or t_grid[0] <= 0.0:
        raise DomainError("t_grid must contain positive times")
    _require_resolution(n)
    require_integers(M=M)
    workers = _worker_count(threads)
    if M < MIN_REPLICAS:
        raise DomainError(f"M={M} below the minimum replication {MIN_REPLICAS}")
    gate(f.rank, model.alpha)

    terms = [num_increments(n, t) for t in t_grid]
    if terms[0] < 1:
        raise GridError(
            f"t = {t_grid[0]:g} gives floor(n*t) = 0 at n = {n}; "
            f"the smallest allowed time is 1/n = {1.0 / n:g}"
        )
    # two times with one count give a zero path increment, which makes
    # every cross row that holds it vacuous
    for i in range(1, len(terms)):
        if terms[i] == terms[i - 1]:
            raise GridError(f"t = {t_grid[i - 1]:g} and t = {t_grid[i]:g} both give "
                            f"floor(n*t) = {terms[i]} at n = {n}")
    # sigma^2 before any sampling: where its series cannot be certified,
    # the run stops without drawing a batch
    limit = sigma_sq(f, model.alpha)["sigma_sq"]
    N = terms[-1]
    batch = sample_batch(model, n, N, M, seed, threads=workers)

    # F_n over the grid with time 0 in front, so that consecutive rows
    # give the path increments
    grid0 = [0.0] + t_grid
    paths = functional(batch.normalized, f, n, grid0)

    times: list[dict] = []
    cross: list[dict] = []
    # the fourth powers of a large f overflow, and those of a tiny f
    # underflow to a zero kurtosis denominator; the run then stops on the
    # first statistic that is not finite rather than record it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, t in enumerate(t_grid):
            F = paths[i + 1]
            exact = exact_variance(model, f, n, t, threads=workers)
            s_var = float(np.var(F, ddof=1))
            m2 = np.mean(F**2)
            m4 = np.mean(F**4)
            kurt = float(m4 / (3.0 * m2 * m2))
            se_var, se_kurt = _bootstrap_moments(F, seed, i)
            ks_stat, ks_p = ks_test_normal(F / math.sqrt(exact))
            row = dict(
                t=t, num_terms=terms[i], mean=float(np.mean(F)),
                sample_var=s_var, se_var=se_var, fourth_moment=float(m4),
                kurtosis_ratio=kurt, se_kurtosis=se_kurt,
                ks_stat=ks_stat, ks_p=ks_p, exact_var=exact,
                predicted_var=limit * t,
            )
            _require_finite(row, f"t = {t:g}")
            times.append(row | _verdicts(row, False))

        G = np.diff(paths, axis=0)
        for i, j, span in _spans(grid0, all_pairs):
            prod = G[i] * G[j]
            cov = float(np.mean(prod) - np.mean(G[i]) * np.mean(G[j]))
            se = float(np.std(prod, ddof=1) / math.sqrt(M))
            row = dict(zip(_SPAN, span), cov=cov, se=se)
            _require_finite(row, "t = " + ", ".join(f"{t:g}" for t in span))
            cross.append(row | _verdicts(row, True))

    config = {
        "model": model.describe(),
        "f": f.describe(),
        "n": int(n),
        "t_grid": t_grid,
        "M": int(M),
        "seed": int(seed),
        "tolerances": dict(TOLERANCES),
        "sigma_sq": limit,
    }
    record = {"config": config, "version": _VERSION, "times": times, "cross": cross}
    return record | {"passed": derive_verdicts(record)}
