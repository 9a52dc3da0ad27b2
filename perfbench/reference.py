"""Reference values the benchmark holds the package's outputs against.

Everything here is computed from the published formulas, without calling
into ssgauss, so a defect in the package cannot hide in its own oracle:

- covariance kernels of the catalog models, written out from the model
  table, and increment correlations assembled from them in row blocks
  (memory stays at a few MB, so checking never sets the run's peak RSS);
- Hermite coefficients of the built-in test functions by adaptive
  quadrature (scipy.integrate.quad) against numpy's HermiteE basis;
- the Kolmogorov survival function from scipy.special;
- sampled increments regenerated from the documented Philox streams
  with scipy's inverse normal CDF and numpy's own Cholesky factor, and the
  Monte Carlo statistics, bootstrap errors and verdicts of a clt
  experiment recomputed from them;
- the limit series sigma_q^2 as a direct sum (binomial series for the
  second difference beyond m = 100, which avoids the cancellation of the
  naive form) plus a Hurwitz-zeta tail with its first correction term.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from numpy.polynomial import hermite_e
from scipy import integrate, special

# -- covariance kernels -----------------------------------------------------


def kernel(spec: tuple, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """R(s, t) for a model spec ("fbm", H) | ("subfbm", H) |
    ("bifbm", H, K) | ("swanson",), on s, t >= 0."""
    s, t = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))
    name = spec[0]
    if name == "fbm":
        g = 2.0 * spec[1]
        return 0.5 * (s**g + t**g - np.abs(t - s) ** g)
    if name == "subfbm":
        g = 2.0 * spec[1]
        return s**g + t**g - 0.5 * ((s + t) ** g + np.abs(t - s) ** g)
    if name == "bifbm":
        H, K = spec[1], spec[2]
        return 2.0**-K * ((s ** (2 * H) + t ** (2 * H)) ** K - np.abs(t - s) ** (2 * H * K))
    if name == "swanson":
        st = np.sqrt(s * t)
        ratio = np.divide(np.minimum(s, t), st, out=np.zeros_like(st), where=st > 0)
        return st * np.arcsin(np.minimum(ratio, 1.0))
    raise ValueError(f"no reference kernel for {name!r}")


def _increment_block(spec, n: int, rows: range, N: int) -> np.ndarray:
    """Increment covariance rows j in `rows` against columns 0..N-1."""
    tj = np.arange(rows.start, rows.stop + 1, dtype=float)[:, None] / n
    tk = np.arange(N + 1, dtype=float)[None, :] / n
    R = kernel(spec, tj, tk)
    return R[1:, 1:] - R[:-1, 1:] - R[1:, :-1] + R[:-1, :-1]


def increment_std(spec, n: int, N: int) -> np.ndarray:
    t = np.arange(N + 1, dtype=float) / n
    lo, hi = t[:-1], t[1:]
    return np.sqrt(kernel(spec, hi, hi) - 2.0 * kernel(spec, lo, hi) + kernel(spec, lo, lo))


def corr_blocks(spec, n: int, N: int, block: int = 256):
    """Yield (rows, corr[rows, :N]) for the normalized increments."""
    std = increment_std(spec, n, N)
    for lo in range(0, N, block):
        rows = range(lo, min(lo + block, N))
        yield rows, _increment_block(spec, n, rows, N) / np.outer(std[lo:rows.stop], std)


def corr_matrix(spec, n: int, N: int) -> np.ndarray:
    return np.vstack([c for _, c in corr_blocks(spec, n, N)])


@lru_cache(maxsize=None)
def power_sums(spec, n: int, N: int, qs: tuple) -> dict:
    """sum_{j,k < N} corr[j,k]^q for each q in qs."""
    out = {q: [] for q in qs}
    for _, c in corr_blocks(spec, n, N):
        for q in qs:
            out[q].append(float(np.sum(c**q)))
    return {q: math.fsum(v) for q, v in out.items()}


def exact_variance(spec, coeffs: dict, n: int, t: float) -> float:
    """E[F_n(t)^2] = (1/n) sum_q q! c_q^2 sum_{j,k < floor(nt)} corr^q."""
    m = math.floor(n * t)
    sums = power_sums(spec, n, m, tuple(sorted(coeffs)))
    return sum(math.factorial(q) * c * c * sums[q] for q, c in coeffs.items()) / n


def contraction_norm(corr: np.ndarray, n: int, q: int, r: int) -> float:
    """(1/n^2) trace((A B)^2), A = corr^r, B = corr^(q-r) elementwise, c_q = 1."""
    P = (corr**r) @ (corr ** (q - r))
    return float(np.sum(P * P.T)) / n**2


def tv_bound(norms: dict, q: int, sigma_q2: float, t: float = 1.0) -> float:
    """2 / (t sigma_q^2) sqrt((1/q^2) sum_r r^2 r! C(q,r)^4 (2q-2r)! norm_r)."""
    acc = sum(r**2 * math.factorial(r) * math.comb(q, r) ** 4 * math.factorial(2 * q - 2 * r)
              * norms[r] for r in range(1, q))
    return 2.0 / (t * sigma_q2) * math.sqrt(acc / q**2)


def ks_sf(lam: float) -> float:
    """P(K > lam) for the Kolmogorov distribution K."""
    return float(special.kolmogorov(lam))


# -- Hermite coefficients ---------------------------------------------------

Q_MAX = 12  # expansion order the package documents for the built-in families


@lru_cache(maxsize=None)
def coefficients(fspec: str) -> dict:
    """c_q = E[f(Z) He_q(Z)] / q! for "hermite:q", "even_power:p",
    "odd_abs_power:p", truncated at Q_MAX and at |c_q| sqrt(q!) <= 1e-9."""
    kind, _, val = fspec.partition(":")
    k = int(val)
    if kind == "hermite":
        return {k: 1.0}
    if kind == "even_power":
        mean = float(math.prod(range(1, 2 * k, 2)))
        f = lambda x: x ** (2 * k) - mean  # noqa: E731
    elif kind == "odd_abs_power":
        mean = math.sqrt(2.0 / math.pi) * 2.0**k * math.factorial(k)
        f = lambda x: abs(x) ** (2 * k + 1) - mean  # noqa: E731
    else:
        raise ValueError(f"unknown test function {fspec!r}")
    dens = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)  # noqa: E731
    out = {}
    for q in range(1, Q_MAX + 1):
        basis = [0.0] * q + [1.0]
        g = lambda x: f(x) * hermite_e.hermeval(x, basis) * dens(x)  # noqa: E731
        with warnings.catch_warnings():
            # quad flags roundoff when it reaches the double-precision floor
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            raw = sum(integrate.quad(g, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                      for a, b in ((-np.inf, 0.0), (0.0, np.inf)))
        c = raw / math.factorial(q)
        if abs(c) * math.sqrt(math.factorial(q)) > 1e-9:
            out[q] = c
    return out


# -- limit variance series ---------------------------------------------------

_M_DIRECT = 200_000
_M_SERIES = 100  # second differences from m = 100 on come from the binomial series


def _binom(alpha: float, k: int) -> float:
    return math.prod(alpha - i for i in range(k)) / math.factorial(k)


def second_differences(alpha: float, M: int) -> np.ndarray:
    """A(m) = (m+1)^a + (m-1)^a - 2 m^a for m = 1..M."""
    small = np.arange(1.0, _M_SERIES)
    a_small = (small + 1.0) ** alpha + (small - 1.0) ** alpha - 2.0 * small**alpha
    big = np.arange(float(_M_SERIES), M + 1.0)
    x2 = big**-2.0
    # (1+x)^a + (1-x)^a - 2 = 2 sum_{k>=1} C(a, 2k) x^(2k); x <= 0.01, 8 terms
    acc = np.zeros_like(big)
    for k in range(8, 0, -1):
        acc = (acc + 2.0 * _binom(alpha, 2 * k)) * x2
    return np.concatenate([a_small, big**alpha * acc])


@lru_cache(maxsize=None)
def sigma_q_sq(alpha: float, q: int) -> float:
    """2^-q q! sum_{m in Z} A(m)^q, for alpha < 2 - 1/q."""
    s = q * (2.0 - alpha)
    if s <= 1.0:
        raise ValueError(f"series diverges at alpha={alpha}, q={q}")
    head = math.fsum(second_differences(alpha, _M_DIRECT) ** q)
    lead = (alpha * (alpha - 1.0)) ** q
    c2 = (alpha - 2.0) * (alpha - 3.0) / 12.0
    tail = 0.0
    if lead != 0.0:
        start = _M_DIRECT + 1
        tail = lead * (special.zeta(s, start) + q * c2 * special.zeta(s + 2.0, start))
    return 2.0**-q * math.factorial(q) * (2.0**q + 2.0 * head + 2.0 * tail)


def sigma_sq(alpha: float, fspec: str) -> float:
    return sum(c * c * sigma_q_sq(alpha, q) for q, c in coefficients(fspec).items())


# -- sampled increments and the Monte Carlo experiment ----------------------

# verdict tolerances and bootstrap size documented in ssgauss.montecarlo
MC_TOLERANCES = {"var_se_mult": 4.0, "kurt_se_mult": 5.0, "ks_p_min": 1e-3, "cross_se_mult": 4.0}
BOOTSTRAP_B = 1000
_MASK64 = 2**64 - 1


def replica_normals(seed: int, M: int, N: int) -> np.ndarray:
    """Row i: N normals from the Philox stream keyed (seed, i), each the
    inverse normal CDF of the top 53 bits of one raw word, centred in (0, 1)."""
    z = np.empty((M, N))
    for i in range(M):
        key = np.array([seed & _MASK64, i], dtype=np.uint64)
        raw = np.random.Philox(key=key).random_raw(N)
        z[i] = special.ndtri(((raw >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53)
    return z


@lru_cache(maxsize=2)
def increments(spec, n: int, N: int, M: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(M x N increment rows L z, their standard deviations)."""
    std = increment_std(spec, n, N)
    cov = corr_matrix(spec, n, N) * np.outer(std, std)
    return replica_normals(seed, M, N) @ np.linalg.cholesky(cov).T, std


def hermite_series(x: np.ndarray, coeffs: dict) -> np.ndarray:
    """sum_q c_q He_q(x) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x.copy()
    out = coeffs.get(0, 0.0) * prev + coeffs.get(1, 0.0) * cur
    for k in range(1, max(coeffs)):
        prev, cur = cur, x * cur - k * prev
        if k + 1 in coeffs:
            out += coeffs[k + 1] * cur
    return out


def ks_normal(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the sample x from N(0, 1)."""
    m = x.size
    cdf = special.ndtr(np.sort(x))
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))


def _bootstrap(values: np.ndarray, seed: int, stream: int) -> tuple[float, float]:
    """Bootstrap errors of the variance and the fourth-moment ratio; the
    resamples come from the Philox stream keyed (seed, 2^32 + stream)."""
    key = np.array([seed & _MASK64, (1 << 32) + stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    draws = values[rng.integers(0, values.size, size=(BOOTSTRAP_B, values.size))]
    sq = draws**2
    msq = np.mean(sq, axis=1)
    var = msq - np.mean(draws, axis=1) ** 2
    kurt = np.mean(sq * sq, axis=1) / (3.0 * np.maximum(msq, 1e-300) ** 2)
    return float(np.std(var, ddof=1)), float(np.std(kurt, ddof=1))


def experiment(spec, fspec: str, n: int, t_grid: tuple, M: int, seed: int,
               exact_vars: tuple) -> dict:
    """Per-time statistics, consecutive cross covariances and the overall
    verdict of the clt experiment, laid out as in experiment.json."""
    t_grid = sorted(t_grid)
    inc, std = increments(spec, n, math.floor(n * t_grid[-1]), M, seed)
    prefix = np.cumsum(hermite_series(inc / std, coefficients(fspec)), axis=1) / math.sqrt(n)
    F = [prefix[:, math.floor(n * t) - 1] for t in t_grid]
    tol = MC_TOLERANCES
    times, passed = [], True
    for i, (Ft, exact) in enumerate(zip(F, exact_vars)):
        m2, m4 = float(np.mean(Ft**2)), float(np.mean(Ft**4))
        se_var, se_kurt = _bootstrap(Ft, seed, i)
        ks = ks_normal(Ft / math.sqrt(exact))
        ts = {"mean": float(np.mean(Ft)), "sample_var": float(np.var(Ft, ddof=1)),
              "fourth_moment": m4, "kurtosis_ratio": m4 / (3.0 * m2 * m2),
              "se_var": se_var, "se_kurtosis": se_kurt, "ks_stat": ks,
              "ks_p": ks_sf(math.sqrt(M) * ks)}
        passed &= (abs(ts["sample_var"] - exact) <= tol["var_se_mult"] * se_var
                   and abs(ts["kurtosis_ratio"] - 1.0) <= tol["kurt_se_mult"] * se_kurt
                   and ts["ks_p"] >= tol["ks_p_min"])
        times.append(ts)
    G = np.diff(np.column_stack([np.zeros(M)] + F), axis=1)
    cross = []
    for i in range(len(t_grid) - 1):
        prod = G[:, i] * G[:, i + 1]
        cov = float(np.mean(prod) - np.mean(G[:, i]) * np.mean(G[:, i + 1]))
        se = float(np.std(prod, ddof=1) / math.sqrt(M))
        passed &= abs(cov) <= tol["cross_se_mult"] * se
        cross.append({"cov": cov, "se": se})
    return {"times": times, "cross": cross, "passed": bool(passed)}
