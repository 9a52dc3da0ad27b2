"""Independent reference evaluations the tests hold the package against.

They follow the textbook formulas literally and share no code path with
the routines they check, so they live with the tests, not in the package.
"""

import math

import numpy as np

from ssgauss.errors import DomainError


def kernel_eval_scaled(model, s, t):
    """Reference evaluation through the scaling form min^(2 beta) phi(max/min).

    Algebraically identical to Model.r; kept as an independent route for
    consistency tests.  Less accurate than the direct forms when t/s - 1
    underflows the working precision.
    """
    sa = np.atleast_1d(np.asarray(s, dtype=float))
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    sa, ta = np.broadcast_arrays(sa, ta)
    u = np.minimum(sa, ta)
    v = np.maximum(sa, ta)
    out = np.zeros(u.shape, dtype=float)
    pos = u > 0
    if np.any(pos):
        out[pos] = u[pos] ** (2.0 * model.beta) * model._phi(v[pos] / u[pos], 0)
    if np.asarray(s).ndim == 0 and np.asarray(t).ndim == 0:
        return float(out.reshape(-1)[0])
    return out


def contraction_norm_bruteforce(ic, q: int, r: int, t: float = 1.0) -> float:
    """Literal quadruple sum; O(N^4), for cross-checking small grids."""
    if not 1 <= r <= q - 1:
        raise DomainError(f"contraction order r must be in [1, q-1]; got r={r}, q={q}")
    m = int(math.floor(ic.n * t))
    rho = ic.corr[:m, :m]
    total = 0.0
    for j in range(m):
        for k in range(m):
            for l in range(m):
                for mm in range(m):
                    total += (rho[j, k] ** r * rho[l, mm] ** r
                              * rho[j, l] ** (q - r) * rho[k, mm] ** (q - r))
    return float(1.0 / ic.n**2 * total)


def kernel_masked(model, s, t):
    """Model.r through the masked gather and scatter on every input: the
    positive-argument pairs are gathered, evaluated by model._r and
    scattered back into zeros."""
    sa, ta = np.broadcast_arrays(np.atleast_1d(np.asarray(s, dtype=float)),
                                 np.atleast_1d(np.asarray(t, dtype=float)))
    u = np.minimum(sa, ta)
    v = np.maximum(sa, ta)
    out = np.zeros(u.shape, dtype=float)
    pos = u > 0.0
    if np.any(pos):
        out[pos] = model._r(u[pos], v[pos])
    return out


def increment_cov_full_grid(model, n: int, N: int):
    """(cov, std, corr) from the whole (N+1) x (N+1) kernel grid, the
    rectangle identity on all N^2 entries and an upper-triangle mirror."""
    times = np.arange(N + 1, dtype=float) / float(n)
    R = kernel_masked(model, times[:, None], times[None, :])
    raw = (R[1:, 1:] - R[:-1, 1:]) - (R[1:, :-1] - R[:-1, :-1])
    cov = np.triu(raw) + np.triu(raw, 1).T
    cov[np.abs(cov) < 1.0e-300] = 0.0
    std = np.sqrt(np.diag(cov).copy())
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    return cov, std, corr


def hermite_table(x: np.ndarray, q_max: int) -> np.ndarray:
    """Stack He_0..He_qmax evaluated at x, shape (q_max + 1,) + x.shape."""
    xa = np.asarray(x, dtype=float)
    out = np.empty((q_max + 1,) + xa.shape, dtype=float)
    out[0] = 1.0
    if q_max >= 1:
        out[1] = xa
    for q in range(1, q_max):
        out[q + 1] = xa * out[q] - q * out[q - 1]
    return out


def partial_sum_three_powers(alpha: float, q: int, M: int, chunk: int = 1 << 20) -> float:
    """sum over |m| <= M of A(m)^q, each term from three powers
    (m+1)^alpha, (m-1)^alpha and m^alpha, every chunk summed afresh."""
    parts = []
    for lo in range(1, M + 1, chunk):
        m = np.arange(lo, min(lo + chunk, M + 1), dtype=float)
        a = (m + 1.0) ** alpha + (m - 1.0) ** alpha - 2.0 * m**alpha
        parts.append(float(np.sum(a**q)))
    return 2.0**q + 2.0 * math.fsum(parts)


def far_decay_ratios_on_grid(model, n: int = 729) -> list:
    """|cov[j, k]| / envelope for (j, k) = (3^e, 3^(e-1)), e = 1..6, read
    from the assembled increment covariance at resolution n, with the
    envelope's n^(-2 beta) factor: the far-pair audit at grid scale, which
    self-similarity maps onto the integer grid."""
    from ssgauss.covgrid import increment_cov

    a, b = model.alpha, model.beta
    ic = increment_cov(model, n, 3**6 + 1)
    ratios = []
    for e in range(1, 7):
        j, k = 3**e, 3 ** (e - 1)
        if a < 1.0:
            env = n ** (-2.0 * b) * k ** (2.0 * b + model.nu - 2.0) * (j - k) ** (-model.nu)
        else:
            env = n ** (-2.0 * b) * k ** (2.0 * b - a) * (j - k) ** (a - 2.0)
        ratios.append(abs(float(ic.cov[j, k])) / env)
    return ratios


def functional_whole_array(rows, f, n: int, t_grid):
    """F_n(t) over t_grid from one pass over the whole array: f on every
    increment below the largest time, then prefix sums along each row."""
    arr = np.asarray(rows, dtype=float)
    ms = [max(math.floor(n * t), 0) for t in t_grid]
    top = max(ms, default=0)
    prefix = np.zeros(arr.shape[:-1] + (top + 1,))
    np.cumsum(f.evaluate(arr[..., :top]), axis=-1, out=prefix[..., 1:])
    return np.moveaxis(prefix, -1, 0)[ms] / math.sqrt(n)


_U_MAX = np.nextafter(1.0, 0.0)


def replica_uniforms_fresh_philox(seed: int, replica: int, count: int) -> np.ndarray:
    """count open-interval uniforms of replica `replica`, as first written:
    a new Philox bit generator keyed (seed, replica), its top 53 bits k
    mapped to (k + 0.5) 2^-53 and clamped below 1."""
    key = np.array([seed & (2**64 - 1), replica], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(count)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _U_MAX)


def _poly(coeffs, r):
    acc = np.full_like(r, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * r + c
    return acc


def normal_icdf_masked(u):
    """AS 241 as first written: each branch gathers its own entries, the
    central ones too, and scatters its values back."""
    from ssgauss.sampler import _PPND_A, _PPND_B, _PPND_C, _PPND_D, _PPND_E, _PPND_F

    ua = np.atleast_1d(np.asarray(u, dtype=float))
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
    return out


def sample_normalized_whole_chunks(model, n: int, N: int, M: int, seed: int):
    """The normalized rows of sample_batch as first written: a fresh Philox
    per replica, the masked inverse CDF on all of a chunk's uniforms at
    once, and the chunk's product with L^T copied into the rows."""
    from ssgauss.covgrid import increment_cov
    from ssgauss.sampler import _REPLICA_CHUNK, cholesky

    LT = cholesky(increment_cov(model, n, N)).L.T.copy()
    rows = np.empty((M, N), dtype=float)
    for lo in range(0, M, _REPLICA_CHUNK):
        hi = min(lo + _REPLICA_CHUNK, M)
        u = np.stack([replica_uniforms_fresh_philox(seed, rep, N) for rep in range(lo, hi)])
        rows[lo:hi] = normal_icdf_masked(u) @ LT
    return rows


def bootstrap_moments_whole_array(values, seed: int, stream: int, B: int):
    """Bootstrap standard errors of the sample variance and the kurtosis
    ratio as first written: all B x m draws at once, and powers of the
    gathered draws."""
    m = values.size
    key = np.array([seed & (2**64 - 1), (1 << 32) + stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    idx = rng.integers(0, m, size=(B, m))
    draws = values[idx]
    m2 = np.mean(draws**2, axis=1) - np.mean(draws, axis=1) ** 2
    m4 = np.mean(draws**4, axis=1)
    kurt = m4 / (3.0 * np.maximum(np.mean(draws**2, axis=1), 1e-300) ** 2)
    return float(np.std(m2, ddof=1)), float(np.std(kurt, ddof=1))


def kernel_mp(model, u, v):
    """R(u, v) for 0 <= u <= v from the catalog's closed forms in mpmath,
    at the working precision of the caller's mp context; the parameters are
    the model's doubles, taken exactly."""
    import mpmath as mp

    if u == 0:
        return mp.mpf(0)
    u, v = mp.mpf(u), mp.mpf(v)
    p = {k: mp.mpf(x) for k, x in model.params.items()}
    if model.name == "fbm":
        g = 2 * p["H"]
        return (u**g + v**g - (v - u) ** g) / 2
    if model.name == "subfbm":
        g = 2 * p["H"]
        return u**g + v**g - ((u + v) ** g + (v - u) ** g) / 2
    if model.name == "bifbm":
        H, K = p["H"], p["K"]
        return 2 ** (-K) * ((u ** (2 * H) + v ** (2 * H)) ** K - (v - u) ** (2 * H * K))
    if model.name == "swanson":
        return mp.sqrt(u * v) * mp.asin(mp.sqrt(u / v))
    a = p["alpha"]
    if model.name == "dw-z1":
        return mp.gamma(1 - a) * ((u + v) ** a - v**a)
    if model.name == "dw-z2":
        return mp.gamma(1 - a) * (u**a + v**a - (u + v) ** a)
    raise ValueError(f"no reference kernel for {model.name}")
