"""Acceptance suite: ten numbered criteria, one test each.

Every test prints one line ``[ACCEPTANCE k] PASS|FAIL ...`` with its
runtime, and asserts the criterion at its stated tolerance.

The envelope-abiding families (fbm, subfbm, bifbm, swanson) are held to
the Breuer-Major conclusions: exact variance converging to the series
limit, decaying contraction norms, bounded residual envelopes.  dw-z2,
whose kernel s^a + t^a - (s+t)^a is differentiable off the origin, is
held to the limits a differentiable kernel implies (criteria 3, 6, 8),
derived here without calling the package.  dw-z1 is held to the
Breuer-Major conclusions like the envelope-abiding families; its
sub-cases of criteria 3 and 8 fail, because the catalog kernel
(s+t)^a - max(s,t)^a has smooth interior increments.  Whether that kernel
is the one the paper means is open (README.md, "Targets of the smooth
models and of the finite-n law"), so those sub-cases stay red rather
than being held to the catalog kernel's own behaviour.  Criterion 4 compares the kurtosis ratio and the law of F_n at
n = 512 with the exact finite-n values: in closed form for fbm with
H = 1/2, whose increments are iid, and against a sample drawn
independently in this module otherwise.  README.md carries the
derivations.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from ssgauss.analysis import (
    check_adjacent_covariance,
    check_far_decay,
    check_increment_variance,
    check_separated_covariance,
    check_shape_derivatives,
    check_tail_derivatives,
    contraction_norm,
)
from ssgauss.cli import main as cli_main
from ssgauss.covgrid import IncrementCovariance, increment_cov
from ssgauss.hermite import builtin_family
from ssgauss.limitvar import sigma_q_sq, sigma_sq
from ssgauss.models import make_model
from ssgauss.montecarlo import exact_variance
from ssgauss.montecarlo import run_experiment
from ssgauss.sampler import sample_batch

from oracles import contraction_norm_bruteforce

SEED = 20240801

# criterion 3: per-model ceiling on the final relative gap at n = 4096.
# The initial 5% target is kept for every family.  swanson, subfbm and
# bifbm are held to sigma_2^2(alpha) (measured gaps 1.7e-5, 7.1e-5,
# 5.7e-5), and so is dw-z1, whose gap stays near 0.151 (red, see the
# module docstring); dw-z2, whose variance grows like n, is held to the
# rate lim E[F_n(1)^2] / n of its differentiable kernel (7.4e-7).
VARIANCE_GAP_THRESHOLDS = {
    "swanson": 0.05,
    "subfbm": 0.05,
    "bifbm": 0.05,
    "dw-z1": 0.05,
    "dw-z2": 0.05,
}

FAMILY_CASES = [
    ("swanson", {}),
    ("subfbm", {"H": 0.35}),
    ("bifbm", {"H": 0.6, "K": 0.5}),
    ("dw-z1", {"alpha": 0.5}),
    ("dw-z2", {"alpha": 0.5}),
]

MC_COMBOS = [
    ("fbm", {"H": 0.5}, "single_hermite", 2),
    ("fbm", {"H": 0.5}, "single_hermite", 3),
    ("fbm", {"H": 0.5}, "even_power", 2),
    ("swanson", {}, "single_hermite", 2),
    ("swanson", {}, "single_hermite", 3),
    ("swanson", {}, "even_power", 2),
]


def _report(num: int, failures: list, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[ACCEPTANCE {num}] {status} ({elapsed:.2f}s / limit {limit:.0f}s){extra}")
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"
    assert not failures, f"criterion {num}: " + "; ".join(failures)


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_factorial_collapse():
    t0 = time.time()
    failures = []
    for q in range(2, 9):
        value = sigma_q_sq(1.0, q).value
        if value != float(math.factorial(q)):
            failures.append(f"sigma_{q}^2(1) = {value!r} != {math.factorial(q)}")
    _report(1, failures, time.time() - t0, 1.0)


# -- 2 ----------------------------------------------------------------------

def _fbm_series_oracle(H: float, q: int, M: int) -> float:
    """Independent direct summation of the Hermite-variation variance for
    fractional noise, with exponent 2H."""
    g = 2.0 * H
    chunk = 1 << 20
    parts = []
    for lo in range(1, M + 1, chunk):
        m = np.arange(lo, min(lo + chunk, M + 1), dtype=float)
        parts.append(float(np.sum(((m + 1.0) ** g - 2.0 * m**g + (m - 1.0) ** g) ** q)))
    return math.factorial(q) / 2.0**q * (2.0**q + 2.0 * math.fsum(parts))


def test_criterion_02_fbm_cross_check():
    t0 = time.time()
    failures = []
    # exact expansions: He_2, He_3, and x^4 - 3 = He_4 + 6 He_2
    oracle_coeffs = {
        "hermite:2": {2: 1.0},
        "hermite:3": {3: 1.0},
        "even_power:2": {2: 6.0, 4: 1.0},
    }
    fs = {
        "hermite:2": builtin_family("single_hermite", 2),
        "hermite:3": builtin_family("single_hermite", 3),
        "even_power:2": builtin_family("even_power", 2),
    }
    cache: dict = {}
    for H in (0.2, 0.3, 0.45):
        for label, f in fs.items():
            lv = sigma_sq(f, 2.0 * H, rel_tol=2e-11, m_cap=10**7)
            oracle = 0.0
            for q, c in oracle_coeffs[label].items():
                key = (H, q)
                if key not in cache:
                    cache[key] = _fbm_series_oracle(H, q, 10**7 if q == 2 else 10**6)
                oracle += c * c * cache[key]
            rel = abs(lv.sigma_sq - oracle) / oracle
            if rel > 1e-10:
                failures.append(f"H={H} f={label}: rel gap {rel:.3g}")
    _report(2, failures, time.time() - t0, 5.0)


# -- 3 ----------------------------------------------------------------------

# lim E[F_n(1)^2] / n for He_2 on dw-z2, by its parameter a.  The kernel
# is differentiable off the origin, with d_s d_t R = Gamma(1-a) a (1-a)
# (s+t)^(a-2), so the increment correlation of the grid cells at u and v
# tends to (2 sqrt(uv) / (u+v))^(2-a).  Then (2/n^2) sum corr^2 tends to
# twice the integral of that kernel squared over the unit square, which by
# homogeneity is 2 int_0^1 (2 sqrt(w) / (1+w))^(2(2-a)) dw.  At a = 1/2,
# w = tan(theta)^2 turns it into 32 int_0^(pi/4) sin(theta)^4 dtheta.
DW_Z2_VARIANCE_RATE = {0.5: 3.0 * math.pi - 8.0}


def _variance_target(model) -> tuple[float, int]:
    """(target, p) such that E[F_n(1)^2] / n^p tends to target for He_2."""
    if model.name == "dw-z2":
        return DW_Z2_VARIANCE_RATE[model.alpha], 1
    return sigma_q_sq(model.alpha, 2).value, 0


def test_criterion_03_exact_variance_convergence():
    t0 = time.time()
    f2 = builtin_family("single_hermite", 2)
    failures = []
    details = []
    for name, kw in FAMILY_CASES:
        model = make_model(name, **kw)
        target, p = _variance_target(model)
        gaps = [abs(exact_variance(model, f2, n, 1.0) / n**p - target) / target
                for n in (256, 1024, 4096)]
        decreasing = gaps[0] > gaps[1] > gaps[2]
        within = gaps[2] < VARIANCE_GAP_THRESHOLDS[name]
        details.append(f"{name}: final={gaps[2]:.3g}")
        if not decreasing:
            failures.append(f"{name}: gaps {[f'{g:.3g}' for g in gaps]} not strictly decreasing")
        if not within:
            failures.append(f"{name}: final gap {gaps[2]:.3g} above "
                            f"{VARIANCE_GAP_THRESHOLDS[name]}")
    _report(3, failures, time.time() - t0, 120.0, " ".join(details))


# -- 4 and 5 share the experiment runs ---------------------------------------

MC_N = 512
MC_M = 4000
MC_TIMES = (0.25, 0.5, 0.75, 1.0)
MC_INCREMENTS = int(math.floor(MC_N * MC_TIMES[-1]))
# size of the independent reference sample of the finite-n law (criterion 4)
MC_REF_M = 4 * MC_M

# criterion 4 reference: the two Monte Carlo kernels in closed form, as
# functions of u = min(s, t) > 0 and v = max(s, t), and the test functions
# written out as polynomials
REF_KERNELS = {
    "fbm": lambda u, v: u,  # H = 1/2: min(s, t)
    "swanson": lambda u, v: np.sqrt(u * v) * np.arcsin(np.sqrt(u / v)),
}
REF_FUNCTIONS = {
    "single_hermite:2": Polynomial([-1.0, 0.0, 1.0]),
    "single_hermite:3": Polynomial([0.0, -3.0, 0.0, 1.0]),
    "even_power:2": Polynomial([-3.0, 0.0, 0.0, 0.0, 1.0]),
}


@pytest.fixture(scope="module")
def clt_runs():
    t0 = time.time()
    runs = {}
    for mname, mkw, fkind, fval in MC_COMBOS:
        model = make_model(mname, **mkw)
        f = builtin_family(fkind, fval)
        label = f"{mname}/{fkind}:{fval}"
        runs[label] = run_experiment(model, f, MC_N, list(MC_TIMES), M=MC_M, seed=SEED)
    return runs, time.time() - t0


def _paths_at_times(values: np.ndarray) -> np.ndarray:
    """F_n(t) at MC_TIMES for each row of per-increment values f(Y_j)."""
    cols = [int(math.floor(MC_N * t)) - 1 for t in MC_TIMES]
    return (np.cumsum(values, axis=1) / math.sqrt(MC_N))[:, cols]


def _reference_paths(mname: str) -> dict:
    """MC_REF_M draws of (F_n(t))_t per test function, from the closed-form
    kernel, the rectangle identity, numpy's Cholesky and a PCG64 stream."""
    N = MC_INCREMENTS
    grid = np.arange(1, N + 1) / MC_N
    R = np.zeros((N + 1, N + 1))
    R[1:, 1:] = REF_KERNELS[mname](np.minimum.outer(grid, grid),
                                   np.maximum.outer(grid, grid))
    cov = R[1:, 1:] - R[:-1, 1:] - R[1:, :-1] + R[:-1, :-1]
    LT = np.linalg.cholesky(cov).T
    std = np.sqrt(np.diag(cov))
    rng = np.random.default_rng(SEED)
    parts = {key: [] for key in REF_FUNCTIONS}
    for _ in range(MC_REF_M // MC_M):
        y = rng.standard_normal((MC_M, N)) @ LT / std
        for key, poly in REF_FUNCTIONS.items():
            parts[key].append(_paths_at_times(poly(y)))
    return {key: np.concatenate(chunks) for key, chunks in parts.items()}


def _gaussian_mean(poly: Polynomial) -> float:
    """E[poly(Y)] for Y ~ N(0, 1), from E[Y^m] = (m-1)!! for even m."""
    return math.fsum(c * math.prod(range(m - 1, 0, -2))
                     for m, c in enumerate(poly.coef) if m % 2 == 0)


def _iid_kurtosis_ratio(poly: Polynomial, k: int) -> float:
    """E[S^4] / (3 E[S^2]^2) for S a sum of k iid copies of the centred
    variable poly(Y): 1 + kappa_4 / (3 sigma^4 k)."""
    var = _gaussian_mean(poly**2)
    kappa4 = _gaussian_mean(poly**4) - 3.0 * var**2
    return 1.0 + kappa4 / (3.0 * var**2 * k)


def _kurtosis_ratio(F: np.ndarray) -> tuple[float, float]:
    """E[F^4] / (3 E[F^2]^2) and its delta-method standard error."""
    m2 = float(np.mean(F**2))
    m4 = float(np.mean(F**4))
    influence = (F**4 - m4) / (3.0 * m2**2) - 2.0 * m4 * (F**2 - m2) / (3.0 * m2**3)
    return m4 / (3.0 * m2**2), float(np.std(influence, ddof=1) / math.sqrt(F.size))


def test_criterion_04_monte_carlo_clt(clt_runs):
    ks_2samp = pytest.importorskip("scipy.stats").ks_2samp
    runs, elapsed = clt_runs
    t0 = time.time()
    failures = []
    # the runs' own replicas, rebuilt at the same seed, and the reference law
    batches, refs, program, reference = {}, {}, {}, {}
    # fbm with H = 1/2 has iid increments, so its exact finite-n kurtosis
    # ratio is known in closed form and does not depend on any seed
    exact_kurtosis = {}
    for mname, mkw, fkind, fval in MC_COMBOS:
        if mname not in batches:
            batches[mname] = sample_batch(make_model(mname, **mkw), MC_N, MC_INCREMENTS,
                                          MC_M, SEED)
            refs[mname] = _reference_paths(mname)
        key = f"{fkind}:{fval}"
        label = f"{mname}/{key}"
        values = builtin_family(fkind, fval).evaluate(batches[mname].normalized)
        program[label] = _paths_at_times(values)
        reference[label] = refs[mname][key]
        if mname == "fbm":
            exact_kurtosis[label] = [_iid_kurtosis_ratio(REF_FUNCTIONS[key],
                                                         int(math.floor(MC_N * t)))
                                     for t in MC_TIMES]
    worst_z, worst_p, worst_exact_z = 0.0, 1.0, 0.0
    for label, res in runs.items():
        for i, ts in enumerate(res.times):
            if abs(ts.sample_var - ts.exact_var) > 4.0 * ts.se_var:
                failures.append(f"{label} t={ts.t}: variance off by "
                                f"{abs(ts.sample_var - ts.exact_var) / ts.se_var:.1f} se")
            rebuilt, _ = _kurtosis_ratio(program[label][:, i])
            if abs(rebuilt - ts.kurtosis_ratio) > 1e-12 * ts.kurtosis_ratio:
                failures.append(f"{label} t={ts.t}: rebuilt replicas give kurtosis ratio "
                                f"{rebuilt!r}, the run {ts.kurtosis_ratio!r}")
            if label in exact_kurtosis:
                k_exact = exact_kurtosis[label][i]
                z_exact = abs(ts.kurtosis_ratio - k_exact) / ts.se_kurtosis
                worst_exact_z = max(worst_exact_z, z_exact)
                if z_exact > 5.0:
                    failures.append(f"{label} t={ts.t}: kurtosis ratio "
                                    f"{ts.kurtosis_ratio:.4f} vs exact {k_exact:.4f} "
                                    f"({z_exact:.1f} se)")
            k_ref, se_ref = _kurtosis_ratio(reference[label][:, i])
            z = abs(ts.kurtosis_ratio - k_ref) / math.hypot(ts.se_kurtosis, se_ref)
            p = float(ks_2samp(program[label][:, i], reference[label][:, i]).pvalue)
            worst_z, worst_p = max(worst_z, z), min(worst_p, p)
            if z > 5.0:
                failures.append(f"{label} t={ts.t}: kurtosis ratio {ts.kurtosis_ratio:.4f} "
                                f"vs finite-n reference {k_ref:.4f} ({z:.1f} se)")
            if p < 1e-3:
                failures.append(f"{label} t={ts.t}: two-sample KS p = {p:.3g}")
    # determinism at the fixed seed
    model = make_model("fbm", H=0.5)
    f2 = builtin_family("single_hermite", 2)
    again = run_experiment(model, f2, MC_N, list(MC_TIMES), M=MC_M, seed=SEED)
    if again.to_dict() != runs["fbm/single_hermite:2"].to_dict():
        failures.append("rerun at the fixed seed is not identical")
    _report(4, failures, elapsed + (time.time() - t0), 180.0,
            f"max kurtosis z={worst_z:.2f} (exact fbm: {worst_exact_z:.2f}) "
            f"min two-sample KS p={worst_p:.3g}")


def test_criterion_05_cross_increment_decorrelation(clt_runs):
    runs, _ = clt_runs
    t0 = time.time()
    failures = []
    for label, res in runs.items():
        for cs in res.cross:
            if abs(cs.cov) > 4.0 * cs.se:
                failures.append(f"{label} ({cs.t_lo},{cs.t_mid})x({cs.t_mid},{cs.t_hi}): "
                                f"|C|={abs(cs.cov):.4g} > 4se={4 * cs.se:.4g}")
    _report(5, failures, time.time() - t0, 30.0)


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_contraction_condition():
    t0 = time.time()
    failures = []
    ladder = (64, 128, 256, 512)
    detail = ""
    for name, kw in FAMILY_CASES:
        model = make_model(name, **kw)
        norms = []
        for n in ladder:
            ic = increment_cov(model, n, n)
            norms.append(contraction_norm(ic, 2, 1, 1.0, 1.0))
        if name == "dw-z2":
            # corr tends to a continuous kernel K on the unit square, so
            # trace(corr^4) ~ n^4 and the norm (1/n^2) trace(corr^4) ~ n^2
            slope = float(np.polyfit(np.log(ladder), np.log(norms), 1)[0])
            detail = f"dw-z2 log-log slope={slope:.4f}"
            if abs(slope - 2.0) > 0.05:
                failures.append(f"{name}: norms {['%.3g' % v for v in norms]} grow with "
                                f"log-log slope {slope:.4f}, not 2")
        elif not all(norms[i + 1] < norms[i] for i in range(3)):
            failures.append(f"{name}: norms {['%.3g' % v for v in norms]} not decreasing")
        elif not norms[3] < 0.5 * norms[0]:
            failures.append(f"{name}: n=512 norm {norms[3]:.3g} not below half of "
                            f"n=64 norm {norms[0]:.3g}")
    # trace form against the quadruple sum on small random instances
    fbm = make_model("fbm", H=0.5)
    for seed, N in ((0, 5), (1, 6), (2, 8)):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((N, 2 * N))
        cov = W @ W.T
        std = np.sqrt(np.diag(cov))
        corr = cov / np.outer(std, std)
        np.fill_diagonal(corr, 1.0)
        ic = IncrementCovariance(model=fbm, n=N, N=N, std=std, corr=corr)
        for q, r in ((2, 1), (3, 2)):
            fast = contraction_norm(ic, q, r, 1.0, 1.0)
            slow = contraction_norm_bruteforce(ic, q, r, 1.0, 1.0)
            if abs(fast - slow) > 1e-12 * max(1.0, abs(slow)):
                failures.append(f"trace/bruteforce mismatch N={N} q={q} r={r}")
    _report(6, failures, time.time() - t0, 60.0, detail)


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_hypothesis_audits():
    t0 = time.time()
    failures = []
    six_models = [("fbm", {"H": 0.35})] + FAMILY_CASES
    for name, kw in six_models:
        model = make_model(name, **kw)
        for rep in check_shape_derivatives(model) + check_tail_derivatives(model):
            if not rep.verdict:
                failures.append(f"{name}: {rep.target} slope={rep.trend_slope:+.3f}")
    # fractional Brownian residual exactness, computed directly
    for H in (0.3, 0.7):
        m = make_model("fbm", H=H)
        t = 1.0
        s = 2.0 ** -np.arange(3, 17, dtype=float)
        lam, a, b = m.lam, m.alpha, m.beta
        g1 = (m.r(t + s, t + s) - 2.0 * m.r(t + s, t) + m.r(t, t)
              - 2.0 * lam * t ** (2 * b - a) * s**a)
        g2 = (m.r(t + s, t) - m.r(t + s, t - s) - m.r(t, t) + m.r(t, t - s)
              - (2.0**a - 2.0) * lam * t ** (2 * b - a) * s**a)
        worst3 = 0.0
        for ss in s:
            r = np.linspace(t / 3.0, t - 2.0 * ss, 9)
            g3 = (m.r(t, r) - m.r(t, r - ss) - m.r(t - ss, r) + m.r(t - ss, r - ss)
                  - lam * (r - ss) ** (2 * b - a)
                  * ((t - r - ss) ** a + (t - r + ss) ** a - 2.0 * (t - r) ** a))
            worst3 = max(worst3, float(np.max(np.abs(g3))))
        for tag, val in (("g1", float(np.max(np.abs(g1)))),
                         ("g2", float(np.max(np.abs(g2)))), ("g3", worst3)):
            if val > 1e-12:
                failures.append(f"fbm H={H}: |{tag}| = {val:.3g} above 1e-12")
    _report(7, failures, time.time() - t0, 30.0)


# -- 8 ----------------------------------------------------------------------

# criterion 8: how far a fitted trend slope of dw-z2 may sit from its
# analytic value (the audits' own growth tolerance)
SMOOTH_SLOPE_TOL = 0.05


def _smooth_trend_slopes(alpha: float) -> dict:
    """Trend slopes, against 1/s, of the near-diagonal residual ratios of
    dw-z2.

    Its increments are smooth at interior times, so each residual is of
    the order of the audited main term.  The increment-variance main term
    2 lam s^alpha over its envelope s gives s^(alpha-1); the adjacent main
    term (2^alpha - 2) lam s^alpha, and the separated one at the wedge edge
    r = t - 2s, are of order s^alpha over envelopes of order s^(alpha+1),
    giving s^-1.
    """
    return {
        "increment-variance-residual": 1.0 - alpha,
        "adjacent-covariance-residual": 1.0,
        "separated-covariance-residual": 1.0,
    }


def test_criterion_08_residual_audits():
    t0 = time.time()
    cases = [("swanson", {}), ("subfbm", {"H": 0.35}), ("subfbm", {"H": 0.8}),
             ("bifbm", {"H": 0.6, "K": 0.5}),
             ("dw-z1", {"alpha": 0.5}), ("dw-z2", {"alpha": 0.5})]
    failures = []
    for name, kw in cases:
        model = make_model(name, **kw)
        smooth = _smooth_trend_slopes(kw["alpha"]) if name == "dw-z2" else {}
        for rep in (check_increment_variance(model), check_adjacent_covariance(model),
                    check_separated_covariance(model), check_far_decay(model)):
            if rep.target in smooth:
                expected = smooth[rep.target]
                if rep.verdict or abs(rep.trend_slope - expected) > SMOOTH_SLOPE_TOL:
                    failures.append(f"{name}{kw}: {rep.target} verdict={rep.verdict} "
                                    f"slope={rep.trend_slope:+.2f}, expected a failing "
                                    f"verdict at slope {expected:+.2f}")
            elif not rep.verdict:
                failures.append(f"{name}{kw}: {rep.target} "
                                f"slope={rep.trend_slope:+.2f} sup={rep.ratio_sup:.3g}")
    _report(8, failures, time.time() - t0, 60.0)


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_sampler_exactness(tmp_path):
    t0 = time.time()
    failures = []
    model = make_model("fbm", H=0.7)
    M, n = 2000, 64
    ic = increment_cov(model, n, n)
    batch = sample_batch(model, n, n, M, seed=SEED)
    emp = batch.increments.T @ batch.increments / M
    band = np.sqrt((np.outer(np.diag(ic.cov), np.diag(ic.cov)) + ic.cov**2) / M)
    dev = float(np.max(np.abs(emp - ic.cov)))
    if dev > 5.0 * float(np.max(band)):
        failures.append(f"max deviation {dev:.3g} above the 5-sigma band")
    base = ["simulate", "--model", "fbm", "--H", "0.7", "--n", "64", "--N", "64",
            "--M", "500", "--seed", str(SEED)]
    d1, d8 = tmp_path / "t1", tmp_path / "t8"
    if cli_main(base + ["--threads", "1", "--out", str(d1)]) != 0:
        failures.append("simulate --threads 1 failed")
    if cli_main(base + ["--threads", "8", "--out", str(d8)]) != 0:
        failures.append("simulate --threads 8 failed")
    if (d1 / "batch.bin").read_bytes() != (d8 / "batch.bin").read_bytes():
        failures.append("thread count changed the sampled bytes")
    _report(9, failures, time.time() - t0, 60.0)


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_gate_enforcement(tmp_path, capsys):
    t0 = time.time()
    failures = []
    rc = cli_main(["variance", "--model", "fbm", "--H", "0.8", "--f", "hermite:2",
                   "--out", str(tmp_path / "v")])
    if rc != 3:
        failures.append(f"variance gate exit code {rc} != 3")
    rc = cli_main(["clt", "--model", "fbm", "--H", "0.8", "--f", "hermite:2",
                   "--n", "512", "--M", "4000", "--out", str(tmp_path / "c")])
    if rc != 3:
        failures.append(f"clt gate exit code {rc} != 3")
    for sub in ("v", "c"):
        d = tmp_path / sub
        if d.exists() and any(d.iterdir()):
            failures.append(f"gated {sub} run left output files")
    capsys.readouterr()
    _report(10, failures, time.time() - t0, 30.0)
