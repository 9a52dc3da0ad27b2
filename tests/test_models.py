import math

import numpy as np
import pytest

from ssgauss.errors import DomainError, NumericalError, SingularityError
from ssgauss.models import FBM, Model, list_models, make_model

from conftest import CATALOG_CASES
from oracles import kernel_eval_scaled, kernel_masked


def richardson_d1(fn, x, h):
    def central(hh):
        return (fn(x + hh) - fn(x - hh)) / (2.0 * hh)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def richardson_d2(fn, x, h):
    def central(hh):
        return (fn(x + hh) - 2.0 * fn(x) + fn(x - hh)) / hh**2
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def test_fbm_half_phi_is_constant_one():
    m = make_model("fbm", H=0.5)
    assert m.phi(3.0) == pytest.approx(1.0, abs=1e-15)


def test_swanson_phi_at_one_is_half_pi():
    m = make_model("swanson")
    assert m.phi(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_bifbm_k1_reduces_to_fbm_value():
    m = make_model("bifbm", H=0.6, K=1.0)
    assert m.phi(2.0) == pytest.approx(2.0**0.2, rel=1e-14)


def test_subfbm_psi_at_one():
    m = make_model("subfbm", H=0.7)
    assert m.psi(1.0) == pytest.approx(2.0 - 2.0**0.4, rel=1e-14)


def test_subfbm_slope_identity():
    m = make_model("subfbm", H=0.7)
    assert m.psi(1.0, 1) - m.beta * m.psi(1.0, 0) == pytest.approx(0.0, abs=1e-12)


def test_dw_z1_psi_value():
    # direct high-precision evaluation of Gamma(1/2) (sqrt(3) + 1 - sqrt(2))
    m = make_model("dw-z1", alpha=0.5)
    expected = math.gamma(0.5) * (math.sqrt(3.0) + 1.0 - math.sqrt(2.0))
    assert m.psi(2.0) == pytest.approx(expected, rel=1e-14)


def test_kernel_brownian_min():
    m = make_model("fbm", H=0.5)
    assert m.r(0.3, 0.8) == pytest.approx(0.3, abs=1e-15)


def test_kernel_subfbm_unit():
    m = make_model("subfbm", H=0.5)
    assert m.r(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_kernel_self_similarity(name, kw):
    m = make_model(name, **kw)
    rng = np.random.default_rng(3)
    s = rng.uniform(0.05, 2.0, size=40)
    t = rng.uniform(0.05, 2.0, size=40)
    lhs = m.r(2.0 * s, 2.0 * t)
    rhs = 2.0 ** (2.0 * m.beta) * m.r(s, t)
    assert np.allclose(lhs, rhs, rtol=1e-12)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_kernel_zero_boundary_and_symmetry(name, kw):
    m = make_model(name, **kw)
    assert m.r(0.0, 1.3) == 0.0
    assert m.r(0.7, 0.0) == 0.0
    rng = np.random.default_rng(5)
    s = rng.uniform(0.01, 3.0, size=30)
    t = rng.uniform(0.01, 3.0, size=30)
    assert np.array_equal(m.r(s, t), m.r(t, s))
    assert np.allclose(m.r(t, t), t ** (2.0 * m.beta) * m.phi(1.0), rtol=1e-12)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_kernel_matches_scaled_representation(name, kw):
    m = make_model(name, **kw)
    rng = np.random.default_rng(11)
    s = rng.uniform(0.05, 2.0, size=50)
    t = rng.uniform(0.05, 2.0, size=50)
    direct = m.r(s, t)
    scaled = kernel_eval_scaled(m, s, t)
    assert np.allclose(direct, scaled, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_decomposition_identity_grid(name, kw):
    m = make_model(name, **kw)
    xs = np.concatenate([1.0 + 10.0 ** -np.arange(0, 7, dtype=float),
                         np.geomspace(1.5, 1.0e4, 40)])
    # phi is derived from psi; the kernel is an independent closed form
    phi = m.phi(xs)
    kernel = m.r(1.0, xs)
    assert np.all(np.abs(phi - kernel) <= 1e-10 * (1.0 + np.abs(phi)))


def test_psi_inconsistent_with_kernel_is_refused():
    class OffByOneMillionth(FBM):
        def _psi(self, x, order):
            return super()._psi(x, order) + 1.0e-6

    with pytest.raises(NumericalError, match="disagrees with the kernel"):
        OffByOneMillionth(0.35)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
@pytest.mark.parametrize("which", ["phi", "psi"])
def test_closed_form_derivatives_match_finite_differences(name, kw, which):
    m = make_model(name, **kw)
    fn0 = (lambda x: m.phi(x, 0)) if which == "phi" else (lambda x: m.psi(x, 0))
    fn1 = (lambda x: m.phi(x, 1)) if which == "phi" else (lambda x: m.psi(x, 1))
    fn2 = (lambda x: m.phi(x, 2)) if which == "phi" else (lambda x: m.psi(x, 2))
    for x in np.geomspace(1.5, 100.0, 12):
        # second differences amplify roundoff by 1/h^2, so they get a much
        # wider step than the first
        d1 = richardson_d1(fn0, x, 1e-3 * x)
        d2 = richardson_d2(fn0, x, 2e-2 * x)
        assert fn1(x) == pytest.approx(d1, rel=1e-6, abs=1e-12)
        assert fn2(x) == pytest.approx(d2, rel=1e-6, abs=1e-10)


def test_bifbm_k1_equals_fbm_everywhere():
    bif = make_model("bifbm", H=0.6, K=1.0)
    fbm = make_model("fbm", H=0.6)
    xs = np.geomspace(1.0, 1e3, 50)
    for order in (0, 1, 2):
        grid = xs if order == 0 else xs[xs > 1.0]
        assert np.allclose(bif.phi(grid, order), fbm.phi(grid, order),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(bif.psi(grid, order), fbm.psi(grid, order),
                           rtol=1e-12, atol=1e-12)


def test_bifbm_k1_builds_with_fbm_tail_exponent():
    # at K = 1 the x^(2HK-2H) term of psi is the constant 1, so phi' decays
    # like fbm's, with nu = 2 - 2H, for every H < 1/2 too
    for i in range(1, 50):
        H = i / 100
        bif = make_model("bifbm", H=H, K=1.0)
        fbm = make_model("fbm", H=H)
        assert bif.nu == fbm.nu == 2.0 - 2.0 * H
        assert (bif.alpha, bif.beta, bif.lam) == (fbm.alpha, fbm.beta, fbm.lam)
    assert make_model("bifbm", H=0.3, K=0.999).nu == pytest.approx(1.0006)


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_kernel_fast_path_equals_masked_path(name, kw):
    # all-positive arguments skip the masked gather and scatter; the
    # result must keep every bit, and inputs with zeros keep the masked path
    m = make_model(name, **kw)
    pos = np.concatenate([np.geomspace(1e-9, 1.0, 40), np.linspace(0.5, 8.0, 23)])
    mixed = np.concatenate([[0.0], pos[:30], [0.0, 0.0], pos[30:], [0.0]])
    s, t = pos[:, None], pos[None, ::-1]
    fast = m.r(s, t)
    assert fast.tobytes() == kernel_masked(m, s, t).tobytes()
    masked = m.r(mixed[:, None], mixed[None, ::-1])
    assert masked.tobytes() == kernel_masked(m, mixed[:, None], mixed[None, ::-1]).tobytes()
    keep = mixed > 0.0
    assert masked[np.ix_(keep, keep[::-1])].tobytes() == fast.tobytes()
    assert not masked[~keep].any() and not masked[:, ~keep[::-1]].any()
    assert m.r(pos[5], pos[50]) == kernel_masked(m, pos[5], pos[50])[0]


@pytest.mark.parametrize("name,kw", CATALOG_CASES)
def test_kernel_gram_positive_semidefinite(name, kw):
    m = make_model(name, **kw)
    rng = np.random.default_rng(17)
    pts = np.sort(rng.uniform(1e-3, 2.0, size=32))
    gram = m.r(pts[:, None], pts[None, :])
    eig = np.linalg.eigvalsh(gram)
    assert eig.min() >= -1e-8 * np.trace(gram)


def test_domain_errors():
    m = make_model("swanson")
    with pytest.raises(DomainError):
        m.phi(0.5)
    with pytest.raises(DomainError):
        m.psi(0.99)
    with pytest.raises(DomainError):
        m.r(-0.1, 1.0)
    with pytest.raises(DomainError):
        m.phi(2.0, order=3)


# (model, params, orders of phi singular at 1, orders of psi singular at 1):
# phi' diverges at 1 for alpha < 1 and phi'' for alpha != 1, through the
# power term -lam (x-1)^alpha; psi keeps a power of x - 1 only for swanson
# (psi'' ~ -(x-1)^(-1/2)/8) and the dw models ((x-1)^alpha itself)
SINGULAR_AT_ONE = [
    ("fbm", {"H": 0.3}, {1, 2}, set()),
    ("fbm", {"H": 0.5}, set(), set()),
    ("fbm", {"H": 0.7}, {2}, set()),
    ("subfbm", {"H": 0.3}, {1, 2}, set()),
    ("subfbm", {"H": 0.5}, set(), set()),
    ("subfbm", {"H": 0.8}, {2}, set()),
    ("bifbm", {"H": 0.6, "K": 0.5}, {1, 2}, set()),
    ("bifbm", {"H": 0.8, "K": 0.625}, set(), set()),
    ("bifbm", {"H": 0.9, "K": 0.8}, {2}, set()),
    ("swanson", {}, {1, 2}, {2}),
    ("dw-z1", {"alpha": 0.5}, {1, 2}, {1, 2}),
    ("dw-z2", {"alpha": 0.3}, {1, 2}, {1, 2}),
]


def test_singularities_at_one():
    sw = make_model("swanson")
    with pytest.raises(SingularityError):
        sw.phi(1.0, 1)  # alpha < 1
    # psi'(1) exists for swanson but psi''(1) does not
    assert sw.psi(1.0, 1) == pytest.approx(math.pi / 4.0, rel=1e-14)
    with pytest.raises(SingularityError):
        sw.psi(1.0, 2)
    dw = make_model("dw-z1", alpha=0.5)
    with pytest.raises(SingularityError):
        dw.psi(1.0, 1)
    # alpha = 1: the power term is linear, all orders finite at 1
    b = make_model("fbm", H=0.5)
    assert b.phi(1.0, 1) == pytest.approx(0.0, abs=1e-15)
    assert b.phi(1.0, 2) == pytest.approx(0.0, abs=1e-15)
    for name, kw, phi_singular, psi_singular in SINGULAR_AT_ONE:
        m = make_model(name, **kw)
        for label, singular in (("phi", phi_singular), ("psi", psi_singular)):
            fn = getattr(m, label)
            for order in (1, 2):
                case = (name, kw, label, order)
                if order in singular:
                    with pytest.raises(SingularityError, match=f"{name}: {label}"):
                        fn(1.0, order)
                    with pytest.raises(SingularityError):
                        fn(np.array([2.0, 1.0]), order)
                else:
                    assert math.isfinite(fn(1.0, order)), case
                # away from 1 every closed form is finite
                assert np.all(np.isfinite(fn(np.array([1.0 + 1e-9, 2.0]), order))), case


def test_parameter_validation():
    with pytest.raises(DomainError):
        make_model("fbm", H=1.2)
    with pytest.raises(DomainError):
        make_model("bifbm", H=0.5, K=1.5)
    with pytest.raises(DomainError):
        make_model("dw-z2", alpha=1.0)
    with pytest.raises(DomainError):
        make_model("nope")
    with pytest.raises(DomainError):
        make_model("swanson", H=0.5)


def test_catalog_documented_exponents():
    rows = {row["model"]: row for row in list_models()}
    assert set(rows) == {"fbm", "subfbm", "bifbm", "swanson", "dw-z1", "dw-z2"}
    assert rows["swanson"]["alpha"] == 0.5
    assert rows["swanson"]["beta"] == 0.5
    assert rows["swanson"]["nu"] == 2.0
    # instantiated exponent cross-checks
    bif = make_model("bifbm", H=0.6, K=0.8)
    assert bif.alpha == pytest.approx(2 * 0.6 * 0.8)
    assert bif.beta == pytest.approx(0.48)
    assert bif.lam == pytest.approx(2.0**-0.8)
    assert bif.nu == pytest.approx(min(1 + 1.2 - 0.96, 2 - 0.96))
    dw = make_model("dw-z2", alpha=0.4)
    assert dw.lam == pytest.approx(math.gamma(0.6), rel=1e-13)
    assert dw.nu == pytest.approx(1.6)
    assert make_model("fbm", H=0.3).nu == pytest.approx(1.4)
    assert make_model("fbm", H=0.7).nu is None


def test_alpha_below_one_needs_nu_at_construction():
    # the far-covariance and tail audits read nu when alpha < 1, so a
    # model without it is refused when built, not when audited
    class NoNu(FBM):
        def __init__(self, H):
            self.params, self.H = {"H": H}, H
            self.alpha, self.beta, self.lam, self.nu = 2.0 * H, H, 0.5, None
            Model.__init__(self)

    with pytest.raises(DomainError, match="nu required"):
        NoNu(0.3)
    assert NoNu(0.7).nu is None


def test_smooth_interior_marks_the_dw_models():
    smooth = {name for name, kw in CATALOG_CASES if make_model(name, **kw).smooth_interior}
    assert smooth == {"dw-z1", "dw-z2"}
