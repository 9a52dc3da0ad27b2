"""Catalog of self-similar Gaussian covariance models.

A centered Gaussian process X on [0, inf) that is self-similar with
exponent beta in (0, 1) is determined by the shape function
phi(x) = E[X_1 X_x] on [1, inf):

    R(s, t) = E[X_s X_t] = s**(2 * beta) * phi(t / s),   0 < s <= t.

Every model here decomposes the shape function as

    phi(x) = -lam * (x - 1)**alpha + psi(x)

with lam > 0.  The power term carries the small-scale roughness of the
increments (E[(X_{t+s} - X_t)^2] ~ 2*lam*t**(2*beta-alpha)*s**alpha as
s -> 0) and psi collects the remainder.  alpha is called the increment
exponent; it can be strictly smaller than 2*beta (arcsine model).

Each model writes out only psi and its first two derivatives, in closed
form; phi and its derivatives are derived from psi through the split
above, term by term, so no finite differences appear on the primary path.
A derivative with no finite value at x = 1 is found from the closed form
itself (a negative power of x - 1) and raises SingularityError.
The covariance kernel R is evaluated directly in (s, t) form, which avoids
the cancellation incurred by s**(2*beta) * phi(t/s) when t - s is many
orders of magnitude below t.  Construction checks the two independent
closed forms against each other: phi(x) = R(1, x) at a few points.

Each model class also carries its catalog row (parameter ranges and the
exponent formulas), which make_model and list_models read.

Model ids
---------
fbm(H)       fractional Brownian motion         alpha = 2H,   beta = H
subfbm(H)    sub-fractional Brownian motion     alpha = 2H,   beta = H
bifbm(H, K)  bifractional Brownian motion       alpha = 2HK,  beta = HK
swanson      sqrt(s t) * asin(min / sqrt(s t))  alpha = 1/2,  beta = 1/2
dw-z1(a)     Gamma(1-a) ((s+t)^a - max(s,t)^a)  alpha = a,    beta = a/2
dw-z2(a)     Gamma(1-a) (s^a + t^a - (s+t)^a)   alpha = a,    beta = a/2

The nu attribute is the tail-decay exponent of phi' at infinity
(|phi'(x)| <= C (x-1)**-nu for x >= 2); it is set only when alpha < 1,
which is the regime where it enters the far-covariance bounds.

dw-z1 and dw-z2 have smooth interior increments (step exponent 1 and 2
respectively at interior times, not alpha), so several near-diagonal
envelope audits in the analysis module report unbounded ratios for them.
That behavior is intrinsic to the models, not an implementation artifact.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import DomainError, NumericalError, SingularityError

__all__ = [
    "Model",
    "FBM",
    "SubFBM",
    "BiFBM",
    "Swanson",
    "DWZ1",
    "DWZ2",
    "make_model",
    "list_models",
]

# Points where the derived shape function is checked against the kernel,
# phi(x) = R(1, x), at construction time.
_IDENTITY_POINTS = (1.0, 1.5, 2.0, 10.0, 1.0e4)
_IDENTITY_RTOL = 1.0e-10


class Model:
    """Base class: validation, domain checks and the generic kernel.

    Subclasses declare name and their catalog row as class attributes, set
    params, alpha, beta, lam, nu and implement the raw evaluators _psi
    (vectorized, domain already checked) and _r (covariance on positive
    time pairs).
    """

    name: str = ""
    catalog: dict = {}
    # Whether interior increments scale with a step exponent >= 1 instead
    # of alpha, so that the near-diagonal residual audits cannot close.
    smooth_interior: bool = False

    def __init__(self):
        self.params: dict = getattr(self, "params", {})
        self._validate()

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        a, b, lam = self.alpha, self.beta, self.lam
        if not (0.0 < b < 1.0):
            raise DomainError(f"{self.name}: beta={b} outside (0, 1)")
        if not (0.0 < a <= 2.0 * b + 1e-12):
            raise DomainError(f"{self.name}: alpha={a} outside (0, 2*beta]")
        if not lam > 0.0:
            raise DomainError(f"{self.name}: lam={lam} must be positive")
        if a < 1.0 and self.nu is None:
            raise DomainError(f"{self.name}: nu required when alpha={a} < 1")
        if self.nu is not None and not (1.0 < self.nu <= 2.0):
            raise DomainError(f"{self.name}: nu={self.nu} outside (1, 2]")
        if not self.phi(1.0) > 0.0:
            raise DomainError(f"{self.name}: phi(1)={self.phi(1.0)} must be positive")
        for x in _IDENTITY_POINTS:
            phi, kernel = self.phi(x), self.r(1.0, x)
            if abs(phi - kernel) > _IDENTITY_RTOL * (1.0 + abs(phi)):
                raise NumericalError(
                    f"{self.name}: shape function disagrees with the kernel at "
                    f"x={x}: phi = {phi!r} but R(1, x) = {kernel!r}"
                )

    # -- public evaluators --------------------------------------------

    def phi(self, x, order: int = 0):
        """Shape function phi(x) = E[X_1 X_x] or its derivatives on x >= 1."""
        return self._closed_form("phi", self._phi, x, order)

    def _phi(self, x, order):
        """phi = psi - lam*(x-1)**alpha, differentiated term by term."""
        a, lam = self.alpha, self.lam
        psi = self._psi(x, order)
        if order == 0:
            return psi - lam * (x - 1.0) ** a
        if order == 1:
            return psi - lam * a * (x - 1.0) ** (a - 1.0)
        c = lam * a * (a - 1.0)
        if c == 0.0:
            return psi
        return psi - c * (x - 1.0) ** (a - 2.0)

    def psi(self, x, order: int = 0):
        """Smooth remainder psi(x) = phi(x) + lam*(x-1)**alpha, or derivatives."""
        return self._closed_form("psi", self._psi, x, order)

    def _closed_form(self, label, evaluate, x, order):
        """evaluate(x, order) on x >= 1.  A negative power of x - 1 makes
        the closed form infinite (or inf - inf) at x = 1; SingularityError
        then names the derivative that has no finite value there."""
        if order not in (0, 1, 2):
            raise DomainError(f"derivative order must be 0, 1 or 2, got {order!r}")
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        xa = np.atleast_1d(xa)
        if not np.all((xa >= 1.0) & np.isfinite(xa)):
            raise DomainError(f"{label} requires finite x >= 1")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = evaluate(xa, order)
        if not np.all(np.isfinite(out[xa == 1.0])):
            primes = "'" * order
            raise SingularityError(f"{self.name}: {label}{primes}(1) is not finite")
        return float(out[0]) if scalar else out

    def r(self, s, t):
        """Covariance kernel R(s, t) = E[X_s X_t] on s, t >= 0.

        A column of times s and a row of times t in order, no time of the
        column above any of the row, skip the elementwise minimum, maximum
        and mask: _r runs on the two operands as they broadcast, so a power
        of one time alone is formed once per row or column, and a row at
        time 0 is 0.  The values are those of the general path, bit for
        bit.  A non-finite time is a DomainError.
        """
        sa = np.asarray(s, dtype=float)
        ta = np.asarray(t, dtype=float)
        scalar = sa.ndim == 0 and ta.ndim == 0
        sa, ta = np.atleast_1d(sa), np.atleast_1d(ta)
        if not all(np.all((a >= 0.0) & np.isfinite(a)) for a in (sa, ta)):
            raise DomainError("kernel requires finite s, t >= 0")
        if (sa.ndim == ta.ndim == 2 and sa.shape[1] == 1 == ta.shape[0]
                and sa.size and ta.size and sa.max() <= ta.min()):
            pos = sa[:, 0] > 0.0
            if pos.all():
                return self._r(sa, ta)
            out = np.zeros((sa.shape[0], ta.shape[1]))
            out[pos] = self._r(sa[pos], ta)
            return out
        sa, ta = np.broadcast_arrays(sa, ta)
        u = np.minimum(sa, ta)
        v = np.maximum(sa, ta)
        pos = u > 0.0
        if pos.all():
            # no zero argument: skip the masked gather and scatter
            out = self._r(u, v)
        else:
            out = np.zeros(u.shape, dtype=float)
            out[pos] = self._r(u[pos], v[pos])
        return float(out.reshape(-1)[0]) if scalar else out

    # -- metadata -----------------------------------------------------

    def describe(self) -> dict:
        return {
            "model": self.name,
            "params": dict(self.params),
            "alpha": self.alpha,
            "beta": self.beta,
            "lam": self.lam,
            "nu": self.nu,
        }

    def __repr__(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({ps})"


class _HurstModel(Model):
    """Exponents shared by fbm and subfbm, functions of the Hurst index H."""

    catalog = {
        "params": {"H": "(0, 1)"},
        "alpha": "2H",
        "beta": "H",
        "lam": 0.5,
        "nu": "2 - 2H when alpha < 1",
    }

    def __init__(self, H: float):
        if not 0.0 < H < 1.0:
            raise DomainError(f"{self.name}: H={H} outside (0, 1)")
        self.params = {"H": H}
        self.H = H
        self.alpha = 2.0 * H
        self.beta = H
        self.lam = 0.5
        self.nu = 2.0 - 2.0 * H if self.alpha < 1.0 else None
        super().__init__()


class FBM(_HurstModel):
    """Fractional Brownian motion, R(s,t) = (s^2H + t^2H - |t-s|^2H) / 2."""

    name = "fbm"

    def _psi(self, x, order):
        g = 2.0 * self.H
        if order == 0:
            return 0.5 * (1.0 + x**g)
        if order == 1:
            return self.H * x ** (g - 1.0)
        return self.H * (g - 1.0) * x ** (g - 2.0)

    def _r(self, u, v):
        g = 2.0 * self.H
        return 0.5 * (u**g + v**g - (v - u) ** g)


class SubFBM(_HurstModel):
    """Sub-fractional Brownian motion,
    R(s,t) = s^2H + t^2H - ((s+t)^2H + |t-s|^2H) / 2."""

    name = "subfbm"

    def _psi(self, x, order):
        g = 2.0 * self.H
        if order == 0:
            return 1.0 + x**g - 0.5 * (x + 1.0) ** g
        if order == 1:
            return self.H * (2.0 * x ** (g - 1.0) - (x + 1.0) ** (g - 1.0))
        return self.H * (g - 1.0) * (2.0 * x ** (g - 2.0) - (x + 1.0) ** (g - 2.0))

    def _r(self, u, v):
        g = 2.0 * self.H
        return u**g + v**g - 0.5 * ((u + v) ** g + (v - u) ** g)


class BiFBM(Model):
    """Bifractional Brownian motion,
    R(s,t) = 2^-K ((s^2H + t^2H)^K - |t-s|^2HK).  K = 1 reduces to fbm."""

    name = "bifbm"
    catalog = {
        "params": {"H": "(0, 1)", "K": "(0, 1]"},
        "alpha": "2HK",
        "beta": "HK",
        "lam": "2^-K",
        "nu": "min(1 + 2H - 2HK, 2 - 2HK) when alpha < 1 (2 - 2H at K = 1)",
    }

    def __init__(self, H: float, K: float):
        if not 0.0 < H < 1.0:
            raise DomainError(f"bifbm: H={H} outside (0, 1)")
        if not 0.0 < K <= 1.0:
            raise DomainError(f"bifbm: K={K} outside (0, 1]")
        self.params = {"H": H, "K": K}
        self.H, self.K = H, K
        self.alpha = 2.0 * H * K
        self.beta = H * K
        self.lam = 2.0 ** (-K)
        if self.alpha < 1.0:
            # For large x, (1 + x^2H)^K = x^2HK (1 + K x^-2H + K (K-1)/2
            # x^-4H + ...) and (x-1)^2HK = x^2HK - 2HK x^(2HK-1) + O(x^(2HK-2)),
            # so  2^K phi'(x) = 2HK (K-1) x^(2HK-2H-1) (1 + O(x^-2H))
            #                  + 2HK (2HK-1) x^(2HK-2) + ...
            # For K < 1 the two terms decay with exponents 1 + 2H - 2HK and
            # 2 - 2HK.  At K = 1 every term of the first kind carries the
            # factor K - 1 and vanishes (psi is fbm's 1 + x^2H, up to 1/2),
            # leaving fbm's 2 - 2H.
            if K == 1.0:
                self.nu = 2.0 - 2.0 * H
            else:
                self.nu = min(1.0 + 2.0 * H - 2.0 * H * K, 2.0 - 2.0 * H * K)
        else:
            self.nu = None
        super().__init__()

    def _psi(self, x, order):
        H, K = self.H, self.K
        g = 2.0 * H
        base = 1.0 + x**g
        if order == 0:
            return 2.0 ** (-K) * base**K
        if order == 1:
            return 2.0 ** (1.0 - K) * H * K * x ** (g - 1.0) * base ** (K - 1.0)
        return (
            2.0 ** (1.0 - K)
            * H
            * K
            * x ** (g - 2.0)
            * base ** (K - 2.0)
            * ((g - 1.0) * base + g * (K - 1.0) * x**g)
        )

    def _r(self, u, v):
        H, K = self.H, self.K
        return 2.0 ** (-K) * ((u ** (2 * H) + v ** (2 * H)) ** K - (v - u) ** (2 * H * K))


class Swanson(Model):
    """Arcsine covariance R(s,t) = sqrt(s t) asin(min(s,t)/sqrt(s t)).

    Arises as the limit of normalized empirical medians of independent
    Brownian motions.  Here alpha = 1/2 < 1 = 2*beta, the one catalog
    entry where the increment exponent is strictly below 2*beta.

    The remainder derivatives are evaluated through the exact algebraic
    rewrite (sqrt(x)-1)/sqrt(x-1) = sqrt(x-1)/(sqrt(x)+1), which removes
    the cancellation of order sqrt(x-1) that the naive forms suffer near
    x = 1 (psi'(1) = pi/4 comes out exactly; psi'' diverges there like
    -(x-1)^(-1/2)/8).
    """

    name = "swanson"
    alpha, beta, lam, nu = 0.5, 0.5, 1.0, 2.0
    catalog = {"params": {}, "alpha": alpha, "beta": beta, "lam": lam, "nu": nu}

    def _psi(self, x, order):
        rx = np.sqrt(x)
        asx = np.arcsin(1.0 / rx)
        if order == 0:
            return rx * asx + np.sqrt(x - 1.0)
        if order == 1:
            return (asx + np.sqrt(x - 1.0) / (rx + 1.0)) / (2.0 * rx)
        return -asx / (4.0 * x**1.5) - 1.0 / (4.0 * rx * (rx + 1.0) * np.sqrt(x - 1.0))

    def _r(self, u, v):
        return np.sqrt(u * v) * np.arcsin(np.sqrt(u / v))


class _DWModel(Model):
    """Exponents shared by dw-z1 and dw-z2, functions of alpha in (0, 1)."""

    catalog = {
        "params": {"alpha": "(0, 1)"},
        "alpha": "alpha",
        "beta": "alpha / 2",
        "lam": "Gamma(1 - alpha)",
        "nu": "2 - alpha",
    }
    smooth_interior = True

    def __init__(self, alpha: float):
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"{self.name}: alpha={alpha} outside (0, 1)")
        self.params = {"alpha": alpha}
        self.alpha = alpha
        self.beta = alpha / 2.0
        # math.gamma is a Lanczos-class implementation, relative error
        # well below 1e-13 on (0, 1).
        self.lam = math.gamma(1.0 - alpha)
        self.nu = 2.0 - alpha
        super().__init__()


class DWZ1(_DWModel):
    """Smooth self-similar model R(s,t) = Gamma(1-a) ((s+t)^a - max(s,t)^a).

    Interior increments scale like the step (exponent 1), so normalized
    increments decorrelate and near-diagonal envelope audits do not close
    for this model.
    """

    name = "dw-z1"

    def _psi(self, x, order):
        a, g = self.alpha, self.lam
        if order == 0:
            return g * ((x + 1.0) ** a + (x - 1.0) ** a - x**a)
        if order == 1:
            return g * a * ((x + 1.0) ** (a - 1.0) + (x - 1.0) ** (a - 1.0) - x ** (a - 1.0))
        return g * a * (a - 1.0) * (
            (x + 1.0) ** (a - 2.0) + (x - 1.0) ** (a - 2.0) - x ** (a - 2.0)
        )

    def _r(self, u, v):
        a = self.alpha
        return self.lam * ((u + v) ** a - v**a)


class DWZ2(_DWModel):
    """Smooth self-similar model R(s,t) = Gamma(1-a) (s^a + t^a - (s+t)^a).

    Even smoother than dw-z1 at interior times (step exponent 2); its
    normalized increments become perfectly correlated as the grid refines,
    so quadratic-variation functionals of it do not satisfy a central
    limit theorem with the stationary-series variance.
    """

    name = "dw-z2"

    def _psi(self, x, order):
        a, g = self.alpha, self.lam
        if order == 0:
            return g * (1.0 + x**a + (x - 1.0) ** a - (x + 1.0) ** a)
        if order == 1:
            return g * a * (x ** (a - 1.0) + (x - 1.0) ** (a - 1.0) - (x + 1.0) ** (a - 1.0))
        return g * a * (a - 1.0) * (
            x ** (a - 2.0) + (x - 1.0) ** (a - 2.0) - (x + 1.0) ** (a - 2.0)
        )

    def _r(self, u, v):
        a = self.alpha
        return self.lam * (u**a + v**a - (u + v) ** a)


_MODELS = {cls.name: cls for cls in (FBM, SubFBM, BiFBM, Swanson, DWZ1, DWZ2)}


def make_model(name: str, **params) -> Model:
    """Instantiate a catalog model from its string id and parameter map."""
    cls = _MODELS.get(name.lower())
    if cls is None:
        raise DomainError(f"unknown model {name!r}; known: {sorted(_MODELS)}")
    wanted = list(cls.catalog["params"])
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing or extra:
        raise DomainError(
            f"{name}: expects parameters {wanted}, got {sorted(params)}"
        )
    return cls(**{p: float(params[p]) for p in wanted})


def list_models() -> list[dict]:
    """Catalog of model templates with parameter ranges and exponents.

    Parametric families report their exponents as formulas; fixed models
    report numbers.
    """
    return [{"model": name, **copy.deepcopy(cls.catalog)} for name, cls in _MODELS.items()]
