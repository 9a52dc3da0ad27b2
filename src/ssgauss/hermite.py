"""Probabilists' Hermite polynomials, expansions and rank detection.

Test functions f are represented by their coefficients in the expansion
f(x) = sum_q c_q He_q(x), where He_q is the monic (probabilists') Hermite
polynomial with He_0 = 1, He_1 = x and He_(q+1) = x He_q - q He_(q-1).
Coefficients are obtained by projection against a standard Gaussian,

    c_q = E[f(Z) He_q(Z)] / q!,

evaluated with Gauss-Hermite quadrature adapted to the weight
exp(-x^2/2)/sqrt(2 pi).  The projection route is used even for the
built-in power families, whose textbook closed forms are easy to
mistranscribe; for polynomial f the quadrature is exact.

The Hermite rank is the smallest q >= 1 with c_q != 0 under a scale-free
threshold; rank >= 2 is what the central limit machinery downstream
requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "hermite_table",
    "gauss_hermite_probabilists",
    "HermiteFunction",
    "expand",
    "builtin_family",
]

DEFAULT_QMAX = 12
# |c_q| sqrt(q!) below this multiple of ||f||_L2 counts as zero
RANK_REL_TOL = 1.0e-9


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


def gauss_hermite_probabilists(num_points: int):
    """Nodes and weights for the weight exp(-x^2/2) on the real line.

    Golub-Welsch on the Jacobi matrix with off-diagonals sqrt(k).  Unlike
    numpy's hermegauss this stays finite for several hundred nodes, which
    the kinked built-in families need.
    """
    if num_points < 1:
        raise DomainError("quadrature needs at least one node")
    off = np.sqrt(np.arange(1, num_points, dtype=float))
    jac = np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    weights = vecs[0] ** 2 * math.sqrt(2.0 * math.pi)
    return nodes, weights


@dataclass(frozen=True)
class HermiteFunction:
    """Truncated Hermite expansion with detected rank.

    coeffs maps chaos order q to c_q (only retained orders appear);
    l2_norm_sq is sum q! c_q^2 over retained orders; tail_sq is the
    quadrature estimate of the mass above q_max (zero for polynomials).
    """

    coeffs: dict[int, float]
    rank: int
    l2_norm_sq: float
    tail_sq: float = 0.0
    label: str = ""

    def coeff(self, q: int) -> float:
        return self.coeffs.get(q, 0.0)

    @property
    def q_max(self) -> int:
        return max(self.coeffs)

    def evaluate(self, y):
        """Evaluate f at y through the retained coefficients.

        Runs the three-term recurrence of hermite_table holding only He_(q-1)
        and He_q, and adds c_q He_q in ascending q.
        """
        ya = np.asarray(y, dtype=float)
        out = np.zeros_like(ya)
        prev, cur = None, np.ones_like(ya)
        for q in range(self.q_max + 1):
            if q in self.coeffs:
                out += self.coeffs[q] * cur
            if q == 0:
                prev, cur = cur, ya.copy()
            elif q < self.q_max:
                nxt = ya * cur
                prev *= q
                nxt -= prev
                prev, cur = cur, nxt
        return float(out) if ya.ndim == 0 else out

    def describe(self) -> dict:
        return {
            "f": self.label or "custom",
            "coeffs": {int(q): float(c) for q, c in sorted(self.coeffs.items())},
            "rank": self.rank,
            "l2_norm_sq": self.l2_norm_sq,
            "tail_sq": self.tail_sq,
        }


def expand(f, q_max: int = DEFAULT_QMAX, quad_points: int | None = None,
           label: str = "", center_tol: float | None = None) -> HermiteFunction:
    """Project a square-integrable f onto He_0..He_qmax.

    f must be centered against the standard Gaussian; a mean above tolerance
    raises, with the instruction to subtract it.  center_tol defaults to the
    rank threshold, which suits integrands the quadrature resolves to near
    machine precision; pass a looser value for kinked integrands whose
    quadrature mean carries algebraic-order error.
    """
    if q_max < 2:
        raise DomainError(f"q_max must be >= 2, got {q_max}")
    pts = int(quad_points) if quad_points is not None else 4 * q_max + 1
    if pts < 2 * q_max + 1:
        raise DomainError(
            f"quad_points={pts} too small for q_max={q_max}; need >= {2 * q_max + 1}"
        )
    nodes, weights = gauss_hermite_probabilists(pts)
    w = weights / math.sqrt(2.0 * math.pi)
    fx = np.asarray(f(nodes), dtype=float)
    if fx.shape != nodes.shape:
        raise DomainError("f must map an array of points to an array of values")
    table = hermite_table(nodes, q_max)
    raw = table @ (w * fx)  # raw[q] = E[f He_q]
    coeffs = raw / np.array([math.factorial(q) for q in range(q_max + 1)])

    norm_sq = float(np.sum(w * fx * fx))  # E[f^2]
    scale = math.sqrt(max(norm_sq, np.finfo(float).tiny))
    tol0 = RANK_REL_TOL * scale if center_tol is None else center_tol * scale
    if abs(coeffs[0]) > tol0:
        raise DomainError(
            f"f is not centered: E[f(Z)] = {coeffs[0]:.6g}; subtract the mean first"
        )

    kept: dict[int, float] = {}
    for q in range(1, q_max + 1):
        if abs(coeffs[q]) * math.sqrt(math.factorial(q)) > RANK_REL_TOL * scale:
            kept[q] = float(coeffs[q])
    if not kept:
        raise DomainError("all Hermite coefficients of f vanish below the rank threshold")
    rank = min(kept)
    l2 = float(sum(math.factorial(q) * c * c for q, c in kept.items()))
    tail = max(norm_sq - float(coeffs[0]) ** 2 - l2, 0.0)
    return HermiteFunction(coeffs=kept, rank=rank, l2_norm_sq=l2, tail_sq=tail,
                           label=label or getattr(f, "__name__", "custom"))


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def builtin_family(kind: str, p_or_q: int) -> HermiteFunction:
    """Built-in test functions.

    even_power p     x^(2p) - E[Z^(2p)],     rank 2, polynomial
    odd_abs_power p  |x|^(2p+1) - E|Z|^(2p+1), rank 2, kinked at 0
    single_hermite q He_q itself, rank q
    """
    k = int(p_or_q)
    if kind == "single_hermite":
        if k < 1:
            raise DomainError("single_hermite needs q >= 1")
        return HermiteFunction(coeffs={k: 1.0}, rank=k,
                               l2_norm_sq=float(math.factorial(k)),
                               label=f"hermite:{k}")
    if kind == "even_power":
        if k < 1:
            raise DomainError("even_power needs p >= 1")
        mean = float(_double_factorial(2 * k - 1))
        fn = lambda x: x ** (2 * k) - mean
        return expand(fn, q_max=max(DEFAULT_QMAX, 2 * k), label=f"even_power:{k}")
    if kind == "odd_abs_power":
        if k < 1:
            raise DomainError("odd_abs_power needs p >= 1")
        mean = math.sqrt(2.0 / math.pi) * 2.0**k * math.factorial(k)
        fn = lambda x: np.abs(x) ** (2 * k + 1) - mean
        # the kink at 0 slows the quadrature to algebraic order; 400 nodes
        # put the coefficient error near 2e-6, enough for rank work, and
        # the centering tolerance must absorb that same error
        return expand(fn, quad_points=400, label=f"odd_abs_power:{k}",
                      center_tol=1e-4)
    raise DomainError(
        f"unknown family {kind!r}; known: even_power, odd_abs_power, single_hermite"
    )
