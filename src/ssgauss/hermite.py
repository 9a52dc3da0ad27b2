"""Hermite expansions of the test functions.

f(x) = sum_q c_q He_q(x), with He_q the monic (probabilists') Hermite
polynomials, He_(q+1) = x He_q - q He_(q-1), and c_q = E[f(Z) He_q(Z)] / q!.
For the built-in families Gaussian integration by parts, E[g(Z) He_q(Z)] =
E[g^(q)(Z)] (Nourdin and Peccati 2012, ch. 1), gives the closed forms

    x^(2p) - (2p-1)!!          c_2j = (2p)! / ((2j)! 2^(p-j) (p-j)!), j = 1..p
    |x|^r - E|Z|^r, r = 2p+1   c_2j = E|Z|^r r (r-2) ... (r-2j+2) / (2j)!

with no other orders, so both have Hermite rank 2.  The second is cut at
order ODD_ABS_Q_MAX; tail_sq is the exact mass the cut leaves out.

The chaos weights q! c_q^2 have one owner, covariance: for standard
normals X, Y of correlation rho, E[f(X) f(Y)] = sum_q q! c_q^2 rho^q by
the orthogonality of the chaoses (Nourdin and Peccati 2012, ch. 2), and
E[f(Z)^2] = l2_norm_sq is its value at rho = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, require_integers

__all__ = ["HermiteFunction", "builtin_family"]

ODD_ABS_Q_MAX = 12
_FACTORIAL_MAX = 170


@dataclass(frozen=True)
class HermiteFunction:
    """Hermite expansion of a centered test function: coeffs maps chaos
    order q >= 1 to c_q, and tail_sq is the mass E[f(Z)^2] - l2_norm_sq
    of the orders left out (zero for polynomials)."""

    coeffs: dict[int, float]
    tail_sq: float = 0.0
    label: str = ""

    def __post_init__(self):
        for q in self.coeffs:
            require_integers(q=q)
        if not self.coeffs or min(self.coeffs) < 1:
            raise DomainError(f"a centered f needs orders q >= 1; got {sorted(self.coeffs)}")

    @property
    def rank(self) -> int:
        return min(self.coeffs)

    @property
    def l2_norm_sq(self) -> float:
        """E[f(Z)^2] over the retained orders: covariance(1.0)."""
        return self.covariance(1.0)

    def covariance(self, rho):
        """E[f(X) f(Y)] = sum_q q! c_q^2 rho^q over the retained orders, for
        standard normals X, Y of correlation rho, elementwise.

        Horner's rule from the top order down, in one new array updated in
        place: q_max products with rho and one sum per retained order
        below q_max.  A weight past the double range is inf.
        """
        r = np.asarray(rho, dtype=float)
        weights = {q: _factorial(q) * c * c for q, c in self.coeffs.items()}
        acc = weights[self.q_max] * r
        for q in range(self.q_max - 1, 0, -1):
            if q in weights:
                acc += weights[q]
            acc *= r
        return float(acc) if r.ndim == 0 else acc

    @property
    def q_max(self) -> int:
        return max(self.coeffs)

    def evaluate(self, y):
        """Evaluate f at y through the retained coefficients.

        Runs the three-term recurrence holding only He_(q-1) and He_q, and
        adds c_q He_q in ascending q.
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


def _factorial(q: int) -> float:
    """q! as a double; inf past _FACTORIAL_MAX!, the largest finite one."""
    return float(math.factorial(q)) if q <= _FACTORIAL_MAX else math.inf


def _double_factorial(k: int) -> float:
    """k!! as a double; OverflowError past the double range."""
    out = 1
    while k > 1 and out <= sys.float_info.max:
        out *= k
        k -= 2
    return float(out)


def _abs_moment(s: int) -> float:
    """E|Z|^s: (s-1)!! for even s, sqrt(2/pi) (s-1)!! for odd s."""
    m = _double_factorial(s - 1)
    return m if s % 2 == 0 else math.sqrt(2.0 / math.pi) * m


def _even_power(p: int, label: str) -> HermiteFunction:
    # from c_2p = 1 down, c_(2j-2) = c_2j j (2j-1) / (p-j+1) in exact integers
    coeffs, c = {}, 1
    for j in range(p, 0, -1):
        coeffs[2 * j] = float(c)
        c = c * j * (2 * j - 1) // (p - j + 1)
    return HermiteFunction(coeffs, label=label)


def _odd_abs_power(p: int, label: str) -> HermiteFunction:
    r = 2 * p + 1
    mean = _abs_moment(r)
    f = HermiteFunction(
        {2 * j: mean * (math.prod(range(r, r - 2 * j, -2)) / math.factorial(2 * j))
         for j in range(1, ODD_ABS_Q_MAX // 2 + 1)},
        label=label)
    return replace(f, tail_sq=_abs_moment(2 * r) - mean * mean - f.l2_norm_sq)


def builtin_family(kind: str, p_or_q: int) -> HermiteFunction:
    """Built-in test functions.

    even_power p     x^(2p) - E[Z^(2p)],     rank 2, polynomial
    odd_abs_power p  |x|^(2p+1) - E|Z|^(2p+1), rank 2, kinked at 0
    single_hermite q He_q itself, rank q
    """
    builders = {"single_hermite": lambda q, label: HermiteFunction({q: 1.0}, label=label),
                "even_power": _even_power, "odd_abs_power": _odd_abs_power}
    if kind not in builders:
        raise DomainError(f"unknown family {kind!r}; "
                          "known: even_power, odd_abs_power, single_hermite")
    arg = "q" if kind == "single_hermite" else "p"
    require_integers(**{arg: p_or_q})
    k = int(p_or_q)
    if k < 1:
        raise DomainError(f"{kind} needs {arg} >= 1")
    label = f"{'hermite' if kind == 'single_hermite' else kind}:{k}"
    try:
        f = builders[kind](k, label)
        # q! is inf past _FACTORIAL_MAX, so a nonzero c_q there makes the
        # norm inf; refused before covariance's loop runs over every order
        past = any(c != 0.0 for q, c in f.coeffs.items() if q > _FACTORIAL_MAX)
        total = math.inf if past else f.l2_norm_sq + f.tail_sq
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"{label}: E[f(Z)^2] exceeds the double range; use a smaller {arg}")
    return f
