"""Limiting variance of normalized Hermite variations.

For a test function with Hermite rank d >= 2 and increment exponent
alpha < 2 - 1/d, the variation functionals converge to a Brownian motion
whose variance rate is

    sigma^2 = sum_{q >= d} c_q^2 sigma_q^2,
    sigma_q^2 = 2^-q q! sum_{m in Z} A(m; alpha)^q,

where A(m; alpha) = |m+1|^alpha + |m-1|^alpha - 2|m|^alpha is the second
difference of |.|^alpha.  The series is summed adaptively with a certified
tail: the exact Taylor bound |A(m)| <= alpha |alpha - 1| (m-1)^(alpha-2)
for m >= 2 turns the qualitative decay into the computable certificate

    sum_{m > M} |A|^q <= (alpha |alpha-1|)^q (M-1)^(q(alpha-2)+1)
                          / |q(alpha-2)+1|.

The cutoff M doubles from 1024 until the certificate is met.  Terms are
summed in chunks of 2^20 on a grid fixed at m = 1, 1 + 2^20, ...; each
chunk raises each lattice point to alpha once and forms A from
neighbouring powers, and the sum of every whole chunk is kept across
the doublings of one call, so only a partial last chunk is summed again.

At alpha = 1 every off-center term vanishes and sigma_q^2 = q! exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GateError, NumericalError
from .hermite import HermiteFunction

__all__ = ["gate", "second_difference", "sigma_q_sq", "sigma_sq", "LimitVariance", "SigmaQ"]

DEFAULT_REL_TOL = 1.0e-10
DEFAULT_M_CAP = 10_000_000
_CHUNK = 1 << 20
_M_START = 1024


def second_difference(m, alpha: float):
    """A(m; alpha) = |m+1|^alpha + |m-1|^alpha - 2|m|^alpha."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha={alpha} outside (0, 2)")
    ma = np.abs(np.asarray(m, dtype=float))
    out = np.abs(ma + 1.0) ** alpha + np.abs(ma - 1.0) ** alpha - 2.0 * ma**alpha
    return float(out) if np.asarray(m).ndim == 0 else out


def gate(d: int, alpha: float) -> None:
    """The applicability gate of the normal limit: Hermite rank d >= 2 and
    alpha < 2 - 1/d.  Raises GateError naming both otherwise."""
    if d < 2:
        raise GateError(f"Hermite rank d >= 2 required for the normal limit; got rank {d}")
    if alpha >= 2.0 - 1.0 / d:
        raise GateError(
            f"applicability requires alpha < 2 - 1/d = {2.0 - 1.0 / d:.6g}; "
            f"got alpha={alpha} with d={d}"
        )


def _partial_sum(alpha: float, q: int, M: int, whole: dict[int, float] | None = None) -> float:
    """sum over |m| <= M of A(m)^q, ascending m, on the fixed chunk grid
    lo = 1, 1 + _CHUNK, ...

    The sum of each whole chunk is kept in `whole` (keyed by lo) for a
    later call at a larger M.  fsum rounds the exact sum of the parts, so
    the result does not depend on which of them were reused.
    """
    whole = {} if whole is None else whole
    parts = []
    for lo in range(1, M + 1, _CHUNK):
        hi = min(lo + _CHUNK, M + 1)
        part = whole.get(lo)
        if part is None:
            p = np.arange(lo - 1, hi + 1, dtype=float) ** alpha
            a = p[2:] + p[:-2] - 2.0 * p[1:-1]
            part = float(np.sum(a**q))
            if hi == lo + _CHUNK:
                whole[lo] = part
        parts.append(part)
    return 2.0**q + 2.0 * math.fsum(parts)  # A(0) = 2 plus both signed tails


@dataclass(frozen=True)
class SigmaQ:
    value: float
    tail_bound: float
    m_used: int


def sigma_q_sq(alpha: float, q: int, rel_tol: float = DEFAULT_REL_TOL,
               m_cap: int = DEFAULT_M_CAP) -> SigmaQ:
    """Per-chaos limit variance sigma_q^2 with a certified relative tail.

    Doubles the cutoff M until the tail certificate drops below
    rel_tol * |partial|; raises if the cap m_cap cannot satisfy it.
    """
    if q < 2:
        raise DomainError(f"chaos order q must be >= 2, got {q}")
    if not rel_tol > 0.0:
        raise DomainError(f"rel_tol must be > 0, got {rel_tol}")
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha={alpha} outside (0, 2)")
    gate(q, alpha)
    expo = q * (alpha - 2.0) + 1.0  # tail exponent, < 0 wherever the gate admits alpha
    try:
        prefac = math.factorial(q) / 2**q
    except OverflowError:
        raise NumericalError(f"sigma_q^2 exceeds the double range: q!/2^q at q={q}") from None
    decay = alpha * abs(alpha - 1.0)

    M = min(_M_START, m_cap)
    whole: dict[int, float] = {}
    while True:
        total = _partial_sum(alpha, q, M, whole)
        value = prefac * total
        if not math.isfinite(value):
            raise NumericalError(f"sigma_q^2 exceeds the double range (alpha={alpha}, q={q})")
        tail = prefac * 2.0 * decay**q * (M - 1.0) ** expo / abs(expo)
        if tail <= rel_tol * abs(value):
            break
        if M >= m_cap:
            raise NumericalError(
                f"tail certificate not met at m_cap={m_cap} "
                f"(alpha={alpha}, q={q}, rel_tol={rel_tol}, tail={tail:.3g})"
            )
        M = min(2 * M, m_cap)
    if value < -tail:
        raise NumericalError(
            f"sigma_q^2 computed negative beyond its tail bound: {value!r} "
            f"(alpha={alpha}, q={q})"
        )
    return SigmaQ(value=value, tail_bound=tail, m_used=M)


@dataclass(frozen=True)
class LimitVariance:
    """Aggregate limit variance with per-chaos values and tail metadata."""

    alpha: float
    per_chaos: dict[int, float]
    sigma_sq: float
    truncation_m: dict[int, int]
    tail_bound: dict[int, float]

    def describe(self) -> dict:
        return {
            "alpha": self.alpha,
            "per_chaos": {int(q): v for q, v in sorted(self.per_chaos.items())},
            "sigma_sq": self.sigma_sq,
            "truncation_m": {int(q): m for q, m in sorted(self.truncation_m.items())},
            "tails": {int(q): b for q, b in sorted(self.tail_bound.items())},
        }


def sigma_sq(f: HermiteFunction, alpha: float, rel_tol: float = DEFAULT_REL_TOL,
             m_cap: int = DEFAULT_M_CAP) -> LimitVariance:
    """sigma^2 = sum_q c_q^2 sigma_q^2 over the chaos orders present in f."""
    gate(f.rank, alpha)
    per: dict[int, float] = {}
    ms: dict[int, int] = {}
    tails: dict[int, float] = {}
    total = 0.0
    for q, c in sorted(f.coeffs.items()):
        res = sigma_q_sq(alpha, q, rel_tol=rel_tol, m_cap=m_cap)
        per[q] = res.value
        ms[q] = res.m_used
        tails[q] = res.tail_bound
        total += c * c * res.value
    if not math.isfinite(total):
        raise NumericalError(f"sigma^2 of {f.label or 'f'} exceeds the double range")
    return LimitVariance(alpha=alpha, per_chaos=per, sigma_sq=total,
                         truncation_m=ms, tail_bound=tails)
