"""Limiting variance of normalized Hermite variations.

For a test function with Hermite rank d >= 2 and increment exponent
alpha < 2 - 1/d, the variation functionals converge to a Brownian motion
whose variance rate is

    sigma^2 = sum_{q >= d} c_q^2 sigma_q^2,
    sigma_q^2 = 2^-q q! sum_{m in Z} A(m; alpha)^q,

where A(m; alpha) = |m+1|^alpha + |m-1|^alpha - 2|m|^alpha is the second
difference of |.|^alpha.  The series is summed to a cutoff M with a
certified tail: the exact Taylor bound |A(m)| <= alpha |alpha - 1|
(m-1)^(alpha-2) for m >= 2 turns the qualitative decay into the
computable certificate

    tail(M) = 2^-q q! 2 (alpha |alpha-1|)^q (M-1)^(q(alpha-2)+1)
              / |q(alpha-2)+1|  >=  2^-q q! 2 sum_{m > M} |A|^q,

which is met when tail(M) <= rel_tol |value|.  The head |m| <= 1024 is
summed first.  If its certificate falls short, the cutoff is solved
for, not searched: A(m) has the sign of alpha - 1 for every m >= 1,
since |x|^alpha is convex or concave there, so the partial sums rise
when q is even or alpha >= 1 and otherwise fall toward a limit within
tail(1024) of the head.  Either way no later partial sum lies below
L = head (rising) or head - tail(1024) (falling), and

    M = 1 + ceil((rel_tol L |q(alpha-2)+1| / (2^-q q! 2 (alpha |alpha-1|)^q))
                 ^(1 / (q(alpha-2)+1)))

meets the certificate.  The series is summed once more, to that M; if
L <= 0 or M would pass 10^7 terms the value is refused before that sum.
Terms are summed in chunks of 2^20, each chunk raising each lattice point
to alpha once and forming A from neighbouring powers.

At alpha = 1 every off-center term vanishes and sigma_q^2 = q! exactly.

sigma_q_sq returns one chaos as a SigmaQ (value, tail_bound, m_used);
sigma_sq returns the variance.json object itself, {"alpha", "per_chaos",
"sigma_sq", "truncation_m", "tails"}, each map keyed by q ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GateError, NumericalError
from .hermite import HermiteFunction

__all__ = ["gate", "second_difference", "sigma_q_sq", "sigma_sq", "SigmaQ"]

DEFAULT_REL_TOL = 1.0e-10
_M_CAP = 10_000_000
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


def _partial_sum(alpha: float, q: int, M: int) -> float:
    """sum over |m| <= M of A(m)^q, ascending m, in chunks of _CHUNK
    terms; each chunk raises each lattice point to alpha once."""
    parts = []
    for lo in range(1, M + 1, _CHUNK):
        p = np.arange(lo - 1, min(lo + _CHUNK, M + 1) + 1, dtype=float) ** alpha
        a = p[2:] + p[:-2] - 2.0 * p[1:-1]
        parts.append(float(np.sum(a**q)))
    return 2.0**q + 2.0 * math.fsum(parts)  # A(0) = 2 plus both signed tails


@dataclass(frozen=True)
class SigmaQ:
    value: float
    tail_bound: float
    m_used: int


def sigma_q_sq(alpha: float, q: int, rel_tol: float = DEFAULT_REL_TOL) -> SigmaQ:
    """Per-chaos limit variance sigma_q^2 with a certified relative tail.

    Sums the head |m| <= _M_START; if its certificate falls short, solves
    for the cutoff M at which it holds and sums once more, to M.  Raises
    NumericalError, before that second sum, when M would pass _M_CAP.
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

    def summed(M: int) -> tuple[float, float]:
        value = prefac * _partial_sum(alpha, q, M)
        if not math.isfinite(value):
            raise NumericalError(f"sigma_q^2 exceeds the double range (alpha={alpha}, q={q})")
        return value, prefac * 2.0 * decay**q * (M - 1.0) ** expo / abs(expo)

    M = _M_START
    value, tail = summed(M)
    if tail > rel_tol * abs(value):
        # A(m) has the sign of alpha - 1 for m >= 1, so the partial sums
        # rise when q is even or alpha >= 1, and otherwise fall toward a
        # limit within the head's tail: either way none lies below low
        low = value if q % 2 == 0 or alpha >= 1.0 else value - tail
        # tail(M) <= rel_tol * low solved for log(M - 1), from logarithms
        # of positive factors, so nothing overflows or turns complex
        log_m = math.inf
        if low > 0.0:
            log_m = (math.log(rel_tol) + math.log(low) + math.log(abs(expo))
                     - math.log(2.0 * prefac) - q * math.log(decay)) / expo
        if log_m > math.log(_M_CAP - 1):
            need = f"{math.exp(log_m):.3g}" if log_m < 700.0 else "inf"
            raise NumericalError(
                f"tail certificate needs M = {need} terms, past the cap of {_M_CAP} "
                f"(alpha={alpha}, q={q}, rel_tol={rel_tol}, tail at M={_M_START}: {tail:.3g})"
            )
        M = 1 + math.ceil(math.exp(log_m))
        value, tail = summed(M)
        if tail > rel_tol * abs(value):
            raise NumericalError(
                f"tail certificate not met at the solved cutoff M={M} "
                f"(alpha={alpha}, q={q}, rel_tol={rel_tol}, tail={tail:.3g})"
            )
    if value < -tail:
        raise NumericalError(
            f"sigma_q^2 computed negative beyond its tail bound: {value!r} "
            f"(alpha={alpha}, q={q})"
        )
    return SigmaQ(value=value, tail_bound=tail, m_used=M)


def sigma_sq(f: HermiteFunction, alpha: float, rel_tol: float = DEFAULT_REL_TOL) -> dict:
    """sigma^2 = sum_q c_q^2 sigma_q^2 over the chaos orders present in f,
    as the variance.json record {"alpha", "per_chaos", "sigma_sq",
    "truncation_m", "tails"}; each map is keyed by q ascending."""
    gate(f.rank, alpha)
    chaos = {int(q): sigma_q_sq(alpha, q, rel_tol=rel_tol) for q in sorted(f.coeffs)}
    total = sum(f.coeffs[q] * f.coeffs[q] * res.value for q, res in chaos.items())
    if not math.isfinite(total):
        raise NumericalError(f"sigma^2 of {f.label or 'f'} exceeds the double range")
    return {
        "alpha": alpha,
        "per_chaos": {q: res.value for q, res in chaos.items()},
        "sigma_sq": total,
        "truncation_m": {q: res.m_used for q, res in chaos.items()},
        "tails": {q: res.tail_bound for q, res in chaos.items()},
    }
