import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import hermite_table
from ssgauss.errors import DomainError
from ssgauss.hermite import HermiteFunction, builtin_family

EXPLICIT = {
    0: lambda x: np.ones_like(x),
    1: lambda x: x,
    2: lambda x: x**2 - 1,
    3: lambda x: x**3 - 3 * x,
    4: lambda x: x**4 - 6 * x**2 + 3,
    5: lambda x: x**5 - 10 * x**3 + 15 * x,
    6: lambda x: x**6 - 15 * x**4 + 45 * x**2 - 15,
}


def test_point_values():
    assert hermite_table(0.0, 4)[2] == -1.0
    assert hermite_table(2.0, 4)[3] == 2.0
    assert hermite_table(1.0, 4)[4] == -2.0


def test_recurrence_matches_explicit_forms():
    rng = np.random.default_rng(0)
    x = rng.uniform(-5.0, 5.0, size=100)
    table = hermite_table(x, 6)
    for q, fn in EXPLICIT.items():
        assert np.allclose(table[q], fn(x), rtol=1e-12, atol=1e-12)


def test_uncentered_or_empty_expansion_is_rejected():
    with pytest.raises(DomainError, match="q >= 1"):
        HermiteFunction({0: 1.0, 2: 1.0})
    with pytest.raises(DomainError, match="q >= 1"):
        HermiteFunction({})


def test_rank_one_is_reported_not_rejected():
    assert HermiteFunction({1: 1.0, 2: 0.25}).rank == 1


def test_rank_and_norm_follow_the_coefficients():
    f = HermiteFunction({3: -1.3, 2: 0.8})
    assert f.rank == 2
    assert f.l2_norm_sq == pytest.approx(2 * 0.8**2 + 6 * 1.3**2, rel=1e-15)
    assert f.tail_sq == 0.0


def _exact_abs_power_projection(r: int, q: int) -> float:
    """E[|Z|^r He_q(Z)] / q! from exact integer Hermite coefficients and
    the odd absolute moments E|Z|^s = sqrt(2/pi) (s-1)!!, s odd."""
    prev, cur = [1], [0, 1]  # He_0, He_1 as integer coefficient lists
    for k in range(1, q):
        nxt = [0] + cur
        for i, a in enumerate(prev):
            nxt[i] -= k * a
        prev, cur = cur, nxt
    # q is even, so He_q has only even powers k and r + k is odd
    total = sum(a * math.prod(range(r + k - 1, 0, -2)) for k, a in enumerate(cur))
    return math.sqrt(2.0 / math.pi) * float(Fraction(total, math.factorial(q)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_odd_abs_power_matches_exact_moment_oracle(p):
    f = builtin_family("odd_abs_power", p)
    r = 2 * p + 1
    assert sorted(f.coeffs) == list(range(2, 13, 2))
    for q in range(2, 13, 2):
        assert f.coeffs[q] == pytest.approx(_exact_abs_power_projection(r, q), rel=1e-12)


def test_odd_abs_power_norm_plus_tail_is_the_variance():
    f = builtin_family("odd_abs_power", 1)
    # Var |Z|^3 = E Z^6 - (E|Z|^3)^2 = 15 - 8/pi
    assert f.l2_norm_sq + f.tail_sq == pytest.approx(15.0 - 8.0 / math.pi, rel=1e-13)
    assert 0.0 < f.tail_sq < 1e-3


@pytest.mark.parametrize("kind,ps", [("even_power", range(11, 21)),
                                     ("odd_abs_power", range(7, 31))])
def test_large_p_has_only_even_orders_and_rank_two(kind, ps):
    for p in ps:
        f = builtin_family(kind, p)
        assert f.rank == 2, (kind, p)
        top = 2 * p if kind == "even_power" else 12
        assert sorted(f.coeffs) == list(range(2, top + 1, 2)), (kind, p)


@pytest.mark.parametrize("kind,name,last_ok", [("even_power", "even_power", 75),
                                               ("odd_abs_power", "odd_abs_power", 74),
                                               ("single_hermite", "hermite", 170)])
def test_norm_beyond_double_range_is_a_domain_error(kind, name, last_ok):
    f = builtin_family(kind, last_ok)
    assert math.isfinite(f.l2_norm_sq + f.tail_sq)
    for k in (last_ok + 1, 10**7):
        with pytest.raises(DomainError, match=f"{name}:{k}"):
            builtin_family(kind, k)


def test_builtin_families():
    h3 = builtin_family("single_hermite", 3)
    assert h3.coeffs == {3: 1.0} and h3.rank == 3
    assert builtin_family("even_power", 1).coeffs == {2: 1.0}
    # x^4 - 3 = He_4 + 6 He_2
    assert builtin_family("even_power", 2).coeffs == {2: 6.0, 4: 1.0}
    odd = builtin_family("odd_abs_power", 1)
    assert odd.rank == 2
    with pytest.raises(DomainError):
        builtin_family("nope", 2)


def test_even_power_matches_double_factorial_closed_form():
    # c_q = (2p)! (2p-q-1)!! / (q! (2p-q)!) for even q < 2p, and c_2p = 1
    def dfact(k):
        out = 1
        while k > 1:
            out *= k
            k -= 2
        return out
    for p in range(1, 21):
        f = builtin_family("even_power", p)
        for q in range(2, 2 * p, 2):
            closed = (math.factorial(2 * p) * dfact(2 * p - q - 1)
                      / (math.factorial(q) * math.factorial(2 * p - q)))
            assert f.coeffs[q] == closed
        assert f.coeffs[2 * p] == 1.0
        assert all(q % 2 == 0 for q in f.coeffs)


def test_parseval_for_polynomial_families():
    # E[f^2] against sum q! c_q^2 with exact even moments
    def moment(k):  # E[Z^k], k even
        out = 1
        for j in range(k - 1, 0, -2):
            out *= j
        return out
    for p in (1, 2, 3):
        f = builtin_family("even_power", p)
        # E[(x^2p - m)^2] = E[Z^4p] - m^2
        exact = moment(4 * p) - moment(2 * p) ** 2
        assert f.l2_norm_sq == pytest.approx(exact, rel=1e-8)
        assert f.tail_sq == pytest.approx(0.0, abs=1e-6 * exact)


def test_evaluate_consistency():
    f = builtin_family("even_power", 2)
    x = np.linspace(-3, 3, 41)
    assert np.allclose(f.evaluate(x), x**4 - 3.0, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("kind,k", [("single_hermite", 3), ("even_power", 2),
                                    ("odd_abs_power", 1)])
def test_evaluate_bit_identical_to_table_sum(kind, k):
    f = builtin_family(kind, k)
    y = np.random.default_rng(5).standard_normal((40, 64)) * 1.5
    table = hermite_table(y, f.q_max)
    expected = np.zeros_like(y)
    for q in sorted(f.coeffs):
        expected += f.coeffs[q] * table[q]
    assert np.array_equal(f.evaluate(y), expected)
    value = f.evaluate(0.7)
    assert isinstance(value, float)
    assert value == f.evaluate(np.array([0.7]))[0]


RHO = np.linspace(-1.0, 1.0, 41)


@pytest.mark.parametrize("q", [1, 2, 3, 7, 12])
def test_covariance_of_single_hermite_is_q_factorial_rho_to_q(q):
    # E[He_q(X) He_q(Y)] = q! rho^q (Nourdin and Peccati 2012, ch. 2)
    got = builtin_family("single_hermite", q).covariance(RHO)
    assert got == pytest.approx(math.factorial(q) * RHO**q, rel=1e-15, abs=1e-300)


def test_covariance_of_even_power_two_is_isserlis():
    # E[(X^4 - 3)(Y^4 - 3)] = 72 rho^2 + 24 rho^4 by Isserlis' theorem
    f = builtin_family("even_power", 2)
    assert f.covariance(RHO) == pytest.approx(72.0 * RHO**2 + 24.0 * RHO**4, rel=1e-15)
    assert f.covariance(0.5) == 72.0 / 4 + 24.0 / 16


def test_covariance_leaves_its_argument_alone():
    rho = RHO.copy()
    builtin_family("odd_abs_power", 1).covariance(rho)
    assert np.array_equal(rho, RHO)


@pytest.mark.parametrize("kind,k", [("single_hermite", 2), ("single_hermite", 3),
                                    ("single_hermite", 170), ("even_power", 1),
                                    ("even_power", 2), ("odd_abs_power", 1)])
def test_covariance_at_one_is_the_norm_bits(kind, k):
    # l2_norm_sq is covariance(1.0), on an array as on a scalar.  For these
    # families Horner's descending sum also keeps the bits of the ascending
    # sum of q! c_q^2; from even_power:9 on, and for some odd_abs_power:p
    # with p >= 2, the two orders differ by an ulp
    f = builtin_family(kind, k)
    ascending = float(sum(float(math.factorial(q)) * c * c
                          for q, c in sorted(f.coeffs.items())))
    assert f.covariance(1.0) == f.l2_norm_sq == ascending
    assert f.covariance(np.ones(3)).tolist() == [ascending] * 3
