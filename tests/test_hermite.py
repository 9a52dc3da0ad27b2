import math

import numpy as np
import pytest

from ssgauss.errors import DomainError
from ssgauss.hermite import (
    builtin_family,
    expand,
    gauss_hermite_probabilists,
    hermite_table,
)

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


def test_quadrature_matches_numpy_at_moderate_order():
    x1, w1 = np.polynomial.hermite_e.hermegauss(64)
    x2, w2 = gauss_hermite_probabilists(64)
    assert np.allclose(x1, x2, atol=1e-12)
    assert np.allclose(w1, w2, atol=1e-12)


def test_quadrature_orthonormality():
    q_max = 12
    nodes, weights = gauss_hermite_probabilists(4 * q_max + 1)
    w = weights / math.sqrt(2.0 * math.pi)
    table = hermite_table(nodes, q_max)
    norms = np.array([math.sqrt(math.factorial(q)) for q in range(q_max + 1)])
    gram = (table * w) @ table.T / np.outer(norms, norms)
    assert np.max(np.abs(gram - np.eye(q_max + 1))) <= 1e-9


def test_expand_detects_pure_second_hermite():
    f = expand(lambda x: x**2 - 1.0, q_max=8)
    assert f.rank == 2
    assert set(f.coeffs) == {2}
    assert f.coeffs[2] == pytest.approx(1.0, rel=1e-12)


def test_expand_quartic_identity():
    f = expand(lambda x: x**4 - 3.0, q_max=10)
    assert f.rank == 2
    assert set(f.coeffs) == {2, 4}
    assert f.coeffs[2] == pytest.approx(6.0, rel=1e-10)
    assert f.coeffs[4] == pytest.approx(1.0, rel=1e-10)


def test_expand_rejects_uncentered_input():
    with pytest.raises(DomainError, match="subtract the mean"):
        expand(lambda x: x**2, q_max=6)


def test_rank_one_is_reported_not_rejected():
    f = expand(lambda x: x + 0.25 * (x**2 - 1.0), q_max=6)
    assert f.rank == 1


def test_odd_abs_power_structure_and_node_stability():
    mean = 2.0 * math.sqrt(2.0 / math.pi)
    fn = lambda x: np.abs(x) ** 3 - mean
    a = expand(fn, q_max=10, quad_points=200, center_tol=1e-4)
    b = expand(fn, q_max=10, quad_points=400, center_tol=1e-4)
    assert a.rank == 2 and b.rank == 2
    # odd projections cancel exactly on the symmetric rule
    assert all(q % 2 == 0 for q in a.coeffs)
    # the kink at 0 limits the quadrature to algebraic convergence; the
    # measured 200-vs-400 node agreement is ~1.1e-5, nowhere near the
    # spectral regime smooth integrands would reach
    for q in set(a.coeffs) | set(b.coeffs):
        assert a.coeff(q) == pytest.approx(b.coeff(q), abs=2e-5)
    # exact projections via absolute moments E|Z|^(2m+1) = sqrt(2/pi) 2^m m!
    def absmom(k):
        m = (k - 1) // 2
        return math.sqrt(2.0 / math.pi) * 2.0**m * math.factorial(m)
    c2 = (absmom(5) - absmom(3)) / 2.0
    c4 = (absmom(7) - 6 * absmom(5) + 3 * absmom(3)) / 24.0
    assert b.coeffs[2] == pytest.approx(c2, abs=3e-6)
    assert b.coeffs[4] == pytest.approx(c4, abs=3e-6)


def test_builtin_families():
    h3 = builtin_family("single_hermite", 3)
    assert h3.coeffs == {3: 1.0} and h3.rank == 3
    p1 = builtin_family("even_power", 1)
    assert set(p1.coeffs) == {2}
    assert p1.coeffs[2] == pytest.approx(1.0, rel=1e-12)
    p2 = builtin_family("even_power", 2)
    assert p2.coeffs[2] == pytest.approx(6.0, rel=1e-10)
    assert p2.coeffs[4] == pytest.approx(1.0, rel=1e-10)
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
    for p in (1, 2, 3):
        f = builtin_family("even_power", p)
        for q in range(2, 2 * p, 2):
            closed = (math.factorial(2 * p) * dfact(2 * p - q - 1)
                      / (math.factorial(q) * math.factorial(2 * p - q)))
            assert f.coeffs[q] == pytest.approx(closed, rel=1e-9)
        assert f.coeffs[2 * p] == pytest.approx(1.0, rel=1e-9)
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


def test_rank_invariance_under_qmax_extension():
    f1 = expand(lambda x: x**4 - 3.0, q_max=8)
    f2 = expand(lambda x: x**4 - 3.0, q_max=12)
    assert f1.rank == f2.rank
    for q in f1.coeffs:
        assert f1.coeffs[q] == pytest.approx(f2.coeffs.get(q, 0.0), abs=1e-8)
    mean = 2.0 * math.sqrt(2.0 / math.pi)
    g1 = expand(lambda x: np.abs(x) ** 3 - mean, q_max=8, quad_points=400,
                center_tol=1e-4)
    g2 = expand(lambda x: np.abs(x) ** 3 - mean, q_max=12, quad_points=400,
                center_tol=1e-4)
    assert g1.rank == g2.rank == 2
    for q in g1.coeffs:
        assert g1.coeffs[q] == pytest.approx(g2.coeffs.get(q, 0.0), abs=1e-8)


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
