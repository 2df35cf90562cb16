"""Exact polynomial algebra, forms and quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest

from trimfem._exact import vec_add
from trimfem.poly import (
    PolyForm,
    evaluate,
    exterior_derivative,
    form_components,
    gauss_rule,
    koszul,
    legendre,
    monomial_table,
    monomials_up_to,
)


def _legendre(j, xs):
    """Float values of P_j at the points xs, through the tabulation path."""
    table = monomial_table([PolyForm(1, 0, {(0, (p,)): c for p, c in legendre(j)})])
    return evaluate(table, np.asarray(xs, dtype=float)[:, None])[:, 0, 0]


def test_legendre_values():
    assert _legendre(0, [0.7])[0] == 1.0
    assert _legendre(2, [1.0])[0] == pytest.approx(1.0, abs=1e-15)
    assert _legendre(3, [0.5])[0] == pytest.approx(-0.4375, abs=1e-15)


def test_legendre_exact_polynomials():
    p3 = legendre(3)  # (5x^3 - 3x)/2
    assert dict(p3) == {1: Fraction(-3, 2), 3: Fraction(5, 2)}
    for j in range(8):
        # the value at x = 1 is the coefficient sum
        assert sum(c for _, c in legendre(j)) == 1


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        legendre(-1)


def test_legendre_bounded_on_interval():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=100)
    for j in range(11):
        assert np.all(np.abs(_legendre(j, xs)) <= 1 + 1e-12)


def test_exterior_derivative_of_0form_product_rule():
    xy = PolyForm(2, 0, {(0, (1, 1)): 1})
    d = exterior_derivative(xy)
    assert d.coeffs == {(0, (0, 1)): 1, (1, (1, 0)): 1}  # y dx + x dy


def test_exterior_derivative_matches_hand_computation_in_3d():
    # d[(y+1)(z+1) dx] = -(z+1) dx^dy - (y+1) dx^dz
    f = PolyForm(3, 1, {(0, e): 1 for e in [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]})
    df = exterior_derivative(f)
    # no dy^dz (component 0) term; the dx^dz coefficient (component 1) is
    # -(1 + y), the dx^dy coefficient (component 2) -(1 + z)
    assert df.coeffs == {(1, (0, 0, 0)): -1, (1, (0, 1, 0)): -1,
                         (2, (0, 0, 0)): -1, (2, (0, 0, 1)): -1}


def test_form_repr_lists_components_in_order_and_terms_by_degree():
    f = PolyForm(3, 2, {(2, (2, 0, 1)): Fraction(-1, 2), (0, (0, 1, 0)): 1,
                        (2, (0, 0, 0)): 3, (2, (1, 0, 0)): 2})
    assert list(f.coeffs) == [(0, (0, 1, 0)), (2, (2, 0, 1)), (2, (0, 0, 0)), (2, (1, 0, 0))]
    assert repr(f) == "(1*y)dy^dz + (3 + 2*x + -1/2*x^2z)dx^dy"
    assert repr(PolyForm(2, 0, {(0, (0, 0)): Fraction(1, 4)})) == "(1/4)"
    assert repr(PolyForm(2, 1)) == "0"


def test_exterior_derivative_of_constant_is_zero():
    f = PolyForm(3, 0, {(0, (0, 0, 0)): 7})
    assert exterior_derivative(f).is_zero()


def test_exterior_derivative_rejects_top_forms():
    f = PolyForm(2, 2, {(0, (0, 0)): 1})
    with pytest.raises(ValueError, match="top-degree"):
        exterior_derivative(f)


def _random_form(rng, n, k, degree=3):
    exps = monomials_up_to(n, degree)
    return PolyForm(n, k, {(ci, e): int(rng.integers(-4, 5))
                           for ci in range(math.comb(n, k)) for e in exps})


def test_d_of_d_is_zero_exactly():
    rng = np.random.default_rng(7)
    cases = 0
    while cases < 200:
        n = int(rng.integers(2, 4))
        for k in range(0, n - 1):
            f = _random_form(rng, n, k)
            ddf = exterior_derivative(exterior_derivative(f))
            assert ddf.is_zero()
            cases += 1


def test_monomials_in_zero_variables():
    for t in range(4):
        assert monomials_up_to(0, t) == [()]
    for t in (-1, -3):
        assert monomials_up_to(0, t) == []
    assert monomials_up_to(1, 3) == [(0,), (1,), (2,), (3,)]
    assert monomials_up_to(1, -1) == []


def test_koszul_d_euler_identity():
    # (d kappa + kappa d) w = (deg + k) w for homogeneous monomial forms
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, n))
        deg = int(rng.integers(0, 4))
        exps = [e for e in monomials_up_to(n, deg) if sum(e) == deg]
        exp = exps[int(rng.integers(0, len(exps)))]
        ci = int(rng.integers(0, len(form_components(n, k))))
        w = PolyForm(n, k, {(ci, exp): 1})
        lhs = exterior_derivative(koszul(w)).coeffs
        if k < n:
            lhs = vec_add(lhs, koszul(exterior_derivative(w)).coeffs)
        assert PolyForm(n, k, lhs) == PolyForm(n, k, vec_add({}, w.coeffs, deg + k))


def test_gauss_rule_one_point():
    rule = gauss_rule(1, 1)
    assert rule.points.shape == (1, 1)
    assert rule.points[0, 0] == pytest.approx(0.0)
    assert rule.weights[0] == pytest.approx(2.0)


def test_gauss_rule_two_points():
    rule = gauss_rule(1, 2)
    assert sorted(rule.points[:, 0]) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert rule.weights == pytest.approx([1.0, 1.0])
    # integrate x^2 exactly
    val = float(np.sum(rule.weights * rule.points[:, 0] ** 2))
    assert val == pytest.approx(2 / 3, abs=1e-15)


def test_gauss_rule_rejects_zero_points():
    with pytest.raises(ValueError):
        gauss_rule(2, 0)


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 4), (3, 3)])
def test_gauss_rule_weight_sum_and_monomial_exactness(n, m):
    rule = gauss_rule(n, m)
    assert float(np.sum(rule.weights)) == pytest.approx(2.0**n, rel=1e-14)
    rng = np.random.default_rng(n * 10 + m)
    for _ in range(20):
        exps = rng.integers(0, 2 * m, size=n)  # per-variable degree <= 2m-1
        vals = np.prod(rule.points**exps, axis=1)
        quad = float(np.sum(rule.weights * vals))
        exact = 1.0
        for p in exps:
            exact *= 0.0 if p % 2 else 2.0 / (p + 1)
        assert quad == pytest.approx(exact, abs=1e-13, rel=1e-13)


def test_form_component_count_is_binomial():
    for n in (2, 3):
        for k in range(n + 1):
            assert PolyForm(n, k).is_zero()
            assert len(form_components(n, k)) == math.comb(n, k)


def test_form_components_name_a_degree_without_components():
    with pytest.raises(ValueError, match="no k-form components for n=4, k=1"):
        form_components(4, 1)


def test_koszul_rejects_a_0_form():
    with pytest.raises(ValueError, match="0-forms have no Koszul contraction"):
        koszul(PolyForm(2, 0, {(0, (1, 0)): Fraction(1)}))
