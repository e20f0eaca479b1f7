import math

import numpy as np
import pytest

from cylattice import (
    CosAffine,
    ExpAffine,
    LinearCombination,
    MultiPoly,
    PolynomialFunction,
    Product,
    RestrictedOrder,
    SinAffine,
    function_from_spec,
)
from cylattice.errors import ConfigError, DerivativeOrderError

from helpers import finite_difference_directional, ridge_forms_are_distinct


def test_exp_affine_derivatives():
    f = ExpAffine([2.0, -1.0], shift=0.3)
    x = np.array([0.2, 0.5])
    v = np.array([1.0, 1.0])
    w = np.array([0.0, 2.0])
    exact = f.directional_derivative(x, [v, w])
    expect = (2.0 - 1.0) * (-2.0) * math.exp(2.0 * 0.2 - 0.5 + 0.3)
    assert exact == pytest.approx(expect, rel=1e-14)


def test_trig_derivatives_match_finite_differences():
    for f in (SinAffine([1.2, 0.7], shift=0.1), CosAffine([0.5, -0.9], shift=-0.4)):
        x = np.array([0.3, -0.2])
        v = np.array([0.6, 1.0])
        w = np.array([-1.0, 0.4])
        exact = f.directional_derivative(x, [v, w])
        approx = finite_difference_directional(f.evaluate, x, [v, w], h=1e-4)
        assert exact == pytest.approx(approx, abs=1e-6)


def test_product_leibniz_rule():
    f = Product(ExpAffine([1.0, 0.0]), PolynomialFunction.monomial(2, (0, 2)))
    x = np.array([0.1, 0.4])
    vectors = [np.array([1.0, 0.5]), np.array([-0.3, 1.0]), np.array([0.2, 0.2])]
    exact = f.directional_derivative(x, vectors)
    approx = finite_difference_directional(f.evaluate, x, vectors, h=1e-3)
    assert exact == pytest.approx(approx, rel=1e-5, abs=1e-5)
    assert f.ridges() is None  # a polynomial factor has no ridge form


def test_linear_combination():
    f = LinearCombination([(2.0, ExpAffine([1.0, 1.0])), (-1.0, PolynomialFunction.monomial(2, (1, 0)))])
    x = np.array([0.2, 0.1])
    assert f.evaluate(x) == pytest.approx(2.0 * math.exp(0.3) - 0.2, rel=1e-14)
    assert f.ridges() is None


def test_batch_evaluation_shapes():
    f = ExpAffine([1.0, 1.0])
    pts = np.array([[0.0, 0.0], [0.1, 0.2], [-0.3, 0.4]])
    vals = f.evaluate(pts)
    assert vals.shape == (3,)
    der = f.directional_derivative(pts, [np.array([1.0, 0.0])])
    assert der.shape == (3,)
    assert isinstance(f.evaluate(pts[1]), float)


def test_restricted_order_raises_capability_error():
    f = RestrictedOrder(ExpAffine([1.0, 1.0]), max_order=2)
    x = np.zeros(2)
    f.directional_derivative(x, [np.eye(2)[0]] * 2)
    with pytest.raises(DerivativeOrderError):
        f.directional_derivative(x, [np.eye(2)[0]] * 3)


def test_function_registry():
    f = function_from_spec({"name": "exp_sum"}, 3)
    assert f.evaluate(np.array([0.1, 0.2, 0.3])) == pytest.approx(math.exp(0.6))

    f = function_from_spec({"name": "monomial", "alpha": [2, 1]}, 2)
    assert f.evaluate(np.array([2.0, 3.0])) == pytest.approx(12.0)

    f = function_from_spec(
        {"name": "polynomial", "terms": [[0, 0, 1.0], [1, 1, -2.0]]}, 2)
    assert f.evaluate(np.array([1.0, 2.0])) == pytest.approx(1.0 - 4.0)

    f = function_from_spec(
        {"name": "product",
         "factors": [{"name": "exp_sum"}, {"name": "monomial", "alpha": [1, 0]}]}, 2)
    assert f.evaluate(np.array([0.5, 0.5])) == pytest.approx(0.5 * math.e)


def test_function_registry_rejects_unknown_and_malformed():
    with pytest.raises(ConfigError):
        function_from_spec({"name": "tanh_affine"}, 2)
    with pytest.raises(ConfigError):
        function_from_spec({"name": "monomial", "alpha": [1]}, 2)
    with pytest.raises(ConfigError):
        function_from_spec({"no_name": True}, 2)


def test_polynomial_function_exposes_exact_derivative_poly():
    p = MultiPoly(2, 3, {(3, 0): 1.0, (1, 1): 2.0})
    f = PolynomialFunction(p)
    q = f.derivative_poly([np.array([1.0, 0.0])])
    # 3 x1^2 + 2 x2 over 1, x2, x1, x2^2, x1 x2, x1^2
    assert q.coeffs.tolist() == pytest.approx([0.0, 2.0, 0.0, 0.0, 0.0, 3.0])


def test_polynomial_function_single_point_and_batch_paths():
    p = MultiPoly(2, 3, {(0, 0): 0.5, (1, 0): -1.0, (1, 2): 2.0, (3, 0): 0.25})
    f = PolynomialFunction(p)
    points = np.array([[0.3, -0.7], [1.1, 0.4], [-0.2, 0.9]])
    v = np.array([0.6, -1.0])
    dp = p.directional(v)
    # One point gives a float from MultiPoly.evaluate; a batch gives evaluate_many.
    for x in points:
        assert f.evaluate(x) == p.evaluate(x)
        assert f.directional_derivative(x, [v]) == dp.evaluate(x)
    assert np.array_equal(f.evaluate(points), p.evaluate_many(points))
    assert np.array_equal(f.directional_derivative(points, [v]), dp.evaluate_many(points))


def test_ridge_form_and_coefficients_are_read_only():
    # The ridge form is kept per object, so nothing it was built from may change.
    coeffs = np.array([0.5, -1.0])
    f = Product(SinAffine(coeffs, shift=0.1), ExpAffine([1.0, 0.2]))
    coeffs[0] = 9.0  # the function holds its own copy
    assert f.left.coeffs.tolist() == [0.5, -1.0]
    assert f.ridges() is f.ridges()
    for array in f.ridges() + (f.left.coeffs, f.right.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_ridges_reproduce_evaluate():
    rng = np.random.default_rng(23)
    exp = LinearCombination([(1.5, ExpAffine([0.8, -1.1, 0.3], shift=0.2))])
    sin = SinAffine([1.2, 0.4, -0.7], shift=-0.3)
    cos = CosAffine([-0.5, 0.9, 1.4], shift=0.6)
    # One ridge per conjugate pair: sin and cos are one ridge each, and a
    # product of two ridges gives the ridges of Re(XY) and Re(X conj Y).
    cases = {
        "exp": (exp, 1), "sin": (sin, 1), "cos": (cos, 1),
        "exp*sin": (Product(exp, sin), 1), "sin*cos*exp": (Product(Product(sin, cos), exp), 2),
        "combination": (LinearCombination([(2.0, exp), (-0.5, Product(sin, cos))]), 3),
        "restricted": (RestrictedOrder(Product(cos, cos), max_order=3), 2),
    }
    points = rng.uniform(-2.0, 2.0, (20, 3))
    for name, (f, count) in cases.items():
        amps, c, b = f.ridges()
        assert (amps.shape, c.shape, b.shape) == ((count,), (count, 3), (count,)), name
        # The form is canonical: no two ridges are equal or conjugate.
        assert ridge_forms_are_distinct(c, b), name
        values = (np.exp(points @ c.T + b) * amps).sum(axis=1)
        assert np.allclose(values.real, f.evaluate(points), rtol=1e-13, atol=1e-14), name
    assert PolynomialFunction.monomial(3, (1, 0, 2)).ridges() is None
