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
    SinAffine,
    divided_difference,
    grundmann_moller_rule,
    monomial_simplex_integral,
    multi_indices,
    simplex_integral,
    simplex_integral_poly,
    taylor,
)
from cylattice import divdiff
from cylattice.divdiff import exp_divided_difference, rule_for_degree
from cylattice.errors import ConfigError, DerivativeOrderError, DomainError
from cylattice.functions import RestrictedOrder

from helpers import (
    classical_divided_difference,
    divided_difference_continuity_probe,
    exp_divided_difference_oracle,
    random_poly_coeffs,
)


def test_rule_weights_sum_to_simplex_volume():
    for dim in range(1, 6):
        for index in (0, 1, 3, 6):
            nodes, weights = grundmann_moller_rule(dim, index)
            assert weights.sum() == pytest.approx(1.0 / math.factorial(dim), rel=1e-13)
            assert np.all(nodes >= -1e-15)
            assert np.all(nodes.sum(axis=1) <= 1.0 + 1e-14)


def test_rule_polynomial_exactness():
    # oracle: closed-form Dirichlet integral of monomials
    rng = np.random.default_rng(3)
    for dim, degree in [(1, 7), (2, 6), (3, 5), (4, 7)]:
        nodes, weights = rule_for_degree(dim, degree)
        for _ in range(10):
            beta = rng.integers(0, degree + 1, size=dim)
            while beta.sum() > degree:
                beta = rng.integers(0, degree + 1, size=dim)
            approx = float(weights @ np.prod(nodes ** beta, axis=1))
            exact = monomial_simplex_integral(tuple(int(b) for b in beta))
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_rule_bounds_rejected():
    with pytest.raises(ConfigError):
        grundmann_moller_rule(11, 1)
    with pytest.raises(ConfigError):
        grundmann_moller_rule(2, 99)


def test_simplex_integral_constant_volumes():
    ones = lambda u: np.ones(len(u))
    a2 = [[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]
    assert simplex_integral(ones, a2, degree=1) == pytest.approx(0.5)
    a3 = [[0.0, 0.0], [1.0, 0.0], [0.3, 0.8], [0.1, -0.5]]
    assert simplex_integral(ones, a3, degree=1) == pytest.approx(1.0 / 6.0)


def test_simplex_integral_linear_example():
    # g(x) = x1 over the segment (0,0)-(1,0): integral of xi over [0,1]
    g = lambda u: u[:, 0]
    assert simplex_integral(g, [[0.0, 0.0], [1.0, 0.0]], degree=3) == pytest.approx(0.5)


def test_exact_poly_path_matches_quadrature():
    rng = np.random.default_rng(5)
    p = MultiPoly(2, 3, random_poly_coeffs(rng, multi_indices(2, 3)))
    pts = rng.uniform(-1, 1, (4, 2))
    exact = simplex_integral_poly(p, pts)
    quad = simplex_integral(lambda u: p.evaluate_many(u), pts, degree=5)
    assert exact == pytest.approx(quad, rel=1e-12, abs=1e-14)


def test_divided_difference_univariate_reduction():
    # f(x) = x^2 at {0, 1}: classical first divided difference is 1
    f = PolynomialFunction.monomial(1, (2,))
    value = divided_difference(f, [[0.0], [1.0]], [[1.0]])
    assert value == pytest.approx(1.0)


def test_divided_difference_hermite_case():
    f = PolynomialFunction.monomial(2, (2, 0))
    value = divided_difference(f, [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                               [[1.0, 0.0], [1.0, 0.0]])
    assert value == pytest.approx(1.0)


def test_divided_difference_homogeneous_rule():
    # f = X^alpha with |alpha| = s on the diagonal gives v^alpha
    rng = np.random.default_rng(7)
    for alpha in [(2, 1), (0, 3), (1, 1)]:
        s = sum(alpha)
        f = PolynomialFunction.monomial(2, alpha)
        pts = rng.uniform(-1, 1, (s + 1, 2))
        v = rng.uniform(-1, 1, 2)
        value = divided_difference(f, pts, [v] * s)
        assert value == pytest.approx(v[0] ** alpha[0] * v[1] ** alpha[1], rel=1e-12)


def test_divided_difference_symmetry_in_vectors():
    rng = np.random.default_rng(11)
    f = ExpAffine([1.0, -0.5])
    pts = rng.uniform(-0.5, 0.5, (4, 2))
    u, v, w = rng.uniform(-1, 1, (3, 2))
    base = divided_difference(f, pts, [u, v, w])
    assert divided_difference(f, pts, [w, u, v]) == pytest.approx(base, rel=1e-12)
    assert divided_difference(f, pts, [v, w, u]) == pytest.approx(base, rel=1e-12)


def test_divided_difference_multilinearity():
    rng = np.random.default_rng(13)
    f = ExpAffine([0.7, 1.1])
    pts = rng.uniform(-0.5, 0.5, (3, 2))
    u, v, w = rng.uniform(-1, 1, (3, 2))
    a, b = 1.7, -0.4
    left = divided_difference(f, pts, [a * u + b * v, w])
    right = a * divided_difference(f, pts, [u, w]) + b * divided_difference(f, pts, [v, w])
    assert left == pytest.approx(right, rel=1e-10, abs=1e-12)


def test_divided_difference_against_classical_newton():
    # univariate embedding: the simplex integral reduces to the classical
    # Newton divided difference (Hermite-Genocchi); mpmath recurrence oracle.
    # Both the ridge path and degree-25 GM quadrature of f^(s) must meet it.
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = int(rng.integers(1, 5))
        nodes = np.sort(rng.uniform(-1.0, 1.0, s + 1))
        while np.min(np.diff(nodes)) < 0.05:
            nodes = np.sort(rng.uniform(-1.0, 1.0, s + 1))
        c = float(rng.uniform(0.5, 1.5))
        f = ExpAffine([c])
        value = divided_difference(f, nodes[:, None], [[1.0]] * s)
        quadrature = simplex_integral(lambda u: f.directional_derivative(u, [[1.0]] * s),
                                      nodes[:, None], 25)

        import mpmath as mp
        oracle = classical_divided_difference(lambda z: mp.e ** (mp.mpf(repr(c)) * z), nodes)
        assert value == pytest.approx(oracle, rel=1e-10, abs=1e-12)
        assert quadrature == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_divided_difference_coincident_closed_form():
    # all points equal: value is f^(s)(a)(v...) / s!, on the ridge path
    # (sin, exp * cos) and on the quadrature path (sin * polynomial)
    a = np.array([0.2, 0.4])
    v = np.array([0.5, 1.0])
    s = 3
    for f in (SinAffine([1.3, -0.2]),
              Product(ExpAffine([0.4, 0.9]), CosAffine([1.3, -0.2], shift=0.3)),
              Product(SinAffine([1.3, -0.2]), PolynomialFunction.monomial(2, (2, 1)))):
        value = divided_difference(f, np.tile(a, (s + 1, 1)), [v] * s)
        expect = f.directional_derivative(a, [v] * s) / math.factorial(s)
        assert value == pytest.approx(expect, rel=1e-10)


def test_taylor_remainder_identity():
    # f(x) - T_0^{m-1} f(x) equals the divided difference at m zeros and x
    # along the diagonal directions x
    rng = np.random.default_rng(19)
    f = ExpAffine([1.0, 1.0])
    for m in (1, 2, 3):
        x = rng.uniform(-0.5, 0.5, 2)
        t = taylor(f, np.zeros(2), m - 1)
        lhs = f.evaluate(x) - t.evaluate(x)
        pts = np.vstack([np.zeros((m, 2)), x[None, :]])
        rhs = divided_difference(f, pts, [x] * m)
        quadrature = simplex_integral(lambda u: f.directional_derivative(u, [x] * m), pts, 21)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs == pytest.approx(quadrature, abs=1e-10)


def test_capability_and_domain_errors():
    # Both checks come before the ridge and the quadrature path alike.
    for make in (lambda: ExpAffine([1.0, 1.0]),
                 lambda: Product(ExpAffine([1.0, 1.0]), SinAffine([0.5, -1.0])),
                 lambda: Product(ExpAffine([1.0, 1.0]), PolynomialFunction.monomial(2, (1, 0)))):
        f = RestrictedOrder(make(), max_order=1)
        pts = np.zeros((3, 2))
        with pytest.raises(DerivativeOrderError):
            divided_difference(f, pts, [np.eye(2)[0]] * 2)

        g = make()
        g.domain_radius = 0.5
        with pytest.raises(DomainError):
            divided_difference(g, np.array([[0.0, 0.0], [2.0, 0.0]]), [np.eye(2)[0]])


def test_order_zero_divided_difference():
    f = ExpAffine([1.0, 1.0])
    assert divided_difference(f, [[0.3, 0.1]], []) == pytest.approx(math.exp(0.4))


def test_continuity_probe_decreases_with_scale():
    f = ExpAffine([1.0, -1.0])
    pts = np.array([[0.0, 0.0], [0.5, 0.2], [0.1, 0.4]])
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert divided_difference_continuity_probe(f, pts, vectors, 0.0) == 0.0
    devs = [divided_difference_continuity_probe(
        f, pts, vectors, eps, rng=np.random.default_rng(1))
        for eps in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    # halving the scale roughly halves the deviation (within factor 4)
    d1 = divided_difference_continuity_probe(f, pts, vectors, 1e-3,
                                             rng=np.random.default_rng(2))
    d2 = divided_difference_continuity_probe(f, pts, vectors, 5e-4,
                                             rng=np.random.default_rng(2))
    assert d2 < d1 and d1 / d2 < 4.0


def test_point_tuple_mismatch_raises():
    f = ExpAffine([1.0, 1.0])
    with pytest.raises(ValueError):
        divided_difference(f, np.zeros((3, 2)), [np.eye(2)[0]])


@pytest.mark.parametrize("s", range(11))
def test_exp_divided_difference_matches_contour_oracle(s):
    # Rows: complex nodes spread over 1e-8 .. 20, a clustered pair, and
    # fully coincident nodes; each row alone and all rows in one call.
    rng = np.random.default_rng(100 + s)
    rows = []
    for spread in (1e-8, 1e-3, 1.0, 20.0):
        base = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        rows.append(base + spread / 2 * (rng.uniform(-1.0, 1.0, s + 1)
                                         + 1j * rng.uniform(-1.0, 1.0, s + 1)))
    clustered = rows[2].copy()
    clustered[-1] = clustered[0] + 1e-9
    rows.append(clustered)
    rows.append(np.full(s + 1, 0.7 - 1.3j))
    rows = np.array(rows)
    oracle = np.array([exp_divided_difference_oracle(row) for row in rows])
    assert oracle[-1] == pytest.approx(complex(np.exp(0.7 - 1.3j)) / math.factorial(s),
                                       rel=1e-15)
    single = np.array([exp_divided_difference(row[None, :])[0] for row in rows])
    for values in (single, exp_divided_difference(rows)):
        assert np.all(np.abs(values - oracle) <= 1e-13 * np.abs(oracle))
    # A non-finite row gives NaN for itself and leaves every other row as it
    # is when computed alone, the widely spread one included.
    rows = np.vstack([rows, np.linspace(0.0, 30.0, s + 1)])
    single = np.append(single, exp_divided_difference(rows[-1:]))
    broken = [np.append(rows[0][:-1], bad) for bad in (np.nan, np.inf)]
    with np.errstate(invalid="ignore"):  # inf - inf in the broken rows
        mixed = exp_divided_difference(np.vstack(broken[:1] + list(rows) + broken[1:]))
    assert np.isnan(mixed[0]) and np.isnan(mixed[-1])
    assert np.all(np.abs(mixed[1:-1] - single) <= 1e-14 * np.abs(single))


def _ridge_cases(dimension):
    rng = np.random.default_rng(40 + dimension)

    def affine():
        return rng.uniform(-1.0, 1.0, dimension), float(rng.uniform(-0.5, 0.5))

    exp, sin, cos = ExpAffine(*affine()), SinAffine(*affine()), CosAffine(*affine())
    return [
        exp,
        sin,
        cos,
        Product(exp, sin),
        LinearCombination([(0.7, exp), (-1.3, cos), (2.0, Product(sin, cos))]),
        RestrictedOrder(Product(cos, exp), max_order=6),
    ]


@pytest.mark.parametrize("dimension", (2, 3))
@pytest.mark.parametrize("s", range(1, 7))
def test_ridge_path_matches_grundmann_moller(dimension, s):
    rng = np.random.default_rng(10 * dimension + s)
    pts = rng.uniform(-0.8, 0.8, (s + 1, dimension))
    vectors = list(rng.uniform(-1.0, 1.0, (s, dimension)))
    for f in _ridge_cases(dimension):
        amps, c, b = f.ridges()
        scale = float(np.sum(np.abs(amps * np.prod(c @ np.array(vectors).T, axis=1)
                                    * exp_divided_difference(c @ pts.T + b[:, None]))))
        gm = simplex_integral(lambda u: f.directional_derivative(u, vectors), pts, 2 * s + 15)
        assert abs(divided_difference(f, pts, vectors) - gm) <= 1e-11 * scale


def test_product_with_a_polynomial_factor_takes_quadrature(monkeypatch):
    calls = []
    original = divdiff.simplex_integral

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(divdiff, "simplex_integral", counted)
    pts = np.array([[0.0, 0.1], [0.4, -0.2], [0.3, 0.5]])
    vectors = [np.array([1.0, 0.5])] * 2
    f = Product(ExpAffine([1.0, -0.5]), PolynomialFunction.monomial(2, (1, 1)))
    assert f.ridges() is None
    value = divided_difference(f, pts, vectors)
    assert calls == [1]
    divided_difference(ExpAffine([1.0, -0.5]), pts, vectors)
    assert calls == [1]
    oracle = original(lambda u: f.directional_derivative(u, vectors), pts, 25)
    assert value == pytest.approx(oracle, rel=1e-10)
