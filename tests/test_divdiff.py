import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylattice import (
    ChungYaoLattice,
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
    random_family,
    simplex_integral,
    simplex_integral_poly,
    taylor,
)
from cylattice import divdiff
from cylattice.divdiff import exp_divided_difference, line_divided_differences, rule_for_degree
from cylattice.errors import ConfigError, DerivativeOrderError
from cylattice.functions import RestrictedOrder

from helpers import (
    ConjugatePairRidges,
    classical_divided_difference,
    divided_difference_continuity_probe,
    exp_divided_difference_oracle,
    full_matrix_exp_divided_difference,
    line_divided_differences_per_line,
    random_poly_coeffs,
    ridge_forms_are_distinct,
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
        t = taylor(f, m - 1)
        lhs = f.evaluate(x) - t.evaluate(x)
        pts = np.vstack([np.zeros((m, 2)), x[None, :]])
        rhs = divided_difference(f, pts, [x] * m)
        quadrature = simplex_integral(lambda u: f.directional_derivative(u, [x] * m), pts, 21)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs == pytest.approx(quadrature, abs=1e-10)


def test_capability_and_domain_errors():
    # The order check comes before the ridge and the quadrature path alike.
    for make in (lambda: ExpAffine([1.0, 1.0]),
                 lambda: Product(ExpAffine([1.0, 1.0]), SinAffine([0.5, -1.0])),
                 lambda: Product(ExpAffine([1.0, 1.0]), PolynomialFunction.monomial(2, (1, 0)))):
        f = RestrictedOrder(make(), max_order=1)
        pts = np.zeros((3, 2))
        with pytest.raises(DerivativeOrderError):
            divided_difference(f, pts, [np.eye(2)[0]] * 2)


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


# Node spreads at which the number of squarings steps (1, 2 and 4, each also
# one ulp either side), for the property test below.
_EDGE_SPREADS = [float(np.nextafter(edge, edge + side))
                 for edge in (1.0, 2.0, 4.0) for side in (-1.0, 0.0, 1.0)]


def _rows_of_spread(rng, rows, size, spread):
    """(rows, size) complex nodes in +-pairs about 0, the first pair +-spread.

    Pairs (and a 0 for odd size) sum to 0 exactly, so the kernel's centring
    leaves the nodes as they are and its spread is `spread` itself.
    """
    shape = (rows, size // 2)
    half = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    half *= 0.7 * spread / np.maximum(np.abs(half), 1.0)
    half[:, 0] = spread * rng.choice([1.0, -1.0, 1j, -1j], rows)
    pairs = np.stack([half, -half], axis=2).reshape(rows, -1)
    return np.hstack([pairs, np.zeros((rows, size % 2))])


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), s=st.integers(1, 12),
       spread=st.one_of(st.sampled_from(_EDGE_SPREADS), st.floats(0.0, 8.0)))
def test_exp_divided_difference_agrees_with_full_squaring_and_the_contour_oracle(seed, s, spread):
    # 24 rows of the drawn spread, 12 about 0 and 12 shifted, alone (no row
    # squares when spread <= 1) and next to a row of spread 8 that does.
    # exp[z] = integral over the simplex of exp(sum xi_j z_j) cancels far below
    # its terms when Im z spreads widely, so errors are measured against the
    # integral of |exp|, which is exp[Re z].
    rng = np.random.default_rng(seed)
    centred = _rows_of_spread(rng, 24, s + 1, spread)
    assert np.all(np.max(np.abs(centred - centred.mean(axis=1, keepdims=True)), axis=1)
                  == spread)
    shift = rng.uniform(-2.0, 2.0, (12, 1)) + 1j * rng.uniform(-2.0, 2.0, (12, 1))
    rows = np.vstack([centred[:12], centred[12:] + shift])
    wide = _rows_of_spread(rng, 1, s + 1, 8.0)
    oracle = full_matrix_exp_divided_difference(rows)
    magnitude = full_matrix_exp_divided_difference(rows.real).real
    for values in (exp_divided_difference(rows),
                   exp_divided_difference(np.vstack([rows, wide]))[:-1]):
        assert np.all(np.abs(values - oracle) <= 1e-14 * magnitude)
    pick = rng.integers(len(rows))
    precise = exp_divided_difference_oracle(rows[pick])
    assert abs(values[pick] - precise) <= 1e-13 * magnitude[pick]
    # exp[z] is symmetric in the nodes and real on real nodes: exp[conj z] = conj exp[z].
    shuffled = rng.permuted(rows, axis=1)
    assert np.all(np.abs(exp_divided_difference(shuffled) - values) <= 1e-14 * magnitude)
    assert np.all(np.abs(exp_divided_difference(rows.conj()) - values.conj())
                  <= 1e-14 * magnitude)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_exp_divided_difference_matches_the_contour_oracle_at_node_pairs_plus_minus_64(s):
    # A first pair +-64, then +-64i, the other nodes within 0.7 * 64: the
    # oracle's contour has radius 2 * 64 + 1, where its terms reach e^129,
    # and its working precision grows with it.  Errors are measured against
    # exp[Re z], as in the property test above.
    rng = np.random.default_rng(140 + s)
    rows = _rows_of_spread(rng, 2, s + 1, 64.0)
    rows[:, :2] = np.outer([1.0, 1j], [64.0, -64.0])
    oracle = np.array([exp_divided_difference_oracle(row) for row in rows])
    magnitude = full_matrix_exp_divided_difference(rows.real).real
    assert np.all(np.abs(exp_divided_difference(rows) - oracle) <= 1e-13 * magnitude)


@pytest.mark.parametrize("j", range(1, 6))
def test_exp_divided_difference_keeps_its_accuracy_just_below_each_squaring_step(j):
    # Node pairs +-u of |u| one ulp below 2^j take k = j squarings of a Taylor
    # polynomial of degree exactly s + TAYLOR_EXTRA_TERMS = 21, which leaves
    # about 1/22! ~ 9e-22 of exp(+-u / 2^j) out.  One squaring fewer (|u / 2^(j-1)|
    # just below 2) would leave 2^22/22! ~ 3.7e-15 of the diagonal's exp(+-2i)
    # out, which the squarings double each time and the divided difference
    # exp[u, -u] = sinh(u)/u meets relative to itself.
    spread = float(np.nextafter(2.0 ** j, 0.0))
    rows = np.outer(spread * np.exp(1j * np.linspace(0.0, np.pi, 7)), [1.0, -1.0])
    centred = np.max(np.abs(rows - (rows.sum(axis=1) / 2)[:, None]), axis=1)
    assert np.all((2.0 ** (j - 1) < centred) & (centred <= 2.0 ** j))
    oracle = np.array([exp_divided_difference_oracle(row) for row in rows])
    error = np.abs(exp_divided_difference(rows) - oracle)
    assert np.all(error <= 2.0 ** j * 6e-16 * np.abs(oracle))


@pytest.mark.parametrize("shape", ((3, 0), (0,), (2, 3, 4)))
def test_exp_divided_difference_rejects_rows_without_nodes_and_3d_input(shape):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        exp_divided_difference(np.zeros(shape))
    assert exp_divided_difference(np.zeros((0, 4))).shape == (0,)


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


def _ridge_term_magnitude(ridges, hull, vectors) -> float:
    """sum_r 2^k_r |amp_r| prod_i <|v_i|, |c_r|> |exp[z_r]| of the ridges on one hull.

    These are the Hermite-Genocchi terms with each slope <v_i, c_r> taken in
    absolute values, which bounds the rounding of a slope that cancels, and
    weighted by 2^k_r for the k_r = max(0, ceil(log2 spread_r)) squarings
    `exp_divided_difference` takes on row z_r: each squaring can double the
    relative rounding error of a row.
    """
    amps, c, b = ridges
    z = (hull @ c.T + b).T
    spread = np.max(np.abs(z - z.mean(axis=1, keepdims=True)), axis=1)
    squarings = np.exp2(np.ceil(np.log2(np.maximum(spread, 1.0))))
    slopes = np.prod(np.abs(np.asarray(vectors)) @ np.abs(c).T, axis=0)
    return float(np.sum(squarings * np.abs(amps) * slopes * np.abs(exp_divided_difference(z))))


def _ridge_expression(rng, n_dim, terms, factors, pool):
    """A sum of `terms` weighted products of up to `factors` members of a pool of weighted
    exp/sin/cos.

    Factors repeat within the pool, so squares and repeated terms make equal
    and conjugate ridges that the canonical form must merge.
    """
    kinds = (ExpAffine, SinAffine, CosAffine)
    members = []
    for _ in range(pool):  # a member's weight is drawn after its coefficients and shift
        member = kinds[rng.integers(3)](rng.uniform(-1.0, 1.0, n_dim),
                                        float(rng.uniform(-0.5, 0.5)))
        members.append(LinearCombination([(float(rng.uniform(0.5, 2.0)), member)]))
    products = []
    for _ in range(terms):
        picks = rng.integers(pool, size=rng.integers(1, factors + 1))
        product = members[picks[0]]
        for pick in picks[1:]:
            product = Product(product, members[pick])
        products.append(product)
    if terms == 1:
        return products[0]
    return LinearCombination([(float(rng.uniform(-2.0, 2.0)), g) for g in products])


# The canonical ridge form and the conjugate-pair expansion send different
# batches of rows to `exp_divided_difference` and of slopes to one matmul, and
# merge amplitudes, so their divided differences agree to a few eps (2^-52)
# times `_ridge_term_magnitude`.  Over 3000 seeded cases the largest
# difference was 1.4 eps times it.
RIDGE_FORM_ULPS = 8


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n_dim=st.integers(1, 4), m=st.integers(1, 4),
       terms=st.integers(1, 3), factors=st.integers(1, 3), pool=st.integers(1, 3),
       restricted=st.booleans())
def test_canonical_ridges_agree_with_the_conjugate_pair_oracle(
        seed, n_dim, m, terms, factors, pool, restricted):
    rng = np.random.default_rng(seed)
    f = _ridge_expression(rng, n_dim, terms, factors, pool)
    if restricted:
        f = RestrictedOrder(f, max_order=m)
    oracle = ConjugatePairRidges(f)
    amps, c, b = f.ridges()
    assert ridge_forms_are_distinct(c, b)
    # Re sum of the ridges is f, to 1e-13 of the pair expansion's term magnitudes.
    points = rng.uniform(-1.0, 1.0, (8, n_dim))
    pair_amps, pair_c, pair_b = oracle.ridges()
    scale = np.abs(np.exp(points @ pair_c.T + pair_b) * pair_amps).sum(axis=1)
    values = (np.exp(points @ c.T + b) * amps).sum(axis=1).real
    assert np.all(np.abs(values - f.evaluate(points)) <= 1e-13 * scale)
    bound = RIDGE_FORM_ULPS * np.finfo(float).eps
    # One divided difference on a random hull.
    hull = rng.uniform(-0.8, 0.8, (m + 1, n_dim))
    vectors = list(rng.uniform(-1.0, 1.0, (m, n_dim)))
    magnitude = _ridge_term_magnitude(oracle.ridges(), hull, vectors)
    assert abs(divided_difference(f, hull, vectors)
               - divided_difference(oracle, hull, vectors)) <= bound * magnitude
    # Every [Theta_K, x | n_K^m]f of a seeded lattice at two points.
    lattice = ChungYaoLattice(random_family(rng, n_dim, n_dim + m - 1, min_subset_det=0.05))
    lines = lattice.line_subsets()
    xs = rng.uniform(-0.8, 0.8, (2, n_dim))
    fast = line_divided_differences(f, lines.points, lines.directions, xs)
    slow = line_divided_differences(oracle, lines.points, lines.directions, xs)
    for k, (line, direction) in enumerate(zip(lines.points, lines.directions)):
        for p, x in enumerate(xs):
            magnitude = _ridge_term_magnitude(oracle.ridges(), np.vstack([line, x]),
                                              [direction] * m)
            assert abs(fast[k, p] - slow[k, p]) <= bound * magnitude


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


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 16), n_dim=st.integers(1, 4), m=st.integers(1, 4),
       excess=st.sampled_from([-1, 0, 2]), lines=st.integers(1, 5), points=st.integers(1, 3))
def test_polynomial_line_divided_differences_equal_the_per_line_chain_bit_for_bit(
        seed, n_dim, m, excess, lines, points):
    # Degree m - 1 (every derivative vanishes), m (constant derivatives) and
    # m + 2 (integrated hull by hull); a third of the direction components
    # and of the coefficients are zero.
    rng = np.random.default_rng([seed, 27])
    degree = m + excess
    coeffs = rng.uniform(-2.0, 2.0, len(multi_indices(n_dim, degree)))
    f = PolynomialFunction(MultiPoly(n_dim, degree, coeffs * (rng.uniform(size=coeffs.size) > 0.3)))
    directions = rng.uniform(-1.0, 1.0, (lines, n_dim)) * (rng.uniform(size=(lines, n_dim)) > 0.3)
    line_points = rng.uniform(-0.5, 0.5, (lines, m, n_dim))
    x = rng.uniform(-0.5, 0.5, (points, n_dim))
    got = divdiff.line_divided_differences(f, line_points, directions, x)
    expected = line_divided_differences_per_line(f, line_points, directions, x)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_only_a_function_without_a_closed_form_takes_divided_difference_per_line_and_point(
        monkeypatch):
    # Ridge sums and polynomials of degree at most m are batched closed forms;
    # a polynomial of degree m + 1 takes one `divided_difference` call per line
    # and point, line by line, each on the hull of Theta_K and x along n_K.
    calls = []
    original = divdiff.divided_difference
    monkeypatch.setattr(divdiff, "divided_difference",
                        lambda f, hull, vectors: calls.append((hull, vectors))
                        or original(f, hull, vectors))
    rng = np.random.default_rng(31)
    n_dim, m, lines, points = 2, 3, 4, 5
    line_points = rng.uniform(-0.5, 0.5, (lines, m, n_dim))
    directions = rng.uniform(-1.0, 1.0, (lines, n_dim))
    x = rng.uniform(-0.5, 0.5, (points, n_dim))

    def polynomial(degree):
        return PolynomialFunction(MultiPoly(n_dim, degree, rng.uniform(
            -1.0, 1.0, len(multi_indices(n_dim, degree)))))

    for f in (polynomial(m - 1), polynomial(m), SinAffine([0.3, -0.7], 0.2)):
        divdiff.line_divided_differences(f, line_points, directions, x)
    assert calls == []
    f = polynomial(m + 1)
    got = divdiff.line_divided_differences(f, line_points, directions, x)
    assert len(calls) == lines * points
    for (hull, vectors), (k, p) in zip(calls, np.ndindex(lines, points)):
        assert np.array_equal(hull, np.vstack([line_points[k], x[p]]))
        assert len(vectors) == m and all(np.array_equal(v, directions[k]) for v in vectors)
    assert got.tobytes() == line_divided_differences_per_line(f, line_points, directions,
                                                              x).tobytes()


@pytest.mark.parametrize("f", [
    PolynomialFunction(MultiPoly(2, 1, [1.0, 2.0, 3.0])),
    PolynomialFunction(MultiPoly(2, 3, np.arange(10.0))),
    ExpAffine([1.0, 2.0]),
], ids=["polynomial-degree-m", "polynomial-above-m", "ridge"])
def test_no_lines_give_an_empty_table_on_every_path(f):
    got = line_divided_differences(f, np.zeros((0, 1, 2)), np.zeros((0, 2)), np.zeros((3, 2)))
    assert got.shape == (0, 3)


def test_an_infinite_coefficient_meeting_a_zero_direction_component_gives_no_nan():
    # As in MultiPoly.directional, a zero direction component skips the inf
    # coefficient instead of making inf * 0.
    f = PolynomialFunction(MultiPoly(2, 2, {(2, 0): math.inf, (0, 2): 3.0, (1, 1): 1.0}))
    directions = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -0.5]])
    line_points = np.zeros((3, 2, 2))
    x = np.array([[0.1, 0.2], [-0.3, 0.4]])
    got = divdiff.line_divided_differences(f, line_points, directions, x)
    assert not np.isnan(got).any()
    assert got.tolist() == [[3.0, 3.0], [math.inf, math.inf], [0.75, 0.75]]
    assert got.tobytes() == line_divided_differences_per_line(f, line_points, directions,
                                                              x).tobytes()


def test_line_divided_differences_check_order_and_domain_before_any_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a path ran before the order check")

    for name in ("directional_rows", "simplex_integral_poly", "divided_difference",
                 "_ridge_sums"):
        monkeypatch.setattr(divdiff, name, forbidden)
    line_points, directions = np.zeros((2, 2, 2)), np.eye(2)
    x = np.array([[2.0, 0.0]])
    for make in (lambda: PolynomialFunction.monomial(2, (3, 0)), lambda: ExpAffine([1.0, 1.0]),
                 lambda: Product(ExpAffine([1.0, 1.0]), PolynomialFunction.monomial(2, (1, 0)))):
        f = make()
        f.max_order = 1
        with pytest.raises(DerivativeOrderError):
            divdiff.line_divided_differences(f, line_points, directions, x)
