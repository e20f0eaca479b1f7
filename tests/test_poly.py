import math
import warnings
from fractions import Fraction
from itertools import permutations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylattice import (
    ExpAffine,
    MultiPoly,
    PolynomialFunction,
    SymmetricForm,
    derivative_form,
    homogeneous_indices,
    multi_indices,
    substitute,
    taylor,
)
from cylattice import ChungYaoLattice
from cylattice import SinAffine
from cylattice.poly import (_compensated_row_sums, affine_products, basis_vector,
                            evaluate_rows, exponent_array, monomials)
from helpers import (
    UNIT_ROUNDOFF,
    brute_force_vandermonde_3x3,
    chained_affine_products,
    dict_binary,
    dict_directional,
    dict_evaluate,
    dict_mul,
    dict_substitute,
    dict_taylor,
    finite_difference_directional,
    ill_conditioned_rows,
    pointwise_polarize,
    random_poly_coeffs,
    row_sums_within_bound,
    spread_family,
)


def test_index_enumeration_counts():
    for n_dim in (1, 2, 3, 4):
        for d in (0, 1, 3, 5):
            assert len(multi_indices(n_dim, d)) == math.comb(n_dim + d, d)
            assert len(homogeneous_indices(n_dim, d)) == math.comb(n_dim + d - 1, d)


def test_index_order_is_strictly_graded():
    idx = multi_indices(3, 4)
    keys = [(sum(a), a) for a in idx]
    assert keys == sorted(keys)
    assert len(set(idx)) == len(idx)


def test_multipoly_evaluation_and_arithmetic():
    p = MultiPoly(2, 2, {(0, 0): 1.0, (1, 0): -2.0, (0, 2): 3.0})
    assert p.evaluate([0.5, 2.0]) == pytest.approx(1.0 - 1.0 + 12.0)
    q = MultiPoly.affine([1.0, 1.0], 1.0)  # x1 + x2 - 1
    prod = p * q
    x = np.array([0.3, -0.7])
    assert prod.evaluate(x) == pytest.approx(p.evaluate(x) * q.evaluate(x), rel=1e-14)
    assert (p + q).evaluate(x) == pytest.approx(p.evaluate(x) + q.evaluate(x), rel=1e-14)
    assert (p - 2.5 * q).evaluate(x) == pytest.approx(p.evaluate(x) - 2.5 * q.evaluate(x), rel=1e-13)


def test_evaluate_rejects_points_of_the_wrong_length():
    p = MultiPoly(2, 2, {(0, 1): 1.0, (1, 0): 2.0})
    for bad in ([3.0], [3.0, 1.0, 1.0], [[3.0, 1.0]]):
        with pytest.raises(ValueError, match="shape"):
            p.evaluate(bad)
    for bad in ([3.0], np.ones((4, 3)), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="shape"):
            p.evaluate_many(bad)


EPS = np.finfo(float).eps


def _abs_term_sum(p: MultiPoly, x) -> float:
    return sum(abs(c) * math.prod(abs(float(xi)) ** ai for xi, ai in zip(x, a))
               for a, c in p.nonzero_items())


@settings(max_examples=60, deadline=None)
@given(n_dim=st.integers(1, 4), degree=st.integers(0, 12), n_points=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_evaluate_many_agrees_with_pointwise_evaluate(n_dim, degree, n_points, seed):
    rng = np.random.default_rng(seed)
    table = multi_indices(n_dim, degree)
    scales = 10.0 ** rng.uniform(-3, 3, len(table))
    kept = rng.uniform(size=len(table)) < 0.7
    coeffs = dict(zip(table, rng.uniform(-1, 1, len(table)) * scales * kept))
    p = MultiPoly(n_dim, degree, coeffs)
    points = rng.uniform(-2, 2, (n_points, n_dim))
    batch = p.evaluate_many(points)
    assert batch.shape == (n_points,)
    for x, value in zip(points, batch):
        bound = 4 * (degree + 1) * EPS * _abs_term_sum(p, x)
        assert abs(value - p.evaluate(x)) <= bound


def _mp_value(p: MultiPoly, x):
    with mp.workdps(50):
        xs = [mp.mpf(float(v)) for v in x]
        return mp.fsum(mp.mpf(c) * mp.fprod(xi ** ai for xi, ai in zip(xs, a))
                       for a, c in p.nonzero_items())


def test_evaluate_many_compensates_cancellation():
    # (x0 + x1 - 1)^8 expanded has 45 terms of size up to ~300 near the
    # line x0 + x1 = 1, where its value is below 1e-20.
    p = MultiPoly.affine([1.0, 1.0], 1.0) ** 8
    rng = np.random.default_rng(71)
    x0 = rng.uniform(-0.5, 1.5, 40)
    points = np.column_stack([x0, 1.0 - x0 + rng.uniform(-1e-3, 1e-3, 40)])
    batch = p.evaluate_many(points)
    nonzero = [a for a, _ in p.nonzero_items()]
    coeffs = np.array([p.coefficient(a) for a in nonzero])
    terms = monomials(points, np.array(nonzero)) * coeffs
    for x, value, row in zip(points, batch, terms):
        exact = _mp_value(p, x)
        abs_sum = _abs_term_sum(p, x)
        assert abs_sum > 1e10 * abs(float(exact))
        # Rounding of the terms, not their number, bounds the error.
        assert abs(float(value - exact)) <= EPS * abs(float(exact)) + 4 * EPS * abs_sum
        # The row sum itself is compensated: within an ulp of the exact sum
        # of the computed terms, far inside the plain-sum error (~T eps sum|t|).
        with mp.workdps(50):
            row_sum = mp.fsum(mp.mpf(float(t)) for t in row)
        slack = EPS * abs(float(row_sum)) + len(row) ** 2 * EPS ** 2 * abs_sum
        assert abs(float(value - row_sum)) <= slack


def test_evaluate_many_keeps_digits_a_plain_sum_loses():
    # Left to right, 1 + 1e16 rounds to 1e16 and the 1 is lost.
    p = MultiPoly(2, 1, {(0, 0): 1.0, (1, 0): 1e16, (0, 1): -1e16})
    assert p.evaluate_many(np.array([[1.0, 1.0], [2.0, 2.0]])).tolist() == [1.0, 1.0]


def test_evaluate_many_edge_cases():
    p = MultiPoly(2, 2, {(0, 0): 1.0, (1, 1): -2.0, (0, 2): 0.5})
    empty = p.evaluate_many(np.empty((0, 2)))
    assert empty.shape == (0,)

    points = np.random.default_rng(73).uniform(-1, 1, (5, 3))
    assert MultiPoly.zero(3, 2).evaluate_many(points).tolist() == [0.0] * 5
    assert MultiPoly.constant(3, -2.5).evaluate_many(points).tolist() == [-2.5] * 5

    q = MultiPoly(1, 3, {(0,): 0.5, (1,): -1.0, (3,): 2.0})
    for point in ([0.7], np.array([[0.7]])):
        value = q.evaluate_many(point)
        assert value.shape == (1,)
        assert value[0] == pytest.approx(q.evaluate([0.7]), rel=1e-15)
    # A single point given as a 1-D array is a batch of one.
    assert p.evaluate_many([0.3, -0.4]) == pytest.approx([p.evaluate([0.3, -0.4])], rel=1e-15)

    # An overflowing term gives inf on both paths, not nan from the correction.
    big = MultiPoly(1, 2, {(0,): 1.0, (2,): 1e300})
    with np.errstate(over="ignore"):
        assert big.evaluate_many([[1e10]]).tolist() == [math.inf] == [big.evaluate([1e10])]


@settings(max_examples=200)
@given(count=st.integers(1, 130), digits=st.lists(st.integers(0, 32), min_size=1, max_size=6),
       scale=st.integers(-600, 600), seed=st.integers(0, 2 ** 32 - 1))
def test_row_sums_are_within_the_stated_bound_on_ill_conditioned_rows(count, digits, scale, seed):
    # Condition numbers up to 1e32; a power-of-two scale is exact and keeps
    # every term and error clear of overflow and of the subnormal range.
    rows = np.ldexp(ill_conditioned_rows(np.random.default_rng(seed), count,
                                         [10.0 ** k for k in digits]), scale)
    within = row_sums_within_bound(rows, _compensated_row_sums(rows))
    assert within.all(), np.flatnonzero(~within)


def test_row_sums_of_short_and_odd_rows():
    rng = np.random.default_rng(19)
    # One term comes back as it is, two are correctly rounded.
    assert _compensated_row_sums(np.array([[2.5], [5e-324], [-1e300]])).tolist() == \
        [2.5, 5e-324, -1e300]
    pairs = ill_conditioned_rows(rng, 2, np.logspace(0, 32, 9))
    assert _compensated_row_sums(pairs).tolist() == [math.fsum(row) for row in pairs]
    # An odd level carries its last row; the large terms cancel exactly.
    rows = {3: [1.0, 1e100, -1e100], 5: [1.0, 1e100, 1.0, -1e100, 1.0],
            7: [1e100, 1.0, 1.0, 1.0, 1.0, 1.0, -1e100], 9: [1e100] + [1.0] * 7 + [-1e100]}
    for row in rows.values():
        assert _compensated_row_sums(np.array([row])).tolist() == [math.fsum(row)]


def test_row_sums_of_signed_zeros_and_non_finite_rows_warn_of_nothing():
    inf, nan = math.inf, math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for count in range(1, 6):  # a row of -0.0 sums to +0.0, as the running sum did
            total = _compensated_row_sums(np.full((2, count), -0.0))
            assert total.tolist() == [0.0, 0.0] and not np.signbit(total).any()
        cases = [([inf], inf), ([nan], nan), ([inf, 1.0], inf), ([inf, -inf], nan),
                 ([1.0, inf, -1.0], inf), ([nan, 1.0, 2.0], nan), ([inf, inf, 1.0], inf),
                 ([-inf, 2.0, 3.0, 1e300], -inf), ([1.0, 2.0, 4.0, 8.0, nan], nan)]
        for row, expected in cases:
            # A non-finite row leaves its finite neighbour alone.
            total = _compensated_row_sums(np.array([row, [0.5] * len(row)]))
            assert np.array_equal(total, [expected, 0.5 * len(row)], equal_nan=True), row


def test_evaluate_rows_pairs_leading_axes():
    rng = np.random.default_rng(20)
    size = len(multi_indices(2, 3))
    coeffs, points = rng.uniform(-1, 1, (3, 4, size)), rng.uniform(-1, 1, (3, 6, 2))
    values = evaluate_rows(coeffs, 2, 3, points)  # (F, R, C) and (F, M, N) give (F, M, R)
    assert values.shape == (3, 6, 4)
    for block, rows, block_points in zip(values, coeffs, points):
        for column, row in zip(block.T, rows):
            assert np.array_equal(column, MultiPoly(2, 3, row).evaluate_many(block_points))
    assert evaluate_rows(coeffs[0], 2, 3, points[0]).shape == (6, 4)
    assert np.array_equal(evaluate_rows(coeffs[0], 2, 3, points[0]), values[0])
    assert evaluate_rows(np.zeros((3, 4, size)), 2, 3, points).shape == (3, 6, 4)


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 1e-200, -1e-200, 5e-324]


def _exact_monomial(x, alpha) -> Fraction:
    return math.prod((Fraction(xi) ** ai for xi, ai in zip(x, alpha)), start=Fraction(1))


@settings(max_examples=150)
@given(data=st.data(), dimension=st.integers(1, 5), n_points=st.integers(0, 6))
def test_monomials_are_within_gamma_of_the_exact_products(data, dimension, n_points):
    coordinate = st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]),
                           st.floats(1e-3, 1e3))
    points = np.array(data.draw(st.lists(st.lists(coordinate, min_size=dimension,
                                                  max_size=dimension),
                                         min_size=n_points, max_size=n_points)),
                      dtype=float).reshape(n_points, dimension)
    table = exponent_array(dimension, 12)
    rows = data.draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=12))
    exponents = table[rows]
    mono = monomials(points, exponents)
    assert mono.shape == (n_points, len(rows))
    for x, values in zip(points.tolist(), mono.tolist()):
        for alpha, value in zip(exponents.tolist(), values):
            exact = _exact_monomial(x, alpha)
            roundings = sum(alpha) - 1
            if roundings <= 0:  # x^0 = 1 and x^(e_i) = x_i are exact
                assert value == exact and value == (x[alpha.index(1)] if roundings == 0 else 1.0)
                continue
            # |value - exact| <= gamma_n |exact|, gamma_n = n u / (1 - n u), in exact arithmetic.
            assert abs(Fraction(value) - exact) * (1 - roundings * UNIT_ROUNDOFF) \
                <= roundings * UNIT_ROUNDOFF * abs(exact)


def test_monomials_of_special_values_match_pow():
    x = np.array(SPECIAL)
    with np.errstate(all="ignore"):
        for k in range(13):
            got = monomials(x[:, None], np.array([[k]]))[:, 0]
            want = x ** k
            assert np.array_equal(got, want, equal_nan=True), k
            assert np.array_equal(np.signbit(got), np.signbit(want)), k
        assert monomials(x[:, None], np.array([[0]]))[:, 0].tolist() == [1.0] * len(SPECIAL)
        assert monomials(np.array([[1e200], [-1e200]]), np.array([[2], [3]])).tolist() == \
            [[math.inf, math.inf], [math.inf, -math.inf]]
        # Two variables: the gathered powers multiply in variable order, as x^a * y^b.
        pairs = np.array([(a, b) for a in SPECIAL for b in SPECIAL])
        exponents = exponent_array(2, 4)
        got = monomials(pairs, exponents)
        want = pairs[:, :1] ** exponents[:, 0] * pairs[:, 1:] ** exponents[:, 1]
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_monomials_of_no_points_and_of_the_zero_exponent_alone():
    assert monomials(np.empty((0, 3)), exponent_array(3, 4)).shape == (0, 35)
    points = np.random.default_rng(5).uniform(-2, 2, (4, 3))
    assert monomials(points, np.zeros((1, 3), dtype=np.intp)).tolist() == [[1.0]] * 4
    assert monomials(points, exponent_array(3, 0)).tolist() == [[1.0]] * 4


@settings(max_examples=40, deadline=None)
@given(n_dim=st.integers(1, 4), degree=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_dict_construction_places_each_coefficient_and_rejects_out_of_bound_indices(
        n_dim, degree, seed):
    rng = np.random.default_rng(seed)
    table = multi_indices(n_dim, degree)
    vector = rng.uniform(-1, 1, len(table)) * (rng.uniform(size=len(table)) < 0.6)
    vector[rng.integers(len(table))] = -0.0
    order = rng.permutation(len(table))[:rng.integers(len(table) + 1)]
    expected = np.zeros(len(table))
    expected[order] = vector[order]
    p = MultiPoly(n_dim, degree, {tuple(np.array(table[k])): vector[k] for k in order})
    assert p.coeffs.tobytes() == expected.tobytes()
    for bad in ((degree + 1,) + (0,) * (n_dim - 1), (-1,) + (0,) * (n_dim - 1),
                (0,) * (n_dim + 1)):
        with pytest.raises(ValueError, match="outside degree bound"):
            MultiPoly(n_dim, degree, {bad: 1.0})


def test_exponent_array_is_the_read_only_index_table():
    table = exponent_array(3, 4)
    assert [tuple(row) for row in table] == list(multi_indices(3, 4))
    assert not table.flags.writeable
    assert exponent_array(3, 4) is table
    trailing = table[-len(homogeneous_indices(3, 4)):]
    assert [tuple(row) for row in trailing] == list(homogeneous_indices(3, 4))


def _random_poly(rng, n_dim: int, degree: int) -> MultiPoly:
    """Sparse coefficients over six decades, with exact zeros and a few -0.0."""
    size = len(multi_indices(n_dim, degree))
    coeffs = rng.uniform(-1, 1, size) * 10.0 ** rng.uniform(-3, 3, size)
    coeffs[rng.uniform(size=size) < 0.3] = 0.0
    coeffs[rng.uniform(size=size) < 0.05] = -0.0
    return MultiPoly(n_dim, degree, coeffs)


def assert_identical(p: MultiPoly, q: MultiPoly):
    """Same dimension, degree bound and coefficient bits (signed zeros included)."""
    assert (p.dimension, p.degree) == (q.dimension, q.degree)
    assert p.coeffs.tobytes() == q.coeffs.tobytes()


poly_cases = given(n_dim=st.integers(1, 4), degree=st.integers(0, 6),
                   other_degree=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@poly_cases
def test_arithmetic_equals_exponent_tuple_oracle(n_dim, degree, other_degree, seed):
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, n_dim, degree)
    q = _random_poly(rng, n_dim, other_degree)
    assert_identical(p * q, dict_mul(p, q))
    assert_identical(p + q, dict_binary(p, q, 1.0))
    assert_identical(p - q, dict_binary(p, q, -1.0))
    v = rng.uniform(-2, 2, n_dim) * (rng.uniform(size=n_dim) < 0.8)
    assert_identical(p.directional(v), dict_directional(p, v))
    x = rng.uniform(-2, 2, n_dim)
    assert p.evaluate(x) == dict_evaluate(p, x)


@settings(max_examples=25, deadline=None)
@poly_cases
def test_substitute_and_taylor_equal_exponent_tuple_oracle(n_dim, degree, other_degree, seed):
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, n_dim, degree)
    new_dim = int(rng.integers(1, 4))
    replacements = [_random_poly(rng, new_dim, int(rng.integers(0, 3))) for _ in range(n_dim)]
    assert_identical(substitute(p, replacements), dict_substitute(p, replacements))
    center = rng.uniform(-1, 1, n_dim)
    for f in (PolynomialFunction(p), ExpAffine(rng.uniform(-1, 1, n_dim), shift=0.3)):
        assert_identical(taylor(f, center, other_degree), dict_taylor(f, center, other_degree))


def test_product_with_an_infinite_coefficient_makes_no_nan():
    p = MultiPoly(2, 1, {(0, 0): 1.0, (1, 0): math.inf})
    q = MultiPoly(2, 2, {(0, 0): 2.0, (0, 2): -1.0})  # zero coefficients between
    prod = p * q
    assert not np.isnan(prod.coeffs).any()
    assert prod.coefficient((1, 2)) == -math.inf
    assert prod.coefficient((1, 1)) == 0.0
    assert_identical(prod, dict_mul(p, q))
    for v in ([1.0, 0.0], [0.0, 1.0]):
        assert not np.isnan(p.directional(v).coeffs).any()
        assert_identical(p.directional(v), dict_directional(p, v))


def test_multipoly_directional_matches_finite_differences():
    rng = np.random.default_rng(31)
    p = MultiPoly(3, 3, random_poly_coeffs(rng, multi_indices(3, 3)))
    f = PolynomialFunction(p)
    x = rng.uniform(-1, 1, 3)
    v, w = rng.uniform(-1, 1, (2, 3))
    exact = f.directional_derivative(x, [v, w])
    approx = finite_difference_directional(lambda z: p.evaluate(z), x, [v, w], h=1e-4)
    assert exact == pytest.approx(approx, abs=1e-6)


def test_substitute_composes_polynomials():
    rng = np.random.default_rng(37)
    p = MultiPoly(2, 3, random_poly_coeffs(rng, multi_indices(2, 3)))
    r1 = MultiPoly(2, 1, {(0, 0): 0.5, (1, 0): 1.0, (0, 1): -1.0})
    r2 = MultiPoly(2, 1, {(0, 0): -0.2, (1, 0): 2.0})
    q = substitute(p, [r1, r2])
    y = rng.uniform(-1, 1, 2)
    assert q.evaluate(y) == pytest.approx(
        p.evaluate([r1.evaluate(y), r2.evaluate(y)]), rel=1e-12)


def test_taylor_of_exponential_order_one():
    t = taylor(ExpAffine([1.0, 1.0]), [0.0, 0.0], 1)
    assert t.coefficient((0, 0)) == pytest.approx(1.0)
    assert t.coefficient((1, 0)) == pytest.approx(1.0)
    assert t.coefficient((0, 1)) == pytest.approx(1.0)


def test_taylor_fixes_polynomials():
    rng = np.random.default_rng(41)
    for n_dim, d in [(2, 3), (3, 2)]:
        p = MultiPoly(n_dim, d, random_poly_coeffs(rng, multi_indices(n_dim, d)))
        f = PolynomialFunction(p)
        center = rng.uniform(-0.5, 0.5, n_dim)
        t = taylor(f, center, d)
        assert t.coeff_distance(p) <= 1e-12 * max(1.0, p.max_abs_coeff())


@pytest.mark.parametrize("f", [ExpAffine([1.0, -0.5]), SinAffine([0.7, 0.2], 0.0),
                               SinAffine([0.3, -1.1], 0.4)], ids=["exp", "sin", "sin-shifted"])
def test_taylor_at_the_origin_equals_the_re_expanded_identity_shift(f):
    # At the origin the shift x - 0 is the identity: re-expanding through
    # substitute only turns -0.0 coefficients into +0.0, as the direct path does.
    for order in range(5):
        direct = taylor(f, np.zeros(2), order)
        identity = [MultiPoly.affine(basis_vector(2, i), 0.0) for i in range(2)]
        expanded = substitute(direct, identity).coeffs
        assert direct.coeffs.tobytes() == np.pad(expanded, (0, direct.coeffs.size - expanded.size)).tobytes()
        assert not np.signbit(direct.coeffs[direct.coeffs == 0.0]).any()


_COMPONENT = st.one_of(st.just(0.0), st.sampled_from([1.0, -1.0, 0.5, -2.0]),
                       st.floats(-2.0, 2.0, allow_subnormal=False))


@settings(max_examples=200)
@given(data=st.data(), dimension=st.integers(1, 4), planes=st.integers(1, 5),
       rows=st.integers(1, 4), count=st.integers(0, 4), homogeneous=st.booleans())
def test_affine_products_equal_the_chained_product(data, dimension, planes, rows, count,
                                                     homogeneous):
    # Byte for byte, zero signs included: zero normal components, homogeneous
    # forms (zero offsets) and rows padded to fewer factors (-1 entries).
    normals = np.array(data.draw(st.lists(st.lists(_COMPONENT, min_size=dimension,
                                                   max_size=dimension),
                                          min_size=planes, max_size=planes)))
    offsets = np.zeros(planes) if homogeneous else np.array(
        data.draw(st.lists(_COMPONENT, min_size=planes, max_size=planes)))
    factors = np.array(data.draw(st.lists(st.lists(st.integers(-1, planes - 1), min_size=count,
                                                   max_size=count),
                                          min_size=rows, max_size=rows)), dtype=int)
    scale = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=rows, max_size=rows)))
    degree, coeffs = affine_products(normals, offsets, factors.reshape(rows, count), scale)
    chain = chained_affine_products(normals, offsets, factors.reshape(rows, count), scale)
    assert degree == max(p.degree for p in chain)
    expected = np.zeros((rows, len(multi_indices(dimension, degree))))
    for row, p in zip(expected, chain):
        row[:p.coeffs.size] = p.coeffs
    assert coeffs.tobytes() == expected.tobytes()


def test_taylor_truncates_higher_degree():
    t = taylor(PolynomialFunction.monomial(2, (2, 0)), [0.0, 0.0], 1)
    assert t.is_zero()


def test_taylor_is_idempotent():
    rng = np.random.default_rng(43)
    f = ExpAffine([1.0, -0.5])
    t1 = taylor(f, [0.0, 0.0], 3)
    t2 = taylor(PolynomialFunction(t1), [0.0, 0.0], 3)
    assert t1.coeff_distance(t2) <= 1e-12


AFFINE_EXPONENTS = [(0, 0), (1, 0), (0, 1)]


def _vandermonde(points, exponents) -> float:
    """det(a_j^alpha_i) from the monomial matrix, as `cy verify` takes its |VDM|."""
    return float(np.linalg.det(monomials(np.asarray(points, dtype=float), np.array(exponents))))


def test_vandermonde_unit_triangle():
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    value = _vandermonde(points, AFFINE_EXPONENTS)
    assert value == pytest.approx(1.0)
    assert value == pytest.approx(brute_force_vandermonde_3x3(points))


def test_vandermonde_repeated_point_vanishes():
    points = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)]
    assert _vandermonde(points, AFFINE_EXPONENTS) == pytest.approx(0.0, abs=1e-14)


def test_vandermonde_antisymmetric_under_swap():
    rng = np.random.default_rng(47)
    points = [rng.uniform(-1, 1, 2) for _ in range(3)]
    v1 = _vandermonde(points, AFFINE_EXPONENTS)
    v2 = _vandermonde([points[1], points[0], points[2]], AFFINE_EXPONENTS)
    assert v2 == pytest.approx(-v1, rel=1e-12)
    assert v1 == pytest.approx(brute_force_vandermonde_3x3(points), rel=1e-12)


def test_vandermonde_direction_set_nonzero():
    # the n_K set of a lattice is unisolvent for homogeneous degree d-N+1
    rng = np.random.default_rng(53)
    family = spread_family(rng, 2, 3)
    lines = ChungYaoLattice(family).line_subsets()
    assert abs(_vandermonde(lines.directions, homogeneous_indices(2, 2))) > 1e-8


def test_polarize_examples():
    # phi(v_1, ..., v_m) fixes every argument of the form with diagonal p.
    for alpha, vectors, want in (((2, 0), [(1, 0), (1, 0)], 1.0),
                                 ((1, 1), [(1, 0), (0, 1)], 0.5)):
        phi = SymmetricForm(2, 2, MultiPoly.monomial(2, alpha))
        assert phi.fix(*vectors).diagonal.coeffs[0] == pytest.approx(want)


def test_polarize_rejects_inhomogeneous():
    p = MultiPoly(2, 2, {(0, 0): 1.0, (2, 0): 1.0})
    with pytest.raises(ValueError):
        SymmetricForm(2, 2, p)


def test_polarize_symmetry_and_diagonal():
    rng = np.random.default_rng(59)
    m = 3
    p = MultiPoly(2, m, random_poly_coeffs(rng, homogeneous_indices(2, m)))
    phi = SymmetricForm(m, 2, p)
    vectors = [rng.uniform(-1, 1, 2) for _ in range(m)]
    base = phi.fix(*vectors).diagonal.coeffs[0]
    for perm in permutations(range(m)):
        assert phi.fix(*[vectors[i] for i in perm]).diagonal.coeffs[0] == pytest.approx(
            base, abs=1e-14)
    v = rng.uniform(-1, 1, 2)
    diag = phi.fix(*[v] * m).diagonal.coeffs[0]
    assert diag == pytest.approx(p.evaluate(v), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(2, 3), m=st.integers(1, 6),
       data=st.data())
def test_contracted_forms_agree_with_the_pointwise_oracle(seed, n_dim, m, data):
    # Fixing k arguments leaves the order m - k form whose diagonal at x is
    # phi(v_1, ..., v_k, x, ..., x); mixed values fix all m.
    k = data.draw(st.integers(0, m))
    rng = np.random.default_rng(seed)
    p = MultiPoly(n_dim, m, random_poly_coeffs(rng, homogeneous_indices(n_dim, m)))
    phi = SymmetricForm(m, n_dim, p)
    fixed = list(rng.uniform(-1, 1, (k, n_dim)))
    x = rng.uniform(-1, 1, n_dim)
    rest = phi.fix(*fixed)
    assert rest.order == m - k and rest.diagonal.is_homogeneous(m - k)
    want = pointwise_polarize(p, fixed + [x] * (m - k))
    assert abs(rest.diagonal.evaluate_many(x[None])[0] - want) <= 1e-12 * max(1.0, abs(want))
    mixed = list(rng.uniform(-1, 1, (m, n_dim)))
    want = pointwise_polarize(p, mixed)
    assert abs(phi(*mixed) - want) <= 1e-12 * max(1.0, abs(want))


def test_symmetric_form_multilinearity():
    rng = np.random.default_rng(61)
    m = 3
    p = MultiPoly(3, m, random_poly_coeffs(rng, homogeneous_indices(3, m)))
    phi = SymmetricForm(m, 3, p)
    u, w, z, extra = rng.uniform(-1, 1, (4, 3))
    a, b = 0.7, -1.3
    left = phi(a * u + b * extra, w, z)
    right = a * phi(u, w, z) + b * phi(extra, w, z)
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


def test_derivative_form_examples():
    # second derivative of x1^2 is the constant form 2 v1 w1
    phi = derivative_form(PolynomialFunction.monomial(2, (2, 0)), [0.4, -0.3], 2)
    assert phi((1, 0), (1, 0)) == pytest.approx(2.0)
    assert phi((0, 1), (0, 1)) == pytest.approx(0.0, abs=1e-15)

    # first derivative of a linear form is the form itself
    c = np.array([1.5, -2.0])
    f_lin = PolynomialFunction(MultiPoly.linear(c))
    for a in ([0.0, 0.0], [3.0, -1.0]):
        phi = derivative_form(f_lin, a, 1)
        v = np.array([0.3, 0.9])
        assert phi(v) == pytest.approx(float(c @ v))

    # third derivative of exp(<c, x>) at 0 on the diagonal is <c, v>^3
    c = np.array([0.8, -1.1])
    phi = derivative_form(ExpAffine(c), [0.0, 0.0], 3)
    v = np.array([0.4, 0.7])
    assert phi(v, v, v) == pytest.approx(float(c @ v) ** 3, rel=1e-12)
