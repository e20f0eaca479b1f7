import dataclasses
import math
import re
import tracemalloc
from itertools import combinations
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cylattice import (
    ChungYaoLattice,
    CosAffine,
    ExpAffine,
    HyperplaneFamily,
    LinearCombination,
    MultiPoly,
    PolynomialFunction,
    Product,
    RestrictedOrder,
    SinAffine,
    ball_grid,
    cardinal_polynomial,
    deboor_identity_residual,
    deboor_remainder,
    homogeneous_indices,
    homogeneous_representation,
    interpolate,
    multi_indices,
    newton_identity,
    pk_polynomial,
    random_family,
    remainder_sign_flip_deviation,
    techobserv_check,
    transform_family,
    unit_triangle_family,
)
from cylattice import chungyao
from cylattice.chungyao import cardinal_table, newton_pk_table, pk_table
from cylattice.config import load_config
from cylattice.convergence import ball_grid
from cylattice.errors import ConditioningError, DegenerateSubsetError, DerivativeOrderError
from cylattice.poly import evaluate_rows, exponent_array, monomials

from cylattice.geometry import _solve_stack, direction_vector, subset_index

from helpers import (ExpandedTable, Hyperplane, cardinal_rows_per_plane, chained_pk,
                     deboor_remainder_oracle, evaluate_factored, expanded, form_value,
                     index_tables_per_family, monomial_form, pk_rows_per_table,
                     pk_tables_per_table, plane_arrays, pointwise_newton_identity, random_form,
                     random_poly_coeffs, row_sums_within_bound, spread_family,
                     taylor_error_decomposition, vertex_items)

CONFIG_DIR = Path(chungyao.__file__).parent / "configs"


@pytest.fixture(scope="module")
def unit_triangle():
    family = unit_triangle_family()
    return family, ChungYaoLattice(family)


def test_cardinal_polynomial_unit_triangle(unit_triangle):
    family, lattice = unit_triangle
    # vertex (0, 0) = intersection of the first two lines; the remaining
    # factor is the third line normalized at the origin: 1 - x1 - x2
    card = cardinal_polynomial(lattice, (0, 1))
    assert card.coeffs.tolist() == pytest.approx([1.0, -1.0, -1.0])  # 1, x2, x1


def test_cardinal_kronecker_property():
    rng = np.random.default_rng(101)
    for n_dim, d in [(2, 4), (3, 5)]:
        lattice = ChungYaoLattice(spread_family(rng, n_dim, d))
        for subset, _ in vertex_items(lattice):
            card = cardinal_polynomial(lattice, subset)
            for other, theta in vertex_items(lattice):
                expected = 1.0 if other == subset else 0.0
                assert abs(card.evaluate(theta) - expected) <= 1e-10


def test_cardinals_sum_to_one():
    rng = np.random.default_rng(103)
    lattice = ChungYaoLattice(spread_family(rng, 2, 5))
    total = sum(cardinal_polynomial(lattice, subset).coeffs for subset, _ in vertex_items(lattice))
    assert MultiPoly(2, lattice.degree, total).coeff_distance(MultiPoly(2, 0, [1.0])) <= 1e-10


EPS = np.finfo(float).eps


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), dimension=st.integers(1, 4), degree=st.integers(0, 8),
       rows=st.integers(1, 5))
def test_table_magnitude_bounds_the_value_and_equals_it_without_signs(seed, dimension, degree,
                                                                     rows):
    rng = np.random.default_rng(seed)
    size = len(multi_indices(dimension, degree))
    coeffs = rng.uniform(-1, 1, (rows, size)) * 10.0 ** rng.uniform(-3, 3, (rows, size))
    coeffs[rng.uniform(size=coeffs.shape) < 0.3] = 0.0
    table = ExpandedTable(tuple(range(rows)), dimension, degree, coeffs)
    points = rng.uniform(-2, 2, (7, dimension))
    magnitude = table.magnitude(points)
    assert magnitude.shape == (7, rows)
    # Both are compensated sums of the same |terms|, each within an ulp or so of exact.
    assert np.all(np.abs(table(points)) <= magnitude * (1 + 2 * EPS))
    unsigned = ExpandedTable(table.terms, dimension, degree, np.abs(coeffs))
    assert np.array_equal(unsigned.magnitude(np.abs(points)), unsigned(np.abs(points)))
    assert np.array_equal(unsigned.magnitude(points), magnitude)


@pytest.mark.parametrize("build", [
    lambda: load_config(CONFIG_DIR / "unit_triangle.json").family(),
    lambda: load_config(CONFIG_DIR / "random_n3_d4.json").family(),
    lambda: spread_family(np.random.default_rng(103), 2, 8),  # degree 6, scale 2.4e6
    lambda: spread_family(np.random.default_rng(103), 3, 7),  # degree 4
], ids=["unit_triangle", "random_n3_d4", "spread_n2_8", "spread_n3_7"])
def test_lebesgue_function_is_one_at_every_vertex(build):
    lattice = ChungYaoLattice(build())
    table = cardinal_table(lattice)
    vertices = np.array([lattice.vertex(h) for h in table.terms])
    values, magnitude = table(vertices), expanded(table).magnitude(vertices)
    # Row G holds l_H(theta_G) for every H: the Kronecker delta, up to rounding.
    lebesgue = np.array([math.fsum(row) for row in np.abs(values)])
    scale = magnitude.sum(axis=1)
    assert np.all(np.abs(lebesgue - 1.0) <= 4 * (lattice.degree + 1) * EPS * scale)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n_dim=st.integers(2, 3), m=st.integers(1, 5))
def test_lebesgue_function_is_at_least_one(seed, n_dim, m):
    # sum_H l_H(x) = 1, so sum_H |l_H(x)| >= 1 up to the rounding of the
    # computed l_H(x), at most c u sum_H |l_H|(|x|) with c = 4 (degree + 1)
    # (in units of eps = 2u), as at the vertices.
    rng = np.random.default_rng(seed)
    lattice = ChungYaoLattice(random_family(rng, n_dim, n_dim + m - 1, min_subset_det=0.05))
    table = cardinal_table(lattice)
    points = np.vstack([ball_grid(n_dim, 1.0, 7), rng.uniform(-2, 2, (20, n_dim))])
    lebesgue = np.abs(table(points)).sum(axis=1)
    scale = expanded(table).magnitude(points).sum(axis=1)
    assert np.all(lebesgue >= 1.0 - 4 * (lattice.degree + 1) * EPS * scale)


def _denominator_condition(lattice) -> float:
    """max over H of the sum over j outside H of (||theta_H|| + |c_j|) / |l_j(theta_H)|.

    Rounding plane j, or the vertex theta_H, by a relative u moves the
    cardinal denominator l_j(theta_H) by about u (||theta_H|| + |c_j|).
    """
    family = lattice.family
    theta, offsets = lattice.vertex_array(), family.offsets()
    outside = np.ones((len(theta), family.count), dtype=bool)
    np.put_along_axis(outside, family.report.subsets, False, axis=1)
    spread = np.linalg.norm(theta, axis=1)[:, None] + np.abs(offsets)
    values = np.abs(theta @ family.normal_matrix().T - offsets)
    ratios = np.divide(spread, values, out=np.zeros_like(values), where=outside)
    return float(np.max(ratios.sum(axis=1)))


def _rounding_scale(lattice, interpolant, points) -> np.ndarray:
    """sum_H |f(theta_H)| |l_H|(|x|) at each point, from the cardinal table."""
    values = np.abs(interpolant.values)
    return expanded(cardinal_table(lattice)).magnitude(points) @ values


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n_dim=st.integers(2, 3), m=st.integers(1, 5))
def test_interpolation_is_affine_covariant(seed, n_dim, m):
    # L_{A(Theta)}[f](A x) = L_Theta[f o A](x) for A(x) = L x + b, with the
    # image lattice from transform_family.  For f = ExpAffine(c, shift),
    # f o A = ExpAffine(L^T c, <c, b> + shift).  Each side is within
    # c u sum_H |f(theta_H)| |l_H|(|x|) on its own lattice, c = 4 (degree + 1)
    # (in units of eps = 2u), once that scale is widened by what the rounded
    # image planes and vertices do to the cardinal denominators
    # (_denominator_condition of both lattices) and to f at the vertices
    # (|c| times the image lattice norm).
    rng = np.random.default_rng(seed)
    family = random_family(rng, n_dim, n_dim + m - 1, min_subset_det=0.05)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n_dim, n_dim)))[0] for _ in range(2))
    mat = q1 @ np.diag(rng.uniform(0.5, 2.0, n_dim)) @ q2
    b = rng.uniform(-1.0, 1.0, n_dim)
    c, shift = rng.uniform(-1.0, 1.0, n_dim), float(rng.uniform(-0.5, 0.5))
    lattice = ChungYaoLattice(family)
    image = ChungYaoLattice(transform_family(family, mat, b))
    xs = np.vstack([ball_grid(n_dim, 1.0, 5), rng.uniform(-1.0, 1.0, (5, n_dim))])
    ys = xs @ mat.T + b
    on_image = interpolate(image, ExpAffine(c, shift))
    on_base = interpolate(lattice, ExpAffine(mat.T @ c, float(c @ b) + shift))
    error = np.abs(on_image.polynomial.evaluate_many(ys) - on_base.polynomial.evaluate_many(xs))
    scale = _rounding_scale(image, on_image, ys) + _rounding_scale(lattice, on_base, xs)
    widen = (1.0 + _denominator_condition(image) + _denominator_condition(lattice)
             + np.linalg.norm(c) * image.norm())
    assert np.all(error <= 4 * (lattice.degree + 1) * EPS * widen * scale)


def test_cardinal_degeneracy_error():
    # three concurrent lines pass the determinant check but put every vertex
    # on an extra hyperplane; with deduplication disabled the cardinal
    # polynomial must refuse the division
    planes = [
        Hyperplane([1.0, 0.0], 0.0),
        Hyperplane([0.0, 1.0], 0.0),
        Hyperplane([1.0, 1.0], 0.0),
    ]
    family = HyperplaneFamily(*plane_arrays(planes), dedup_tolerance=-1.0)
    lattice = ChungYaoLattice(family)
    message = r"vertex \(0, 1\) lies on hyperplane 2"
    with pytest.raises(DegenerateSubsetError, match=message):
        cardinal_polynomial(lattice, (0, 1))
    with pytest.raises(DegenerateSubsetError, match=message):
        cardinal_table(lattice)
    with pytest.raises(DegenerateSubsetError, match=message):
        interpolate(lattice, ExpAffine([1.0, 1.0]))
    assert lattice.cardinals is None


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n_dim=st.integers(1, 5), degree=st.integers(0, 4))
def test_cardinal_table_equals_the_per_plane_build(seed, n_dim, degree):
    family = random_family(np.random.default_rng(seed), n_dim, n_dim + degree)
    planes = [Hyperplane(n, c) for n, c in zip(family.normal_matrix(), family.offsets())]
    lattice = ChungYaoLattice(family)
    table = cardinal_table(lattice)
    assert table.terms == tuple(h for h, _ in vertex_items(lattice))
    assert not table.coeffs.flags.writeable
    assert np.array_equal(table.coeffs, cardinal_rows_per_plane(lattice, planes))
    for row, h in zip(table.coeffs, table.terms):
        card = cardinal_polynomial(lattice, h[::-1])
        assert card.degree == table.degree and np.array_equal(card.coeffs, row)


def test_interpolation_reproduces_affine_function(unit_triangle):
    _, lattice = unit_triangle
    p = MultiPoly(2, 1, {(0, 0): 1.0, (1, 0): 2.0, (0, 1): -1.0})
    interp = interpolate(lattice, PolynomialFunction(p))
    assert interp.polynomial.coeff_distance(p) <= 1e-12


def test_interpolation_projector_on_random_polynomials():
    rng = np.random.default_rng(107)
    family = spread_family(rng, 2, 5)
    lattice = ChungYaoLattice(family)
    p = MultiPoly(2, 3, random_poly_coeffs(rng, multi_indices(2, 3)))
    interp = interpolate(lattice, PolynomialFunction(p))
    assert interp.polynomial.coeff_distance(p) <= 1e-9 * max(1.0, p.max_abs_coeff())


def test_interpolation_is_idempotent():
    rng = np.random.default_rng(109)
    lattice = ChungYaoLattice(spread_family(rng, 2, 4))
    f = ExpAffine([1.0, 1.0])
    once = interpolate(lattice, f)
    twice = interpolate(lattice, PolynomialFunction(once.polynomial))
    assert once.polynomial.coeff_distance(twice.polynomial) <= 1e-9



@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(2, 3), extra=st.integers(0, 3),
       data=st.data())
def test_interpolant_is_invariant_under_hyperplane_permutation(seed, n_dim, extra, data):
    # L[f] depends on the set of hyperplanes, not on their order.
    family = random_family(np.random.default_rng(seed), n_dim, n_dim + extra,
                           min_subset_det=0.05)
    order = data.draw(st.permutations(range(family.count)))
    permuted = HyperplaneFamily(family.normal_matrix()[order], family.offsets()[order],
                                det_tolerance=family.det_tolerance)
    f = ExpAffine(np.linspace(0.7, -0.4, n_dim), shift=0.1)
    expected = interpolate(ChungYaoLattice(family), f).polynomial.coeffs
    got = interpolate(ChungYaoLattice(permuted), f).polynomial.coeffs
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))

def test_interpolation_accepts_value_table_and_matches_factored_path():
    rng = np.random.default_rng(113)
    lattice = ChungYaoLattice(spread_family(rng, 2, 4))
    values = rng.uniform(-1, 1, len(lattice.vertices))
    interp = interpolate(lattice, values)
    assert np.array_equal(interp.values, values) and not interp.values.flags.writeable
    assert interp.vertex_residual() <= 1e-9
    x = rng.uniform(-1, 1, 2)
    assert interp.polynomial.evaluate(x) == pytest.approx(
        evaluate_factored(interp, x), rel=1e-10, abs=1e-12)


def test_interpolation_rejects_non_finite_data():
    # A non-finite vertex value, and a finite one whose weighted cardinal
    # coefficients overflow: on the triangle x1 = 0, x2 = 0, x1 + x2 = 0.1
    # the cardinals have coefficients of size 10.
    lattice = ChungYaoLattice(HyperplaneFamily(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 0.1])))
    subsets = [h for h, _ in vertex_items(lattice)]
    for bad, match in ((float("inf"), "the value f"), (float("nan"), "the value f"),
                       (1e308, "has a coefficient that is not finite")):
        values = [1.0] * len(subsets)
        values[1] = bad
        with pytest.raises(ConditioningError) as exc:
            interpolate(lattice, values)
        assert str(exc.value).startswith(f"vertex H={subsets[1]}: ")
        assert match in str(exc.value)


def test_interpolation_raises_when_a_coefficient_sum_overflows():
    # Every weighted cardinal coefficient is finite, but on the N = 1 planes
    # x = 0 and x = 1 (cardinals 1 - x and x) the x column sums to -3.4e308.
    lattice = ChungYaoLattice(HyperplaneFamily([[1.0], [1.0]], [0.0, 1.0]))
    with pytest.raises(ConditioningError, match=r"^coefficient of x\^\(1,\): .* overflows"):
        interpolate(lattice, [1.7e308, -1.7e308])
    assert interpolate(lattice, [1.7e308, 1.7e308]).polynomial.coeffs.tolist() == [
        1.7e308, 0.0]


def test_interpolant_vertex_match(unit_triangle):
    _, lattice = unit_triangle
    interp = interpolate(lattice, ExpAffine([1.0, 1.0]))
    assert interp.vertex_residual() <= 1e-9


def test_pk_polynomial_structure():
    rng = np.random.default_rng(127)
    family = spread_family(rng, 2, 5)
    lines = ChungYaoLattice(family).line_subsets()
    for k in lines.indices:
        pk = pk_polynomial(family, k)
        assert pk.total_degree() == family.count - family.dimension + 1
        # homogeneous variant interpolates the direction set
        hk = pk_polynomial(family, k, homogeneous=True)
        for other, n_other in zip(lines.indices, lines.directions):
            expected = 1.0 if other == k else 0.0
            assert abs(hk.evaluate(n_other) - expected) <= 1e-10
    # truncated product over the first i-1 planes has degree i - N
    pk = pk_polynomial(family, (0,), upto=3)
    assert pk.total_degree() == 3 - 2 + 1
    # empty product: K covers the whole truncation
    pk = pk_polynomial(family, (0,), upto=1)
    assert pk.coeff_distance(MultiPoly(2, 0, [1.0])) == 0.0


def test_pk_polynomial_and_direction_are_built_once_per_family(monkeypatch):
    rng = np.random.default_rng(131)
    family = spread_family(rng, 3, 5)
    lattice = ChungYaoLattice(family)
    builds = []
    expand = chungyao.affine_products
    monkeypatch.setattr(chungyao, "affine_products",
                        lambda *args: builds.append(np.asarray(args[2]).tolist()) or expand(*args))
    f = PolynomialFunction.monomial(3, (3, 0, 0))
    x = np.array([0.1, -0.2, 0.3])
    v = np.array([0.4, 0.1, -0.5])
    phi = monomial_form(3, (1, 1, 1))
    for _ in range(2):
        deboor_remainder(lattice, f, x)
        remainder_sign_flip_deviation(lattice, f, x)
        homogeneous_representation(family, phi, v)
        newton_identity(family, phi, x, lattice=lattice)
        techobserv_check(family, (0,))
    # The plain and the homogeneous full tables, the staged table and the
    # truncated homogeneous one are built once each, into family.pk_tables,
    # from the ell~_j(n_K) kept in family.pk_chain; the sign-flip check reads
    # the full table, times (-1)^m over -n_K.  Each is evaluated as a product
    # of its factors, with no expansion.  `deboor_remainder` interpolates,
    # which expands the lattice's cardinal table once.
    assert len(family.pk_tables) == 4
    assert builds == [[[j for j in range(family.count) if j not in h]
                       for h, _ in vertex_items(lattice)]]
    fresh = HyperplaneFamily(family.normal_matrix(), family.offsets())
    for key, table in list(family.pk_tables.items()):
        assert not table.coeffs.flags.writeable
        upto, homogeneous = (family.count + 1, False) if key == "newton" else key
        for r, term in enumerate(table.terms):
            stage_upto, k_idx = (term[0] - 1, term[1]) if key == "newton" else (upto, term)
            assert np.shares_memory(family.direction(k_idx), family.line_directions())
            assert not family.direction(k_idx).flags.writeable
            assert np.array_equal(family.direction(k_idx), fresh.direction(k_idx))
            pk = pk_polynomial(family, k_idx, stage_upto, homogeneous)
            assert np.array_equal(pk.coeffs, table.coeffs[r, :pk.coeffs.size])
            rebuilt = pk_polynomial(fresh, k_idx, stage_upto, homogeneous)
            assert rebuilt.degree == pk.degree
            assert np.array_equal(rebuilt.coeffs, pk.coeffs)
            # The chained product differs at most by the rounding of 1/denominator.
            chain = chained_pk(family, k_idx, stage_upto, homogeneous)
            assert chain.degree == pk.degree
            np.testing.assert_allclose(pk.coeffs, chain.coeffs, rtol=1e-14, atol=0.0)


def test_remainder_vanishes_for_low_degree_polynomials():
    rng = np.random.default_rng(131)
    family = spread_family(rng, 2, 4)
    lattice = ChungYaoLattice(family)
    p = MultiPoly(2, 2, random_poly_coeffs(rng, multi_indices(2, 2)))
    f = PolynomialFunction(p)
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        dec = deboor_remainder(lattice, f, x)
        assert np.all(dec.factors == 0.0)
        assert dec.residual() <= 1e-12 * max(1.0, abs(dec.function_value))


def test_remainder_exact_for_critical_monomial():
    # |alpha| = d - N + 1: the divided difference collapses to n_K^alpha
    rng = np.random.default_rng(137)
    family = spread_family(rng, 2, 4)
    lattice = ChungYaoLattice(family)
    m = family.count - family.dimension + 1
    alpha = (m - 1, 1)
    f = PolynomialFunction.monomial(2, alpha)
    lines = lattice.line_subsets()
    for _ in range(5):
        x = rng.uniform(-0.7, 0.7, 2)
        dec = deboor_remainder(lattice, f, x)
        assert dec.relative_residual() <= 1e-9
        for dd, n_k in zip(dec.factors, lines.directions, strict=True):
            nk_alpha = n_k[0] ** alpha[0] * n_k[1] ** alpha[1]
            assert dd == pytest.approx(nk_alpha, rel=1e-12, abs=1e-15)


def test_remainder_quadrature_path_exponential(unit_triangle):
    _, lattice = unit_triangle
    f = ExpAffine([1.0, 1.0])
    dec = deboor_remainder(lattice, f, np.array([0.3, 0.2]))
    assert dec.residual() <= 1e-8


def test_remainder_sign_flip_invariance():
    rng = np.random.default_rng(139)
    lattice = ChungYaoLattice(spread_family(rng, 2, 4))
    f = PolynomialFunction.monomial(2, (3, 0))
    xs = rng.uniform(-0.5, 0.5, (3, 2))
    worst = max(remainder_sign_flip_deviation(lattice, f, x) for x in xs)
    assert worst <= 1e-12
    assert remainder_sign_flip_deviation(lattice, f, xs) == worst


def _remainder_cases(rng, n_dim, m):
    """f on each path of the batched remainder: ridges, exact, and GM fallback."""
    def affine():
        return rng.uniform(-1.0, 1.0, n_dim), float(rng.uniform(-0.5, 0.5))

    exp, sin, cos = ExpAffine(*affine()), SinAffine(*affine()), CosAffine(*affine())
    alpha = [0] * n_dim
    alpha[0], alpha[-1] = m - 1, 1
    return {
        "exp*sin": Product(exp, sin),
        "cos": cos,
        "combination": LinearCombination([(0.7, exp), (-1.3, cos), (2.0, Product(sin, cos))]),
        "monomial": PolynomialFunction.monomial(n_dim, alpha),
        "polynomial": PolynomialFunction(
            MultiPoly(n_dim, m + 1, random_poly_coeffs(rng, multi_indices(n_dim, m + 1)))),
        "polynomial*exp": Product(PolynomialFunction.monomial(n_dim, [1] + [0] * (n_dim - 1)), exp),
    }


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(2, 3), m=st.integers(1, 4),
       batch=st.sampled_from((1, 4)),
       kind=st.sampled_from(("exp*sin", "cos", "combination", "monomial", "polynomial",
                             "polynomial*exp")))
def test_batched_remainder_terms_agree_with_the_pointwise_oracle(seed, n_dim, m, batch, kind):
    rng = np.random.default_rng(seed)
    lattice = ChungYaoLattice(random_family(rng, n_dim, n_dim + m - 1, min_subset_det=0.05))
    f = _remainder_cases(rng, n_dim, m)[kind]
    xs = rng.uniform(-1.0, 1.0, (batch, n_dim))
    dec = deboor_remainder(lattice, f, xs)
    assert dec.factors.shape == dec.pk_values.shape == (batch, len(lattice.line_subsets()))
    for r, x in enumerate(xs):
        oracle = deboor_remainder_oracle(lattice, f, x)
        assert dec.terms == oracle.terms
        assert dec.function_value[r] == oracle.function_value
        assert dec.interpolant_value[r] == oracle.interpolant_value
        # Conjugate ridges can cancel within one term, so each term is held
        # to the largest term of its decomposition.
        scale = np.max(np.abs(oracle.factors))
        assert np.all(np.abs(dec.pk_values[r] - oracle.pk_values)
                      <= 1e-12 * np.maximum(1.0, np.abs(oracle.pk_values)))
        assert np.all(np.abs(dec.factors[r] - oracle.factors) <= 1e-12 * scale)


def test_remainder_takes_one_point_or_a_batch():
    rng = np.random.default_rng(163)
    lattice = ChungYaoLattice(spread_family(rng, 3, 5))
    f = _remainder_cases(rng, 3, 3)["exp*sin"]
    xs = rng.uniform(-0.5, 0.5, (4, 3))
    single = deboor_remainder(lattice, f, xs[0])
    assert isinstance(single, chungyao.Decomposition)
    assert single.pk_values.shape == single.factors.shape == (len(single.terms),)
    batch = deboor_remainder(lattice, f, xs)
    assert batch.function_value.shape == batch.interpolant_value.shape == (len(xs),)
    assert batch.relative_residual().shape == (len(xs),)
    for r, x in enumerate(xs):
        alone = deboor_remainder(lattice, f, x)
        assert batch.terms == alone.terms
        assert (batch.function_value[r], batch.interpolant_value[r]) == \
            (alone.function_value, alone.interpolant_value)
        assert np.array_equal(batch.pk_values[r], alone.pk_values)
        assert np.array_equal(batch.factors[r], alone.factors)
    with pytest.raises(DerivativeOrderError):
        deboor_remainder(lattice, RestrictedOrder(f, max_order=2), xs)
    with pytest.raises(DerivativeOrderError):
        remainder_sign_flip_deviation(lattice, RestrictedOrder(f, max_order=2), xs)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("n_dim, count", [(2, 4), (2, 5), (3, 5), (3, 6)])
def test_batched_checks_equal_the_per_item_calls(n_dim, count):
    rng = np.random.default_rng(10 * n_dim + count)
    family = spread_family(rng, n_dim, count)
    lattice = ChungYaoLattice(family)
    m = count - n_dim + 1
    phis = [random_form(rng, n_dim, m) for _ in range(4)]

    vs = rng.uniform(-1, 1, size=(4, n_dim))
    assert _bits(homogeneous_representation(family, phis, vs)) == _bits(
        [homogeneous_representation(family, phi, v) for phi, v in zip(phis, vs)])

    xs = rng.uniform(-1, 1, size=(4, 3, n_dim))
    batch = newton_identity(family, phis, xs, lattice=lattice)
    assert batch.function_value.shape == (len(phis), 3)
    for f, (phi, points) in enumerate(zip(phis, xs)):
        single = newton_identity(family, phi, points, lattice=lattice)
        assert batch.terms == single.terms
        for name in ("function_value", "pk_values", "factors"):
            assert _bits(getattr(batch, name)[f]) == _bits(getattr(single, name)), name

    k_primes = list(combinations(range(count - 1), n_dim - 2))
    for report, k_prime in zip(techobserv_check(family, k_primes), k_primes, strict=True):
        single = techobserv_check(family, k_prime)
        assert (report.k_prime, report.direction_subset) == (single.k_prime, single.direction_subset)
        assert report.indices == single.indices
        assert _bits(report.values) == _bits(single.values)

    xs = rng.uniform(-1, 1, size=(6, n_dim))
    subsets = family.report.subsets
    assert _bits(deboor_identity_residual(lattice, subsets, xs)) == _bits(
        [deboor_identity_residual(lattice, tuple(h), xs) for h in subsets.tolist()])


def test_homogeneous_representation_diagonal_case():
    rng = np.random.default_rng(149)
    family = spread_family(rng, 2, 4)
    m = family.count - family.dimension + 1
    phi = monomial_form(2, (m, 0))
    e1 = np.array([1.0, 0.0])
    assert homogeneous_representation(family, phi, e1) == pytest.approx(1.0, rel=1e-10)


def test_homogeneous_representation_collapses_at_direction():
    rng = np.random.default_rng(151)
    family = spread_family(rng, 2, 4)
    lattice = ChungYaoLattice(family)
    m = family.count - family.dimension + 1
    phi = random_form(rng, 2, m)
    n_k = lattice.line_subsets().directions[0]
    expect = form_value(phi, *([n_k] * m))
    assert homogeneous_representation(family, phi, n_k) == pytest.approx(
        expect, rel=1e-9, abs=1e-12)


def test_homogeneous_representation_random_sweep():
    rng = np.random.default_rng(157)
    family = spread_family(rng, 2, 4)
    m = family.count - family.dimension + 1
    phi = random_form(rng, 2, m)
    worst = 0.0
    for _ in range(50):
        v = rng.uniform(-1, 1, 2)
        lhs = form_value(phi, *([v] * m))
        rhs = homogeneous_representation(family, phi, v)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst <= 1e-9


def test_homogeneous_representation_order_mismatch():
    rng = np.random.default_rng(163)
    family = spread_family(rng, 2, 4)
    phi = random_form(rng, 2, 2)  # needs order 3 for d=4, N=2
    with pytest.raises(ValueError):
        homogeneous_representation(family, phi, np.array([1.0, 0.0]))


@pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), (2, 5), (1, 1, 4), ()])
def test_a_form_row_of_the_wrong_width_is_rejected(shape):
    # d=4, N=2: a form of order 3 has C(4, 3) = 4 diagonal coefficients.
    family = spread_family(np.random.default_rng(165), 2, 4)
    phi = np.ones(shape)
    message = re.escape(f"a form of order d - N + 1 = 3 on R^2 is a row of 4 coefficients, "
                        f"got shape {shape}")
    with pytest.raises(ValueError, match=message):
        homogeneous_representation(family, phi, np.ones(2))
    with pytest.raises(ValueError, match=message):
        newton_identity(family, phi, np.ones(2))


def test_newton_identity_reduces_to_deboor_for_minimal_family():
    rng = np.random.default_rng(167)
    family = spread_family(rng, 2, 2)
    lattice = ChungYaoLattice(family)
    c = rng.uniform(-1, 1, 2)
    phi = c[::-1]  # homogeneous_indices(2, 1) lists e_2, then e_1
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        dec = newton_identity(family, phi, x, lattice=lattice)
        assert abs(dec.total() - float(c @ x)) <= 1e-12
        # consistency with the geometric identity itself
        assert deboor_identity_residual(lattice, (0, 1), x) <= 1e-12


def test_newton_identity_at_origin_with_monomial_form():
    rng = np.random.default_rng(173)
    family = spread_family(rng, 2, 4)
    m = family.count - family.dimension + 1
    phi = monomial_form(2, (m, 0))
    dec = newton_identity(family, phi, np.zeros(2))
    assert dec.function_value == pytest.approx(0.0, abs=1e-15)
    assert abs(dec.total()) <= 1e-12


def test_newton_identity_random_sweep():
    rng = np.random.default_rng(179)
    for d in (3, 4, 5):
        family = spread_family(rng, 2, d)
        lattice = ChungYaoLattice(family)
        m = d - 1
        for _ in range(5):
            phi = random_form(rng, 2, m)
            for _ in range(5):
                x = rng.uniform(-1, 1, 2)
                dec = newton_identity(family, phi, x, lattice=lattice)
                assert dec.residual() <= 1e-9 * max(1.0, abs(dec.function_value))


def test_newton_identity_final_stage_matches_full_products():
    rng = np.random.default_rng(181)
    family = spread_family(rng, 2, 4)
    lattice = ChungYaoLattice(family)
    m = family.count - family.dimension + 1
    phi = random_form(rng, 2, m)
    x = rng.uniform(-1, 1, 2)
    dec = newton_identity(family, phi, x, lattice=lattice)
    final = {k: pk * form for (stage, k), pk, form in zip(dec.terms, dec.pk_values, dec.factors)
             if stage == family.count + 1}
    lines = lattice.line_subsets()
    for k, n_k in zip(lines.indices, lines.directions):
        pk = pk_polynomial(family, k)
        expect = pk.evaluate(x) * form_value(phi, *([n_k] * m))
        assert final[k] == pytest.approx(expect, rel=1e-12, abs=1e-14)


def test_techobserv_vacuous_in_the_plane():
    rng = np.random.default_rng(191)
    family = spread_family(rng, 2, 4)
    report = techobserv_check(family, ())
    assert report.vacuous
    assert report.max_abs() == 0.0


def test_techobserv_three_dimensional_sweep():
    rng = np.random.default_rng(193)
    for _ in range(3):
        family = spread_family(rng, 3, 5)
        d = family.count - 1
        saw_nonzero_complement = False
        for k_prime in [(i,) for i in range(d)]:
            report = techobserv_check(family, k_prime)
            assert not report.vacuous
            assert report.max_abs() <= 1e-10
            # the excluded (containing) pairs are generally nonzero
            from itertools import combinations
            checked = set(report.indices)
            for k_idx in combinations(range(d), 2):
                if set(k_prime) <= set(k_idx):
                    assert k_idx not in checked
                    value = pk_polynomial(
                        family, k_idx, upto=d, homogeneous=True
                    ).evaluate(report_direction(family, report))
                    if abs(value) > 1e-6:
                        saw_nonzero_complement = True
        assert saw_nonzero_complement


def report_direction(family, report):
    from cylattice.geometry import direction_vector
    return direction_vector(family.normal_matrix()[list(report.direction_subset)])


def test_techobserv_argument_validation():
    rng = np.random.default_rng(197)
    family = spread_family(rng, 3, 5)
    with pytest.raises(ValueError):
        techobserv_check(family, (9,))
    with pytest.raises(ValueError):
        techobserv_check(family, (0, 1))


def test_taylor_decomposition_vanishes_for_low_degree():
    rng = np.random.default_rng(199)
    family = spread_family(rng, 2, 4)
    p = MultiPoly(2, 2, random_poly_coeffs(rng, multi_indices(2, 2)))
    dec = taylor_error_decomposition(family, PolynomialFunction(p), rng.uniform(-1, 1, 2))
    assert abs(dec.function_value - dec.interpolant_value) <= 1e-12
    assert dec.residual() <= 1e-12


def test_taylor_decomposition_critical_monomial():
    rng = np.random.default_rng(211)
    family = spread_family(rng, 2, 4)
    m = family.count - family.dimension + 1
    f = PolynomialFunction.monomial(2, (m, 0))
    x = rng.uniform(-0.7, 0.7, 2)
    dec = taylor_error_decomposition(family, f, x)
    lhs = dec.function_value - dec.interpolant_value
    assert lhs == pytest.approx(x[0] ** m, rel=1e-12)
    assert dec.residual() <= 1e-9 * max(1.0, abs(lhs))


def test_taylor_decomposition_exponential(unit_triangle):
    family, _ = unit_triangle
    f = ExpAffine([1.0, 0.0])
    dec = taylor_error_decomposition(family, f, np.array([0.2, 0.1]))
    assert dec.residual() <= 1e-8


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(2, 3), m=st.integers(1, 6))
def test_batched_newton_terms_agree_with_the_pointwise_oracle(seed, n_dim, m):
    rng = np.random.default_rng(seed)
    family = random_family(rng, n_dim, n_dim + m - 1, min_subset_det=0.05)
    lattice = ChungYaoLattice(family)
    phi = random_form(rng, n_dim, m)
    xs = rng.uniform(-1, 1, (3, n_dim))
    batch = newton_identity(family, phi, xs, lattice=lattice)
    assert batch.function_value.shape == (len(xs),)
    for r, x in enumerate(xs):
        single = newton_identity(family, phi, x, lattice=lattice)
        assert (single.pk_values * single.factors).tolist() == pytest.approx(
            (batch.pk_values[r] * batch.factors[r]).tolist(), rel=1e-14, abs=1e-300)
        oracle = pointwise_newton_identity(family, phi, x, lattice)
        assert batch.function_value[r] == pytest.approx(oracle.function_value, rel=1e-12, abs=1e-12)
        assert batch.terms == oracle.terms
        assert np.all(np.abs(batch.pk_values[r] - oracle.pk_values)
                      <= 1e-12 * np.maximum(1.0, np.abs(oracle.pk_values)))
        assert np.all(np.abs(batch.factors[r] - oracle.factors)
                      <= 1e-12 * np.maximum(1.0, np.abs(oracle.factors)))


def test_batched_staged_total_is_as_accurate_as_the_pointwise_oracle():
    # N=3, d=10: the staged terms reach ~1e4 against totals of 1e-4 to 1.  The
    # error of each total against the 50-digit value of its target
    # phi(x, ..., x) = p(x), in units of u * sum |terms|, must stay within 2x
    # of the per-point oracle's (both reach about 1.9e3 here).
    family = random_family(np.random.default_rng(1), 3, 10)
    lattice = ChungYaoLattice(family)
    rng = np.random.default_rng(7)
    worst = {"batched": 0.0, "oracle": 0.0}
    for _ in range(3):
        phi = random_form(rng, 3, 8)
        xs = rng.uniform(-1, 1, (5, 3))
        batch = newton_identity(family, phi, xs, lattice=lattice)
        for x, products, total in zip(xs, batch.pk_values * batch.factors, batch.total()):
            oracle = pointwise_newton_identity(family, phi, x, lattice)
            with mp.workdps(50):
                exact = mp.fsum(mp.mpf(c) * mp.fprod(mp.mpf(float(xi)) ** ai
                                                     for xi, ai in zip(x, a))
                                for a, c in zip(homogeneous_indices(3, 8), phi.tolist()))
                for name, terms, got in (("batched", products, total),
                                         ("oracle", oracle.pk_values * oracle.factors,
                                          oracle.total())):
                    scale = 2.0 ** -53 * math.fsum(np.abs(terms).tolist())
                    error = float(abs(mp.mpf(got) - exact)) / scale
                    worst[name] = max(worst[name], error)
    assert worst["batched"] <= 2.0 * worst["oracle"]


def test_d10_table_values_are_within_the_row_sum_bound():
    # N=3, d=10, seed 1: at its vertices (lattice norm ~137) the terms of the
    # expanded tables cancel by many digits, and each value that
    # `evaluate_rows` gives for the expanded rows stays within the stated
    # bound of the exact sum of the terms it forms.
    config = load_config(Path(__file__).parent / "data" / "random_n3_d10_seed1.json")
    lattice = ChungYaoLattice(config.family())
    grid = ball_grid(config.dimension, config.radius, config.grid_per_axis)
    points = np.vstack([lattice.vertex_array(), grid])
    assert points.shape == (120 + 33, 3)
    for table in (pk_table(lattice.family), cardinal_table(lattice)):
        nonzero = table.coeffs.any(axis=0)
        mono = monomials(points, exponent_array(config.dimension, table.degree)[nonzero])
        terms = mono[:, None, :] * table.coeffs[:, nonzero]
        values = evaluate_rows(table.coeffs, config.dimension, table.degree, points)
        within = row_sums_within_bound(terms, values)
        assert within.all(), np.flatnonzero(~within)
        assert np.max(np.abs(terms).sum(axis=-1) / np.abs(values)) > 1e16


U = 2.0 ** -53  # the unit roundoff


@pytest.mark.parametrize("homogeneous", [False, True], ids=["plain", "homogeneous"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(2, 7), (3, 7), (3, 10), (4, 9)], ids=str)
def test_table_values_are_within_the_product_bound_of_the_float_planes(shape, seed, homogeneous):
    """Each P_K value is within gamma_K of the exact product of the float planes.

    Row K at x is prod_j ell_j(x) / prod_j ell~_j(n_K) over its m completing
    planes j, with ell_j(x) = <n_j, x> - c_j (c_j = 0 for P~_K) and
    ell~_j(n_K) = <n_j, n_K>, from the float n_j, c_j, n_K and x; the
    reference takes them exactly, at 60 digits.  The table forms each
    ell_j(x) as a dot product of length N and a subtraction, within
    gamma_(N+1) (<|n_j|, |x|> + |c_j|) of exact, a relative error of at most
    gamma_(N+1) kappa_j with kappa_j = (<|n_j|, |x|> + |c_j|) / |ell_j(x)|;
    and each ell~_j(n_K) as a dot product of length N, within gamma_N
    kappa~_j with kappa~_j = <|n_j|, |n_K|> / |ell~_j(n_K)|.  On top of these
    it rounds m - 1 products of the numerator (the first factor times 1 is
    exact), m - 1 of the running product of the denominator, its reciprocal
    and the final product: 2m roundings, each a factor 1 + delta, |delta| <= u.
    Chaining the factors (Higham, Accuracy and Stability of Numerical
    Algorithms, Lemmas 3.1 and 3.3; the denominator's errors enter through
    the reciprocal with the same size to first order) gives a relative error
    of at most gamma_K = K u / (1 - K u),

        K = sum_j ((N + 1) kappa_j + N kappa~_j) + 2m,

    which is m (2N + 3) where no factor cancels.  Over these 24 cases the
    error reached at most 0.14 of the bound.  The expanded rows have no such
    bound; see `test_d10_table_values_are_within_the_row_sum_bound`.
    """
    n_dim, count = shape
    family = random_family(np.random.default_rng(seed), n_dim, count)
    x = np.random.default_rng([seed, n_dim, count]).uniform(-0.5, 0.5, (10, n_dim))
    values = pk_table(family, homogeneous=homogeneous)(x)
    normals, directions = family.normal_matrix(), family.line_directions()
    offsets = np.zeros(count) if homogeneous else family.offsets()
    outside = family.completing_planes()
    m = outside.shape[1]
    with mp.workdps(60):
        def dot(a, b):
            return mp.fsum(mp.mpf(float(p)) * mp.mpf(float(q)) for p, q in zip(a, b))

        planes = [[dot(n, p) - mp.mpf(float(c)) for n, c in zip(normals, offsets)] for p in x]
        linear = [[dot(n, d) for n in normals] for d in directions]
        for i, point in enumerate(x):
            for r, js in enumerate(outside.tolist()):
                exact = mp.fprod(planes[i][j] for j in js) / mp.fprod(linear[r][j] for j in js)
                kappa = sum((np.abs(normals[j]) @ np.abs(point) + abs(offsets[j]))
                            / abs(float(planes[i][j])) for j in js)
                kappa_tilde = sum(np.abs(normals[j]) @ np.abs(directions[r])
                                  / abs(float(linear[r][j])) for j in js)
                k = (n_dim + 1) * kappa + n_dim * kappa_tilde + 2 * m
                error = float(abs(mp.mpf(float(values[i, r])) - exact) / abs(exact))
                assert error <= k * U / (1 - k * U), (i, r, error / (k * U))


def test_a_full_table_call_keeps_no_coefficient_state():
    # tests/data/random_n5_d12_seed1.json: 495 lines of 8 factors each.
    # Evaluating the full P_K table keeps the ell~_j(n_K) and their running
    # products in family.pk_chain, and the table's factors, about 0.2 MB; the
    # expanded prefix states of every line held 17.9 MB.
    family = load_config(Path(__file__).parent / "data" / "random_n5_d12_seed1.json").family()
    x = np.random.default_rng(0).uniform(-0.5, 0.5, (10, family.dimension))
    subset_index(family.count, family.dimension - 1)  # the shared index tables
    tracemalloc.start()
    try:
        table = pk_table(family)
        values = table(x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert values.shape == (10, 495) and held < 1e6
    linear, running = family.pk_chain
    assert (linear.shape, running.shape) == ((495, 8), (495, 9))
    assert table.factors.shape == (495, 8) and "_expanded" not in vars(table)


def _assert_same_table(table, expected):
    assert (table.terms, table.degree) == (expected.terms, expected.degree)
    assert table.coeffs.tobytes() == expected.coeffs.tobytes()


def test_tables_from_the_shared_index_equal_the_per_family_enumeration_bit_for_bit():
    # 300 seeded families with N = 1..5 and both families under tests/data:
    # the vertex and line tables, every n_K, and the P_K, Newton and cardinal
    # tables equal, byte for byte, those built from the index tables that each
    # family enumerated for itself.
    families = [random_family(np.random.default_rng([seed, 22]), 1 + seed % 5,
                              1 + seed % 5 + seed // 5 % 4) for seed in range(300)]
    families += [load_config(Path(__file__).parent / "data" / name).family()
                 for name in ("random_n3_d10_seed1.json", "random_n5_d12_seed1.json")]
    for family in families:
        n_dim, count = family.dimension, family.count
        old = index_tables_per_family(count, n_dim)
        normals, offsets, linear = family.normal_matrix(), family.offsets(), family.linear_values()
        vertex_index = old["vertices"][1]
        assert family.report.vertices.tobytes() == \
            _solve_stack(normals[vertex_index], offsets[vertex_index]).tobytes()
        lattice = ChungYaoLattice(family)
        lines = lattice.line_subsets()
        assert lines.indices == tuple(old["lines"][0])
        assert lines.directions.tobytes() == direction_vector(normals[old["lines"][1]]).tobytes()
        assert lines.points.tobytes() == lattice.vertex_array()[old["line_points"]].tobytes()
        assert np.array_equal(lines.completing, old["completing"])
        for upto in {count, max(count - 1, n_dim - 1)}:
            terms, rows, factors = old["pk", upto]
            for homogeneous in (False, True):
                _assert_same_table(pk_table(family, upto, homogeneous), pk_rows_per_table(
                    family, tuple(terms), terms, factors, linear[rows], homogeneous))
        terms, subsets, rows, factors = old["newton"]
        _assert_same_table(newton_pk_table(family),
                           pk_rows_per_table(family, tuple(terms), subsets, factors, linear[rows]))
        thetas = lattice.vertex_array()
        values = (thetas[:, None, None] @ normals[..., None])[..., 0, 0] - offsets
        vertices = old["vertices"][0]
        _assert_same_table(cardinal_table(lattice), pk_rows_per_table(
            family, tuple(vertices), vertices, old["cardinal"], values))


def _chain_table(family, key):
    """The table of `helpers.pk_tables_per_table` key `key`, gathered from the family's chain."""
    if key == "newton":
        return newton_pk_table(family)
    if key == "flipped":  # the -n_K table of `remainder_sign_flip_deviation`: P_K times (-1)^m
        table = pk_table(family)
        return dataclasses.replace(table, scale=(-1.0) ** (family.degree + 1) * table.scale)
    return pk_table(family, *key)


@settings(max_examples=60)
@given(shape=st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 9))),
       seed=st.integers(0, 2 ** 16))
@example(shape=(1, 1), seed=0)
@example(shape=(1, 9), seed=1)
@example(shape=(3, 3), seed=2)
@example(shape=(5, 5), seed=3)
@example(shape=(5, 9), seed=4)
def test_every_table_gathered_from_the_chain_equals_its_own_expansion_bit_for_bit(shape, seed):
    # Every truncation upto = N-1..d, plain and homogeneous, the staged table
    # and the -n_K table, requested in a seeded order (the first one keeps
    # the ell~_j(n_K) and their running products in family.pk_chain): the
    # coeffs of each equal, byte for byte, the table expanded on its own.
    # The -n_K table is the full P_K table with its scale times (-1)^m, and
    # the oracle expands it over the ell~_j(-n_K): this proves that shortcut.
    family = random_family(np.random.default_rng([seed, 23]), *shape)
    expected = pk_tables_per_table(family)
    keys = list(expected)
    for k in np.random.default_rng(seed).permutation(len(keys)).tolist():
        _assert_same_table(_chain_table(family, keys[k]), expected[keys[k]])
    values, running = family.pk_chain  # no coefficient state: (L, m) and (L, m + 1)
    lines, m = len(subset_index(family.count, family.dimension - 1).subsets), family.degree + 1
    assert (values.shape, running.shape) == ((lines, m), (lines, m + 1))


def _unit(vector):
    return np.asarray(vector, dtype=float) / np.linalg.norm(vector)


@pytest.mark.parametrize("normals", [
    # N = 2: plane 2 is parallel to the line of plane 0 to 1e-15.
    [[1.0, 0.0], [0.0, 1.0], _unit([1.0, 1e-15])],
    # N = 3: planes (0, 1, 4) and (1, 2, 3) are dependent to 1e-15, so the
    # full table fails at line (0, 1) and plane 4, its truncation to the
    # first 4 planes at line (1, 2) and plane 3.
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], _unit([1e-15, 1.0, 1.0]),
     _unit([1.0, 1.0, 1e-15])],
])
def test_a_plane_parallel_to_a_line_fails_the_table_that_meets_it_first(normals):
    # Whatever table is asked for first (and so builds the chain), each table
    # raises the message of its own expansion, or equals it when no plane of
    # its rows is parallel to their line.
    offsets = np.linspace(0.3, 0.7, len(normals))

    def fresh():
        return HyperplaneFamily(normals, offsets, det_tolerance=0.0, dedup_tolerance=0.0)

    expected = pk_tables_per_table(fresh())
    messages = {str(v) for v in expected.values() if isinstance(v, DegenerateSubsetError)}
    assert len(messages) == len(normals[0]) - 1 and len(messages) < len(expected)
    for order in (list(expected), list(expected)[::-1]):
        family = fresh()
        for key in order:
            if isinstance(expected[key], DegenerateSubsetError):
                with pytest.raises(DegenerateSubsetError) as info:
                    _chain_table(family, key)
                assert str(info.value) == str(expected[key])
            else:
                _assert_same_table(_chain_table(family, key), expected[key])


def _sign_flip_function(kind: str, rng, n_dim: int, m: int):
    coeffs = rng.uniform(-1.0, 1.0, size=(2, n_dim))
    if kind == "polynomial":  # degree m + 1: the divided differences are not constant
        size = len(multi_indices(n_dim, m + 1))
        return PolynomialFunction(MultiPoly(n_dim, m + 1, rng.uniform(-1.0, 1.0, size)))
    if kind == "ridge":
        return SinAffine(coeffs[0], float(rng.uniform(-1.0, 1.0)))
    return Product(ExpAffine(0.5 * coeffs[0]), CosAffine(coeffs[1]))


@pytest.mark.parametrize("kind", ["polynomial", "ridge", "product"])
@settings(max_examples=150)
@given(seed=st.integers(0, 2 ** 16), n_dim=st.integers(1, 4), extra=st.integers(0, 3))
def test_flipping_every_n_k_leaves_each_remainder_term_unchanged(kind, seed, n_dim, extra):
    # P_K and [Theta_K, x | n_K^m]f both change by (-1)^m when n_K flips, and
    # each change is a sign flip of exact products, so no term moves at all.
    rng = np.random.default_rng([seed, 24])
    family = random_family(rng, n_dim, n_dim + extra, max_lattice_norm=20.0)
    lattice = ChungYaoLattice(family)
    m = family.degree + 1
    f = _sign_flip_function(kind, rng, n_dim, m)
    x = rng.uniform(-0.5, 0.5, size=(3, n_dim))
    assert remainder_sign_flip_deviation(lattice, f, x) == 0.0
    assert np.array_equal(_chain_table(family, "flipped").coeffs,
                          (-1.0) ** m * pk_table(family).coeffs)


def test_newton_identity_reads_its_terms_from_the_index_arrays(monkeypatch):
    # No NewtonStage records and no per-vertex lookups: the stage, the line
    # row and the vertex row of each term come from newton_index and line_points.
    family = spread_family(np.random.default_rng(25), 3, 6)
    lattice = ChungYaoLattice(family)
    m = family.degree + 1
    phis = [monomial_form(3, alpha) for alpha in ((m, 0, 0), (1, m - 2, 1))]
    xs = np.random.default_rng(26).uniform(-1.0, 1.0, size=(2, 4, 3))
    expected = [pointwise_newton_identity(family, phi, x) for phi, points in zip(phis, xs)
                for x in points]

    def forbidden(*args, **kwargs):
        raise AssertionError("newton_identity reads a per-term record")

    monkeypatch.setattr(chungyao, "newton_stage_data", forbidden)
    monkeypatch.setattr(ChungYaoLattice, "vertex", forbidden)
    for given_lattice in (lattice, None):
        dec = newton_identity(family, phis, xs, lattice=given_lattice)
        assert dec.terms == newton_pk_table(family).terms == expected[0].terms
        got = dec.factors.reshape(-1, len(dec.terms))
        for row, oracle in zip(got, expected):
            np.testing.assert_allclose(row, oracle.factors, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("f", [ExpAffine([0.3, -0.7, 0.2]),
                               PolynomialFunction.monomial(3, (3, 0, 0))])
def test_interpolate_evaluates_a_function_once_on_the_vertex_table(f, monkeypatch):
    # One batch call; `values` holds f(theta_H) in vertex-table order, which
    # may differ from a per-vertex call in the last bit only.
    lattice = ChungYaoLattice(spread_family(np.random.default_rng(29), 3, 6))
    calls = []
    evaluate = f.evaluate
    monkeypatch.setattr(f, "evaluate", lambda x: calls.append(np.shape(x)) or evaluate(x))
    interpolant = interpolate(lattice, f)
    assert calls == [lattice.vertex_array().shape]
    assert interpolant.values.shape == (len(lattice.vertices),)
    for value, theta in zip(interpolant.values, lattice.vertices):
        assert value == pytest.approx(float(evaluate(theta)), rel=1e-15)
