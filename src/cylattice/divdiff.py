"""Multivariate divided differences as integrals over the standard simplex.

The divided difference [a_0, ..., a_s | v_1, ..., v_s]f averages the s-th
directional derivative of f over the convex hull of the points, parametrized
by the standard simplex:

    integral over Delta_s of f^(s)(a_0 + sum xi_i (a_i - a_0))(v_1, ..., v_s).

Coincident points are legal and need no special casing (the integral lives
on the parameter simplex).  `divided_difference` takes one of three paths,
chosen from f:

- polynomials are integrated exactly (compose with the affine
  parametrization, then integrate monomials in closed form);
- real parts of sums of exponential ridges, f = Re sum amp * exp(<c, x> + b),
  which covers exp, sin and cos of affine forms and their sums and products
  with one ridge per conjugate pair (`SmoothFunction.ridges`), take the
  closed form of Hermite-Genocchi (de Boor 1976):
  [a_0 ... a_s | v]f = Re sum amp * prod <v_i, c> * exp[z_0, ..., z_s] with
  z_j = <c, a_j> + b, where the univariate exp[z] is the (0, s) entry of
  the exponential of a bidiagonal matrix (McCurdy, Ng and Parlett 1984),
  taken by scaling and squaring with k = max(0, ceil(log2 spread)) squarings
  of a row whose nodes lie within `spread` of their mean; the first row of
  that exponential holds exp[z_0, ..., z_j] for every j;
- anything else goes through Grundmann-Moller quadrature of exactness
  degree 2s + 5.

`line_divided_differences` gives every [Theta_K, x | n_K^m]f of de Boor's
remainder, over L lattice lines and P points, as one (L, P) array: one exp[z]
call for all L * P * R ridge rows (R ridges of f), D_{n_K}^m f / m! per line for
a polynomial of degree at most m, and `divided_difference` per point otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .poly import MultiPoly, _compositions, directional_rows, substitute
from .functions import PolynomialFunction, SmoothFunction

MAX_RULE_INDEX = 40
MAX_SIMPLEX_DIM = 10
# The Taylor polynomial of exp(B) for an order-s divided difference keeps
# exactly the powers n <= s + TAYLOR_EXTRA_TERMS.  B = 2^-k (A - mu I) has the
# centred nodes c'_i, |c'_i| <= 1, on its diagonal and sigma = 2^-k above it,
# so entry (i, j) of B^n is sigma^l h_(n-l)(c'_i, ..., c'_j) with l = j - i and
# |h_e| <= C(e + l, l).  The powers left out of that entry then add less than
# sum_(e > TAYLOR_EXTRA_TERMS) 1/e! ~ 1/21! ~ 2e-20 times its leading term
# sigma^l / l!, a bound that does not depend on the superdiagonal.
TAYLOR_EXTRA_TERMS = 20
# 1/n! for every n whose factorial is a finite double; higher terms are 0.
_INV_FACTORIAL = np.array([1.0 / math.factorial(n) for n in range(171)])


@lru_cache(maxsize=None)
def grundmann_moller_rule(dimension: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Grundmann-Moller rule of the given index on the standard simplex.

    Exact for polynomials of total degree 2*index + 1.  Returns (nodes,
    weights) with nodes of shape (m, dimension); weights sum to the simplex
    volume 1/dimension! and carry both signs.  Coinciding nodes across
    generation levels are merged through exact rational arithmetic.
    """
    if dimension < 0 or dimension > MAX_SIMPLEX_DIM:
        raise ConfigError(f"simplex dimension {dimension} outside supported range")
    if index < 0 or index > MAX_RULE_INDEX:
        raise ConfigError(f"rule index {index} outside supported range")
    if dimension == 0:
        return np.zeros((1, 0)), np.ones(1)

    n = dimension
    dd = 2 * index + 1
    table: dict[tuple[Fraction, ...], Fraction] = {}
    for i in range(index + 1):
        denom = dd + n - 2 * i
        weight = (
            Fraction(-1) ** i
            * Fraction(denom) ** dd
            / (Fraction(4) ** index * math.factorial(i) * math.factorial(dd + n - i))
        )
        for beta in _compositions(index - i, n + 1):
            # Barycentric point (2 beta_j + 1) / denom; drop the coordinate
            # attached to the origin vertex.
            point = tuple(Fraction(2 * b + 1, denom) for b in beta[1:])
            table[point] = table.get(point, Fraction(0)) + weight
    points = np.array([[float(c) for c in pt] for pt in table], dtype=float)
    weights = np.array([float(w) for w in table.values()])
    return points, weights


def rule_for_degree(dimension: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest Grundmann-Moller rule exact to at least `degree`."""
    index = max(0, math.ceil((degree - 1) / 2))
    return grundmann_moller_rule(dimension, index)


def monomial_simplex_integral(beta: Sequence[int]) -> float:
    """Exact integral of xi^beta over the standard simplex of matching dim.

    Uses the Dirichlet formula: integral = prod(beta_i!) / (s + |beta|)!.
    """
    s = len(beta)
    num = 1
    for b in beta:
        num *= math.factorial(b)
    return num / math.factorial(s + sum(beta))


def _point_array(points) -> np.ndarray:
    """The points a_0, ..., a_s (repetitions allowed) as an (s + 1, N) array."""
    return np.atleast_2d(np.asarray(points, dtype=float))


def simplex_integral_poly(p: MultiPoly, points) -> float:
    """Exact integral of a polynomial over the hull parametrization of A.

    Substitutes the affine map xi -> a_0 + sum xi_i (a_i - a_0) into p and
    integrates the resulting polynomial in xi monomial by monomial.
    """
    points = _point_array(points)
    base = points[0]
    if len(points) == 1:
        return p.evaluate(base)
    spans = points[1:] - base
    replacements = [
        MultiPoly.affine(spans[:, j], -base[j])  # <spans_j, xi> + base_j
        for j in range(points.shape[1])
    ]
    q = substitute(p, replacements)
    total = [
        c * monomial_simplex_integral(beta)
        for beta, c in q.nonzero_items()
    ]
    return math.fsum(total)


def simplex_integral(g, points, degree: int) -> float:
    """Quadrature of g over the hull parametrization of the point tuple.

    g must accept a batch of points of shape (m, N) and return (m,) values.
    The rule is exact to at least `degree`.
    """
    points = _point_array(points)
    if len(points) == 1:
        return float(np.asarray(g(points)).reshape(-1)[0])
    nodes, weights = rule_for_degree(len(points) - 1, degree)
    values = np.asarray(g(points[0] + nodes @ (points[1:] - points[0])), dtype=float)
    return float(weights @ values)


def exp_divided_difference(z) -> np.ndarray:
    """exp[z_0, ..., z_s] for each row of complex nodes z (shape (R, s + 1)).

    The divided difference is the (0, s) entry of exp(A) for the bidiagonal
    A with diagonal z and superdiagonal 1.  Each row is centred at its mean
    mu and scaled by 2^-k to a node spread of at most 1, k = max(0, ceil(log2
    max|z_j - mu|)); its exponential is the Taylor polynomial of degree
    s + TAYLOR_EXTRA_TERMS, k squarings undo the scaling, and the first row
    (entry j is exp[z_0..z_j] times exp(-mu)) is carried alone through the last
    product.  Coincident and clustered nodes need no special case.  Returns an
    (R,) complex array; each row has its own k, so a non-finite node makes NaN
    (as np.exp would) of its own row only.  Raises ValueError unless z is one
    row or (R, s + 1) shaped.
    """
    shape = np.shape(z)
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError(f"nodes of shape {shape}: need (R, s + 1) with s + 1 >= 1")
    rows, size = z.shape
    mean = z.sum(axis=1) / size
    centred = z - mean[:, None]
    # k = ceil(log2 spread), at least 0, read exactly off the binary exponent;
    # frexp gives exponent 0 for a non-finite spread.
    mantissa, exponent = np.frexp(np.max(np.abs(centred), axis=1))
    k = np.maximum(exponent - (mantissa == 0.5), 0)
    scale = np.ldexp(1.0, -k)[:, None]
    # Paterson-Stockmeyer form of sum_{n <= s + TAYLOR_EXTRA_TERMS} B^n / n!: the
    # powers B^0 .. B^(block-1), then Horner in B^block over `count` blocks,
    # whose coefficients past that degree are 0.
    block = math.isqrt(size + TAYLOR_EXTRA_TERMS) + 1
    count = -(-(size + TAYLOR_EXTRA_TERMS) // block)
    powers = np.zeros((block, rows, size, size), dtype=complex)
    entries = powers.reshape(block, rows, size * size)  # every (size + 1)-th is diagonal
    entries[0, :, ::size + 1] = 1.0
    entries[1, :, ::size + 1] = scale * centred
    entries[1, :, 1::size + 1] = scale
    b = powers[1]
    for n in range(2, block):
        np.matmul(powers[n - 1], b, out=powers[n])
    top = powers[-1] @ b
    coeffs = np.zeros(block * count)
    terms = min(size + TAYLOR_EXTRA_TERMS, _INV_FACTORIAL.size)
    coeffs[:terms] = _INV_FACTORIAL[:terms]
    # Every block commutes with B^block, so Horner may multiply on the right,
    # and with no squaring it carries only the blocks' first rows.
    last = k.max(initial=0)
    kept = powers if last else powers[:, :, :1]
    blocks = coeffs.reshape(count, block) @ kept.reshape(block, -1)
    blocks = blocks.reshape((count,) + kept.shape[1:])
    expb = blocks[-1]
    for part in blocks[-2::-1]:
        expb = expb @ top + part
    for squaring in range(last - 1):
        expb = np.where((k > squaring)[:, None, None], expb @ expb, expb)
    first = expb[:, 0]
    if last:
        first = np.where((k == last)[:, None], (expb[:, :1] @ expb)[:, 0], first)
    return first[:, -1] * np.exp(mean)


def _ridge_sums(ridges, hulls: np.ndarray, slopes: np.ndarray) -> list[float]:
    """Hermite-Genocchi sums on hulls (B, s + 1, N); slopes (B, R) holds prod_i <v_i, c_r>.

    Each is Re sum_r amps[r] * slopes[:, r] * exp[z_r], with one exp[z] row per
    hull and ridge.
    """
    amps, c, b = ridges
    z = np.swapaxes(hulls @ c.T + b, 1, 2)
    values = exp_divided_difference(z.reshape(-1, z.shape[-1])).reshape(slopes.shape)
    return [math.fsum(row) for row in (amps * slopes * values).real.tolist()]


def divided_difference(f: SmoothFunction, points, vectors: Sequence[Sequence[float]]) -> float:
    """[a_0, ..., a_s | v_1, ..., v_s]f, symmetric and multilinear in the vectors.

    Polynomial f is integrated exactly.  f with ridges() (every catalog
    member without a polynomial factor) takes the Hermite-Genocchi closed
    form, one exp[z] row per ridge.  Anything else uses Grundmann-Moller
    quadrature of exactness 2s + 5.
    Raises DerivativeOrderError when f lacks order-s derivatives, before any path.
    """
    points = _point_array(points)
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    s = len(vectors)
    if len(points) != s + 1:
        raise ValueError(
            f"{len(points)} points do not match {s} direction vectors (need s + 1)"
        )
    f._check_order(s)
    if s == 0:
        return float(f.evaluate(points[0]))
    if isinstance(f, PolynomialFunction):
        return simplex_integral_poly(f.derivative_poly(vectors), points)
    ridges = f.ridges()
    if ridges is not None:
        return _ridge_sums(ridges, points[None], np.prod(np.array(vectors) @ ridges[1].T,
                                                         axis=0)[None])[0]
    return simplex_integral(lambda u: f.directional_derivative(u, vectors), points, 2 * s + 5)


def line_divided_differences(f: SmoothFunction, line_points, directions, points) -> np.ndarray:
    """[Theta_K, x | n_K^m]f for every line K and point x, as an (L, P) array.

    line_points (L, m, N) holds each line's points Theta_K, directions (L, N)
    its n_K, points (P, N) the x.  Ridge sums and polynomials of degree at most m take
    the closed forms above; any other f takes `divided_difference` per line and point.
    Raises DerivativeOrderError when f lacks order-m derivatives, before any path.
    """
    line_points, directions = (np.asarray(a, dtype=float) for a in (line_points, directions))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lines, m, dim = line_points.shape
    f._check_order(m)
    hulls = np.empty((lines, len(points), m + 1, dim))
    hulls[:, :, :m] = line_points[:, None]
    hulls[:, :, m] = points
    ridges = f.ridges()
    if ridges is not None:
        slopes = np.repeat((directions @ ridges[1].T) ** m, len(points), axis=0)
        return np.reshape(_ridge_sums(ridges, hulls.reshape(-1, m + 1, dim), slopes),
                          hulls.shape[:2])
    if isinstance(f, PolynomialFunction) and f.poly.degree <= m:
        derivatives = np.broadcast_to(f.poly.coeffs, (lines, f.poly.coeffs.size))
        for degree in range(f.poly.degree, f.poly.degree - m, -1):  # D_{n_K}^m f of every K
            derivatives = directional_rows(derivatives, dim, max(degree, 0), directions)
        return np.repeat(derivatives * monomial_simplex_integral((0,) * m), len(points), axis=1)
    return np.array([[divided_difference(f, hull, [direction] * m) for hull in line_hulls]
                     for line_hulls, direction in zip(hulls, directions)]).reshape(hulls.shape[:2])
