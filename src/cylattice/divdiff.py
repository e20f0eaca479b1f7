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
- sums of exponential ridges amp * exp(<c, x> + b), which covers exp, sin
  and cos of affine forms and their sums and products, take the closed form
  of Hermite-Genocchi (de Boor 1976):
  [a_0 ... a_s | v]f = sum amp * prod <v_i, c> * exp[z_0, ..., z_s] with
  z_j = <c, a_j> + b, where the univariate exp[z] is the (0, s) entry of
  the exponential of a bidiagonal matrix (McCurdy, Ng and Parlett 1984);
- anything else goes through Grundmann-Moller quadrature of exactness
  degree 2s + 5.

`line_divided_differences` gives every [Theta_K, x | n_K^m]f of de Boor's
remainder, over L lattice lines and P points, as one (L, P) array: one order
and domain check, one exp[z] call for all ridge rows, one D_{n_K}^m f per line.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, DerivativeOrderError, DomainError
from .poly import MultiPoly, _compositions, substitute
from .functions import PolynomialFunction, SmoothFunction

MAX_RULE_INDEX = 40
MAX_SIMPLEX_DIM = 10
# The Taylor polynomial of exp(B) for an order-s divided difference keeps at
# least the powers n <= s + TAYLOR_EXTRA_TERMS.  Entry (i, j) of B^n is 0 for
# n < j - i, so with ||B||_1 <= 1/2 the powers left out of any entry add less
# than 0.5^17 / 17! ~ 2e-20 times its leading term.
TAYLOR_EXTRA_TERMS = 16
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

    g must accept a batch of points of shape (m, N) and return (m,) values;
    MultiPoly instances are routed to the exact path instead.  The rule is
    exact to at least `degree`.
    """
    if isinstance(g, MultiPoly):
        return simplex_integral_poly(g, points)
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
    mu, the matrix is scaled by 2^-k to 1-norm at most 1/2, its exponential
    is a Taylor polynomial of fixed degree, and k squarings undo the scaling;
    the entry is then multiplied by exp(mu).  Coincident and clustered nodes
    need no special case.  Returns an (R,) complex array; each row has its own
    k, so a non-finite node makes NaN (as np.exp would) of its own row only.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    rows, size = z.shape
    mean = z.mean(axis=1)
    centred = z - mean[:, None]
    spread = np.max(np.abs(centred), axis=1)
    k = np.where(np.isfinite(spread), np.ceil(np.log2(2.0 * (spread + 1.0))), 0.0).astype(int)
    scale = np.ldexp(1.0, -k)[:, None]
    # Paterson-Stockmeyer form of sum_{n < block * count} B^n / n!: the
    # powers B^0 .. B^(block-1), then Horner in B^block over `count` blocks.
    block = math.isqrt(size + TAYLOR_EXTRA_TERMS) + 1
    count = -(-(size + TAYLOR_EXTRA_TERMS) // block)
    powers = np.zeros((block, rows, size, size), dtype=complex)
    diagonal = np.arange(size)
    powers[0][:, diagonal, diagonal] = 1.0
    b = powers[1]
    b[:, diagonal, diagonal] = scale * centred
    b[:, diagonal[:-1], diagonal[1:]] = scale
    for n in range(2, block):
        np.matmul(powers[n - 1], b, out=powers[n])
    top = powers[-1] @ b
    coeffs = np.zeros(block * count)
    terms = min(coeffs.size, _INV_FACTORIAL.size)
    coeffs[:terms] = _INV_FACTORIAL[:terms]
    blocks = coeffs.reshape(count, block) @ powers.reshape(block, -1)
    blocks = blocks.reshape((count,) + powers.shape[1:])
    expb = blocks[-1]
    for part in blocks[-2::-1]:
        expb = top @ expb + part
    for squaring in range(k.max(initial=0)):
        expb = np.where((k > squaring)[:, None, None], expb @ expb, expb)
    return expb[:, 0, -1] * np.exp(mean)


def _ridge_sums(ridges, hulls: np.ndarray, slopes: np.ndarray) -> list[float]:
    """Hermite-Genocchi sums on hulls (B, s + 1, N); slopes (B, R) holds prod_i <v_i, c_r>."""
    amps, c, b = ridges
    z = np.swapaxes(hulls @ c.T + b, 1, 2)
    values = exp_divided_difference(z.reshape(-1, z.shape[-1])).reshape(slopes.shape)
    return [math.fsum(row) for row in (amps * slopes * values).real.tolist()]


def _check_order_and_domain(f: SmoothFunction, order: int, points: np.ndarray) -> None:
    if order > f.max_order:
        raise DerivativeOrderError(
            f"divided difference of order {order} exceeds declared smoothness {f.max_order}")
    hull_radius = float(np.max(np.linalg.norm(points, axis=-1)))
    if hull_radius > f.domain_radius:
        raise DomainError(f"hull radius {hull_radius:.3g} outside declared domain "
                          f"radius {f.domain_radius:.3g}")


def divided_difference(
    f: SmoothFunction,
    points,
    vectors: Sequence[Sequence[float]],
) -> float:
    """[a_0, ..., a_s | v_1, ..., v_s]f, symmetric and multilinear in the vectors.

    Polynomial f is integrated exactly.  f with ridges() (every catalog
    member without a polynomial factor) takes the Hermite-Genocchi closed
    form.  Anything else uses Grundmann-Moller quadrature of exactness 2s + 5.
    Raises DerivativeOrderError when f lacks order-s derivatives and
    DomainError when the hull leaves f's declared domain, before any path.
    """
    points = _point_array(points)
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    s = len(vectors)
    if len(points) != s + 1:
        raise ValueError(
            f"{len(points)} points do not match {s} direction vectors (need s + 1)"
        )
    _check_order_and_domain(f, s, points)
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
    its n_K, points (P, N) the x.  A constant D_{n_K}^m f = c gives c / m!; f
    neither polynomial nor ridge takes `divided_difference` point by point.
    """
    line_points, directions = (np.asarray(a, dtype=float) for a in (line_points, directions))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lines, m, dim = line_points.shape
    hulls = np.empty((lines, len(points), m + 1, dim))
    hulls[:, :, :m] = line_points[:, None]
    hulls[:, :, m] = points
    _check_order_and_domain(f, m, hulls)
    ridges = f.ridges()
    if ridges is not None:
        slopes = np.repeat((directions @ ridges[1].T) ** m, len(points), axis=0)
        return np.reshape(_ridge_sums(ridges, hulls.reshape(-1, m + 1, dim), slopes), (lines, -1))
    out = np.empty((lines, len(points)))
    for row, line_hulls, direction in zip(out, hulls, directions):
        if not isinstance(f, PolynomialFunction):
            row[:] = [divided_difference(f, hull, [direction] * m) for hull in line_hulls]
        elif (derivative := f.derivative_poly([direction] * m)).total_degree() == 0:
            row[:] = derivative.coeffs[0] * monomial_simplex_integral((0,) * m)
        else:
            row[:] = [simplex_integral_poly(derivative, hull) for hull in line_hulls]
    return out

