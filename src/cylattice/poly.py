"""Dense multivariate polynomial algebra.

A polynomial is one float vector over the graded-lexicographic monomial
table `exponent_array(dimension, degree)`: entry k is the coefficient of row k.
A table of lower degree is a prefix of a higher one, so an index keeps its
position whatever the degree bound.  Arithmetic runs on stacks of such vectors
through cached index tables (`affine_products` expands scaled products of affine
forms, `directional_rows`, the one D_v kernel, differentiates rows); `MultiPoly`
is the record of one vector.  A symmetric m-linear form on R^N is the row of
coefficients of its diagonal p(v) = phi(v, ..., v) over the |alpha| == m block
of the table of degree m; `contract` fixes its arguments, by polarization.  The
module also provides the Taylor projector at the origin.
Everything here is exact up to floating-point rounding: no quadrature, no truncation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Multi-index enumeration
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """Yield tuples of `parts` non-negative ints summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def exponent_array(dimension: int, max_degree: int) -> np.ndarray:
    """The monomial table: every alpha with |alpha| <= max_degree, in graded-lex order, as
    the rows of a read-only (C(dimension + max_degree, dimension), dimension) int array.

    The |alpha| == max_degree block is last, and a table is a prefix of any higher one."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    size = math.comb(dimension + max_degree, dimension)
    table = np.fromiter(chain.from_iterable(chain.from_iterable(
        _compositions(k, dimension) for k in range(max_degree + 1))),
        dtype=np.intp, count=size * dimension).reshape(size, dimension)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def multi_indices(dimension: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """The rows of `exponent_array(dimension, max_degree)` as tuples."""
    return tuple(map(tuple, exponent_array(dimension, max_degree).tolist()))


@lru_cache(maxsize=None)
def homogeneous_indices(dimension: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The |alpha| == degree rows, the last block of `multi_indices(dimension, degree)`."""
    return multi_indices(dimension, degree)[-math.comb(dimension + degree - 1, degree):]


def _rank(alpha: Sequence[int]) -> int:
    """Position of alpha in graded-lex order: the C(N + k - 1, N) indices of degree below
    k = |alpha|, then for each i < N - 1 the C(r + p, p) - C(r - alpha_i + p, p) of degree k
    that agree before i and are smaller at i (p = N - 1 - i, r what remains of k)."""
    n, r = len(alpha), sum(alpha)
    rank = math.comb(n + r - 1, n)
    for p, a in zip(range(n - 1, 0, -1), alpha):
        rank += math.comb(r + p, p) - math.comb(r - a + p, p)
        r -= a
    return rank


def _positions(exponents: np.ndarray) -> np.ndarray:
    """`_rank` of each (..., dimension) exponent row."""
    found = [_rank(alpha) for alpha in exponents.reshape(-1, exponents.shape[-1]).tolist()]
    return np.array(found, dtype=np.intp).reshape(exponents.shape[:-1])


@lru_cache(maxsize=None)
def _product_map(dimension: int, left: int, right: int) -> np.ndarray:
    """Read-only positions of alpha + beta, alpha and beta from the tables of `left`, `right`."""
    sums = exponent_array(dimension, left)[:, None, :] + exponent_array(dimension, right)[None]
    table = _positions(sums)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _lowering_map(dimension: int, degree: int):
    """Every (alpha, i) with alpha_i > 0 in the table of `degree`, by (position of alpha, i).

    Returns read-only arrays: the position of alpha, the variable i, alpha_i
    as a float, and the position of alpha - e_i.
    """
    exponents = exponent_array(dimension, degree)
    source, variable = np.nonzero(exponents)
    lowered = exponents[source].copy()
    lowered[np.arange(source.size), variable] -= 1
    maps = (source, variable, exponents[source, variable].astype(float),
            _positions(lowered))
    for table in maps:
        table.setflags(write=False)
    return maps


def directional_rows(coeffs: np.ndarray, dimension: int, degree: int,
                     vectors: np.ndarray) -> np.ndarray:
    """D_{v_r} p_r, v_r = vectors[r], of each row p_r of `coeffs` over the table of `degree`.

    The rows are over the table of max(degree - 1, 0); each sums the products (c alpha_i) v_i
    in `_lowering_map` order, with c = 0 or v_i = 0 giving +0.0: inf * 0 never reaches a sum."""
    source, variable, power, target = _lowering_map(dimension, degree)
    rows, size = len(coeffs), math.comb(dimension + max(degree - 1, 0), dimension)
    terms, directions = coeffs[:, source], vectors[:, variable]
    with np.errstate(invalid="ignore"):  # inf * 0 makes a NaN, zeroed below
        products = terms * power * directions
    if np.isnan(products).any():  # a finite product with a zero factor is +-0.0 and adds nothing
        products[(terms == 0.0) | (directions == 0.0)] = 0.0
    # Cell (alpha - e_i, r) sums its terms in the order of the (alpha, i) table.
    return np.bincount((target[:, None] * rows + np.arange(rows)).ravel(), products.T.ravel(),
                       minlength=size * rows).reshape(size, rows).T


# ---------------------------------------------------------------------------
# Batched monomials and compensated row sums
# ---------------------------------------------------------------------------

def monomials(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """(M, T) matrix of x^alpha, one row per point x and one column per row alpha.

    The powers x_i^0 .. x_i^k of each variable are running products, filled
    in place: x_i^0 = 1, x_i^1 = x_i and x_i^k = x_i^(k-1) * x_i.  Each column
    gathers its factors from them by exponent and multiplies them in
    variable order.  So x^alpha takes |alpha| - 1 roundings, and away from
    underflow it lies within gamma_(|alpha|-1) |x^alpha| of the exact product,
    gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of Numerical
    Algorithms, Lemma 3.1); |alpha| <= 1 is exact.  Signed zeros and
    infinities come out as with `x ** k`, an overflow gives +-inf (not nan),
    and x^0 is 1 at inf and nan.
    """
    points = np.asarray(points, dtype=float)
    exponents = np.asarray(exponents)
    top = int(exponents.max(initial=0))
    columns = points.T
    powers = np.empty((columns.shape[0], top + 1, columns.shape[1]))  # (variable, k, point)
    powers[:, 0] = 1.0
    if top:
        powers[:, 1] = columns
    for k in range(2, top + 1):
        np.multiply(powers[:, k - 1], columns, out=powers[:, k])
    out = powers[0, exponents[:, 0]]
    for i in range(1, columns.shape[0]):
        out *= powers[i, exponents[:, i]]
    return out.T


def _compensated_row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum each row of the (M, T) array `terms` by a pairwise TwoSum tree.

    The terms are copied to T rows of M entries; each of L = ceil(log2 T)
    levels adds its first half of rows to its second half and carries an odd
    last row.  Knuth's branch-free TwoSum takes each addition's exact error,
    and the sum of the T - 1 errors corrects the total if it is finite.  Each
    error is at most u = 2^-53 times its node sum, and each term lies below
    at most L nodes, so with s the exact row sum and away from overflow
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4)

        |result - s| <= u |s| + (1 + u)^(L + 1) gamma_(T-2) u L sum|terms|.
    """
    count = terms.shape[1]
    rows = np.empty((3 * count - 2, terms.shape[0]))
    nodes, errors = rows[:2 * count - 1], rows[2 * count - 1:]
    np.copyto(nodes[:count], terms.T)
    start, stop = 0, count  # a level's sums follow it, after its carried row
    with np.errstate(invalid="ignore"):  # an infinite node's error is nan
        while stop - start > 1:
            half = (stop - start) // 2
            a, b = nodes[start:start + half], nodes[start + half:start + 2 * half]
            s, e = nodes[stop:stop + half], errors[stop - count:stop - count + half]
            np.add(a, b, out=s)  # in place: e = (a - (s - (s - a))) + (b - (s - a))
            np.subtract(s, a, out=e)
            np.subtract(b, e, out=b)
            np.subtract(s, e, out=e)
            np.subtract(a, e, out=e)
            e += b
            start, stop = stop - (stop - start) % 2, stop + half
        return np.where(np.isfinite(nodes[-1]), nodes[-1] + errors.sum(axis=0), nodes[-1])


def evaluate_rows(coeffs: np.ndarray, dimension: int, degree: int,
                  points: np.ndarray) -> np.ndarray:
    """(M, R) values at M points of the R polynomials whose coefficient vectors
    over `exponent_array(dimension, degree)` are the rows of `coeffs`.

    Rows of C entries hold the last C entries of the table, as a form's row
    holds its |alpha| == degree block.  Leading
    axes pair blocks: coefficients (F, R, C) and points (F, M, N) give
    (F, M, R), block f's rows evaluated at block f's points only.  The rows
    share one monomial matrix; each value is a compensated row sum.
    """
    nonzero = coeffs.reshape(-1, coeffs.shape[-1]).any(axis=0)  # a zero adds an exact 0
    if not nonzero.any():
        return np.zeros(points.shape[:-1] + coeffs.shape[-2:-1])
    exponents = exponent_array(dimension, degree)[-coeffs.shape[-1]:][nonzero]
    mono = monomials(points.reshape(-1, dimension), exponents)
    terms = mono.reshape(points.shape[:-1] + (1, exponents.shape[0])) \
        * coeffs[..., None, :, nonzero]
    return _compensated_row_sums(terms.reshape(-1, exponents.shape[0])).reshape(terms.shape[:-1])


def affine_products(normals: np.ndarray, offsets: np.ndarray, factors: np.ndarray,
                    scale) -> tuple[int, np.ndarray]:
    """R scaled products of affine forms <normals[j], x> - offsets[j], expanded at once.

    Row r is scale[r] times the product, in order, of the forms j = factors[r, t] >= 0
    (negative entries pad rows with fewer factors).  Returns the top row degree D and
    the read-only (R, C) coefficients over `exponent_array(N, D)`: row r is the chain of
    `MultiPoly.__mul__` from 1 (the nonzero products in its (left term, right term)
    order) times scale[r], +0.0 past the row's degree.  Rows never mix.
    """
    normals = np.asarray(normals, dtype=float)
    factors = np.asarray(factors, dtype=np.intp)
    dimension = normals.shape[1]
    rows, count = factors.shape
    present = factors >= 0
    # Factor t of row r in the layout of `MultiPoly.affine`; an absent one is the constant 1.
    forms = np.zeros((rows, count, dimension + 1))
    forms[..., 0] = np.where(present, -np.asarray(offsets, dtype=float)[factors], 1.0)
    forms[..., 1:] = np.where(present[..., None], normals[factors][..., ::-1], 0.0)
    form_nonzero = forms != 0.0
    raises = present & form_nonzero[..., 1:].any(axis=2)
    column_degree = exponent_array(dimension, count).sum(axis=1)
    first = np.arange(rows)[:, None, None]
    degree, coeffs = np.zeros(rows, dtype=np.intp), np.ones((rows, 1))
    for t in range(count):  # after step t, the product of the first t + 1 factors alone
        nonzero = coeffs != 0.0
        reached = (nonzero * column_degree[:coeffs.shape[1]]).max(axis=1)
        size = math.comb(dimension + t + 1, dimension)
        keep = nonzero[:, :, None] & form_nonzero[:, None, t]
        # Row-major (row, left term, right term) order: each target sums as `__mul__` does.
        targets = (first * size + _product_map(dimension, t, 1))[keep]
        products = (coeffs[:, :, None] * forms[:, None, t])[keep]
        degree = np.where(present[:, t], reached + raises[:, t], degree)
        coeffs = np.bincount(targets, products, minlength=rows * size).reshape(rows, size)
    sizes = np.array([math.comb(dimension + k, dimension) for k in range(degree.max() + 1)])
    coeffs = np.asarray(scale, dtype=float)[:, None] * coeffs[:, :sizes[-1]]
    coeffs[np.arange(sizes[-1]) >= sizes[degree][:, None]] = 0.0
    coeffs.setflags(write=False)
    return len(sizes) - 1, coeffs


# ---------------------------------------------------------------------------
# Dense multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Polynomial in `dimension` variables, dense up to a total-degree bound.

    `coeffs` is a float vector with one entry per row of the monomial table
    `exponent_array(dimension, degree)`, in that graded-lex order; zeros
    included.  The constructor takes that vector, or a dict from exponent
    tuples to coefficients (missing indices are zero).

    A coefficient record with one product, `__mul__`, which `substitute`
    chains; whole tables are built by `affine_products`.  The product skips zero
    entries, and `directional`, a row of the one D_v kernel `directional_rows`,
    writes a zero factor's product as +0.0: an infinite coefficient never meets a zero.

    Evaluation sums the terms c_alpha x^alpha directly (not Horner), with
    compensated summation on both paths:

    - `evaluate` (one point) adds the nonzero terms with `math.fsum`, which
      rounds their exact sum correctly;
    - `evaluate_many` (a batch of points) builds the points x terms monomial
      matrix, scales it by the nonzero coefficients and adds each row with a
      pairwise TwoSum tree vectorized over the points (see
      `_compensated_row_sums`).

    The two paths can differ in the last bits: the batch path builds powers
    by running products (see `monomials`) where `evaluate` uses Python's
    `**`, and its sum is not always correctly rounded.
    """

    __slots__ = ("dimension", "degree", "coeffs")

    def __init__(self, dimension: int, degree: int, coeffs: dict | Sequence[float] | None = None):
        self.dimension = int(dimension)
        self.degree = int(degree)
        size = math.comb(self.dimension + self.degree, self.dimension)
        if not isinstance(coeffs, dict):
            vector = np.zeros(size) if coeffs is None else np.array(coeffs, dtype=float)
            if vector.shape != (size,):
                raise ValueError(f"coefficients have shape {vector.shape}, expected ({size},)")
        else:
            keys = [tuple(int(a) for a in alpha) for alpha in coeffs]
            for key in keys:
                if len(key) != self.dimension or min(key) < 0 or sum(key) > self.degree:
                    raise ValueError(
                        f"index {key} outside degree bound {self.degree} "
                        f"in dimension {self.dimension}"
                    )
            vector = np.zeros(size)
            vector[[_rank(key) for key in keys]] = [float(c) for c in coeffs.values()]
        self.coeffs = vector

    # -- constructors -------------------------------------------------------

    @classmethod
    def monomial(cls, dimension: int, alpha: Sequence[int], coeff: float = 1.0) -> "MultiPoly":
        alpha = tuple(int(a) for a in alpha)
        return cls(dimension, sum(alpha), {alpha: coeff})

    @classmethod
    def affine(cls, normal: Sequence[float], offset: float) -> "MultiPoly":
        """The affine form <normal, x> - offset as a degree-1 polynomial."""
        normal = np.asarray(normal, dtype=float)
        # The degree-1 block lists e_{n-1}, ..., e_0 (lex order).
        return cls(normal.size, 1, np.concatenate([[-float(offset)], normal[::-1]]))

    # -- structure ----------------------------------------------------------

    def nonzero_items(self):
        """(alpha, coefficient) of every nonzero entry, in graded-lex order."""
        nonzero = self.coeffs.nonzero()[0]
        rows = exponent_array(self.dimension, self.degree)[nonzero].tolist()
        return list(zip(map(tuple, rows), self.coeffs[nonzero].tolist()))

    def _support(self) -> tuple[np.ndarray, int]:
        """Positions of the nonzero entries and the total degree they reach."""
        nonzero = self.coeffs.nonzero()[0]  # the last one has the top degree, or there is none
        return nonzero, int(exponent_array(self.dimension, self.degree)[nonzero[-1:]].sum())

    def total_degree(self) -> int:
        return self._support()[1]

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def coeff_distance(self, other: "MultiPoly") -> float:
        """Max |a - b| over the coefficient vectors a, b, the shorter padded with zeros."""
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        diff = np.zeros(max(self.coeffs.size, other.coeffs.size))
        diff[:self.coeffs.size] = self.coeffs
        diff[:other.coeffs.size] -= other.coeffs
        return float(np.max(np.abs(diff)))

    # -- product ------------------------------------------------------------

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        left, ldeg = self._support()
        right, rdeg = other._support()
        out = np.zeros(math.comb(self.dimension + ldeg + rdeg, self.dimension))
        # Pairs in row-major order: each coefficient sums its products in
        # the order of a loop over left terms, then right terms.
        targets = _product_map(self.dimension, ldeg, rdeg)[left[:, None], right]
        np.add.at(out, targets, self.coeffs[left, None] * other.coeffs[right])
        return MultiPoly(self.dimension, ldeg + rdeg, out)

    # -- calculus -----------------------------------------------------------

    def directional(self, v: Sequence[float]) -> "MultiPoly":
        """Formal directional derivative D_v p = sum_i v_i dp/dx_i (see `directional_rows`)."""
        row = directional_rows(self.coeffs[None], self.dimension, self.degree,
                               np.asarray(v, dtype=float)[None])
        return MultiPoly(self.dimension, max(self.degree - 1, 0), row[0])

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dimension},)")
        point, nonzero = x.tolist(), self.coeffs.nonzero()[0]
        rows = exponent_array(self.dimension, self.degree)[nonzero].tolist()
        terms = []
        for a, c in zip(rows, self.coeffs[nonzero].tolist()):
            mono = 1.0
            for xi, ai in zip(point, a):
                if ai:
                    mono *= xi ** ai
            terms.append(c * mono)
        return math.fsum(terms)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Values at each row of an (M, dimension) array (or at one point)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"points have shape {points.shape}, expected (M, {self.dimension})"
            )
        return evaluate_rows(self.coeffs[None], self.dimension, self.degree, points)[:, 0]

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return f"MultiPoly(dim={self.dimension}, degree<={self.degree}, {nz} terms)"


def substitute(p: MultiPoly, replacements: Sequence[MultiPoly]) -> MultiPoly:
    """Compose p with polynomial expressions for each of its variables.

    Returns q where q(y) = p(r_1(y), ..., r_N(y)).  All replacement
    polynomials must share one dimension (the new variable space).
    """
    if len(replacements) != p.dimension:
        raise ValueError("need one replacement per variable")
    new_dim = replacements[0].dimension
    for r in replacements:
        if r.dimension != new_dim:
            raise ValueError("replacement dimension mismatch")
    # Cache powers of each replacement up to the largest exponent used.
    max_pow = exponent_array(p.dimension, p.degree)[p.coeffs != 0.0].max(axis=0, initial=0)
    powers = []
    for i, r in enumerate(replacements):
        row = [MultiPoly(new_dim, 0, [1.0])]
        for _ in range(max_pow[i]):
            row.append(row[-1] * r)
        powers.append(row)
    terms = []
    for a, c in p.nonzero_items():
        term = MultiPoly(new_dim, 0, [c])
        for i, ai in enumerate(a):
            if ai:
                term = term * powers[i][ai]
        terms.append(term)
    # One vector takes the terms in order, as a chain of additions would.
    degree = max((term.degree for term in terms), default=0)
    out = np.zeros(math.comb(new_dim + degree, new_dim))
    for term in terms:
        out[:term.coeffs.size] += term.coeffs
    return MultiPoly(new_dim, degree, out)


# ---------------------------------------------------------------------------
# Taylor projector
# ---------------------------------------------------------------------------

def taylor(f, order: int) -> MultiPoly:
    """Taylor polynomial of f at the origin to the given order.

    Block k of its coefficients d^alpha f(0) / alpha! is the `derivative_table`
    row of order k at the origin divided by k!, with -0.0 turned into +0.0.
    The result has degree bound `order`.  Requires f to expose exact
    directional derivatives up to `order` (see :mod:`cylattice.functions`);
    polynomials are reproduced up to rounding.
    """
    origin = np.zeros(f.dimension)
    blocks = [derivative_table(f, origin, k) / math.factorial(k) for k in range(order + 1)]
    return MultiPoly(f.dimension, order, np.concatenate(blocks) + 0.0)


# ---------------------------------------------------------------------------
# Polarization and symmetric multilinear forms
# ---------------------------------------------------------------------------

def contract(diagonals: np.ndarray, dimension: int, degree: int, vectors: np.ndarray,
             orders) -> np.ndarray:
    """Fix one argument of R symmetric forms at once.

    Row r of `diagonals` is the diagonal p_r, over the table of `degree`, of
    a form of order orders[r] (an int or an (R,) array).  Returns the
    diagonals of phi_r(vectors[r], ., ..., .), D_v p_r / orders[r], over the
    table of degree - 1.  Fixing k of m arguments gives ((m-k)!/m!) D_{v_1}...D_{v_k} p.
    """
    return directional_rows(diagonals, dimension, degree, vectors) \
        / np.reshape(np.asarray(orders, dtype=float), (-1, 1))


@lru_cache(maxsize=None)
def _unit_vectors(dimension: int) -> np.ndarray:
    """The read-only rows e_0, ..., e_(dimension-1)."""
    eye = np.eye(dimension)
    eye.setflags(write=False)
    return eye


def derivative_table(f, points: np.ndarray, m: int) -> np.ndarray:
    """(M, B) table of (m!/beta!) d^beta f(a), one row per point a of an (M, N) batch.

    The columns follow the |beta| == m block of `exponent_array(f.dimension, m)`,
    so row j holds the coefficients of the diagonal polynomial of f^(m)(a_j) (see
    `derivative_form`).  f is differentiated once per beta, on all points
    at once; one (N,) point gives the (B,) row, from f's one-point derivatives.
    """
    points = np.asarray(points, dtype=float)
    betas = exponent_array(f.dimension, m)[-math.comb(f.dimension + m - 1, m):].tolist()
    table = np.empty(points.shape[:-1] + (len(betas),))
    eye = _unit_vectors(f.dimension)
    for k, beta in enumerate(betas):
        dirs = [eye[i] for i, bi in enumerate(beta) for _ in range(bi)]
        deriv = f.directional_derivative(points, dirs)
        weight = math.prod(map(math.factorial, beta))
        table[..., k] = deriv * float(math.factorial(m)) / float(weight)
    return table


def derivative_form(f, a: Sequence[float], m: int) -> np.ndarray:
    """The m-th total derivative of f at a, as the (B,) row of a symmetric m-linear form.

    The row holds the coefficients of p(v) = sum_{|beta|=m} (m!/beta!) d^beta f(a) v^beta
    over the |beta| == m block of `exponent_array(f.dimension, m)`, so
    p(v) = f^(m)(a)(v, ..., v).
    """
    return derivative_table(f, np.asarray(a, dtype=float)[None, :], m)[0]
