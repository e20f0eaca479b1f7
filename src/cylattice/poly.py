"""Dense multivariate polynomial algebra.

A polynomial is one float vector over the graded-lexicographic monomial
table `multi_indices(dimension, degree)`: entry k is the coefficient of the
k-th multi-index.  A table of lower degree is a prefix of a higher one, so
an index keeps its position whatever the degree bound.  Arithmetic runs on
the vectors through cached index tables.  The module also provides Taylor
projectors, Vandermonde determinants, and polarization of homogeneous
polynomials into symmetric multilinear forms.  Everything here is exact up
to floating-point rounding: no quadrature, no truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
def multi_indices(dimension: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices with |alpha| <= max_degree in graded-lex order.

    The count is C(dimension + max_degree, max_degree).
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    out = []
    for k in range(max_degree + 1):
        out.extend(_compositions(k, dimension))
    return tuple(out)


@lru_cache(maxsize=None)
def exponent_array(dimension: int, max_degree: int) -> np.ndarray:
    """`multi_indices(dimension, max_degree)` as a read-only (T, dimension) int array.

    Graded-lex order puts the |alpha| == max_degree block last, so the
    trailing rows are `homogeneous_indices(dimension, max_degree)`.
    """
    table = np.array(multi_indices(dimension, max_degree), dtype=np.intp).reshape(-1, dimension)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def homogeneous_indices(dimension: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices with |alpha| == degree, lex order.

    The count is C(dimension + degree - 1, degree), the dimension of the
    space of homogeneous polynomials of that degree.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return tuple(_compositions(degree, dimension))


@lru_cache(maxsize=None)
def _position_index(dimension: int, degree: int) -> dict:
    """Position of each exponent tuple in `multi_indices(dimension, degree)`."""
    return {alpha: k for k, alpha in enumerate(multi_indices(dimension, degree))}


def _positions(dimension: int, degree: int, exponents) -> np.ndarray:
    """Position of each (..., dimension) exponent row in `exponent_array(dimension, degree)`.

    Every row must occur in the table.  A table of lower degree is a prefix
    of a higher one, so the position holds in every table containing the row.
    """
    rows = np.asarray(exponents, dtype=np.intp)
    position = _position_index(dimension, degree)
    found = [position[alpha] for alpha in map(tuple, rows.reshape(-1, dimension).tolist())]
    return np.array(found, dtype=np.intp).reshape(rows.shape[:-1])


@lru_cache(maxsize=None)
def _product_map(dimension: int, left: int, right: int) -> np.ndarray:
    """Read-only positions of alpha + beta, alpha and beta from the tables of `left`, `right`."""
    sums = exponent_array(dimension, left)[:, None, :] + exponent_array(dimension, right)[None]
    table = _positions(dimension, left + right, sums)
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
            _positions(dimension, max(degree - 1, 0), lowered))
    for table in maps:
        table.setflags(write=False)
    return maps


def basis_vector(dimension: int, i: int) -> np.ndarray:
    e = np.zeros(dimension)
    e[i] = 1.0
    return e


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
    over `multi_indices(dimension, degree)` are the rows of `coeffs`.

    Leading axes pair blocks: coefficients (F, R, C) and points (F, M, N)
    give (F, M, R), block f's rows evaluated at block f's points only.  The
    rows share one monomial matrix; each value is a compensated row sum.
    """
    nonzero = coeffs.reshape(-1, coeffs.shape[-1]).any(axis=0)  # a zero adds an exact 0
    if not nonzero.any():
        return np.zeros(points.shape[:-1] + coeffs.shape[-2:-1])
    exponents = exponent_array(dimension, degree)[nonzero]
    mono = monomials(points.reshape(-1, dimension), exponents)
    terms = mono.reshape(points.shape[:-1] + (1, exponents.shape[0])) \
        * coeffs[..., None, :, nonzero]
    return _compensated_row_sums(terms.reshape(-1, exponents.shape[0])).reshape(terms.shape[:-1])


def affine_products(normals: np.ndarray, offsets: np.ndarray, factors: np.ndarray,
                    scale: np.ndarray) -> tuple[int, np.ndarray]:
    """Expand R products of affine forms <normals[j], x> - offsets[j] at once.

    Row r multiplies, in order, the forms j = factors[r, t] >= 0 (negative
    entries pad rows with fewer factors), then scales by scale[r].  Returns
    the degree D and the (R, C) coefficients over `multi_indices(N, D)`.
    Each row equals the chain of `MultiPoly.__mul__` from the constant 1,
    then `MultiPoly.scale`, zero-padded to D: one pass per factor takes the
    nonzero products in the same (left term, right term) order, and row r's
    coefficients beyond its own degree stay +0.0.
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
    coeffs = np.ones((rows, 1))
    degree = np.zeros(rows, dtype=np.intp)  # each row's degree as the chain tracks it
    for t in range(count):
        nonzero = coeffs != 0.0
        reached = (nonzero * column_degree[:coeffs.shape[1]]).max(axis=1)
        degree = np.where(present[:, t], reached + raises[:, t], degree)
        size = math.comb(dimension + t + 1, dimension)
        keep = nonzero[:, :, None] & form_nonzero[:, None, t]
        # Row-major (row, left term, right term) order: each target sums as `__mul__` does.
        targets = (first * size + _product_map(dimension, t, 1))[keep]
        products = (coeffs[:, :, None] * forms[:, None, t])[keep]
        coeffs = np.bincount(targets, products, minlength=rows * size).reshape(rows, size)
    top = int(degree.max(initial=0))
    sizes = np.array([math.comb(dimension + k, dimension) for k in range(top + 1)])
    coeffs = np.asarray(scale, dtype=float)[:, None] * coeffs[:, :sizes[-1]]
    coeffs[np.arange(sizes[-1]) >= sizes[degree][:, None]] = 0.0
    return top, coeffs


# ---------------------------------------------------------------------------
# Dense multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Polynomial in `dimension` variables, dense up to a total-degree bound.

    `coeffs` is a float vector with one entry per row of
    `multi_indices(dimension, degree)`, in that graded-lex order; zeros
    included.  The constructor takes that vector, or a dict from exponent
    tuples to coefficients (missing indices are zero).

    Products and derivatives combine nonzero entries only, so an infinite
    coefficient never meets a zero.

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
        size = len(multi_indices(self.dimension, self.degree))
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
            position = _position_index(self.dimension, self.degree)
            vector[[position[key] for key in keys]] = [float(c) for c in coeffs.values()]
        self.coeffs = vector

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dimension: int, degree: int = 0) -> "MultiPoly":
        return cls(dimension, degree)

    @classmethod
    def constant(cls, dimension: int, value: float) -> "MultiPoly":
        return cls(dimension, 0, [float(value)])

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

    @classmethod
    def linear(cls, normal: Sequence[float]) -> "MultiPoly":
        """The linear form <normal, x>."""
        return cls.affine(normal, 0.0)

    # -- structure ----------------------------------------------------------

    def nonzero_items(self):
        """(alpha, coefficient) of every nonzero entry, in graded-lex order."""
        table = multi_indices(self.dimension, self.degree)
        nonzero = self.coeffs.nonzero()[0]
        return [(table[k], c) for k, c in zip(nonzero.tolist(), self.coeffs[nonzero].tolist())]

    def coefficient(self, alpha: Sequence[int]) -> float:
        return dict(self.nonzero_items()).get(tuple(int(a) for a in alpha), 0.0)

    def _support(self) -> tuple[np.ndarray, int]:
        """Positions of the nonzero entries and the total degree they reach."""
        nonzero = self.coeffs.nonzero()[0]
        if nonzero.size == 0:
            return nonzero, 0
        return nonzero, sum(multi_indices(self.dimension, self.degree)[nonzero[-1]])

    def total_degree(self) -> int:
        return self._support()[1]

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def is_homogeneous(self, degree: int) -> bool:
        degrees = exponent_array(self.dimension, self.degree).sum(axis=1)
        return not self.coeffs[degrees != degree].any()

    def homogeneous_component(self, degree: int) -> "MultiPoly":
        return MultiPoly(self.dimension, degree,
                         {a: c for a, c in self.nonzero_items() if sum(a) == degree})

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def coeff_distance(self, other: "MultiPoly") -> float:
        """Max absolute coefficient difference, over the union of indices."""
        return (self - other).max_abs_coeff()

    # -- arithmetic ---------------------------------------------------------

    def _binary(self, other, sign: float) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.dimension, other)
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        out = np.zeros(max(self.coeffs.size, other.coeffs.size))
        out[:self.coeffs.size] = self.coeffs
        out[:other.coeffs.size] += sign * other.coeffs
        return MultiPoly(self.dimension, max(self.degree, other.degree), out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor: float) -> "MultiPoly":
        return MultiPoly(self.dimension, self.degree, factor * self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(float(other))
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        left, ldeg = self._support()
        right, rdeg = other._support()
        out = np.zeros(len(multi_indices(self.dimension, ldeg + rdeg)))
        # Pairs in row-major order: each coefficient sums its products in
        # the order of a loop over left terms, then right terms.
        targets = _product_map(self.dimension, ldeg, rdeg)[left[:, None], right]
        np.add.at(out, targets, self.coeffs[left, None] * other.coeffs[right])
        return MultiPoly(self.dimension, ldeg + rdeg, out)

    __rmul__ = __mul__  # only for a scalar on the left

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        out = MultiPoly.constant(self.dimension, 1.0)
        for _ in range(exponent):
            out = out * self
        return out

    # -- calculus -----------------------------------------------------------

    def directional(self, v: Sequence[float]) -> "MultiPoly":
        """Formal directional derivative D_v p = sum_i v_i dp/dx_i."""
        v = np.asarray(v, dtype=float)
        out = np.zeros(len(multi_indices(self.dimension, max(self.degree - 1, 0))))
        source, variable, power, target = _lowering_map(self.dimension, self.degree)
        keep = (self.coeffs[source] != 0.0) & (v[variable] != 0.0)
        np.add.at(out, target[keep],
                  self.coeffs[source[keep]] * power[keep] * v[variable[keep]])
        return MultiPoly(self.dimension, max(self.degree - 1, 0), out)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dimension},)")
        point = x.tolist()
        terms = []
        for a, c in self.nonzero_items():
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

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return self.evaluate_many(x)
        return self.evaluate(x)

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
        row = [MultiPoly.constant(new_dim, 1.0)]
        for _ in range(max_pow[i]):
            row.append(row[-1] * r)
        powers.append(row)
    terms = []
    for a, c in p.nonzero_items():
        term = MultiPoly.constant(new_dim, c)
        for i, ai in enumerate(a):
            if ai:
                term = term * powers[i][ai]
        terms.append(term)
    # One vector takes the terms in order, as a chain of additions would.
    degree = max((term.degree for term in terms), default=0)
    out = np.zeros(len(multi_indices(new_dim, degree)))
    for term in terms:
        out[:term.coeffs.size] += term.coeffs
    return MultiPoly(new_dim, degree, out)


# ---------------------------------------------------------------------------
# Taylor projector
# ---------------------------------------------------------------------------

def taylor(f, center: Sequence[float], order: int) -> MultiPoly:
    """Taylor polynomial of f at `center` to the given order.

    The Taylor coefficients d^alpha f(center) / alpha! form a polynomial in
    the variables x - center; substituting x_i - center_i re-expands it on
    the monomial basis about the origin, so its coefficients are directly
    comparable with any other MultiPoly.  The result has degree bound
    `order`.  Requires f to expose exact directional derivatives up to
    `order` (see :mod:`cylattice.functions`); polynomials are reproduced
    exactly.
    """
    center = np.asarray(center, dtype=float)
    n = f.dimension
    coeffs = []
    for alpha in multi_indices(n, order):
        dirs = [basis_vector(n, i) for i, ai in enumerate(alpha) for _ in range(ai)]
        deriv = f.directional_derivative(center, dirs)
        coeffs.append(float(deriv) / math.prod(map(math.factorial, alpha)))
    if not center.any():  # x - 0 needs no re-expansion; + 0.0 turns -0.0 into +0.0 as it would
        return MultiPoly(n, order, np.array(coeffs) + 0.0)
    shifted = [MultiPoly.affine(basis_vector(n, i), center[i]) for i in range(n)]
    expanded = substitute(MultiPoly(n, order, coeffs), shifted).coeffs
    return MultiPoly(n, order, np.pad(expanded, (0, len(coeffs) - expanded.size)))


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
    source, variable, power, target = _lowering_map(dimension, degree)
    rows, size = diagonals.shape[0], len(multi_indices(dimension, max(degree - 1, 0)))
    # Cell (alpha - e_i, r) sums its terms in the order of the (alpha, i) table.
    out = np.bincount((target[:, None] * rows + np.arange(rows)).ravel(),
                      (diagonals[:, source] * (power * vectors[:, variable])).T.ravel(),
                      minlength=size * rows).reshape(size, rows).T
    return out / np.reshape(np.asarray(orders, dtype=float), (-1, 1))


@dataclass(frozen=True)
class SymmetricForm:
    """Symmetric m-linear form stored through its diagonal restriction.

    `diagonal` is the homogeneous polynomial p(v) = phi(v, ..., v).  Fixing
    arguments (`fix`) gives the lower-order forms; a mixed value fixes all m.
    """

    order: int
    dimension: int
    diagonal: MultiPoly

    def __post_init__(self):
        if self.diagonal.dimension != self.dimension:
            raise ValueError("diagonal polynomial dimension mismatch")
        if not self.diagonal.is_homogeneous(self.order):
            raise ValueError(f"diagonal is not homogeneous of degree {self.order}")
        if self.diagonal.degree != self.order:  # store p over the table of its degree
            object.__setattr__(self, "diagonal", self.diagonal.homogeneous_component(self.order))

    def fix(self, *vectors) -> "SymmetricForm":
        """phi(v_1, ..., v_k, ., ..., .), the order m - k form; see `contract`."""
        if len(vectors) > self.order:
            raise ValueError(f"cannot fix {len(vectors)} arguments of an order-{self.order} form")
        order, row = self.order, self.diagonal.coeffs[None]
        for v in vectors:
            row = contract(row, self.dimension, order, np.asarray(v, dtype=float)[None], order)
            order -= 1
        return SymmetricForm(order, self.dimension, MultiPoly(self.dimension, order, row[0]))

    def __call__(self, *vectors) -> float:
        if len(vectors) != self.order:
            raise ValueError(f"expected {self.order} vectors, got {len(vectors)}")
        arrs = [np.asarray(v, dtype=float) for v in vectors]
        if arrs and all(np.array_equal(arrs[0], v) for v in arrs[1:]):
            return float(self.diagonal.evaluate_many(arrs[0][None])[0])
        return float(self.fix(*arrs).diagonal.coeffs[0])


def derivative_table(f, points: np.ndarray, m: int) -> np.ndarray:
    """(M, B) table of (m!/beta!) d^beta f(a), one row per point a.

    The columns follow `homogeneous_indices(f.dimension, m)`, so row j holds
    the coefficients of the diagonal polynomial of f^(m)(a_j) (see
    `derivative_form`).  f is differentiated once per beta, on all points
    at once.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = f.dimension
    betas = homogeneous_indices(n, m)
    table = np.empty((points.shape[0], len(betas)))
    for k, beta in enumerate(betas):
        dirs = [basis_vector(n, i) for i, bi in enumerate(beta) for _ in range(bi)]
        deriv = f.directional_derivative(points, dirs)
        weight = math.prod(map(math.factorial, beta))
        table[:, k] = deriv * float(math.factorial(m)) / float(weight)
    return table


def derivative_form(f, a: Sequence[float], m: int) -> SymmetricForm:
    """The m-th total derivative of f at a, as a symmetric m-linear form.

    The diagonal polynomial is p(v) = sum_{|beta|=m} (m!/beta!) d^beta f(a) v^beta,
    so that calling the form on (v, ..., v) gives f^(m)(a)(v, ..., v).
    """
    a = np.asarray(a, dtype=float)
    n = f.dimension
    row = derivative_table(f, a[None, :], m)[0]
    p = MultiPoly(n, m, np.pad(row, (len(multi_indices(n, m)) - row.size, 0)))
    return SymmetricForm(order=m, dimension=n, diagonal=p)
