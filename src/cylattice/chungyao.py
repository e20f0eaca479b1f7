"""Chung-Yao interpolation, cardinal polynomials, and remainder formulas.

The interpolation operator at a lattice of C(d, N) vertices reproduces every
polynomial of degree d - N.  Its error against a smooth function decomposes
over the lattice lines: for each (N-1)-subset K a product polynomial P_K
weights a divided difference taken along the line direction n_K.  The same
product polynomials, in homogeneous form and over truncated families, drive
a Newton-like staged identity for symmetric multilinear forms that converts
the interpolation error into a Taylor-remainder decomposition.

The P_K of a family and the cardinal polynomials of a lattice are kept as
read-only :class:`PKTable` coefficient matrices, so interpolation is a matrix
product; row r of a full P_K table and of the line table is the same K.  A
P_K table is expanded by one `affine_products` call, and each identity check
evaluates a whole stack of forms, points or subsets in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConditioningError, DegenerateSubsetError
from .geometry import ChungYaoLattice, HyperplaneFamily, LineTable
from .poly import (MultiPoly, SymmetricForm, affine_products, contract, evaluate_rows,
                   multi_indices)
from .functions import SmoothFunction
from .divdiff import line_divided_differences


# ---------------------------------------------------------------------------
# Cardinal polynomials and the interpolation operator
# ---------------------------------------------------------------------------

def cardinal_polynomial(lattice: ChungYaoLattice, subset) -> MultiPoly:
    """Fundamental polynomial of the vertex theta_H: 1 there, 0 elsewhere.

    The product of the affine forms not containing the vertex, normalized by
    their values at it.  A vanishing denominator means the vertex lies on an
    extra hyperplane, contradicting general position.
    """
    fam = lattice.family
    subset = tuple(sorted(subset))
    theta = lattice.vertex(subset)
    scale = 1.0 + float(np.linalg.norm(theta))
    normals, offsets = fam.normal_matrix(), fam.offsets()
    planes = [j for j in range(fam.count) if j not in subset]
    denominator = 1.0
    for j in planes:
        value = float(theta @ normals[j] - offsets[j])
        if abs(value) <= 1e-12 * scale:
            raise DegenerateSubsetError(
                f"vertex {subset} lies on hyperplane {j}; cardinal polynomial undefined"
            )
        denominator *= value
    poly = MultiPoly.constant(fam.dimension, 1.0)
    for j in planes:
        poly = poly * MultiPoly.affine(normals[j], offsets[j])
    return poly.scale(1.0 / denominator)


@dataclass
class Interpolant:
    """Lagrange interpolant at a Chung-Yao lattice, expanded to coefficients.

    `values` keeps the per-vertex data; `polynomial` is the expanded sum of
    cardinal polynomials, degree at most d - N.
    """

    lattice: ChungYaoLattice
    polynomial: MultiPoly
    values: dict

    def __call__(self, x):
        return self.polynomial(x)

    def vertex_residual(self) -> float:
        """Max relative mismatch of the expanded polynomial at the vertices."""
        values = np.array([self.values[subset] for subset in self.lattice.vertices])
        errors = self.polynomial.evaluate_many(self.lattice.vertex_array()) - values
        return float(np.max(np.abs(errors))) / max(1.0, float(np.max(np.abs(values))))


def _values_at_vertices(lattice: ChungYaoLattice, f) -> dict:
    values = {}
    for subset, theta in lattice.vertices.items():
        if isinstance(f, dict):
            values[subset] = float(f[subset])
        elif isinstance(f, SmoothFunction):
            values[subset] = float(f.evaluate(theta))
        else:
            values[subset] = float(f(theta))
    return values


def cardinal_table(lattice: ChungYaoLattice) -> PKTable:
    """The cardinal polynomials, row k for the k-th vertex, kept in `lattice.cardinals`."""
    if lattice.cardinals is None:
        subsets = tuple(lattice.vertices)
        lattice.cardinals = _rows_table(subsets, lattice.dimension,
                                        [cardinal_polynomial(lattice, h) for h in subsets])
    return lattice.cardinals


def interpolate(lattice: ChungYaoLattice, f) -> Interpolant:
    """Lagrange interpolation of f (function, callable, or vertex-value dict).

    Returns the expanded polynomial sum of f(theta_H) times the cardinal
    polynomial of H, row H of the cardinal table.  Each coefficient is
    accumulated with compensated summation in ascending subset order: the
    cardinal coefficients can be orders of magnitude larger than their sum,
    and a plain running total loses the cancelled digits.  Raises
    ConditioningError, naming the vertex, when a vertex value or a weighted
    coefficient is not finite, and naming the monomial when a coefficient sum
    overflows.
    """
    values = _values_at_vertices(lattice, f)
    for subset, value in values.items():
        if not math.isfinite(value):
            raise ConditioningError(
                f"vertex H={subset}: the value f(theta) = {value} is not finite")
    table = cardinal_table(lattice)
    with np.errstate(over="ignore"):  # an overflow raises ConditioningError below
        weighted = np.array(list(values.values()))[:, None] * table.coeffs
    finite = np.isfinite(weighted).all(axis=1)
    if not finite.all():
        raise ConditioningError(
            f"vertex H={table.terms[int(np.argmin(finite))]}: f(theta) times its cardinal "
            "polynomial has a coefficient that is not finite")
    sums = []
    for alpha, column in zip(multi_indices(lattice.dimension, table.degree), weighted.T.tolist()):
        try:
            sums.append(math.fsum(column))
        except OverflowError:
            raise ConditioningError(
                f"coefficient of x^{alpha}: the sum of f(theta) times the cardinal "
                "coefficients overflows") from None
    poly = MultiPoly(lattice.dimension, table.degree, sums)
    return Interpolant(lattice=lattice, polynomial=poly, values=values)


# ---------------------------------------------------------------------------
# Product polynomials over (possibly truncated) families
# ---------------------------------------------------------------------------

def pk_polynomial(
    family: HyperplaneFamily,
    k_indices,
    upto: int | None = None,
    homogeneous: bool = False,
    direction: np.ndarray | None = None,
) -> MultiPoly:
    """Product polynomial of the line subset K over the first `upto` planes.

    prod over ell in the truncation (excluding K) of ell(x) / ell~(n_K); the
    homogeneous variant replaces each numerator by its linear part, making a
    homogeneous polynomial that is 1 at n_K and 0 at every other n_K'.
    An empty product is the constant 1.

    With the family's own n_K (`direction` omitted) this is a copy of K's row
    of `pk_table(family, upto, homogeneous)`.  An explicit `direction` (such
    as -n_K) expands a fresh product every call.
    """
    k_indices = tuple(sorted(k_indices))
    upto = family.count if upto is None else upto
    if upto > family.count:
        raise ValueError(f"truncation {upto} exceeds family size {family.count}")
    if any(i >= upto for i in k_indices):
        raise ValueError(f"subset {k_indices} not inside truncation of size {upto}")
    if direction is None:
        table = pk_table(family, upto, homogeneous)
        return MultiPoly(family.dimension, table.degree, table.coeffs[table.terms.index(k_indices)])
    table = _pk_rows(family, [k_indices], [k_indices], [upto], homogeneous,
                     np.array([[direction @ n for n in family.normal_matrix()]]))
    return MultiPoly(family.dimension, table.degree, table.coeffs[0])


@dataclass(frozen=True, eq=False)
class PKTable:
    """Polynomials of a term list, row r for `terms[r]`, over one graded-lex table (read-only).

    Holds P_K tables and cardinal tables.  Called on an (M, N) batch (or one
    point), it gives the (M, rows) values; `magnitude` gives the matching
    sums of |terms|.
    """

    terms: tuple
    dimension: int
    degree: int
    coeffs: np.ndarray

    def __call__(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return evaluate_rows(self.coeffs, self.dimension, self.degree, points)

    def magnitude(self, points) -> np.ndarray:
        """(M, rows) of sum_alpha |c_alpha| |x|^alpha: the rows at |x| with |coefficients|.

        It bounds |value| and scales the rounding error of a value (Higham,
        Accuracy and Stability of Numerical Algorithms, ch. 3).
        """
        points = np.abs(np.atleast_2d(np.asarray(points, dtype=float)))
        return evaluate_rows(np.abs(self.coeffs), self.dimension, self.degree, points)


def _rows_table(terms, dimension: int, polys) -> PKTable:
    """Row r holds polys[r], zero-padded to the largest degree."""
    degree = max(p.degree for p in polys)
    coeffs = np.zeros((len(polys), len(multi_indices(dimension, degree))))
    for row, p in zip(coeffs, polys):
        row[:p.coeffs.size] = p.coeffs
    coeffs.setflags(write=False)
    return PKTable(tuple(terms), dimension, degree, coeffs)


def _pk_rows(family: HyperplaneFamily, terms, subsets, uptos, homogeneous: bool = False,
             values: np.ndarray | None = None) -> PKTable:
    """The table of P_K for K = subsets[r] over the first uptos[r] planes, row r for terms[r].

    values[r, j] is ell~_j at row r's direction, n_K when omitted; the factors
    of row r are the planes j < uptos[r] outside K, in ascending order.
    """
    if values is None:
        values = family.linear_values()[[family.line_row(k) for k in subsets]]
    planes = [[j for j in range(upto) if j not in k] for k, upto in zip(subsets, uptos)]
    width = max(map(len, planes))
    factors = np.array([row + [-1] * (width - len(row)) for row in planes], dtype=np.intp)
    present = factors >= 0
    denoms = np.where(present, np.take_along_axis(values, factors, axis=1), 1.0)
    parallel = present & (np.abs(denoms) <= 1e-14)
    if parallel.any():
        r, t = np.argwhere(parallel)[0]
        raise DegenerateSubsetError(
            f"hyperplane {factors[r, t]} is parallel to the line of subset {subsets[r]}")
    denominator = np.ones(len(subsets))
    for column in denoms.T:  # in factor order, as a running product
        denominator = denominator * column
    offsets = np.zeros(family.count) if homogeneous else family.offsets()
    degree, coeffs = affine_products(family.normal_matrix(), offsets, factors, 1.0 / denominator)
    coeffs.setflags(write=False)
    return PKTable(tuple(terms), family.dimension, degree, coeffs)


def pk_table(family: HyperplaneFamily, upto: int | None = None,
             homogeneous: bool = False) -> PKTable:
    """P_K of every (N-1)-subset K of the first `upto` planes, in combinations order.

    Built once per (upto, homogeneous) and kept in `family.pk_tables`.
    """
    upto = family.count if upto is None else upto
    key = (upto, bool(homogeneous))
    if key not in family.pk_tables:
        terms = list(combinations(range(upto), family.dimension - 1))
        family.pk_tables[key] = _pk_rows(family, terms, terms, [upto] * len(terms), homogeneous)
    return family.pk_tables[key]


def newton_pk_table(family: HyperplaneFamily) -> PKTable:
    """P_K over the first i-1 planes of every (stage i, K) term of the staged identity.

    Built once and kept in `family.pk_tables`.
    """
    if "newton" not in family.pk_tables:
        n_dim = family.dimension
        terms = [(stage, k) for stage in range(n_dim, family.count + 2)
                 for k in combinations(range(stage - 1), n_dim - 1)]
        family.pk_tables["newton"] = _pk_rows(family, terms, [k for _, k in terms],
                                              [stage - 1 for stage, _ in terms])
    return family.pk_tables["newton"]


# ---------------------------------------------------------------------------
# Decompositions: de Boor's remainder, the staged identity, the Taylor split
# ---------------------------------------------------------------------------

def _floats(values):
    """values as they are, or a Python float when they have no axis."""
    return float(values) if np.ndim(values) == 0 else values


def _fsum_rows(values: np.ndarray):
    """math.fsum of each row along the last axis, over the leading shape (a float for one row)."""
    sums = [math.fsum(row) for row in values.reshape(-1, values.shape[-1]).tolist()]
    return _floats(np.reshape(sums, values.shape[:-1]))


@dataclass(frozen=True, eq=False)
class Decomposition:
    """function_value split as interpolant_value + sum over terms of pk_values * factors.

    terms[r] labels column r of `pk_values` and `factors`: K for de Boor's
    remainder, with factors the divided differences [Theta_K, x | n_K^m]f;
    (stage, K) for the staged identity and the Taylor split, with factors
    the staged form values and the derivative integrals.  interpolant_value
    is L[f](x) for de Boor, T(f)(x) for the Taylor split and 0.0 for the
    staged identity, whose function_value is phi(x^m).  The leading axes
    follow the points: none for one point (the values are Python floats),
    (M,) for an (M, N) batch and (F, M) for F forms.
    """

    terms: tuple
    function_value: float | np.ndarray
    interpolant_value: float | np.ndarray
    pk_values: np.ndarray
    factors: np.ndarray

    def total(self):
        """The sum of pk_values * factors over the terms, correctly rounded (math.fsum)."""
        return _fsum_rows(self.pk_values * self.factors)

    def residual(self):
        return abs(self.function_value - (self.interpolant_value + self.total()))

    def relative_residual(self):
        """residual / max(1, |function_value|)."""
        return _floats(self.residual() / np.maximum(1.0, np.abs(self.function_value)))


def deboor_remainder(
    lattice: ChungYaoLattice,
    f: SmoothFunction,
    x,
    interpolant: Interpolant | None = None,
    lines: LineTable | None = None,
) -> Decomposition:
    """Exact decomposition f(x) = L[f](x) + sum over K of P_K(x) [Theta_K, x | n_K...]f.

    Each correction term pairs the degree d-N+1 product polynomial of a line
    subset with the order d-N+1 divided difference of f along its direction.
    Requires f of smoothness class d-N+1 on the hull of the lattice and x.
    Pass `interpolant`/`lines` to reuse work across calls.  x is one point
    or an (M, N) batch, giving a Decomposition with no leading axis or with
    (M,); its terms are `lines.indices`.
    """
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(x)
    if interpolant is None:
        interpolant = interpolate(lattice, f)
    if lines is None:
        lines = lattice.line_subsets()
    dds = line_divided_differences(f, lines.points, lines.directions, points)
    lead = x.shape[:-1]
    # Row r of the P_K table and line r are the same K.
    return Decomposition(
        terms=lines.indices,
        function_value=_floats(np.reshape([float(f.evaluate(p)) for p in points], lead)),
        interpolant_value=_floats(np.reshape(
            [interpolant.polynomial.evaluate(p) for p in points], lead)),
        pk_values=pk_table(lattice.family)(points).reshape(lead + (-1,)),
        factors=dds.T.reshape(lead + (-1,)))


def remainder_sign_flip_deviation(
    lattice: ChungYaoLattice,
    f: SmoothFunction,
    x,
) -> float:
    """Max change of any correction term when every n_K is forcibly negated.

    Flipping n_K multiplies P_K and the divided difference by (-1)^(d-N+1)
    each, so the products must be unchanged; returns the worst deviation over
    the point or (M, N) batch x.
    """
    fam = lattice.family
    points = np.atleast_2d(np.asarray(x, dtype=float))
    lines = lattice.line_subsets()
    plain = pk_table(fam)(points).T \
        * line_divided_differences(f, lines.points, lines.directions, points)
    # The flipped P_K go through the same batched arithmetic as the table.
    flipped_pk = _pk_rows(fam, lines.indices, lines.indices, [fam.count] * len(lines),
                          values=-fam.linear_values())
    flipped = flipped_pk(points).T \
        * line_divided_differences(f, lines.points, -lines.directions, points)
    return float(np.max(np.abs(plain - flipped)))


# ---------------------------------------------------------------------------
# Identities for symmetric multilinear forms
# ---------------------------------------------------------------------------

def homogeneous_representation(family: HyperplaneFamily, phi, v):
    """Represent phi on the diagonal through the n_K interpolation lattice.

    Evaluates sum over K of P~_K(v) * phi(n_K, ..., n_K), which equals
    phi(v, ..., v) for every symmetric form of order d - N + 1.  phi is one
    form and v one point (a float), or phi a sequence of F forms and v an
    (F, N) array (an (F,) array, entry f for phi[f] at v[f]).
    """
    m, forms = _form_stack(family, phi)
    points = np.asarray(v, dtype=float).reshape(len(forms), family.dimension)
    # Row r of the table and of the directions are the same K.
    terms = pk_table(family, homogeneous=True)(points) \
        * evaluate_rows(forms, family.dimension, m, family.line_directions()).T
    return _fsum_rows(terms[0] if isinstance(phi, SymmetricForm) else terms)


def _form_stack(family: HyperplaneFamily, phi) -> tuple[int, np.ndarray]:
    """m = d - N + 1 and the (F, C) diagonals of phi, one form or a sequence of forms of order m."""
    m = family.count - family.dimension + 1
    forms = [phi] if isinstance(phi, SymmetricForm) else list(phi)
    for form in forms:
        if form.order != m:
            raise ValueError(f"form order {form.order} does not match d - N + 1 = {m}")
    return m, np.array([form.diagonal.coeffs for form in forms])


@dataclass
class NewtonStage:
    """Precomputed data of one (stage, K) term of the staged identity.

    Its P_K is the same row of `newton_pk_table`.
    """

    stage: int
    indices: tuple[int, ...]
    direction: np.ndarray
    vertex: np.ndarray | None  # absent at the final stage


def newton_stage_data(
    family: HyperplaneFamily,
    lattice: ChungYaoLattice | None = None,
) -> list[NewtonStage]:
    """All (stage, K) data of the staged identity, reusable across x and phi."""
    if lattice is None:
        lattice = ChungYaoLattice(family)
    return [NewtonStage(stage=stage, indices=k, direction=family.direction(k),
                        vertex=lattice.vertex(k + (stage - 1,)) if stage <= family.count else None)
            for stage, k in newton_pk_table(family).terms]


def _staged_forms(diagonals: np.ndarray, m: int, family: HyperplaneFamily,
                  stages) -> np.ndarray:
    """Row (f, r): the diagonal of phi_f(theta, n_K^b, .), b = stage - N, for the r-th term.

    phi_f has diagonal diagonals[f] and order m; theta drops out at the final
    stage.  The chains phi_f(n_K^b, .) are built once, for all K and f at
    once, and shared by the stages of each K.
    """
    n_dim = family.dimension
    forms, size = diagonals.shape
    directions = family.line_directions()
    chain = np.zeros((m + 1, len(directions), forms, size))  # (b, K, f)
    chain[0] = diagonals
    for b in range(1, m + 1):
        lowered = contract(chain[b - 1].reshape(-1, size), n_dim, m,
                           np.repeat(directions, forms, axis=0), m - b + 1)
        chain[b, :, :, :lowered.shape[1]] = lowered.reshape(len(directions), forms, -1)
    rows = np.array([family.line_row(st.indices) for st in stages])
    b = np.array([st.stage - n_dim for st in stages])
    out = chain[b, rows, :, :len(multi_indices(n_dim, m - 1))]
    inner = b < m
    vertices = np.array([st.vertex for st in stages if st.vertex is not None])
    out[inner] = contract(chain[b[inner], rows[inner]].reshape(-1, size), n_dim, m,
                          np.repeat(vertices, forms, axis=0),
                          np.repeat(m - b[inner], forms)).reshape(-1, forms, out.shape[2])
    return out.transpose(1, 0, 2)


def newton_identity(
    family: HyperplaneFamily,
    phi,
    x,
    lattice: ChungYaoLattice | None = None,
) -> Decomposition:
    """Staged decomposition of phi(x^(d-N+1)) over the family truncations.

    Stage i (from N to d+1) sums, over the (N-1)-subsets K of the first i-1
    hyperplanes, the truncated product polynomial at x times phi evaluated on
    d-i copies of x, the vertex of K extended by plane i, and i-N copies of
    n_K.  Empty argument groups drop out exactly as the conventions state;
    at stage d+1 only the n_K arguments remain.

    phi is one form, with x one point or an (M, N) batch; or phi is a
    sequence of F forms with x an (F, M, N) array, row f for phi[f] at its
    own points x[f].  The Decomposition's leading axes are those of the
    points: none, (M,) or (F, M).  Its terms are the (stage, K) rows of
    `newton_pk_table`, its function_value phi(x^(d-N+1)) and its factors
    the staged form values.  With the x arguments left free, each term's
    form is a polynomial independent of x, so all form and P_K values come
    from stacked tables.
    """
    n_dim = family.dimension
    m, diagonals = _form_stack(family, phi)
    x = np.asarray(x, dtype=float)
    points = x.reshape(len(diagonals), -1, n_dim)
    stages = newton_stage_data(family, lattice)
    forms = evaluate_rows(_staged_forms(diagonals, m, family, stages), n_dim, m - 1, points)
    targets = evaluate_rows(diagonals[:, None], n_dim, m, points)[..., 0]
    table = newton_pk_table(family)
    lead = x.shape[:-1]
    return Decomposition(terms=table.terms, function_value=_floats(targets.reshape(lead)),
                         interpolant_value=0.0,
                         pk_values=table(points.reshape(-1, n_dim)).reshape(lead + (-1,)),
                         factors=forms.reshape(lead + (-1,)))


@dataclass
class TechObservationReport:
    """Vanishing check of homogeneous products at cross-subset directions.

    values[r] is the homogeneous product of the K = indices[r] at the
    direction of `direction_subset`, over the K not containing K'.
    """

    k_prime: tuple[int, ...]
    direction_subset: tuple[int, ...]
    indices: tuple[tuple[int, ...], ...]
    values: np.ndarray

    @property
    def vacuous(self) -> bool:
        return not self.indices

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))


def techobserv_check(family: HyperplaneFamily, k_prime):
    """For K' of size N-2 (within the first d of d+1 planes), check that the
    homogeneous product of every K not containing K' vanishes at the
    direction of K' extended by the last plane.

    K' contained in K is excluded (the value is generally nonzero there).
    k_prime is one subset (one report) or a sequence of subsets (a list of
    reports, from one table evaluation).
    """
    n_dim = family.dimension
    if n_dim < 2:
        raise ValueError("needs dimension >= 2")
    d = family.count - 1
    if d < n_dim:
        raise ValueError(f"needs at least {n_dim + 1} hyperplanes, got {family.count}")
    k_primes = [tuple(sorted(k)) for k in ([k_prime] if np.ndim(k_prime) < 2 else k_prime)]
    for k in k_primes:
        if len(k) != n_dim - 2 or any(i >= d for i in k):
            raise ValueError(f"k_prime must be an (N-2)-subset of the first {d} hyperplanes")
    targets = [k + (d,) for k in k_primes]
    table = pk_table(family, upto=d, homogeneous=True)
    values = table(np.array([family.direction(t) for t in targets]))
    reports = []
    for k, target, row in zip(k_primes, targets, values):
        kept = [r for r, k_idx in enumerate(table.terms) if not set(k) <= set(k_idx)]
        reports.append(TechObservationReport(k_prime=k, direction_subset=target,
                                             indices=tuple(table.terms[r] for r in kept),
                                             values=row[kept]))
    return reports[0] if np.ndim(k_prime) < 2 else reports

