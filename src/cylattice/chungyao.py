"""Chung-Yao interpolation, cardinal polynomials, and remainder formulas.

The interpolation operator at a lattice of C(d, N) vertices reproduces every
polynomial of degree d - N.  Its error against a smooth function decomposes
over the lattice lines: for each (N-1)-subset K a product polynomial P_K
weights a divided difference taken along the line direction n_K.  The same
product polynomials, in homogeneous form and over truncated families, drive
a Newton-like staged identity for symmetric multilinear forms that converts
the interpolation error into a Taylor-remainder decomposition.

The P_K of a family and the cardinal polynomials of a lattice are read-only
:class:`PKTable` records of their affine factors, evaluated as products and
expanded to coefficients only when read; row r of a full P_K table and of the
line table is the same K.  A truncated, homogeneous or staged table takes a
prefix of each line's completing planes.  Each identity check evaluates a
whole stack of forms, points or subsets, with no per-term Python loop.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import ConditioningError, DegenerateSubsetError
from .geometry import (ChungYaoLattice, HyperplaneFamily, LineTable, line_points, newton_index,
                       subset_index)
from .poly import MultiPoly, affine_products, contract, evaluate_rows, exponent_array
from .functions import SmoothFunction
from .divdiff import line_divided_differences


# ---------------------------------------------------------------------------
# Cardinal polynomials and the interpolation operator
# ---------------------------------------------------------------------------

def cardinal_polynomial(lattice: ChungYaoLattice, subset) -> MultiPoly:
    """Fundamental polynomial of theta_H (1 there, 0 at other vertices): its cardinal_table row."""
    table, fam = cardinal_table(lattice), lattice.family
    rank = subset_index(fam.count, fam.dimension).rank
    return MultiPoly(lattice.dimension, table.degree, table.coeffs[rank[tuple(sorted(subset))]])


@dataclass
class Interpolant:
    """Lagrange interpolant at a Chung-Yao lattice, expanded to coefficients.

    `values` is the (V,) vertex data, entry k at row k of the vertex table;
    `polynomial` is the expanded sum of cardinal polynomials, degree at most d - N.
    """

    lattice: ChungYaoLattice
    polynomial: MultiPoly
    values: np.ndarray

    def vertex_residual(self) -> float:
        """Max relative mismatch of the expanded polynomial at the vertices."""
        errors = self.polynomial.evaluate_many(self.lattice.vertex_array()) - self.values
        return float(np.max(np.abs(errors))) / max(1.0, float(np.max(np.abs(self.values))))


def cardinal_table(lattice: ChungYaoLattice) -> PKTable:
    """The cardinal polynomials, row k for the k-th vertex, kept in `lattice.cardinals`.

    Row H is the product of the ell_j, j outside H in ascending order, over
    the running product of the ell_j(theta_H), as in a P_K table.  A
    vanishing ell_j(theta_H) (theta_H on an extra plane) raises DegenerateSubsetError.
    """
    if lattice.cardinals is None:
        fam, thetas = lattice.family, lattice.vertex_array()
        subsets, _, _, outside = subset_index(fam.count, fam.dimension)
        # One (1, N) @ (N, 1) product per entry ell_j(theta_H) = <theta_H, n_j> - c_j.
        values = (thetas[:, None, None] @ fam.normal_matrix()[..., None])[..., 0, 0] - fam.offsets()
        on_plane = np.abs(values) <= 1e-12 * (1.0 + np.linalg.norm(thetas, axis=1))[:, None]
        on_plane[np.arange(len(thetas))[:, None], fam.report.subsets] = False
        if on_plane.any():
            k, j = np.argwhere(on_plane)[0]
            raise DegenerateSubsetError(
                f"vertex {subsets[k]} lies on hyperplane {j}; cardinal polynomial undefined")
        denominators = np.cumprod(np.c_[np.ones(len(outside)),  # a running product
                                        np.take_along_axis(values, outside, axis=1)], axis=1)
        lattice.cardinals = PKTable(subsets, fam.normal_matrix(), fam.offsets(), outside,
                                    1.0 / denominators[:, -1])
    return lattice.cardinals


def interpolate(lattice: ChungYaoLattice, f) -> Interpolant:
    """Lagrange interpolation of f: a SmoothFunction, evaluated once on `lattice.vertices`,
    or its V values there, entry k for row k.

    Returns the expanded polynomial sum of f(theta_H) times the cardinal
    polynomial of H, row H of the cardinal table.  Each coefficient is
    accumulated with compensated summation in ascending subset order: the
    cardinal coefficients can be orders of magnitude larger than their sum,
    and a plain running total loses the cancelled digits.  Raises
    ConditioningError, naming the vertex, when a vertex value or a weighted
    coefficient is not finite, and naming the monomial when a coefficient sum
    overflows.
    """
    with np.errstate(over="ignore"):  # a value that is not finite raises ConditioningError below
        data = np.array(f.evaluate(lattice.vertices) if isinstance(f, SmoothFunction) else f,
                        dtype=float)
    if data.shape != lattice.vertices.shape[:1]:
        raise ValueError(f"need {len(lattice.vertices)} vertex values, got shape {data.shape}")
    if not np.isfinite(data).all():
        k = int(np.argmin(np.isfinite(data)))
        subset = subset_index(lattice.family.count, lattice.dimension).subsets[k]
        raise ConditioningError(f"vertex H={subset}: the value f(theta) = {data[k]} is not finite")
    table = cardinal_table(lattice)
    with np.errstate(over="ignore"):  # an overflow raises ConditioningError below
        weighted = data[:, None] * table.coeffs
    finite = np.isfinite(weighted).all(axis=1)
    if not finite.all():
        raise ConditioningError(
            f"vertex H={table.terms[int(np.argmin(finite))]}: f(theta) times its cardinal "
            "polynomial has a coefficient that is not finite")
    sums = []
    for k, column in enumerate(weighted.T.tolist()):
        try:
            sums.append(math.fsum(column))
        except OverflowError:
            alpha = tuple(exponent_array(lattice.dimension, table.degree)[k].tolist())
            raise ConditioningError(f"coefficient of x^{alpha}: the sum of f(theta) times the "
                                    "cardinal coefficients overflows") from None
    poly = MultiPoly(lattice.dimension, table.degree, sums)
    data.setflags(write=False)
    return Interpolant(lattice=lattice, polynomial=poly, values=data)


# ---------------------------------------------------------------------------
# Product polynomials over (possibly truncated) families
# ---------------------------------------------------------------------------

def pk_polynomial(family: HyperplaneFamily, k_indices, upto: int | None = None,
                  homogeneous: bool = False) -> MultiPoly:
    """Product polynomial of the line subset K over the first `upto` planes.

    prod over ell in the truncation (excluding K) of ell(x) / ell~(n_K); the
    homogeneous variant replaces each numerator by its linear part, making a
    homogeneous polynomial that is 1 at n_K and 0 at every other n_K'.
    An empty product is the constant 1.  It is a copy of K's row of
    `pk_table(family, upto, homogeneous)`.
    """
    k_indices = tuple(sorted(k_indices))
    upto = family.count if upto is None else upto
    if upto > family.count:
        raise ValueError(f"truncation {upto} exceeds family size {family.count}")
    if any(i >= upto for i in k_indices):
        raise ValueError(f"subset {k_indices} not inside truncation of size {upto}")
    table = pk_table(family, upto, homogeneous)
    row = subset_index(upto, family.dimension - 1).rank[k_indices]
    return MultiPoly(family.dimension, table.degree, table.coeffs[row])


@dataclass(frozen=True, eq=False)
class PKTable:
    """Products of affine factors, row r for `terms[r]`: P_K and cardinal tables (shared).

    Row r is scale[r] times the product of ell_j(x) = <normals[j], x> - offsets[j]
    over j = factors[r, t] >= 0 in order (-1 pads a row; zero offsets give P~_K).
    Called on an (M, N) batch or one point, it gives the (M, rows) products, each
    ell_j(x) one (1, N) @ (N, 1) product, so a point's values do not depend on the
    batch.  A row of m factors is within gamma_K = K u / (1 - K u) of the exact
    product of the float planes, K = sum_j ((N+1) kappa_j + N kappa~_j) + 2m to
    first order, with kappa_j = (<|n_j|, |x|> + |c_j|) / |ell_j(x)| and kappa~_j =
    <|n_j|, |n_K|> / |ell~_j(n_K)| (Higham, ch. 3): gamma_(m(2N+3)) where no factor
    cancels.  `degree` and the read-only `coeffs`, the rows expanded by `affine_products`
    over one graded-lex table, are built on first read and kept; they have no such bound.
    """

    terms: tuple
    normals: np.ndarray
    offsets: np.ndarray
    factors: np.ndarray
    scale: np.ndarray
    dimension = property(lambda self: self.normals.shape[1])
    degree = property(lambda self: self._expanded[0])  # the expansion, on first read
    coeffs = property(lambda self: self._expanded[1])

    def __call__(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        planes = np.ones((len(points), len(self.offsets) + 1))  # the last column is the padding
        planes[:, :-1] = (points[:, None, None] @ self.normals[..., None])[..., 0, 0] - self.offsets
        values = np.ones((len(points), len(self.factors)))
        for column in self.factors.T:
            values *= planes[:, column]
        return values * self.scale

    @cached_property
    def _expanded(self) -> tuple[int, np.ndarray]:
        return affine_products(self.normals, self.offsets, self.factors, self.scale)


def _chain_rows(family: HyperplaneFamily, terms, lines: np.ndarray, steps: np.ndarray,
                homogeneous: bool = False) -> PKTable:
    """Row r (terms[r]): P_K of line row lines[r] over its first steps[r] completing planes.

    It divides by their running product of ell~_j(n_K), all kept in `family.pk_chain`.
    P~_K takes zero offsets.  A vanishing ell~_j(n_K) raises DegenerateSubsetError."""
    index = subset_index(family.count, family.dimension - 1)
    if family.pk_chain is None:
        values = np.take_along_axis(family.linear_values(), index.outside, axis=1)
        family.pk_chain = (values, np.cumprod(np.c_[np.ones(len(values)), values], axis=1))
    values, running = family.pk_chain
    present = np.arange(values.shape[1]) < steps[:, None]
    parallel = present & (np.abs(values[lines]) <= 1e-14)
    if parallel.any():
        r, t = np.argwhere(parallel)[0]
        raise DegenerateSubsetError(f"hyperplane {index.outside[lines[r], t]} is parallel to "
                                    f"the line of subset {index.subsets[lines[r]]}")
    offsets = np.zeros(family.count) if homogeneous else family.offsets()
    return PKTable(terms, family.normal_matrix(), offsets,
                   np.where(present, index.outside[lines], -1)[:, :steps.max()],
                   1.0 / running[lines, steps])


def pk_table(family: HyperplaneFamily, upto: int | None = None,
             homogeneous: bool = False) -> PKTable:
    """P_K of every (N-1)-subset K of the first `upto` planes, in combinations order.

    Built once per (upto, homogeneous) from the completing planes of each line
    (see `_chain_rows`) and kept in `family.pk_tables`.
    """
    upto = family.count if upto is None else upto
    key = (upto, bool(homogeneous))
    if key not in family.pk_tables:
        inside = (subset_index(family.count, family.dimension - 1).array < upto).all(axis=1)
        family.pk_tables[key] = _chain_rows(  # the lines inside the truncation, in order
            family, subset_index(upto, family.dimension - 1).subsets, np.flatnonzero(inside),
            np.full(inside.sum(), upto - family.dimension + 1), homogeneous)
    return family.pk_tables[key]


def newton_pk_table(family: HyperplaneFamily) -> PKTable:
    """P_K over the first i-1 planes of every (stage i, K) term of the staged identity.

    Row (i, K) takes the first i - N completing planes of K; built once and kept in
    `family.pk_tables`.
    """
    if "newton" not in family.pk_tables:
        terms, lines, steps = newton_index(family.count, family.dimension)
        family.pk_tables["newton"] = _chain_rows(family, terms, lines, steps)
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


def deboor_remainder(lattice: ChungYaoLattice, f: SmoothFunction, x,
                     interpolant: Interpolant | None = None,
                     lines: LineTable | None = None) -> Decomposition:
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


def remainder_sign_flip_deviation(lattice: ChungYaoLattice, f: SmoothFunction, x) -> float:
    """Max change of any correction term when every n_K is forcibly negated.

    Flipping n_K multiplies P_K and the divided difference by (-1)^(d-N+1)
    each, so the products must be unchanged; returns the worst deviation over
    the point or (M, N) batch x.
    """
    fam = lattice.family
    points = np.atleast_2d(np.asarray(x, dtype=float))
    lines = lattice.line_subsets()
    pk_values = pk_table(fam)(points).T
    plain = pk_values * line_divided_differences(f, lines.points, lines.directions, points)
    # Over -n_K each of the m ell~_j(n_K) of a P_K flips sign: its values times (-1)^m, exactly.
    flipped = (-1.0) ** (fam.degree + 1) * pk_values \
        * line_divided_differences(f, lines.points, -lines.directions, points)
    return float(np.max(np.abs(plain - flipped)))


# ---------------------------------------------------------------------------
# Identities for symmetric multilinear forms
# ---------------------------------------------------------------------------

def homogeneous_representation(family: HyperplaneFamily, phi, v):
    """Represent phi on the diagonal through the n_K interpolation lattice.

    Evaluates sum over K of P~_K(v) * phi(n_K, ..., n_K), which equals
    phi(v, ..., v) for every symmetric form of order m = d - N + 1.  phi is
    one form, the (B,) row of its diagonal over the |alpha| == m block of the
    table of degree m, and v one point (a float); or phi is an (F, B) stack
    of rows and v an (F, N) array (an (F,) array, entry f for phi[f] at v[f]).
    """
    m, forms = _form_stack(family, phi)
    points = np.asarray(v, dtype=float).reshape(len(forms), family.dimension)
    # Row r of the table and of the directions are the same K.
    terms = pk_table(family, homogeneous=True)(points) \
        * evaluate_rows(forms, family.dimension, m, family.line_directions()).T
    return _fsum_rows(terms[0] if np.ndim(phi) == 1 else terms)


def _form_stack(family: HyperplaneFamily, phi) -> tuple[int, np.ndarray]:
    """m = d - N + 1 and the (F, C) diagonals over the table of degree m of phi,
    one (B,) row or an (F, B) stack of rows over its |alpha| == m block."""
    n_dim, m = family.dimension, family.count - family.dimension + 1
    rows = np.asarray(phi, dtype=float)
    width = math.comb(n_dim + m - 1, m)
    if rows.ndim not in (1, 2) or rows.shape[-1] != width:
        raise ValueError(f"a form of order d - N + 1 = {m} on R^{n_dim} is a row of {width} "
                         f"coefficients, got shape {rows.shape}")
    return m, np.pad(rows.reshape(-1, width), ((0, 0), (math.comb(n_dim + m, n_dim) - width, 0)))


NewtonStage = namedtuple("NewtonStage", "stage indices direction vertex")


def newton_stage_data(family: HyperplaneFamily,
                      lattice: ChungYaoLattice | None = None) -> list[NewtonStage]:
    """Each (stage, K) term of `newton_pk_table`, with n_K and vertex (None at the last stage)."""
    if lattice is None:
        lattice = ChungYaoLattice(family)
    return [NewtonStage(stage=stage, indices=k, direction=family.direction(k),
                        vertex=lattice.vertex(k + (stage - 1,)) if stage <= family.count else None)
            for stage, k in newton_pk_table(family).terms]


def _staged_forms(diagonals: np.ndarray, m: int, lattice: ChungYaoLattice) -> np.ndarray:
    """Row (f, r): the diagonal of phi_f(theta, n_K^b, .), b = stage - N, for the r-th term.

    phi_f has diagonal diagonals[f] and order m; theta, the vertex of K and
    plane stage - 1, drops out at the final stage.  The chains phi_f(n_K^b, .)
    are built once, for all K and f at once, and shared by the stages of each K.
    """
    family, n_dim = lattice.family, lattice.dimension
    forms, size = diagonals.shape
    directions = family.line_directions()
    chain = np.zeros((m + 1, len(directions), forms, size))  # (b, K, f)
    chain[0] = diagonals
    for b in range(1, m + 1):
        lowered = contract(chain[b - 1].reshape(-1, size), n_dim, m,
                           np.repeat(directions, forms, axis=0), m - b + 1)
        chain[b, :, :, :lowered.shape[1]] = lowered.reshape(len(directions), forms, -1)
    _, rows, b = newton_index(family.count, n_dim)
    out = chain[b, rows, :, :math.comb(n_dim + m - 1, n_dim)]
    inner = b < m
    # Plane stage - 1 is the b-th completing plane of K, so theta is line K's b-th point.
    vertices = lattice.vertex_array()[line_points(family.count, n_dim)[rows[inner], b[inner]]]
    out[inner] = contract(chain[b[inner], rows[inner]].reshape(-1, size), n_dim, m,
                          np.repeat(vertices, forms, axis=0),
                          np.repeat(m - b[inner], forms)).reshape(-1, forms, out.shape[2])
    return out.transpose(1, 0, 2)


def newton_identity(family: HyperplaneFamily, phi, x,
                    lattice: ChungYaoLattice | None = None) -> Decomposition:
    """Staged decomposition of phi(x^(d-N+1)) over the family truncations.

    Stage i (from N to d+1) sums, over the (N-1)-subsets K of the first i-1
    hyperplanes, the truncated product polynomial at x times phi evaluated on
    d-i copies of x, the vertex of K extended by plane i, and i-N copies of
    n_K.  Empty argument groups drop out exactly as the conventions state;
    at stage d+1 only the n_K arguments remain.

    phi is one form row (see `homogeneous_representation`), with x one
    point or an (M, N) batch; or phi is an (F, B) stack of rows with x an
    (F, M, N) array, row f for phi[f] at its own points x[f].  The
    Decomposition's leading axes are those of the points: none, (M,) or
    (F, M).  Its terms are the (stage, K) rows of
    `newton_pk_table`, its function_value phi(x^(d-N+1)) and its factors
    the staged form values.  With the x arguments left free, each term's
    form is a polynomial independent of x, so all form and P_K values come
    from stacked tables.
    """
    n_dim = family.dimension
    m, diagonals = _form_stack(family, phi)
    x = np.asarray(x, dtype=float)
    points = x.reshape(len(diagonals), -1, n_dim)
    forms = evaluate_rows(_staged_forms(diagonals, m, lattice or ChungYaoLattice(family)),
                          n_dim, m - 1, points)
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
    primes = np.array(k_primes, dtype=np.intp).reshape(len(k_primes), n_dim - 2)
    kept = ~(primes[:, None, :, None] == subset_index(d, n_dim - 1).array[None, :, None, :]
             ).any(axis=3).all(axis=2)  # (s, r): some member of K'_s lies outside K_r
    reports = [TechObservationReport(k_prime=k, direction_subset=target,
                                     indices=tuple(compress(table.terms, keep)), values=row[keep])
               for k, target, row, keep in zip(k_primes, targets, values, kept)]
    return reports[0] if np.ndim(k_prime) < 2 else reports

