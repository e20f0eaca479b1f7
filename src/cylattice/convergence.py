"""Convergence of interpolants of shrinking lattices toward Taylor polynomials.

A lattice sequence converges when (C1) all vertices tend to the origin and
(C2) the parallelotope volumes of every N-subset of unit normals stay
bounded away from zero.  Under (C2), (C1) is equivalent to (C3): the
hyperplane offsets tend to zero.  This module measures those statistics on
finite index ranges, builds the affine-image and three-point triangle
families that configs describe (the worked examples are the bundled
affine_triangle.json and degenerate_eps{0,1}.json), fits error rates against
the lattice norm, and evaluates the explicit bound the convergence proof yields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConditioningError, ConfigError, CyLatticeError, DegenerateSubsetError
from .geometry import ChungYaoLattice, HyperplaneFamily, PlaneError
from .poly import MultiPoly, taylor
from .functions import SmoothFunction
from .chungyao import interpolate, pk_table
from . import poly as _poly

DEFAULT_C2_THRESHOLD = 0.05
DEFAULT_DECAY_FACTOR = 0.1
DEFAULT_RADIUS = 0.5
DEFAULT_GRID_PER_AXIS = 21
DEFAULT_S_VALUES = (2, 4, 8, 16, 32, 64, 128, 256)
# Most ball-grid points times monomials of one grid evaluation, whose monomial,
# term and row-sum arrays take about 40 bytes per pair; more is a ConfigError.
MAX_GRID_TERMS = 10_000_000
_BOUND_SEED = 20240
# Samples of the derivative norm estimate (points a, directions v).
_NORM_POINTS = 48
_NORM_DIRECTIONS = 256


# ---------------------------------------------------------------------------
# Sequences of families
# ---------------------------------------------------------------------------

@dataclass
class LatticeSequence:
    """Generator of hyperplane families indexed by s (with t = 1/s).

    `affine` is (base, matrix_fn, offset_fn) for a sequence of affine images
    (see affine_sequence), and None otherwise.
    """

    generator: Callable[[int], HyperplaneFamily]
    label: str = ""
    affine: tuple | None = None

    def family(self, s: int) -> HyperplaneFamily:
        return self.generator(s)


def transform_family(family: HyperplaneFamily, matrix, offset) -> HyperplaneFamily:
    """Affine image of a family: each plane is re-normalized after mapping.

    For the transform x -> L x + b, the image of <n, x> = c has normal
    L^{-T} n (renormalized) and offset (c + <n, L^{-1} b>) divided by the
    same norm.  Raises DegenerateSubsetError on singular L, or when an image
    normal L^{-T} n is too small to normalize, and ConditioningError when an
    image normal or offset is not finite.
    """
    mat = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float)
    if abs(float(np.linalg.det(mat))) <= 1e-300:
        raise DegenerateSubsetError("singular linear part")
    l_inv_b = np.linalg.solve(mat, b)
    normals = family.normal_matrix()
    # The family divides (w, c) jointly by ||w||, w = L^{-T} n: the normalized image.
    with np.errstate(over="ignore", invalid="ignore"):  # the family rejects what is not finite
        images = np.linalg.solve(np.broadcast_to(mat.T, normals.shape + normals.shape[-1:]),
                                 normals[..., None])[..., 0]
        offsets = family.offsets() + (normals[:, None, :] @ l_inv_b[:, None])[:, 0, 0]
    return _family(images, offsets, lambda k: f"the affine image of plane {k}",
                   det_tolerance=family.det_tolerance)


def _family(normals, offsets, name: Callable[[int], str], **kw) -> HyperplaneFamily:
    """HyperplaneFamily(normals, offsets, **kw); a rejected row k, named name(k), is
    DegenerateSubsetError for a vanishing normal and ConditioningError when not finite."""
    try:
        return HyperplaneFamily(normals, offsets, **kw)
    except PlaneError as exc:
        if np.max(np.abs(normals[exc.row])) <= 1e-14:
            raise DegenerateSubsetError(f"{name(exc.row)} has a vanishing normal") from None
        raise ConditioningError(f"{name(exc.row)} is not finite: {exc}") from None


def affine_sequence(
    base: HyperplaneFamily,
    matrix_fn: Callable[[float], np.ndarray],
    offset_fn: Callable[[float], np.ndarray],
    label: str = "affine",
) -> LatticeSequence:
    """Sequence built by applying the affine maps of t = 1/s to a base family."""

    def generate(s: int) -> HyperplaneFamily:
        t = 1.0 / s
        return transform_family(base, matrix_fn(t), offset_fn(t))

    return LatticeSequence(generator=generate, label=label,
                           affine=(base, matrix_fn, offset_fn))


# ---------------------------------------------------------------------------
# Triangle families
# ---------------------------------------------------------------------------

def unit_triangle_family() -> HyperplaneFamily:
    """The three lines x1 = 0, x2 = 0, x1 + x2 = 1 (vertices of the unit triangle)."""
    return HyperplaneFamily([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])


def triangle_family_from_points(points) -> HyperplaneFamily:
    """Three non-collinear points in the plane as a degree-1 lattice.

    Line k joins the two points other than k, so the vertex of lines
    {j, k} is exactly the remaining input point.  Coincident points raise
    DegenerateSubsetError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (3, 2):
        raise ValueError(f"need three points in the plane, got shape {pts.shape}")
    first, second = [1, 0, 0], [2, 2, 1]  # line k joins the points other than k
    directions = pts[second] - pts[first]
    normals = np.column_stack([directions[:, 1], -directions[:, 0]])
    offsets = (normals[:, None, :] @ pts[first][:, :, None])[:, 0, 0]
    return _family(normals, offsets,
                   lambda k: f"the line through points {first[k]} and {second[k]}")


# ---------------------------------------------------------------------------
# Trend fitting
# ---------------------------------------------------------------------------

def fit_loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x over positive pairs (nan below 2 distinct x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (x > 0) & (y > 0)
    if len(set(x[mask].tolist())) < 2:
        return math.nan
    return float(np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0])


def decays_to_zero(values: Sequence[float], s_values: Sequence[int]) -> bool:
    """Finite-range stand-in for 'tends to zero'.

    True when the statistic at the largest s is below DEFAULT_DECAY_FACTOR
    times its value at the smallest s and the fitted log-log slope against s
    is negative, in whatever order the pairs come.  A statistic that is
    identically zero counts as decayed.
    """
    s_values = np.asarray(s_values)
    order = np.argsort(s_values, kind="stable")
    vals = np.abs(np.asarray(values, dtype=float))[order]
    if vals.size < 2:
        return False
    if vals[0] == 0.0:
        return bool(np.all(vals == 0.0))
    if vals[-1] == 0.0:
        return True
    if not vals[-1] < DEFAULT_DECAY_FACTOR * vals[0]:
        return False
    slope = fit_loglog_slope(s_values[order], vals)
    return bool(slope < 0.0)


# ---------------------------------------------------------------------------
# Per-index rows and condition reports
# ---------------------------------------------------------------------------

RESULT_COLUMNS = (
    "s", "t", "lattice_norm", "c2_volume", "c3_offset",
    "sup_error", "coeff_error", "bound_value", "c2_pass", "within_bound",
)


@dataclass
class ResultRow:
    s: int
    t: float
    lattice_norm: float = math.nan
    c2_volume: float = math.nan
    c3_offset: float = math.nan
    sup_error: float = math.nan
    coeff_error: float = math.nan
    bound_value: float = math.nan
    c2_pass: bool = False
    within_bound: bool = False
    cramer_bound: float = math.nan
    error: str = ""
    failure: CyLatticeError | None = field(default=None, repr=False, compare=False)
    # Set by convergence_experiment on a valid row: the bound's pieces, and the family
    # whose P_K `check_pk_bound` evaluates.
    bound: BoundReport | None = field(default=None, repr=False, compare=False)
    family: HyperplaneFamily | None = field(default=None, repr=False, compare=False)

    @property
    def valid(self) -> bool:
        return not self.error

    def as_tuple(self):
        return (self.s, self.t, self.lattice_norm, self.c2_volume,
                self.c3_offset, self.sup_error, self.coeff_error,
                self.bound_value, int(self.c2_pass), int(self.within_bound))


def index_row(
    seq: LatticeSequence,
    s: int,
    measure: Callable[[ResultRow, ChungYaoLattice], None] | None = None,
) -> ResultRow:
    """The row of index s: its lattice's condition statistics, then `measure`.

    C1 statistic: max vertex norm; C2: min N-subset volume of unit normals;
    C3: max |offset|; and the Cramer bound N^{3/2} C3 / C2 on the lattice
    norm, which is not a CSV column.  A CyLatticeError from building the
    family or the lattice, or from `measure(row, lattice)`, is recorded in
    the row (its message in `error`, the exception in `failure`) rather than
    aborting the sweep; a template that cannot be evaluated (ConfigError)
    aborts it.
    """
    row = ResultRow(s=s, t=1.0 / s)
    try:
        family = seq.family(s)
        lattice = ChungYaoLattice(family)
        row.lattice_norm = lattice.norm()
        row.c2_volume = family.report.min_det
        row.c3_offset = family.max_offset()
        row.cramer_bound = family.dimension ** 1.5 * row.c3_offset / row.c2_volume
        if measure is not None:
            measure(row, lattice)
    except ConfigError:
        raise
    except CyLatticeError as exc:
        row.error, row.failure = str(exc), exc
    return row


@dataclass
class ConditionReport:
    """Per-index statistics for (C1), (C2), (C3) with finite-range verdicts.

    c1_c3_pass checks, on every valid row, the two inequalities that make
    (C1) and (C3) equivalent under (C2): max_i |c_i| <= ||Theta||, since
    each vertex realizes its planes' offsets as inner products with unit
    normals, and ||Theta|| <= N^{3/2} max_i |c_i| / delta by Cramer's rule
    with unit-normal cofactors.
    """

    rows: list[ResultRow]
    c2_threshold: float
    c1_pass: bool = False
    c2_pass: bool = False
    c3_pass: bool = False
    c1_c3_pass: bool = False

    @classmethod
    def from_rows(cls, rows, c2_threshold: float = DEFAULT_C2_THRESHOLD) -> "ConditionReport":
        """Verdicts over the valid rows of a sweep."""
        report = cls(rows=list(rows), c2_threshold=c2_threshold)
        valid = report.valid_rows()
        report.c1_c3_pass = bool(valid) and all(
            r.c3_offset <= r.lattice_norm * (1.0 + 1e-9) + 1e-12
            and r.lattice_norm <= r.cramer_bound * (1.0 + 1e-9) + 1e-12 for r in valid)
        if len(valid) >= 2:
            s_ok = [r.s for r in valid]
            report.c1_pass = decays_to_zero([r.lattice_norm for r in valid], s_ok)
            report.c3_pass = decays_to_zero([r.c3_offset for r in valid], s_ok)
            report.c2_pass = all(r.c2_volume >= c2_threshold for r in valid)
        return report

    def valid_rows(self) -> list[ResultRow]:
        return [r for r in self.rows if r.valid]

    @property
    def c2_min(self) -> float:
        rows = self.valid_rows()
        return min((r.c2_volume for r in rows), default=math.nan)


# ---------------------------------------------------------------------------
# Affine transformation criterion
# ---------------------------------------------------------------------------

@dataclass
class AffineCriterionRow:
    s: int
    delta_stat: float
    offset_stat: float
    offset_crosscheck: float
    det_crosscheck: float


@dataclass
class AffineCriterionReport:
    """Side (b) of the affine convergence criterion, beside side (a)."""

    rows: list[AffineCriterionRow]
    side_a: bool
    side_b: bool

    @property
    def agree(self) -> bool:
        return self.side_a == self.side_b

    def max_crosscheck(self) -> float:
        return max((max(r.offset_crosscheck, r.det_crosscheck) for r in self.rows), default=0.0)


def affine_criterion(seq: LatticeSequence, conditions: ConditionReport) -> AffineCriterionReport:
    """The two equivalent formulations of (C1) and (C2) for a sequence of affine images.

    Side (a) is the C1 and C2 verdicts of `conditions`, measured on the image
    lattices.  Side (b) reads only the transform data `seq.affine` at the s
    of each valid row: the products |det L| prod_{i in K} ||L^{-T} n_i|| over
    N-subsets K must stay at most 1 / c2_threshold, and the normalized
    offsets |c_i + <n_i, L^{-1} b>| / ||L^{-T} n_i|| must decay.  Each row
    cross-checks side (b) with the measured row: the max normalized offset
    against c3_offset, and min_K |det N_K| / (the product of K) against
    c2_volume, since that quotient is the image volume of subset K.
    """
    base, matrix_fn, offset_fn = seq.affine
    normals, offsets, index = base.normal_matrix(), base.offsets(), base.report.subsets
    base_dets = np.abs(np.linalg.det(normals[index]))
    rows = []
    for row in conditions.valid_rows():
        t = 1.0 / row.s
        mat = np.asarray(matrix_fn(t), dtype=float)
        b = np.asarray(offset_fn(t), dtype=float)
        nu = np.linalg.norm(np.linalg.solve(mat.T, normals.T), axis=0)  # ||L^{-T} n_i||
        offset_stat = float(np.max(np.abs(offsets + normals @ np.linalg.solve(mat, b)) / nu))
        stats = abs(float(np.linalg.det(mat))) * np.prod(nu[index], axis=1)
        rows.append(AffineCriterionRow(
            s=row.s, delta_stat=float(np.max(stats)), offset_stat=offset_stat,
            offset_crosscheck=abs(offset_stat - row.c3_offset),
            det_crosscheck=abs(float(np.min(base_dets / stats)) - row.c2_volume)))
    side_b = (decays_to_zero([r.offset_stat for r in rows], [r.s for r in rows])
              and max(r.delta_stat for r in rows) <= 1.0 / conditions.c2_threshold)
    return AffineCriterionReport(rows=rows, side_a=conditions.c1_pass and conditions.c2_pass,
                                 side_b=side_b)


# ---------------------------------------------------------------------------
# Grids and derivative norm estimates
# ---------------------------------------------------------------------------

def ball_grid(dimension: int, radius: float = DEFAULT_RADIUS,
              per_axis: int = DEFAULT_GRID_PER_AXIS) -> np.ndarray:
    """Uniform grid on [-R, R]^N restricted to the closed ball of radius R.

    In the grid's row-major order; each axis extends only the prefixes within a margin of
    the ball, so the cube is never built.  Raises ValueError when no grid point lies in the
    ball, or when `_ball_grid_size` counts more than MAX_GRID_TERMS points.
    """
    points, exact = _ball_grid_size(dimension, per_axis)
    if points > MAX_GRID_TERMS:
        raise ValueError(f"ball_grid(dimension={dimension}, radius={radius!r}, per_axis="
                         f"{per_axis}) has {points if exact else f'at least {points:.3g}'} "
                         f"points, past MAX_GRID_TERMS = {MAX_GRID_TERMS}")
    axis = np.linspace(-radius, radius, per_axis)
    reach = ((radius + 1e-12) * (1 + 1e-9)) ** 2  # the margin dwarfs every rounding error
    pts = np.zeros((1, 0))
    for _ in range(dimension):
        rows, cols = np.nonzero(axis ** 2 <= (reach - np.einsum("ij,ij->i", pts, pts))[:, None])
        pts = np.column_stack([pts[rows], axis[cols]])
    pts = pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]
    if pts.shape[0] == 0:
        raise ValueError(f"ball_grid(dimension={dimension}, radius={radius!r}, "
                         f"per_axis={per_axis}) has no point in the ball")
    return pts


@lru_cache(maxsize=None)
def _ball_grid_size(dimension: int, per_axis: int) -> tuple[float, bool]:
    """The points of `ball_grid(dimension, R, per_axis)`, counted without a grid, and
    whether that count is exact (else it is a lower bound).

    Point j of an axis is m h / 2, m = 2j - (per_axis - 1) and h = 2R / (per_axis - 1),
    so a point lies in the ball when its sum of m^2 is at most (per_axis - 1)^2, up to
    ball_grid's 1e-12 margin.  Up to 201 points per axis these sums are counted
    exactly, one axis at a time.  Past that, the cubes of side h centred on the points
    tile [-R - h/2, R + h/2]^N, and each cube meeting the ball of radius
    r = R (1 - 1e-9) - sqrt(N) h / 2 has its centre in the grid's ball: at least
    vol(B_N) (r / h)^N points, within ((R + sqrt(N) h / 2) / r)^N <= 1.26 of the
    count for N <= 8.
    """
    span = per_axis - 1
    if per_axis <= 201:
        counts = np.zeros(span * span + 1, dtype=np.int64)  # points by their sum of m^2
        counts[0] = 1
        squares = np.arange(-span, span + 1, 2) ** 2
        for _ in range(dimension):
            grown = np.zeros_like(counts)
            for square in squares.tolist():
                grown[square:] += counts[:counts.size - square]
            counts = grown
        return int(counts.sum()), True
    inner = (min(span, 10 ** 300) * (1.0 - 1e-9) - math.sqrt(dimension)) / 2.0  # r / h, capped
    return math.exp(min(dimension / 2.0 * math.log(math.pi) - math.lgamma(dimension / 2.0 + 1.0)
                        + dimension * math.log(inner), 700.0)), False


def _unit_directions(dimension: int, count: int, rng: np.random.Generator) -> np.ndarray:
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    if dimension == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    vecs = rng.standard_normal((count, dimension))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    return np.vstack([vecs, np.eye(dimension)])


def derivative_norm_estimate(
    f: SmoothFunction,
    order: int,
    radius: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Estimated max over the ball of the norm of the order-th derivative.

    For symmetric multilinear forms on Euclidean space the norm is attained
    on the diagonal, so we maximize |f^(order)(a)(v, ..., v)| over sampled
    unit directions v and sampled points a (boundary sphere plus interior).
    Sampling makes this a slight underestimate; the explicit bounds it feeds
    are loose by orders of magnitude.

    The work is batched: f is differentiated once per multi-index beta on
    all sample points (`poly.derivative_table`), and the diagonal values
    f^(order)(a)(v, ..., v) for every point a and direction v are one matrix
    product of that (points x beta) table with the direction monomials v^beta.
    An estimate that is not finite (f overflowing on a large ball) raises
    ConditioningError naming the order and the radius.
    """
    if rng is None:
        rng = np.random.default_rng(1234)
    dirs = _unit_directions(f.dimension, _NORM_DIRECTIONS, rng)
    boundary = _unit_directions(f.dimension, _NORM_POINTS, rng) * radius
    interior = rng.uniform(-radius, radius, size=(_NORM_POINTS, f.dimension))
    interior = interior[np.linalg.norm(interior, axis=1) <= radius]
    points = np.vstack([boundary, interior, np.zeros((1, f.dimension))])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite estimate raises below
        table = _poly.derivative_table(f, points, order)
        # The |beta| == order exponents are the last rows of the graded-lex table.
        betas = _poly.exponent_array(f.dimension, order)[-table.shape[1]:]
        estimate = float(np.max(np.abs(table @ _poly.monomials(dirs, betas).T)))
    if not math.isfinite(estimate):
        raise ConditioningError(f"the order-{order} derivative norm estimate on the ball of "
                                f"radius {radius!r} is not finite: {estimate}")
    return estimate


# ---------------------------------------------------------------------------
# Explicit error bound
# ---------------------------------------------------------------------------

def observed_delta(lattice: ChungYaoLattice) -> float:
    """min |<n_i, n_K>| over line subsets K and planes i outside K.

    This is the uniform transversality constant of the convergence proof;
    it coincides with the minimal N-subset determinant of the family.  It is
    a family quantity: the lattice's line table is not built.
    """
    fam = lattice.family
    # One (1, N) @ (N, 1) product per entry <n_i, n_K>.
    normals = fam.normal_matrix()[fam.completing_planes()]
    return float(np.min(np.abs(normals[..., None, :] @ fam.line_directions()[:, None, :, None])))


@dataclass
class BoundReport:
    """Pieces of the explicit interpolation-error bound, plus measurements."""

    radius: float
    delta: float
    lattice_norm: float
    hypotheses_ok: bool
    pk_bound: float = math.nan
    s2_bound: float = math.nan
    m1: float = math.nan
    m2: float = math.nan
    deriv_norm_m: float = math.nan
    deriv_norm_m1: float = math.nan
    total_bound: float = math.nan
    sampled_pk_max: float = math.nan
    pk_within_bound: bool = False
    measured_sup_error: float = math.nan
    error_within_bound: bool = False


def _taylor_target(f: SmoothFunction, n_dim: int, degree: int, radius: float,
                   grid_per_axis: int) -> tuple[MultiPoly, np.ndarray, np.ndarray]:
    """The Taylor polynomial of f at the origin, the ball grid, and its values there."""
    poly = taylor(f, degree)
    points, exact = _ball_grid_size(n_dim, grid_per_axis)
    if points * poly.coeffs.size <= MAX_GRID_TERMS:  # only then is the grid built
        grid = ball_grid(n_dim, radius, grid_per_axis)
        points, exact = len(grid), True
    if points * poly.coeffs.size > MAX_GRID_TERMS:
        raise ConfigError(f"{points if exact else f'at least {points:.3g}'} ball-grid points "
                          f"times {poly.coeffs.size} monomials of degree {degree} pass "
                          f"MAX_GRID_TERMS = {MAX_GRID_TERMS}; lower grid.per_axis")
    return poly, grid, poly.evaluate_many(grid)


def _bound_verdict(lattice: ChungYaoLattice, f: SmoothFunction, radius: float,
                   grid: np.ndarray, target_values: np.ndarray,
                   rng: np.random.Generator | None = None) -> tuple[MultiPoly, BoundReport]:
    """The interpolant of f, and its measured error against the explicit bound.

    The sup error of interpolant minus Taylor polynomial is measured on the
    ball grid.  The bound's hypotheses (delta > 0, the lattice inside
    B(0, R)) are checked first; only where they hold are the constants and
    the derivative norms evaluated, drawing from `rng` (by default a fresh
    generator seeded with _BOUND_SEED).  The error is within bound when it is
    at most total_bound + 1e-10 (1 + max |T(f)| on the grid): the slack lets
    a zero bound (derivatives identically zero) accept expansion noise.
    """
    interp = interpolate(lattice, f).polynomial
    fam = lattice.family
    n_dim, d = fam.dimension, fam.count
    m = d - n_dim + 1
    delta = observed_delta(lattice)
    norm = lattice.norm()
    report = BoundReport(radius=radius, delta=delta, lattice_norm=norm,
                         hypotheses_ok=bool(delta > 0.0 and norm <= radius))
    report.measured_sup_error = float(np.max(np.abs(interp.evaluate_many(grid) - target_values)))
    if not report.hypotheses_ok:
        return interp, report
    if rng is None:
        rng = np.random.default_rng(_BOUND_SEED)

    report.pk_bound = (2.0 * radius / delta) ** m
    report.m1 = radius ** (d - n_dim) * (1.0 + 2.0 / delta) ** (d - 1) / math.factorial(m)
    report.m2 = math.comb(d, n_dim - 1) * (2.0 * radius / delta) ** m / math.factorial(m)
    report.deriv_norm_m = derivative_norm_estimate(f, m, radius, rng=rng)
    report.s2_bound = report.m1 * report.deriv_norm_m * norm
    report.deriv_norm_m1 = derivative_norm_estimate(f, m + 1, radius, rng=rng)
    report.total_bound = (
        report.m1 * report.deriv_norm_m + report.m2 * report.deriv_norm_m1
    ) * norm
    slack = 1e-10 * (1.0 + float(np.max(np.abs(target_values))))
    report.error_within_bound = bool(report.measured_sup_error <= report.total_bound + slack)
    return interp, report


def check_pk_bound(report: BoundReport, family: HyperplaneFamily, grid: np.ndarray) -> None:
    """Fill the report's sup of every |P_K| on the ball grid, and whether it is at most
    pk_bound; a report whose hypotheses fail has no pk_bound and is left as it is."""
    if report.hypotheses_ok:
        report.sampled_pk_max = float(np.max(np.abs(pk_table(family)(grid))))
        report.pk_within_bound = bool(report.sampled_pk_max <= report.pk_bound * (1.0 + 1e-9))


def bound_evaluator(
    lattice: ChungYaoLattice,
    f: SmoothFunction,
    radius: float,
    rng: np.random.Generator | None = None,
    grid_per_axis: int = DEFAULT_GRID_PER_AXIS,
) -> BoundReport:
    """The explicit error bound of one lattice, verified against measurements.

    pk_bound = (2R/delta)^(d-N+1) caps every |P_K| on the ball (checked on
    the ball grid); the total bound combines the two derivative norms with
    the geometric constants and must dominate the measured sup error of
    interpolant minus Taylor polynomial on the ball grid, as in every
    convergence_experiment row.  Where the hypotheses (the lattice inside
    B(0, R), delta > 0) fail, only delta, the lattice norm and the sup error
    are reported.
    """
    _, grid, target_values = _taylor_target(f, lattice.dimension, lattice.degree, radius,
                                            grid_per_axis)
    _, report = _bound_verdict(lattice, f, radius, grid, target_values, rng)
    check_pk_bound(report, lattice.family, grid)
    return report


# ---------------------------------------------------------------------------
# Convergence experiments
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    """Per-index errors against the Taylor polynomial on the ball grid, with fitted slopes."""

    rows: list[ResultRow]
    degree: int
    target: MultiPoly
    grid: np.ndarray = field(repr=False, compare=False)
    slope_coeff: float = math.nan
    slope_sup: float = math.nan

    def valid_rows(self) -> list[ResultRow]:
        return [r for r in self.rows if r.valid]

    def errors_decay(self) -> bool:
        rows = self.valid_rows()
        return decays_to_zero([r.coeff_error for r in rows], [r.s for r in rows])


def convergence_experiment(
    seq: LatticeSequence,
    f: SmoothFunction,
    s_values: Sequence[int] = DEFAULT_S_VALUES,
    radius: float = DEFAULT_RADIUS,
    grid_per_axis: int = DEFAULT_GRID_PER_AXIS,
    c2_threshold: float = DEFAULT_C2_THRESHOLD,
    threads: int = 1,
) -> RateReport:
    """Measure interpolant-versus-Taylor errors across the sequence.

    The primary metric is the max coefficient difference on the monomial
    basis (basis-independent comparison of the limit statement); the sup
    norm over the ball grid is secondary.  Each valid row keeps the explicit
    bound (see bound_evaluator), without the P_K check, and its family.  A row
    whose family fails records the error (see index_row); the first family
    that builds fixes the degree and the Taylor target, and when none does
    the first failure is raised.  Rows are computed serially in index
    order.  `threads` accepts only 1 and raises ValueError otherwise: the per-index work is
    pure Python holding the interpreter lock, so a thread pool measured no
    faster, and the keyword stays only for callers that pass threads=1.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (rows are computed serially), got {threads}")
    taylor_target = None  # (T(f), ball grid, T(f) on the grid), from the first lattice built

    def measure(row: ResultRow, lattice: ChungYaoLattice) -> None:
        nonlocal taylor_target
        if taylor_target is None:
            taylor_target = _taylor_target(f, lattice.dimension, lattice.degree, radius,
                                           grid_per_axis)
        target, grid, target_values = taylor_target
        if lattice.degree != target.degree:
            raise ValueError("degree must not vary along the sequence")
        row.c2_pass = bool(row.c2_volume >= c2_threshold)
        interp, bound = _bound_verdict(lattice, f, radius, grid, target_values)
        row.coeff_error = interp.coeff_distance(target) / max(1.0, target.max_abs_coeff())
        row.sup_error = bound.measured_sup_error
        row.bound_value = bound.total_bound
        row.within_bound = bound.error_within_bound
        row.bound, row.family = bound, lattice.family

    rows = [index_row(seq, s, measure) for s in s_values]
    if not any(row.valid for row in rows):
        raise rows[0].failure
    target, grid, _ = taylor_target
    report = RateReport(rows=rows, degree=target.degree, target=target, grid=grid)
    valid = report.valid_rows()
    report.slope_coeff = fit_loglog_slope(
        [r.lattice_norm for r in valid], [r.coeff_error for r in valid])
    report.slope_sup = fit_loglog_slope(
        [r.lattice_norm for r in valid], [r.sup_error for r in valid])
    return report
