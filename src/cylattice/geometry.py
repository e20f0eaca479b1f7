"""Hyperplane families, general position, and Chung-Yao lattice geometry.

A hyperplane is the zero set of an affine form ell(x) = <n, x> - c with a
unit normal n; a family of d >= N of them is a (d, N) normal and a (d,) offset
array.  In general position it determines C(d, N) lattice vertices (one per
N-subset) and C(d, N-1) lattice lines (one per (N-1)-subset), each carrying a
direction vector defined through a generalized cross product of the subset's normals.

Subsets are always handled in the ascending index order fixed by the family
at construction; that convention pins the sign of every direction vector.
A fixed number of stacked numpy calls builds each quantity: one det and one
solve give all vertices, a blocked Gram-form screen of the vertex pairs is
recomputed exactly on its candidates, and one `direction_vector` call gives
every n_K.  Each is kept as one read-only array, row r for the r-th subset.

The integer index tables depend only on the shape: `subset_index(n, k)`, `line_points(d, N)`
and `newton_index(d, N)` build each once per process (792 vertex and 495 line rows at
N = 5, d = 12, in about 4 ms) and share it, read-only, with every family; `subset_rows`
finds the rows of a stack of subsets by one search, with no per-subset lookup.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .errors import ConsistencyError, DegenerateSubsetError, GeneralPositionError

DEFAULT_GP_TOLERANCE = 1e-8
DEFAULT_DEDUP_TOLERANCE = 1e-8
MAX_DIMENSION = 8


# subset_index(n, k): the k-subsets of range(n) in combinations order as tuples, as a (C(n, k),
# k) int array, a read-only map back to their rows, and the members of range(n) outside each.
SubsetIndex = namedtuple("SubsetIndex", "subsets array rank outside")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def subset_index(n: int, k: int) -> SubsetIndex:
    subsets = tuple(combinations(range(n), k))
    array = _frozen(np.array(subsets, dtype=np.intp).reshape(len(subsets), k))
    outside = np.array([[j for j in range(n) if j not in s] for s in subsets], dtype=np.intp)
    return SubsetIndex(subsets, array, MappingProxyType({s: r for r, s in enumerate(subsets)}),
                       _frozen(outside.reshape(len(subsets), n - k)))


@lru_cache(maxsize=None)
def line_points(count: int, dim: int) -> np.ndarray:
    """(L, d-N+1): entry (r, j) is the vertex row of line K_r extended by its j-th outside plane."""
    lines, rank = subset_index(count, dim - 1), subset_index(count, dim).rank
    rows = [[rank[tuple(sorted(k + (j,)))] for j in planes]
            for k, planes in zip(lines.subsets, lines.outside.tolist())]
    return _frozen(np.array(rows, dtype=np.intp).reshape(lines.outside.shape))


@lru_cache(maxsize=None)
def newton_index(count: int, dim: int) -> tuple:
    """Terms (i, K) of the staged identity, i = N..d+1 and K in range(i-1); their line rows,
    and steps i - N: the number of planes below i-1 outside K, a prefix of K's completing planes."""
    stages, rank = range(dim, count + 2), subset_index(count, dim - 1).rank
    terms = tuple((i, k) for i in stages for k in subset_index(i - 1, dim - 1).subsets)
    return (terms, _frozen(np.array([rank[k] for _, k in terms], dtype=np.intp)),
            _frozen(np.array([i - dim for i, _ in terms], dtype=np.intp)))


def subset_rows(n: int, subsets: np.ndarray) -> np.ndarray:
    """Row of each ascending k-subset in `subset_index(n, k)`; KeyError names one that is none."""
    table = subset_index(n, subsets.shape[1]).array
    weights = n ** np.arange(subsets.shape[1])[::-1]  # these codes ascend in combinations order
    rows = np.searchsorted(table @ weights, subsets @ weights).clip(max=len(table) - 1)
    unknown = (table[rows] != subsets).any(axis=1)
    if unknown.any():
        raise KeyError(tuple(subsets[unknown][0].tolist()))
    return rows


# ---------------------------------------------------------------------------
# General-position checking
# ---------------------------------------------------------------------------

@dataclass
class GeneralPositionReport:
    """Certificate or rejection report for a hyperplane family."""

    accepted: bool
    dimension: int
    count: int
    min_det: float = math.nan
    min_det_subset: tuple | None = None
    min_vertex_gap: float = math.nan
    colliding_pair: tuple | None = None
    degenerate_subset: tuple | None = None
    det_tolerance: float = DEFAULT_GP_TOLERANCE
    diameter: float = math.nan
    # Row k is the k-th N-subset and its vertex; row i of normals and offsets is plane i.
    subsets: np.ndarray | None = field(default=None, repr=False, compare=False)
    vertices: np.ndarray | None = field(default=None, repr=False, compare=False)
    normals: np.ndarray | None = field(default=None, repr=False, compare=False)
    offsets: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __str__(self):
        if self.accepted:
            return (
                f"general position: min |det| = {self.min_det:.3e} over N-subsets, "
                f"min vertex gap = {self.min_vertex_gap:.3e}"
            )
        if self.degenerate_subset is not None:
            return (
                f"rejected: subset {self.degenerate_subset} has |det| = "
                f"{self.min_det:.3e} <= {self.det_tolerance:.1e}"
            )
        if self.colliding_pair is not None:
            return (
                f"rejected: subsets {self.colliding_pair} produce coincident vertices "
                f"(gap {self.min_vertex_gap:.3e})"
            )
        return "rejected: no general-position family found within the retry budget"


def _solve_stack(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mats[k] x = rhs[k] for every k, with one step of iterative refinement."""
    rhs = rhs[..., None]
    x = np.linalg.solve(mats, rhs)
    x = x + np.linalg.solve(mats, rhs - mats @ x)
    return x[..., 0]


class PlaneError(ValueError):
    """A plane that `unit_planes` rejects; `row` is its index in the input."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def unit_planes(normals, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (d, N) unit normals and (d,) offsets of the planes <normals[i], x> = offsets[i].

    A row whose norm (sqrt of a (1, N) @ (N, 1) product: math.sqrt(n.dot(n)) bit
    for bit) is more than 1e-12 from 1 is divided by it, offset too, so its zero
    set is unchanged.  The first row whose normalized normal or offset is not
    finite, or else whose normal is zero, raises PlaneError.
    """
    normals, offsets = np.array(normals, dtype=float), np.array(offsets, dtype=float)
    if normals.shape[:1] == (0,):
        raise ValueError("need at least one hyperplane, got 0")
    if normals.ndim != 2 or offsets.shape != normals.shape[:1]:
        raise ValueError(f"need (d, N) normals and (d,) offsets, "
                         f"got shapes {normals.shape} and {offsets.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        norms = np.sqrt((normals[:, None, :] @ normals[:, :, None])[:, 0, 0])
        scale = np.isfinite(norms) & (norms > 1e-14) & (np.abs(norms - 1.0) > 1e-12)
        scale = np.where(scale, norms, 1.0)  # x / 1.0 is x, bit for bit
        unit, unit_offsets = normals / scale[:, None], offsets / scale
    finite = np.isfinite(norms) & np.isfinite(unit_offsets)
    bad = np.flatnonzero(~finite | ~(norms > 1e-14))
    if bad.size:
        k = int(bad[0])
        raise PlaneError("hyperplane normal must be nonzero" if finite[k] else
                         f"hyperplane normal and offset must be finite when normalized, "
                         f"got {normals[k].tolist()} and {float(offsets[k])!r}", k)
    return _frozen(unit), _frozen(unit_offsets)


def check_general_position(
        normals, offsets, det_tolerance: float = DEFAULT_GP_TOLERANCE,
        dedup_tolerance: float = DEFAULT_DEDUP_TOLERANCE) -> GeneralPositionReport:
    """Check every N-subset determinant and the injectivity of the vertex map.

    Plane i is row i of `normals` and `offsets`, normalized by :func:`unit_planes`.
    Accepts iff (a) min over N-subsets of |det(unit normals)| exceeds
    `det_tolerance` and (b) all vertices are pairwise separated by more than
    `dedup_tolerance` relative to the lattice diameter.  The report names the
    offending subset or colliding pair on rejection and keeps the vertices on
    acceptance.  One det and one solve cover the stacked (C(d, N), N, N)
    unit normals; :func:`_vertex_gaps` scans the vertex pairs in blocks.
    """
    normals, offsets = unit_planes(normals, offsets)
    count, dim = normals.shape
    if dim > MAX_DIMENSION:
        raise ValueError(f"dimension {dim} exceeds supported maximum {MAX_DIMENSION}")
    if count < dim:
        raise ValueError(f"need at least {dim} hyperplanes in R^{dim}, got {count}")
    report = GeneralPositionReport(
        accepted=False, dimension=dim, count=count, det_tolerance=det_tolerance,
        normals=normals, offsets=offsets)
    subsets, report.subsets = subset_index(count, dim)[:2]
    mats = report.normals[report.subsets]
    dets = np.abs(np.linalg.det(mats))
    k = int(np.argmin(dets))
    report.min_det = float(dets[k])
    report.min_det_subset = subsets[k]
    if report.min_det <= det_tolerance:
        report.degenerate_subset = subsets[k]
        return report

    pts = _solve_stack(mats, report.offsets[report.subsets])
    min_gap, pair, diameter = _vertex_gaps(pts)
    report.min_vertex_gap = min_gap
    report.diameter = diameter
    if pair is not None and min_gap <= dedup_tolerance * max(1.0, diameter):
        report.colliding_pair = (subsets[pair[0]], subsets[pair[1]])
        return report
    report.accepted = True
    report.vertices = _frozen(pts)
    return report


_GAP_BLOCK = 32768  # float64 entries per gap-scan temporary (256 KB)


def _vertex_gaps(pts: np.ndarray) -> tuple[float, tuple[int, int] | None, float]:
    """Min gap between rows a < b of pts, its first (a, b) pair, and the max gap.

    Blocks of rows are screened against later rows in Gram form, g = ||a||^2 +
    ||b||^2 - 2<a, b>, one product of rows (a, ||a||^2, 1) and (-2b, 1, ||b||^2);
    candidates are recomputed as sqrt(e), e = sum_i (b_i - a_i)^2, the form
    np.linalg.norm takes.  With M = max ||pts||, u the unit roundoff and D <=
    4M^2 the exact squared distance, these (N + 2)- and N-term sums give, to
    first order, |g - D| <= (6N + 8) u M^2 and |e - D| <= (N + 2) u D <= (4N +
    8) u M^2; rounding sqrt ties values of e up to 4u D <= 16 u M^2 apart.  So
    a pair whose gap attains the block's min (max) has g within 2(10N + 16) u
    M^2 + 16 u M^2 < 2 slack of the block's min (max) g, slack = 10(N + 3) u
    M^2.  Candidates keep row-major order, so the result, ties included,
    equals a per-pair scan bit for bit.  One row gives (inf, None, 0.0).
    """
    count, dim = pts.shape
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    slack = 10 * (dim + 3) * (np.finfo(float).eps / 2) * float(np.max(sq_norms))
    left = np.column_stack([pts, sq_norms, np.ones(count)])
    right = np.column_stack([-2.0 * pts, np.ones(count), sq_norms])
    rows = max(1, min(count - 1, _GAP_BLOCK // count))
    repeats = np.tri(rows, rows, -1, dtype=bool)
    min_gap, pair, diameter = math.inf, None, 0.0
    for a0 in range(0, count - 1, rows):
        a1 = min(a0 + rows, count - 1)
        # Entry (i, j) pairs row a0 + i with row a0 + 1 + j; j < i repeats a pair.
        gram = left[a0:a1] @ right[a0 + 1:].T
        gram[:, :a1 - a0][repeats[:a1 - a0, :a1 - a0]] = np.nan
        low, high = np.fmin.reduce(gram, axis=None), np.fmax.reduce(gram, axis=None)
        keep = (gram <= low + 2 * slack) | (gram >= high - 2 * slack)
        ia, jb = np.divmod(np.flatnonzero(keep), gram.shape[1])
        a, b = a0 + ia, a0 + 1 + jb
        diffs = pts[b] - pts[a]
        gaps = np.sqrt((diffs[:, None, :] @ diffs[:, :, None])[:, 0, 0])
        k = int(np.argmin(gaps))
        diameter = max(diameter, float(np.max(gaps)))
        if gaps[k] < min_gap:
            min_gap, pair = float(gaps[k]), (int(a[k]), int(b[k]))
    return min_gap, pair, diameter


# ---------------------------------------------------------------------------
# Families and lattices
# ---------------------------------------------------------------------------

class HyperplaneFamily:
    """Ordered family of d >= N hyperplanes, verified in general position.

    The construction order is fixed; every subset inherits it.  Construction
    raises GeneralPositionError (with the report attached) on rejection, and
    :class:`PlaneError` on a row that :func:`unit_planes` rejects.

    The family owns the quantities it fixes: the unit normals and offsets of
    the general-position check, `report.vertices` with every vertex
    as the check solved it, :meth:`line_directions` with every n_K, `pk_chain`
    with the ell~_j(n_K) of the P_K and their running products, and `pk_tables`
    with one :class:`cylattice.chungyao.PKTable` per truncation and term list;
    its index tables are those of its shape.  All are shared with every
    caller, so nothing may mutate them.
    """

    def __init__(self, normals, offsets, det_tolerance: float = DEFAULT_GP_TOLERANCE,
                 dedup_tolerance: float = DEFAULT_DEDUP_TOLERANCE):
        self.det_tolerance = det_tolerance
        self.report = check_general_position(normals, offsets, det_tolerance, dedup_tolerance)
        if not self.report.accepted:
            raise GeneralPositionError(self.report)
        self.dimension = self.report.dimension
        self._line_directions: np.ndarray | None = None
        self.pk_tables: dict = {}
        self.pk_chain: tuple | None = None

    @classmethod
    def from_arrays(cls, normals, offsets, **kw) -> "HyperplaneFamily":
        """HyperplaneFamily(normals, offsets, **kw), under its earlier name."""
        return cls(normals, offsets, **kw)

    @property
    def count(self) -> int:
        return self.report.count

    @property
    def degree(self) -> int:
        """Interpolation degree of the induced lattice: d - N."""
        return self.count - self.dimension

    def normal_matrix(self) -> np.ndarray:
        """(d, N) unit normals, row i for hyperplane i (read-only)."""
        return self.report.normals

    def offsets(self) -> np.ndarray:
        """(d,) offsets, entry i for hyperplane i (read-only)."""
        return self.report.offsets

    def max_offset(self) -> float:
        return float(np.max(np.abs(self.offsets())))

    def direction(self, indices) -> np.ndarray:
        """n_K of an (N-1)-subset of family indices: its row of :meth:`line_directions`."""
        row = subset_index(self.count, self.dimension - 1).rank[tuple(sorted(indices))]
        return self.line_directions()[row]

    def line_directions(self) -> np.ndarray:
        """(L, N) n_K of every (N-1)-subset K in combinations order (read-only).

        Built on first use by one stacked `direction_vector` call.
        """
        if self._line_directions is None:
            k_index = subset_index(self.count, self.dimension - 1).array
            self._line_directions = _frozen(direction_vector(self.report.normals[k_index]))
        return self._line_directions

    def completing_planes(self) -> np.ndarray:
        """(L, d-N+1) planes outside the r-th (N-1)-subset K in row r, ascending (read-only)."""
        return subset_index(self.count, self.dimension - 1).outside

    def linear_values(self) -> np.ndarray:
        """(L, d) ell~_j(n_K) = <n_j, n_K>: row r for the r-th line K, column j for plane j."""
        return self.line_directions() @ self.report.normals.T

    def __repr__(self):
        return f"HyperplaneFamily(N={self.dimension}, d={self.count})"


def direction_vector(normals) -> np.ndarray:
    """Direction n_K of the line shared by N-1 hyperplanes.

    Defined componentwise by det(e_j, n_1, ..., n_{N-1}) = (n_K)_j with the
    normals as columns, i.e. a generalized cross product via signed cofactors.
    For unit normals, 0 < ||n_K|| <= 1 by Hadamard's inequality; the zero
    vector signals linear dependence and raises.  Maps (N-1, N) normals to
    (N,), or a stack (L, N-1, N) to (L, N), with one det call; (0, 1) gives (1,).
    """
    normals = np.asarray(normals, dtype=float)
    dim = normals.shape[-1]
    if normals.ndim not in (2, 3) or normals.shape[-2] != dim - 1:
        raise ValueError(f"need N-1 = {dim - 1} normals of R^{dim}, got shape {normals.shape}")
    # Minor j drops row j of the (N, N-1) column matrix.
    rows = [[i for i in range(dim) if i != j] for j in range(dim)]
    cols = np.swapaxes(normals, -1, -2)
    out = np.ascontiguousarray((-1.0) ** np.arange(dim) * np.linalg.det(cols[..., rows, :]))
    if np.any(np.linalg.norm(out, axis=-1) <= 1e-14):
        raise DegenerateSubsetError("line subset has linearly dependent normals")
    return out


@dataclass(frozen=True, eq=False)
class LineTable:
    """The lines of a lattice, row r for the r-th (N-1)-subset K (read-only).

    `indices[r]` is K, in combinations order; `directions[r]` is n_K;
    `completing` is :meth:`HyperplaneFamily.completing_planes`, and
    `points[r, j]` is the vertex of K extended by plane `completing[r, j]`.
    """

    indices: tuple[tuple[int, ...], ...]
    directions: np.ndarray
    completing: np.ndarray
    points: np.ndarray

    def __len__(self):
        return len(self.indices)


class ChungYaoLattice:
    """All vertices theta_H of a family, indexed by ascending N-subsets.

    `vertices` is the family's read-only (C(d, N), N) vertex table, row k for
    the k-th N-subset of `subset_index(d, N)`.  The line table and the
    cardinal table (`cardinals`, filled by
    :func:`cylattice.chungyao.cardinal_table`) are built from it on first use.
    """

    def __init__(self, family: HyperplaneFamily):
        self.family = family
        self.degree = family.degree
        table, index = family.report.vertices, family.report.subsets
        values = table @ family.normal_matrix().T - family.offsets()
        residual = np.max(np.abs(np.take_along_axis(values, index, axis=1)), axis=1)
        bad = np.flatnonzero(residual > 1e-10 * (1.0 + np.linalg.norm(table, axis=1)))
        if bad.size:
            k = bad[0]
            raise ConsistencyError(f"vertex residual {residual[k]:.3e} too large for "
                                   f"subset {tuple(index[k].tolist())}")
        self._set_vertices(table)

    def _set_vertices(self, table: np.ndarray) -> None:
        """Make `table` the vertex table and drop every table built from the old one."""
        self.vertices, self._lines, self.cardinals = table, None, None

    @property
    def dimension(self) -> int:
        return self.family.dimension

    def vertex(self, subset) -> np.ndarray:
        """theta_H of an N-subset H of family indices: its row of `vertices`."""
        return self.vertices[subset_index(self.family.count, self.dimension).rank[
            tuple(sorted(subset))]]

    def vertex_array(self) -> np.ndarray:
        """The vertex table `vertices`: (C(d, N), N), row k for the k-th N-subset (read-only)."""
        return self.vertices

    def norm(self) -> float:
        """max ||theta|| over the lattice."""
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def diameter(self) -> float:
        """max ||theta_H - theta_G||, as measured by the general-position check."""
        return self.family.report.diameter

    def line_subsets(self) -> LineTable:
        """The line table of every (N-1)-subset K, with collinearity verified.

        Built from the vertex table once; later calls return the same table.
        """
        if self._lines is not None:
            return self._lines
        fam = self.family
        indices, k_index = subset_index(fam.count, fam.dimension - 1)[:2]
        points = self.vertices[line_points(fam.count, fam.dimension)]
        # |ell_i| at every point of line K, for the planes i in K.
        values = points @ fam.normal_matrix()[k_index].transpose(0, 2, 1)
        res = np.max(np.abs(values - fam.offsets()[k_index][:, None, :]), axis=1)
        scale = 1.0 + np.max(np.linalg.norm(points, axis=2), axis=1)
        bad = np.argwhere(res > 1e-10 * scale[:, None])
        if bad.size:
            line, pos = bad[0]
            raise ConsistencyError(
                f"points of line subset {indices[line]} leave hyperplane "
                f"{indices[line][pos]} (residual {res[line, pos]:.3e})"
            )
        self._lines = LineTable(indices, fam.line_directions(), fam.completing_planes(),
                                _frozen(points))
        return self._lines

    def __repr__(self):
        return (
            f"ChungYaoLattice(N={self.dimension}, d={self.family.count}, "
            f"degree={self.degree}, {len(self.vertices)} vertices)"
        )


def deboor_identity_residual(lattice: ChungYaoLattice, subset, x):
    """Residual of the exact affine decomposition of x in the n_{H \\ ell} basis.

    Returns || x - theta_H - sum_{ell in H} [ell(x) / ell~(n_{H\\ell})] n_{H\\ell} ||,
    the max over the batch when x has shape (M, N).  Zero in exact arithmetic
    for any x whenever H is in general position.  `subset` is one N-subset
    H (a float) or an (S, N) stack of them (an (S,) array, entry s for row s).
    """
    fam = lattice.family
    subsets = np.sort(np.atleast_2d(np.asarray(subset, dtype=int)), axis=1)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    values = (pts @ fam.normal_matrix()[:, :, None])[..., 0] - fam.offsets()[:, None]  # (d, M)
    linear, theta = fam.linear_values(), lattice.vertex_array()[subset_rows(fam.count, subsets)]
    recon = np.broadcast_to(theta[:, None, :], (len(subsets),) + pts.shape)
    for p in range(fam.dimension):  # i = H[p] ascending, K = H \\ i
        i, rows = subsets[:, p], subset_rows(fam.count, np.delete(subsets, p, axis=1))
        coeff = values[i] / linear[rows, i][:, None]
        recon = recon + coeff[:, :, None] * fam.line_directions()[rows][:, None, :]
    residuals = np.max(np.linalg.norm(pts - recon, axis=2), axis=1)
    return float(residuals[0]) if np.ndim(subset) < 2 else residuals


# ---------------------------------------------------------------------------
# Seeded random families
# ---------------------------------------------------------------------------

def random_family(rng: np.random.Generator, dimension: int, count: int,
                  det_tolerance: float = DEFAULT_GP_TOLERANCE, min_subset_det: float = 0.0,
                  max_lattice_norm: float = math.inf) -> HyperplaneFamily:
    """Seeded generator of general-position families.

    Normals are uniform on the unit sphere and offsets uniform in
    [0.2, 1.0); candidates are retried (up to 2000 times) until general
    position holds and the optional conditioning knobs are met:
    `min_subset_det` floors every N-subset determinant and
    `max_lattice_norm` bounds max ||theta||.
    """
    for _ in range(2000):
        normals = rng.standard_normal((count, dimension))
        norms = np.linalg.norm(normals, axis=1)
        if np.any(norms < 1e-8):
            continue
        normals /= norms[:, None]
        offsets = rng.uniform(0.2, 1.0, size=count)
        try:
            family = HyperplaneFamily(normals, offsets, det_tolerance=det_tolerance)
        except GeneralPositionError:
            continue
        if family.report.min_det < min_subset_det:
            continue
        if float(np.max(np.linalg.norm(family.report.vertices, axis=1))) > max_lattice_norm:
            continue
        return family
    raise GeneralPositionError(GeneralPositionReport(
        accepted=False, dimension=dimension, count=count,
        det_tolerance=det_tolerance,
    ))
