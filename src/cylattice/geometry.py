"""Hyperplane families, general position, and Chung-Yao lattice geometry.

A hyperplane is the zero set of an affine form ell(x) = <n, x> - c with a
unit normal n.  A family of d >= N hyperplanes in general position determines
C(d, N) lattice vertices (one per N-subset) and C(d, N-1) lattice lines (one
per (N-1)-subset), each carrying a direction vector defined through a
generalized cross product of the subset's normals.

Subsets are always handled in the ascending index order fixed by the family
at construction; that convention pins the sign of every direction vector.
A fixed number of stacked numpy calls builds each quantity: one det and one
solve give all vertices, a blocked Gram-form screen of the vertex pairs is
recomputed exactly on its candidates, and one `direction_vector` call gives
every n_K.  Each is kept as one read-only array, row r for the r-th subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, DegenerateSubsetError, GeneralPositionError

DEFAULT_GP_TOLERANCE = 1e-8
DEFAULT_DEDUP_TOLERANCE = 1e-8
MAX_DIMENSION = 8


@dataclass(frozen=True)
class Hyperplane:
    """The affine form ell(x) = <normal, x> - offset with ||normal|| = 1: a family's input.

    A non-unit normal is normalized, and the offset divided by the same norm,
    so the zero set is unchanged.  A zero normal, or a normalized normal or
    offset that is not finite, raises ValueError.
    """

    normal: np.ndarray
    offset: float

    def __init__(self, normal: Sequence[float], offset: float):
        n = np.array(normal, dtype=float)
        c = float(offset)
        with np.errstate(over="ignore"):  # a norm that overflows is not finite: rejected below
            norm = math.sqrt(n.dot(n))  # np.linalg.norm's formula for a real vector
        if math.isfinite(norm) and norm > 1e-14 and abs(norm - 1.0) > 1e-12:
            n = n / norm
            c = c / norm
        if not (math.isfinite(norm) and math.isfinite(c)):
            raise ValueError(f"hyperplane normal and offset must be finite when normalized, "
                             f"got {np.array(normal, dtype=float).tolist()} and {float(offset)!r}")
        if not norm > 1e-14:
            raise ValueError("hyperplane normal must be nonzero")
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", c)

    @property
    def dimension(self) -> int:
        return self.normal.size


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
    dedup_tolerance: float = DEFAULT_DEDUP_TOLERANCE
    diameter: float = math.nan
    # Row k is the k-th N-subset in combinations order, and its vertex (read-only).
    subsets: np.ndarray | None = field(default=None, repr=False, compare=False)
    vertices: np.ndarray | None = field(default=None, repr=False, compare=False)

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


def check_general_position(
    hyperplanes: Sequence[Hyperplane],
    det_tolerance: float = DEFAULT_GP_TOLERANCE,
    dedup_tolerance: float = DEFAULT_DEDUP_TOLERANCE,
) -> GeneralPositionReport:
    """Check every N-subset determinant and the injectivity of the vertex map.

    Accepts iff (a) min over N-subsets of |det(unit normals)| exceeds
    `det_tolerance` and (b) all vertices are pairwise separated by more than
    `dedup_tolerance` relative to the lattice diameter.  The report names the
    offending subset or colliding pair on rejection and keeps the vertices on
    acceptance.  One det and one solve cover the stacked (C(d, N), N, N)
    unit normals; :func:`_vertex_gaps` scans the vertex pairs in blocks.
    """
    hyperplanes = list(hyperplanes)
    if not hyperplanes:
        raise ValueError("need at least one hyperplane, got 0")
    dim = hyperplanes[0].dimension
    if dim > MAX_DIMENSION:
        raise ValueError(f"dimension {dim} exceeds supported maximum {MAX_DIMENSION}")
    count = len(hyperplanes)
    report = GeneralPositionReport(
        accepted=False, dimension=dim, count=count,
        det_tolerance=det_tolerance, dedup_tolerance=dedup_tolerance,
    )
    for h in hyperplanes:
        if h.dimension != dim:
            raise ValueError("mixed hyperplane dimensions")
    if count < dim:
        raise ValueError(f"need at least {dim} hyperplanes in R^{dim}, got {count}")

    subsets = list(combinations(range(count), dim))
    index = np.array(subsets)
    index.setflags(write=False)
    report.subsets = index
    mats = np.stack([h.normal for h in hyperplanes])[index]
    dets = np.abs(np.linalg.det(mats))
    k = int(np.argmin(dets))
    report.min_det = float(dets[k])
    report.min_det_subset = subsets[k]
    if report.min_det <= det_tolerance:
        report.degenerate_subset = subsets[k]
        return report

    pts = _solve_stack(mats, np.array([h.offset for h in hyperplanes])[index])
    min_gap, pair, diameter = _vertex_gaps(pts)
    report.min_vertex_gap = min_gap
    report.diameter = diameter
    if pair is not None and min_gap <= dedup_tolerance * max(1.0, diameter):
        report.colliding_pair = (subsets[pair[0]], subsets[pair[1]])
        return report
    report.accepted = True
    pts.setflags(write=False)
    report.vertices = pts
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
    raises GeneralPositionError (with the report attached) on rejection.  It
    keeps its :class:`Hyperplane` inputs only as arrays.

    The family owns the quantities it fixes: the stacked normals and offsets,
    `report.vertices` with every vertex as the general-position check solved
    it, :meth:`line_directions` with every line direction n_K, and `pk_tables`
    with the tables of product polynomials P_K (:class:`cylattice.chungyao.PKTable`),
    one per truncation and term list, each expanded in one call.  All are
    shared with every caller, so nothing may mutate them.
    """

    def __init__(
        self,
        hyperplanes: Sequence[Hyperplane],
        det_tolerance: float = DEFAULT_GP_TOLERANCE,
        dedup_tolerance: float = DEFAULT_DEDUP_TOLERANCE,
    ):
        hyperplanes = tuple(hyperplanes)
        self.det_tolerance = det_tolerance
        self.report = check_general_position(hyperplanes, det_tolerance, dedup_tolerance)
        if not self.report.accepted:
            raise GeneralPositionError(self.report)
        self.dimension = self.report.dimension
        self._normals = np.stack([h.normal for h in hyperplanes])
        self._offsets = np.array([h.offset for h in hyperplanes])
        self._normals.setflags(write=False)
        self._offsets.setflags(write=False)
        self._line_directions: np.ndarray | None = None
        self.pk_tables: dict = {}

    @classmethod
    def from_arrays(cls, normals, offsets, **kw) -> "HyperplaneFamily":
        return cls([Hyperplane(n, c) for n, c in zip(normals, offsets)], **kw)

    @property
    def count(self) -> int:
        return len(self._offsets)

    @property
    def degree(self) -> int:
        """Interpolation degree of the induced lattice: d - N."""
        return self.count - self.dimension

    def normal_matrix(self) -> np.ndarray:
        """(d, N) unit normals, row i for hyperplane i (read-only)."""
        return self._normals

    def offsets(self) -> np.ndarray:
        """(d,) offsets, entry i for hyperplane i (read-only)."""
        return self._offsets

    def max_offset(self) -> float:
        return float(np.max(np.abs(self.offsets())))

    def direction(self, indices) -> np.ndarray:
        """n_K of an (N-1)-subset of family indices: its row of :meth:`line_directions`."""
        row = self.line_row(indices)  # builds the directions on first use
        return self._directions[row]

    def line_row(self, indices) -> int:
        """Row of the (N-1)-subset K in :meth:`line_directions` (combinations order)."""
        self.line_directions()
        return self._line_rows[tuple(sorted(indices))]

    def line_directions(self) -> np.ndarray:
        """(L, N) n_K of every (N-1)-subset K in combinations order (read-only).

        Built on first use by one stacked `direction_vector` call.
        """
        if self._line_directions is None:
            subsets = list(combinations(range(self.count), self.dimension - 1))
            self._line_directions = direction_vector(self._normals[np.array(subsets, dtype=int)])
            self._line_directions.setflags(write=False)
            self._line_rows = {k: r for r, k in enumerate(subsets)}
            self._directions = list(self._line_directions)
        return self._line_directions

    def linear_values(self) -> np.ndarray:
        """(L, d) ell~_j(n_K) = <n_j, n_K>: row r for the r-th (N-1)-subset K, column j for plane j.

        One matrix product in place of L * d products <n_j, n_K>.
        """
        return self.line_directions() @ self._normals.T

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
    `completing[r]` lists the d-N+1 planes outside K in ascending order, and
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

    `vertices` maps each N-subset to its row of the family's vertex table.  The
    line table and the cardinal table (`cardinals`, filled by
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
        self._vertex_table, self._lines, self.cardinals = table, None, None
        self.vertices = dict(zip(map(tuple, self.family.report.subsets.tolist()), table))

    @property
    def dimension(self) -> int:
        return self.family.dimension

    def vertex(self, subset) -> np.ndarray:
        return self.vertices[tuple(sorted(subset))]

    def vertex_array(self) -> np.ndarray:
        """(C(d, N), N) vertex table, row k for the k-th N-subset (read-only)."""
        return self._vertex_table

    def norm(self) -> float:
        """max ||theta|| over the lattice."""
        return float(np.max(np.linalg.norm(self._vertex_table, axis=1)))

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
        n_dim, count = fam.dimension, fam.count
        indices = tuple(combinations(range(count), n_dim - 1))
        k_index = np.array(indices, dtype=int).reshape(len(indices), n_dim - 1)
        # Line K holds the vertex of each K + (j,), j outside K, read by combinations rank.
        outside = np.ones((len(indices), count), dtype=bool)
        outside[np.arange(len(indices))[:, None], k_index] = False
        completing = np.nonzero(outside)[1].reshape(len(indices), -1)
        members = np.sort(np.concatenate(
            [np.repeat(k_index[:, None, :], completing.shape[1], axis=1), completing[..., None]],
            axis=2), axis=2)
        binom = np.array([[math.comb(count - 1 - c, n_dim - i) for i in range(n_dim)]
                          for c in range(count)])
        rank = math.comb(count, n_dim) - 1 - binom[members, np.arange(n_dim)].sum(axis=2)
        points = self._vertex_table[rank]
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
        completing.setflags(write=False)
        points.setflags(write=False)
        self._lines = LineTable(indices, fam.line_directions(), completing, points)
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
    theta = np.array([lattice.vertex(h) for h in subsets.tolist()])
    values = np.stack([pts @ n - c for n, c in zip(fam.normal_matrix(), fam.offsets())])  # (d, M)
    linear = fam.linear_values()
    recon = np.broadcast_to(theta[:, None, :], (len(subsets),) + pts.shape)
    for p in range(fam.dimension):  # i = H[p] ascending, K = H \\ i
        i = subsets[:, p]
        rows = [fam.line_row(k) for k in np.delete(subsets, p, axis=1).tolist()]
        coeff = values[i] / linear[rows, i][:, None]
        recon = recon + coeff[:, :, None] * fam.line_directions()[rows][:, None, :]
    residuals = np.max(np.linalg.norm(pts - recon, axis=2), axis=1)
    return float(residuals[0]) if np.ndim(subset) < 2 else residuals


# ---------------------------------------------------------------------------
# Seeded random families
# ---------------------------------------------------------------------------

def random_family(
    rng: np.random.Generator,
    dimension: int,
    count: int,
    det_tolerance: float = DEFAULT_GP_TOLERANCE,
    min_subset_det: float = 0.0,
    max_lattice_norm: float = math.inf,
) -> HyperplaneFamily:
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
            family = HyperplaneFamily.from_arrays(normals, offsets,
                                                  det_tolerance=det_tolerance)
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
