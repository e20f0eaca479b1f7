"""Shared test fixtures and independent oracles.

The sweep generator builds well-conditioned families by jittering
pre-optimized direction sets (maximin N-subset determinant) instead of
raw rejection sampling, which keeps 200-family sweeps fast while staying
within desk-scale conditioning.  Oracles here are deliberately independent
of the library code paths they check: high-precision classical divided
differences via mpmath, nested central finite differences, and closed-form
monomial integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from cylattice import (ChungYaoLattice, CosAffine, Decomposition, ExpAffine, HyperplaneFamily,
                       LinearCombination, MultiPoly, Product, RestrictedOrder, SinAffine,
                       SmoothFunction, cardinal_polynomial, divided_difference,
                       interpolate, taylor)
from cylattice.chungyao import newton_pk_table, newton_stage_data
from cylattice.divdiff import monomial_simplex_integral, simplex_integral_poly
from cylattice.convergence import (DEFAULT_C2_THRESHOLD, DEFAULT_S_VALUES, ConditionReport,
                                   index_row)
from cylattice.config import compile_expression, compile_matrix, compile_vector, load_config
from cylattice.errors import DegenerateSubsetError, GeneralPositionError
from cylattice.geometry import DEFAULT_GP_TOLERANCE, _solve_stack, subset_index
from cylattice.poly import (affine_products, contract, evaluate_rows, homogeneous_indices,
                            multi_indices)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "cylattice" / "configs"


def bundled_config(name: str):
    """The bundled config `name`.json, loaded as `cy` loads it."""
    return load_config(CONFIG_DIR / f"{name}.json")


# Direction sets maximizing the min |det| over N-subsets (hill-climbed once,
# frozen; jitter in the generator keeps families random but conditioned).
SPREAD_R3 = {
    5: np.array([
        [-0.204197, 0.773117, 0.600495],
        [-0.182734, -0.128046, 0.974788],
        [-0.588781, -0.745633, 0.31204],
        [-0.838166, -0.225649, -0.496548],
        [-0.631019, 0.701598, -0.331021],
    ]),
    6: np.array([
        [0.438428, 0.897418, 0.049214],
        [-0.603527, 0.747714, 0.276909],
        [-0.713042, -0.335337, 0.615727],
        [0.261897, 0.415656, 0.870999],
        [0.961132, 0.085598, 0.262485],
        [-0.246558, 0.719515, -0.649236],
    ]),
    7: np.array([
        [0.201663, -0.938211, -0.281234],
        [-0.827247, 0.438127, -0.351719],
        [-0.670386, -0.593597, 0.445224],
        [0.536904, 0.778807, 0.324336],
        [0.323181, -0.096323, 0.941422],
        [-0.930941, 0.177077, 0.319363],
        [-0.270005, 0.622499, 0.734569],
    ]),
}


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def spread_normals(rng: np.random.Generator, dimension: int, count: int,
                   jitter: float = 0.02) -> np.ndarray:
    if dimension == 1:
        return np.ones((count, 1))
    if dimension == 2:
        angles = np.pi * np.arange(count) / count \
            + rng.uniform(-jitter, jitter, count) * np.pi
        base = np.column_stack([np.cos(angles), np.sin(angles)])
    elif dimension == 3:
        if count <= 4:
            base = np.vstack([np.eye(3), np.ones((1, 3)) / math.sqrt(3.0)])[:count]
        else:
            base = SPREAD_R3[count].copy()
        base = base + jitter * rng.standard_normal(base.shape)
        base /= np.linalg.norm(base, axis=1)[:, None]
    else:
        raise ValueError("spread fixtures cover dimensions 1..3")
    return base @ random_rotation(rng, dimension).T


def spread_family(
    rng: np.random.Generator,
    dimension: int,
    count: int,
    max_norm: float = 3.0,
    offset_range: tuple[float, float] = (0.2, 1.0),
    min_rel_gap: float = 0.01,
    max_amp: float = 3e4,
    max_tries: int = 200,
) -> HyperplaneFamily:
    """Well-conditioned random family with all vertices inside max_norm.

    Scaling every offset by a common factor scales the lattice by the same
    factor while leaving the normals (hence all determinants) unchanged, so
    oversized draws are rescaled into the ball instead of rejected.  Draws
    with nearly concurrent hyperplanes (vertex gap below `min_rel_gap` times
    the diameter, or cardinal-coefficient amplification above `max_amp`) are
    redrawn: they are legitimately ill-conditioned for any interpolation
    method in coefficient space and would only measure roundoff, not
    correctness.  Empirically the coefficient error of reproducing a
    polynomial is about 2e-15 times the amplification.
    """
    for _ in range(max_tries):
        normals = spread_normals(rng, dimension, count)
        if dimension == 1:
            offsets = np.linspace(offset_range[0], offset_range[1], count) \
                + rng.uniform(-0.02, 0.02, count)
        else:
            offsets = rng.uniform(offset_range[0], offset_range[1], count)
        try:
            family = HyperplaneFamily(normals, offsets)
        except GeneralPositionError:
            continue
        lattice = ChungYaoLattice(family)
        norm = lattice.norm()
        if norm > max_norm:
            offsets = offsets * (max_norm * rng.uniform(0.6, 1.0) / norm)
            try:
                family = HyperplaneFamily(normals, offsets)
            except GeneralPositionError:
                continue
            lattice = ChungYaoLattice(family)
        pts = lattice.vertex_array()
        if len(pts) > 1:
            diffs = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            diffs[np.diag_indices(len(pts))] = np.inf
            if float(diffs.min()) < min_rel_gap * lattice.diameter():
                continue
            amp: dict = {}
            for subset in subset_index(family.count, family.dimension).subsets:
                for alpha, c in cardinal_polynomial(lattice, subset).nonzero_items():
                    amp[alpha] = amp.get(alpha, 0.0) + abs(c)
            if max(amp.values()) > max_amp:
                continue
        return family
    raise RuntimeError(f"could not draw a conditioned family N={dimension} d={count}")


def sweep(rng: np.random.Generator, families_per_case: int = 20,
          dims=(2, 3), extra_degrees: int = 4):
    """Yield (N, d, family) over the standard acceptance sweep."""
    for n_dim in dims:
        for d in range(n_dim, n_dim + extra_degrees + 1):
            for _ in range(families_per_case):
                yield n_dim, d, spread_family(rng, n_dim, d)


def random_poly_coeffs(rng: np.random.Generator, indices) -> dict:
    return {alpha: rng.uniform(-1.0, 1.0) for alpha in indices}


# ---------------------------------------------------------------------------
# Symmetric forms as rows
#
# A symmetric m-linear form on R^N is the row of coefficients of its
# diagonal polynomial over homogeneous_indices(N, m).
# ---------------------------------------------------------------------------

def random_form(rng: np.random.Generator, dimension: int, order: int) -> np.ndarray:
    """The row of a form with coefficients uniform in [-1, 1]."""
    return np.array(list(random_poly_coeffs(rng, homogeneous_indices(dimension, order)).values()))


def monomial_form(dimension: int, alpha) -> np.ndarray:
    """The row of the order-|alpha| form whose diagonal is x^alpha."""
    return np.array([float(beta == tuple(alpha))
                     for beta in homogeneous_indices(dimension, sum(alpha))])


def form_polynomial(row, dimension: int, order: int) -> MultiPoly:
    """The diagonal polynomial of the order-`order` form `row`, over the table of `order`."""
    betas = homogeneous_indices(dimension, order)
    if len(row) != len(betas):
        raise ValueError(f"an order-{order} form on R^{dimension} has {len(betas)} coefficients, "
                         f"got {len(row)}")
    return MultiPoly(dimension, order, dict(zip(betas, np.asarray(row, dtype=float).tolist())))


def fix_form(row, dimension: int, order: int, *vectors) -> np.ndarray:
    """Diagonal of phi(v_1, ..., v_k, ., ..., .) over the table of order - k, one
    `contract` call per vector, for the order-`order` form `row`."""
    diagonal = form_polynomial(row, dimension, order).coeffs[None]
    for k, v in enumerate(vectors):
        diagonal = contract(diagonal, dimension, order - k, np.asarray(v, dtype=float)[None],
                            order - k)
    return diagonal[0]


def form_value(row, *vectors) -> float:
    """phi(v_1, ..., v_m) of the form `row` of order m = len(vectors), by contractions."""
    if not vectors:
        return float(row[0])
    return float(fix_form(row, len(vectors[0]), len(vectors), *vectors)[0])


def ill_conditioned_rows(rng: np.random.Generator, count: int, condition) -> np.ndarray:
    """Rows of `count` floats whose sums have condition numbers near `condition`.

    One row per entry of `condition` (a number or a sequence), built as GenSum
    builds its vectors (Ogita, Rump and Oishi, Accurate sum and dot product,
    SIAM J. Sci. Comput. 26, 2005, section 6), with the exponent range of a
    product there given to one term here.  With b = log2(condition), the
    first half of a row holds random terms of size up to 2^b, the largest at
    full size; each later term is a random term of a size falling from 2^b
    to 1, minus the correctly rounded sum of the terms before it, so the
    running sum cancels.  The row is then shuffled.  With two terms or more,
    the condition number sum|p| / |sum p| lands within a few orders of
    magnitude of `condition`, or the sum cancels to 0.
    """
    conditions = np.atleast_1d(np.asarray(condition, dtype=float))
    rows = np.empty((conditions.size, count))
    half = (count + 1) // 2
    for row, c in zip(rows, conditions):
        b = math.log2(c)
        exponents = np.rint(rng.uniform(0.0, b, half))
        exponents[-1], exponents[0] = 0.0, np.rint(b) + 1
        row[:half] = rng.uniform(-1.0, 1.0, half) * 2.0 ** exponents
        falling = np.rint(np.linspace(b, 0.0, count - half + 1)[1:])
        for i, e in enumerate(falling, start=half):
            row[i] = rng.uniform(-1.0, 1.0) * 2.0 ** e - math.fsum(row[:i])
        rng.shuffle(row)
    return rows


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = Fraction(1, 2 ** 53)


def exact_row_sums(rows) -> tuple[list, list]:
    """The exact sum and the exact sum of |terms| of each row of finite floats.

    Each float is a 53-bit integer times a power of two, so a row sums
    exactly as integers shifted to the row's least exponent.  Returns two
    lists of Fractions, one entry per row of the (..., T) input in row-major
    order.
    """
    rows = np.asarray(rows, dtype=float)
    mantissas, exponents = np.frexp(rows.reshape(-1, rows.shape[-1]))
    exponents -= 53
    least = exponents.min(axis=1, initial=0)
    sums, magnitudes = [], []
    for ints, shifts, low in zip((mantissas * 2.0 ** 53).astype(np.int64).tolist(),
                                 (exponents - least[:, None]).tolist(), least.tolist()):
        scale = Fraction(2) ** low
        shifted = [i << k for i, k in zip(ints, shifts)]
        sums.append(sum(shifted) * scale)
        magnitudes.append(sum(map(abs, shifted)) * scale)
    return sums, magnitudes


def row_sums_within_bound(terms, results) -> np.ndarray:
    """Whether each result is within the stated bound of `poly._compensated_row_sums`.

    For a row of T terms with exact sum s, L = ceil(log2 T) and u = 2^-53 the
    bound is u |s| + (1 + u)^(L + 1) gamma_(T-2) u L sum|terms|, checked in
    exact arithmetic.  `terms` is (..., T) and `results` the matching (...).
    """
    terms = np.asarray(terms, dtype=float)
    count = terms.shape[-1]
    u, levels, n = UNIT_ROUNDOFF, (count - 1).bit_length(), max(count - 2, 0)
    slack = (1 + u) ** (levels + 1) * (n * u / (1 - n * u)) * u * levels
    sums, magnitudes = exact_row_sums(terms)
    return np.array([abs(Fraction(r) - s) <= u * abs(s) + slack * m
                     for r, s, m in zip(np.ravel(results).tolist(), sums, magnitudes)])


def finite_difference_directional(func, x, vectors, h: float = 1e-5) -> float:
    """Nested central differences for D_{v_1}...D_{v_s} f(x) (test oracle only)."""
    x = np.asarray(x, dtype=float)
    if not vectors:
        return float(func(x))
    v = np.asarray(vectors[0], dtype=float)
    rest = vectors[1:]
    plus = finite_difference_directional(func, x + h * v, rest, h)
    minus = finite_difference_directional(func, x - h * v, rest, h)
    return (plus - minus) / (2.0 * h)


def classical_divided_difference(values_fn, nodes) -> float:
    """Newton divided difference at distinct nodes, in 50-digit arithmetic.

    `values_fn` maps an mpmath scalar to an mpmath scalar; independent of
    the simplex-integral implementation under test.
    """
    import mpmath as mp

    with mp.workdps(50):
        xs = [mp.mpf(repr(float(z))) for z in nodes]
        table = [values_fn(z) for z in xs]
        n = len(xs)
        for level in range(1, n):
            table = [
                (table[i + 1] - table[i]) / (xs[i + level] - xs[i])
                for i in range(n - level)
            ]
        return float(table[0])


def exp_divided_difference_oracle(nodes) -> complex:
    """exp[z_0, ..., z_s] at complex nodes, repeated or not, in 50-digit arithmetic.

    Cauchy's integral (1 / 2 pi i) of e^t / prod_j (t - z_j) over a circle
    around the nodes, by the trapezoidal rule, which converges geometrically
    for this periodic analytic integrand.  Independent of the matrix
    exponential under test.
    """
    import mpmath as mp

    with mp.workdps(50):
        zs = [mp.mpc(complex(z).real, complex(z).imag) for z in nodes]
        center = sum(zs) / len(zs)
        radius = 2 * max(abs(z - center) for z in zs) + 1
        count = 32 + 16 * int(mp.ceil(radius))
        total = mp.mpc(0)
        for j in range(count):
            w = radius * mp.expjpi(mp.mpf(2 * j) / count)
            t = center + w
            total += mp.exp(t) * w / mp.fprod(t - z for z in zs)
        return complex(total / count)


def brute_force_vandermonde_3x3(points) -> float:
    """3x3 determinant of {1, x1, x2} rows by cofactor expansion (oracle)."""
    (a, b, c) = points
    m = [
        [1.0, 1.0, 1.0],
        [a[0], b[0], c[0]],
        [a[1], b[1], c[1]],
    ]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def pairwise_dets(normals) -> list[float]:
    """|det| of every N-subset by direct enumeration (oracle for the report)."""
    normals = np.asarray(normals, dtype=float)
    n = normals.shape[1]
    return [
        abs(float(np.linalg.det(normals[list(idx)])))
        for idx in combinations(range(len(normals)), n)
    ]


def derivative_norm_per_point(f, order: int, radius: float, n_points: int = 48,
                              n_directions: int = 256, rng=None) -> float:
    """derivative_norm_estimate as a loop over sample points (test oracle).

    This is the per-point loop the library ran before it was batched: the
    same sample draws in the same order, then at each point a the
    coefficients (m!/beta!) d^beta f(a) from single-point derivative calls
    and the diagonal values at all directions.
    """
    if rng is None:
        rng = np.random.default_rng(1234)
    n = f.dimension

    def unit_directions(count):
        if n == 1:
            return np.array([[1.0], [-1.0]])
        if n == 2:
            angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
            return np.column_stack([np.cos(angles), np.sin(angles)])
        vecs = rng.standard_normal((count, n))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        return np.vstack([vecs, np.eye(n)])

    dirs = unit_directions(n_directions)
    boundary = unit_directions(n_points) * radius
    interior = rng.uniform(-radius, radius, size=(n_points, n))
    interior = interior[np.linalg.norm(interior, axis=1) <= radius]
    points = np.vstack([boundary, interior, np.zeros((1, n))])

    betas = homogeneous_indices(n, order)
    mono = np.array([[math.prod(float(v[i]) ** b[i] for i in range(n)) for b in betas]
                     for v in dirs])
    worst = 0.0
    for a in points:
        coeffs = []
        for beta in betas:
            vectors = [np.eye(n)[i] for i, bi in enumerate(beta) for _ in range(bi)]
            deriv = float(f.directional_derivative(a, vectors))
            coeffs.append(deriv * math.factorial(order)
                          / math.prod(math.factorial(b) for b in beta))
        worst = max(worst, float(np.max(np.abs(mono @ np.array(coeffs)))))
    return worst


def general_position_per_subset(hyperplanes, det_tolerance: float = 1e-8,
                                dedup_tolerance: float = 1e-8):
    """check_general_position as a loop over subsets and vertex pairs (test oracle).

    This is the loop the library ran before the vertex table was batched:
    one determinant and one refined solve per N-subset, then every vertex
    pair in lexicographic order.  Returns the report fields as a dict (with
    the diameter) and the vertex array, or None for the vertices when a
    determinant falls at or below the tolerance.
    """
    normals = [h.normal for h in hyperplanes]
    offsets = [h.offset for h in hyperplanes]
    n = normals[0].size
    subsets = list(combinations(range(len(normals)), n))
    fields = {"accepted": False, "min_det": math.inf, "min_det_subset": None,
              "min_vertex_gap": math.nan, "colliding_pair": None,
              "degenerate_subset": None, "diameter": math.nan}
    for subset in subsets:
        det = abs(float(np.linalg.det(np.stack([normals[i] for i in subset]))))
        if det < fields["min_det"]:
            fields["min_det"], fields["min_det_subset"] = det, subset
    if fields["min_det"] <= det_tolerance:
        fields["degenerate_subset"] = fields["min_det_subset"]
        return fields, None

    vertices = []
    for subset in subsets:
        mat = np.stack([normals[i] for i in subset])
        rhs = np.array([offsets[i] for i in subset])
        x = np.linalg.solve(mat, rhs)
        vertices.append(x + np.linalg.solve(mat, rhs - mat @ x))
    pts = np.stack(vertices)
    diameter, min_gap, pair = 0.0, math.inf, None
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            gap = float(np.linalg.norm(pts[a] - pts[b]))
            diameter = max(diameter, gap)
            if gap < min_gap:
                min_gap, pair = gap, (subsets[a], subsets[b])
    fields["min_vertex_gap"], fields["diameter"] = min_gap, diameter
    if pair is not None and min_gap <= dedup_tolerance * max(1.0, diameter):
        fields["colliding_pair"] = pair
    else:
        fields["accepted"] = True
    return fields, pts


# ---------------------------------------------------------------------------
# Per-plane construction (test oracle)
#
# Families as they were built when the library kept one Hyperplane object per
# plane: one normalization per input plane, one solve per plane for an affine
# image, one solve per vertex, and one plane at a time in each cardinal
# polynomial.  A family is now its stacked arrays, normalized in one step, and
# they must equal these bit for bit.
# ---------------------------------------------------------------------------

class Hyperplane:
    """<normal, x> = offset with ||normal|| = 1, normalized one plane at a time (test oracle).

    A normal whose norm is more than 1e-12 from 1 is divided by it, and so is
    the offset.  A normalized normal or offset that is not finite, or else a
    zero normal, raises ValueError with the message `unit_planes` gives.
    """

    def __init__(self, normal, offset):
        n = np.array(normal, dtype=float)
        c = float(offset)
        with np.errstate(over="ignore"):  # a norm that overflows is not finite: rejected below
            norm = math.sqrt(n.dot(n))
        if math.isfinite(norm) and norm > 1e-14 and abs(norm - 1.0) > 1e-12:
            n = n / norm
            c = c / norm
        if not (math.isfinite(norm) and math.isfinite(c)):
            raise ValueError(f"hyperplane normal and offset must be finite when normalized, "
                             f"got {np.array(normal, dtype=float).tolist()} and {float(offset)!r}")
        if not norm > 1e-14:
            raise ValueError("hyperplane normal must be nonzero")
        self.normal, self.offset = n, c


def vertex_items(lattice) -> list:
    """(H, theta_H) for every vertex, in vertex-table order."""
    return list(zip(subset_index(lattice.family.count, lattice.dimension).subsets,
                    lattice.vertices))


def plane_arrays(planes) -> tuple[np.ndarray, np.ndarray]:
    """The (d, N) normals and (d,) offsets of a list of Hyperplanes, row i for plane i."""
    return np.stack([h.normal for h in planes]), np.array([h.offset for h in planes])


def unit_planes_per_row(normals, offsets):
    """unit_planes one row at a time through Hyperplane: the arrays, or the first
    rejected row and its message (test oracle)."""
    planes = []
    for k, (normal, offset) in enumerate(zip(normals, offsets)):
        try:
            planes.append(Hyperplane(normal, offset))
        except ValueError as exc:
            return k, str(exc)
    return plane_arrays(planes)


def affine_image_planes(planes, matrix, offset) -> list:
    """The Hyperplane images of `planes` under x -> L x + b, one solve per plane."""
    mat = np.asarray(matrix, dtype=float)
    l_inv_b = np.linalg.solve(mat, np.asarray(offset, dtype=float))
    return [Hyperplane(np.linalg.solve(mat.T, h.normal), h.offset + float(h.normal @ l_inv_b))
            for h in planes]


def triangle_planes(points) -> list:
    """Line k through the two points other than k, as a Hyperplane."""
    pts = np.asarray(points, dtype=float)
    planes = []
    for k in range(3):
        i, j = [i for i in range(3) if i != k]
        normal = np.array([pts[j, 1] - pts[i, 1], pts[i, 0] - pts[j, 0]])
        planes.append(Hyperplane(normal, float(normal @ pts[i])))
    return planes


def config_planes(spec: dict, s: int) -> list:
    """The Hyperplanes of a hyperplanes, affine or points2d family spec at index s."""
    t = 1.0 / s
    if spec["type"] == "hyperplanes":
        return [Hyperplane(item["normal"], item["offset"]) for item in spec["items"]]
    if spec["type"] == "affine":
        return affine_image_planes(config_planes(spec["base"], 1),
                                   compile_matrix(spec["matrix"])(t),
                                   compile_vector(spec["offset"])(t))
    assert spec["type"] == "points2d"
    return triangle_planes([[compile_expression(e)(t) for e in p] for p in spec["points"]])


def assert_family_equals_planes(family, planes):
    """The family's normals, offsets and vertex table equal the per-plane build, bit for bit."""
    normals, offsets = plane_arrays(planes)
    assert np.array_equal(family.normal_matrix(), normals)
    assert np.array_equal(family.offsets(), offsets)
    _, vertices = general_position_per_subset(planes, family.det_tolerance)
    assert np.array_equal(family.report.vertices, vertices)


def cardinal_rows_per_plane(lattice, planes) -> np.ndarray:
    """Cardinal table rows, one vertex and one plane at a time: theta @ n - c per denominator."""
    rows = []
    for subset, theta in vertex_items(lattice):
        others = [h for j, h in enumerate(planes) if j not in subset]
        denominator = 1.0
        for h in others:
            denominator *= float(theta @ h.normal - h.offset)
        poly = MultiPoly(lattice.dimension, 0, [1.0])
        for h in others:
            poly = poly * MultiPoly.affine(h.normal, h.offset)
        rows.append((1.0 / denominator) * poly.coeffs)
    return np.array(rows)


def direction_vector_per_minor(normals) -> np.ndarray:
    """direction_vector as one np.delete and one det per minor (test oracle).

    This is the loop the library ran before the N minors were stacked into
    one determinant call.
    """
    cols = np.column_stack([np.asarray(n, dtype=float) for n in normals])
    dim = cols.shape[0]
    out = np.empty(dim)
    for j in range(dim):
        out[j] = (-1.0) ** j * float(np.linalg.det(np.delete(cols, j, axis=0)))
    return out


# ---------------------------------------------------------------------------
# Exponent-tuple polynomial algebra (test oracle)
#
# The dict-of-exponent-tuples loops MultiPoly ran before it stored a
# coefficient vector.  Each takes and returns MultiPoly objects but does its
# arithmetic on dense {alpha: coefficient} dicts, in the original order, so
# the vector code must match it bit for bit.
# ---------------------------------------------------------------------------

def _dense(p: MultiPoly) -> dict:
    return dict(zip(multi_indices(p.dimension, p.degree), p.coeffs.tolist()))


def _nonzero(p: MultiPoly) -> list:
    return [(a, c) for a, c in _dense(p).items() if c != 0.0]


def dict_binary(p: MultiPoly, q: MultiPoly, sign: float) -> MultiPoly:
    deg = max(p.degree, q.degree)
    out = {a: 0.0 for a in multi_indices(p.dimension, deg)}
    for a, c in _dense(p).items():
        out[a] = c
    for a, c in _dense(q).items():
        out[a] = out[a] + sign * c
    return MultiPoly(p.dimension, deg, out)


def dict_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    left, right = _nonzero(p), _nonzero(q)
    ldeg = max((sum(a) for a, _ in left), default=0)
    rdeg = max((sum(a) for a, _ in right), default=0)
    acc = {a: 0.0 for a in multi_indices(p.dimension, ldeg + rdeg)}
    for a, ca in left:
        for b, cb in right:
            key = tuple(x + y for x, y in zip(a, b))
            acc[key] = acc[key] + ca * cb
    return MultiPoly(p.dimension, ldeg + rdeg, acc)


def dict_directional(p: MultiPoly, v) -> MultiPoly:
    v = np.asarray(v, dtype=float)
    out = {a: 0.0 for a in multi_indices(p.dimension, max(p.degree - 1, 0))}
    for a, c in _dense(p).items():
        if c == 0.0:
            continue
        for i in range(p.dimension):
            if a[i] == 0 or v[i] == 0.0:
                continue
            b = list(a)
            b[i] -= 1
            out[tuple(b)] += c * a[i] * v[i]
    return MultiPoly(p.dimension, max(p.degree - 1, 0), out)


def dict_evaluate(p: MultiPoly, x) -> float:
    terms = []
    for a, c in _dense(p).items():
        if c == 0.0:
            continue
        mono = 1.0
        for xi, ai in zip(np.asarray(x, dtype=float), a):
            if ai:
                mono *= float(xi) ** ai
        terms.append(c * mono)
    return math.fsum(terms)


def _dict_constant(dimension: int, value: float) -> MultiPoly:
    return MultiPoly(dimension, 0, {(0,) * dimension: value})


def dict_substitute(p: MultiPoly, replacements) -> MultiPoly:
    new_dim = replacements[0].dimension
    max_pow = [0] * p.dimension
    for a, _ in _nonzero(p):
        for i, ai in enumerate(a):
            max_pow[i] = max(max_pow[i], ai)
    powers = []
    for i, r in enumerate(replacements):
        row = [_dict_constant(new_dim, 1.0)]
        for _ in range(max_pow[i]):
            row.append(dict_mul(row[-1], r))
        powers.append(row)
    out = MultiPoly(new_dim, 0, {})
    for a, c in _nonzero(p):
        term = _dict_constant(new_dim, c)
        for i, ai in enumerate(a):
            if ai:
                term = dict_mul(term, powers[i][ai])
        out = dict_binary(out, term, 1.0)
    return out


def taylor_per_index(f, order: int) -> np.ndarray:
    """The coefficients d^alpha f(0) / alpha! of the Taylor polynomial at the origin,
    one single-point derivative per multi-index (the loop `taylor` ran before it
    read `derivative_table`)."""
    n = f.dimension
    coeffs = []
    for alpha in multi_indices(n, order):
        dirs = [np.eye(n)[i] for i, ai in enumerate(alpha) for _ in range(ai)]
        deriv = f.directional_derivative(np.zeros(n), dirs)
        coeffs.append(float(deriv) / math.prod(map(math.factorial, alpha)))
    return np.array(coeffs) + 0.0


def position_index(dimension: int, degree: int) -> dict:
    """Position of each exponent tuple in `multi_indices(dimension, degree)`: the
    whole-table dict that placed coefficients before positions were computed."""
    return {alpha: k for k, alpha in enumerate(multi_indices(dimension, degree))}


def product_map_by_dict(dimension: int, left: int, right: int) -> np.ndarray:
    """`poly._product_map` looked up in `position_index` of degree left + right."""
    position = position_index(dimension, left + right)
    return np.array([[position[tuple(x + y for x, y in zip(a, b))]
                      for b in multi_indices(dimension, right)]
                     for a in multi_indices(dimension, left)], dtype=np.intp)


def lowering_map_by_dict(dimension: int, degree: int) -> tuple:
    """`poly._lowering_map` as a loop over (alpha, i), looked up in `position_index`."""
    position = position_index(dimension, max(degree - 1, 0))
    rows = [(k, i, float(a), position[alpha[:i] + (a - 1,) + alpha[i + 1:]])
            for k, alpha in enumerate(multi_indices(dimension, degree))
            for i, a in enumerate(alpha) if a]
    columns = list(zip(*rows)) or [(), (), (), ()]
    return tuple(np.array(column, dtype=dtype)
                 for column, dtype in zip(columns, (np.intp, np.intp, float, np.intp)))


# ---------------------------------------------------------------------------
# Per-point symmetric forms and staged identity
#
# The loops that evaluated every mixed form value by m directional
# derivatives, and every staged term at one point x at a time, before the
# forms were contracted once per argument pattern and evaluated over point
# batches.  They are kept verbatim as bit-exact oracles.
# ---------------------------------------------------------------------------

def pointwise_polarize(row, vectors) -> float:
    """(1/m!) D_{v_1} ... D_{v_m} p of the diagonal p of the form `row`, one
    directional derivative at a time."""
    m = len(vectors)
    q = form_polynomial(row, len(vectors[0]), m)
    for v in vectors:
        q = q.directional(v)
    return float(q.coeffs[0]) / math.factorial(m)


def pointwise_form(row, *vectors) -> float:
    """phi(v_1, ..., v_m): the diagonal polynomial on equal arguments, else polarization."""
    if not vectors:
        return float(row[0])
    arrs = [np.asarray(v, dtype=float) for v in vectors]
    if all(np.array_equal(arrs[0], v) for v in arrs[1:]):
        return form_polynomial(row, len(arrs[0]), len(arrs)).evaluate(arrs[0])
    return pointwise_polarize(row, arrs)


def chained_affine_products(normals, offsets, factors, scale) -> list[MultiPoly]:
    """Row r of `poly.affine_products`, scaled, as a chain of `MultiPoly.__mul__` from 1.

    Forms j = factors[r, t] >= 0 are multiplied in order, then the product is
    scaled by scale[r].
    """
    normals = np.asarray(normals, dtype=float)
    out = []
    for row, factor in zip(np.asarray(factors).tolist(), np.asarray(scale, dtype=float).tolist()):
        poly = MultiPoly(normals.shape[1], 0, [1.0])
        for j in row:
            if j >= 0:
                poly = poly * MultiPoly.affine(normals[j], offsets[j])
        out.append(MultiPoly(poly.dimension, poly.degree, factor * poly.coeffs))
    return out


@dataclass(frozen=True, eq=False)
class ExpandedTable:
    """Polynomials of a term list, row r for `terms[r]`, as coefficient rows over one
    graded-lex table: the expanded form of a `PKTable`, evaluated by `evaluate_rows`."""

    terms: tuple
    dimension: int
    degree: int
    coeffs: np.ndarray

    def __call__(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return evaluate_rows(self.coeffs, self.dimension, self.degree, points)

    def magnitude(self, points) -> np.ndarray:
        """(M, rows) of sum_alpha |c_alpha| |x|^alpha: the rows at |x| with |coefficients|.

        It bounds |value| and scales the rounding error of evaluating the rows
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  For a
        cardinal table it does not scale the error of a value when a vertex
        sits near a plane it is not on: a bound then needs the factor 1 + kappa,
        kappa = max_H sum_(j not in H) (||theta_H|| + |c_j|) / |ell_j(theta_H)|,
        and without it sum_H ell_H(x) missed 1 by up to 6020 u sum_H |ell_H|(|x|).
        """
        points = np.abs(np.atleast_2d(np.asarray(points, dtype=float)))
        return evaluate_rows(np.abs(self.coeffs), self.dimension, self.degree, points)


def expanded(table) -> ExpandedTable:
    """The expanded rows of a `PKTable` (its `coeffs`), evaluated as coefficient rows."""
    return ExpandedTable(table.terms, table.dimension, table.degree, table.coeffs)


def pk_rows_per_table(family, terms, subsets, factors, values, homogeneous=False) -> ExpandedTable:
    """A P_K table expanded on its own, by one `affine_products` call on its factors.

    Row r (terms[r], K = subsets[r]) is the product of the ell_j, or of their
    linear parts when homogeneous, over j = factors[r, t] >= 0 in order, divided
    by the running product of the values[r, j].  A |values[r, j]| <= 1e-14
    raises DegenerateSubsetError naming the first such (r, t) in row-major order.
    """
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
    return ExpandedTable(terms, family.dimension, *affine_products(
        family.normal_matrix(), offsets, factors, 1.0 / denominator))


def pk_tables_per_table(family) -> dict:
    """Every P_K table of a family, each expanded on its own from the per-family enumeration.

    Keys: (upto, homogeneous) for upto = N-1..d, "newton" for the staged
    identity, and "flipped" for the full table over -n_K.  A value is the
    ExpandedTable, or the DegenerateSubsetError that its expansion raised.
    """
    tables = index_tables_per_family(family.count, family.dimension)
    linear, out = family.linear_values(), {}

    def expand(key, terms, subsets, rows, factors, sign=1.0, homogeneous=False):
        try:
            out[key] = pk_rows_per_table(family, tuple(terms), subsets, factors,
                                         sign * linear[rows], homogeneous)
        except DegenerateSubsetError as exc:
            out[key] = exc

    for upto in range(family.dimension - 1, family.count + 1):
        terms, rows, factors = tables["pk", upto]  # a P_K table's terms are its subsets
        for homogeneous in (False, True):
            expand((upto, homogeneous), terms, terms, rows, factors, homogeneous=homogeneous)
    expand("newton", *tables["newton"])
    expand("flipped", terms, terms, rows, factors, sign=-1.0)  # upto = d, the last one
    return out


def line_divided_differences_per_line(f, line_points, directions, points) -> np.ndarray:
    """(L, P) exact [Theta_K, x | n_K^m]p of a PolynomialFunction, one line at a time.

    Each line takes m `MultiPoly.directional` calls; a constant derivative c
    gives c / m!, any other is integrated hull by hull by `simplex_integral_poly`.
    """
    m = np.shape(line_points)[1]
    out = []
    for line, direction in zip(np.asarray(line_points, dtype=float), directions):
        derivative = f.derivative_poly([direction] * m)
        if derivative.total_degree() == 0:
            out.append([derivative.coeffs[0] * monomial_simplex_integral((0,) * m)] * len(points))
        else:
            out.append([simplex_integral_poly(derivative, np.vstack([line, x])) for x in points])
    return np.array(out)


def chained_pk(family, k_indices, upto=None, homogeneous=False, direction=None) -> MultiPoly:
    """P_K over the first `upto` planes by the chain of `MultiPoly.__mul__`, one plane at a time."""
    upto = family.count if upto is None else upto
    if direction is None:
        direction = family.direction(k_indices)
    direction = np.asarray(direction, dtype=float)
    normals, offsets = family.normal_matrix(), family.offsets()
    planes = [j for j in range(upto) if j not in k_indices]
    poly = MultiPoly(family.dimension, 0, [1.0])
    denominator = 1.0
    for j in planes:
        poly = poly * MultiPoly.affine(normals[j], 0.0 if homogeneous else offsets[j])
        denominator *= float(direction @ normals[j])
    return MultiPoly(poly.dimension, poly.degree, (1.0 / denominator) * poly.coeffs)


def pointwise_newton_identity(family, phi, x, lattice=None) -> Decomposition:
    """The staged decomposition at one point, term by term, for the form row phi."""
    n_dim = family.dimension
    d = family.count
    m = d - n_dim + 1
    x = np.asarray(x, dtype=float)
    terms, pk_values, form_values = [], [], []
    for data in newton_stage_data(family, lattice):
        if data.vertex is None:
            args = [data.direction] * (data.stage - n_dim)
        else:
            args = [x] * (d - data.stage) + [data.vertex] \
                + [data.direction] * (data.stage - n_dim)
        terms.append((data.stage, data.indices))
        pk_values.append(chained_pk(family, data.indices, upto=data.stage - 1).evaluate(x))
        form_values.append(pointwise_form(phi, *args))
    return Decomposition(terms=tuple(terms), function_value=pointwise_form(phi, *([x] * m)),
                         interpolant_value=0.0, pk_values=np.array(pk_values),
                         factors=np.array(form_values))


def evaluate_factored(interpolant, x) -> float:
    """L[f](x) through the factored cardinal products, one vertex at a time."""
    fam = interpolant.lattice.family
    normals, offsets = fam.normal_matrix(), fam.offsets()
    x = np.asarray(x, dtype=float)
    terms = []
    for (subset, theta), fx in zip(vertex_items(interpolant.lattice), interpolant.values):
        factor = float(fx)
        for j in range(fam.count):
            if j in subset:
                continue
            factor *= float(x @ normals[j] - offsets[j]) / float(theta @ normals[j] - offsets[j])
        terms.append(factor)
    return math.fsum(terms)


def deboor_remainder_oracle(lattice, f, x, interpolant=None, lines=None) -> Decomposition:
    """de Boor's remainder at one point, one P_K and one divided difference per line."""
    fam = lattice.family
    m = fam.count - fam.dimension + 1
    x = np.asarray(x, dtype=float)
    if interpolant is None:
        interpolant = interpolate(lattice, f)
    if lines is None:
        lines = lattice.line_subsets()
    pk_values, dds = [], []
    for k, n_k, line_points in zip(lines.indices, lines.directions, lines.points):
        points = np.vstack([line_points, x[None, :]])
        pk_values.append(chained_pk(fam, k).evaluate(x))
        dds.append(divided_difference(f, points, [n_k] * m))
    return Decomposition(terms=tuple(lines.indices), function_value=float(f.evaluate(x)),
                         interpolant_value=interpolant.polynomial.evaluate(x),
                         pk_values=np.array(pk_values), factors=np.array(dds))


def conjugate_pair_ridges(f):
    """f as a plain sum of complex exponential ridges, each conjugate pair spelled out.

    sin z = (e^{iz} - e^{-iz}) / 2i and cos z = (e^{iz} + e^{-iz}) / 2 give two
    ridges each, a product takes every pair of ridges (e^u e^w = e^(u + w)) and
    a combination concatenates, with no merging, so the sum itself is real.
    Returns (amps, C, b) as `ridges()` does, or None for f with no such form.
    """
    if isinstance(f, RestrictedOrder):
        return conjugate_pair_ridges(f.inner)
    pairs = {ExpAffine: ([1.0], [1.0]), SinAffine: ([-0.5j, 0.5j], [1j, -1j]),
             CosAffine: ([0.5, 0.5], [1j, -1j])}
    if type(f) in pairs:
        amps, phase = (np.asarray(a, dtype=complex) for a in pairs[type(f)])
        return amps, phase[:, None] * f.coeffs, phase * f.shift
    if isinstance(f, Product):
        left, right = conjugate_pair_ridges(f.left), conjugate_pair_ridges(f.right)
        if left is None or right is None:
            return None
        (la, lc, lb), (ra, rc, rb) = left, right
        return (np.outer(la, ra).ravel(),
                (lc[:, None, :] + rc[None, :, :]).reshape(-1, f.dimension),
                (lb[:, None] + rb[None, :]).ravel())
    if isinstance(f, LinearCombination):
        parts = [conjugate_pair_ridges(g) for _, g in f.terms]
        if any(part is None for part in parts):
            return None
        return (np.concatenate([w * a for (w, _), (a, _, _) in zip(f.terms, parts)]),
                np.concatenate([c for _, c, _ in parts]), np.concatenate([b for _, _, b in parts]))
    return None


class ConjugatePairRidges(SmoothFunction):
    """f whose `ridges()` is the unmerged `conjugate_pair_ridges(f)`.

    The divided-difference paths run on it as on f, one exp[z] row per ridge of
    the pair expansion, so it is the oracle for the merged ridge form.
    """

    def __init__(self, f: SmoothFunction):
        self.inner = f
        self.dimension, self.max_order = f.dimension, f.max_order

    def evaluate(self, x):
        return self.inner.evaluate(x)

    def directional_derivative(self, x, vectors):
        return self.inner.directional_derivative(x, vectors)

    def ridges(self):
        return conjugate_pair_ridges(self.inner)


def ridge_forms_are_distinct(c, b) -> bool:
    """No two rows of (C, b) are equal, and none is the conjugate of another."""
    rows = np.column_stack([c, b])
    for r, s in combinations(range(len(rows)), 2):
        if np.array_equal(rows[r], rows[s]) or np.array_equal(rows[r], rows[s].conj()):
            return False
    return True


# ---------------------------------------------------------------------------
# Per-subset vertex solve and property probes: oracles that no `cy` command
# runs.  solve_vertex is the per-subset reference for the stacked vertex table.
# ---------------------------------------------------------------------------

def solve_vertex(hyperplanes, det_tolerance: float = DEFAULT_GP_TOLERANCE) -> np.ndarray:
    """Intersection point of N hyperplanes in R^N.

    Solves <n_i, x> = c_i with one step of iterative refinement, by the same
    `_solve_stack` as the stacked vertex table; raises DegenerateSubsetError
    when the unit-normal determinant falls at or below the tolerance.
    """
    mat = np.stack([h.normal for h in hyperplanes])
    rhs = np.array([h.offset for h in hyperplanes])
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError(f"need N hyperplanes in R^N, got matrix shape {mat.shape}")
    det = float(np.linalg.det(mat))
    if abs(det) <= det_tolerance:
        raise DegenerateSubsetError(
            f"near-singular subset: |det| = {abs(det):.3e} <= {det_tolerance:.1e}"
        )
    return _solve_stack(mat[None], rhs[None])[0]


def divided_difference_continuity_probe(f, points, vectors, scale: float, samples: int = 24,
                                        rng: np.random.Generator | None = None) -> float:
    """Max divided-difference deviation under perturbations of size <= scale.

    Both the point group and the vector group are perturbed; the return value
    shrinks to zero with `scale` for fixed smooth f, which is the continuity
    property the convergence argument leans on.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    reference = divided_difference(f, points, vectors)
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for _ in range(samples):
        dp = rng.uniform(-1.0, 1.0, size=points.shape)
        dp *= scale / max(1.0, float(np.max(np.linalg.norm(dp, axis=1))))
        dv = [rng.uniform(-1.0, 1.0, size=v.shape) for v in vectors]
        dv = [d * scale / max(1.0, float(np.linalg.norm(d))) for d in dv]
        value = divided_difference(f, points + dp, [v + d for v, d in zip(vectors, dv)])
        worst = max(worst, abs(value - reference))
    return worst


def taylor_error_decomposition(family, f, x, lattice=None) -> Decomposition:
    """Decompose the Taylor remainder of f at the origin over the family.

    f(x) = T(f)(x) + the sum of the terms, with T(f) the degree d-N Taylor
    polynomial at 0 (the interpolant_value); each term's factor integrates
    the order d-N+1 derivative over the hull of d-N+1 copies of the origin
    and x, applied to the staged argument pattern of the Newton-like
    identity.  x is one point; the terms are the (stage, K) rows of
    `newton_pk_table`.
    """
    n_dim = family.dimension
    d = family.count
    m = d - n_dim + 1
    x = np.asarray(x, dtype=float)
    base_points = np.vstack([np.zeros((m, n_dim)), x[None, :]])
    integrals = []
    for data in newton_stage_data(family, lattice):
        if data.vertex is None:
            vectors = [data.direction] * (data.stage - n_dim)
        else:
            vectors = [x] * (d - data.stage) + [data.vertex] \
                + [data.direction] * (data.stage - n_dim)
        integrals.append(divided_difference(f, base_points, vectors))
    table = newton_pk_table(family)
    return Decomposition(terms=table.terms, function_value=float(f.evaluate(x)),
                         interpolant_value=taylor(f, d - n_dim).evaluate(x),
                         pk_values=table(x)[0], factors=np.array(integrals))


# ---------------------------------------------------------------------------
# Template expressions: the recursive-descent reader config.py used before it
# parsed templates with Python's ast, kept as the definition of the language.
# ---------------------------------------------------------------------------

def reference_expression(text: str):
    """Callable of t for a template, or ConfigError, by the original grammar.

    expr := term (('+'|'-') term)*;  term := factor (('*'|'/') factor)*
    factor := '-' factor | power;    power := atom ('^' factor)?
    atom := number | 't' | 'exp' '(' expr ')' | '(' expr ')'
    Numbers are runs of str.isdigit() characters and dots read by float();
    words are runs of str.isalpha() characters; whitespace separates tokens.
    """
    from cylattice.errors import ConfigError

    tokens, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for kind in (lambda c: c in "+-*/^()", lambda c: c.isdigit() or c == ".", str.isalpha):
            if kind(ch):
                j = i + 1
                while ch not in "+-*/^()" and j < len(text) and kind(text[j]):
                    j += 1
                tokens.append(text[i:j])
                i = j
                break
        else:
            raise ConfigError(f"bad character {ch!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ConfigError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def expr():
        node = term()
        while peek() in ("+", "-"):
            node = (take(), node, term())
        return node

    def term():
        node = factor()
        while peek() in ("*", "/"):
            node = (take(), node, factor())
        return node

    def factor():
        if peek() == "-":
            take()
            return ("neg", factor())
        node = atom()
        if peek() == "^":
            take()
            node = ("^", node, factor())
        return node

    def atom():
        tok = take()
        if tok in ("(", "exp"):
            if tok == "exp":
                take("(")
            node = expr()
            take(")")
            return ("exp", node) if tok == "exp" else node
        if tok == "t":
            return ("t",)
        try:
            return ("num", float(tok))
        except ValueError:
            raise ConfigError(f"unknown token {tok!r}") from None

    node = expr()
    if peek() is not None:
        raise ConfigError(f"trailing input {peek()!r}")
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
           "/": lambda a, b: a / b, "^": lambda a, b: a ** b}

    def evaluate(node, t):
        if node[0] == "num":
            return node[1]
        if node[0] == "t":
            return t
        if node[0] == "neg":
            return -evaluate(node[1], t)
        if node[0] == "exp":
            return math.exp(evaluate(node[1], t))
        return ops[node[0]](evaluate(node[1], t), evaluate(node[2], t))

    return lambda t: evaluate(node, t)


# ---------------------------------------------------------------------------
# Per-family enumeration, the condition sweep and the whole-mesh ball grid
# (test oracles)
#
# The index tables as each family and lattice enumerated them before they
# were shared per shape (d, N); the sweep `cy converge` runs inline; and the
# ball grid cut from the whole [-R, R]^N mesh.
# ---------------------------------------------------------------------------

def check_conditions(seq, s_values=DEFAULT_S_VALUES,
                     c2_threshold: float = DEFAULT_C2_THRESHOLD) -> ConditionReport:
    """The three condition statistics across the index range, one `index_row` per s."""
    return ConditionReport.from_rows([index_row(seq, s) for s in s_values], c2_threshold)


def ball_grid_mesh(dimension: int, radius: float, per_axis: int) -> np.ndarray:
    """The points of the whole [-R, R]^N mesh in the closed ball (none raises no error)."""
    axes = [np.linspace(-radius, radius, per_axis)] * dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    return pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]


def factor_rows(subsets, uptos) -> np.ndarray:
    """Row r: the planes j < uptos[r] outside subsets[r], ascending, padded with -1."""
    planes = [[j for j in range(upto) if j not in k] for k, upto in zip(subsets, uptos)]
    width = max(map(len, planes))
    return np.array([row + [-1] * (width - len(row)) for row in planes], dtype=np.intp)


def index_tables_per_family(count: int, dim: int) -> dict:
    """The index tables of a family of `count` planes in R^dim, enumerated per family.

    "vertices" and "lines" are the N- and (N-1)-subsets and their arrays,
    "line_rank" maps K to its row, "completing" holds the planes outside
    each K, "vertex_lines" the line row of each H without H[p],
    "line_points" the combinations rank of each K + {j} (by the binomial
    formula), ("pk", upto) the terms, line rows and factors of the
    P_K over the first `upto` planes, "newton" the terms, K, line rows and
    factors of the staged identity, and "cardinal" the factors of each vertex.
    """
    vertices = list(combinations(range(count), dim))
    lines = list(combinations(range(count), dim - 1))
    k_index = np.array(lines, dtype=int).reshape(len(lines), dim - 1)
    outside = np.ones((len(lines), count), dtype=bool)
    outside[np.arange(len(lines))[:, None], k_index] = False
    completing = np.nonzero(outside)[1].reshape(len(lines), -1)
    members = np.sort(np.concatenate(
        [np.repeat(k_index[:, None, :], completing.shape[1], axis=1), completing[..., None]],
        axis=2), axis=2)
    binom = np.array([[math.comb(count - 1 - c, dim - i) for i in range(dim)]
                      for c in range(count)])
    line_rank = {k: r for r, k in enumerate(lines)}
    tables = {"vertices": (vertices, np.array(vertices)), "lines": (lines, k_index),
              "line_rank": line_rank, "completing": completing,
              "vertex_lines": np.array([[line_rank[h[:p] + h[p + 1:]] for p in range(dim)]
                                        for h in vertices], dtype=int).reshape(-1, dim),
              "line_points": math.comb(count, dim) - 1 - binom[members, np.arange(dim)].sum(axis=2),
              "cardinal": factor_rows(vertices, [count] * len(vertices))}
    for upto in range(dim - 1, count + 1):
        terms = list(combinations(range(upto), dim - 1))
        tables["pk", upto] = (terms, [line_rank[k] for k in terms],
                              factor_rows(terms, [upto] * len(terms)))
    newton = [(stage, k) for stage in range(dim, count + 2)
              for k in combinations(range(stage - 1), dim - 1)]
    subsets = [k for _, k in newton]
    tables["newton"] = (newton, subsets, [line_rank[k] for k in subsets],
                        factor_rows(subsets, [stage - 1 for stage, _ in newton]))
    return tables
