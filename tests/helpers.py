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
from fractions import Fraction
from itertools import combinations

import numpy as np

from cylattice import (ChungYaoLattice, Decomposition, Hyperplane, HyperplaneFamily, MultiPoly,
                       SymmetricForm, cardinal_polynomial, divided_difference, interpolate, taylor)
from cylattice.chungyao import newton_pk_table, newton_stage_data
from cylattice.config import compile_expression, compile_matrix, compile_vector
from cylattice.errors import DegenerateSubsetError, GeneralPositionError
from cylattice.geometry import DEFAULT_GP_TOLERANCE, _solve_stack
from cylattice.poly import basis_vector, homogeneous_indices, multi_indices

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
            family = HyperplaneFamily.from_arrays(normals, offsets)
        except GeneralPositionError:
            continue
        lattice = ChungYaoLattice(family)
        norm = lattice.norm()
        if norm > max_norm:
            offsets = offsets * (max_norm * rng.uniform(0.6, 1.0) / norm)
            try:
                family = HyperplaneFamily.from_arrays(normals, offsets)
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
            for subset in lattice.vertices:
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
            vectors = [basis_vector(n, i) for i, bi in enumerate(beta) for _ in range(bi)]
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
# Families as they were built when they kept one Hyperplane object per plane:
# one Hyperplane per input, one solve per plane for an affine image, one
# solve per vertex, and one plane at a time in each cardinal polynomial.  A
# family now keeps only its stacked arrays, which must equal these bit for bit.
# ---------------------------------------------------------------------------

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
    assert np.array_equal(family.normal_matrix(), np.stack([h.normal for h in planes]))
    assert np.array_equal(family.offsets(), np.array([h.offset for h in planes]))
    _, vertices = general_position_per_subset(planes, family.det_tolerance)
    assert np.array_equal(family.report.vertices, vertices)


def cardinal_rows_per_plane(lattice, planes) -> np.ndarray:
    """Cardinal table rows, one vertex and one plane at a time: theta @ n - c per denominator."""
    rows = []
    for subset, theta in lattice.vertices.items():
        others = [h for j, h in enumerate(planes) if j not in subset]
        denominator = 1.0
        for h in others:
            denominator *= float(theta @ h.normal - h.offset)
        poly = MultiPoly.constant(lattice.dimension, 1.0)
        for h in others:
            poly = poly * MultiPoly.affine(h.normal, h.offset)
        rows.append(poly.scale(1.0 / denominator).coeffs)
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


def dict_taylor(f, center, order: int) -> MultiPoly:
    center = np.asarray(center, dtype=float)
    n = f.dimension
    zero = (0,) * n
    shifted = [MultiPoly(n, 1, {zero: -float(center[i]),
                                tuple(int(j == i) for j in range(n)): 1.0})
               for i in range(n)]
    powers = []
    for i in range(n):
        row = [_dict_constant(n, 1.0)]
        for _ in range(order):
            row.append(dict_mul(row[-1], shifted[i]))
        powers.append(row)
    out = MultiPoly(n, order, {})
    for alpha in multi_indices(n, order):
        dirs = []
        for i, ai in enumerate(alpha):
            dirs.extend([basis_vector(n, i)] * ai)
        deriv = f.directional_derivative(center, dirs)
        coeff = float(deriv) / math.prod(math.factorial(a) for a in alpha)
        if coeff == 0.0:
            continue
        term = _dict_constant(n, coeff)
        for i, ai in enumerate(alpha):
            if ai:
                term = dict_mul(term, powers[i][ai])
        out = dict_binary(out, term, 1.0)
    return out


# ---------------------------------------------------------------------------
# Per-point symmetric forms and staged identity
#
# The loops that evaluated every mixed form value by m directional
# derivatives, and every staged term at one point x at a time, before the
# forms were contracted once per argument pattern and evaluated over point
# batches.  They are kept verbatim as bit-exact oracles.
# ---------------------------------------------------------------------------

def pointwise_polarize(p: MultiPoly, vectors) -> float:
    """(1/m!) D_{v_1} ... D_{v_m} p, one directional derivative at a time."""
    m = len(vectors)
    if not p.is_homogeneous(m):
        raise ValueError(f"polynomial is not homogeneous of degree {m}")
    q = p
    for v in vectors:
        q = q.directional(v)
    return float(q.coeffs[0]) / math.factorial(m)


def pointwise_form(phi: SymmetricForm, *vectors) -> float:
    """phi(v_1, ..., v_m): the diagonal polynomial on equal arguments, else polarization."""
    if phi.order == 0:
        return float(phi.diagonal.coeffs[0])
    arrs = [np.asarray(v, dtype=float) for v in vectors]
    if all(np.array_equal(arrs[0], v) for v in arrs[1:]):
        return phi.diagonal.evaluate(arrs[0])
    return pointwise_polarize(phi.diagonal, arrs)


def chained_affine_products(normals, offsets, factors, scale) -> list[MultiPoly]:
    """Row r of `poly.affine_products` as a chain of `MultiPoly.__mul__` from the constant 1.

    Forms j = factors[r, t] >= 0 are multiplied in order, then the product is
    scaled by scale[r].
    """
    normals = np.asarray(normals, dtype=float)
    out = []
    for row, factor in zip(np.asarray(factors).tolist(), np.asarray(scale, dtype=float).tolist()):
        poly = MultiPoly.constant(normals.shape[1], 1.0)
        for j in row:
            if j >= 0:
                poly = poly * MultiPoly.affine(normals[j], offsets[j])
        out.append(poly.scale(factor))
    return out


def chained_pk(family, k_indices, upto=None, homogeneous=False, direction=None) -> MultiPoly:
    """P_K over the first `upto` planes by the chain of `MultiPoly.__mul__`, one plane at a time."""
    upto = family.count if upto is None else upto
    if direction is None:
        direction = family.direction(k_indices)
    direction = np.asarray(direction, dtype=float)
    normals, offsets = family.normal_matrix(), family.offsets()
    planes = [j for j in range(upto) if j not in k_indices]
    poly = MultiPoly.constant(family.dimension, 1.0)
    denominator = 1.0
    for j in planes:
        poly = poly * MultiPoly.affine(normals[j], 0.0 if homogeneous else offsets[j])
        denominator *= float(direction @ normals[j])
    return poly.scale(1.0 / denominator)


def pointwise_newton_identity(family, phi: SymmetricForm, x, lattice=None) -> Decomposition:
    """The staged decomposition at one point, term by term."""
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
    for subset, fx in interpolant.values.items():
        theta = interpolant.lattice.vertex(subset)
        factor = fx
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
                         interpolant_value=taylor(f, np.zeros(n_dim), d - n_dim).evaluate(x),
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
