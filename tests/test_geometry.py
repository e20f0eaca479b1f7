import inspect
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cylattice import (
    ChungYaoLattice,
    HyperplaneFamily,
    check_general_position,
    deboor_identity_residual,
    direction_vector,
    random_family,
)
from cylattice import ExpAffine, cardinal_table, cli, geometry, interpolate
from cylattice.convergence import observed_delta
from cylattice.errors import ConsistencyError, DegenerateSubsetError, GeneralPositionError
from cylattice.geometry import PlaneError, unit_planes

from helpers import (
    Hyperplane,
    assert_family_equals_planes,
    direction_vector_per_minor,
    general_position_per_subset,
    index_tables_per_family,
    pairwise_dets,
    plane_arrays,
    solve_vertex,
    spread_family,
    unit_planes_per_row,
)

UNIT_TRIANGLE = [
    Hyperplane([1.0, 0.0], 0.0),
    Hyperplane([0.0, 1.0], 0.0),
    Hyperplane([1.0, 1.0], 1.0),
]


def test_hyperplane_normalizes_input():
    normals, offsets = unit_planes([[3.0, 4.0]], [10.0])
    assert np.linalg.norm(normals[0]) == pytest.approx(1.0, abs=1e-15)
    assert offsets[0] == pytest.approx(2.0)
    # same zero set: value at a point on the plane is still zero
    assert np.array([2.0, 1.0]) @ normals[0] - offsets[0] == pytest.approx(0.0, abs=1e-15)
    assert not normals.flags.writeable and not offsets.flags.writeable


def test_hyperplane_rejects_zero_normal():
    with pytest.raises(PlaneError, match="must be nonzero") as exc:
        unit_planes([[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0])
    assert exc.value.row == 1 and isinstance(exc.value, ValueError)


# Planes that `unit_planes` rejects, each also a row of the oracle property test below.
NOT_FINITE = [
    ([math.nan, 1.0], 0.0),
    ([1.0, 0.0], math.nan),
    ([math.inf, 0.0], 0.0),
    ([1.0, 1.0], -math.inf),
    ([0.0, 0.0], math.inf),
    ([1e300, 1e300], 0.0),   # the norm overflows
    ([1e-10, 0.0], 1e300),   # the normalized offset overflows
]


@pytest.mark.parametrize("normal, offset", NOT_FINITE)
def test_hyperplane_rejects_a_plane_that_is_not_finite(normal, offset):
    with pytest.raises(PlaneError, match="must be finite when normalized") as exc:
        unit_planes([[0.0, 1.0], normal], [0.0, offset])
    assert exc.value.row == 1


# Rows put into the drawn families of the property test: the cases above, a
# zero normal, one too small to normalize, and one that is normalized.
PLANE_CASES = NOT_FINITE + [([0.0, 0.0], 1.0), ([1e-15, 0.0], 1.0), ([3.0, 4.0], 10.0)]


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), n_dim=st.integers(1, 8), extra=st.integers(0, 4),
       cases=st.lists(st.tuples(st.integers(0, 11), st.integers(0, len(PLANE_CASES) - 1)),
                      max_size=2))
@example(seed=0, n_dim=2, extra=1, cases=[(1, 0)])
@example(seed=1, n_dim=2, extra=1, cases=[(1, 1)])
@example(seed=2, n_dim=2, extra=1, cases=[(1, 2)])
@example(seed=3, n_dim=2, extra=1, cases=[(1, 3)])
@example(seed=4, n_dim=2, extra=1, cases=[(1, 4)])
@example(seed=5, n_dim=2, extra=1, cases=[(1, 5)])
@example(seed=6, n_dim=2, extra=1, cases=[(1, 6)])
@example(seed=7, n_dim=2, extra=1, cases=[(1, 7)])
@example(seed=8, n_dim=2, extra=1, cases=[(2, 8), (0, 9)])
@example(seed=9, n_dim=2, extra=1, cases=[(0, 9)])
@example(seed=10, n_dim=8, extra=4, cases=[])
def test_unit_planes_equal_the_per_plane_oracle(seed, n_dim, extra, cases):
    # Normals of norm 1e-3..1e3, some rows already unit; PLANE_CASES rows are
    # padded with zeros to N entries (N = 1 keeps the first).
    rng = np.random.default_rng(seed)
    count = n_dim + extra
    normals = rng.standard_normal((count, n_dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
    unit = rng.uniform(size=count) < 0.3
    normals[unit] /= np.linalg.norm(normals[unit], axis=1)[:, None]
    offsets = rng.uniform(-1.0, 1.0, count)
    for row, k in cases:
        if row < count:
            normal, offsets[row] = PLANE_CASES[k]
            normals[row] = np.pad(normal, (0, max(0, n_dim - 2)))[:n_dim]
    want = unit_planes_per_row(normals, offsets)
    if isinstance(want[0], int):  # the first rejected row and its message
        for build in (unit_planes, check_general_position, HyperplaneFamily):
            with pytest.raises(PlaneError) as exc:
                build(normals, offsets)
            assert (exc.value.row, str(exc.value)) == want
        return
    got = unit_planes(normals, offsets)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    assert not any(a.flags.writeable for a in got)
    planes = [Hyperplane(n, c) for n, c in zip(normals, offsets)]
    report = check_general_position(normals, offsets)
    assert report.normals.tobytes() == want[0].tobytes()
    _assert_report_equals_oracle(report, planes)


@pytest.mark.parametrize("shape", [(1, 3), (2, 5), (3, 6), (4, 9)])
def test_family_arrays_equal_the_per_plane_build(shape):
    # Non-unit normals, so every plane is normalized on the way in.
    n_dim, count = shape
    rng = np.random.default_rng([43, n_dim, count])
    normals = 3.0 * rng.standard_normal((count, n_dim))
    offsets = rng.uniform(-1.0, 1.0, count)
    planes = [Hyperplane(n, c) for n, c in zip(normals, offsets)]
    for family in (HyperplaneFamily(normals, offsets),
                   HyperplaneFamily(normals.tolist(), offsets.tolist()),
                   HyperplaneFamily.from_arrays(normals, offsets)):
        assert_family_equals_planes(family, planes)
        assert not family.normal_matrix().flags.writeable
        assert not family.offsets().flags.writeable
        assert not hasattr(family, "hyperplanes")
    assert np.array_equal(normals, 3.0 * np.random.default_rng([43, n_dim, count])
                          .standard_normal((count, n_dim)))  # the input is not written


def test_general_position_unit_triangle():
    report = check_general_position(*plane_arrays(UNIT_TRIANGLE))
    assert report.accepted
    # oracle: enumerate the three pair determinants directly
    dets = pairwise_dets([h.normal for h in UNIT_TRIANGLE])
    assert sorted(dets) == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2), 1.0])
    assert report.min_det == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_general_position_rejects_common_point():
    # three distinct lines through the origin: vertex map is constant
    planes = [
        Hyperplane([1.0, 0.0], 0.0),
        Hyperplane([0.0, 1.0], 0.0),
        Hyperplane([1.0, 1.0], 0.0),
    ]
    report = check_general_position(*plane_arrays(planes))
    assert not report.accepted
    assert report.colliding_pair is not None
    _assert_report_equals_oracle(report, planes)
    with pytest.raises(GeneralPositionError):
        HyperplaneFamily(*plane_arrays(planes))


def test_general_position_rejects_parallel_pair():
    planes = [
        Hyperplane([1.0, 0.0], 0.0),
        Hyperplane([1.0, 0.0], 1.0),
        Hyperplane([0.0, 1.0], 0.0),
    ]
    report = check_general_position(*plane_arrays(planes))
    assert not report.accepted
    assert report.degenerate_subset == (0, 1)
    _assert_report_equals_oracle(report, planes)


def test_solve_vertex_examples():
    assert solve_vertex(UNIT_TRIANGLE[:2]) == pytest.approx([0.0, 0.0])
    assert solve_vertex([UNIT_TRIANGLE[0], UNIT_TRIANGLE[2]]) == pytest.approx([0.0, 1.0])
    assert solve_vertex([UNIT_TRIANGLE[1], UNIT_TRIANGLE[2]]) == pytest.approx([1.0, 0.0])


def test_solve_vertex_residual_contract():
    rng = np.random.default_rng(5)
    for _ in range(50):
        normals = rng.standard_normal((3, 3))
        planes = [Hyperplane(n, c) for n, c in zip(normals, rng.uniform(-2, 2, 3))]
        try:
            theta = solve_vertex(planes)
        except DegenerateSubsetError:
            continue
        residual = max(abs(theta @ h.normal - h.offset) for h in planes)
        assert residual <= 1e-10 * (1.0 + np.linalg.norm(theta))


def test_solve_vertex_near_singular_raises():
    planes = [Hyperplane([1.0, 0.0], 0.0), Hyperplane([1.0, 1e-12], 1.0)]
    with pytest.raises(DegenerateSubsetError):
        solve_vertex(planes)


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def _assert_report_equals_oracle(report, planes, **tolerances):
    """Every report field and vertex equals the per-subset loop's, bit for bit."""
    want, pts = general_position_per_subset(planes, **tolerances)
    for name, value in want.items():
        assert _same(getattr(report, name), value), name
    if pts is None or not want["accepted"]:
        assert report.vertices is None
    else:
        assert np.array_equal(report.vertices, pts)
    return want, pts


@pytest.mark.parametrize("shape", [(2, 3), (3, 6), (4, 10), (5, 12)])
def test_vertex_table_equals_per_subset_oracle(shape, monkeypatch):
    n_dim, count = shape
    rng = np.random.default_rng([41, n_dim, count])
    normals = rng.standard_normal((count, n_dim))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    planes = [Hyperplane(n, c) for n, c in zip(normals, rng.uniform(0.2, 1.0, count))]
    family = HyperplaneFamily(*plane_arrays(planes))
    want, pts = _assert_report_equals_oracle(family.report, planes)
    assert want["accepted"]
    for subset, theta in zip(combinations(range(count), n_dim), pts):
        assert np.array_equal(solve_vertex([planes[i] for i in subset]), theta)

    # The lattice reads the family's table: no solve, and no copy of a vertex.
    solves = []
    real_solve = np.linalg.solve
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", lambda *a, **k: solves.append(a) or real_solve(*a, **k))
        lattice = ChungYaoLattice(family)
        lines = lattice.line_subsets()
    assert solves == []
    assert lattice.vertex_array() is family.report.vertices
    assert lattice.vertices is family.report.vertices
    assert np.array_equal(lattice.vertex_array(), pts)
    for subset, theta in zip(combinations(range(count), n_dim), pts):
        assert np.shares_memory(lattice.vertex(subset[::-1]), family.report.vertices)
        assert np.array_equal(lattice.vertex(subset[::-1]), theta)
    assert lattice.diameter() == want["diameter"]

    # One read-only line table per lattice.
    assert lattice.line_subsets() is lines
    for table in (lines.directions, lines.completing, lines.points):
        assert not table.flags.writeable
    with pytest.raises(ValueError):
        lines.points[0, 0, 0] = 1.0
    assert len(lines) == math.comb(count, n_dim - 1)

    # A fault-injected copy rebuilds its lines from its displaced vertex.
    broken = cli._inject_vertex_fault(lattice, 1e-3)
    with pytest.raises(ConsistencyError):
        broken.line_subsets()
    assert lattice.line_subsets() is lines


def test_fault_injected_copy_leaves_the_original_tables():
    # The copy shares nothing it rebuilds: a table memoized on the original
    # and reached through the copy would let a fault-injected run pass.
    lattice = ChungYaoLattice(random_family(np.random.default_rng(7), 3, 6))
    f = ExpAffine(np.ones(3))
    vertices, lines = lattice.vertex_array(), lattice.line_subsets()
    interpolate(lattice, f)
    cardinals = cardinal_table(lattice)
    tables = (vertices, lines.directions, lines.completing, lines.points, cardinals.coeffs)
    saved = [table.copy() for table in tables]

    broken = cli._inject_vertex_fault(lattice, 1e-3 * (1.0 + lattice.diameter()))
    with pytest.raises(ConsistencyError):
        broken.line_subsets()
    # interpolation_match in `cy verify` fails above 1e-9.
    assert interpolate(broken, f).vertex_residual() > 1e-9
    assert cardinal_table(broken) is not cardinals

    assert lattice.vertex_array() is vertices
    assert lattice.line_subsets() is lines
    assert cardinal_table(lattice) is cardinals
    assert all(np.array_equal(table, copy) for table, copy in zip(tables, saved))
    assert interpolate(lattice, f).vertex_residual() <= 1e-9


def test_family_input_is_checked_before_the_subset_scan():
    with pytest.raises(ValueError, match="at least one hyperplane"):
        check_general_position([], [])
    with pytest.raises(ValueError, match="at least one hyperplane"):
        HyperplaneFamily(np.empty((0, 2)), np.empty(0))
    planes = [Hyperplane(e, 0.0) for e in np.eye(geometry.MAX_DIMENSION + 1)]
    for check in (check_general_position, HyperplaneFamily):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            check(*plane_arrays(planes))
    for normals, offsets in (([1.0, 0.0], [0.0, 1.0]), ([[1.0], [2.0]], [0.0]),
                             ([[[1.0]]], [0.0])):
        with pytest.raises(ValueError, match=r"need \(d, N\) normals and \(d,\) offsets"):
            HyperplaneFamily(normals, offsets)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(1, 5), extra=st.integers(0, 4))
def test_line_table_rows_equal_per_line_oracle(seed, n_dim, extra):
    count = n_dim + extra
    family = random_family(np.random.default_rng(seed), n_dim, count)
    lattice = ChungYaoLattice(family)
    lines = lattice.line_subsets()
    normals = family.normal_matrix()
    assert isinstance(lines.indices, tuple)
    for table in (lines.directions, lines.completing, lines.points):
        assert not table.flags.writeable
    assert lines.completing is family.completing_planes()
    assert len(lines) == math.comb(count, n_dim - 1)
    for r, k in enumerate(combinations(range(count), n_dim - 1)):
        assert lines.indices[r] == k
        # The one minor of N = 1 is the empty determinant, 1.
        want = direction_vector_per_minor(normals[list(k)]) if k else np.ones(1)
        assert np.array_equal(lines.directions[r], want)
        assert np.shares_memory(family.direction(k), lines.directions[r])
        completing = [i for i in range(count) if i not in k]
        assert lines.completing[r].tolist() == completing
        for j, i in enumerate(completing):
            assert np.array_equal(lines.points[r, j], lattice.vertex(k + (i,)))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(2, 5), extra=st.integers(0, 7),
       block=st.sampled_from([1, 97, geometry._GAP_BLOCK]))
def test_gap_scan_equals_per_pair_oracle(seed, n_dim, extra, block):
    # Blocks of one row up to the default size: the screen may not depend on them.
    rng = np.random.default_rng(seed)
    count = min(n_dim + extra, 12)
    normals = rng.standard_normal((count, n_dim))
    planes = [Hyperplane(n, c) for n, c in zip(normals, rng.uniform(0.2, 1.0, count))]
    with mock.patch.object(geometry, "_GAP_BLOCK", block):
        _assert_report_equals_oracle(check_general_position(*plane_arrays(planes)), planes)


def _simplex_planes(n_dim):
    """sum(x) = 1 first, then the coordinate planes: vertices 0 and e_i, exactly."""
    return [Hyperplane(np.ones(n_dim), 1.0)] + [Hyperplane(e, 0.0) for e in np.eye(n_dim)]


@pytest.mark.parametrize("block", [1, geometry._GAP_BLOCK])
@pytest.mark.parametrize("n_dim", [2, 3, 5])
def test_gap_scan_constructed_cases(n_dim, block):
    with mock.patch.object(geometry, "_GAP_BLOCK", block):
        # N pairs (e_i, 0) tie exactly at gap 1 and C(N, 2) pairs at the diameter
        # sqrt(2); a dedup tolerance above 1/sqrt(2) rejects on the first tie.
        planes = _simplex_planes(n_dim)
        pts = general_position_per_subset(planes)[1]
        gaps = [np.linalg.norm(a - b) for a, b in combinations(pts, 2)]
        assert gaps.count(1.0) == n_dim and gaps.count(math.sqrt(2.0)) == math.comb(n_dim, 2)
        report = check_general_position(*plane_arrays(planes), dedup_tolerance=0.75)
        want, _ = _assert_report_equals_oracle(report, planes, dedup_tolerance=0.75)
        assert want["colliding_pair"] == (tuple(range(n_dim)), tuple(range(1, n_dim + 1)))
        _assert_report_equals_oracle(check_general_position(*plane_arrays(planes)), planes)

        # Every plane through one point: all vertices coincide up to rounding.
        rng = np.random.default_rng(n_dim)
        point = rng.uniform(-1.0, 1.0, n_dim)
        normals = rng.standard_normal((n_dim + 3, n_dim))
        planes = [Hyperplane(n, n @ point) for n in normals]
        report = check_general_position(*plane_arrays(planes))
        assert not report.accepted and report.colliding_pair is not None
        _assert_report_equals_oracle(report, planes)

        # d = N: one vertex and no pair.
        report = check_general_position(*plane_arrays(planes[:n_dim]))
        assert report.accepted and report.colliding_pair is None
        assert report.min_vertex_gap == math.inf and report.diameter == 0.0
        _assert_report_equals_oracle(report, planes[:n_dim])


@pytest.mark.parametrize("shape", [(2, 5), (3, 7), (4, 9)])
def test_line_subsets_make_one_stacked_direction_call(shape, monkeypatch):
    n_dim, count = shape
    family = random_family(np.random.default_rng(count), n_dim, count)
    calls = []
    real = geometry.direction_vector
    monkeypatch.setattr(geometry, "direction_vector",
                        lambda normals: calls.append(np.shape(normals)) or real(normals))
    lattice = ChungYaoLattice(family)
    lines = lattice.line_subsets()
    assert calls == [(math.comb(count, n_dim - 1), n_dim - 1, n_dim)]
    for k, n_k in zip(lines.indices, lines.directions):
        assert np.shares_memory(family.direction(k), family.line_directions())
        assert not family.direction(k).flags.writeable
        assert np.shares_memory(family.direction(k), n_k)
        assert np.array_equal(n_k, direction_vector_per_minor(family.normal_matrix()[list(k)]))
    assert ChungYaoLattice(family).line_subsets().directions is lines.directions
    assert len(calls) == 1
    assert observed_delta(lattice) > 0.0


def test_direction_vector_stacked_equals_per_minor_oracle():
    rng = np.random.default_rng(19)
    for n_dim in range(2, 7):
        stack = rng.standard_normal((20, n_dim - 1, n_dim))
        rows = direction_vector(stack)
        assert rows.shape == (20, n_dim) and rows.flags.c_contiguous
        for normals, row in zip(stack, rows):
            assert np.array_equal(row, direction_vector_per_minor(normals))
            assert np.array_equal(row, direction_vector(normals))
        # A repeated normal, or for N = 2 a zero one, makes row 7 dependent.
        stack[7, -1] = stack[7, 0] if n_dim > 2 else 0.0
        with pytest.raises(DegenerateSubsetError):
            direction_vector(stack)
    assert np.array_equal(direction_vector(np.empty((3, 0, 1))), np.ones((3, 1)))
    with pytest.raises(ValueError, match="N-1"):
        direction_vector(rng.standard_normal((4, 3, 3)))


def test_direction_vector_planar_cases():
    assert direction_vector([np.array([1.0, 0.0])]) == pytest.approx([0.0, -1.0])
    assert direction_vector([np.array([0.0, 1.0])]) == pytest.approx([1.0, 0.0])


def test_direction_vector_three_dimensional():
    # cofactor expansion of det(v, e1, e2) gives v3, hence n_K = e3
    n_k = direction_vector([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    assert n_k == pytest.approx([0.0, 0.0, 1.0])


def test_direction_vector_dependent_normals_raise():
    with pytest.raises(DegenerateSubsetError):
        direction_vector([np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])])


def test_direction_vector_equals_per_minor_oracle():
    rng = np.random.default_rng(17)
    for n_dim in range(2, 7):
        for _ in range(100):
            normals = list(rng.standard_normal((n_dim - 1, n_dim)))
            assert np.array_equal(direction_vector(normals), direction_vector_per_minor(normals))
    with pytest.raises(ValueError, match="N-1"):
        direction_vector(list(rng.standard_normal((3, 3))))


def test_direction_vector_properties():
    rng = np.random.default_rng(11)
    for n_dim in (2, 3):
        for d in (n_dim, n_dim + 2):
            family = spread_family(rng, n_dim, d)
            lattice = ChungYaoLattice(family)
            lines = lattice.line_subsets()
            for k, n_k in zip(lines.indices, lines.directions):
                norm = np.linalg.norm(n_k)
                assert 0.0 < norm <= 1.0 + 1e-14
                for i in k:
                    inner = abs(family.normal_matrix()[i] @ n_k)
                    assert inner <= 1e-12
            # distinct subsets give distinct directions
            directions = lines.directions
            for a in range(len(lines)):
                for b in range(a + 1, len(lines)):
                    assert np.linalg.norm(directions[a] - directions[b]) > 1e-8


def test_vertex_count_matches_binomial():
    rng = np.random.default_rng(3)
    for n_dim, d in [(2, 5), (3, 6), (1, 4)]:
        family = spread_family(rng, n_dim, d)
        lattice = ChungYaoLattice(family)
        assert len(lattice.vertices) == math.comb(d, n_dim)
        # equals dim P^{d-N}(R^N)
        assert math.comb(d, n_dim) == math.comb(n_dim + (d - n_dim), n_dim)


def test_deboor_identity_at_vertex_and_fixed_point():
    family = HyperplaneFamily(*plane_arrays(UNIT_TRIANGLE))
    lattice = ChungYaoLattice(family)
    theta = lattice.vertex((0, 1))
    assert deboor_identity_residual(lattice, (0, 1), theta) <= 1e-15
    assert deboor_identity_residual(lattice, (0, 1), np.array([1.0, 1.0])) <= 1e-12


def test_deboor_identity_names_a_subset_that_is_no_vertex():
    lattice = ChungYaoLattice(HyperplaneFamily(*plane_arrays(UNIT_TRIANGLE)))
    x = np.array([0.3, 0.2])
    assert deboor_identity_residual(lattice, (2, 1), x) == \
        deboor_identity_residual(lattice, (1, 2), x)
    for subset in ((0, 0), (1, 3), (-1, 2), [(0, 1), (0, 5)]):
        with pytest.raises(KeyError):
            deboor_identity_residual(lattice, subset, x)


def test_deboor_identity_random_sweep():
    rng = np.random.default_rng(17)
    for n_dim in (2, 3):
        family = spread_family(rng, n_dim, n_dim + 3)
        lattice = ChungYaoLattice(family)
        xs = rng.uniform(-10.0, 10.0, size=(100, n_dim))
        for subset in combinations(range(family.count), n_dim):
            assert deboor_identity_residual(lattice, subset, xs) <= 1e-10


def test_line_subsets_counts_and_collinearity():
    rng = np.random.default_rng(23)
    # d = N: every line subset carries exactly one point
    family = spread_family(rng, 2, 2)
    lines = ChungYaoLattice(family).line_subsets()
    assert lines.points.shape[:2] == (len(lines), 1)

    # unit triangle: 3 line subsets with 2 points each
    lines = ChungYaoLattice(HyperplaneFamily(*plane_arrays(UNIT_TRIANGLE))).line_subsets()
    assert len(lines) == 3
    assert lines.points.shape[:2] == (3, 2)

    # N=2, d=4: 4 subsets of 3 collinear points
    family = spread_family(rng, 2, 4)
    lines = ChungYaoLattice(family).line_subsets()
    assert len(lines) == 4
    assert lines.points.shape[:2] == (4, 3)
    for k, points in zip(lines.indices, lines.points):
        for i in k:
            values = points @ family.normal_matrix()[i] - family.offsets()[i]
            assert np.max(np.abs(values)) <= 1e-10


def test_sign_flip_leaves_vertices_unchanged():
    rng = np.random.default_rng(29)
    family = spread_family(rng, 2, 4)
    lattice = ChungYaoLattice(family)
    sign = np.array([1.0, -1.0, 1.0, 1.0])
    flipped = ChungYaoLattice(HyperplaneFamily(
        sign[:, None] * family.normal_matrix(), sign * family.offsets()))
    for subset, theta in zip(combinations(range(4), 2), lattice.vertices):
        assert np.max(np.abs(flipped.vertex(subset) - theta)) <= 1e-12


def test_random_family_is_seeded_and_valid():
    fam1 = random_family(np.random.default_rng(99), 2, 4)
    fam2 = random_family(np.random.default_rng(99), 2, 4)
    assert np.allclose(fam1.normal_matrix(), fam2.normal_matrix())
    assert fam1.report.accepted
    assert np.all(fam1.offsets() >= 0.2) and np.all(fam1.offsets() <= 1.0)


def test_one_dimensional_family():
    # points on the line as degree d-1 lattice
    planes = [Hyperplane([1.0], 0.3), Hyperplane([-1.0], -0.7), Hyperplane([1.0], 1.5)]
    family = HyperplaneFamily(*plane_arrays(planes))
    lattice = ChungYaoLattice(family)
    values = sorted(v[0] for v in lattice.vertex_array())
    assert values == pytest.approx([0.3, 0.7, 1.5])
    lines = lattice.line_subsets()
    assert len(lines) == 1 and lines.points.shape[1] == 3
    assert lines.directions[0] == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# The index tables shared per shape (d, N)
# ---------------------------------------------------------------------------

SHAPES = st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 12)))


@settings(max_examples=60)
@given(SHAPES)
@example((1, 1))
@example((1, 12))
@example((6, 6))
@example((6, 12))
def test_index_tables_equal_the_per_family_enumeration(shape):
    n_dim, count = shape
    old = index_tables_per_family(count, n_dim)
    for key, k in (("vertices", n_dim), ("lines", n_dim - 1)):
        table = geometry.subset_index(count, k)
        assert table.subsets == tuple(old[key][0])
        assert table.array.dtype == old[key][1].dtype
        assert np.array_equal(table.array, old[key][1]) and table.array.shape == old[key][1].shape
    lines = geometry.subset_index(count, n_dim - 1)
    assert dict(lines.rank) == old["line_rank"]
    assert np.array_equal(lines.outside, old["completing"])
    assert np.array_equal(geometry.line_points(count, n_dim), old["line_points"])
    assert np.array_equal(geometry.subset_index(count, n_dim).outside, old["cardinal"])
    for upto in range(n_dim - 1, count + 1):
        terms, _, factors = old["pk", upto]
        assert geometry.subset_index(upto, n_dim - 1).subsets == tuple(terms)
        assert np.array_equal(geometry.subset_index(upto, n_dim - 1).outside, factors)
    terms, rows, steps = geometry.newton_index(count, n_dim)
    assert (list(terms), [k for _, k in terms], rows.tolist()) == old["newton"][:3]
    assert steps.tolist() == [stage - n_dim for stage, _ in terms] and steps.dtype == np.intp
    # The factors of term (i, K) are the first i - N completing planes of K,
    # and plane i - 1, when i <= d, is completing plane i - N: the vertex row
    # of K + {i - 1} is entry (K, i - N) of line_points.
    prefixes = np.where(np.arange(count - n_dim + 1) < steps[:, None], lines.outside[rows], -1)
    assert np.array_equal(prefixes, old["newton"][3])
    inner = steps < count - n_dim + 1
    assert geometry.line_points(count, n_dim)[rows[inner], steps[inner]].tolist() == [
        math.comb(count, n_dim) - 1 - sum(math.comb(count - 1 - h, n_dim - p)
                                          for p, h in enumerate(k + (stage - 1,)))
        for stage, k in np.array(terms, dtype=object)[inner].tolist()]
    vertices = geometry.subset_index(count, n_dim).array
    assert np.array_equal(geometry.subset_rows(count, vertices), np.arange(len(vertices)))
    for p in range(n_dim):  # the line row of H without H[p]
        assert np.array_equal(geometry.subset_rows(count, np.delete(vertices, p, axis=1)),
                              old["vertex_lines"][:, p])
    # N = 1: a single line, the empty subset, through every vertex.
    if n_dim == 1:
        assert lines.subsets == ((),) and lines.array.shape == (1, 0)


def test_index_tables_are_read_only():
    subsets = geometry.subset_index(7, 3)
    arrays = [subsets.array, subsets.outside, geometry.line_points(7, 3),
              *geometry.newton_index(7, 3)[1:]]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(TypeError):
        subsets.rank[(0, 1, 2)] = 5
    with pytest.raises(AttributeError):
        subsets.rank = {}
    assert subsets.rank[(0, 1, 2)] == 0 and isinstance(subsets.subsets, tuple)
    family = random_family(np.random.default_rng(3), 3, 7)
    lattice = ChungYaoLattice(family)
    for array in (family.report.subsets, family.normal_matrix(), family.offsets(),
                  family.completing_planes(), lattice.line_subsets().points):
        assert not array.flags.writeable


def test_families_of_one_shape_share_their_index_tables():
    rng = np.random.default_rng(5)
    first, second = (ChungYaoLattice(random_family(rng, 3, 7)) for _ in range(2))
    other = ChungYaoLattice(random_family(rng, 3, 8))
    shared = [lambda lat: lat.family.report.subsets, lambda lat: lat.family.completing_planes(),
              lambda lat: lat.line_subsets().indices, lambda lat: lat.line_subsets().completing]
    for table in shared:
        assert table(first) is table(second)
        assert table(first) is not table(other)
    assert not np.shares_memory(first.line_subsets().points, second.line_subsets().points)
    assert first.family.line_directions() is not second.family.line_directions()


def test_the_shared_caches_are_keyed_on_integers_only():
    # Nothing derived from normals, offsets or a family object is memoized:
    # every cache in the module takes integer arguments alone.
    caches = [f for f in vars(geometry).values() if callable(getattr(f, "cache_info", None))]
    assert {f.__name__ for f in caches} == {"subset_index", "line_points", "newton_index"}
    for f in caches:
        assert {p.annotation for p in inspect.signature(f).parameters.values()} == {"int"}
