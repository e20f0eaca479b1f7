import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylattice import (
    ChungYaoLattice,
    ConditionReport,
    CosAffine,
    ExpAffine,
    HyperplaneFamily,
    LinearCombination,
    LatticeSequence,
    MultiPoly,
    PolynomialFunction,
    Product,
    SinAffine,
    affine_criterion,
    affine_sequence,
    ball_grid,
    bound_evaluator,
    convergence_experiment,
    derivative_norm_estimate,
    fit_loglog_slope,
    observed_delta,
    random_family,
    transform_family,
    triangle_family_from_points,
    unit_triangle_family,
)

from cylattice.config import compile_matrix, compile_vector
from cylattice.chungyao import pk_table
from cylattice.convergence import _ball_grid_size, check_pk_bound
from cylattice.errors import ConditioningError, ConfigError, DegenerateSubsetError
from cylattice.poly import multi_indices
from helpers import (Hyperplane, _dense, affine_image_planes, assert_family_equals_planes,
                     ball_grid_mesh, bundled_config, check_conditions, derivative_norm_per_point,
                     random_poly_coeffs, spread_family, triangle_planes)

S_SHORT = (2, 4, 8, 16, 32, 64)
S_FULL = (2, 4, 8, 16, 32, 64, 128, 256)


def test_triangle_family_from_points_recovers_vertices():
    pts = np.array([[0.1, 0.2], [1.3, -0.4], [-0.5, 0.9]])
    lattice = ChungYaoLattice(triangle_family_from_points(pts))
    recovered = sorted(map(tuple, np.round(lattice.vertex_array(), 10)))
    expected = sorted(map(tuple, np.round(pts, 10)))
    assert np.allclose(recovered, expected)


def test_transform_family_matches_reported_lattice():
    # diag(t^2, -t^2 u) x + (t, t) sends the unit triangle to
    # {(t, t), (t^2 + t, t), (t, -t^2 u + t)}
    t = 0.25
    u = 1.0 + t
    base = unit_triangle_family()
    mat = np.array([[t * t, 0.0], [0.0, -t * t * u]])
    b = np.array([t, t])
    lattice = ChungYaoLattice(transform_family(base, mat, b))
    got = sorted(map(tuple, np.round(lattice.vertex_array(), 12)))
    expected = sorted(map(tuple, np.round(
        [[t, t], [t * t + t, t], [t, -t * t * u + t]], 12)))
    assert np.allclose(got, expected)


def test_transform_family_rejects_singular_matrix():
    base = unit_triangle_family()
    with pytest.raises(DegenerateSubsetError):
        transform_family(base, np.zeros((2, 2)), np.zeros(2))


def test_vanishing_normals_are_degenerate_subsets():
    # diag(1e300, 1) is far from singular, but the image of x1 = 0 has the
    # normal (1e-300, 0), too small to normalize.
    with pytest.raises(DegenerateSubsetError,
                       match="the affine image of plane 0 has a vanishing normal"):
        transform_family(unit_triangle_family(), np.diag([1e300, 1.0]), np.zeros(2))
    with pytest.raises(DegenerateSubsetError,
                       match="the line through points 0 and 2 has a vanishing normal"):
        triangle_family_from_points([[0.1, 0.2], [1.0, 0.0], [0.1, 0.2]])


@pytest.mark.parametrize("matrix, offset", [
    (np.diag([2.0 ** -990, 1e3]), [1e304, 0.0]),   # L^{-1} b overflows: offset inf
    (np.diag([1e-310, 1e20]), [0.0, 0.0]),         # L^{-T} n overflows: normal (inf, 0)
])
def test_an_affine_image_that_is_not_finite_is_a_conditioning_error(matrix, offset):
    with pytest.raises(ConditioningError, match="the affine image of plane 0 is not finite"):
        transform_family(unit_triangle_family(), matrix, offset)
    with pytest.raises(ConditioningError, match="the line through points 0 and 2 is not finite"):
        triangle_family_from_points([[math.nan, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("n_dim, count", [(2, 4), (3, 5)])
def test_affine_images_and_triangles_equal_the_per_plane_build(n_dim, count):
    rng = np.random.default_rng([331, n_dim])
    base = spread_family(rng, n_dim, count)
    planes = [Hyperplane(n, c) for n, c in zip(base.normal_matrix(), base.offsets())]
    for _ in range(10):
        mat = np.eye(n_dim) + 0.3 * rng.standard_normal((n_dim, n_dim))
        b = rng.standard_normal(n_dim)
        assert_family_equals_planes(transform_family(base, mat, b),
                                    affine_image_planes(planes, mat, b))
        points = rng.standard_normal((3, 2))
        assert_family_equals_planes(triangle_family_from_points(points), triangle_planes(points))


def test_convergence_experiment_records_a_degenerate_later_row():
    # diag(t e^(1/t), t): the image normal of x1 = 0 falls below 1e-14 by s = 64.
    seq = affine_sequence(unit_triangle_family(),
                          lambda t: np.diag([t * math.exp(1.0 / t), t]),
                          lambda t: np.array([t, t]))
    report = convergence_experiment(seq, ExpAffine([0.3, 0.2]), s_values=(2, 4, 64))
    assert [row.valid for row in report.rows] == [True, True, False]
    assert report.rows[-1].error == "the affine image of plane 0 has a vanishing normal"


def test_a_template_error_at_a_later_s_aborts_the_sweep():
    seq = affine_sequence(unit_triangle_family(),
                          compile_matrix([["1/(t-0.125)", "0"], ["0", "t"]]),
                          compile_vector(["t", "t"]))
    for sweep in (lambda: check_conditions(seq, (2, 4, 8)),
                  lambda: convergence_experiment(seq, ExpAffine([0.3, 0.2]), s_values=(2, 4, 8))):
        with pytest.raises(ConfigError, match=r"'1/\(t-0.125\)' has no finite real value"):
            sweep()


def test_conditions_affine_triangle():
    report = check_conditions(bundled_config("affine_triangle").sequence(), S_FULL)
    assert report.c1_pass and report.c2_pass and report.c3_pass
    # the minimal volume tends to sin(pi/4): the right angle stays, the
    # other two angles tend to pi/4
    last = report.rows[-1]
    assert last.s == 256
    assert abs(last.c2_volume - math.sin(math.pi / 4)) <= 0.02


def test_conditions_degenerate_family():
    report = check_conditions(bundled_config("degenerate_eps1").sequence(), S_FULL)
    assert report.c1_pass
    assert not report.c2_pass
    vols = [r.c2_volume for r in report.rows]
    assert vols[-1] < 0.01 * vols[0]  # C2 statistic collapses


def test_conditions_fixed_family():
    rng = np.random.default_rng(301)
    family = spread_family(rng, 2, 4)
    seq = LatticeSequence(generator=lambda s: family, label="fixed")
    report = check_conditions(seq, S_SHORT)
    assert report.c2_pass
    assert not report.c1_pass
    assert len({round(r.c2_volume, 14) for r in report.rows}) == 1


def test_conditions_report_degenerate_rows_nonfatal():
    def generator(s):
        if s == 8:
            return triangle_family_from_points([[0, 0], [1, 0], [2, 0]])
        return unit_triangle_family()

    report = check_conditions(LatticeSequence(generator=generator), (2, 4, 8, 16))
    bad = [r for r in report.rows if not r.valid]
    assert len(bad) == 1 and bad[0].s == 8


def test_c2_statistic_is_sign_invariant():
    rng = np.random.default_rng(307)
    family = spread_family(rng, 2, 4)
    sign = np.array([1.0, 1.0, -1.0, 1.0])
    family2 = HyperplaneFamily(sign[:, None] * family.normal_matrix(), sign * family.offsets())
    assert family.report.min_det == pytest.approx(family2.report.min_det, abs=1e-14)


def test_planar_volume_equals_sine_of_angle():
    rng = np.random.default_rng(311)
    for _ in range(20):
        a, b = rng.standard_normal((2, 2))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        det = abs(float(np.linalg.det(np.stack([a, b]))))
        angle = math.acos(max(-1.0, min(1.0, float(a @ b))))
        assert det == pytest.approx(math.sin(angle), abs=1e-12)


def test_equivalence_probe_on_triangle():
    report = check_conditions(bundled_config("affine_triangle").sequence(), S_SHORT)
    assert report.c1_c3_pass
    # both statistics decay at the same order: their ratio stays bounded
    ratios = [r.lattice_norm / r.c3_offset for r in report.rows]
    assert max(ratios) / min(ratios) < 10.0


def test_equivalence_probe_inequality_is_tight_enough():
    rng = np.random.default_rng(313)
    family = spread_family(rng, 3, 5)
    seq = LatticeSequence(generator=lambda s: family)
    report = check_conditions(seq, (1, 2))
    assert report.c1_c3_pass
    for row in report.rows:
        assert row.cramer_bound == 3 ** 1.5 * row.c3_offset / row.c2_volume
        assert row.c3_offset <= row.lattice_norm * (1 + 1e-9)
        assert row.lattice_norm <= row.cramer_bound * (1 + 1e-9)


def test_equivalence_verdict_fails_on_one_row_past_either_inequality():
    rows = check_conditions(bundled_config("affine_triangle").sequence(), S_SHORT).rows
    for change in ({"c3_offset": 1.01 * rows[2].lattice_norm},
                   {"cramer_bound": 0.99 * rows[2].lattice_norm}):
        broken = rows[:2] + [dataclasses.replace(rows[2], **change)] + rows[3:]
        assert not ConditionReport.from_rows(broken).c1_c3_pass, change
    assert not ConditionReport.from_rows([]).c1_c3_pass


TRIANGLE_MAP = (lambda t: np.array([[t * t, 0.0], [0.0, -t * t * (1 + t)]]),
                lambda t: np.array([t, t]))
ISOTROPIC_MAP = (lambda t: t * np.eye(2), lambda t: np.zeros(2))
TRANSLATION_MAP = (lambda t: np.eye(2), lambda t: np.array([t, 0.0]))


def _affine_report(maps):
    seq = affine_sequence(unit_triangle_family(), *maps)
    return affine_criterion(seq, check_conditions(seq, S_FULL))


def test_affine_criterion_triangle():
    report = _affine_report(TRIANGLE_MAP)
    assert [r.s for r in report.rows] == list(S_FULL)
    assert report.side_a and report.side_b and report.agree
    assert report.max_crosscheck() <= 1e-12


def test_affine_criterion_isotropic_scaling():
    report = _affine_report(ISOTROPIC_MAP)
    # |det L| prod ||L^-T n|| = t^N * t^-N = 1
    assert all(r.delta_stat == pytest.approx(1.0, rel=1e-12) for r in report.rows)
    assert report.side_a and report.side_b
    assert report.max_crosscheck() <= 1e-12


def test_affine_criterion_translation_only():
    base = unit_triangle_family()
    report = _affine_report(TRANSLATION_MAP)
    # statistic per plane is |c_i + n_{i,1} t|; the base offsets do not
    # vanish, so side (b) must fail, and so must C1 on side (a)
    for row in report.rows:
        t = 1.0 / row.s
        expect = max(abs(c + n[0] * t) for n, c in zip(base.normal_matrix(), base.offsets()))
        assert row.offset_stat == pytest.approx(expect, rel=1e-12)
    assert not report.side_a and not report.side_b and report.agree
    assert report.max_crosscheck() <= 1e-12


def test_affine_criterion_builds_no_family_or_lattice(monkeypatch):
    seq = affine_sequence(unit_triangle_family(), *TRIANGLE_MAP)
    conditions = check_conditions(seq, S_FULL)

    def no_build(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (HyperplaneFamily, ChungYaoLattice):
        monkeypatch.setattr(cls, "__init__", no_build)
    assert affine_criterion(seq, conditions).side_b


def test_affine_criterion_skips_failed_rows():
    # t - 0.25 makes the linear part singular at s = 4 only.
    seq = affine_sequence(unit_triangle_family(),
                          lambda t: np.array([[t * (t - 0.25), 0.0], [0.0, t]]),
                          lambda t: np.array([t, t]))
    conditions = check_conditions(seq, S_FULL)
    assert [r.s for r in conditions.rows if not r.valid] == [4]
    report = affine_criterion(seq, conditions)
    assert [r.s for r in report.rows] == [s for s in S_FULL if s != 4]


@pytest.mark.parametrize("maps", [TRIANGLE_MAP, ISOTROPIC_MAP, TRANSLATION_MAP],
                         ids=["triangle", "isotropic", "translation"])
def test_transform_family_subset_volumes_follow_the_transform_data(maps):
    # For every N-subset K, the image volume times |det L| prod_{i in K}
    # ||L^{-T} n_i|| is the base volume.
    base = unit_triangle_family()
    index = base.report.subsets
    base_dets = np.abs(np.linalg.det(base.normal_matrix()[index]))
    for s in S_FULL:
        mat, b = (fn(1.0 / s) for fn in maps)
        image = transform_family(base, mat, b)
        nu = np.array([np.linalg.norm(np.linalg.solve(mat.T, n)) for n in base.normal_matrix()])
        stats = abs(np.linalg.det(mat)) * np.prod(nu[index], axis=1)
        image_dets = np.abs(np.linalg.det(image.normal_matrix()[index]))
        assert np.max(np.abs(image_dets * stats - base_dets)) <= 1e-12


def test_convergence_experiment_affine_triangle_slope():
    report = convergence_experiment(
        bundled_config("affine_triangle").sequence(), ExpAffine([1.0, 1.0]), S_FULL)
    errors = [r.coeff_error for r in report.rows]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert 0.8 <= report.slope_coeff <= 1.2
    assert report.errors_decay()


def test_convergence_experiment_polynomial_is_exact_everywhere():
    p = MultiPoly(2, 1, {(0, 0): 0.5, (1, 0): -1.0, (0, 1): 2.0})
    report = convergence_experiment(
        bundled_config("affine_triangle").sequence(), PolynomialFunction(p), S_SHORT)
    assert all(r.coeff_error <= 1e-9 for r in report.rows)


def test_convergence_experiment_degenerate_coefficients():
    f = PolynomialFunction.monomial(2, (2, 0))
    for eps, s_values in ((1.0, S_SHORT), (0.0, S_SHORT)):
        seq = bundled_config(f"degenerate_eps{eps:g}").sequence()
        rows = []
        for s in s_values:
            lattice = ChungYaoLattice(seq.family(s))
            from cylattice import interpolate
            interp = interpolate(lattice, f)
            t = 1.0 / s
            coeffs = _dense(interp.polynomial)
            c10, c01 = coeffs[(1, 0)], coeffs[(0, 1)]
            assert c10 == pytest.approx(2 * t, rel=1e-9)
            assert c01 == pytest.approx(-t ** (-eps), rel=1e-9)
            rows.append((t, c01))
        if eps == 1.0:
            # x2 coefficient diverges like -1/t
            assert abs(rows[-1][1]) > 10 * abs(rows[0][1])
        else:
            # converges to the polynomial -x2, which is not the Taylor
            # polynomial (that is identically zero)
            assert rows[-1][1] == pytest.approx(-1.0, rel=1e-9)


def test_observed_delta_matches_determinants():
    rng = np.random.default_rng(317)
    family = spread_family(rng, 2, 4)
    lattice = ChungYaoLattice(family)
    delta = observed_delta(lattice)
    # <n_i, n_K> realizes the determinant of the completed subset
    worst = 0.0
    lines = lattice.line_subsets()
    for k, n_k, completing in zip(lines.indices, lines.directions, lines.completing):
        for i in completing:
            normals = family.normal_matrix()
            inner = abs(float(normals[i] @ n_k))
            mat = np.stack([normals[i]] + [normals[j] for j in k])
            det = abs(float(np.linalg.det(mat)))
            worst = max(worst, abs(inner - det))
    assert worst <= 1e-12
    assert delta == pytest.approx(family.report.min_det, abs=1e-12)


@pytest.mark.parametrize("shape", [(1, 3), (2, 5), (3, 7), (4, 9), (5, 10)])
def test_observed_delta_reads_the_family_not_the_line_table(shape, monkeypatch):
    n_dim, count = shape
    family = random_family(np.random.default_rng(count), n_dim, count)
    lattice = ChungYaoLattice(family)
    monkeypatch.setattr(ChungYaoLattice, "line_subsets",
                        lambda self: pytest.fail("observed_delta built the line table"))
    delta = observed_delta(lattice)
    monkeypatch.undo()
    # The line-table formula, one <n_i, n_K> at a time.
    lines, normals = lattice.line_subsets(), family.normal_matrix()
    assert delta == min(abs(float(normals[i] @ n_k))
                        for n_k, completing in zip(lines.directions, lines.completing)
                        for i in completing)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n_dim=st.integers(2, 5), extra=st.integers(0, 7))
def test_observed_delta_is_min_subset_det(seed, n_dim, extra):
    # <n_i, n_K> = +-det(n_i, n_K's normals): delta and min det are the same
    # minimum, taken by cofactors and by LU.  Both are determinants of unit
    # vectors, so besides 1e-12 relative they may differ by a few N u absolute.
    family = random_family(np.random.default_rng(seed), n_dim, min(n_dim + extra, 12))
    delta = observed_delta(ChungYaoLattice(family))
    assert delta == pytest.approx(family.report.min_det, rel=1e-12, abs=n_dim * np.finfo(float).eps)


def test_bound_evaluator_caps_pk_and_error():
    rng = np.random.default_rng(331)
    family = spread_family(rng, 2, 4, max_norm=1.5)
    lattice = ChungYaoLattice(family)
    radius = lattice.norm() * 1.05
    report = bound_evaluator(lattice, ExpAffine([1.0, 1.0]), radius)
    assert report.hypotheses_ok
    assert report.pk_within_bound
    assert report.sampled_pk_max <= report.pk_bound
    assert report.error_within_bound


def test_bound_evaluator_takes_the_pk_sup_on_the_ball_grid():
    # The sup of every |P_K| is read on the grid of the sup error, whatever rng draws.
    seq = bundled_config("degenerate_eps0").sequence()
    family = seq.family(8)
    report = bound_evaluator(ChungYaoLattice(family), ExpAffine([1.0, 1.0]), 0.5,
                             rng=np.random.default_rng(7), grid_per_axis=11)
    grid_max = float(np.max(np.abs(pk_table(family)(ball_grid(2, 0.5, 11)))))
    assert report.sampled_pk_max == grid_max
    assert report.pk_within_bound and grid_max <= report.pk_bound


def test_experiment_leaves_the_pk_check_to_its_caller(monkeypatch):
    from cylattice import convergence

    def unreached(*args, **kwargs):
        raise AssertionError("convergence_experiment evaluated P_K")

    seq = bundled_config("affine_triangle").sequence()
    monkeypatch.setattr(convergence, "pk_table", unreached)
    report = convergence_experiment(seq, ExpAffine([1.0, 1.0]), s_values=(2, 4, 8))
    assert [row.bound.hypotheses_ok for row in report.rows] == [False, True, True]
    assert all(math.isnan(row.bound.sampled_pk_max) for row in report.rows)
    assert all(row.family.count == 3 for row in report.rows)


def test_bound_evaluator_polynomial_error_is_zero():
    rng = np.random.default_rng(337)
    family = spread_family(rng, 2, 4, max_norm=1.5)
    lattice = ChungYaoLattice(family)
    p = MultiPoly(2, 2, {(0, 0): 1.0, (1, 1): -0.5})
    report = bound_evaluator(lattice, PolynomialFunction(p), lattice.norm() * 1.05)
    assert report.measured_sup_error <= 1e-10
    assert report.error_within_bound


def test_bound_evaluator_triangle_at_s10():
    seq = bundled_config("affine_triangle").sequence()
    lattice = ChungYaoLattice(seq.family(10))
    report = bound_evaluator(lattice, ExpAffine([1.0, 1.0]), 0.5)
    assert report.hypotheses_ok
    assert report.error_within_bound
    assert report.measured_sup_error <= report.total_bound


def test_experiment_builds_each_row_once_and_shares_the_bound(monkeypatch):
    from cylattice import convergence

    calls = {"interpolate": 0, "taylor": 0, "ball_grid": 0}
    seq = bundled_config("affine_triangle").sequence()
    f = ExpAffine([1.0, 1.0])
    families = []
    with monkeypatch.context() as patch:
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(convergence, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            patch.setattr(convergence, name, counted)
        generator = seq.generator
        patch.setattr(seq, "generator", lambda s: families.append(s) or generator(s))
        report = convergence_experiment(seq, f, s_values=(4, 8, 16))
    assert calls == {"interpolate": 3, "taylor": 1, "ball_grid": 1}
    assert families == [4, 8, 16]
    for row in report.rows:
        lattice = ChungYaoLattice(seq.family(row.s))
        bound = bound_evaluator(lattice, f, 0.5)
        assert row.bound_value == bound.total_bound


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("f", [
    ExpAffine([1.0, 1.0]),
    PolynomialFunction(MultiPoly(2, 1, {(0, 0): 0.7, (1, 0): 3.0, (0, 1): -2.0})),
], ids=["exp", "degree-1 polynomial"])
def test_experiment_rows_and_bound_evaluator_agree(f):
    # One verdict: the rows' bound and within_bound are bound_evaluator's,
    # slack included (for the polynomial the bound is 0 and the measured
    # error is roundoff), and with the P_K check on the run's grid, so is
    # every piece of the row's BoundReport.
    seq = bundled_config("affine_triangle").sequence()
    report = convergence_experiment(seq, f, S_FULL, radius=0.5)
    for row in report.rows:
        bound = bound_evaluator(ChungYaoLattice(seq.family(row.s)), f, 0.5)
        assert _same(row.bound_value, bound.total_bound), row.s
        assert row.within_bound == bound.error_within_bound, row.s
        assert row.sup_error == bound.measured_sup_error, row.s
        check_pk_bound(row.bound, row.family, report.grid)
        assert all(map(_same, dataclasses.astuple(row.bound), dataclasses.astuple(bound))), row.s
    assert [row.within_bound for row in report.rows] == [False] + [True] * (len(S_FULL) - 1)


def test_derivative_norm_estimate_exponential():
    # ||f^(m)(a)|| for exp(<c, x>) is ||c||^m e^(<c, a>); max over the ball
    # is attained at a = R c/||c||
    f = ExpAffine([1.0, 1.0])
    radius = 0.5
    estimate = derivative_norm_estimate(f, 2, radius)
    exact = 2.0 * math.exp(math.sqrt(2.0) * radius)
    assert estimate <= exact * (1 + 1e-9)
    assert estimate >= 0.97 * exact


def _catalog_member(kind: str, n_dim: int):
    rng = np.random.default_rng([n_dim, len(kind)])
    c1, c2 = rng.uniform(-1.5, 1.5, (2, n_dim))
    if kind == "exp":
        return ExpAffine(c1, shift=0.2)
    if kind == "sin":
        return LinearCombination([(1.7, SinAffine(c1, shift=0.4))])
    if kind == "product":
        return Product(ExpAffine(c1), SinAffine(c2, shift=-0.3))
    if kind == "combination":
        return LinearCombination([(0.7, ExpAffine(c1)), (-1.3, CosAffine(c2, 0.4))])
    return PolynomialFunction(MultiPoly(n_dim, 5, random_poly_coeffs(rng, multi_indices(n_dim, 5))))


@pytest.mark.parametrize("order", (1, 2, 3, 4))
@pytest.mark.parametrize("n_dim", (2, 3))
@pytest.mark.parametrize("kind", ("exp", "sin", "product", "combination", "polynomial"))
def test_derivative_norm_estimate_matches_per_point_loop(kind, n_dim, order):
    # Same sample points (default rng) and the same maximum as differentiating
    # and evaluating one sample point at a time.
    f = _catalog_member(kind, n_dim)
    batched = derivative_norm_estimate(f, order, 0.5)
    oracle = derivative_norm_per_point(f, order, 0.5)
    assert oracle > 0.0
    assert abs(batched - oracle) <= 1e-13 * oracle


def test_ball_grid_shape():
    grid = ball_grid(2, 0.5, 21)
    assert grid.shape[1] == 2
    assert np.all(np.linalg.norm(grid, axis=1) <= 0.5 + 1e-12)
    assert len(grid) == 317  # 21^2 = 441 corner-trimmed to the disk


def test_ball_grid_equals_the_whole_mesh_cut_to_the_ball():
    # The same points in the same order as the mesh it no longer builds.  The
    # radii put grid points exactly on the sphere: (+-R, 0, ...) at an odd
    # per_axis, and (3, 4, 0, ...) at radius 5 with 11 points per axis.
    # Meshes above 250,000 points (N = 5 past 12 per axis) are left out: the
    # oracle alone takes 100-560 MB there.
    for dimension in range(1, 6):
        for per_axis in range(2, 22):
            if per_axis ** dimension > 250_000:
                continue
            for radius in (0.5, 1.0, 5.0):
                expected = ball_grid_mesh(dimension, radius, per_axis)
                # Counted without a grid, and exactly: no radius here moves a point
                # across the sphere.
                assert _ball_grid_size(dimension, per_axis) == (len(expected), True)
                if not len(expected):
                    with pytest.raises(ValueError, match="has no point in the ball"):
                        ball_grid(dimension, radius, per_axis)
                    continue
                grid = ball_grid(dimension, radius, per_axis)
                assert grid.tobytes() == expected.tobytes(), (dimension, per_axis, radius)
                assert grid.shape == expected.shape
    assert [5.0, 0.0] in ball_grid(2, 5.0, 11).tolist()
    assert [3.0, 4.0, 0.0] in ball_grid(3, 5.0, 11).tolist()


@pytest.mark.parametrize("dimension, per_axis", [(1, 202), (1, 1001), (2, 202), (2, 1001)])
def test_past_201_points_per_axis_the_grid_size_is_a_tight_lower_bound(dimension, per_axis):
    points, exact = _ball_grid_size(dimension, per_axis)
    assert not exact
    assert points <= len(ball_grid(dimension, 0.5, per_axis)) <= 1.26 * points


def test_a_grid_past_max_grid_terms_is_a_config_error(monkeypatch):
    from cylattice import convergence

    seq, f = bundled_config("affine_triangle").sequence(), ExpAffine([1.0, 1.0])
    points = len(ball_grid(2, 0.5, 21))  # times the 3 monomials of degree 1
    monkeypatch.setattr(convergence, "MAX_GRID_TERMS", 3 * points)
    assert convergence_experiment(seq, f, s_values=(4,)).rows[0].valid
    monkeypatch.setattr(convergence, "MAX_GRID_TERMS", 3 * points - 1)
    message = f"^{points} ball-grid points times 3 monomials of degree 1 pass MAX_GRID_TERMS"
    for run in (lambda: convergence_experiment(seq, f, s_values=(4,)),
                lambda: bound_evaluator(ChungYaoLattice(seq.family(4)), f, 0.5)):
        with pytest.raises(ConfigError, match=message):
            run()


def test_experiment_rejects_threads_other_than_one():
    seq = bundled_config("affine_triangle").sequence()
    f = ExpAffine([1.0, 1.0])
    with pytest.raises(ValueError, match="threads"):
        convergence_experiment(seq, f, S_SHORT, threads=2)


def test_fit_loglog_slope_recovers_power():
    x = np.array([1.0, 0.5, 0.25, 0.125])
    y = 3.0 * x ** 1.7
    assert fit_loglog_slope(x, y) == pytest.approx(1.7, abs=1e-12)


def test_fit_loglog_slope_is_nan_without_two_distinct_positive_x():
    # One x repeated (a family that never moves) fits no line: nan, and no
    # RankWarning, which pytest raises as an error.  Pairs with x or y <= 0 drop out.
    assert math.isnan(fit_loglog_slope([1.4, 1.4, 1.4], [0.3, 0.2, 0.1]))
    assert math.isnan(fit_loglog_slope([1.4, 1.4, 0.0, -2.0], [0.3, 0.2, 0.1, 0.1]))
    assert math.isnan(fit_loglog_slope([1.4, 2.0, 3.0], [0.3, 0.0, -1.0]))
    assert fit_loglog_slope([1.4, 1.4, 2.8], [1.0, 1.0, 4.0]) == pytest.approx(2.0, abs=1e-12)
