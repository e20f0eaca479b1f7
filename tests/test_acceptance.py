"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  The family sweep (N in {2,3}, d in N..N+4, 20 seeded
random general-position families each) is shared across criteria.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from cylattice import (
    ChungYaoLattice,
    ExpAffine,
    MultiPoly,
    PolynomialFunction,
    SinAffine,
    SymmetricForm,
    affine_triangle_sequence,
    check_conditions,
    convergence_experiment,
    bound_evaluator,
    deboor_identity_residual,
    degenerate_triangle_points,
    divided_difference,
    homogeneous_indices,
    interpolate,
    multi_indices,
    newton_identity,
    newton_stage_data,
    pk_polynomial,
    techobserv_check,
    triangle_family_from_points,
)
from cylattice.poly import monomials

from helpers import classical_divided_difference, random_poly_coeffs, spread_family

SWEEP_SEED = 20240817
S_FULL = (2, 4, 8, 16, 32, 64, 128, 256)


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {status} {name}  {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


@dataclass
class Case:
    n_dim: int
    d: int
    family: object
    _lattice: object = field(default=None, repr=False)
    _lines: object = field(default=None, repr=False)
    _pk: object = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.d - self.n_dim + 1

    @property
    def lattice(self):
        if self._lattice is None:
            self._lattice = ChungYaoLattice(self.family)
        return self._lattice

    @property
    def lines(self):
        if self._lines is None:
            self._lines = self.lattice.line_subsets()
        return self._lines

    @property
    def pk_polys(self):
        if self._pk is None:
            self._pk = [
                pk_polynomial(self.family, k, direction=n_k)
                for k, n_k in zip(self.lines.indices, self.lines.directions)
            ]
        return self._pk


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(SWEEP_SEED)
    cases = []
    for n_dim in (2, 3):
        for d in range(n_dim, n_dim + 5):
            for _ in range(20):
                cases.append(Case(n_dim, d, spread_family(rng, n_dim, d)))
    return cases


def test_criterion_01_projector_exactness(sweep):
    rng = np.random.default_rng(1)
    worst = 0.0
    for case in sweep:
        degree = case.d - case.n_dim
        p = MultiPoly(case.n_dim, degree,
                      random_poly_coeffs(rng, multi_indices(case.n_dim, degree)))
        interp = interpolate(case.lattice, PolynomialFunction(p))
        err = interp.polynomial.coeff_distance(p) / p.max_abs_coeff()
        worst = max(worst, err)
    report(1, "projector exactness on P^(d-N)", worst <= 1e-9,
           f"max relative coefficient error {worst:.3e} (tol 1e-9, "
           f"{len(sweep)} families)")


def test_criterion_02_deboor_identity(sweep):
    rng = np.random.default_rng(2)
    worst = 0.0
    for case in sweep:
        xs = rng.uniform(-5.0, 5.0, size=(100, case.n_dim))
        for subset in case.lattice.vertices:
            worst = max(worst, deboor_identity_residual(case.lattice, subset, xs))
    report(2, "point decomposition identity", worst <= 1e-10,
           f"max residual {worst:.3e} (tol 1e-10, 100 points x all N-subsets)")


def test_criterion_03_remainder_formula(sweep):
    rng = np.random.default_rng(3)
    worst_exact = 0.0
    for case in sweep:
        alphas = homogeneous_indices(case.n_dim, case.m)
        alpha = alphas[rng.integers(len(alphas))]
        f = PolynomialFunction.monomial(case.n_dim, alpha)
        interp = interpolate(case.lattice, f)
        dd = [
            divided_difference(
                f,
                np.vstack([points, np.zeros((1, case.n_dim))]),  # placeholder row
                [n_k] * case.m,
            )
            for points, n_k in zip(case.lines.points, case.lines.directions)
        ]
        # divided differences of a degree-m monomial along fixed directions are
        # constant in the points, so evaluate once and reuse across x
        for _ in range(5):
            x = rng.uniform(-0.7, 0.7, case.n_dim)
            fx = float(f.evaluate(x))
            lx = interp.polynomial.evaluate(x)
            corr = math.fsum(pk.evaluate(x) * val
                             for pk, val in zip(case.pk_polys, dd))
            worst_exact = max(worst_exact,
                              abs(fx - lx - corr) / max(1.0, abs(fx)))

    worst_quad = 0.0
    by_case: dict = {}
    for case in sweep:
        by_case.setdefault((case.n_dim, case.d), []).append(case)
    for (n_dim, d), cases in by_case.items():
        for case in cases[:2]:
            f = ExpAffine(np.ones(n_dim))
            interp = interpolate(case.lattice, f)
            xs = rng.standard_normal((20, n_dim))
            xs *= (0.5 * rng.uniform(0, 1, 20) ** (1 / n_dim)
                   / np.linalg.norm(xs, axis=1))[:, None]
            dd_cache = [
                [divided_difference(f, np.vstack([points, x[None, :]]),
                                    [n_k] * case.m)
                 for points, n_k in zip(case.lines.points, case.lines.directions)]
                for x in xs
            ]
            for x, dds in zip(xs, dd_cache):
                fx = float(f.evaluate(x))
                lx = interp.polynomial.evaluate(x)
                corr = math.fsum(pk.evaluate(x) * val
                                 for pk, val in zip(case.pk_polys, dds))
                worst_quad = max(worst_quad,
                                 abs(fx - lx - corr) / max(1.0, abs(fx)))
    ok = worst_exact <= 1e-9 and worst_quad <= 1e-7
    report(3, "interpolation remainder formula", ok,
           f"exact path {worst_exact:.3e} (tol 1e-9), "
           f"ridge path {worst_quad:.3e} (tol 1e-7)")


def test_criterion_04_homogeneous_unisolvence(sweep):
    worst_delta = 0.0
    min_vdm = math.inf
    for case in sweep:
        directions = case.lines.directions
        vdm = abs(np.linalg.det(monomials(directions, homogeneous_indices(case.n_dim, case.m))))
        min_vdm = min(min_vdm, vdm)
        homogeneous = [pk.homogeneous_component(case.m) for pk in case.pk_polys]
        for i, hk in enumerate(homogeneous):
            for j, n_k in enumerate(case.lines.directions):
                expected = 1.0 if i == j else 0.0
                worst_delta = max(worst_delta,
                                  abs(hk.evaluate(n_k) - expected))
    ok = min_vdm > 0.0 and worst_delta <= 1e-10
    report(4, "direction-set unisolvence", ok,
           f"min |VDM| {min_vdm:.3e} (> 0), cardinality error {worst_delta:.3e} "
           f"(tol 1e-10)")


def test_criterion_05_newton_identity(sweep):
    rng = np.random.default_rng(5)
    cases = {}
    for case in sweep:
        if case.d <= case.n_dim + 3 and (case.n_dim, case.d) not in cases:
            cases[(case.n_dim, case.d)] = case
    worst = 0.0
    for (n_dim, d), case in cases.items():
        m = case.m
        stages = newton_stage_data(case.family, case.lattice)
        xs = rng.uniform(-1.0, 1.0, size=(20, n_dim))
        pk_vals = [pk_polynomial(case.family, st.indices, upto=st.stage - 1).evaluate_many(xs)
                   for st in stages]
        for _ in range(20):
            coeffs = random_poly_coeffs(rng, homogeneous_indices(n_dim, m))
            phi = SymmetricForm(m, n_dim, MultiPoly(n_dim, m, coeffs))
            fixed = {}
            for idx, st in enumerate(stages):
                if st.vertex is None:
                    fixed[idx] = phi(*([st.direction] * (st.stage - n_dim)))
                elif d - st.stage == 0:
                    fixed[idx] = phi(*([st.vertex] + [st.direction] * (st.stage - n_dim)))
            for j, x in enumerate(xs):
                target = phi(*([x] * m))
                parts = []
                for idx, st in enumerate(stages):
                    if idx in fixed:
                        value = fixed[idx]
                    else:
                        args = [x] * (d - st.stage) + [st.vertex] \
                            + [st.direction] * (st.stage - n_dim)
                        value = phi(*args)
                    parts.append(pk_vals[idx][j] * value)
                residual = abs(target - math.fsum(parts)) / max(1.0, abs(target))
                worst = max(worst, residual)

    # degeneracy d = N: the identity is the point decomposition applied to a
    # linear form
    worst_min = 0.0
    for n_dim in (2, 3):
        case = cases[(n_dim, n_dim)]
        c = rng.uniform(-1.0, 1.0, n_dim)
        phi = SymmetricForm(1, n_dim, MultiPoly.linear(c))
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, n_dim)
            dec = newton_identity(case.family, phi, x, lattice=case.lattice)
            worst_min = max(worst_min, abs(dec.total() - float(c @ x)))
    ok = worst <= 1e-9 and worst_min <= 1e-12
    report(5, "staged representation identity", ok,
           f"20 forms x 20 points: residual {worst:.3e} (tol 1e-9); "
           f"d=N linear case {worst_min:.3e} (tol 1e-12)")


def test_criterion_06_technical_vanishing_lemma():
    rng = np.random.default_rng(6)
    worst = 0.0
    pairs = 0
    for _ in range(5):
        family = spread_family(rng, 3, 5)  # 4 + 1 planes in R^3
        for k_prime in [(i,) for i in range(4)]:
            rep = techobserv_check(family, k_prime)
            pairs += len(rep.indices)
            worst = max(worst, rep.max_abs())
    report(6, "cross-subset vanishing of homogeneous products",
           worst <= 1e-10,
           f"{pairs} non-containing pairs, max |value| {worst:.3e} (tol 1e-10)")


def test_criterion_07_flattening_triangle_example():
    f = PolynomialFunction.monomial(2, (2, 0))
    worst = 0.0
    coeffs = {}
    for eps in (0.0, 1.0):
        for t in (0.1, 0.05, 0.01):
            family = triangle_family_from_points(degenerate_triangle_points(t, eps))
            interp = interpolate(ChungYaoLattice(family), f)
            c10 = interp.polynomial.coefficient((1, 0))
            c01 = interp.polynomial.coefficient((0, 1))
            c00 = interp.polynomial.coefficient((0, 0))
            worst = max(worst,
                        abs(c10 - 2 * t) / (2 * t),
                        abs(c01 + t ** (-eps)) / t ** (-eps),
                        abs(c00) / t ** (-eps))
            coeffs[(eps, t)] = (c10, c01)
    diverges = abs(coeffs[(1.0, 0.01)][1]) > 5 * abs(coeffs[(1.0, 0.1)][1])
    # eps = 0: limit is -x2, which differs from the Taylor polynomial 0
    limit_ok = abs(coeffs[(0.0, 0.01)][1] + 1.0) <= 1e-9 \
        and abs(coeffs[(0.0, 0.01)][0]) <= 0.03
    ok = worst <= 1e-9 and diverges and limit_ok
    report(7, "flattening triangle interpolants", ok,
           f"coefficient error {worst:.3e} (tol 1e-9); eps=1 diverges: {diverges}; "
           f"eps=0 limit -x2: {limit_ok}")


def test_criterion_08_affine_triangle_rate():
    seq = affine_triangle_sequence()
    f = ExpAffine([1.0, 1.0])
    rate = convergence_experiment(seq, f, S_FULL, radius=0.5)
    slope_ok = 0.8 <= rate.slope_coeff <= 1.2
    bounded_rows = [r for r in rate.rows if not math.isnan(r.bound_value)]
    bound_ok = len(bounded_rows) > 0 and all(r.within_bound for r in bounded_rows)
    last = rate.rows[-1]
    c2_ok = last.s == 256 and abs(last.c2_volume - math.sin(math.pi / 4)) <= 0.02
    ok = slope_ok and bound_ok and c2_ok
    report(8, "shrinking triangle rate and bound", ok,
           f"slope {rate.slope_coeff:.3f} in [0.8, 1.2]; bound holds at "
           f"{len(bounded_rows)} indices; min volume at s=256 is "
           f"{last.c2_volume:.4f} vs sin(pi/4)={math.sin(math.pi/4):.4f}")


def test_criterion_09_condition_machinery(sweep):
    # offsets below lattice norm, and the norm below its Cramer bound, along
    # the worked sequence
    offsets_ok = check_conditions(affine_triangle_sequence(), S_FULL).c1_c3_pass

    # inner-product and determinant evaluations of the transversality
    # constant coincide
    rng = np.random.default_rng(9)
    worst_agree = 0.0
    chosen = [c for c in sweep if c.d > c.n_dim][:10]
    for case in chosen:
        lines = case.lines
        for k, n_k, completing in zip(lines.indices, lines.directions, lines.completing):
            for i in completing:
                normals = case.family.normal_matrix()
                inner = float(normals[i] @ n_k)
                mat = np.stack([normals[i]] + [normals[j] for j in k])
                det = float(np.linalg.det(mat))
                worst_agree = max(worst_agree, abs(inner - det))

    # sampled sup of |P_K| against its explicit cap
    pk_ok = True
    for case in chosen[:5]:
        radius = max(0.5, case.lattice.norm() * 1.01)
        rep = bound_evaluator(case.lattice, ExpAffine(np.ones(case.n_dim)),
                              radius, rng=np.random.default_rng(90),
                              grid_per_axis=9)
        pk_ok = pk_ok and rep.pk_within_bound
    ok = offsets_ok and worst_agree <= 1e-12 and pk_ok
    report(9, "condition machinery", ok,
           f"offsets <= lattice norm <= Cramer bound: {offsets_ok}; transversality "
           f"agreement {worst_agree:.3e} (tol 1e-12); P_K cap holds: {pk_ok}")


def test_criterion_10_divided_difference_oracle():
    import mpmath as mp

    rng = np.random.default_rng(10)
    worst = 0.0
    for k in range(50):
        s = int(rng.integers(1, 6))
        nodes = np.sort(rng.uniform(-1.0, 1.0, s + 1))
        while np.min(np.diff(nodes)) < 0.05:
            nodes = np.sort(rng.uniform(-1.0, 1.0, s + 1))
        c = float(rng.uniform(0.4, 1.6))
        b = float(rng.uniform(-0.5, 0.5))
        kind = k % 3
        if kind == 0:
            f1 = ExpAffine([c])
            oracle_fn = lambda z: mp.e ** (mp.mpf(repr(c)) * z)
        elif kind == 1:
            f1 = SinAffine([c], shift=b)
            oracle_fn = lambda z: mp.sin(mp.mpf(repr(c)) * z + mp.mpf(repr(b)))
        else:
            power = s + 2
            f1 = PolynomialFunction.monomial(1, (power,))
            oracle_fn = lambda z: z ** power
        oracle = classical_divided_difference(oracle_fn, nodes)
        # genuinely one-dimensional data
        value_1d = divided_difference(f1, nodes[:, None], [[1.0]] * s)
        worst = max(worst, abs(value_1d - oracle) / max(1.0, abs(oracle)))
        # the same data embedded on the first axis of the plane
        if kind == 0:
            f2 = ExpAffine([c, 0.0])
        elif kind == 1:
            f2 = SinAffine([c, 0.0], shift=b)
        else:
            f2 = PolynomialFunction.monomial(2, (power, 0))
        pts2 = np.column_stack([nodes, np.zeros_like(nodes)])
        value_2d = divided_difference(f2, pts2, [[1.0, 0.0]] * s)
        worst = max(worst, abs(value_2d - oracle) / max(1.0, abs(oracle)))

    worst_hermite = 0.0
    for _ in range(50):
        n_dim = int(rng.integers(1, 4))
        s = int(rng.integers(1, 5))
        a = rng.uniform(-0.5, 0.5, n_dim)
        v = rng.uniform(-1.0, 1.0, n_dim)
        f = ExpAffine(rng.uniform(0.3, 1.2, n_dim))
        value = divided_difference(f, np.tile(a, (s + 1, 1)), [v] * s)
        closed = f.directional_derivative(a, [v] * s) / math.factorial(s)
        worst_hermite = max(worst_hermite,
                            abs(value - closed) / max(1.0, abs(closed)))
    ok = worst <= 1e-10 and worst_hermite <= 1e-10
    report(10, "divided-difference oracle equivalence", ok,
           f"classical Newton match {worst:.3e} (tol 1e-10); coincident-point "
           f"closed form {worst_hermite:.3e} (tol 1e-10)")
