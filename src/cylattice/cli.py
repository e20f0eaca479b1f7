"""Command-line front end: `cy lattice|verify|converge|rate <config.json>`.

Exit codes: 0 success, 2 validation error, 3 numerical degeneracy,
4 verification/acceptance failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError, CyLatticeError, GeneralPositionError
from .geometry import ChungYaoLattice, deboor_identity_residual
from .poly import (MultiPoly, SymmetricForm, evaluate_rows, exponent_array, homogeneous_indices,
                   monomials)
from .functions import ExpAffine, PolynomialFunction
from .chungyao import (
    deboor_remainder,
    homogeneous_representation,
    interpolate,
    newton_identity,
    pk_table,
    remainder_sign_flip_deviation,
    techobserv_check,
)
from .convergence import (
    ConditionReport,
    affine_criterion,
    bound_evaluator,
    convergence_experiment,
    index_row,
    RESULT_COLUMNS,
)
from .config import ExperimentConfig, load_config

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERACY = 3
EXIT_FAILURE = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _select_s_values(args, config: ExperimentConfig):
    values = [s for s in config.s_values
              if (args.s_min is None or s >= args.s_min)
              and (args.s_max is None or s <= args.s_max)]
    if not values:
        raise ConfigError("the --s-min/--s-max window selects no s values")
    return tuple(values)


def _open_out(path: str, **kwargs):
    """open(path, "w"), or a ConfigError naming the path and the OS reason."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# cy lattice
# ---------------------------------------------------------------------------

def cmd_lattice(args) -> int:
    config = load_config(args.config)
    s_values = _select_s_values(args, config)
    family = config.family(s_values[0])
    lattice = ChungYaoLattice(family)
    lines = lattice.line_subsets()

    print(f"family: N={family.dimension} d={family.count} degree={family.degree}")
    print(f"certificate: {family.report}")
    print(f"lattice norm: {_fmt(lattice.norm())}")
    print(f"vertices ({len(lattice.vertices)}):")
    for subset, theta in sorted(lattice.vertices.items()):
        coords = ", ".join(_fmt(v) for v in theta)
        print(f"  H={subset}: ({coords})")
    print(f"line subsets ({len(lines)}):")
    for k, n_k in zip(lines.indices, lines.directions):
        direction = ", ".join(_fmt(v) for v in n_k)
        print(f"  K={k}: direction ({direction}), {lines.points.shape[1]} points")

    if args.out:
        import json
        payload = {
            "dimension": family.dimension,
            "count": family.count,
            "degree": family.degree,
            "min_det": family.report.min_det,
            "vertices": {str(k): v.tolist() for k, v in lattice.vertices.items()},
            "lines": [
                {"K": list(k), "direction": n_k, "points": points}
                for k, n_k, points in zip(lines.indices, lines.directions.tolist(),
                                          lines.points.tolist())
            ],
        }
        with _open_out(args.out) as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cy verify
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


def _inject_vertex_fault(lattice: ChungYaoLattice, scale: float) -> ChungYaoLattice:
    """Copy the lattice with its first vertex displaced (consistency breaker)."""
    table = lattice.vertex_array().copy()
    table[0, 0] += scale
    table.setflags(write=False)
    broken = copy.copy(lattice)
    broken._set_vertices(table)
    return broken


def run_verification(
    config: ExperimentConfig,
    seed: int = 0,
    tol_override: float | None = None,
    fault_inject: bool = False,
    sign_flip: bool = False,
    s: int | None = None,
) -> list[CheckResult]:
    """Run the identity suite on the config's family; returns one result per check."""
    rng = np.random.default_rng(seed)
    family = config.family(s)
    lattice = ChungYaoLattice(family)
    n_dim, d = family.dimension, family.count
    m = d - n_dim + 1
    results: list[CheckResult] = []

    def record(name, residual, tol, note=""):
        tol = tol_override if tol_override is not None else tol
        results.append(CheckResult(name=name, residual=residual, tolerance=tol,
                                   passed=bool(residual <= tol), note=note))

    # Interpolation match at the vertices (fault injection breaks this one).
    f_probe = ExpAffine(np.ones(n_dim))
    work_lattice = _inject_vertex_fault(lattice, 1e-3 * (1.0 + lattice.diameter())) \
        if fault_inject else lattice
    interp = interpolate(work_lattice, f_probe)
    record("interpolation_match", interp.vertex_residual(), 1e-9,
           note="fault injected" if fault_inject else "")

    # de Boor's identity at random points.
    xs = rng.uniform(-1.0, 1.0, size=(50, n_dim))
    # Residuals fold with np.max, which keeps a NaN; the builtin max drops it.
    residuals = deboor_identity_residual(lattice, family.report.subsets, xs)
    record("deboor_identity", float(np.max(residuals)), 1e-10)

    # Remainder formula on the exact path: monomial of degree d - N + 1.
    alpha = [0] * n_dim
    alpha[0] = m
    f_mono = PolynomialFunction.monomial(n_dim, alpha)
    interp_mono = interpolate(lattice, f_mono)
    lines = lattice.line_subsets()
    dec = deboor_remainder(lattice, f_mono, rng.uniform(-0.5, 0.5, size=(10, n_dim)),
                           interpolant=interp_mono, lines=lines)
    record("deboor_remainder", float(np.max(dec.relative_residual())), 1e-9)

    # Homogeneous unisolvence: cardinality of the direction set.
    vdm = abs(float(np.linalg.det(
        monomials(lines.directions, exponent_array(n_dim, m)[-len(lines):]))))
    cardinal = pk_table(family, homogeneous=True)(lines.directions)
    record("homogeneous_unisolvence", float(np.max(np.abs(cardinal - np.eye(len(lines))))),
           1e-10, note=f"|VDM| = {vdm:.3e}")

    # Random symmetric forms of order m: each row of draws holds a form's
    # diagonal coefficients on homogeneous_indices(n_dim, m), then its points.
    width = len(homogeneous_indices(n_dim, m))

    def random_forms(count, points):
        draws = rng.uniform(-1.0, 1.0, size=(count, width + points * n_dim))
        diagonals = np.pad(draws[:, :width], ((0, 0), (len(exponent_array(n_dim, m)) - width, 0)))
        return ([SymmetricForm(m, n_dim, MultiPoly(n_dim, m, row)) for row in diagonals],
                draws[:, width:].reshape(count, points, n_dim))

    # Homogeneous representation of 10 random symmetric forms, each at its own point.
    phis, vs = random_forms(10, 1)
    lhs = evaluate_rows(np.array([phi.diagonal.coeffs for phi in phis])[:, None],
                        n_dim, m, vs)[:, 0, 0]
    rhs = homogeneous_representation(family, phis, vs[:, 0])
    record("homogeneous_representation",
           float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))), 1e-9)

    # Newton-like staged identity: 5 forms, each at its own batch of 5 points.
    phis, xs = random_forms(5, 5)
    dec = newton_identity(family, phis, xs, lattice=lattice)
    record("newton_identity", float(np.max(dec.relative_residual())), 1e-9)

    # Technical vanishing lemma (needs N >= 2 and at least N + 1 planes).
    if n_dim >= 2 and d >= n_dim + 1:
        reports = techobserv_check(family, list(combinations(range(d - 1), n_dim - 2)))
        values = np.concatenate([report.values for report in reports])
        note = "vacuous (every K contains the empty subset)" if values.size == 0 \
            else f"{values.size} pairs"
        record("techobserv", float(np.max(np.abs(values), initial=0.0)), 1e-10, note=note)
    else:
        record("techobserv", 0.0, 1e-10, note="skipped (needs d > N and N >= 2)")

    if sign_flip:
        xs = rng.uniform(-0.5, 0.5, size=(3, n_dim))
        record("sign_flip_invariance", remainder_sign_flip_deviation(lattice, f_mono, xs), 1e-12)

    return results


def cmd_verify(args) -> int:
    if args.tol is not None and not args.tol >= 0.0:
        raise ConfigError(f"--tol must be a non-negative number, got {args.tol!r}")
    config = load_config(args.config)
    s_values = _select_s_values(args, config)
    results = run_verification(
        config,
        seed=args.seed,
        tol_override=args.tol,
        fault_inject=args.fault_inject,
        sign_flip=args.sign_flip,
        s=s_values[0],
    )
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        note = f"  [{result.note}]" if result.note else ""
        print(f"[{status}] {result.name:28s} residual {result.residual:.3e} "
              f"(tol {result.tolerance:.1e}){note}")
        failed += 0 if result.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_FAILURE


# ---------------------------------------------------------------------------
# cy converge
# ---------------------------------------------------------------------------

def _write_csv(path: str, rows) -> None:
    with _open_out(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(v) for v in row.as_tuple()])


def cmd_converge(args) -> int:
    config = load_config(args.config)
    s_values = _select_s_values(args, config)
    seq = config.sequence()
    f = config.function()
    report = convergence_experiment(
        seq, f,
        s_values=s_values,
        radius=config.radius,
        grid_per_axis=config.grid_per_axis,
        c2_threshold=config.c2_threshold,
    )
    conditions = ConditionReport.from_rows(report.rows, config.c2_threshold)

    print(f"sequence: {seq.label or 'unnamed'}  degree {report.degree}")
    header = "  ".join(f"{c:>13s}" for c in RESULT_COLUMNS)
    print(header)
    for row in report.rows:
        if not row.valid:
            print(f"{row.s:>13d}  <family failed: {row.error}>")
            continue
        cells = [f"{v:>13.6g}" if not isinstance(v, int) else f"{v:>13d}"
                 for v in row.as_tuple()]
        print("  ".join(cells))
    print(f"fitted log-log slope (coeff vs lattice norm): {report.slope_coeff:.4f}")
    print(f"fitted log-log slope (sup vs lattice norm):   {report.slope_sup:.4f}")
    print(f"C1 (vertices -> 0): {'PASS' if conditions.c1_pass else 'FAIL'}")
    print(f"C2 (volumes bounded below, min {conditions.c2_min:.4g}): "
          f"{'PASS' if conditions.c2_pass else 'FAIL'}")
    print(f"C3 (offsets -> 0): {'PASS' if conditions.c3_pass else 'FAIL'}")
    print(f"C1 <=> C3 (max|c| <= norm <= N^1.5 max|c| / C2 on every row): "
          f"{'PASS' if conditions.c1_c3_pass else 'FAIL'}")
    if seq.affine is not None:
        affine = affine_criterion(seq, conditions)
        print(f"affine criterion from the transform data "
              f"(cross-check {affine.max_crosscheck():.1e}): "
              f"{'PASS' if affine.side_b else 'FAIL'}, agrees with C1 and C2: "
              f"{'YES' if affine.agree else 'NO'}")
    print(f"errors decay: {'YES' if report.errors_decay() else 'NO'}")

    out = args.out or config.output
    if out:
        _write_csv(out, report.rows)
        print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cy rate
# ---------------------------------------------------------------------------

def cmd_rate(args) -> int:
    config = load_config(args.config)
    s_values = _select_s_values(args, config)
    seq = config.sequence()
    f = config.function()
    reports = {}

    def measure(row, lattice):
        reports[row.s] = bound_evaluator(lattice, f, config.radius,
                                         grid_per_axis=config.grid_per_axis)

    rows = [index_row(seq, s, measure) for s in s_values]
    if not any(row.valid for row in rows):
        raise rows[0].failure
    violations = 0
    print(f"{'s':>6s} {'norm':>12s} {'delta':>10s} {'pk_max':>12s} {'pk_bound':>12s} "
          f"{'measured':>12s} {'bound':>12s} {'ok':>3s}")
    for row in rows:
        report = reports.get(row.s)
        if report is None:
            print(f"{row.s:>6d} <family failed: {row.error}>")
            continue
        line = f"{row.s:>6d} {report.lattice_norm:>12.4g} {report.delta:>10.4g}"
        if not report.hypotheses_ok:
            print(f"{line} hypotheses not met (need norm <= {config.radius:g})")
            continue
        ok = report.pk_within_bound and report.error_within_bound
        violations += 0 if ok else 1
        print(f"{line} {report.sampled_pk_max:>12.4g} {report.pk_bound:>12.4g} "
              f"{report.measured_sup_error:>12.4g} {report.total_bound:>12.4g} "
              f"{'yes' if ok else 'NO'}")
    if not any(report.hypotheses_ok for report in reports.values()):
        print("no index satisfied the bound hypotheses")
    return EXIT_OK if violations == 0 else EXIT_FAILURE


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cy",
        description="Chung-Yao lattice construction, verification, and convergence runs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to a JSON experiment config")
    common.add_argument("--s-min", type=int, default=None, dest="s_min")
    common.add_argument("--s-max", type=int, default=None, dest="s_max")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", parents=[common],
                       help="print vertices, line subsets, and the certificate")
    p.add_argument("--out", default=None, help="also write the lattice as JSON")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("verify", parents=[common],
                       help="run the identity suite at configured tolerances")
    p.add_argument("--tol", type=float, default=None, help="override every per-check tolerance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault-inject", action="store_true", dest="fault_inject",
                   help="perturb a vertex to demonstrate failure detection")
    p.add_argument("--sign-flip", action="store_true", dest="sign_flip",
                   help="also check invariance of remainder terms under direction flips")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", parents=[common],
                       help="run the convergence experiment and emit CSV")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("rate", parents=[common],
                       help="evaluate the explicit error bound against measurements")
    p.set_defaults(func=cmd_rate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GeneralPositionError as exc:
        print(f"degenerate family: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except CyLatticeError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    return code


if __name__ == "__main__":
    sys.exit(main())
