"""The four benchmark workloads: seeded inputs, one op each, and its checks.

Every workload is a fixed list of ops (one *pass*).  Inputs come from the
seed alone: the benchmark draws normals and offsets and does any rejection
itself; the library only receives ``HyperplaneFamily.from_arrays`` families
(the ``verify`` configs carry the same arrays as hyperplane items),
evaluation points and catalog functions.  ``converge`` also runs the bundled
``affine_triangle.json`` config, which does not depend on the seed.

Families are drawn as ``random_family`` draws them (normals uniform on the
sphere, offsets uniform in [0.2, 1]), keeping the best of FAMILY_TRIES draws by
min |det| over N-subsets, then offsets are scaled so the lattice norm is 1.
The scaling fixes the lattice size across seeds, so op costs and quadrature
accuracy do not drift with the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import numpy as np

import cylattice as cy
from cylattice import cli as cy_cli
from cylattice import config as cy_config

WORKLOADS = ("converge", "remainder", "verify", "lattice")
FAMILY_TRIES = 16

# Stated tolerances of the per-op checks.
REMAINDER_RTOL = 1e-3          # relative_residual of the de Boor decomposition; see README
DEBOOR_IDENTITY_TOL = 1e-9     # times (1 + lattice norm)
DELTA_RTOL = 1e-8              # observed_delta against the min N-subset det
SLOPE_TOL = 0.25               # |fitted coeff_error slope - 1| per sequence
GOLDEN_RTOL = 1e-8             # relative tolerance against golden.json
GOLDEN_ATOL = 1e-12            # absolute floor for values near zero

CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "cylattice" / "configs"

# Op mixes per size.  "full" is what the benchmark measures; "tiny" keeps the
# self-tests fast.  The shares of the cost classes in each pass are chosen so
# that p50 and p90 fall inside one class, not on the edge between two.
SIZES = {
    "full": {
        # 8 affine_triangle rows (7 run the bound) + 8 cheap rows per N=3
        # family: p50 falls on the N=3 rows, p90 on the affine bound rows.
        "converge": {"affine_s": (2, 4, 8, 16, 32, 64, 128, 256), "n3_families": 2,
                     "n3_s": (2, 4, 8, 16, 32, 64, 128, 256)},
        # Per family: 3 points with the product function, 1 with cos.
        "remainder": {"shapes": ((2, 7), (2, 7), (3, 7), (3, 7)), "product_points": 3,
                      "cos_points": 1},
        "verify": {"shapes": ((2, 5), (2, 6), (3, 5), (3, 6))},
        # (shape, distinct families, uses of each per pass)
        "lattice": {"groups": (((4, 10), 4, 4), ((4, 12), 2, 2), ((5, 12), 1, 1))},
    },
    "tiny": {
        "converge": {"affine_s": (128, 256), "n3_families": 1, "n3_s": (64, 128, 256)},
        "remainder": {"shapes": ((2, 4),), "product_points": 1, "cos_points": 1},
        "verify": {"shapes": ((2, 4),)},
        "lattice": {"groups": (((3, 6), 1, 1),)},
    },
}

# Ball radius of the N=3 converge sequences.  Their lattice norm is 1/s >
# radius, so the bound's hypothesis never holds there: an N=3 bound row costs
# ~1.2 s, and the few a run could afford would sit on the edge of p90.  The
# bound path is timed on the affine_triangle rows instead.
N3_RADIUS = 0.001
N3_GRID_PER_AXIS = 11
REMAINDER_BALL = 0.5


@dataclass
class Op:
    """One timed call plus its untimed checks.

    `run` makes the library call; `check` returns a failure message or None;
    `record` extracts the values compared against golden.json under `key`.
    """

    key: str
    shape: tuple
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    record: Callable[[Any], dict]
    group: str = ""
    warm: bool = True              # run once untimed in set-up (first op per shape)


@dataclass
class Workload:
    ops: list
    # Checks over a whole pass: maps op group -> failure message or None.
    post_check: Callable[[dict], dict] = field(default=lambda outputs: {})


def draw_family(rng: np.random.Generator, dimension: int, count: int):
    """Seeded normals and offsets of a general-position family with lattice norm 1."""
    subsets = np.array(list(combinations(range(count), dimension)))
    best = None
    for _ in range(FAMILY_TRIES):
        normals = rng.standard_normal((count, dimension))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        offsets = rng.uniform(0.2, 1.0, size=count)
        min_det = float(np.min(np.abs(np.linalg.det(normals[subsets]))))
        if best is None or min_det > best[0]:
            best = (min_det, normals, offsets)
    _, normals, offsets = best
    vertices = np.linalg.solve(normals[subsets], offsets[subsets][..., None])[..., 0]
    offsets = offsets / float(np.max(np.linalg.norm(vertices, axis=1)))
    return normals, offsets


def _ball_point(rng: np.random.Generator, dimension: int, radius: float) -> np.ndarray:
    x = rng.standard_normal(dimension)
    return x * radius * rng.uniform() ** (1.0 / dimension) / np.linalg.norm(x)


def _affine_coeffs(rng: np.random.Generator, dimension: int):
    return rng.uniform(-1.0, 1.0, size=dimension), float(rng.uniform(-0.5, 0.5))


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def _converge_op(key, group, seq, f, s, radius, grid_per_axis, c2_threshold, shape):
    def run():
        return cy.convergence_experiment(
            seq, f, s_values=(s,), radius=radius, grid_per_axis=grid_per_axis,
            c2_threshold=c2_threshold, threads=1,
        ).rows[0]

    def check(row):
        if not row.valid:
            return f"row failed: {row.error}"
        if not math.isfinite(row.coeff_error):
            return "coeff_error is not finite"
        applicable = row.lattice_norm <= radius
        if applicable != math.isfinite(row.bound_value):
            return f"bound evaluated={math.isfinite(row.bound_value)} but hypotheses={applicable}"
        if applicable and not row.within_bound:
            return f"sup_error {row.sup_error:.3e} above bound {row.bound_value:.3e}"
        return None

    def record(row):
        return {"lattice_norm": row.lattice_norm, "c2_volume": row.c2_volume,
                "c3_offset": row.c3_offset, "sup_error": row.sup_error,
                "coeff_error": row.coeff_error, "bound_value": row.bound_value,
                "c2_pass": row.c2_pass, "within_bound": row.within_bound}

    return Op(key=key, shape=shape, run=run, check=check, record=record, group=group)


def _slope_check(outputs: dict) -> dict:
    """Fitted log-log slope of coeff_error against lattice norm is about 1."""
    by_group: dict = {}
    for (group, _key), row in outputs.items():
        if row is not None and row.valid:
            by_group.setdefault(group, []).append(row)
    failures = {}
    for group, rows in by_group.items():
        if len(rows) < 2:
            continue
        slope = cy.fit_loglog_slope([r.lattice_norm for r in rows],
                                    [r.coeff_error for r in rows])
        if not abs(slope - 1.0) <= SLOPE_TOL:
            failures[group] = f"coeff_error slope {slope:.3f} not within {SLOPE_TOL} of 1"
    return failures


def build_converge(seed: int, size: str = "full") -> Workload:
    spec = SIZES[size]["converge"]
    rng = np.random.default_rng([seed, 1])
    ops = []
    config = cy_config.load_config(CONFIG_DIR / "affine_triangle.json")
    seq, f = config.sequence(), config.function()
    for s in spec["affine_s"]:
        ops.append(_converge_op(f"converge/affine_triangle/s={s}", "affine_triangle",
                                seq, f, s, config.radius, config.grid_per_axis,
                                config.c2_threshold, (2, 3)))
    for k in range(spec["n3_families"]):
        normals, offsets = draw_family(rng, 3, 5)
        base = cy.HyperplaneFamily.from_arrays(normals, offsets)
        seq3 = cy.affine_sequence(base, lambda t: t * np.eye(3), lambda t: np.zeros(3),
                                  label=f"n3-{k}")
        coeffs, shift = _affine_coeffs(rng, 3)
        f3 = cy.ExpAffine(coeffs, shift)
        for s in spec["n3_s"]:
            ops.append(_converge_op(f"converge/seed={seed}/n3-{k}/s={s}", f"n3-{k}",
                                    seq3, f3, s, N3_RADIUS, N3_GRID_PER_AXIS,
                                    cy.convergence.DEFAULT_C2_THRESHOLD, (3, 5)))
    return Workload(ops, post_check=_slope_check)


# ---------------------------------------------------------------------------
# remainder
# ---------------------------------------------------------------------------

def build_remainder(seed: int, size: str = "full") -> Workload:
    spec = SIZES[size]["remainder"]
    rng = np.random.default_rng([seed, 2])
    ops = []
    for k, (n_dim, count) in enumerate(spec["shapes"]):
        normals, offsets = draw_family(rng, n_dim, count)
        lattice = cy.ChungYaoLattice(cy.HyperplaneFamily.from_arrays(normals, offsets))
        lines = lattice.line_subsets()
        product = cy.Product(cy.ExpAffine(*_affine_coeffs(rng, n_dim)),
                             cy.SinAffine(*_affine_coeffs(rng, n_dim)))
        cosine = cy.CosAffine(*_affine_coeffs(rng, n_dim))
        for label, f, points in (("product", product, spec["product_points"]),
                                 ("cos", cosine, spec["cos_points"])):
            interpolant = cy.interpolate(lattice, f)
            for j in range(points):
                x = _ball_point(rng, n_dim, REMAINDER_BALL)
                ops.append(_remainder_op(f"remainder/seed={seed}/fam{k}/{label}/x{j}",
                                         lattice, f, x, interpolant, lines, (n_dim, count)))
    return Workload(ops)


def _remainder_op(key, lattice, f, x, interpolant, lines, shape):
    def run():
        return cy.deboor_remainder(lattice, f, x, interpolant=interpolant, lines=lines)

    def check(dec):
        residual = dec.relative_residual()
        if not residual <= REMAINDER_RTOL:
            return f"relative residual {residual:.3e} above {REMAINDER_RTOL:.0e}"
        return None

    def record(dec):
        return {"f": dec.function_value, "interpolant": dec.interpolant_value,
                "residual_ok": dec.relative_residual() <= REMAINDER_RTOL}

    return Op(key=key, shape=shape, run=run, check=check, record=record)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def build_verify(seed: int, size: str = "full", fault_inject: bool = False) -> Workload:
    spec = SIZES[size]["verify"]
    rng = np.random.default_rng([seed, 3])
    ops = []
    for k, (n_dim, count) in enumerate(spec["shapes"]):
        normals, offsets = draw_family(rng, n_dim, count)
        items = [{"normal": n.tolist(), "offset": float(c)} for n, c in zip(normals, offsets)]
        config = cy_config.parse_config({"dimension": n_dim,
                                         "family": {"type": "hyperplanes", "items": items}})
        check_seed = int(rng.integers(2 ** 31))
        ops.append(_verify_op(f"verify/seed={seed}/fam{k}", config, check_seed,
                              fault_inject, (n_dim, count), warm=k == 0))
    return Workload(ops)


def _verify_op(key, config, check_seed, fault_inject, shape, warm):
    def run():
        return cy_cli.run_verification(config, seed=check_seed, fault_inject=fault_inject)

    def check(results):
        failed = [r.name for r in results if not r.passed]
        return f"checks failed: {', '.join(failed)}" if failed else None

    def record(results):
        return {"verdicts": [[r.name, r.passed] for r in results]}

    return Op(key=key, shape=shape, run=run, check=check, record=record, warm=warm)


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def build_lattice(seed: int, size: str = "full") -> Workload:
    spec = SIZES[size]["lattice"]
    rng = np.random.default_rng([seed, 4])
    ops = []
    for (n_dim, count), families, uses in spec["groups"]:
        drawn = [draw_family(rng, n_dim, count) for _ in range(families)]
        for k, (normals, offsets) in enumerate(drawn):
            probe = np.random.default_rng([seed, 4, n_dim, count, k])
            ops.extend(_lattice_op(f"lattice/seed={seed}/N={n_dim}/d={count}/fam{k}",
                                   normals, offsets, probe, (n_dim, count),
                                   warm=not ops)
                       for _ in range(uses))
    return Workload(ops)


def _lattice_op(key, normals, offsets, probe, shape, warm):
    n_dim, count = shape
    subsets = list(combinations(range(count), n_dim))
    picks = [subsets[i] for i in probe.choice(len(subsets), size=min(4, len(subsets)),
                                               replace=False)]
    points = probe.uniform(-1.0, 1.0, size=(4, n_dim))

    def run():
        family = cy.HyperplaneFamily.from_arrays(normals, offsets)
        lattice = cy.ChungYaoLattice(family)
        lines = lattice.line_subsets()
        return family, lattice, lines, cy.observed_delta(lattice)

    def check(out):
        family, lattice, lines, delta = out
        if len(lattice.vertices) != math.comb(count, n_dim):
            return f"{len(lattice.vertices)} vertices, expected C({count}, {n_dim})"
        if len(lines) != math.comb(count, n_dim - 1):
            return f"{len(lines)} line subsets, expected C({count}, {n_dim - 1})"
        if not abs(delta - family.report.min_det) <= DELTA_RTOL * family.report.min_det:
            return f"observed delta {delta:.6e} != min det {family.report.min_det:.6e}"
        tol = DEBOOR_IDENTITY_TOL * (1.0 + lattice.norm())
        residual = max(cy.deboor_identity_residual(lattice, s, points) for s in picks)
        if not residual <= tol:
            return f"de Boor identity residual {residual:.3e} above {tol:.1e}"
        return None

    def record(out):
        return {"vertices": out[1].vertex_array().tolist()}

    return Op(key=key, shape=shape, run=run, check=check, record=record, warm=warm)


BUILDERS = {"converge": build_converge, "remainder": build_remainder,
            "verify": build_verify, "lattice": build_lattice}


def build(name: str, seed: int, size: str = "full", fault_inject: bool = False) -> Workload:
    if name == "verify":
        return build_verify(seed, size, fault_inject=fault_inject)
    return BUILDERS[name](seed, size)


# ---------------------------------------------------------------------------
# Golden comparison
# ---------------------------------------------------------------------------

def golden_mismatch(expected, actual, path: str = "") -> str | None:
    """First difference between a golden record and a fresh one, or None.

    Floats compare at GOLDEN_RTOL relative (GOLDEN_ATOL absolute floor);
    booleans, strings and NaN placement compare exactly.
    """
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        for k in expected:
            diff = golden_mismatch(expected[k], actual[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(expected, list):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(expected):
            return f"{path}: length differs"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = golden_mismatch(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(expected, (bool, str)) or expected is None:
        return None if expected == actual else f"{path}: {actual!r} != {expected!r}"
    e, a = float(expected), float(actual)
    if math.isnan(e) or math.isnan(a):
        return None if math.isnan(e) and math.isnan(a) else f"{path}: {a!r} != {e!r}"
    if abs(a - e) <= max(GOLDEN_ATOL, GOLDEN_RTOL * abs(e)):
        return None
    return f"{path}: {a!r} != {e!r} (rtol {GOLDEN_RTOL:.0e})"
