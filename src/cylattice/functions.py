"""Evaluatable functions with exact directional derivatives.

The interpolation and remainder machinery needs f(x) and the iterated
directional derivatives D_{v_1}...D_{v_s} f(x) in closed form.  This module
provides a small catalog: polynomials, exp/sin/cos of affine forms, products
and linear combinations of catalog members.  No numerical differentiation
happens here; finite differences exist only as a test oracle.  Members
without a polynomial factor also give their form as the real part of a sum
of complex exponential ridges (`ridges()`), one ridge per conjugate pair,
which divided differences use in closed form.

All `evaluate` / `directional_derivative` methods accept a single point of
shape (N,) or a batch of shape (M, N) and return a float or an (M,) array
accordingly, which keeps simplex quadrature vectorized.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import DerivativeOrderError
from .poly import MultiPoly

_INF = math.inf


class SmoothFunction:
    """Base class: a function with directional derivatives up to `max_order`."""

    dimension: int
    max_order: float = _INF

    def evaluate(self, x):
        raise NotImplementedError

    def directional_derivative(self, x, vectors: Sequence[Sequence[float]]):
        """D_{v_1} ... D_{v_s} f evaluated at x (s = len(vectors))."""
        raise NotImplementedError

    def _check_order(self, s: int):
        if s > self.max_order:
            raise DerivativeOrderError(
                f"derivative order {s} exceeds declared smoothness {self.max_order}"
            )

    def ridges(self):
        """f as the real part of a sum of complex exponential ridges, or None.

        Returns read-only complex arrays (amps (R,), C (R, N), b (R,)) with
        f(x) = Re sum_r amps[r] exp(<C[r], x> + b[r]).  The form is canonical:
        no two ridges share (C, b) and no ridge is the conjugate of another,
        so sin and cos are one ridge each.  Sums and products of ridge
        functions are again ridge functions.  The form is built once per
        object by `_ridge_form` and kept.  None means f has no such form here
        (polynomials, user subclasses).
        """
        if "_ridge_cache" not in self.__dict__:
            form = self._ridge_form()
            for array in form or ():
                array.setflags(write=False)
            self._ridge_cache = form
        return self._ridge_cache

    def _ridge_form(self):
        """The canonical ridge form (amps, C, b) that `ridges` keeps, or None."""
        return None

    def __call__(self, x):
        return self.evaluate(x)


def _as_points(x, dimension: int):
    """Normalize x to (points, batched) with points of shape (M, N)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size != dimension:
            raise ValueError(f"point has size {arr.size}, expected {dimension}")
        return arr[None, :], False
    if arr.ndim == 2 and arr.shape[1] == dimension:
        return arr, True
    raise ValueError(f"bad point array shape {arr.shape} for dimension {dimension}")


def _unbatch(values: np.ndarray, batched: bool):
    return values if batched else float(values[0])


def _merged(amps: np.ndarray, c: np.ndarray, b: np.ndarray):
    """The canonical form of Re sum_r amps[r] exp(<c[r], x> + b[r]).

    A ridge with the (c, b) of an earlier one adds its coefficient to it, and
    one with the conjugate (c, b) adds the conjugate coefficient, since
    Re(a e^z) + Re(a' e^conj(z)) = Re((a + conj a') e^z).  The first ridge
    of each class keeps its place and orientation.
    """
    rows, kept, out = {}, [], []
    for r, key in enumerate(map(tuple, np.column_stack([c, b]).tolist())):
        if key in rows:
            out[rows[key]] += amps[r]
        elif (conj := tuple(z.conjugate() for z in key)) in rows:
            out[rows[conj]] += amps[r].conjugate()
        else:
            rows[key] = len(kept)
            kept.append(r)
            out.append(amps[r])
    return np.array(out, dtype=complex), c[kept], b[kept]


class PolynomialFunction(SmoothFunction):
    """A MultiPoly wrapped as a smooth function (derivatives are formal)."""

    def __init__(self, poly: MultiPoly):
        self.poly = poly
        self.dimension = poly.dimension

    @classmethod
    def monomial(cls, dimension: int, alpha: Sequence[int]) -> "PolynomialFunction":
        return cls(MultiPoly.monomial(dimension, alpha))

    def derivative_poly(self, vectors) -> MultiPoly:
        q = self.poly
        for v in vectors:
            q = q.directional(v)
        return q

    def _values(self, poly: MultiPoly, x):
        points, batched = _as_points(x, self.dimension)
        # A single point takes MultiPoly.evaluate: for one point its fsum
        # loop is several times faster than the array path.
        return poly.evaluate_many(points) if batched else poly.evaluate(points[0])

    def evaluate(self, x):
        return self._values(self.poly, x)

    def directional_derivative(self, x, vectors):
        self._check_order(len(vectors))
        return self._values(self.derivative_poly(vectors), x)

    def __repr__(self):
        return f"PolynomialFunction({self.poly!r})"


class _AffineComposed(SmoothFunction):
    """Base for g(<c, x> + shift) with g from a one-dimensional family.

    A scaled member w * g(...) is `LinearCombination([(w, member)])`.
    """

    def __init__(self, coeffs: Sequence[float], shift: float = 0.0):
        self.coeffs = np.array(coeffs, dtype=float)
        self.coeffs.setflags(write=False)  # a kept ridge form cannot go stale
        self.shift = float(shift)
        self.dimension = self.coeffs.size

    def _argument(self, points: np.ndarray) -> np.ndarray:
        return points @ self.coeffs + self.shift

    def _outer(self, z: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError

    def _ridge(self, amp: complex, phase: complex):
        """The one ridge amp * exp(phase * (<coeffs, x> + shift))."""
        phase = np.array([phase], dtype=complex)
        return np.array([amp], dtype=complex), phase[:, None] * self.coeffs, phase * self.shift

    def evaluate(self, x):
        points, batched = _as_points(x, self.dimension)
        return _unbatch(self._outer(self._argument(points), 0), batched)

    def directional_derivative(self, x, vectors):
        self._check_order(len(vectors))
        points, batched = _as_points(x, self.dimension)
        factor = math.prod(float(np.asarray(v, dtype=float) @ self.coeffs) for v in vectors)
        vals = factor * self._outer(self._argument(points), len(vectors))
        return _unbatch(vals, batched)


class ExpAffine(_AffineComposed):
    """exp(<coeffs, x> + shift); all derivatives in closed form."""

    def _outer(self, z, order):
        return np.exp(z)

    def _ridge_form(self):
        return self._ridge(1.0, 1.0)

    def __repr__(self):
        return f"ExpAffine(coeffs={self.coeffs.tolist()}, shift={self.shift})"


class SinAffine(_AffineComposed):
    """sin(<coeffs, x> + shift)."""

    def _outer(self, z, order):
        return np.sin(z + order * math.pi / 2.0)

    def _ridge_form(self):
        # sin z = Re(-i e^{iz}); 0.0 - 1j, unlike -1j, has real part +0.0
        return self._ridge(0.0 - 1j, 1j)


class CosAffine(_AffineComposed):
    """cos(<coeffs, x> + shift)."""

    def _outer(self, z, order):
        return np.cos(z + order * math.pi / 2.0)

    def _ridge_form(self):
        # cos z = Re e^{iz}
        return self._ridge(1.0, 1j)


class Product(SmoothFunction):
    """Pointwise product of two catalog members (Leibniz rule, exact)."""

    def __init__(self, left: SmoothFunction, right: SmoothFunction):
        if left.dimension != right.dimension:
            raise ValueError("dimension mismatch")
        self.left = left
        self.right = right
        self.dimension = left.dimension
        self.max_order = min(left.max_order, right.max_order)

    def evaluate(self, x):
        return self.left.evaluate(x) * self.right.evaluate(x)

    def directional_derivative(self, x, vectors):
        self._check_order(len(vectors))
        s = len(vectors)
        idx = range(s)
        total = 0.0
        for k in range(s + 1):
            for subset in combinations(idx, k):
                rest = tuple(i for i in idx if i not in subset)
                lval = self.left.directional_derivative(x, [vectors[i] for i in subset])
                rval = self.right.directional_derivative(x, [vectors[i] for i in rest])
                total = total + lval * rval
        return total

    def _ridge_form(self):
        left, right = self.left.ridges(), self.right.ridges()
        if left is None or right is None:
            return None
        (la, lc, lb), (ra, rc, rb) = left, right
        # Re X Re Y = (Re(XY) + Re(X conj Y)) / 2 and exp(u) exp(w) = exp(u + w):
        # each pair of ridges gives one ridge of XY and one of X conj Y.
        ra, rc, rb = (np.concatenate([a, a.conj()]) for a in (ra, rc, rb))
        return _merged(0.5 * np.outer(la, ra).ravel(),
                       (lc[:, None, :] + rc[None, :, :]).reshape(-1, self.dimension),
                       (lb[:, None] + rb[None, :]).ravel())


class LinearCombination(SmoothFunction):
    """sum_k weight_k * f_k for catalog members f_k."""

    def __init__(self, terms: Sequence[tuple[float, SmoothFunction]]):
        if not terms:
            raise ValueError("empty combination")
        self.terms = [(float(w), f) for w, f in terms]
        self.dimension = self.terms[0][1].dimension
        for _, f in self.terms:
            if f.dimension != self.dimension:
                raise ValueError("dimension mismatch")
        self.max_order = min(f.max_order for _, f in self.terms)

    def evaluate(self, x):
        total = 0.0
        for w, f in self.terms:
            total = total + w * f.evaluate(x)
        return total

    def directional_derivative(self, x, vectors):
        self._check_order(len(vectors))
        total = 0.0
        for w, f in self.terms:
            total = total + w * f.directional_derivative(x, vectors)
        return total

    def _ridge_form(self):
        parts = [f.ridges() for _, f in self.terms]
        if any(part is None for part in parts):
            return None
        return _merged(np.concatenate([w * a for (w, _), (a, _, _) in zip(self.terms, parts)]),
                       np.concatenate([c for _, c, _ in parts]),
                       np.concatenate([b for _, _, b in parts]))


class RestrictedOrder(SmoothFunction):
    """Wrapper declaring a finite smoothness class for an inner function.

    Used to exercise capability errors: derivative requests beyond the
    declared order raise even if the wrapped function could provide them.
    """

    def __init__(self, inner: SmoothFunction, max_order: int):
        self.inner = inner
        self.dimension = inner.dimension
        self.max_order = int(max_order)

    def evaluate(self, x):
        return self.inner.evaluate(x)

    def directional_derivative(self, x, vectors):
        self._check_order(len(vectors))
        return self.inner.directional_derivative(x, vectors)

    def _ridge_form(self):
        return self.inner.ridges()
