"""Secant composition and the induced abelian group law on plane cubics.

The mechanism is the same gradient identity as on the surface, one
dimension down.  Smoothness is only required pointwise: pullback cubics
from the split-surface model can be singular, and composition is still
fine away from the singular locus.

Over F_p the points of a cubic are also handled as int64 rows of residues
mod p: `curve_rows` scans P^2 for them with `geometry.eval_rows`.  A batch
of such rows has its gradient from `geometry.gradient_rows` and its
compositions from `surface.compose_rows`, which take the field's p; the
composed rows are canonical, so rows compare with `==`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EqualPoints, LineOnCurve, NotOnSurface, SingularPoint
from .geometry import (
    CubicForm,
    Field,
    ProjPoint,
    RATIONALS,
    dot,
    eval_form,
    eval_rows,
    gradient,
    normalize,
)
from .surface import third_point


@dataclass(frozen=True)
class PlaneCubic:
    form: CubicForm
    field: Field = RATIONALS

    def __post_init__(self):
        if self.form.dim != 3:
            raise ValueError("plane cubic needs a form in 3 variables")

    def contains(self, x: ProjPoint) -> bool:
        return eval_form(self.form, x) == 0


def _smooth_gradient(curve: PlaneCubic, x: ProjPoint) -> tuple[int, ...]:
    """The gradient at x, after checking that x is a smooth point of the cubic."""
    if not curve.contains(x):
        raise NotOnSurface(f"{x} is not on the cubic")
    g = gradient(curve.form, x)
    if not any(g):
        raise SingularPoint(f"{x} is a singular point of the cubic")
    return g


def cubic_compose(curve: PlaneCubic, x: ProjPoint, y: ProjPoint) -> ProjPoint:
    """Third intersection of the line through x, y with the cubic.

    `third_point` reuses the smoothness checks' gradients.
    """
    if x == y:
        raise EqualPoints(f"composition is multivalued at x = y ({x})")
    z = third_point(x, y, _smooth_gradient(curve, x), _smooth_gradient(curve, y))
    if z is None:
        raise LineOnCurve(f"line through {x} and {y} is a component of the cubic")
    return z


def group_add(
    curve: PlaneCubic, e: ProjPoint, x: ProjPoint, y: ProjPoint
) -> ProjPoint:
    """The group law x + y := e o (x o y) with identity e."""
    w = cubic_compose(curve, x, y)
    if w == e:
        # e o e: third intersection of the tangent line at e
        return _tangent_value(curve, e)
    return cubic_compose(curve, e, w)


def _tangent_value(curve: PlaneCubic, x: ProjPoint) -> ProjPoint:
    """Third intersection of the tangent line at a smooth point x."""
    g = _smooth_gradient(curve, x)
    # pick any second point on the tangent line g . v = 0 distinct from x
    i = next(i for i, c in enumerate(g) if c != 0)
    for j in range(3):
        if j == i:
            continue
        v = [0, 0, 0]
        v[j] = g[i]
        v[i] = -g[j]
        if any(v):
            y = normalize(v, curve.field)
            if y != x:
                break
    else:
        raise SingularPoint(f"no tangent direction at {x}")
    # F(x + t*y) = c2 t^2 + c3 t^3: c0 = F(x) = 0 on the curve and
    # c1 = grad F(x)·y = 0 on the tangent line, so t = 0 is a double root
    c2 = dot(gradient(curve.form, y), x.coords, x.field.p)
    c3 = eval_form(curve.form, y)
    if c2 == 0 and c3 == 0:
        raise LineOnCurve(f"tangent line at {x} is a component of the cubic")
    if c3 == 0:
        return y  # remaining intersection sits at the parameter point y
    # roots of c2 t^2 + c3 t^3: t = 0 double (x), then t = -c2/c3
    raw = [c3 * a - c2 * b for a, b in zip(x.coords, y.coords)]
    return normalize(raw, curve.field)


# Representatives of P^2 that `curve_rows` tests at once; it bounds the scan's memory at any p.
_SCAN_ROWS = 1 << 16


def curve_rows(curve: PlaneCubic) -> np.ndarray:
    """All points of the cubic over its prime field, as int64 rows of residues.

    The scan runs over the normalized representatives in the order
    (1, a, b) by a then b, (0, 1, b), (0, 0, 1): the n-th is read off
    divmod(n, p), a block of `_SCAN_ROWS` at a time.
    """
    p = curve.field.p
    if p is None:
        raise ValueError("exhaustive scan needs a finite field")
    n = p * p + p + 1
    found = []
    for lo in range(0, n, _SCAN_ROWS):
        a, b = np.divmod(np.arange(lo, min(lo + _SCAN_ROWS, n), dtype=np.int64), p)
        X = np.column_stack([a < p, np.where(a < p, a, a == p), np.where(a > p, 1, b)])
        found.append(X[eval_rows(curve.form, X, p) == 0])
    return np.concatenate(found)
