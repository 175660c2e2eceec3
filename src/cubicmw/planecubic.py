"""Secant composition and the induced abelian group law on plane cubics.

The mechanism is the same gradient identity as on the surface, one
dimension down.  Smoothness is only required pointwise: pullback cubics
from the split-surface model can be singular, and composition is still
fine away from the singular locus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EqualPoints, LineOnCurve, NotOnSurface, SingularPoint
from .geometry import (
    CubicForm,
    Field,
    ProjPoint,
    RATIONALS,
    dot,
    eval_form,
    gradient,
    normalize,
)


@dataclass(frozen=True)
class PlaneCubic:
    form: CubicForm
    field: Field = RATIONALS

    def __post_init__(self):
        if self.form.dim != 3:
            raise ValueError("plane cubic needs a form in 3 variables")

    def contains(self, x: ProjPoint) -> bool:
        return eval_form(self.form, x) == 0

    def is_smooth_at(self, x: ProjPoint) -> bool:
        return any(gradient(self.form, x))


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

    c1 = grad F(x)·y and c2 = grad F(y)·x reuse the smoothness checks' gradients.
    """
    if x == y:
        raise EqualPoints(f"composition is multivalued at x = y ({x})")
    c1 = dot(_smooth_gradient(curve, x), y.coords, x.field.p)
    c2 = dot(_smooth_gradient(curve, y), x.coords, x.field.p)
    if c1 == 0 and c2 == 0:
        raise LineOnCurve(f"line through {x} and {y} is a component of the cubic")
    raw = [c2 * a - c1 * b for a, b in zip(x.coords, y.coords)]
    return normalize(raw, curve.field)


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


def curve_points(curve: PlaneCubic) -> list[ProjPoint]:
    """All points of the cubic over its prime field, by exhaustive scan."""
    p = curve.field.p
    if p is None:
        raise ValueError("exhaustive scan needs a finite field")
    pts = []
    reps = [(1, a, b) for a in range(p) for b in range(p)]
    reps += [(0, 1, b) for b in range(p)]
    reps.append((0, 0, 1))
    for raw in reps:
        x = ProjPoint(raw, curve.field)
        if curve.contains(x):
            pts.append(x)
    return pts
