"""The cubic surface and its secant/tangent composition law.

x o y is the third intersection of the line through x, y with the surface;
it is partial (undefined when the line lies on the surface) and multivalued
at x = y, where the value set is the tangent-plane section.  The latter is
exposed as the binary relation `on_tangent_section`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EqualPoints, InvalidCoefficients, LineOnSurface, NotOnSurface
from .geometry import CubicForm, ProjPoint, dot, eval_form, gradient, normalize


def height(x: ProjPoint) -> int:
    """Sum of absolute values of the normalized coordinates."""
    return sum(map(abs, x.coords))


@dataclass(frozen=True)
class CubicSurface:
    form: CubicForm
    label: str = ""

    def __post_init__(self):
        diag = {e.index(3): c for e, c in self.form.coeffs.items() if 3 in e}
        if len(diag) == len(self.form.coeffs) and self.form.dim == 4:
            if len(diag) < 4:
                raise InvalidCoefficients(
                    "diagonal surface with a zero coefficient is singular"
                )

    @classmethod
    def diagonal(cls, coefficients, label: str = "") -> "CubicSurface":
        return cls(CubicForm.diagonal(coefficients), label)


@dataclass(frozen=True)
class SurfacePoint:
    point: ProjPoint
    height: int

    @property
    def coords(self):
        return self.point.coords

    def __repr__(self):
        return repr(self.point)


def surface_point(surface: CubicSurface, x: ProjPoint) -> SurfacePoint:
    """Wrap a point after checking it satisfies the surface equation."""
    if eval_form(surface.form, x) != 0:
        raise NotOnSurface(f"{x} is not on {surface.label or 'the surface'}")
    return SurfacePoint(x, height(x))


def secant_compose(
    surface: CubicSurface, x: SurfacePoint, y: SurfacePoint
) -> SurfacePoint:
    """Third intersection of the secant line through x and y with the surface.

    May return x or y itself (tangency); raises EqualPoints at x = y and
    LineOnSurface when the whole line lies on the surface.  F(x + t*y) has
    middle coefficients c1 = grad F(x)·y and c2 = grad F(y)·x, and its third
    root t = -c1/c2 gives c2·x - c1·y.
    """
    xp, yp = x.point, y.point
    if xp == yp:
        raise EqualPoints(f"x o x is multivalued; use on_tangent_section ({x})")
    c1 = dot(gradient(surface.form, xp), yp.coords, xp.field.p)
    c2 = dot(gradient(surface.form, yp), xp.coords, xp.field.p)
    if c1 == 0 and c2 == 0:
        raise LineOnSurface(f"line through {x} and {y} lies on the surface")
    raw = [c2 * a - c1 * b for a, b in zip(xp.coords, yp.coords)]
    z = normalize(raw, xp.field)
    return SurfacePoint(z, height(z))


def on_tangent_section(
    surface: CubicSurface, x: SurfacePoint, y: SurfacePoint
) -> bool:
    """Whether x lies on the tangent-plane section at y (the relation x = y o y)."""
    if x.point == y.point:
        raise EqualPoints(f"tangent relation needs x != y ({x})")
    return dot(gradient(surface.form, y.point), x.coords, x.point.field.p) == 0
