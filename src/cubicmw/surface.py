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
        """a1*x1^3 + a2*x2^3 + a3*x3^3 + a4*x4^3 from four nonzero coefficients."""
        a = tuple(coefficients)
        if len(a) != 4 or 0 in a:
            raise InvalidCoefficients(f"need four nonzero coefficients, got {a}")
        return cls(CubicForm.diagonal(a), label)


def surface_point(surface: CubicSurface, x: ProjPoint) -> ProjPoint:
    """The point x itself, after checking that it satisfies the surface equation."""
    if eval_form(surface.form, x) != 0:
        raise NotOnSurface(f"{x} is not on {surface.label or 'the surface'}")
    return x


def secant_compose(surface: CubicSurface, x: ProjPoint, y: ProjPoint) -> ProjPoint:
    """Third intersection of the secant line through x and y with the surface.

    May return x or y itself (tangency); raises EqualPoints at x = y and
    LineOnSurface when the whole line lies on the surface.  F(x + t*y) has
    middle coefficients c1 = grad F(x)·y and c2 = grad F(y)·x, and its third
    root t = -c1/c2 gives c2·x - c1·y.
    """
    if x == y:
        raise EqualPoints(f"x o x is multivalued; use on_tangent_section ({x})")
    c1 = dot(gradient(surface.form, x), y.coords, x.field.p)
    c2 = dot(gradient(surface.form, y), x.coords, x.field.p)
    if c1 == 0 and c2 == 0:
        raise LineOnSurface(f"line through {x} and {y} lies on the surface")
    raw = [c2 * a - c1 * b for a, b in zip(x.coords, y.coords)]
    return normalize(raw, x.field)


def on_tangent_section(surface: CubicSurface, x: ProjPoint, y: ProjPoint) -> bool:
    """Whether x lies on the tangent-plane section at y (the relation x = y o y)."""
    if x == y:
        raise EqualPoints(f"tangent relation needs x != y ({x})")
    return dot(gradient(surface.form, y), x.coords, x.field.p) == 0
