"""The cubic surface and its secant/tangent composition law.

x o y is the third intersection of the line through x, y with the surface;
it is partial (undefined when the line lies on the surface) and multivalued
at x = y, where the value set is the tangent-plane section.  The latter is
exposed as the binary relation `on_tangent_section`.  `third_point` is
the composition of one point pair on any cubic, given the gradients.  A
batch of pairs is composed projectively by `third_rows`: each row is a
nonzero multiple of x o y where it is defined and zero where it is not,
whatever the scale of the input rows, so a chain of compositions needs a
canonical form only where points are compared; `compose_rows` is that
canonical form of `third_rows`.  Both run over Q on the rows of
`point_rows` and over F_p on int64 rows of residues, and both serve plane
cubics too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EqualPoints, InvalidCoefficients, LineOnSurface, NotOnSurface
from .geometry import (
    CubicForm,
    ProjPoint,
    canonical_rows,
    dot,
    dot_rows,
    eval_form,
    gradient,
    gradient_dot_rows,
    gradient_rows,
    normalize,
)

# point_rows gives int64 rows while every composition of two of them stays
# below this
_INT64_BOUND = 2**63


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


def third_point(x: ProjPoint, y: ProjPoint, gx, gy) -> ProjPoint | None:
    """The third point of a cubic on the line through the distinct points x, y.

    gx and gy are the cubic's gradients at x and y.  F(x + t*y) has middle
    coefficients c1 = gx·y and c2 = gy·x, and its third root t = -c1/c2
    gives c2·x - c1·y.  None when c1 = c2 = 0: the whole line lies on the cubic.
    """
    p = x.field.p
    c1 = dot(gx, y.coords, p)
    c2 = dot(gy, x.coords, p)
    if c1 == 0 and c2 == 0:
        return None
    return normalize([c2 * a - c1 * b for a, b in zip(x.coords, y.coords)], x.field)


def secant_compose(surface: CubicSurface, x: ProjPoint, y: ProjPoint) -> ProjPoint:
    """Third intersection of the secant line through x and y with the surface.

    May return x or y itself (tangency); raises EqualPoints at x = y and
    LineOnSurface when the whole line lies on the surface.
    """
    if x == y:
        raise EqualPoints(f"x o x is multivalued; use on_tangent_section ({x})")
    z = third_point(x, y, gradient(surface.form, x), gradient(surface.form, y))
    if z is None:
        raise LineOnSurface(f"line through {x} and {y} lies on the surface")
    return z


def point_rows(form: CubicForm, points) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates P and the gradients G of points over Q, one row each.

    The rows are int64 when 32·max|grad F|·max|x|², which bounds the
    unnormalized height |c2·x − c1·y|_1 of the composition of any two of
    the points, stays below 2^63, and Python ints otherwise, so no entry
    of a composition of two rows ever wraps.
    """
    P = np.array([x.coords for x in points], dtype=object)
    G = gradient_rows(form, P)
    if 32 * np.abs(G).max() * np.abs(P).max() ** 2 < _INT64_BOUND:
        return P.astype(np.int64), G.astype(np.int64)
    return P, G


def third_rows(
    form: CubicForm, X, Y, GX=None, GY=None, p: int | None = None, divide: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """(c2·x − c1·y, c1) for each row pair of X and Y: `secant_compose` up to a scalar.

    X, Y, GX and GY are as for `compose_rows`; a missing gradient is dotted
    term by term.  c1 = grad F(x)·y and c2 = grad F(y)·x.  The row is zero
    exactly where `secant_compose` raises (distinct points are independent;
    at y = λx Euler's identity gives c2·x = c1·y) or an input row is zero,
    and at λx and μy it is λ²μ² times the row at x and y; c1 is zero
    exactly there and where the row is a multiple of x.
    Over Q, unless divide is False, c1 and c2 are first divided by
    gcd(c1, c2), a multiple of λμ, so a chain does not pile up its steps'
    scalars, and the row is an object row of Python ints: a composed
    point's gradient can pass 2^63 where the points' own cannot.  On int64
    rows of `point_rows` the undivided row already fits in int64.  Over F_p
    the rows are int64 and hold the row's residues.
    """
    c1 = gradient_dot_rows(form, X, Y, p) if GX is None else dot_rows(GX, Y, p)
    c2 = gradient_dot_rows(form, Y, X, p) if GY is None else dot_rows(GY, X, p)
    if p is None and divide:
        g = np.gcd(c1, c2)
        g[g == 0] = 1
        c1, c2 = c1 // g, c2 // g
    raw = c2[:, None] * X
    raw -= c1[:, None] * Y  # in place: one array of big integers fewer at the peak
    return (raw if p is not None else raw.astype(object, copy=False)), c1


def compose_rows(
    form: CubicForm, X, Y, GX=None, GY=None, p: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """`secant_compose` of each row pair of X and Y, as canonical rows.

    Over Q, X and Y are rows of `point_rows` or 2-d object arrays of
    Python ints, projective vectors in any scale; over F_p they are int64
    rows of residues, normalized or not.  GX and GY are their rows'
    gradients when already known, in the dtype of their rows.  Returns
    (Z, ok): Z the `normalize` of each row of `third_rows`, int64 over F_p
    and an object array over Q, and ok False exactly where
    `secant_compose` raises, where Z's row is zero.
    """
    return canonical_rows(third_rows(form, X, Y, GX, GY, p)[0], p)


def on_tangent_section(surface: CubicSurface, x: ProjPoint, y: ProjPoint) -> bool:
    """Whether x lies on the tangent-plane section at y (the relation x = y o y)."""
    if x == y:
        raise EqualPoints(f"tangent relation needs x != y ({x})")
    return dot(gradient(surface.form, y), x.coords, x.field.p) == 0
