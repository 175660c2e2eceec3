"""Secant composition and the induced abelian group law on plane cubics.

The mechanism is the same gradient identity as on the surface, one
dimension down.  Smoothness is only required pointwise: pullback cubics
from the split-surface model can be singular, and composition is still
fine away from the singular locus.

Over F_p the points of a cubic are also handled as int64 rows of residues
mod p: `curve_rows` scans P^2 for them, `gradient_mod_rows` and
`chord_rows` are the gradient and the composition of a batch of rows, and
`same_rows` compares rows projectively.  `Field` keeps p below 2^31, so
every residue is below 2^31 and every product of two below 2^62; each
product is reduced at once, so no entry can wrap for any field.
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
        value = np.zeros(len(X), dtype=np.int64)
        for c, i, j, k in curve.form._terms:
            value += c % p * (X[:, i] * X[:, j] % p) % p * X[:, k] % p
            value %= p
        found.append(X[value == 0])
    return np.concatenate(found)


def curve_points(curve: PlaneCubic) -> list[ProjPoint]:
    """All points of the cubic over its prime field, in the scan order of `curve_rows`."""
    return [ProjPoint(tuple(x), curve.field) for x in curve_rows(curve).tolist()]


def gradient_mod_rows(curve: PlaneCubic, X: np.ndarray) -> np.ndarray:
    """The gradient mod p at each row of X, rows of int64 residues."""
    p = curve.field.p
    G = np.zeros(X.shape, dtype=np.int64)
    for t, c, a, b in curve.form._grad_terms:
        G[:, t] += c % p * (X[:, a] * X[:, b] % p) % p
        G[:, t] %= p
    return G


def chord_rows(
    curve: PlaneCubic, X: np.ndarray, Y: np.ndarray, GX=None, GY=None
) -> tuple[np.ndarray, np.ndarray]:
    """`cubic_compose` of each row pair of X and Y, points of the cubic over F_p.

    X and Y are int64 rows of residues, normalized or not; GX and GY are
    their gradients when already known.  Returns (Z, ok): Z = c2·X − c1·Y
    mod p, not normalized, with c1 = grad F(X)·Y and c2 = grad F(Y)·X.  ok is
    False exactly where `cubic_compose` raises EqualPoints or LineOnCurve:
    both make Z the zero vector, and only they do (at Y = λX, Euler's
    identity gives c2·X = c1·Y).
    """
    p = curve.field.p
    GX = gradient_mod_rows(curve, X) if GX is None else GX
    GY = gradient_mod_rows(curve, Y) if GY is None else GY
    c1 = (GX * Y % p).sum(axis=1) % p
    c2 = (GY * X % p).sum(axis=1) % p
    Z = (c2[:, None] * X - c1[:, None] * Y) % p
    return Z, Z.any(axis=1)


def same_rows(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """Whether each row pair of residues is one point of P^2: X × Y ≡ 0 mod p."""
    return (np.cross(X, Y) % p == 0).all(axis=1)
