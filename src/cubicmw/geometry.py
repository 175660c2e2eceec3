"""Exact projective arithmetic over Q and small prime fields.

Projective vectors (points, and by duality lines and planes) and integer
cubic forms with evaluation and gradient.  All arithmetic is exact; nothing
here uses floating point.  The value, the gradient, its dot product with a
second point and the canonical form also run on batches of points, one
point a row: over Q int64 rows or object rows of Python ints, over F_p
int64 rows of residues.  Their arithmetic is elementwise, so one loop
serves a point and a batch.
`Field` keeps p below 2^31, so a residue is below 2^31 and a product of
two below 2^62; over F_p each product is reduced as soon as it is formed,
and no int64 entry wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CoincidentLines,
    CoincidentPoints,
    DimensionMismatch,
    ZeroVector,
)

_PRIME_CAP = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field tag: p=None means Q, otherwise the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not (self.p < _PRIME_CAP and _is_prime(self.p)):
                raise ValueError(f"not a prime below 2^31: {self.p}")

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"


RATIONALS = Field(None)


def _canonical(raw: Sequence[int], field: Field) -> tuple[int, ...]:
    """Canonical representative of a projective vector (point or dual)."""
    v = [int(c) for c in raw]
    if field.p is None:
        g = math.gcd(*v)
        if g == 0:
            raise ZeroVector(f"zero vector {tuple(raw)}")
        v = [c // g for c in v]
        for c in v:
            if c != 0:
                if c < 0:
                    v = [-x for x in v]
                break
        return tuple(v)
    p = field.p
    v = [c % p for c in v]
    lead = next((c for c in v if c != 0), 0)
    if lead == 0:
        raise ZeroVector(f"zero vector mod {p}: {tuple(raw)}")
    inv = pow(lead, -1, p)
    return tuple((c * inv) % p for c in v)


@dataclass(frozen=True)
class ProjPoint:
    """Normalized homogeneous coordinates of a projective vector.

    A point of P^2 or P^3, or by duality a line of P^2 or a plane of P^3
    given by its dual coordinates.
    """

    coords: tuple[int, ...]
    field: Field = RATIONALS

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __repr__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def normalize(raw: Sequence[int], field: Field = RATIONALS) -> ProjPoint:
    """Canonical projective vector: primitive, sign-fixed (Q) or monic-lead (F_p)."""
    if len(raw) not in (3, 4):
        raise DimensionMismatch(f"expected 3 or 4 coordinates, got {len(raw)}")
    return ProjPoint(_canonical(raw, field), field)


def _check_plane(a: ProjPoint, b: ProjPoint) -> None:
    """Both vectors over one field and of dimension 3: points or lines of P^2."""
    if a.field != b.field:
        raise DimensionMismatch(f"vectors over different fields: {a.field}, {b.field}")
    if a.dim != 3 or b.dim != 3:
        raise DimensionMismatch(f"need vectors of P^2, got {a} and {b}")


def _cross(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def line_through(a: ProjPoint, b: ProjPoint) -> ProjPoint:
    """Dual coordinates of the unique line of P^2 through the distinct points a, b."""
    _check_plane(a, b)
    if a.coords == b.coords:
        raise CoincidentPoints(f"{a} = {b}")
    return normalize(_cross(a.coords, b.coords), a.field)


def meet(l1: ProjPoint, l2: ProjPoint) -> ProjPoint:
    """Intersection point of two distinct lines of P^2."""
    _check_plane(l1, l2)
    if l1.coords == l2.coords:
        raise CoincidentLines(f"{l1.coords} = {l2.coords}")
    return normalize(_cross(l1.coords, l2.coords), l1.field)


def dot(u: Sequence[int], v: Sequence[int], p: int | None = None) -> int:
    """Exact dot product, reduced mod p over F_p."""
    d = sum(map(mul, u, v))
    return d if p is None else d % p


def dot_rows(U: np.ndarray, V: np.ndarray, p: int | None = None) -> np.ndarray:
    """`dot` of each row pair of U and V: ints over Q, or residues mod p over F_p."""
    if p is None:
        return (U * V).sum(axis=1)
    return (U * V % p).sum(axis=1) % p


@dataclass
class CubicForm:
    """Integer homogeneous cubic form, stored sparsely by exponent multi-index."""

    dim: int
    coeffs: dict[tuple[int, ...], int]
    # compiled once: (c, i, j, k) per monomial c*v_i*v_j*v_k, and
    # (t, c*e, a, b) per partial derivative c*e*v_a*v_b in variable t
    _terms: tuple = field(init=False, repr=False, compare=False)
    _grad_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cleaned = {}
        for expo, c in self.coeffs.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.dim or any(e < 0 for e in expo) or sum(expo) != 3:
                raise ValueError(f"bad degree-3 exponent index {expo}")
            if c:
                cleaned[expo] = int(c)
        if not cleaned:
            raise ValueError("zero cubic form")
        self.coeffs = cleaned
        terms, grad_terms = [], []
        for expo, c in cleaned.items():
            idx = [i for i, e in enumerate(expo) for _ in range(e)]
            terms.append((c, *idx))
            for t, e in enumerate(expo):
                if e:
                    rest = list(idx)
                    rest.remove(t)
                    grad_terms.append((t, c * e, *rest))
        self._terms = tuple(terms)
        self._grad_terms = tuple(grad_terms)

    @classmethod
    def diagonal(cls, coefficients: Iterable[int]) -> "CubicForm":
        """Sum a_i x_i^3 from the given diagonal coefficients."""
        a = [int(c) for c in coefficients]
        n = len(a)
        coeffs = {}
        for i, ai in enumerate(a):
            expo = [0] * n
            expo[i] = 3
            coeffs[tuple(expo)] = ai
        return cls(n, coeffs)


def _check_dims(form: CubicForm, *points: ProjPoint) -> None:
    for x in points:
        if len(x.coords) != form.dim:
            raise DimensionMismatch(
                f"form in {form.dim} variables, point has {x.dim} coordinates"
            )


def _value(form: CubicForm, v, p: int | None = None):
    """F at v, whose entries are ints or equal-length columns, reduced mod p over F_p."""
    total = 0
    for c, i, j, k in form._terms:
        if p is None:
            total += c * v[i] * v[j] * v[k]
        else:
            total = (total + c % p * (v[i] * v[j] % p) % p * v[k]) % p
    return total


def _partials(form: CubicForm, v, p: int | None = None) -> list:
    """grad F at v, whose entries are ints or equal-length columns, reduced mod p over F_p."""
    out = [0] * form.dim
    for t, c, a, b in form._grad_terms:
        if p is None:
            out[t] += c * v[a] * v[b]
        else:
            out[t] = (out[t] + c % p * (v[a] * v[b] % p)) % p
    return out


def eval_form(form: CubicForm, x: ProjPoint) -> int:
    """Exact value of the form at x, reduced mod p over F_p."""
    _check_dims(form, x)
    return _value(form, x.coords, x.field.p)


def gradient(form: CubicForm, x: ProjPoint) -> tuple[int, ...]:
    """Values of the partial derivatives at x; satisfies Euler's identity."""
    _check_dims(form, x)
    return tuple(_partials(form, x.coords, x.field.p))


def eval_rows(form: CubicForm, X: np.ndarray, p: int | None = None) -> np.ndarray:
    """`eval_form` at each row of X: points over Q, or residues mod p over F_p.

    Over Q every partial product and partial sum of F's terms is at most
    Σ|c|·m³ in size, m = max(1, max|x|), so int64 rows are evaluated as
    Python ints once that reaches 2^63.
    """
    if p is None and X.dtype != object:
        if sum(map(abs, form.coeffs.values())) * int(np.abs(X).max(initial=1)) ** 3 >= 2**63:
            X = X.astype(object)
    return _value(form, X.T, p)


def gradient_rows(form: CubicForm, X: np.ndarray, p: int | None = None) -> np.ndarray:
    """`gradient` at each row of X: points over Q, or residues mod p over F_p."""
    return np.column_stack(np.broadcast_arrays(*_partials(form, X.T, p)))


def gradient_dot_rows(
    form: CubicForm, V: np.ndarray, W: np.ndarray, p: int | None = None
) -> np.ndarray:
    """`dot_rows(gradient_rows(form, V, p), W, p)`, one term c·v_a·v_b·w_t at a time.

    The gradient rows are never formed.
    """
    v, w = V.T, W.T
    total = 0
    for t, c, a, b in form._grad_terms:
        if p is None:
            total = total + c * v[a] * v[b] * w[t]
        else:
            total = (total + c % p * (v[a] * v[b] % p) % p * w[t]) % p
    return total


def _leads(v: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row of v, 0 for a zero row."""
    return v[np.arange(len(v)), (v != 0).argmax(axis=1)]


@lru_cache(maxsize=4)
def _inverses(p: int) -> np.ndarray:
    return inverse_mod(np.arange(p), p)


def inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a^(p-2) mod p elementwise, the inverse of each nonzero residue (Fermat).

    When a holds more entries than there are residues, a looks its inverses
    up in a table of every residue's inverse, built once per p.
    """
    if len(a) > p:
        return _inverses(p)[a]
    out = np.ones_like(a)
    e = p - 2
    while e:
        if e & 1:
            out = out * a % p
        a = a * a % p
        e >>= 1
    return out


def canonical_rows(raw: np.ndarray, p: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`normalize` of each row of raw, and whether the row is nonzero.

    Over Q the rows are int64 or object rows of Python ints, over F_p int64
    rows of any ints; the result is int64 over F_p.  A zero row stays zero.
    """
    if p is None:
        g = reduce(np.gcd, raw.T)
        nonzero = g != 0
        g[~nonzero] = 1
        v = raw // g[:, None]
        v[_leads(v) < 0] *= -1
        return v, nonzero
    v = raw % p
    lead = _leads(v)
    v *= inverse_mod(lead, p)[:, None]
    v %= p
    return v, lead != 0
