"""Exact dense linear algebra over Q (fractions) and prime fields.

Small matrices only (at most a few dozen rows); used for kernels of
evaluation matrices, not for anything performance-critical.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .geometry import RATIONALS, Field, _canonical


def _rref(rows: list[list], field: Field):
    """In-place reduced row echelon form; returns list of pivot columns."""
    p = field.p
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        inv = pow(lead, -1, p) if p is not None else Fraction(1, 1) / lead
        rows[r] = [
            (v * inv) % p if p is not None else v * inv for v in rows[r]
        ]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                if p is not None:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
                else:
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reduced(matrix: list[list[int]], field: Field):
    """RREF of a copy of the matrix over the field: (rows, pivot columns)."""
    p = field.p
    rows = [[v % p if p is not None else Fraction(v) for v in row] for row in matrix]
    return rows, _rref(rows, field)


def _primitive(vec: list[Fraction]) -> tuple[int, ...]:
    """Clear denominators, then the canonical form over Q: primitive, lead positive."""
    den = lcm(*(v.denominator for v in vec))
    return _canonical([int(v * den) for v in vec], RATIONALS)


def kernel_basis(matrix: list[list[int]], field: Field) -> list[tuple[int, ...]]:
    """Canonical basis of the right kernel, as integer tuples.

    Over Q the vectors are primitive with positive leading entry; over F_p
    they are reduced mod p.  The basis is the standard free-variable basis of
    the RREF, so it is deterministic.
    """
    if not matrix:
        return []
    p = field.p
    rows, pivots = _reduced(matrix, field)
    ncols = len(matrix[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols if p is None else [0] * ncols
        vec[f] = Fraction(1) if p is None else 1
        for r, c in enumerate(pivots):
            v = -rows[r][f]
            vec[c] = v % p if p is not None else v
        if p is not None:
            basis.append(tuple(vec))
        else:
            basis.append(_primitive(vec))
    return basis


def rank(matrix: list[list[int]], field: Field) -> int:
    return len(_reduced(matrix, field)[1])


def det3(a, b, c) -> int:
    """Determinant of the 3x3 matrix with rows a, b, c (integer entries)."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
