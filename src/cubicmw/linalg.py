"""Exact dense linear algebra over Q and prime fields, on Python ints.

Kernels and ranks of small matrices: the 6 x 10 cubic-system and 55 x 20
implicitization matrices of the blow-up model, and the 3 x 4 plane of
each claim-1 check.  One Gauss-Jordan pass, `_eliminate`, serves both
fields.  Over F_p the entries are reduced mod p and every pivot is 1.
Over Q it is fraction-free (Bareiss, Math. Comp. 22 (1968) 565-578): a
row is cleared as d*row - f*pivot_row and divided by its content, so all
entries stay integers.
"""

from __future__ import annotations

import math

from .geometry import Field, _canonical


def _eliminate(matrix: list[list[int]], p: int | None):
    """Reduced row echelon form of a copy of the matrix: (rows, pivot columns).

    Row r has its pivot at column pivots[r] and every other row is 0 there.
    Over F_p (p prime) the pivot is 1; over Q (p None) each row is a
    nonzero integer multiple of the rational RREF's row.
    """
    rows = [[v % p for v in row] if p is not None else list(row) for row in matrix]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if p is not None:
            inv = pow(rows[r][c], -1, p)
            rows[r] = [(v * inv) % p for v in rows[r]]
        top = rows[r]
        d = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i == r or f == 0:
                continue
            if p is not None:
                rows[i] = [(a - f * b) % p for a, b in zip(row, top)]
            else:
                new = [d * a - f * b for a, b in zip(row, top)]
                g = math.gcd(*new)
                rows[i] = [v // g for v in new] if g else new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel_basis(matrix: list[list[int]], field: Field) -> list[tuple[int, ...]]:
    """Canonical basis of the right kernel, as integer tuples: one vector per free column.

    With d_r the pivot of row r at column c_r and m the lcm of the pivots,
    the vector of free column f holds m at f, -row_r[f] * (m // d_r) at
    each c_r and 0 elsewhere.  Over Q it is made primitive with a positive
    leading entry; over F_p every d_r is 1, so it is reduced mod p and
    holds 1 at f, its last nonzero entry.
    """
    if not matrix:
        return []
    p = field.p
    rows, pivots = _eliminate(matrix, p)
    m = math.lcm(*[row[c] for row, c in zip(rows, pivots)])
    ncols = len(matrix[0])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = m
        for row, c in zip(rows, pivots):
            vec[c] = -row[f] * (m // row[c])
        basis.append(_canonical(vec, field) if p is None else tuple([v % p for v in vec]))
    return basis


def rank(matrix: list[list[int]], field: Field) -> int:
    return len(_eliminate(matrix, field.p)[1])

