"""`kernel_basis` and `rank` against sympy's exact linear algebra.

Over Q the oracle is `Matrix.nullspace()` with denominators cleared and
each vector made primitive with a positive leading entry.  Over GF(p) it
is `DomainMatrix.nullspace()`, whose vectors are scaled here until their
last nonzero entry is 1, the normal form `kernel_basis` returns over F_p.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

from cubicmw import RATIONALS, Field, splitplane
from cubicmw.linalg import kernel_basis, rank
from cubicmw.splitplane import BlowupModel

PRIMES = [2, 3, 7, 101, 2**31 - 1]
FIELDS = [None] + PRIMES


def primitive(vec) -> tuple[int, ...]:
    """Integer multiple of a rational vector: primitive, first nonzero entry positive."""
    den = math.lcm(*(int(v.q) for v in vec))
    ints = [int(v * den) for v in vec]
    g = math.gcd(*ints)
    sign = -1 if next(v for v in ints if v != 0) < 0 else 1
    return tuple(sign * v // g for v in ints)


def oracle_kernel(matrix, p):
    if p is None:
        return [primitive(list(v)) for v in Matrix(matrix).nullspace()]
    K = GF(p)
    basis = []
    for vec in DomainMatrix.from_list(matrix, K).nullspace().to_list():
        ints = [K.to_int(v) % p for v in vec]
        inv = pow(next(v for v in reversed(ints) if v != 0), -1, p)
        basis.append(tuple(v * inv % p for v in ints))
    return basis


def oracle_rank(matrix, p):
    if p is None:
        return Matrix(matrix).rank()
    return DomainMatrix.from_list(matrix, GF(p)).rank()


entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0, 0, 0, 1, -1]),
    st.integers(-(10**6), 10**6),
)


@st.composite
def matrices(draw):
    """Small integer matrices, often with zero rows, repeated rows or multiples of a row."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=6))
    extra = draw(st.lists(st.sampled_from(["zero", "repeat", "multiple"]), max_size=2))
    for kind in extra:
        if kind == "zero":
            rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
        else:
            k = 1 if kind == "repeat" else draw(st.integers(-5, 5))
            rows.append([k * v for v in draw(st.sampled_from(rows))])
    return rows


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from(FIELDS))
@example([[0, 0, 0], [0, 0, 0]], 7)
@example([[2, 0], [0, 3]], 2)
@example([[1, 2, 3], [2, 4, 6], [0, 0, 0]], None)
@example([[10**6 - 1, 2, 3], [4, 10**6 + 3, 6], [7, 8, 10**6 + 9]], 2**31 - 1)
def test_kernel_and_rank_match_sympy(matrix, p):
    field = RATIONALS if p is None else Field(p)
    assert kernel_basis(matrix, field) == oracle_kernel(matrix, p)
    assert rank(matrix, field) == oracle_rank(matrix, p)


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (5, 2)])
def test_zero_matrix_kernel_is_standard_basis(p, shape):
    # (1, 1) over Q is a one-entry kernel vector: `_canonical` of (m,) is (1,)
    nrows, ncols = shape
    field = RATIONALS if p is None else Field(p)
    zero = [[0] * ncols for _ in range(nrows)]
    assert rank(zero, field) == 0
    assert kernel_basis(zero, field) == [
        tuple(int(i == j) for j in range(ncols)) for i in range(ncols)
    ]


@pytest.mark.parametrize("p", FIELDS)
def test_full_rank_has_empty_kernel(p):
    field = RATIONALS if p is None else Field(p)
    m = [[1, 1, 1, 1], [0, 1, 5, 0], [0, 0, 1, 9], [0, 0, 0, 1]]
    assert rank(m, field) == 4
    assert kernel_basis(m, field) == []


def test_empty_matrix():
    assert rank([], RATIONALS) == 0
    assert kernel_basis([], RATIONALS) == []


def test_build_with_large_base_matches_sympy(monkeypatch):
    """Both kernels of a Q build whose base coordinates are near 10^6."""
    calls = []

    def spy(matrix, field):
        calls.append(matrix)
        return kernel_basis(matrix, field)

    monkeypatch.setattr(splitplane, "kernel_basis", spy)
    base = [
        (999983, 2, -7),
        (3, 1000003, 5),
        (11, -13, 999979),
        (1, 1, 1),
        (123457, -654321, 7),
        (-5, 17, 1000033),
    ]
    model = BlowupModel.build(base, RATIONALS)
    assert [(len(m), len(m[0])) for m in calls] == [(6, 10), (55, 20)]
    for m in calls:
        assert kernel_basis(m, RATIONALS) == oracle_kernel(m, None)
    (surface,) = oracle_kernel(calls[1], None)
    assert tuple(model.surface.coeffs.get(e, 0) for e in splitplane.CUBIC_MONOMIALS_4) == surface
