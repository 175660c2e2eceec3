import pytest
import sympy

from cubicmw import CubicSurface, build_report, build_table, enumerate_points

ZAGIER = (1, 2, 3, 4)
ZAGIER_H = 1100


def polar_expansion(form, x, y):
    """(c0, c1, c2, c3) of F(x + t·y) by sympy, reduced mod p over F_p."""
    t = sympy.Symbol("t")
    f = sum(
        c * sympy.Mul(*[(a + t * b) ** e for a, b, e in zip(x.coords, y.coords, expo)])
        for expo, c in form.coeffs.items()
    )
    coeffs = [int(c) for c in reversed(sympy.Poly(f, t).all_coeffs())]
    coeffs += [0] * (4 - len(coeffs))
    p = x.field.p
    return tuple(coeffs if p is None else [c % p for c in coeffs])


@pytest.fixture(scope="session")
def zagier_surface():
    return CubicSurface.diagonal(ZAGIER, label="zagier")


@pytest.fixture(scope="session")
def registry_1100():
    return enumerate_points(ZAGIER, ZAGIER_H)


@pytest.fixture(scope="session")
def registry_200():
    return enumerate_points(ZAGIER, 200)


@pytest.fixture(scope="session")
def table_1100(registry_1100):
    return build_table(registry_1100)


@pytest.fixture(scope="session")
def report_1100(table_1100):
    return build_report(table_1100)
