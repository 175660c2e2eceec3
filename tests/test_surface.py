import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cubicmw import (
    CubicForm,
    CubicSurface,
    enumerate_points,
    eval_form,
    height,
    normalize,
    on_tangent_section,
    secant_compose,
    surface_point,
)
from cubicmw.errors import EqualPoints, InvalidCoefficients, LineOnSurface, NotOnSurface
from cubicmw.linalg import rank
from cubicmw.geometry import RATIONALS
from cubicmw.surface import compose_rows, third_rows


def sp(surface, raw):
    return surface_point(surface, normalize(raw))


def test_surface_point_validates(zagier_surface):
    with pytest.raises(NotOnSurface):
        sp(zagier_surface, (1, 1, 1, 1))


def test_diagonal_surface_rejects_zero_coefficient():
    with pytest.raises(InvalidCoefficients):
        CubicSurface.diagonal((1, 0, 3, 4))
    with pytest.raises(InvalidCoefficients):
        CubicSurface(CubicForm.diagonal((1, 0, 3, 4)))


def test_secant_compose_example(zagier_surface):
    x = sp(zagier_surface, (1, 0, 1, -1))
    y = sp(zagier_surface, (1, 1, -1, 0))
    z = secant_compose(zagier_surface, x, y)
    assert z.coords == (3, 1, 1, -2)
    # independent substitution oracle
    assert sum(a * c**3 for a, c in zip((1, 2, 3, 4), z.coords)) == 0


def test_secant_compose_involution_example(zagier_surface):
    x = sp(zagier_surface, (1, 0, 1, -1))
    z = sp(zagier_surface, (3, 1, 1, -2))
    assert secant_compose(zagier_surface, x, z).coords == (1, 1, -1, 0)


def test_secant_compose_equal_points(zagier_surface):
    x = sp(zagier_surface, (1, 0, 1, -1))
    with pytest.raises(EqualPoints):
        secant_compose(zagier_surface, x, x)


def test_line_on_surface_detected():
    # x^3+y^3+z^3+w^3 = 0 contains the line (a,-a,b,-b)
    fermat = CubicSurface.diagonal((1, 1, 1, 1))
    x = sp(fermat, (1, -1, 0, 0))
    y = sp(fermat, (0, 0, 1, -1))
    with pytest.raises(LineOnSurface):
        secant_compose(fermat, x, y)


def test_tangent_section_examples(zagier_surface):
    x = sp(zagier_surface, (1, 28, -19, -18))
    y = sp(zagier_surface, (1, 1, -1, 0))
    assert on_tangent_section(zagier_surface, x, y)
    assert not on_tangent_section(
        zagier_surface, sp(zagier_surface, (3, 1, 1, -2)), sp(zagier_surface, (1, 0, 1, -1))
    )
    # the relation is not symmetric
    assert not on_tangent_section(zagier_surface, y, x)


def test_height_examples():
    assert height(normalize((1, 0, 1, -1))) == 3
    assert height(normalize((1, 28, -19, -18))) == 66
    assert height(normalize((15, -37, 5, 29))) == 86


def test_translate_is_symmetric_compose(registry_200, zagier_surface):
    rng = random.Random(7)
    for _ in range(100):
        x, y = rng.sample(registry_200.points, 2)
        assert secant_compose(zagier_surface, x, y) == secant_compose(zagier_surface, y, x)


def test_translate_involution(registry_200, zagier_surface):
    rng = random.Random(8)
    for _ in range(200):
        x, y = rng.sample(registry_200.points, 2)
        z = secant_compose(zagier_surface, x, y)
        if z == x:
            with pytest.raises(EqualPoints):
                secant_compose(zagier_surface, x, z)
        else:
            assert secant_compose(zagier_surface, x, z) == y


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_involution_property(registry_200, zagier_surface, data):
    n = len(registry_200)
    i, j = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    x, y = registry_200.point(i), registry_200.point(j)
    try:
        z = secant_compose(zagier_surface, x, y)
    except LineOnSurface:
        assume(False)
    assume(z != x)
    assert secant_compose(zagier_surface, x, z) == y


def test_compose_closure_and_collinearity(registry_200, zagier_surface):
    rng = random.Random(9)
    for _ in range(200):
        x, y = rng.sample(registry_200.points, 2)
        try:
            z = secant_compose(zagier_surface, x, y)
        except LineOnSurface:
            continue
        assert eval_form(zagier_surface.form, z) == 0
        m = [list(x.coords), list(y.coords), list(z.coords)]
        assert rank(m, RATIONALS) <= 2


@pytest.fixture(scope="module")
def registry_fermat_30():
    return enumerate_points((1, 1, 1, 1), 30)


@settings(max_examples=100, deadline=None)
@given(fermat=st.booleans(), data=st.data())
def test_compose_rows_match_secant_compose(registry_200, registry_fermat_30, fermat, data):
    # registry pairs, equal pairs and the chained intermediates the suites
    # compose; on the Fermat registry about a third of the lines lie on it
    reg = registry_fermat_30 if fermat else registry_200
    surface = reg.surface
    ranks = st.integers(1, len(reg))
    pairs = []
    for i, j, k in data.draw(st.lists(st.tuples(ranks, ranks, ranks), min_size=1, max_size=8)):
        x, y, cur = reg.point(i), reg.point(j), reg.point(k)
        pairs += [(x, y), (x, x)]
        try:
            w = secant_compose(surface, x, y)
            for t in (y, w, x):
                pairs.append((t, cur))
                cur = secant_compose(surface, t, cur)
                pairs.append((cur, w))
        except (EqualPoints, LineOnSurface):
            pass
    X, Y = (np.array([p[side].coords for p in pairs], dtype=object) for side in (0, 1))
    Z, ok = compose_rows(surface.form, X, Y)
    for (x, y), z, defined in zip(pairs, Z.tolist(), ok.tolist()):
        try:
            expected = secant_compose(surface, x, y)
        except (EqualPoints, LineOnSurface):
            assert not defined and not any(z)
        else:
            assert defined and tuple(z) == expected.coords
    # third_rows, on the pairs and on the pairs scaled by λ and μ, with c1
    # and c2 divided by their gcd or not: a nonzero multiple of the
    # composition where it is defined, zero where it is not, and c1 zero
    # exactly where the composition is undefined or x itself
    moved = [ok_ and tuple(z) != x.coords for (x, _), z, ok_ in zip(pairs, Z.tolist(), ok.tolist())]
    scale = st.integers(-(2**70), 2**70).filter(bool)
    lam, mu = (
        np.array(data.draw(st.lists(scale, min_size=len(pairs), max_size=len(pairs))),
                 dtype=object)[:, None]
        for _ in range(2)
    )
    for (A, B), divide in itertools.product(((X, Y), (lam * X, mu * Y)), (True, False)):
        R, c1 = third_rows(surface.form, A, B, divide=divide)
        assert R.dtype == object
        assert (c1 != 0).tolist() == moved
        assert R.any(axis=1).tolist() == ok.tolist()
        minors = R[:, :, None] * Z[:, None, :] - R[:, None, :] * Z[:, :, None]
        assert not (minors != 0).any()
