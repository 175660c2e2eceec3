import random

import numpy as np
import pytest
from conftest import polar_expansion

from cubicmw import (
    CubicForm,
    Field,
    ProjPoint,
    cubic_compose,
    eval_form,
    gradient,
    group_add,
    normalize,
)
from cubicmw.errors import CubicError, EqualPoints, LineOnCurve, SingularPoint
from cubicmw import planecubic
from cubicmw.planecubic import PlaneCubic, _tangent_value, curve_rows
from cubicmw.surface import compose_rows

F101 = Field(101)


def curve_points(curve):
    """The points of `curve_rows`, in its scan order."""
    return [ProjPoint(tuple(x), curve.field) for x in curve_rows(curve).tolist()]


def is_smooth_at(curve, x):
    return any(gradient(curve.form, x))


@pytest.fixture(scope="module")
def fermat101():
    return PlaneCubic(CubicForm.diagonal((1, 1, 1)), F101)


@pytest.fixture(scope="module")
def fermat101_points(fermat101):
    pts = curve_points(fermat101)
    assert all(is_smooth_at(fermat101, x) for x in pts)
    return pts


def test_tangent_example_over_q():
    curve = PlaneCubic(CubicForm.diagonal((1, 1, -2)))
    x = normalize((1, 1, 1))
    y = normalize((1, -1, 0))
    assert cubic_compose(curve, x, y) == x  # the line is tangent at x


def test_compose_stays_on_curve(fermat101, fermat101_points):
    rng = random.Random(13)
    for _ in range(500):
        x, y = rng.sample(fermat101_points, 2)
        z = cubic_compose(fermat101, x, y)
        assert eval_form(fermat101.form, z) == 0


def test_compose_involution(fermat101, fermat101_points):
    rng = random.Random(14)
    for _ in range(500):
        x, y = rng.sample(fermat101_points, 2)
        z = cubic_compose(fermat101, x, y)
        if z != x:
            assert cubic_compose(fermat101, x, z) == y


def test_compose_equal_points(fermat101, fermat101_points):
    with pytest.raises(EqualPoints):
        cubic_compose(fermat101, fermat101_points[0], fermat101_points[0])


def test_singular_point_rejected():
    # nodal cubic y^2 z = x^2 (x + z): singular at (0:0:1)
    nodal = PlaneCubic(
        CubicForm(3, {(3, 0, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1})
    )
    node = normalize((0, 0, 1))
    other = normalize((0, 1, 0))
    assert eval_form(nodal.form, node) == 0
    assert not is_smooth_at(nodal, node)
    with pytest.raises(SingularPoint):
        cubic_compose(nodal, node, other)


def test_group_identity(fermat101, fermat101_points):
    rng = random.Random(15)
    checked = 0
    while checked < 100:
        e, x = rng.sample(fermat101_points, 2)
        try:
            s = group_add(fermat101, e, x, e)
        except CubicError:
            continue
        assert s == x
        checked += 1


def test_group_commutative(fermat101, fermat101_points):
    rng = random.Random(16)
    checked = 0
    while checked < 100:
        e, x, y = rng.sample(fermat101_points, 3)
        try:
            assert group_add(fermat101, e, x, y) == group_add(fermat101, e, y, x)
        except CubicError:
            continue
        checked += 1


def test_group_associative(fermat101, fermat101_points):
    rng = random.Random(17)
    checked = skipped = 0
    while checked < 100:
        e, x, y, z = rng.sample(fermat101_points, 4)
        try:
            lhs = group_add(fermat101, e, group_add(fermat101, e, x, y), z)
            rhs = group_add(fermat101, e, x, group_add(fermat101, e, y, z))
        except CubicError:
            skipped += 1
            continue
        assert lhs == rhs
        checked += 1
    assert skipped < 50  # skip rate reported via assertion bound


def test_compose_over_q():
    curve = PlaneCubic(CubicForm.diagonal((1, 1, -7)))
    a = normalize((2, -1, 1))
    b = normalize((-1, 2, 1))
    assert eval_form(curve.form, a) == 0 and eval_form(curve.form, b) == 0
    z = cubic_compose(curve, a, b)
    assert eval_form(curve.form, z) == 0
    assert cubic_compose(curve, a, z) == b


def polar_tangent_value(curve, x):
    """Third point of the tangent line at x from the polar expansion of F(x + t*y)."""
    g = gradient(curve.form, x)
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
    c0, c1, c2, c3 = polar_expansion(curve.form, x, y)
    assert c0 == 0 and c1 == 0
    if c2 == 0 and c3 == 0:
        raise LineOnCurve(f"tangent line at {x}")
    if c3 == 0:
        return y
    return normalize([c3 * a - c2 * b for a, b in zip(x.coords, y.coords)], curve.field)


@pytest.mark.parametrize("p", [11, 13, 101])  # over F_13 all 9 points are flexes
def test_tangent_value_matches_polar_expansion(p):
    curve = PlaneCubic(CubicForm.diagonal((1, 1, 1)), Field(p))
    pts = [x for x in curve_points(curve) if is_smooth_at(curve, x)]
    branches = 0
    for e in pts:
        expected = polar_tangent_value(curve, e)
        assert _tangent_value(curve, e) == expected
        for x in pts:
            if x == e:
                continue
            y = cubic_compose(curve, x, e)
            if y == x:
                continue
            # x o y = e, so group_add takes its e o e branch
            assert cubic_compose(curve, x, y) == e
            assert group_add(curve, e, x, y) == expected
            branches += 1
    assert branches > 0


def check_chord_rows(curve, pts):
    """compose_rows over F_p against cubic_compose on every pair of pts, each
    point scaled by residues near p, and on the compositions chained to them."""
    p = curve.field.p
    scales = (1, p - 1, 2**30 + 7, p - 12345)  # unnormalized representatives
    pairs = [(x, y, s, t) for x in pts for y in pts for s in scales for t in scales]
    X = np.array([[s * c % p for c in x.coords] for x, _, s, _ in pairs])
    Y = np.array([[t * c % p for c in y.coords] for _, y, _, t in pairs])

    def exact(a, b):
        try:
            return cubic_compose(curve, a, b)
        except (EqualPoints, LineOnCurve):
            return None

    def check(Z, ok, expected):
        # canonical rows: a defined row is the normalized point itself, an undefined one zero
        for z, defined, e in zip(Z.tolist(), ok.tolist(), expected):
            assert (ProjPoint(tuple(z), curve.field) if defined else None) == e
            assert defined or not any(z)

    def compose(X, Y):
        return compose_rows(curve.form, X, Y, p=p)

    Z, ok = compose(X, Y)
    xy = [exact(x, y) for x, y, _, _ in pairs]
    check(Z, ok, xy)
    # chained: x o (x o y) and (x o y) o y, from the unnormalized x and y
    d = np.flatnonzero(ok)
    check(*compose(X[d], Z[d]), [exact(pairs[i][0], xy[i]) for i in d])
    check(*compose(Z[d], Y[d]), [exact(xy[i], pairs[i][1]) for i in d])
    return ok


def test_chord_rows_do_not_wrap_at_the_largest_prime():
    # over F_(2^31 - 1) residues near 2^31 make every product of two come
    # near 2^62, the most an int64 entry takes without wrapping
    field = Field(2**31 - 1)
    p = field.p
    fermat = PlaneCubic(CubicForm.diagonal((1, 1, 1)), field)
    ok = check_chord_rows(
        fermat, [normalize(v, field) for v in ((1, -1, 0), (0, 1, -1), (1, 0, -1))]
    )
    assert ok.sum() == 6 * 4**2  # the pairs of distinct points
    # two points with no zero coordinate, and the diagonal cubic through both
    a, b = (p - 1, p - 2, p - 3), (p - 5, p - 7, p - 11)
    u, v = [c**3 % p for c in a], [c**3 % p for c in b]
    diagonal = [(u[1] * v[2] - u[2] * v[1]) % p, (u[2] * v[0] - u[0] * v[2]) % p,
                (u[0] * v[1] - u[1] * v[0]) % p]
    curve = PlaneCubic(CubicForm.diagonal(diagonal), field)
    x, y = normalize(a, field), normalize(b, field)
    assert is_smooth_at(curve, x) and is_smooth_at(curve, y)
    check_chord_rows(curve, [x, y, cubic_compose(curve, x, y)])


def scan_points(curve):
    """Every normalized representative of P^2 in turn, kept if it is on the cubic."""
    p = curve.field.p
    reps = [(1, a, b) for a in range(p) for b in range(p)]
    reps += [(0, 1, b) for b in range(p)]
    reps.append((0, 0, 1))
    return [x for x in (ProjPoint(r, curve.field) for r in reps) if curve.contains(x)]


@pytest.mark.parametrize("p", [5, 7, 13, 101])
@pytest.mark.parametrize("diagonal", [(1, 1, 1), (1, 2, 0), (2, -3, 5), (1, 1, -2), (0, 0, 7)])
def test_curve_points_match_a_scalar_scan(monkeypatch, p, diagonal):
    # (0, 0, 7) over F_7 is the zero form, so every point is on it; a block of
    # 7 representatives puts block edges everywhere in the scan order
    curve = PlaneCubic(CubicForm.diagonal(diagonal), Field(p))
    expected = scan_points(curve)
    for rows in (planecubic._SCAN_ROWS, 7):
        monkeypatch.setattr(planecubic, "_SCAN_ROWS", rows)
        assert curve_points(curve) == expected, rows
