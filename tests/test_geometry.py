import itertools
import random

import numpy as np
import pytest
from conftest import polar_expansion
from hypothesis import assume, given, settings, strategies as st

from cubicmw import (
    CubicForm,
    Field,
    RATIONALS,
    eval_form,
    gradient,
    line_through,
    meet,
    normalize,
)
from cubicmw.errors import (
    CoincidentLines,
    CoincidentPoints,
    DimensionMismatch,
    ZeroVector,
)
from cubicmw.geometry import (
    ProjPoint,
    canonical_rows,
    dot,
    dot_rows,
    eval_rows,
    gradient_dot_rows,
    gradient_rows,
)

ZAGIER = CubicForm.diagonal((1, 2, 3, 4))


def test_normalize_divides_by_gcd():
    assert normalize((6, 2, 2, -4)).coords == (3, 1, 1, -2)


def test_normalize_sign_flip():
    assert normalize((-1, 0, -1, 1)).coords == (1, 0, 1, -1)


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        normalize((0, 0, 0, 0))


def test_normalize_mod_p():
    f7 = Field(7)
    x = normalize((0, 14, 3, 5), f7)
    assert x.coords == (0, 0, 1, 4)  # scaled so the first nonzero entry is 1
    with pytest.raises(ZeroVector):
        normalize((7, 14, 0, 21), f7)


def test_normalize_scale_invariant_and_idempotent():
    rng = random.Random(1)
    for _ in range(1000):
        raw = tuple(rng.randint(-50, 50) for _ in range(4))
        if not any(raw):
            continue
        lam = rng.randint(1, 10**6) * rng.choice((1, -1))
        a = normalize(raw)
        b = normalize(tuple(lam * c for c in raw))
        assert a == b
        assert normalize(a.coords) == a


FIELDS = [RATIONALS, Field(2), Field(3), Field(101), Field(2**31 - 1)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=4),
    st.integers(-10**6, 10**6).filter(bool),
    st.sampled_from(FIELDS),
)
def test_normalize_idempotent_and_scale_invariant(raw, lam, field):
    p = field.p
    assume(p is None or lam % p)  # a multiple of p is zero in F_p
    if not any(c if p is None else c % p for c in raw):
        with pytest.raises(ZeroVector):
            normalize(raw, field)
        return
    x = normalize(raw, field)
    assert normalize(x.coords, field) == x
    assert normalize([lam * c for c in raw], field) == x
    # and x is proportional to raw
    for i, j in itertools.combinations(range(len(raw)), 2):
        d = x.coords[i] * raw[j] - x.coords[j] * raw[i]
        assert (d if p is None else d % p) == 0


def test_prime_field_validation():
    with pytest.raises(ValueError):
        Field(10)
    with pytest.raises(ValueError):
        Field(2**31 + 11)


def test_eval_zagier_roots():
    assert eval_form(ZAGIER, normalize((1, 0, 1, -1))) == 0
    assert eval_form(ZAGIER, normalize((1, -1, -1, 1))) == 0
    assert eval_form(ZAGIER, normalize((1, 1, 1, 1))) == 10


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_form(ZAGIER, normalize((1, 1, 1)))


def test_eval_homogeneous_on_scaled_raw_input():
    rng = random.Random(2)
    for _ in range(100):
        raw = tuple(rng.randint(-9, 9) for _ in range(4))
        if not any(raw):
            continue
        lam = rng.randint(2, 7)
        direct = sum(a * c**3 for a, c in zip((1, 2, 3, 4), raw))
        scaled = sum(a * (lam * c) ** 3 for a, c in zip((1, 2, 3, 4), raw))
        assert scaled == lam**3 * direct


def test_gradient_values():
    assert gradient(ZAGIER, normalize((1, 1, -1, 0))) == (3, 6, 9, 0)
    assert gradient(ZAGIER, normalize((1, 0, 1, -1))) == (3, 0, 9, 12)


def test_gradient_euler_identity():
    rng = random.Random(3)
    for _ in range(200):
        raw = tuple(rng.randint(-9, 9) for _ in range(4))
        if not any(raw):
            continue
        x = normalize(raw)
        g = gradient(ZAGIER, x)
        assert sum(a * b for a, b in zip(g, x.coords)) == 3 * eval_form(ZAGIER, x)


def test_line_through_and_meet():
    a = normalize((1, 0, 0))
    b = normalize((0, 1, 0))
    line = line_through(a, b)
    assert line.coords == (0, 0, 1)
    x = meet(normalize((0, 0, 1)), normalize((1, -1, 0)))
    assert x.coords == (1, 1, 0)


def test_line_incidence():
    rng = random.Random(6)
    for _ in range(100):
        a = normalize((rng.randint(1, 9),) + tuple(rng.randint(-9, 9) for _ in range(2)))
        b = normalize(tuple(rng.randint(1, 9) for _ in range(3)))
        if a == b:
            continue
        line = line_through(a, b)
        assert sum(u * v for u, v in zip(line.coords, a.coords)) == 0
        assert sum(u * v for u, v in zip(line.coords, b.coords)) == 0


def test_coincident_errors():
    a = normalize((1, 2, 3))
    with pytest.raises(CoincidentPoints):
        line_through(a, normalize((2, 4, 6)))
    with pytest.raises(CoincidentLines):
        meet(normalize((1, 2, 3)), normalize((1, 2, 3)))


def test_dual_vectors_need_matching_dimensions():
    for a, b in [
        (normalize((1, 0, 0, 0)), normalize((0, 1, 0, 0))),  # P^3, not P^2
        (normalize((1, 0, 0)), normalize((0, 1, 0, 0))),
        (normalize((1, 0, 0)), normalize((0, 1, 0), Field(7))),  # two fields
    ]:
        with pytest.raises(DimensionMismatch):
            line_through(a, b)
        with pytest.raises(DimensionMismatch):
            meet(a, b)


def test_cubic_form_rejects_bad_input():
    with pytest.raises(ValueError):
        CubicForm(4, {(1, 1, 0, 0): 1})  # degree 2
    with pytest.raises(ValueError):
        CubicForm(4, {(3, 0, 0, 0): 0})  # zero form


def loop_eval_form(form, x):
    """Per-call loop over the exponent dict: the oracle for the compiled eval_form."""
    total = 0
    for expo, c in form.coeffs.items():
        term = c
        for xi, e in zip(x.coords, expo):
            for _ in range(e):
                term *= xi
        total += term
    return total if x.field.p is None else total % x.field.p


def loop_gradient(form, x):
    """Per-call loop over the exponent dict: the oracle for the compiled gradient."""
    v = x.coords
    out = [0] * form.dim
    for expo, c in form.coeffs.items():
        for i, e in enumerate(expo):
            if e == 0:
                continue
            term = c * e
            for j, ej in enumerate(expo):
                pw = ej - 1 if j == i else ej
                for _ in range(pw):
                    term *= v[j]
            out[i] += term
    if x.field.p is not None:
        out = [c % x.field.p for c in out]
    return tuple(out)


def _monomials(dim):
    return [e for e in itertools.product(range(4), repeat=dim) if sum(e) == 3]


@st.composite
def form_and_points(draw):
    """A dense or diagonal integer cubic form in 3 or 4 variables and two points."""
    dim = draw(st.sampled_from((3, 4)))
    field = Field(draw(st.sampled_from((None, 2, 3, 5, 101, 2**31 - 1))))
    coeff = st.integers(-50, 50)
    if draw(st.booleans()):
        mons = _monomials(dim)
        values = draw(st.lists(coeff, min_size=len(mons), max_size=len(mons)).filter(any))
        form = CubicForm(dim, dict(zip(mons, values)))
    else:
        form = CubicForm.diagonal(draw(st.lists(coeff, min_size=dim, max_size=dim).filter(any)))
    pts = []
    for _ in range(2):
        raw = draw(st.lists(st.integers(-40, 40), min_size=dim, max_size=dim))
        try:
            pts.append(normalize(raw, field))
        except ZeroVector:
            assume(False)
    return form, pts[0], pts[1]


@settings(max_examples=300, deadline=None)
@given(form_and_points(), st.data())
def test_compiled_form_matches_loops(case, data):
    form, x, y = case
    for v in (x, y):
        assert eval_form(form, v) == loop_eval_form(form, v)
        assert gradient(form, v) == loop_gradient(form, v)
    # the row kernels match the point functions row by row, on int64 rows of
    # unnormalized ints over Q or residues over F_p, a zero row and a row of
    # the largest entries among them
    field, p = x.field, x.field.p
    entry = st.integers(-40, 40) if p is None else st.integers(0, p - 1)
    raw = data.draw(st.lists(st.lists(entry, min_size=form.dim, max_size=form.dim), max_size=6))
    top = [40 if p is None else p - 1] * form.dim
    rows = [list(x.coords), list(y.coords), [0] * form.dim, top, *raw]
    X = np.array(rows, dtype=np.int64)
    pts = [ProjPoint(tuple(r), field) for r in rows]
    assert eval_rows(form, X, p).tolist() == [eval_form(form, v) for v in pts]
    assert gradient_rows(form, X, p).tolist() == [list(gradient(form, v)) for v in pts]
    for other in (rows, rows[::-1]):
        assert dot_rows(X, np.array(other), p).tolist() == [
            dot(a, b, p) for a, b in zip(rows, other)]
        assert gradient_dot_rows(form, X, np.array(other), p).tolist() == [
            dot(gradient(form, v), w, p) for v, w in zip(pts, other)]
    checks = [(X, rows)]
    if p is None:
        # object rows of Python ints up to about 2^400: a content times
        # entries that are often zero, small or negative; a zero row, a
        # negative lead after a zero and a content past 2^63 among them
        entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2**200, 2**200))
        coeffs = st.lists(entry, min_size=form.dim, max_size=form.dim)
        row = st.tuples(st.integers(1, 2**200), coeffs)
        big = [[0] * form.dim, [0, -6, 4] + [2] * (form.dim - 3),
               [-(2**70) * 3] + [2**70] * (form.dim - 1),
               *([g * c for c in r] for g, r in data.draw(st.lists(row, max_size=12)))]
        B = np.empty((len(big), form.dim), dtype=object)
        B[:] = big
        checks.append((B, big))
        assert gradient_dot_rows(form, B, B[::-1]).tolist() == (
            dot_rows(gradient_rows(form, B), B[::-1]).tolist())
    for R, rows in checks:
        Z, nonzero = canonical_rows(R, p)
        assert Z.dtype == R.dtype and nonzero.dtype == bool
        for z, defined, r in zip(Z.tolist(), nonzero.tolist(), rows):
            try:
                expected = normalize(r, field).coords
            except ZeroVector:
                expected = None
            assert (tuple(z) if defined else None) == expected
            assert defined or not any(z)


@settings(max_examples=300, deadline=None)
@given(form_and_points())
def test_gradient_identity_matches_polar_expansion(case):
    form, x, y = case
    p = x.field.p
    c1 = dot(gradient(form, x), y.coords, p)
    c2 = dot(gradient(form, y), x.coords, p)
    assert (c1, c2, eval_form(form, y)) == polar_expansion(form, x, y)[1:]


@pytest.mark.parametrize(
    "coeffs, top, dtype",
    [
        ((2**62, -(2**62 - 1), 0), 1, np.int64),  # Σ|c|·max|x|³ = 2^63 − 1
        ((2**62, -(2**62), 0), 1, object),  # = 2^63, and F(1, −1, 0) = 2^63
        ((1, 0, 0), 2**21 - 1, np.int64),
        ((1, 0, 0), 2**21, object),  # F(2^21, 0, 0) = 2^63
        ((2**63, 1, 0), 0, object),  # zero rows: a coefficient past int64
    ],
)
def test_eval_rows_guard_edge(coeffs, top, dtype):
    form = CubicForm.diagonal(coeffs)
    rows = list(itertools.product((-top, 0, top), repeat=3))
    values = eval_rows(form, np.array(rows, dtype=np.int64))
    assert values.dtype == dtype
    assert values.tolist() == [eval_form(form, ProjPoint(r)) for r in rows]


@pytest.mark.parametrize("form", [ZAGIER, CubicForm.diagonal((2**63, 1, 1, 1))])
def test_eval_rows_on_no_rows(form):
    assert eval_rows(form, np.empty((0, 4), dtype=np.int64)).tolist() == []


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 4)), st.data())
def test_eval_rows_matches_eval_form_on_wide_values(dim, data):
    # dense forms with coefficients up to 2^62 and int64 rows up to 2^21, on
    # both sides of the guard: the rows' values are the points' exact values
    mons = _monomials(dim)
    coeff = st.one_of(st.integers(-9, 9), st.integers(-(2**62), 2**62))
    values = data.draw(st.lists(coeff, min_size=len(mons), max_size=len(mons)).filter(any))
    form = CubicForm(dim, dict(zip(mons, values)))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(2**21), 2**21))
    rows = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=8))
    X = np.array(rows, dtype=np.int64).reshape(-1, dim)
    assert eval_rows(form, X).tolist() == [eval_form(form, ProjPoint(tuple(r))) for r in rows]
