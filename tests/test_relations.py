import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmw import (
    CubicForm,
    CubicSurface,
    Field,
    PointRegistry,
    ProjPoint,
    enumerate_points,
    gradient,
    group_add,
    normalize,
    relations,
    secant_compose,
    surface,
    surface_point,
)
from cubicmw.errors import CubicError, DegenerateSample
from cubicmw.geometry import dot, eval_rows, gradient_rows
from cubicmw.planecubic import PlaneCubic, curve_rows
from cubicmw.relations import (
    group_law_suite,
    involution_suite,
    sample_rows,
    sextuple_suite,
    tangent_consistency_suite,
)
from cubicmw.surface import compose_rows, point_rows, third_rows

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


SUITES = (involution_suite, sextuple_suite, tangent_consistency_suite)


def counts(results):
    return [(r.name, r.passes, r.failures, r.skips) for r in results]


def row_paths(monkeypatch, registry):
    """Run the loop body on the registry's int64 rows, then on its object rows."""
    for bound, dtype in ((surface._INT64_BOUND, np.int64), (0, object)):
        monkeypatch.setattr(surface, "_INT64_BOUND", bound)
        P, G = point_rows(registry.surface.form, registry.points)
        assert P.dtype == G.dtype == dtype
        yield dtype


@pytest.mark.parametrize(
    "coeffs, height, expected",
    [
        ((1, 2, 3, 4), 200, [("involution", 2000, 0, 0), ("sextuple relation", 2000, 0, 77),
                             ("tangent consistency", 2000, 0, 0)]),
        ((1, 1, 1, 1), 30, [("involution", 2000, 0, 755), ("sextuple relation", 2000, 0, 3734),
                            ("tangent consistency", 2000, 0, 0)]),
    ],
    ids=["zagier-200", "fermat-30"],
)
def test_registry_suite_counts_are_pinned(monkeypatch, coeffs, height, expected):
    # the skip counts pin how EqualPoints and LineOnSurface draws are classified;
    # they do not depend on the batch: 7 ends inside the 2000 trials and takes
    # skips anywhere in a batch, and 1 checks one draw at a time
    # and on both the int64 and the object rows of `point_rows`
    reg = enumerate_points(coeffs, height)
    for dtype in row_paths(monkeypatch, reg):
        for batch in (relations._BATCH, 7, 1):
            monkeypatch.setattr(relations, "_BATCH", batch)
            assert counts(s(reg, 2000, 11) for s in SUITES) == expected, (dtype, batch)


@pytest.mark.parametrize("seed, sextuple_skips", [(1, 36), (7, 38)])
def test_benchmark_configuration_counts_are_pinned(
    monkeypatch, registry_1100, seed, sextuple_skips
):
    # the identities benchmark workload: the H=1100 registry, 10^4 trials
    for dtype in row_paths(monkeypatch, registry_1100):
        assert counts(s(registry_1100, 10_000, seed) for s in SUITES) == [
            ("involution", 10_000, 0, 0),
            ("sextuple relation", 10_000, 0, sextuple_skips),
            ("tangent consistency", 10_000, 0, 0),
        ], dtype


def test_composed_rows_are_object_rows(registry_1100):
    # a composed point's gradient reaches about 2^75 at H=1100: fed to int64
    # arithmetic it would wrap, so compose_rows hands back Python ints
    form = registry_1100.surface.form
    P, G = point_rows(form, registry_1100.points)
    assert P.dtype == G.dtype == np.int64
    x, y = sample_rows(random.Random(3), len(P), 2, 2000).T
    Z, ok = compose_rows(form, P[x], P[y], G[x], G[y])
    W, ok_w = compose_rows(form, P[x].astype(object), P[y].astype(object))
    assert Z.dtype == W.dtype == object
    assert (ok.tolist(), Z.tolist()) == (ok_w.tolist(), W.tolist())
    GZ = gradient_rows(form, Z)
    assert GZ.tolist() == gradient_rows(form, W).tolist()
    assert max(map(abs, GZ.ravel().tolist())) > 2**63
    assert gradient_rows(form, Z.astype(np.int64)).tolist() != GZ.tolist()


def per_step_sextuple_check(form, P, G):
    """The sextuple check with every step's point in canonical form, by
    `compose_rows`, on the registry's `point_rows` P and G."""

    def check(draws):
        x, y, z = draws.T
        X, Y, GX, GY = P[x], P[y], G[x], G[y]
        W, defined = compose_rows(form, X, Y, GX, GY)
        GW = gradient_rows(form, W)
        cur, ok = compose_rows(form, Y, P[z], GY, G[z])
        defined &= ok
        for T, GT in ((W, GW), (X, GX), (Y, GY), (W, GW), (X, GX)):
            cur, ok = compose_rows(form, T, cur, GT)
            defined &= ok
        return np.where(defined, (cur == P[z]).all(axis=1), None).tolist()

    return check


_RUN = relations._run
_CHAIN = relations._chain_outcomes


@pytest.mark.parametrize(
    "coeffs, height, trials, seed",
    [((1, 2, 3, 4), 1100, 1500, 1), ((1, 1, 1, 1), 30, 150, 11), ((1, 2, 3, 4), 200, 1500, 0)],
    ids=["zagier-1100", "fermat-30", "zagier-200"],
)
def test_sextuple_outcomes_match_per_step_chain(monkeypatch, coeffs, height, trials, seed):
    # draw by draw, skips included: the two-sided check is defined, and
    # holds, exactly where the chain of canonical points is and does
    reg = enumerate_points(coeffs, height)
    form = reg.surface.form
    for dtype in row_paths(monkeypatch, reg):
        reference = per_step_sextuple_check(form, *point_rows(form, reg.points))
        for batch in (relations._BATCH, 7, 1):
            got, want, settled = [], [], []

            def run(name, trials, draw, check):
                def both(draws):
                    out = check(draws)
                    got.extend(out)
                    want.extend(reference(draws))
                    return out

                return _RUN(name, trials, draw, both)

            def chain_outcomes(*args):
                out = _CHAIN(*args)
                settled.extend(out)
                return out

            monkeypatch.setattr(relations, "_run", run)
            monkeypatch.setattr(relations, "_chain_outcomes", chain_outcomes)
            monkeypatch.setattr(relations, "_BATCH", batch)
            sextuple_suite(reg, trials, seed)
            assert None in got and got == want, (dtype, batch)
            # the routes: passes on the two sides, skips where side A is
            # zero, and draws settled by the chain continued from A
            routes = (got.count(True) - settled.count(True),
                      got.count(None) - settled.count(None), len(settled))
            if coeffs == (1, 2, 3, 4):
                assert min(routes) > 0, (dtype, batch, routes)


def test_sextuple_chain_from_side_a_decides_like_per_step_chain(monkeypatch, registry_200):
    # with no draw passing on the two sides, every draw with a nonzero side
    # A is settled by the chain continued from it, passes included
    form = registry_200.surface.form
    reference = per_step_sextuple_check(form, *point_rows(form, registry_200.points))
    got, want = [], []

    def run(name, trials, draw, check):
        def both(draws):
            out = check(draws)
            got.extend(out)
            want.extend(reference(draws))
            return out

        return _RUN(name, trials, draw, both)

    monkeypatch.setattr(relations, "_run", run)
    monkeypatch.setattr(relations, "_proportional", lambda U, V: np.zeros(len(U), bool))
    result = sextuple_suite(registry_200, 1000, 3)
    assert result.passes == 1000 and got == want


def is_multiple(u, v):
    """Whether v = q·u for a nonzero rational q, on Fractions."""
    if not any(u) or not any(v):
        return False
    q = next(Fraction(b, a) for a, b in zip(u, v) if a)
    return all(Fraction(b) == q * a for a, b in zip(u, v))


nonzero = st.integers(-(2**80), 2**80).filter(bool)
entries = st.sampled_from([0, 1, 2**63, -(2**64) - 3]) | st.integers(-(2**70), 2**70)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(entries, min_size=4, max_size=4),
    st.lists(entries, min_size=4, max_size=4),
    nonzero, nonzero, st.integers(0, 3),
)
def test_proportional_rows(row, other, lam, mu, k):
    # object rows with entries past 2^63 and zero columns: λ·r and μ·r are
    # proportional, a zero row never is, and other rows as the oracle says,
    # among them μ·r with one entry moved by 1
    r = np.array([row], dtype=object)
    zero = np.zeros_like(r)
    assert relations._proportional(lam * r, mu * r).tolist() == [any(row)]
    assert relations._proportional(zero, r).tolist() == [False]
    assert relations._proportional(r, zero).tolist() == [False]
    near = [mu * a + (i == k) for i, a in enumerate(row)]
    for v in (other, near):
        o = np.array([v], dtype=object)
        assert relations._proportional(r, o).tolist() == [is_multiple(row, v)]
        assert relations._proportional(o, r).tolist() == [is_multiple(v, row)]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-(2**12), 2**12)] * 4).filter(any), min_size=2, max_size=6),
    st.sampled_from([(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1)]),
)
def test_third_rows_int64_edge(rows, signs):
    # the form Σ s_i·(a + i)·x_i³ at the largest a for which `point_rows`
    # keeps the rows int64, where c2·x − c1·y reaches about 2^58, and at
    # a + 1, where it falls back: third_rows on the rows, with the
    # gradients looked up or dotted term by term, divided by gcd(c1, c2) or
    # not, equals its result on Python ints, rows and c1 alike
    M = max(abs(c) for r in rows for c in r)

    def guard(a):  # 32·max|grad F|·max|x|², as `point_rows` computes it
        return 32 * max(3 * (a + i) * r[i] ** 2 for r in rows for i in range(4)) * M**2

    lo, hi = 1, 2**63
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if guard(mid) < 2**63 else (lo, mid)
    pts = [ProjPoint(r) for r in rows]
    x, y = np.array(list(itertools.permutations(range(len(rows)), 2))).T
    for a, dtype in ((lo, np.int64), (lo + 1, object)):
        form = CubicForm.diagonal([s * (a + i) for i, s in enumerate(signs)])
        P, G = point_rows(form, pts)
        assert P.dtype == G.dtype == dtype
        Q, H = P.astype(object), G.astype(object)
        for divide in (True, False):
            exact = third_rows(form, Q[x], Q[y], H[x], H[y], divide=divide)
            assert exact[0].dtype == object
            for GX, GY in ((G[x], G[y]), (None, None)):
                got = third_rows(form, P[x], P[y], GX, GY, divide=divide)
                assert [r.tolist() for r in got] == [r.tolist() for r in exact]
            got = third_rows(form, Q[x], Q[y], divide=divide)
            assert [r.tolist() for r in got] == [r.tolist() for r in exact]


def per_draw_tangent_consistency(registry, trials, seed):
    """The tangent consistency suite one draw at a time on Python ints.

    F is evaluated at the coordinate sums y ± x as they are: normalizing
    them would change F's value by a cube.
    """
    form, pts = registry.surface.form, registry.points
    rng = random.Random(seed)

    def value(v):
        return sum(c * math.prod(a**e for a, e in zip(v, expo)) for expo, c in form.coeffs.items())

    passes = 0
    for _ in range(trials):
        x, y = (pts[i] for i in rng.sample(range(len(pts)), 2))
        plus = [b + a for a, b in zip(x.coords, y.coords)]
        minus = [b - a for a, b in zip(x.coords, y.coords)]
        passes += value(plus) - value(minus) == 2 * dot(gradient(form, y), x.coords)
    return [("tangent consistency", passes, trials - passes, 0)]


def value_dtypes(monkeypatch):
    """The dtypes of the values of F the tangent suite computes, two per batch."""
    seen = []

    def spy(form, X, p=None):
        values = eval_rows(form, X, p)
        seen.append(values.dtype)
        return values

    monkeypatch.setattr(relations, "eval_rows", spy)
    return seen


def test_tangent_suite_expands_int64_rows_at_h1100(monkeypatch, registry_1100):
    # max|y ± x| <= 2200 at H=1100: Σ|a|·2200³ is about 2^37
    seen = value_dtypes(monkeypatch)
    result = counts([tangent_consistency_suite(registry_1100, 2000, 5)])
    assert set(seen) == {np.dtype(np.int64)}
    assert result == per_draw_tangent_consistency(registry_1100, 2000, 5)


def test_tangent_suite_falls_back_on_composed_points(monkeypatch, registry_1100):
    # the compositions x o y of H=1100 points have coordinates of about 36
    # bits, so Σ|a|·max|y ± x|³ passes 2^63 and F's values are Python ints
    surf = registry_1100.surface
    pts = registry_1100.points[-40:]
    composed = {secant_compose(surf, x, y) for x, y in zip(pts, pts[1:])}
    assert 2**35 < max(abs(c) for z in composed for c in z.coords) < 2**40
    reg = PointRegistry(surf, 0, sorted(composed, key=lambda z: z.coords))
    seen = value_dtypes(monkeypatch)
    result = counts([tangent_consistency_suite(reg, 500, 3)])
    assert set(seen) == {np.dtype(object)}
    assert result == per_draw_tangent_consistency(reg, 500, 3)


@pytest.mark.parametrize("a4, dtype", [(2**60 - 4, np.int64), (2**60 - 3, object)])
def test_tangent_guard_edge(monkeypatch, a4, dtype):
    # points with x4 = 0 keep the gradient, and so `point_rows`, small, while
    # max|y ± x| = 2 and the guard of `eval_rows`, Σ|a|·2³ = 8·(3 + a4),
    # reaches 2^63 at a4 = 2^60 − 3
    surf = CubicSurface.diagonal((1, 1, 1, -a4))
    pts = [normalize(v) for v in [(1, -1, 0, 0), (1, 0, -1, 0), (0, 1, -1, 0)]]
    reg = PointRegistry(surf, 2, [surface_point(surf, x) for x in pts])
    P, G = point_rows(surf.form, reg.points)
    assert P.dtype == G.dtype == np.int64
    seen = value_dtypes(monkeypatch)
    result = counts([tangent_consistency_suite(reg, 50, 1)])
    assert set(seen) == {np.dtype(dtype)}
    assert result == per_draw_tangent_consistency(reg, 50, 1)


def test_tangent_suite_fails_on_wrong_gradients(monkeypatch, registry_200):
    # with the gradients' first column doubled, 2·grad F(y)·x grows by
    # 6·y1²·x1, which no point of height <= 200 makes zero, so every draw
    # fails; comparing only whether the two sides are zero would pass
    # every draw where both are nonzero
    def doubled(form, points):
        P, G = point_rows(form, points)
        G = G.copy()
        G[:, 0] *= 2
        return P, G

    assert all(x.coords[0] for x in registry_200.points)
    monkeypatch.setattr(relations, "point_rows", doubled)
    result = tangent_consistency_suite(registry_200, 500, 0)
    assert result.failures > 0 and result.passes == 0


def populations(k):
    """n from k to 5000: below 22, where `sample` keeps a pool, and 2^j and
    2^j + 1, where a word's value is kept with chance 1 and about 1/2."""
    powers = st.integers(max(2, k.bit_length()), 12).flatmap(
        lambda j: st.sampled_from([2**j, 2**j + 1])
    )
    return st.one_of(st.integers(k, 21), powers, st.integers(k, 5000))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**64),
    st.sampled_from([2, 3, 4]).flatmap(lambda k: st.tuples(st.just(k), populations(k))),
    st.lists(st.integers(1, relations._BATCH), min_size=1, max_size=4),
)
def test_sample_rows_match_per_draw_sample(seed, k_n, sizes):
    k, n = k_n
    rng, loop = random.Random(seed), random.Random(seed)
    for m in sizes:
        rows = sample_rows(rng, n, k, m)
        assert rows.dtype == np.int64
        assert rows.tolist() == [loop.sample(range(n), k) for _ in range(m)]
        assert rng.getstate() == loop.getstate()


@pytest.mark.parametrize(
    "p, assoc_skips", [(101, 8), (13, 121)], ids=["f101", "f13"]
)
def test_group_law_counts_are_pinned(monkeypatch, p, assoc_skips):
    for batch in (relations._BATCH, 7, 1):
        monkeypatch.setattr(relations, "_BATCH", batch)
        assert counts(group_law_suite(300, 11, p=p)) == [
            ("group identity", 300, 0, 0),
            ("group commutativity", 300, 0, 0),
            ("group associativity", 300, 0, assoc_skips),
        ], batch


@pytest.mark.parametrize("seed, assoc_skips", [(1, 14), (7, 29)])
def test_group_law_benchmark_configuration_counts_are_pinned(seed, assoc_skips):
    # the identities benchmark workload: x^3+y^3+z^3 over F_101, 1000 trials
    assert counts(group_law_suite(1000, seed)) == [
        ("group identity", 1000, 0, 0),
        ("group commutativity", 1000, 0, 0),
        ("group associativity", 1000, 0, assoc_skips),
    ]


def per_draw_group_law(trials, seed, p, diagonal):
    """The group law suite one draw at a time through the scalar group_add.

    A draw whose sums raise a CubicError is skipped, and the skip budget is
    the suite's.
    """
    curve = PlaneCubic(CubicForm.diagonal(diagonal), Field(p))
    pts = [ProjPoint(tuple(x), curve.field) for x in curve_rows(curve).tolist()]
    pts = [x for x in pts if any(gradient(curve.form, x))]
    if len(pts) < 4:
        raise DegenerateSample(f"the suite draws 4 distinct points, there are {len(pts)}")
    rng = random.Random(seed)
    add = functools.partial(group_add, curve)
    checks = [
        ("group identity", lambda e, x: add(e, x, e) == x),
        ("group commutativity", lambda e, x, y: add(e, x, y) == add(e, y, x)),
        ("group associativity",
         lambda e, x, y, z: add(e, add(e, x, y), z) == add(e, x, add(e, y, z))),
    ]
    out = []
    for k, (name, check) in enumerate(checks, start=2):
        passes = failures = skips = 0
        while passes + failures < trials:
            try:
                holds = check(*rng.sample(pts, k))
            except CubicError:
                skips += 1
                if skips > relations._SKIPS_PER_TRIAL * trials:
                    raise DegenerateSample(
                        f"{name}: {skips} draws skipped before {trials} trials were made"
                    )
                continue
            passes += holds
            failures += not holds
        out.append((name, passes, failures, skips))
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except (CubicError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([p for p in range(5, 98) if all(p % d for d in range(2, p))]),
    # zero coefficients and multiples of p give singular and reducible curves
    st.tuples(*[st.integers(-6, 6)] * 3),
    st.integers(0, 2**32),
    st.integers(1, 200),
)
def test_group_law_suite_matches_per_draw_group_add(p, diagonal, seed, trials):
    batched = outcome(lambda: counts(group_law_suite(trials, seed, p=p, diagonal=diagonal)))
    assert batched == outcome(per_draw_group_law, trials, seed, p, diagonal)


@pytest.mark.parametrize("p", [2, 3])
def test_group_law_on_tiny_field_is_degenerate(p):
    # F_2 has three points on x^3+y^3+z^3 = 0; over F_3 every point is singular
    with pytest.raises(DegenerateSample):
        group_law_suite(5, p=p)


def test_suites_give_up_when_every_draw_is_skipped():
    # every pair of these Fermat points spans the line x1+x2 = x3+x4 = 0, which
    # lies on the surface, so no draw can be tested; run apart so a hang is cut.
    # The budget runs out at the same draw for the default batch, 1 and 7.
    code = (
        "from cubicmw import CubicSurface, PointRegistry, normalize, surface_point, relations\n"
        "from cubicmw.errors import DegenerateSample\n"
        "from cubicmw.relations import involution_suite, sextuple_suite\n"
        "s = CubicSurface.diagonal((1, 1, 1, 1))\n"
        "pts = [(0, 0, 1, -1), (1, -1, 0, 0), (1, -1, 1, -1), (1, -1, -1, 1)]\n"
        "reg = PointRegistry(s, 4, [surface_point(s, normalize(p)) for p in pts])\n"
        "for batch in (relations._BATCH, 1, 7):\n"
        "    relations._BATCH = batch\n"
        "    for suite in (involution_suite, sextuple_suite):\n"
        "        try:\n"
        "            suite(reg, 5)\n"
        "        except DegenerateSample as exc:\n"
        "            print(exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.stdout.splitlines() == [
        "involution: 501 draws skipped before 5 trials were made",
        "sextuple relation: 501 draws skipped before 5 trials were made",
    ] * 3, out.stderr
