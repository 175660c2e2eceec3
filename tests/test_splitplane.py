import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix

from cubicmw import (
    Field,
    ProjPoint,
    RATIONALS,
    check_general_position,
    cubic_system_basis,
    embed,
    eval_form,
    modified_compose,
    normalize,
    plane_closure,
    quaternary_star,
    recover_cubic_equation,
    verify_claim1,
)
from cubicmw.errors import (
    BasePoint,
    CoincidentLines,
    CubicError,
    DegeneratePosition,
    DegenerateSeeds,
    DimensionMismatch,
    InvalidBound,
    ZeroVector,
)
from cubicmw import splitplane
from cubicmw.geometry import line_through, meet
from cubicmw.linalg import kernel_basis
from cubicmw.splitplane import DEFAULT_BASE, BlowupModel, pullback_cubic

F101 = Field(101)
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="module")
def model_q():
    return BlowupModel.build()


@pytest.fixture(scope="module")
def model_101():
    return BlowupModel.build(field=F101)


def test_default_base_is_general_position():
    pts = [normalize(v) for v in DEFAULT_BASE]
    ok, report = check_general_position(pts)
    assert ok, report


def test_collinear_triple_detected():
    pts = [normalize(v) for v in
           [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 2, 3), (1, 4, 9)]]
    ok, report = check_general_position(pts)
    assert not ok
    assert any("collinear" in line for line in report)


def test_collinear_mod_p_detected():
    # the first three have determinant −7: collinear over F_7, not over Q
    f7 = Field(7)
    pts = [normalize(v, f7) for v in
           [(1, 1, 1), (1, 2, 4), (1, 3, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    ok, report = check_general_position(pts)
    assert not ok
    assert "points 0,1,2 are collinear" in report


def test_conic_sextet_detected():
    f7 = Field(7)
    pts = [normalize((1, t, t * t), f7) for t in range(6)]
    ok, report = check_general_position(pts)
    assert not ok
    assert any("conic" in line for line in report)


def test_cubic_system(model_q):
    assert len(model_q.cubics) == 4
    for f in model_q.cubics:
        for b in model_q.base:
            assert eval_form(f, b) == 0
    # determinism
    again = cubic_system_basis(model_q.base)
    assert [f.coeffs for f in again] == [f.coeffs for f in model_q.cubics]


def test_degenerate_position_raises():
    pts = [normalize(v) for v in
           [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 2, 3), (1, 4, 9)]]
    with pytest.raises(DegeneratePosition):
        BlowupModel.build([p.coords for p in pts])


@pytest.mark.parametrize("field", [RATIONALS, F101])
@pytest.mark.parametrize(
    "base",
    [[(1, 0, 0, 5), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (1, 2, 3, 0), (1, 4, 9, 0)],
     DEFAULT_BASE[:5] + [(1, 4, 9, 2)]],
    ids=["all-in-p3", "one-in-p3"],
)
def test_base_points_of_p3_refused(base, field):
    # the collinearity and conic checks read only three coordinates
    with pytest.raises(DimensionMismatch):
        BlowupModel.build(base, field)


def test_embed_base_point_error(model_q):
    with pytest.raises(BasePoint):
        embed(model_q, model_q.base[0])


def test_embed_lands_on_surface(model_101):
    rng = random.Random(18)
    images = []
    for _ in range(100):
        q = normalize((1, rng.randrange(101), rng.randrange(101)), F101)
        if model_101.is_base(q):
            continue
        e = embed(model_101, q)
        assert eval_form(model_101.surface, e) == 0
        images.append((q, e))
    # injectivity off the base locus
    seen = {}
    for q, e in images:
        assert seen.setdefault(e.coords, q) == q
    assert len(images) >= 90


QUATERNARY_CUBICS = sorted(
    (e for e in itertools.product(range(4), repeat=4) if sum(e) == 3), reverse=True)


def sampled_equation(model, count=80, seed=0):
    """Reference: the cubic through `count` embedded plane points, by their monomial matrix.

    The kernel must be one-dimensional, and its canonical vector is taken in
    the same (lex descending) monomial order as the model's.
    """
    rng = random.Random(seed)
    p = model.field.p
    images = set()
    while len(images) < count:
        raw = [1] + [rng.randint(-9, 9) if p is None else rng.randrange(p) for _ in range(2)]
        q = normalize(raw, model.field)
        if not model.is_base(q):
            images.add(embed(model, q))
    m = [[math.prod(c**e for c, e in zip(x.coords, expo)) for expo in QUATERNARY_CUBICS]
         for x in sorted(images, key=lambda x: x.coords)]
    basis = kernel_basis(m, model.field)
    assert len(basis) == 1
    return {e: c for e, c in zip(QUATERNARY_CUBICS, basis[0]) if c}


def random_bases(field, count, seed):
    """`count` random sextuples in general position over the field."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        raw = [(1, rng.randint(-6, 6), rng.randint(-6, 6)) if field.p is None else
               (1, rng.randrange(field.p), rng.randrange(field.p)) for _ in range(6)]
        if check_general_position([normalize(r, field) for r in raw])[0]:
            out.append(raw)
    return out


def test_recovered_equation_is_canonical():
    cases = [(RATIONALS, None), (F101, None)]
    for seed, field in enumerate((RATIONALS, F101, Field(31))):
        cases += [(field, base) for base in random_bases(field, 3, seed)]
    for field, base in cases:
        model = BlowupModel.build(base, field)
        assert model.surface.coeffs == sampled_equation(model), (field, base)
        assert recover_cubic_equation(model.cubics, field) == model.surface


def test_default_base_builds_over_f7():
    # P^2(F_7) has 57 points, too few to find the equation from 60 sampled images
    f7 = Field(7)
    model = BlowupModel.build(field=f7)
    plane = {normalize(v, f7) for v in itertools.product(range(7), repeat=3) if any(v)}
    assert len(plane) == 57
    images = [embed(model, q) for q in plane if not model.is_base(q)]
    assert len(images) == 51
    assert all(eval_form(model.surface, x) % 7 == 0 for x in images)


def test_build_memory_does_not_grow_with_p():
    tracemalloc.start()
    try:
        BlowupModel.build(field=Field(1009))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.1 MB: nothing of size p^2 is built
    assert peak < 1 << 20


def test_split_demo_over_largest_prime():
    # the address-space cap turns any allocation proportional to p^2 into an
    # early MemoryError instead of exhausting the machine; one BLAS thread
    # keeps the address space numpy reserves at import well below it
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from cubicmw.cli import main\n"
        "sys.exit(main(['split-demo', '--field', 'fp:2147483647', '--samples', '5']))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert out.returncode == 0, out.stderr
    assert "claim-1 suite: 5 agreed" in out.stdout


def test_recovered_equation_vanishes_on_fresh_samples(model_q):
    count = 0
    for a in range(-16, 17):
        for b in range(10, 12):
            q = normalize((1, a, b))
            if model_q.is_base(q):
                continue
            assert eval_form(model_q.surface, embed(model_q, q)) == 0
            count += 1
    assert count >= 60


def twisted_cubic_samples(model, a, b, n):
    """n embedded points of the twisted cubic over the line (a,b), plus skip count."""
    p = model.field.p
    ts = range(4 * n + 24) if p is None else range(p)
    out = []
    skipped = 0
    candidates = itertools.chain(
        (tuple(xa + t * xb for xa, xb in zip(a.coords, b.coords)) for t in ts),
        [b.coords],
    )
    for raw in candidates:
        if len(out) == n:
            break
        try:
            q = normalize(raw, model.field)
        except ZeroVector:
            continue
        try:
            out.append(embed(model, q))
        except BasePoint:
            skipped += 1
    return out, skipped


def test_quaternary_star_example(model_q):
    a, b, c, d = (normalize(v) for v in [(1, 0, 5), (0, 1, 5), (0, 2, 1), (1, 1, 1)])
    x = quaternary_star(model_q, a, b, c, d)
    # x sits on both lines, hence its image is on both twisted cubics
    s1, _ = twisted_cubic_samples(model_q, a, b, 5)
    s2, _ = twisted_cubic_samples(model_q, c, d, 5)
    for e in s1 + s2:
        assert eval_form(model_q.surface, e) == 0
    with pytest.raises(CoincidentLines):
        quaternary_star(model_q, a, b, a, b)


def test_twisted_cubic_non_coplanar(model_q):
    a = normalize((1, 5, 2))
    b = normalize((1, -3, 7))
    samples, skipped = twisted_cubic_samples(model_q, a, b, 6)
    assert len(samples) == 6
    for quad in itertools.combinations(samples, 4):
        assert Matrix([list(x.coords) for x in quad]).det() != 0


def test_twisted_cubic_skips_base_points(model_q):
    # the line through two base points passes through one at finite parameter
    a, b = model_q.base[0], model_q.base[1]
    _, skipped = twisted_cubic_samples(model_q, a, b, 5)
    assert skipped >= 1


def test_twisted_cubic_skips_only_the_zero_vector(model_101):
    # a + t*a vanishes at t = p - 1; every other candidate is a again
    a = normalize((1, 5, 2), F101)
    samples, skipped = twisted_cubic_samples(model_101, a, a, 101)
    assert samples == [embed(model_101, a)] * 101 and skipped == 0
    with pytest.raises(DimensionMismatch):
        twisted_cubic_samples(model_101, a, ProjPoint((1, 0), F101), 3)


def _sections_through(model, x3, y3):
    """Two distinct hyperplanes through two embedded points."""
    basis = kernel_basis([list(x3.coords), list(y3.coords)], model.field)
    assert len(basis) == 2
    u, v = basis
    w = [a + b for a, b in zip(u, v)]
    return normalize(u, model.field), normalize(w, model.field)


def test_modified_compose_contract_and_section_dependence(model_101):
    rng = random.Random(19)
    dependence_seen = False
    done = 0
    while done < 30:
        x = normalize((1, rng.randrange(101), rng.randrange(101)), F101)
        y = normalize((1, rng.randrange(101), rng.randrange(101)), F101)
        if x == y or model_101.is_base(x) or model_101.is_base(y):
            continue
        ex, ey = embed(model_101, x), embed(model_101, y)
        c1, c2 = _sections_through(model_101, ex, ey)
        try:
            z1 = modified_compose(model_101, c1, x, y)
            z2 = modified_compose(model_101, c2, x, y)
        except CubicError:
            continue
        for section, z in ((c1, z1), (c2, z2)):
            ez = embed(model_101, z)
            assert eval_form(model_101.surface, ez) == 0
            assert sum(a * b for a, b in zip(section.coords, ez.coords)) % 101 == 0
        if z1 != z2:
            dependence_seen = True
        done += 1
    assert dependence_seen


def test_section_is_a_plane_of_p3(model_101):
    with pytest.raises(DimensionMismatch):
        pullback_cubic(model_101, normalize((1, 2, 3), F101))


def test_claim1_over_f101(model_101):
    rng = random.Random(20)
    good = 0
    while good < 100:
        pts = [normalize((1, rng.randrange(101), rng.randrange(101)), F101)
               for _ in range(4)]
        if len(set(pts)) < 4 or any(model_101.is_base(q) for q in pts):
            continue
        try:
            agrees = verify_claim1(model_101, *pts)
        except CubicError:
            continue
        assert agrees
        good += 1


def test_claim1_over_q(model_q):
    rng = random.Random(21)
    good = 0
    while good < 20:
        pts = [normalize((1, rng.randint(-5, 5), rng.randint(-5, 5)))
               for _ in range(4)]
        if len(set(pts)) < 4 or any(model_q.is_base(q) for q in pts):
            continue
        try:
            agrees = verify_claim1(model_q, *pts)
        except CubicError:
            continue
        assert agrees
        good += 1


STANDARD_SEEDS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 23, 31])
def test_plane_closure_counts(p):
    field = Field(p)
    seeds = [normalize(v, field) for v in STANDARD_SEEDS]
    pts, gens = plane_closure(field, seeds)
    assert len(pts) == p * p + p + 1
    if p == 23:
        assert gens == 4


def test_plane_closure_monotone_and_idempotent():
    field = Field(5)
    seeds = [normalize(v, field) for v in STANDARD_SEEDS]
    pts, _ = plane_closure(field, seeds)
    rest = sorted(pts - set(seeds), key=lambda q: q.coords)
    again, gens = plane_closure(field, seeds + rest)
    assert again == pts and gens == 0
    more, _ = plane_closure(field, seeds + [normalize((1, 2, 3), field)])
    assert pts <= more


def test_plane_closure_over_q_contains_targets():
    seeds = [normalize(v) for v in STANDARD_SEEDS + [(1, 2, 0)]]
    pts, gens = plane_closure(RATIONALS, seeds, height_cap=50, max_generations=2)
    for target in [(1, 2, 3), (1, 1, 0), (1, 2, 1), (2, 1, 2)]:
        assert normalize(target) in pts
    assert gens == 2


def test_plane_closure_degenerate_seeds():
    field = Field(7)
    bad = [normalize(v, field) for v in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]]
    with pytest.raises(DegenerateSeeds):
        plane_closure(field, bad)
    with pytest.raises(DegenerateSeeds):
        plane_closure(RATIONALS, [normalize(v) for v in STANDARD_SEEDS])  # no cap


def naive_plane_closure(field, seeds, height_cap=None, max_generations=None):
    """Reference: every round joins all point pairs and meets all line pairs."""

    def admissible(x):
        return height_cap is None or max(abs(c) for c in x.coords) <= height_cap

    points = {s for s in seeds if admissible(s)}
    generation = 0
    while max_generations is None or generation < max_generations:
        lines = set()
        for a, b in itertools.combinations(sorted(points, key=lambda q: q.coords), 2):
            lines.add(line_through(a, b))
        new = set()
        for l1, l2 in itertools.combinations(sorted(lines, key=lambda l: l.coords), 2):
            try:
                x = meet(l1, l2)
            except CoincidentLines:
                continue
            if x not in points and admissible(x):
                new.add(x)
        if not new:
            break
        points |= new
        generation += 1
    return points, generation


def each_kernel(*args, listed=(math.inf, 0, None)):
    """plane_closure(*args) under each candidate count the switch may read.

    math.inf keeps every round pairwise, 0 counts from the first round, and
    None leaves the count, and so the switch, as it is.
    """
    out = []
    for bound in listed:
        with pytest.MonkeyPatch.context() as mp:
            if bound is not None:
                mp.setattr(splitplane._Codec, "listed", bound)
            out.append(plane_closure(*args))
    return out


@st.composite
def fp_closure_args(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    coord = st.integers(0, p - 1)
    extra = draw(st.lists(st.tuples(coord, coord, coord).filter(any), max_size=3))
    return p, extra, draw(st.none() | st.integers(0, 4))


@settings(max_examples=20, deadline=None)
@given(fp_closure_args())
@example((7, [], 0))  # zero generations: the seeds
def test_plane_closure_matches_naive_over_fp(args):
    p, extra, max_generations = args
    field = Field(p)
    seeds = [normalize(v, field) for v in STANDARD_SEEDS + extra]
    expected = naive_plane_closure(field, seeds, max_generations=max_generations)
    assert each_kernel(field, seeds, None, max_generations) == [expected] * 3


@st.composite
def q_closure_args(draw):
    cap = draw(st.integers(1, 20))
    coord = st.integers(-cap, cap)
    extra = draw(st.lists(st.tuples(coord, coord, coord).filter(any), max_size=2))
    return cap, extra, draw(st.integers(0, 2))


@settings(max_examples=30, deadline=None)
@given(q_closure_args())
@example((2, [], 0))
def test_plane_closure_matches_naive_over_q(args):
    cap, extra, max_generations = args
    seeds = [normalize(v) for v in STANDARD_SEEDS + extra]
    expected = naive_plane_closure(RATIONALS, seeds, cap, max_generations)
    assert each_kernel(RATIONALS, seeds, cap, max_generations) == [expected] * 3


def test_plane_closure_tiny_blocks_match_naive(monkeypatch):
    monkeypatch.setattr(splitplane, "_BLOCK_PAIRS", 1)
    for field, extra, cap, gens in ((Field(2), [], None, None),
                                    (Field(5), [(1, 2, 3)], None, None),
                                    (Field(7), [], None, None),
                                    (RATIONALS, [], 2, 2),
                                    (RATIONALS, [(1, 2, 0)], 10**3, 2)):
        # counting at cap 10^3 would list its 4 * 10^9 candidates, so it is not forced there
        listed = (math.inf, None) if cap == 10**3 else (math.inf, 0, None)
        seeds = [normalize(v, field) for v in STANDARD_SEEDS + extra]
        expected = naive_plane_closure(field, seeds, cap, gens)
        assert each_kernel(field, seeds, cap, gens, listed=listed) == [expected] * len(listed)


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("cap, size, generations", [
    (1, 13, 3), (2, 49, 4), (3, 145, 4), (4, 289, 4), (5, 577, 4), (6, 865, 4),
    (7, 1441, 4), (8, 2017, 5), (9, 2881, 5), (10, 3745, 5), (11, 5185, 5), (12, 6337, 5)])
def test_plane_closure_over_q_is_every_point_under_the_cap(cap, size, generations):
    box = {normalize(v) for v in itertools.product(range(-cap, cap + 1), repeat=3) if any(v)}
    # the nonzero rows of gcd 1 in the box, up to sign
    assert len(box) == size == sum(
        mobius(d) * ((2 * (cap // d) + 1) ** 3 - 1) // 2 for d in range(1, cap + 1))
    seeds = [normalize(v) for v in STANDARD_SEEDS]
    tracemalloc.start()
    try:
        closure = plane_closure(RATIONALS, seeds, height_cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert closure == (box, generations)
    # cap 12 peaks near 4 MB traced, most of it the returned points; listing
    # every line through two known points took about 1 GB
    assert peak < 8 << 20


# the largest cap whose codes fit in int64
INT64_EDGE = max(c for c in range(1, 2000) if splitplane._Codec(None, c).dtype is np.int64)


@pytest.mark.parametrize("cap", [INT64_EDGE, INT64_EDGE + 1])
def test_codes_of_the_widest_lines_round_trip(cap):
    # a line through two points under the cap has entries up to b = 2 cap^2
    codec = splitplane._Codec(None, cap)
    b = 2 * cap * cap
    rows = [(b, b - 1, -b), (b, -b, b - 1), (1, -b, b), (0, b, 1 - b), (0, 0, 1)]
    codes = codec.encode(np.array(rows, dtype=codec.dtype))
    assert codec.rows(codes).tolist() == [list(r) for r in rows]


@pytest.mark.parametrize("cap", [10**3, 10**6, 10**12])
def test_plane_closure_object_codes_match_naive(cap):
    assert splitplane._Codec(None, cap).dtype is object
    seeds = [normalize(v) for v in STANDARD_SEEDS + [(1, cap, 0), (cap - 1, 2, cap)]]
    assert plane_closure(RATIONALS, seeds, cap, 1) == (
        naive_plane_closure(RATIONALS, seeds, cap, 1))


def test_plane_closure_large_prime_allocates_nothing_by_p():
    field = Field(2147483647)
    seeds = [normalize(v, field) for v in STANDARD_SEEDS]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        pts, gens = plane_closure(field, seeds, max_generations=2)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(pts), gens) == (13, 2)
    assert pts == naive_plane_closure(field, seeds, max_generations=2)[0]
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_plane_closure_large_prime_never_lists_candidates(monkeypatch):
    # p^2 + p + 1 candidates never cost less than the pairs of two generations
    monkeypatch.setattr(splitplane._Codec, "candidates", property(lambda codec: pytest.fail()))
    field = Field(2147483647)
    seeds = [normalize(v, field) for v in STANDARD_SEEDS]
    assert plane_closure(field, seeds, max_generations=2) == (
        naive_plane_closure(field, seeds, max_generations=2))


@pytest.mark.parametrize("field, other", [(RATIONALS, Field(7)), (Field(7), RATIONALS),
                                          (Field(7), Field(5))])
def test_plane_closure_rejects_seeds_over_another_field(field, other):
    # over F_7, (1:6:0) is (1:-1:0); read over Q it would be the point (1, 6, 0)
    seeds = [normalize(v, other) for v in STANDARD_SEEDS + [(1, 6, 0)]]
    with pytest.raises(DimensionMismatch):
        plane_closure(field, seeds, height_cap=6 if field.p is None else None)
    mixed = [normalize(v, field) for v in STANDARD_SEEDS] + seeds[-1:]
    with pytest.raises(DimensionMismatch):
        plane_closure(field, mixed, height_cap=6 if field.p is None else None)


def test_plane_closure_rejects_cap_over_fp():
    field = Field(7)
    with pytest.raises(InvalidBound):
        plane_closure(field, [normalize(v, field) for v in STANDARD_SEEDS], height_cap=2)


def test_plane_closure_rejects_cap_below_one():
    with pytest.raises(InvalidBound):
        plane_closure(RATIONALS, [normalize(v) for v in STANDARD_SEEDS], height_cap=0)


def test_plane_closure_rejects_seed_above_cap():
    seeds = [normalize(v) for v in STANDARD_SEEDS + [(1, 3, 0)]]
    with pytest.raises(DegenerateSeeds):
        plane_closure(RATIONALS, seeds, height_cap=2)


def test_plane_closure_rejects_negative_generations():
    field = Field(7)
    with pytest.raises(InvalidBound):
        plane_closure(field, [normalize(v, field) for v in STANDARD_SEEDS], max_generations=-1)
