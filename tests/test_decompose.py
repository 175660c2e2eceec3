import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cubicmw import (
    CompositionTable,
    CubicSurface,
    PointRegistry,
    build_report,
    build_table,
    enumerate_points,
    height,
    normalize,
    on_tangent_section,
    render_scheme,
    secant_compose,
    strong_decompositions,
    surface_point,
    weak_closure,
)
from cubicmw import decompose, surface
from cubicmw.decompose import (
    OP,
    DecompositionReport,
    Scheme,
    _MinMaxPass,
    _bucket as bucket,
    cap_profile,
    evaluate_scheme,
)
from cubicmw.errors import EmptyRegistry, EqualPoints, LineOnSurface, ParseError
from cubicmw.surface import point_rows


@pytest.fixture(scope="module")
def registry_300():
    return enumerate_points((1, 2, 3, 4), 300)


@pytest.fixture(scope="module")
def table_300(registry_300):
    return build_table(registry_300)


def table_by_pairs(registry):
    """Reference table: one secant composition and one tangent test per pair.

    The in-registry rows (i, j, k) and the undefined pairs (i, j) come in
    row-major order, and tangent maps each rank to its tuple.
    """
    surface = registry.surface
    pts = registry.points
    n = len(pts)
    in_vh, undefined, tangent = [], [], {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            try:
                z = secant_compose(surface, pts[i - 1], pts[j - 1])
            except LineOnSurface:
                undefined.append((i, j))
                continue
            k = registry.index.get(z.coords)
            if k is not None:
                in_vh.append((i, j, k))
    for i in range(1, n + 1):
        tangent[i] = tuple(
            j
            for j in range(1, n + 1)
            if j != i and on_tangent_section(surface, pts[j - 1], pts[i - 1])
        )
    return in_vh, undefined, tangent


def fermat_line_registry(ns, width=None):
    """Fermat points (1, -1, n, -n), (1, n, -1, -n), (n, -n, 1, -1) for n in ns,
    the points of height <= 3, and the compositions of the former with both
    that have no coordinate above width."""
    surface = CubicSurface.diagonal((1, 1, 1, 1))
    small = enumerate_points((1, 1, 1, 1), 3).points
    big = []
    for n in ns:
        for raw in ((1, -1, n, -n), (1, n, -1, -n), (n, -n, 1, -1)):
            big.append(surface_point(surface, normalize(raw)))
    composed = []
    for x in big:
        for y in big + small[:4]:
            try:
                z = secant_compose(surface, x, y)
            except (EqualPoints, LineOnSurface):
                continue
            if width is None or max(map(abs, z.coords)) <= width:
                composed.append(z)
    pts = set(small + big + composed)
    ordered = sorted(pts, key=lambda x: (height(x), x.coords))
    return PointRegistry(surface, height(ordered[-1]), ordered)


@pytest.fixture(scope="module")
def big_registry():
    """Fermat points with coordinates near 10^6 plus some of their compositions.

    Gradients times squared coordinates exceed 2^63 here, so the table is
    built on Python ints; lines like x1 + x2 = x3 + x4 = 0 lie on the surface.
    """
    return fermat_line_registry((10**6, 10**6 + 1))


@pytest.fixture(scope="module")
def big_table(big_registry):
    return build_table(big_registry)


def outcome(table, i, j):
    """("in", k), ("undefined", None) or ("outside", None) for the pair {i, j}."""
    key = [min(i, j), max(i, j)]
    hit = (table.in_vh[:, :2] == key).all(axis=1)
    if hit.any():
        return ("in", int(table.in_vh[hit, 2][0]))
    if (table.undefined == key).all(axis=1).any():
        return ("undefined", None)
    return ("outside", None)


def parse_scheme(text: str):
    """Parse a rendered scheme into nested (left, right) tuples with int leaves."""
    pos = 0

    def atom():
        nonlocal pos
        if pos < len(text) and text[pos] == "(":
            pos += 1
            node = expr()
            if pos >= len(text) or text[pos] != ")":
                raise ParseError(f"missing ')' at position {pos} in {text!r}")
            pos += 1
            return node
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise ParseError(f"expected rank at position {pos} in {text!r}")
        return int(text[start:pos])

    def expr():
        nonlocal pos
        left = atom()
        if pos < len(text) and text[pos] == OP:
            pos += 1
            return (left, atom())
        return left

    tree = expr()
    if pos != len(text):
        raise ParseError(f"trailing input at position {pos} in {text!r}")
    return tree


def evaluate_parsed(registry, tree) -> set[tuple[int, ...]]:
    """Value set of a parsed (unannotated) scheme; tangent nodes are multivalued."""
    surface = registry.surface
    if isinstance(tree, int):
        return {registry.point(tree).coords}
    lvals = evaluate_parsed(registry, tree[0])
    rvals = evaluate_parsed(registry, tree[1])
    out: set[tuple[int, ...]] = set()
    for a in lvals:
        pa = registry.point(registry.index[a])
        for b in rvals:
            if a == b:
                for x in registry.points:
                    if x.coords != a and on_tangent_section(surface, x, pa):
                        out.add(x.coords)
                continue
            try:
                z = secant_compose(surface, pa, registry.point(registry.index[b]))
            except (EqualPoints, LineOnSurface):
                continue
            if z.coords in registry.index:
                out.add(z.coords)
    return out


def table_items(table):
    """The table's outcomes: its rows as tuples, in table order, and the tangent items."""
    assert table.in_vh.dtype == table.undefined.dtype == table.tangent_rows.dtype == np.int64
    assert table.in_vh.shape[1:] == (3,) and table.undefined.shape[1:] == (2,)
    # the tangent mapping is the tangent rows grouped by their first entry
    assert table.tangent_rows.tolist() == [[i, j] for i, row in table.tangent.items() for j in row]
    rows = [list(map(tuple, a.tolist())) for a in (table.in_vh, table.undefined)]
    return *rows, list(table.tangent.items())


def oracle_items(registry):
    in_vh, undefined, tangent = table_by_pairs(registry)
    return in_vh, undefined, list(tangent.items())


def oracle_strong(in_vh, tangent):
    """x -> sorted pairs (y, z), y, z < x, of the relations of `table_by_pairs`; (y, y) for a tangent."""
    strong = {}
    for i, j, k in in_vh:
        if j < k:
            strong.setdefault(k, []).append((i, j))
    for i, row in tangent.items():
        for k in row:
            if i < k:
                strong.setdefault(k, []).append((i, i))
    return {k: sorted(v) for k, v in sorted(strong.items())}


@pytest.mark.parametrize("coeffs, bound", [((1, 2, 3, 4), 300), ((1, 1, 1, 1), 24)])
def test_table_matches_pair_oracle(coeffs, bound):
    registry = enumerate_points(coeffs, bound)
    # table_by_pairs inserts in row-major order, and so must build_table
    assert table_items(build_table(registry)) == oracle_items(registry)


def test_table_matches_pair_oracle_beyond_int64(big_registry, big_table):
    xmax = max(abs(c) for x in big_registry.points for c in x.coords)
    assert xmax**4 > 2**63
    table = big_table
    assert table_items(table) == oracle_items(big_registry)
    assert len(table.undefined)
    assert any(height(big_registry.point(k)) > 10**6 for k in table.in_vh[:, 2].tolist())


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("name", ["registry_300", "fermat_registry", "big_registry"])
def test_table_in_small_blocks_matches_pair_oracle(request, monkeypatch, name, block):
    """The two tests above at the default _BLOCK, here with a block edge every row or few."""
    registry = request.getfixturevalue(name)
    monkeypatch.setattr(decompose, "_BLOCK", block)
    assert table_items(build_table(registry)) == oracle_items(registry)


@pytest.mark.parametrize("block", [7, decompose._BLOCK])
def test_table_on_object_rows_matches_int64(monkeypatch, registry_300, table_300, block):
    # 94 points make 4371 pairs: more than one block at the default size
    assert len(registry_300) * (len(registry_300) - 1) // 2 > decompose._BLOCK
    monkeypatch.setattr(surface, "_INT64_BOUND", 0)
    monkeypatch.setattr(decompose, "_BLOCK", block)
    P, G = point_rows(registry_300.surface.form, registry_300.points)
    assert P.dtype == G.dtype == object
    assert table_items(build_table(registry_300)) == table_items(table_300)


@pytest.mark.parametrize("name, in_registry, undefined, tangent_entries", [
    ("table_1100", 2133, 0, 225),
    ("fermat_table", 8178, 12558, 25506),
], ids=["zagier-1100", "fermat-24"])
def test_table_outcome_counts(request, name, in_registry, undefined, tangent_entries):
    table = request.getfixturevalue(name)
    assert len(table.in_vh) == in_registry
    assert len(table.undefined) == undefined
    assert len(table.tangent_rows) == sum(map(len, table.tangent.values())) == tangent_entries


def test_table_holds_plain_ints(table_300, big_table):
    """Ranks are int64 in the arrays, also over object rows, and plain ints in the tangent."""
    for table in (table_300, big_table):
        assert table.in_vh.dtype == table.undefined.dtype == np.int64
        values = [v for i, row in table.tangent.items() for v in (i, *row)]
        assert all(type(v) is int for v in values)
    for rows in table_300.pairs_of:
        assert all(type(v) is int for row in rows for v in row)


def test_table_past_float64_precision_matches_pair_oracle(monkeypatch):
    # coordinates near 10^4 keep the rows int64, but the first two entries of
    # some candidate rows sum past 2^53, where int64 need not convert exactly
    registry = fermat_line_registry((10**4, 10**4 + 1), width=2 * 10**4)
    P, G = point_rows(registry.surface.form, registry.points)
    assert P.dtype == G.dtype == np.int64
    wide = []

    def spy(v0, v1):
        wide.append(int(((np.abs(v0) + np.abs(v1)) >= 2**53).sum()))
        return bucket(v0, v1)

    monkeypatch.setattr(decompose, "_bucket", spy)
    assert table_items(build_table(registry)) == oracle_items(registry)
    assert sum(wide) > 0


@pytest.mark.parametrize("name", ["table_1100", "fermat_table"])
def test_hit_shares_its_targets_bucket(request, name):
    """What the table's reject rests on: c2·x_i − c1·x_j = λ·x_k falls in x_k's bucket."""
    table = request.getfixturevalue(name)
    P, G = point_rows(table.registry.surface.form, table.registry.points)
    i, j, k = (table.in_vh - 1).T
    c1 = (G[i] * P[j]).sum(axis=1)
    c2 = (G[j] * P[i]).sum(axis=1)
    row = c2[:, None] * P[i] - c1[:, None] * P[j]
    assert (bucket(row[:, 0], row[:, 1]) == bucket(P[k, 0], P[k, 1])).all()


nonzero = st.integers(-9, 9).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.tuples(nonzero, nonzero, nonzero, nonzero), st.integers(1, 40))
def test_table_matches_pair_oracle_on_random_surfaces(coeffs, bound):
    registry = enumerate_points(coeffs, bound)
    # the oracle composes every pair in Python: (1, -1, 1, -1) has 837 points at H=40
    assume(len(registry) <= 250)
    if not len(registry):
        with pytest.raises(EmptyRegistry):
            build_table(registry)
        return
    in_vh, undefined, tangent = table_by_pairs(registry)
    table = build_table(registry)
    assert table_items(table) == (in_vh, undefined, list(tangent.items()))
    assert strong_decompositions(table) == oracle_strong(in_vh, tangent)


def test_table_symmetry(table_300):
    for i, j, k in table_300.in_vh[:50].tolist():
        assert outcome(table_300, j, i) == ("in", k)


def test_table_soundness(table_300, registry_300):
    rng = random.Random(10)
    surface = registry_300.surface
    entries = table_300.in_vh.tolist()
    for i, j, k in rng.sample(entries, min(500, len(entries))):
        z = secant_compose(surface, registry_300.point(i), registry_300.point(j))
        assert registry_300.index[z.coords] == k
    rows = [(i, j) for i, row in table_300.tangent.items() for j in row]
    for i, j in rng.sample(rows, min(200, len(rows))):
        assert on_tangent_section(
            surface, registry_300.point(j), registry_300.point(i)
        )


def test_binary_entry_example(table_300, registry_300):
    i = registry_300.index[(1, 0, 1, -1)]
    j = registry_300.index[(1, 1, -1, 0)]
    k = registry_300.index[(3, 1, 1, -2)]
    assert outcome(table_300, i, j) == ("in", k)


def test_tangent_row_example(table_300, registry_300):
    y = registry_300.index[(1, 1, -1, 0)]
    x = registry_300.index[(1, 28, -19, -18)]
    assert x in table_300.tangent[y]


def test_first_three_points_undecomposable(table_300, registry_300):
    strong = strong_decompositions(table_300)
    for rank in (1, 2, 3):
        assert rank not in strong
        ok, _ = weak_closure(table_300, rank)
        assert not ok


def test_strong_subset_of_weak(table_300):
    strong = strong_decompositions(table_300)
    rng = random.Random(11)
    for x in rng.sample(sorted(strong), min(20, len(strong))):
        ok, scheme = weak_closure(table_300, x)
        assert ok
        # a strongly decomposable point admits a depth-1 witness
        y, z = strong[x][0]
        assert scheme is not None


def closure(table, seeds):
    """Fixpoint of the seed set under table compositions, with back-pointers.

    One min-max pass with step 1: parents[k] = (i, j) is the smallest
    producing pair in the earliest generation, (i, i) for the tangent
    relation k = i o i.
    """
    kernel = _MinMaxPass(table)
    kernel.seed(*seeds)
    kernel.settle()
    reached = {k for k, v in enumerate(kernel.value) if v < math.inf}
    return reached, {k: kernel.parent[k] for k in reached if kernel.value[k]}


def test_closure_idempotent_and_monotone(table_300):
    seeds = set(range(1, 8))
    closed, _ = closure(table_300, seeds)
    again, _ = closure(table_300, closed)
    assert again == closed
    bigger, _ = closure(table_300, seeds | {9})
    assert closed <= bigger


def naive_closure(table, seeds):
    """Reference: every generation rescans all table pairs and tangent rows."""
    reached = set(seeds)
    parents = {}
    pair_items = table.in_vh.tolist()
    tangent_items = sorted(table.tangent.items())
    while True:
        candidates = {}
        for i, j, k in pair_items:
            if k not in reached and i in reached and j in reached:
                prev = candidates.get(k)
                if prev is None or (i, j) < prev:
                    candidates[k] = (i, j)
        for i, row in tangent_items:
            if i not in reached:
                continue
            for j in row:
                if j not in reached:
                    prev = candidates.get(j)
                    if prev is None or (i, i) < prev:
                        candidates[j] = (i, i)
        if not candidates:
            return reached, parents
        for k, pair in candidates.items():
            reached.add(k)
            parents[k] = pair


@pytest.fixture(scope="module")
def fermat_registry():
    return enumerate_points((1, 1, 1, 1), 24)


@pytest.fixture(scope="module")
def fermat_table(fermat_registry):
    # on the Fermat surface at H=24 tangent rows make up most relations
    return build_table(fermat_registry)


@pytest.fixture(scope="module")
def closure_tables(table_300, fermat_table):
    return [table_300, fermat_table]


def scheme_from_parents(target, seeds, parents):
    if target in seeds:
        return Scheme(target)
    i, j = parents[target]
    left = scheme_from_parents(i, seeds, parents)
    if i == j:
        return Scheme(target, left, left, tangent=True)
    return Scheme(target, left, scheme_from_parents(j, seeds, parents))


def depths_from_parents(seeds, parents):
    """Closure generation of each reached rank: the parents are in the earliest one."""
    depth = dict.fromkeys(seeds, 0)

    def of(k):
        if k not in depth:
            depth[k] = 1 + max(of(parents[k][0]), of(parents[k][1]))
        return depth[k]

    for k in parents:
        of(k)
    return depth


def oracle_report(table):
    """The report from the pair oracle's strong lists and one naive closure per non-strong rank."""
    in_vh, _, tangent = table_by_pairs(table.registry)
    strong = oracle_strong(in_vh, tangent)
    weak, gens = {}, []
    for x in range(1, len(table.registry) + 1):
        if x in strong:
            continue
        seeds = set(range(1, x))
        reached, parents = naive_closure(table, seeds)
        if x in reached:
            weak[x] = scheme_from_parents(x, seeds, parents)
        else:
            gens.append(x)
    return DecompositionReport(table.registry, strong, weak, gens)


@pytest.mark.parametrize("name", ["table_300", "fermat_table", "table_1100"])
def test_report_matches_per_target_oracle(request, name):
    table = request.getfixturevalue(name)
    report, oracle = build_report(table), oracle_report(table)
    assert report.strong == oracle.strong
    assert report.weak_witnesses == oracle.weak_witnesses
    assert report.generator_ranks == oracle.generator_ranks


@pytest.mark.parametrize("name, digest", [
    ("table_1100", "cf99a10c97fb3c66a5189df7ab47613a20c5470cc0a58fd2addd1a0aed974e96"),
    ("fermat_table", "8121daaa335631c58890e362d8dd7729ef38338fa9363227106c388eb4290fb7"),
], ids=["zagier-1100", "fermat-24"])
def test_report_digest_is_pinned(request, name, digest):
    report = build_report(request.getfixturevalue(name))
    text = json.dumps(report.to_json_dict(), indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_incremental_pass_matches_fresh_closure(closure_tables, data):
    """Seeds added in batches, each settled only up to a target, end at the fresh fixpoint.

    After each lazy settle the target already holds its depth and witness over
    the seeds so far, as build_report reads them.
    """
    table = data.draw(st.sampled_from(closure_tables))
    n = len(table.registry)
    kernel = _MinMaxPass(table)
    seeds = set()
    for batch in data.draw(st.lists(st.sets(st.integers(1, n), max_size=12), max_size=5)):
        for r in sorted(batch - seeds):
            kernel.seed(r)
        seeds |= batch
        target = data.draw(st.integers(1, n))
        kernel.settle(target)
        reached, parents = naive_closure(table, seeds)
        if target in reached:
            assert kernel.value[target] == depths_from_parents(seeds, parents)[target]
            assert kernel.scheme(target) == scheme_from_parents(target, seeds, parents)
        else:
            assert kernel.value[target] == math.inf
    kernel.settle()
    reached, parents = naive_closure(table, seeds)
    depth = depths_from_parents(seeds, parents)
    assert {k: v for k, v in enumerate(kernel.value) if v < math.inf} == depth
    assert {k: kernel.parent[k] for k in reached if k not in seeds} == parents


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_matches_naive(closure_tables, data):
    table = data.draw(st.sampled_from(closure_tables))
    n = len(table.registry)
    seeds = data.draw(
        st.integers(1, n).map(lambda x: set(range(1, x)))
        | st.sets(st.integers(1, n), max_size=12)
    )
    assert closure(table, seeds) == naive_closure(table, seeds)


def test_partition_and_regeneration(table_300, registry_300):
    report = build_report(table_300)
    n = len(registry_300)
    strong = set(report.strong)
    weak = set(report.weak_witnesses)
    gens = set(report.generator_ranks)
    assert strong | weak | gens == set(range(1, n + 1))
    assert not (strong & weak) and not (strong & gens) and not (weak & gens)
    regenerated, _ = closure(table_300, gens)
    assert regenerated == set(range(1, n + 1))


def test_weak_witnesses_valid(table_300, registry_300):
    report = build_report(table_300)
    for x, scheme in report.weak_witnesses.items():
        value = evaluate_scheme(registry_300, scheme)
        assert value.coords == registry_300.point(x).coords

        def leaves(s):
            return {s.rank} if s.is_leaf else leaves(s.left) | leaves(s.right)

        assert all(leaf < x for leaf in leaves(scheme))


def test_render_depth_one():
    s = Scheme(5, Scheme(1), Scheme(2))
    assert render_scheme(s) == "1∘2"


def test_render_parse_round_trip(table_300, registry_300):
    report = build_report(table_300)
    rng = random.Random(12)
    schemes = list(report.weak_witnesses.items())
    for x, scheme in schemes:
        text = render_scheme(scheme)
        tree = parse_scheme(text)
        values = evaluate_parsed(registry_300, tree)
        assert registry_300.point(x).coords in values
    # a hand-made nested render parses back to the same shape
    assert parse_scheme("5∘(1∘2)") == (5, (1, 2))
    with pytest.raises(ParseError):
        parse_scheme("5∘(1∘2")


def test_report_json_schema(table_300):
    report = build_report(table_300)
    d = report.to_json_dict()
    assert list(d) == [
        "points",
        "strong_count",
        "weak_only_count",
        "generator_count",
        "generators",
        "strong",
        "weak_witnesses",
    ]
    assert d["points"] == d["strong_count"] + d["weak_only_count"] + d["generator_count"]
    for pairs in d["strong"].values():
        for y, z in pairs:
            assert isinstance(y, int) and isinstance(z, int)


def naive_cap(table, x):
    """Binary search over the heights for the least cap under which the naive closure reaches x."""
    reg = table.registry
    heights = sorted({height(p) for p in reg.points if height(p) >= height(reg.point(x))})

    def reaches(cap):
        low = {k for k in range(1, len(reg) + 1) if height(reg.point(k)) <= cap}
        in_vh = table.in_vh[np.isin(table.in_vh[:, 2], list(low))]
        tangent_rows = table.tangent_rows[np.isin(table.tangent_rows[:, 1], list(low))]
        capped = CompositionTable(reg, in_vh, table.undefined, tangent_rows)
        return x in naive_closure(capped, set(range(1, x)))[0]

    if not reaches(heights[-1]):
        return None
    lo, hi = 0, len(heights) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if reaches(heights[mid]):
            hi = mid
        else:
            lo = mid + 1
    return heights[lo]


def test_caps_match_height_restricted_closure(table_300):
    strong = strong_decompositions(table_300)
    profile = cap_profile(table_300, strong)
    assert [x for x, _ in profile] == [x for x in range(1, len(table_300.registry) + 1)
                                       if x not in strong]
    assert profile == [(x, naive_cap(table_300, x)) for x, _ in profile]


def test_cap_profile_at_1100(registry_1100, table_1100, report_1100):
    caps = dict(cap_profile(table_1100, report_1100.strong))
    assert caps[registry_1100.index[(15, -37, 5, 29)]] == 1089
    assert [x for x, cap in caps.items() if cap is None] == report_1100.generator_ranks
