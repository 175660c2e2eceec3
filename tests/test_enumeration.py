import collections
import itertools
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cubicmw import (
    CubicSurface,
    brute_force_oracle,
    enumerate_points,
    enumeration,
    eval_form,
    height,
    load_registry,
    normalize,
    save_registry,
)
from cubicmw.errors import (
    BoundTooLarge,
    CubicError,
    InvalidBound,
    InvalidCoefficients,
    NotOnSurface,
    ParseError,
    UnsortedInput,
)

ZAGIER = (1, 2, 3, 4)
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def coords(reg):
    return [p.coords for p in reg.points]


def test_small_bounds():
    assert len(enumerate_points(ZAGIER, 2)) == 0
    reg3 = enumerate_points(ZAGIER, 3)
    assert coords(reg3) == [(1, 0, 1, -1), (1, 1, -1, 0)]
    reg4 = enumerate_points(ZAGIER, 4)
    assert coords(reg4) == [(1, 0, 1, -1), (1, 1, -1, 0), (1, -1, -1, 1)]


def test_invalid_coefficients():
    with pytest.raises(InvalidCoefficients):
        enumerate_points((1, 0, 3, 4), 10)


@pytest.mark.parametrize("bound", [0, -4])
def test_height_below_one_is_invalid_bound(bound):
    with pytest.raises(InvalidBound):
        enumerate_points(ZAGIER, bound)


def test_oracle_guard():
    with pytest.raises(BoundTooLarge):
        brute_force_oracle(ZAGIER, 201)


def test_oracle_small_case():
    assert coords(brute_force_oracle(ZAGIER, 3)) == [(1, 0, 1, -1), (1, 1, -1, 0)]


def test_naive_quadruple_loop_cross_check():
    # third, fully independent route at tiny scale
    found = set()
    h = 10
    for x1 in range(-h, h + 1):
        for x2 in range(-h, h + 1):
            for x3 in range(-h, h + 1):
                for x4 in range(-h, h + 1):
                    if abs(x1) + abs(x2) + abs(x3) + abs(x4) > h:
                        continue
                    if not (x1 or x2 or x3 or x4):
                        continue
                    if x1**3 + 2 * x2**3 + 3 * x3**3 + 4 * x4**3 == 0:
                        found.add(normalize((x1, x2, x3, x4)).coords)
    assert found == set(coords(enumerate_points(ZAGIER, h)))


@pytest.mark.parametrize("coeff", [ZAGIER, (1, 1, 1, 1), (1, 1, 2, 3)])
@pytest.mark.parametrize("bound", [10, 60])
def test_oracle_equivalence(coeff, bound):
    assert coords(enumerate_points(coeff, bound)) == coords(
        brute_force_oracle(coeff, bound)
    )


def test_registry_invariants(registry_200):
    surface = registry_200.surface
    seen = set()
    prev_key = None
    for rank, x in enumerate(registry_200.points, start=1):
        assert eval_form(surface.form, x) == 0
        assert normalize(x.coords).coords == x.coords
        assert height(x) <= registry_200.bound
        key = (height(x), x.coords)
        assert prev_key is None or prev_key < key
        prev_key = key
        assert x.coords not in seen
        seen.add(x.coords)
        assert registry_200.index[x.coords] == rank


nonzero = st.integers(-9, 9).filter(bool)


@settings(max_examples=25, deadline=None)
@given(st.tuples(nonzero, nonzero, nonzero, nonzero), st.integers(1, 40))
def test_join_matches_oracle(coeff, bound):
    # negative a2 or a4 walk the rows in descending v
    assert coords(enumerate_points(coeff, bound)) == coords(
        brute_force_oracle(coeff, bound)
    )


@pytest.mark.parametrize("entries", [7, 300])
@settings(max_examples=25, deadline=None)
@given(st.tuples(nonzero, nonzero, nonzero, nonzero), st.integers(1, 40))
def test_pruned_ranges_match_oracle(entries, coeff, bound):
    # small ranges put most values in ranges with lo > 0, where both sides
    # drop their entries above the height cap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_CHUNK_ENTRIES", entries)
        expected = coords(brute_force_oracle(coeff, bound))
        for threads in (1, 3):
            assert coords(enumerate_points(coeff, bound, threads)) == expected


@pytest.mark.parametrize(
    "coeff, point", [((1, 7, -8, -1), (2, 0, 1, 0)), ((-8, -1, 1, 7), (1, 0, 2, 0))]
)
def test_point_at_the_height_cap_is_kept(monkeypatch, coeff, point):
    # pair value 8 = 1*2^3 = 8*1^3.  The side of peak 8 reaches any lo <= 8 at
    # height 1, so for 0 < lo <= 8 the other side's cap is 3 - 1 = 2: exactly
    # the height of its entry +-(2, 0)
    join_range = enumeration._join_range
    ranges = []

    def spy(sides, lo, hi, first, stop, n):
        ranges.append((lo, hi))
        return join_range(sides, lo, hi, first, stop, n)

    monkeypatch.setattr(enumeration, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(enumeration, "_join_range", spy)
    reg = enumerate_points(coeff, 3)
    assert point in reg.index
    assert any(0 < lo <= 8 < hi for lo, hi in ranges)
    assert coords(reg) == coords(brute_force_oracle(coeff, 3))


def test_tiny_chunks_match_oracle(monkeypatch):
    join_range = enumeration._join_range
    # 2*24*25 + 1 = 1201 pair entries a side, about 3/8 of them below the
    # height caps: 65 ranges of 7 (some of them empty), or 3 of 200
    for entries, zero_is_edge in ((7, True), (200, False)):
        ranges = set()

        def spy(sides, lo, hi, first, stop, n):
            ranges.add((lo, hi))
            return join_range(sides, lo, hi, first, stop, n)

        monkeypatch.setattr(enumeration, "_CHUNK_ENTRIES", entries)
        monkeypatch.setattr(enumeration, "_join_range", spy)
        for coeff in (ZAGIER, (1, 1, 1, 1), (1, -1, 2, -2)):
            assert coords(enumerate_points(coeff, 24, threads=3)) == coords(
                brute_force_oracle(coeff, 24)
            )
        # -x has pair value -s: the ranges reaching s >= 0 hold every point
        assert all(hi > 0 for _, hi in ranges)
        # value 0 is shared by every (u, -u) on the Fermat sides; it starts a
        # range when the count is even and lies inside one when it is odd
        if zero_is_edge:
            assert 0 in {lo for lo, _ in ranges}
        else:
            assert any(lo < 0 < hi for lo, hi in ranges)


@pytest.mark.parametrize("entries, threads", [(7, (1, 2, 3, 7)), (300, (1, 4, 6))])
def test_thread_blocks_cover_the_ranges(monkeypatch, entries, threads):
    # at 300 entries only 1 of the 2 ranges reaches s >= 0: 4 and 6 threads
    # exceed it, and each worker still gets a block of its own
    walk = enumeration._walk
    monkeypatch.setattr(enumeration, "_CHUNK_ENTRIES", entries)
    expected = coords(brute_force_oracle((1, -1, 2, -2), 24))

    # a side of peak A needs height h(s) = min{h : A*h^3 >= s} to reach s, and
    # no point has a pair value s with h_L(s) + h_R(s) > 24: the walk ends there
    def least_height(s, peak):
        return next(h for h in itertools.count() if peak * h**3 >= s)

    end = next(s for s in itertools.count(1) if least_height(s, 1) + least_height(s, 2) > 24)
    assert all(abs(x1**3 - x2**3) < end for x1, x2, _, _ in expected)
    results = []
    for t in threads:
        blocks = []

        def spy(sides, block):
            blocks.append(block)
            return walk(sides, block)

        monkeypatch.setattr(enumeration, "_walk", spy)
        results.append(coords(enumerate_points((1, -1, 2, -2), 24, threads=t)))
        blocks.sort()
        ranges = [r for block in blocks for r in block]
        assert all(blocks) and len(blocks) == min(t, len(ranges))
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert ranges[-1][1] == end and ranges[0][0] <= 0
    assert results == [expected] * len(threads)


def test_two_threads_share_the_keys(monkeypatch):
    # each of the two blocks joins a similar number of pruned entries
    join_range = enumeration._join_range
    keys = collections.Counter()

    def spy(sides, lo, hi, first, stop, n):
        keys[threading.get_ident()] += sum(n)
        return join_range(sides, lo, hi, first, stop, n)

    monkeypatch.setattr(enumeration, "_join_range", spy)
    results = []
    for threads in (1, 2, 3):
        keys.clear()
        results.append(coords(enumerate_points(ZAGIER, 2200, threads=threads)))
        if threads == 2:
            low, high = sorted(keys.values())
            assert high <= 2 * low
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("bound", [3, 6])
def test_wide_value_range_is_split_to_fit(monkeypatch, bound):
    # a is the largest the 2^62 check allows: the range holding 0 reaches
    # pair values a (bound 3) or 27a (bound 6), so its keys need 59 or 60
    # bits of value, 5 or more of index and a tag bit: it is joined in pieces
    join_range = enumeration._join_range
    budget = []

    def spy(sides, lo, hi, first, stop, n):
        # the walk passes each side's entry count between the edges
        assert n == [int((b - a).sum()) for a, b in zip(first, stop)]
        budget.append((hi - lo).bit_length() + sum(n).bit_length() + 1)
        return join_range(sides, lo, hi, first, stop, n)

    monkeypatch.setattr(enumeration, "_join_range", spy)
    a = (2**62 - 1) // bound**3 - 1
    coeff = (a, 1, -1, -a)
    assert coords(enumerate_points(coeff, bound)) == coords(brute_force_oracle(coeff, bound))
    assert len(budget) > 1 and max(budget) <= 62


@pytest.mark.parametrize("a, b", [(1, 2), (-3, 4), (2, -1), (5, -7)])
def test_row_edges_match_a_scan(a, b):
    # edge(x) in row u is the first w in [-m, m] with |b|*w^3 + a*u^3 >= x,
    # or m + 1; probe every value a row takes and its neighbours
    bound = 9
    side = enumeration._Side(a, b, bound)
    span = range(-bound, bound + 1)
    values = {a * u**3 + abs(b) * w**3 for u in span for w in span}
    for x in sorted(values | {v + 1 for v in values} | {v - 1 for v in values}):
        scan = [
            next((w for w in range(-m, m + 1) if abs(b) * w**3 + a * u**3 >= x), m + 1)
            for u, m in zip(span, side.m.tolist())
        ]
        assert side.edge(x).tolist() == scan


big = st.integers(-(2**55), 2**55).filter(bool)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(big, big, big, big),
        st.tuples(big, big).map(lambda t: (t[0], t[1], -t[0], -t[1])),
        st.tuples(big, big).map(lambda t: (t[0], -t[0], t[1], -t[1])),
    ),
    st.integers(1, 8),
)
def test_large_coefficients_match_oracle(coeff, bound):
    # every input below the 2^62 check enumerates, whatever the key budget
    a1, a2, a3, a4 = map(abs, coeff)
    if max(a1 + a2, a3 + a4) * bound**3 >= 2**62:
        with pytest.raises(BoundTooLarge):
            enumerate_points(coeff, bound)
    else:
        assert coords(enumerate_points(coeff, bound)) == coords(
            brute_force_oracle(coeff, bound)
        )


def test_join_memory_stays_within_a_few_ranges():
    # numpy buffers are traced: a full-length temporary per range shows here
    tracemalloc.start()
    try:
        enumerate_points(ZAGIER, 2200, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.4e6


def test_primitive_point_kept_beside_its_multiples(monkeypatch):
    # k*(1, 0, 1, -1) for k <= 8 are solutions of height <= 24 too, with pair
    # value k^3 in other ranges; the join drops them and must keep k = 1
    monkeypatch.setattr(enumeration, "_CHUNK_ENTRIES", 7)
    reg = enumerate_points(ZAGIER, 24)
    assert reg.index[(1, 0, 1, -1)] == 1
    assert all(math.gcd(*x.coords) == 1 for x in reg.points)


def test_pair_values_beyond_int64_refused():
    # a1*u^3 + a2*v^3 would wrap in int64 and match points off the surface
    with pytest.raises(BoundTooLarge):
        enumerate_points((2**61 + 1, 1, -1, -(2**61 + 1)), 6)


def test_on_surface_check_survives_optimize():
    code = (
        "from cubicmw.enumeration import _sorted_registry\n"
        "from cubicmw import CubicSurface\n"
        "from cubicmw.errors import NotOnSurface\n"
        "try:\n"
        "    _sorted_registry(CubicSurface.diagonal((1, 2, 3, 4)), 10, [(1, 1, 1, 1)])\n"
        "except NotOnSurface:\n"
        "    print('refused')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.stdout == "refused\n", out.stderr


def test_on_surface_check_does_not_wrap():
    # 4 * 2^62 is 0 in int64 arithmetic
    with pytest.raises(NotOnSurface):
        enumeration._sorted_registry(CubicSurface.diagonal((2**62,) * 4), 4, [(1, 1, 1, 1)])


def test_monotonicity_in_bound():
    small = enumerate_points(ZAGIER, 60)
    large = enumerate_points(ZAGIER, 120)
    assert coords(small) == coords(large)[: len(small)]


def test_thread_count_does_not_change_result():
    assert coords(enumerate_points(ZAGIER, 120, threads=1)) == coords(
        enumerate_points(ZAGIER, 120, threads=5)
    )


def test_save_load_round_trip(tmp_path, registry_200):
    path = tmp_path / "points.txt"
    save_registry(registry_200, path)
    back = load_registry(path, ZAGIER)
    assert coords(back) == coords(registry_200)
    assert back.bound == registry_200.bound


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ZAGIER, (1, 1, 1, 1)]), st.integers(1, 60))
def test_save_load_round_trip_property(coeffs, bound):
    reg = enumerate_points(coeffs, bound)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "points.txt")
        save_registry(reg, path)
        back = load_registry(path, coeffs)
    assert back.bound == reg.bound
    assert back.points == reg.points
    assert back.index == reg.index


def test_load_rejects_point_off_surface(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 1 1\n")
    with pytest.raises(NotOnSurface, match="^line 1: "):
        load_registry(path, ZAGIER)


def test_load_rejects_unsorted(tmp_path):
    path = tmp_path / "shuffled.txt"
    path.write_text("1 1 -1 0\n1 0 1 -1\n")
    with pytest.raises(UnsortedInput):
        load_registry(path, ZAGIER)


def test_load_rejects_other_coeffs_header(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# coeffs: 1 2 3 4\n1 0 1 -1\n")
    assert coords(load_registry(path, ZAGIER)) == [(1, 0, 1, -1)]
    # the point is on the requested surface, but the file says it was written for another
    path.write_text("# coeffs: 1 1 1 1\n1 0 1 -1\n")
    with pytest.raises(ParseError):
        load_registry(path, ZAGIER)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "mangled.txt"
    path.write_text("1 0 one -1\n")
    with pytest.raises(ParseError):
        load_registry(path, ZAGIER)
    path.write_text("2 0 2 -2\n")  # not primitive
    with pytest.raises(ParseError):
        load_registry(path, ZAGIER)


@pytest.mark.parametrize("text, message", [
    ("# height: 1\n1 0 1 -1\n", "line 2: point of height 3 is above the height 1 of its header"),
    ("# height: -5\n1 0 1 -1\n", "line 1: height -5 is below 1"),
    ("# height: 0\n", "line 1: height 0 is below 1"),
    ("1 0 1 -1\n# height: 2\n", "line 2: height 2 is below 3, the height of a point above it"),
])
def test_load_rejects_points_above_the_height_header(tmp_path, text, message):
    path = tmp_path / "points.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_registry(path, ZAGIER)
    assert str(exc.value) == message


def per_line_registry(path, coeffs):
    """Reference loader: every check of a line runs when the line is read, in file order."""
    surface = CubicSurface.diagonal(coeffs)
    bound, top, points = None, 0, []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("height:"):
                    try:
                        bound = int(body.split(":", 1)[1])
                    except ValueError:
                        raise ParseError(f"line {lineno}: cannot parse {line!r}")
                    if bound < 1:
                        raise ParseError(f"line {lineno}: height {bound} is below 1")
                    if bound < top:
                        raise ParseError(f"line {lineno}: height {bound} is below {top}, "
                                         "the height of a point above it")
                elif body.startswith("coeffs:"):
                    if body[7:].split() != [str(c) for c in coeffs]:
                        raise ParseError(f"line {lineno}: {line!r} is for another surface")
                continue
            try:
                raw = tuple(int(tok) for tok in line.split())
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse {line!r}")
            if len(raw) != 4:
                raise ParseError(f"line {lineno}: expected 4 coordinates")
            x = normalize(raw)
            if x.coords != raw:
                raise ParseError(f"line {lineno}: point not in normalized form")
            if eval_form(surface.form, x) != 0:
                raise NotOnSurface(f"line {lineno}: {x} is not on the surface")
            if bound is not None and height(x) > bound:
                raise ParseError(f"line {lineno}: point of height {height(x)} is above the "
                                 f"height {bound} of its header")
            top = max(top, height(x))
            points.append(x)
    keys = [(height(x), x.coords) for x in points]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        raise UnsortedInput(f"{path}: points not in (height, lex) order")
    return max((height(x) for x in points), default=1) if bound is None else bound, points


def _mutate(lines, kind, i, k):
    """lines with one change of the given kind at line i (mod the length); k sizes it."""
    lines = list(lines)
    if not lines:
        return ["1 0 1 -1"] if kind == "insert" else lines
    i %= len(lines)
    tokens = lines[i].split()
    coords = [int(t) for t in tokens] if len(tokens) == 4 and "#" not in lines[i] else None
    if kind == "swap":
        j = k % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "junk":
        junk = ["x", "1.5", "--", "0x1", "#"][k % 5]
        lines[i] = " ".join(tokens[:k % 5] + [junk] + tokens[k % 5:])
    elif kind == "header":
        lines.insert(i, f"# height: {k % 12 - 3 if k % 3 else k % 90}")
    elif kind == "insert":
        lines.insert(i, " ".join(map(str, [k % 7 - 3, k % 5 - 2, k % 3 - 1, k % 2])))
    elif coords is not None:
        if kind == "scale":
            coords = [c * (k % 3 + 2) for c in coords]
        elif kind == "sign":
            coords[k % 4] = -coords[k % 4]
        elif kind == "drop":
            del coords[k % 4]
        elif kind == "off":
            coords[k % 4] += 1
        elif kind == "huge":
            coords[k % 4] = [2**61, -(2**61), 2**63, 2**70][k % 4]
        elif kind == "zero":
            coords = [0, 0, 0, 0]
        lines[i] = " ".join(map(str, coords))
    return lines


_KINDS = ["swap", "duplicate", "junk", "header", "insert", "scale", "sign", "drop", "off",
          "huge", "zero"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([ZAGIER, (1, 1, 1, 1)]), st.integers(1, 30),
       st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 10**4), st.integers(0, 10**4)),
                max_size=3))
def test_loader_matches_per_line_oracle(coeffs, bound, mutations):
    """The row checks raise what one line at a time would: the first faulty line wins."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "points.txt")
        save_registry(enumerate_points(coeffs, bound), path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        for mutation in mutations:
            lines = _mutate(lines, *mutation)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

        def outcome(load):
            try:
                result = load(path, coeffs)
            except CubicError as exc:
                return type(exc), str(exc)
            if isinstance(result, tuple):
                return result
            return result.bound, result.points

        assert outcome(load_registry) == outcome(per_line_registry)
