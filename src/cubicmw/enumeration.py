"""Height-bounded exhaustive search for rational points on diagonal cubic surfaces.

`enumerate_points` finds every primitive projective solution of
a1*x1^3 + a2*x2^3 + a3*x3^3 + a4*x4^3 = 0 with |x1|+|x2|+|x3|+|x4| <= H
by a sort-merge join of the pair values s = a1*u^3 + a2*v^3 (left)
against -(a3*u^3 + a4*v^3) (right), both over |u|+|v| <= H, one value
range [lo, hi) at a time (Bernstein, Math. Comp. 70, 2001).

- Rows: within a row u the value is monotone in v, so an exact integer
  cube root gives each row's first entry at or above an edge, and a
  range's entries are the slices between its two edges.
- Keys: a range with n entries packs each into one int64,
  ((s - lo) << (ib + 1)) | (side << ib) | index, where ib = bitlen(n),
  side is 0 left and 1 right, and index counts the side's entries row by
  row.  One in-place sort puts equal values together, left before right;
  a shared value is a left key followed by a right key whose bits above
  ib differ only in the side bit.  Two searchsorted calls of those values
  give their runs, and each index maps back to (u, v) through the
  offsets of the non-empty rows that packing found.
- Bit budget: the key fits when bitlen(hi - lo) + bitlen(n) + 1 <= 62.
  A range that does not is joined in halves of its width until it does,
  so every input whose pair values stay below 2^62 (else BoundTooLarge)
  enumerates.
- Height caps: an entry of height h = |u| + |v| on a side with peak
  A = max(|a|, |b|) has |s| <= A*h^3, since |a*u^3 + b*v^3| <= A*(|u| + |v|)^3.
  So a partner of value s >= lo > 0 has height at least h(lo), the least h
  with A*h^3 >= lo (the ceiling cube root of ceil(lo/A), in integers).  A
  range with lo > 0 keeps each side's entries up to the cap bound - h(lo)
  of the other side: in row u the one slice |w| <= cap - |u|, to which the
  row edges are clipped before counting and packing.  The range holding 0
  keeps cap bound.
- Walk: x and -x are one point with values s and -s, so only the ranges
  reaching s >= 0 are joined; the one holding 0 is joined whole.  The
  ranges end at top, the least s with h_L(s) + h_R(s) > bound, where both
  caps are empty: max over h of min(A_L*h^3, A_R*(bound - h)^3), plus one,
  about 0.35*bound^3 for (1, 2, 3, 4).  Ranges are walked in increasing
  order, so a range's unclipped upper row edges are the next one's lower
  edges: one cube root per row and side per range.  Equal values fall
  into one range, so no match is lost at an edge.
- Threads: each worker walks one contiguous block of ranges, and there
  are never more workers than ranges; the points found are sorted at the
  end, so the result does not depend on the thread count.

Only one range's keys exist at a time per worker: O(H^2 log H) work in
O(H) plus about 2 * _CHUNK_ENTRIES keys.  The caps leave 3,548,186 keys
to sort for (1, 2, 3, 4) at H=2200, 37.7% of the 9,400,268 the uncapped
walk sorted.
`brute_force_oracle` is an independent pure-Python exhaustive loop used to
cross-check it in tests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    BoundTooLarge,
    InvalidBound,
    InvalidCoefficients,
    NotOnSurface,
    ParseError,
    UnsortedInput,
    ZeroVector,
)
from .geometry import ProjPoint, canonical_rows, eval_rows
from .surface import CubicSurface, surface_point

_ORACLE_CAP = 200
_CHUNK_ENTRIES = 1 << 15  # pruned pair entries a side in one value-range chunk, on average


@dataclass
class PointRegistry:
    """The height-ordered list of surface points with 1-based rank lookup."""

    surface: CubicSurface
    bound: int
    points: list[ProjPoint]

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {x.coords: r for r, x in enumerate(self.points, start=1)}

    def __len__(self):
        return len(self.points)

    def point(self, rank: int) -> ProjPoint:
        return self.points[rank - 1]


def _diagonal_surface(surface: CubicSurface | tuple) -> CubicSurface:
    """The surface itself, or the diagonal surface of its four nonzero coefficients."""
    return surface if isinstance(surface, CubicSurface) else CubicSurface.diagonal(surface)


def _diagonal_coeffs(surface: CubicSurface) -> tuple[int, int, int, int]:
    """(a1, a2, a3, a4) of a1*x1^3 + ... + a4*x4^3; CubicSurface rejects a zero a_i."""
    if surface.form.dim != 4:
        raise InvalidCoefficients("enumeration supports forms in 4 variables only")
    a = [0, 0, 0, 0]
    for expo, c in surface.form.coeffs.items():
        if 3 not in expo:
            raise InvalidCoefficients("enumeration supports diagonal forms only")
        a[expo.index(3)] = c
    return tuple(a)


def _sorted_registry(surface: CubicSurface, bound: int, vectors) -> PointRegistry:
    """The distinct normalized vectors of height <= bound, ordered by (height, coords).

    Raises NotOnSurface, as `surface_point` does, if one is off the surface.
    """
    rows = np.fromiter(chain.from_iterable(vectors), dtype=np.int64).reshape(-1, 4)
    rows = canonical_rows(rows)[0]
    rows = rows[np.abs(rows).sum(axis=1) <= bound]
    rows = rows[np.lexsort((*rows.T[::-1], np.abs(rows).sum(axis=1)))]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rows = rows[new]
    off = np.flatnonzero(eval_rows(surface.form, rows))
    points = [ProjPoint(x) for x in map(tuple, rows.tolist())]
    if len(off):
        surface_point(surface, points[off[0]])
    return PointRegistry(surface, bound, points)


def _ceil_cbrt(n):
    """Smallest integer r with r**3 >= n, elementwise, for |n| < 2**62."""
    r = np.ceil(np.cbrt(n.astype(np.float64))).astype(np.int64)
    # the float estimate is off by at most one either way
    r -= (r - 1) ** 3 >= n
    r += r**3 < n
    return r


def _expand(start, count):
    """Owner index and value of every integer in the intervals [start, start+count)."""
    owner = np.repeat(np.arange(len(count)), count)
    offset = np.cumsum(count) - count
    return owner, np.arange(count.sum()) + (start - offset)[owner]


class _Side:
    """The pair values a*u^3 + b*v^3 over |u| + |v| <= bound, one row per u.

    With w = sign(b)*v, row u is |b|*w^3 + a*u^3, increasing in w, so the
    entries of a value range [lo, hi) in a row are the w from edge(lo) up to
    edge(hi), and a range's stop edges are the next range's first edges.
    """

    def __init__(self, a: int, b: int, bound: int):
        self.bound = bound
        self.u = np.arange(-bound, bound + 1, dtype=np.int64)
        self.m = bound - np.abs(self.u)
        self.c = a * self.u**3
        self.b = abs(b)
        self.sign = 1 if b > 0 else -1
        # an entry of height h has |value| <= peak * h^3
        self.peak = max(abs(a), abs(b))
        # each row's lowest and highest value, at w = -m and w = m
        self.low = self.c - self.b * self.m**3
        self.high = self.c + self.b * self.m**3

    def edge(self, x: int):
        """Per row, the first w in [-m, m + 1] whose value is >= x.

        Only rows whose values straddle x need a cube root; there
        ceil((x - c)/|b|) lies in (-m^3, m^3].
        """
        w = np.where(x <= self.low, -self.m, self.m + 1)
        row = np.flatnonzero((self.low < x) & (x <= self.high))
        w[row] = _ceil_cbrt((x - self.c[row] + self.b - 1) // self.b)
        return w

    def least_height(self, x: int) -> int:
        """The least height h with peak * h^3 >= x > 0: no lower entry reaches x."""
        return int(_ceil_cbrt(np.array([-(-x // self.peak)]))[0])

    def clip(self, w, drop: int):
        """Row edges w narrowed to the entries of height <= bound - drop, |w| <= m - drop."""
        return np.minimum(np.maximum(w, drop - self.m), self.m - drop + 1)

    def pack(self, key, first, stop, lo: int, shift: int, tag: int):
        """key[i] = ((s - lo) << shift) | tag | i for the i-th entry s, row by row.

        Returns the layout `pairs` reads the entries back from: the
        non-empty rows, their first w and the index of their first entry.
        """
        row = np.flatnonzero(stop > first)
        f, k = first[row], (stop - first)[row]
        start = np.cumsum(k) - k
        # w steps by one within a row and jumps to the first w of the next
        key.fill(1)
        key[0] = f[0]
        key[start[1:]] = f[1:] - f[:-1] - k[:-1] + 1
        np.cumsum(key, out=key)
        np.power(key, 3, out=key)
        key *= self.b
        key += np.repeat(self.c[row] - lo, k)
        key <<= shift
        key |= np.arange(tag, tag + len(key))
        return row, f, start

    def pairs(self, layout, index):
        """(u, v) of the entries at index, given the layout `pack` returned."""
        row, f, start = layout
        j = np.searchsorted(start, index, side="right") - 1
        return self.u[row[j]], self.sign * (f[j] + index - start[j])


def _join_range(sides, lo: int, hi: int, first, stop, n) -> set[tuple[int, int, int, int]]:
    """The primitive points of height <= bound whose two sides share a value in [lo, hi).

    first and stop are each side's row edges at lo and hi, and n each side's
    number of entries between them.  One sort of the packed keys puts equal
    values together, left entries first, so a shared value is a left key
    followed by a right key with equal bits above ib.
    """
    if not all(n):
        return set()
    ib = sum(n).bit_length()
    shift = ib + 1
    key = np.empty(sum(n), dtype=np.int64)
    layout = (
        sides[0].pack(key[: n[0]], first[0], stop[0], lo, shift, 0),
        sides[1].pack(key[n[0] :], first[1], stop[1], lo, shift, 1 << ib),
    )
    key.sort()
    step = key[1:] ^ key[:-1]
    step >>= ib
    at = np.flatnonzero(step == 1) + 1  # the first right key of each shared value
    del step
    if not len(at):
        return set()
    value = key[at] >> shift << shift
    start = np.searchsorted(key, value)
    end = np.searchsorted(key, value + (1 << shift))
    # every right key of a shared value meets the run of left keys before it
    g, right = _expand(at, end - at)
    g, left = _expand(start[g], (at - start)[g])
    low = (1 << ib) - 1
    quad = np.column_stack(
        sides[0].pairs(layout[0], key[left] & low)
        + sides[1].pairs(layout[1], key[right[g]] & low)
    )
    keep = (np.abs(quad).sum(axis=1) <= sides[0].bound) & (np.gcd.reduce(quad, axis=1) == 1)
    return set(map(tuple, quad[keep].tolist()))


def _walk(sides, block) -> set[tuple[int, int, int, int]]:
    """The points of the contiguous ranges of block, joined in increasing order.

    A range [lo, hi) with lo > 0 joins only each side's entries up to its
    height cap, bound less the other side's least height at lo.  A range
    whose keys would not fit, bitlen(hi - lo) + bitlen(n) + 1 > 62 for its
    n entries, is joined in halves of its width until they do.
    """
    lo = block[0][0]
    first = [side.edge(lo) for side in sides]
    found = set()
    for _, hi in block:
        while lo < hi:
            drop = [sides[1].least_height(lo), sides[0].least_height(lo)] if lo > 0 else [0, 0]
            low = [side.clip(w, d) for side, w, d in zip(sides, first, drop)]
            mid = hi
            while True:
                stop = [side.edge(mid) for side in sides]
                high = [side.clip(w, d) for side, w, d in zip(sides, stop, drop)]
                n = [int((b - a).sum()) for a, b in zip(low, high)]
                if (mid - lo).bit_length() + sum(n).bit_length() + 1 <= 62:
                    break
                mid = lo + (mid - lo) // 2
            found |= _join_range(sides, lo, mid, low, high, n)
            lo, first = mid, stop
    return found


def enumerate_points(
    surface: CubicSurface | tuple, bound: int, threads: int = 1
) -> PointRegistry:
    """All primitive projective points of height <= bound on the surface.

    The result is independent of `threads`; each worker walks one
    contiguous block of value ranges.
    """
    surface = _diagonal_surface(surface)
    a1, a2, a3, a4 = _diagonal_coeffs(surface)
    if bound < 1:
        raise InvalidBound(f"bound must be >= 1, got {bound}")
    if max(abs(a1) + abs(a2), abs(a3) + abs(a4)) * bound**3 >= 2**62:
        raise BoundTooLarge(f"pair values reach 2^62 at height {bound}")
    sides = (_Side(a1, a2, bound), _Side(-a3, -a4, bound))

    # A point with pair value s > 0 has h_L(s) + h_R(s) <= bound, so s < top, the
    # least s that no split of the height, peak_L*h^3 and peak_R*(bound - h)^3,
    # reaches on both sides.  About 3/8 of a side's 2*bound*(bound + 1) + 1
    # entries lie below their caps in [-top, top), and edges evenly spaced in
    # cube-root scale give chunks within a small factor of the mean.  -x has
    # value -s, so the ranges reaching s >= 0 hold every point
    h = np.arange(bound + 1, dtype=np.int64)
    top = int(np.minimum(sides[0].peak * h**3, sides[1].peak * (bound - h) ** 3).max()) + 1
    chunks = -(-3 * (2 * bound * (bound + 1) + 1) // (8 * _CHUNK_ENTRIES))
    s = np.linspace(-1.0, 1.0, chunks + 1) * np.cbrt(float(top))
    edges = [-top] + sorted(set(int(e) for e in s[1:-1] ** 3)) + [top]
    ranges = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > 0]
    workers = min(max(1, int(threads)), len(ranges))
    cut = [len(ranges) * i // workers for i in range(workers + 1)]
    blocks = [ranges[i:j] for i, j in zip(cut[:-1], cut[1:])]
    if workers == 1:  # in this thread: a pool thread's own malloc arena shows in peak RSS
        results = [_walk(sides, blocks[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda block: _walk(sides, block), blocks))
    return _sorted_registry(surface, bound, set().union(*results))


def _icbrt(n: int) -> int | None:
    """Exact integer cube root of n, or None if n is not a perfect cube."""
    if n == 0:
        return 0
    s = -1 if n < 0 else 1
    m = abs(n)
    c = round(m ** (1.0 / 3.0))
    while c > 0 and c * c * c > m:
        c -= 1
    while (c + 1) ** 3 <= m:
        c += 1
    return s * c if c * c * c == m else None


def brute_force_oracle(surface: CubicSurface | tuple, bound: int) -> PointRegistry:
    """Independent exhaustive check: plain nested loops, no numpy.

    Iterates every (x1,x2,x3) with |x1|+|x2|+|x3| <= bound and solves the
    surface equation exactly for x4.  Guarded to small bounds; tests only.
    """
    surface = _diagonal_surface(surface)
    if bound > _ORACLE_CAP:
        raise BoundTooLarge(f"oracle is capped at H <= {_ORACLE_CAP}")
    a1, a2, a3, a4 = _diagonal_coeffs(surface)
    vectors = []
    for x1 in range(-bound, bound + 1):
        t1 = a1 * x1**3
        b1 = bound - abs(x1)
        for x2 in range(-b1, b1 + 1):
            t2 = t1 + a2 * x2**3
            b2 = b1 - abs(x2)
            for x3 in range(-b2, b2 + 1):
                s = -(t2 + a3 * x3**3)
                if s % a4:
                    continue
                x4 = _icbrt(s // a4)
                if x4 is None or abs(x4) > b2 - abs(x3):
                    continue
                if x1 or x2 or x3 or x4:
                    vectors.append((x1, x2, x3, x4))
    return _sorted_registry(surface, bound, vectors)


def save_registry(registry: PointRegistry, path, extra_header: list[str] | None = None):
    """Write the registry in the point text format with a config header."""
    a = _diagonal_coeffs(registry.surface)
    lines = [
        f"# coeffs: {' '.join(str(c) for c in a)}",
        f"# height: {registry.bound}",
    ]
    lines.extend(extra_header or [])
    for x in registry.points:
        lines.append(" ".join(str(c) for c in x.coords))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_registry(path, surface: CubicSurface | tuple) -> PointRegistry:
    """Read a point file back, validating equation, normalization, heights and order.

    Each check runs once and forms its own message; the first faulty line
    raises.  The read loop checks on Python ints the headers (at least 1,
    and no lower than a point above), the heights (none above the
    `# height:` header in force at its line) and the (height, coordinates)
    order, and stops at the first line that fails, keeping it if it is a
    point.  The points read are then checked as rows: zero, not normalized,
    off the surface.  An order fault raises only when nothing else is wrong.
    """
    surface = _diagonal_surface(surface)
    coeffs = [str(c) for c in _diagonal_coeffs(surface)]
    raws, lines, error = [], [], None
    bound, top, last, ordered = None, 0, (), True
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.startswith("#"):
                    raw = _coordinates(line, lineno)
                    raws.append(raw)
                    lines.append(lineno)
                    x1, x2, x3, x4 = raw
                    h = abs(x1) + abs(x2) + abs(x3) + abs(x4)
                    if bound is not None and h > bound:
                        raise ParseError(f"line {lineno}: point of height {h} is above the "
                                         f"height {bound} of its header")
                    if h > top:
                        top = h
                    key = (h, raw)
                    if key <= last:
                        ordered = False
                    last = key
                    continue
                body = line[1:].strip()
                if body.startswith("height:"):
                    bound = _header_height(body, line, lineno)
                    if bound < top:
                        raise ParseError(f"line {lineno}: height {bound} is below {top}, "
                                         "the height of a point above it")
                elif body.startswith("coeffs:") and body[7:].split() != coeffs:
                    raise ParseError(f"line {lineno}: {line!r} is for another surface")
            except ParseError as exc:
                error = exc
                break
    X = _file_rows(raws)
    canonical, nonzero = canonical_rows(X)
    normal = (canonical == X).all(axis=1)
    bad = np.flatnonzero(~nonzero | ~normal | (eval_rows(surface.form, X) != 0))
    if len(bad):
        i = int(bad[0])
        if not nonzero[i]:
            raise ZeroVector(f"line {lines[i]}: zero vector {raws[i]}")
        if not normal[i]:
            raise ParseError(f"line {lines[i]}: point not in normalized form")
        raise NotOnSurface(f"line {lines[i]}: {ProjPoint(raws[i])} is not on "
                           f"{surface.label or 'the surface'}")
    if error is not None:
        raise error
    if not ordered:
        raise UnsortedInput(f"{path}: points not in (height, lex) order")
    return PointRegistry(surface, bound or top or 1, [ProjPoint(x) for x in raws])


def _coordinates(line: str, lineno: int) -> tuple[int, ...]:
    try:
        raw = tuple(map(int, line.split()))
    except ValueError:
        raise ParseError(f"line {lineno}: cannot parse {line!r}") from None
    if len(raw) != 4:
        raise ParseError(f"line {lineno}: expected 4 coordinates")
    return raw


def _header_height(body: str, line: str, lineno: int) -> int:
    try:
        bound = int(body.split(":", 1)[1])
    except ValueError:
        raise ParseError(f"line {lineno}: cannot parse {line!r}") from None
    if bound < 1:
        raise ParseError(f"line {lineno}: height {bound} is below 1")
    return bound


def _file_rows(raws: list[tuple[int, ...]]) -> np.ndarray:
    """The points as rows: int64 unless a coordinate is -2^63 (its sign flip wraps) or beyond."""
    try:
        X = np.array(raws, dtype=np.int64).reshape(-1, 4)
        if X.min(initial=0) > -(2**63):
            return X
    except OverflowError:
        pass
    return np.array(raws, dtype=object).reshape(-1, 4)
