"""Height-bounded exhaustive search for rational points on diagonal cubic surfaces.

`enumerate_points` finds every primitive projective solution of
a1*x1^3 + a2*x2^3 + a3*x3^3 + a4*x4^3 = 0 with |x1|+|x2|+|x3|+|x4| <= H
by a sort-merge join of the pair values s = a1*u^3 + a2*v^3 against
-(a3*u^3 + a4*v^3), both over |u|+|v| <= H, one value range [lo, hi) at a
time (Bernstein, Math. Comp. 70, 2001).  Within a row u the value is
monotone in v, so an exact integer cube root gives each row's slice of a
range.  x and -x are one point with values s and -s, so only the ranges
reaching s >= 0 are joined; the one holding 0 is joined whole.  A range
sorts the bare values of both sides together, reads the shared values
off adjacent entries and turns only their entries back into (u, v).
Only one range's entries exist at a time: O(H^2 log H) work in O(H) plus
about _CHUNK_ENTRIES entries a side.  Equal values fall into one range,
so no match is lost at an edge.  Pair values must stay below 2^62 (int64
with a tag bit), else BoundTooLarge.
`brute_force_oracle` is an independent pure-Python exhaustive loop used to
cross-check it in tests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundTooLarge,
    InvalidBound,
    InvalidCoefficients,
    NotOnSurface,
    ParseError,
    UnsortedInput,
)
from .geometry import RATIONALS, ProjPoint, normalize
from .surface import CubicSurface, height, surface_point

_ORACLE_CAP = 200
_CHUNK_ENTRIES = 1 << 15  # pair entries a side in one value-range chunk, on average


@dataclass
class PointRegistry:
    """The height-ordered list of surface points with 1-based rank lookup."""

    surface: CubicSurface
    bound: int
    points: list[ProjPoint]
    index: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {x.coords: r for r, x in enumerate(self.points, start=1)}

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
    pts = set()
    for raw in vectors:
        x = normalize(raw, RATIONALS)
        if height(x) <= bound:
            pts.add(x)
    ordered = sorted(pts, key=lambda x: (height(x), x.coords))
    return PointRegistry(surface, bound, [surface_point(surface, x) for x in ordered])


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


def _pair_chunk(a: int, b: int, bound: int, lo: int, hi: int):
    """Every a*u^3 + b*v^3 in [lo, hi) with |u|+|v| <= bound, by row, and (u, v) by index.

    With w = sign(b)*v each row u is |b|*w^3 + a*u^3, increasing in w, so its
    entries in [lo, hi) are the w from ceil_cbrt((lo - a*u^3)/|b|) up to the
    same bound for hi; the quotients are clipped to the row's range first.
    """
    u = np.arange(-bound, bound + 1, dtype=np.int64)
    m = bound - np.abs(u)
    c = a * u**3
    cap = (bound + 1) ** 3
    edge = np.array([[lo], [hi]], dtype=np.int64)
    first, stop = _ceil_cbrt(np.clip((edge - c + abs(b) - 1) // abs(b), -cap, cap))
    first = np.maximum(first, -m)
    row, w = _expand(first, np.maximum(np.minimum(stop, m + 1) - first, 0))
    return c[row] + abs(b) * (w * w * w), lambda i: (u[row[i]], w[i] if b > 0 else -w[i])


def _shared_values(left, right):
    """The sorted values on both sides: as 2*s and 2*s + 1 they sort adjacent."""
    tagged = np.concatenate([left, right]) << 1
    tagged[len(left):] |= 1
    tagged.sort()
    i = np.flatnonzero(np.diff(tagged) == 1)
    return tagged[i[tagged[i] & 1 == 0]] >> 1


def _lookup(values, shared):
    """Indices of the entries of values in the sorted array shared, and where."""
    at = np.minimum(np.searchsorted(shared, values), len(shared) - 1)
    hit = np.flatnonzero(shared[at] == values)
    return hit, at[hit]


def enumerate_points(
    surface: CubicSurface | tuple, bound: int, threads: int = 1
) -> PointRegistry:
    """All primitive projective points of height <= bound on the surface.

    The result is independent of `threads`; workers only take value-range
    chunks of the join in turn.
    """
    surface = _diagonal_surface(surface)
    a1, a2, a3, a4 = _diagonal_coeffs(surface)
    if bound < 1:
        raise InvalidBound(f"bound must be >= 1, got {bound}")
    if max(abs(a1) + abs(a2), abs(a3) + abs(a4)) * bound**3 >= 2**62:
        raise BoundTooLarge(f"pair values reach 2^62 at height {bound}")

    def join(lo: int, hi: int) -> set[tuple[int, int, int, int]]:
        lval, lpair = _pair_chunk(a1, a2, bound, lo, hi)
        rval, rpair = _pair_chunk(-a3, -a4, bound, lo, hi)
        shared = _shared_values(lval, rval)
        if not len(shared):
            return set()
        li, lg = _lookup(lval, shared)
        ri, rg = _lookup(rval, shared)
        # pair each right entry with the run of left entries of its value
        li = li[np.argsort(lg)]
        count = np.bincount(lg, minlength=len(shared))
        k, run = _expand((np.cumsum(count) - count)[rg], count[rg])
        li, ri = li[run], ri[k]
        quad = np.column_stack(lpair(li) + rpair(ri))
        keep = (np.abs(quad).sum(axis=1) <= bound) & (np.gcd.reduce(quad, axis=1) == 1)
        return set(map(tuple, quad[keep].tolist()))

    # The sides only meet where their value ranges overlap.  Edges evenly
    # spaced in cube-root scale give chunks within a small factor of the mean.
    # -x has value -s, so the ranges reaching s >= 0 hold every point
    top = min(max(abs(a1), abs(a2)), max(abs(a3), abs(a4))) * bound**3
    chunks = -(-(2 * bound * (bound + 1) + 1) // _CHUNK_ENTRIES)
    s = np.linspace(-1.0, 1.0, chunks + 1) * np.cbrt(float(top))
    edges = [-top] + sorted(set(int(e) for e in s[1:-1] ** 3)) + [top + 1]
    ranges = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > 0]
    threads = max(1, int(threads))
    if threads == 1:
        results = [join(*r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda r: join(*r), ranges))
    vectors = set().union(*results)
    return _sorted_registry(surface, bound, vectors)


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
    """Read a point file back, validating equation, normalization and order."""
    surface = _diagonal_surface(surface)
    bound = None
    points = []
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
                elif body.startswith("coeffs:"):
                    if body[7:].split() != [str(c) for c in _diagonal_coeffs(surface)]:
                        raise ParseError(f"line {lineno}: {line!r} is for another surface")
                continue
            try:
                raw = tuple(int(tok) for tok in line.split())
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse {line!r}")
            if len(raw) != 4:
                raise ParseError(f"line {lineno}: expected 4 coordinates")
            x = normalize(raw, RATIONALS)
            if x.coords != raw:
                raise ParseError(f"line {lineno}: point not in normalized form")
            try:
                points.append(surface_point(surface, x))
            except NotOnSurface as exc:
                raise NotOnSurface(f"line {lineno}: {exc}") from None
    keys = [(height(x), x.coords) for x in points]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        raise UnsortedInput(f"{path}: points not in (height, lex) order")
    if bound is None:
        bound = max((height(x) for x in points), default=1)
    return PointRegistry(surface, bound, points)
