"""Height-bounded exhaustive search for rational points on diagonal cubic surfaces.

`enumerate_points` finds every primitive projective solution of
a1*x1^3 + a2*x2^3 + a3*x3^3 + a4*x4^3 = 0 with |x1|+|x2|+|x3|+|x4| <= H
by a meet-in-the-middle join on pair sums: all values a1*x1^3+a2*x2^3 are
tabulated and matched against -(a3*x3^3+a4*x4^3).  This is O(H^2) work and
handles H = 1100 in seconds.  `brute_force_oracle` is an independent
pure-Python exhaustive loop used to cross-check it in tests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundTooLarge,
    InvalidCoefficients,
    NotOnSurface,
    ParseError,
    UnsortedInput,
)
from .geometry import RATIONALS, ProjPoint, eval_form, normalize
from .surface import CubicSurface, SurfacePoint, height

_ORACLE_CAP = 200


@dataclass
class PointRegistry:
    """The height-ordered list of surface points with 1-based rank lookup."""

    surface: CubicSurface
    bound: int
    points: list[SurfacePoint]
    index: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {sp.coords: r for r, sp in enumerate(self.points, start=1)}

    def __len__(self):
        return len(self.points)

    def rank(self, x: ProjPoint) -> int | None:
        return self.index.get(x.coords)

    def point(self, rank: int) -> SurfacePoint:
        return self.points[rank - 1]


def _diagonal_coeffs(surface: CubicSurface) -> tuple[int, int, int, int]:
    a = [0, 0, 0, 0]
    for expo, c in surface.form.coeffs.items():
        if 3 not in expo:
            raise InvalidCoefficients("enumeration supports diagonal forms only")
        a[expo.index(3)] = c
    if any(v == 0 for v in a):
        raise InvalidCoefficients(f"zero diagonal coefficient in {a}")
    return tuple(a)


def _sorted_registry(surface: CubicSurface, bound: int, vectors) -> PointRegistry:
    pts = set()
    for raw in vectors:
        x = normalize(raw, RATIONALS)
        if height(x) <= bound:
            pts.add(x)
    ordered = sorted(pts, key=lambda x: (height(x), x.coords))
    sps = []
    for x in ordered:
        assert eval_form(surface.form, x) == 0
        sps.append(SurfacePoint(x, height(x)))
    return PointRegistry(surface, bound, sps)


def _pair_table(ai: int, aj: int, bound: int):
    """Arrays (u, v, value, height) over all |u|+|v| <= bound."""
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    us = []
    vs = []
    for u in range(-bound, bound + 1):
        m = bound - abs(u)
        block = rng[bound - m : bound + m + 1]
        us.append(np.full(block.shape, u, dtype=np.int64))
        vs.append(block)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    val = ai * u**3 + aj * v**3
    h = np.abs(u) + np.abs(v)
    return u, v, val, h


def enumerate_points(
    surface: CubicSurface | tuple, bound: int, threads: int = 1
) -> PointRegistry:
    """All primitive projective points of height <= bound on the surface.

    The result is independent of `threads`; workers only split the
    right-hand pair table into chunks.
    """
    if not isinstance(surface, CubicSurface):
        if len(surface) != 4 or any(c == 0 for c in surface):
            raise InvalidCoefficients(f"need four nonzero coefficients, got {surface}")
        surface = CubicSurface.diagonal(surface)
    a1, a2, a3, a4 = _diagonal_coeffs(surface)
    if bound < 1:
        raise InvalidCoefficients(f"bound must be >= 1, got {bound}")

    lu, lv, lval, lh = _pair_table(a1, a2, bound)
    order = np.argsort(lval, kind="stable")
    lu, lv, lval, lh = lu[order], lv[order], lval[order], lh[order]
    ru, rv, rval, rh = _pair_table(a3, a4, bound)
    target = -rval

    def scan(lo_idx: int, hi_idx: int) -> set[tuple[int, int, int, int]]:
        found = set()
        t = target[lo_idx:hi_idx]
        lo = np.searchsorted(lval, t, side="left")
        hi = np.searchsorted(lval, t, side="right")
        for k in np.nonzero(hi > lo)[0]:
            i = lo_idx + int(k)
            budget = bound - int(rh[i])
            for j in range(int(lo[k]), int(hi[k])):
                if lh[j] <= budget:
                    vec = (int(lu[j]), int(lv[j]), int(ru[i]), int(rv[i]))
                    if any(vec):
                        found.add(vec)
        return found

    n = len(rval)
    threads = max(1, int(threads))
    chunks = [(i * n // threads, (i + 1) * n // threads) for i in range(threads)]
    if threads == 1:
        results = [scan(*chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda c: scan(*c), chunks))
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
    if not isinstance(surface, CubicSurface):
        surface = CubicSurface.diagonal(surface)
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
    for sp in registry.points:
        lines.append(" ".join(str(c) for c in sp.coords))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_registry(path, surface: CubicSurface | tuple) -> PointRegistry:
    """Read a point file back, validating equation, normalization and order."""
    if not isinstance(surface, CubicSurface):
        surface = CubicSurface.diagonal(surface)
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
            if eval_form(surface.form, x) != 0:
                raise NotOnSurface(f"line {lineno}: {x} not on the surface")
            points.append(SurfacePoint(x, height(x)))
    keys = [(sp.height, sp.coords) for sp in points]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        raise UnsortedInput(f"{path}: points not in (height, lex) order")
    if bound is None:
        bound = max((sp.height for sp in points), default=1)
    return PointRegistry(surface, bound, points)
