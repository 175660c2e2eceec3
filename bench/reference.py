"""Reference computations for the benchmark's output checks.

Nothing here imports `cubicmw`: every quantity the checks compare against
is computed again by a different method, so a fault in the package cannot
hide behind the same fault in its own oracle.

- `form_value`, `is_normalized`: integer evaluation of a diagonal form and
  the primitive / sign-normalized test, written out directly.
- `enumerate_hash_join`: points of height <= H by a hashed semi-join of the
  two pair-sum tables (bit tables indexed by the value modulo two primes
  filter both sides, then a dictionary join on the survivors).  The package
  instead sorts one table and binary-searches the other.
- `enumerate_brute`: plain nested loops with an exact cube root, for small H.
- `secant_coeffs`: the t and t^2 coefficients of F(x + t*y), obtained by a
  sympy expansion of the diagonal form, not by the package's polarization.
- `Table` and `closure_order`: the composition table over a point list and
  the closure of earlier ranks, by a worklist that grows one rank at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Two primes just below 2^26: each bit table costs 64 MiB of bools, and a
# value survives both filters by chance with probability (fill ratio)^2.
_HASH_PRIMES = (67108859, 67108837)


def height(x) -> int:
    return sum(abs(c) for c in x)


def form_value(coeffs, x) -> int:
    return sum(a * c * c * c for a, c in zip(coeffs, x))


def is_normalized(x) -> bool:
    """Primitive and with its first nonzero coordinate positive."""
    if math.gcd(*x) != 1:
        return False
    return next(c for c in x if c) > 0


def normalize(x) -> tuple[int, ...]:
    g = math.gcd(*x)
    x = [c // g for c in x]
    if next(c for c in x if c) < 0:
        x = [-c for c in x]
    return tuple(x)


def order_key(x):
    return (height(x), tuple(x))


def _pair_table(a: int, b: int, bound: int):
    """(u, v, a*u^3 + b*v^3) over all |u| + |v| <= bound, as int64 arrays."""
    us = np.arange(-bound, bound + 1, dtype=np.int64)
    widths = bound - np.abs(us)
    counts = 2 * widths + 1
    u = np.repeat(us, counts)
    starts = np.cumsum(counts) - counts
    v = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts + widths, counts)
    return u, v, a * u**3 + b * v**3


def _hash_filter(keep_from, probe):
    """Mask of `probe` entries whose value may occur in `keep_from`."""
    mask = np.ones(len(probe), dtype=bool)
    for p in _HASH_PRIMES:
        bits = np.zeros(p, dtype=bool)
        bits[np.mod(keep_from, p)] = True
        mask &= bits[np.mod(probe, p)]
    return mask


def enumerate_hash_join(coeffs, bound: int) -> list[tuple[int, ...]]:
    """All normalized points of height <= bound, in (height, lex) order."""
    a1, a2, a3, a4 = coeffs
    if 4 * max(abs(c) for c in coeffs) * bound**3 >= 2**62:
        raise OverflowError(f"pair sums overflow int64 at height {bound}")
    lu, lv, left = _pair_table(a1, a2, bound)
    # -x is a solution whenever x is, so the left pairs with u > 0, or u = 0
    # and v >= 0, already meet one of the two signs of every solution
    half = (lu > 0) | ((lu == 0) & (lv >= 0))
    lu, lv, left = lu[half], lv[half], left[half]
    ru, rv, right = _pair_table(a3, a4, bound)
    right = -right
    lkeep = _hash_filter(right, left)
    rkeep = _hash_filter(left, right)
    by_value: dict[int, list[tuple[int, int]]] = {}
    for u, v, val in zip(lu[lkeep].tolist(), lv[lkeep].tolist(), left[lkeep].tolist()):
        by_value.setdefault(val, []).append((u, v))
    found = set()
    for s, t, val in zip(ru[rkeep].tolist(), rv[rkeep].tolist(), right[rkeep].tolist()):
        budget = bound - abs(s) - abs(t)
        for u, v in by_value.get(val, ()):
            if abs(u) + abs(v) <= budget and (u or v or s or t):
                found.add(normalize((u, v, s, t)))
    return sorted(found, key=order_key)


def _icbrt(n: int) -> int | None:
    m = abs(n)
    c = int(round(m ** (1 / 3)))
    for r in (c - 1, c, c + 1):
        if r >= 0 and r**3 == m:
            return r if n >= 0 else -r
    return None


def enumerate_brute(coeffs, bound: int) -> list[tuple[int, ...]]:
    """Nested loops over x1, x2, x3 solving exactly for x4; small bounds only."""
    a1, a2, a3, a4 = coeffs
    found = set()
    for x1 in range(-bound, bound + 1):
        r1 = bound - abs(x1)
        for x2 in range(-r1, r1 + 1):
            r2 = r1 - abs(x2)
            for x3 in range(-r2, r2 + 1):
                rest = -(a1 * x1**3 + a2 * x2**3 + a3 * x3**3)
                if rest % a4:
                    continue
                x4 = _icbrt(rest // a4)
                if x4 is not None and abs(x4) <= r2 - abs(x3) and (x1, x2, x3, x4) != (0, 0, 0, 0):
                    found.add(normalize((x1, x2, x3, x4)))
    return sorted(found, key=order_key)


@lru_cache(maxsize=None)
def _secant_function():
    """c1(a, x, y), c2(a, x, y): coefficients of t and t^2 in F(x + t*y)."""
    import sympy

    t = sympy.Symbol("t")
    a = sympy.symbols("a0:4")
    x = sympy.symbols("x0:4")
    y = sympy.symbols("y0:4")
    f = sympy.expand(sum(ai * (xi + t * yi) ** 3 for ai, xi, yi in zip(a, x, y)))
    poly = sympy.Poly(f, t)
    c1, c2 = poly.coeff_monomial(t), poly.coeff_monomial(t**2)
    return sympy.lambdify([a, x, y], [c1, c2], modules="math")


def secant_coeffs(coeffs, x, y) -> tuple[int, int]:
    c1, c2 = _secant_function()(coeffs, x, y)
    return int(c1), int(c2)


def third_point(coeffs, x, y):
    """Third intersection of the line xy with F = 0, or None if the line lies on it.

    With F(x) = F(y) = 0, F(x + t*y) = t*(c1 + c2*t) + ..., so the third root
    is t = -c1/c2, i.e. the point c2*x - c1*y (y itself when c2 = 0).
    """
    c1, c2 = secant_coeffs(coeffs, x, y)
    if c1 == 0 and c2 == 0:
        return None
    return normalize([c2 * a - c1 * b for a, b in zip(x, y)])


class Table:
    """Composition outcomes of every pair of a point list (ranks are 1-based)."""

    def __init__(self, coeffs, points):
        self.coeffs = tuple(coeffs)
        self.points = [tuple(p) for p in points]
        n = len(self.points)
        rank = {p: r for r, p in enumerate(self.points, start=1)}
        # c1[i][j] = coefficient of t in F(x_i + t*x_j); that of t^2 is c1[j][i]
        c1 = [[0] * (n + 1) for _ in range(n + 1)]
        for i, x in enumerate(self.points, start=1):
            for j, y in enumerate(self.points, start=1):
                if i != j:
                    c1[i][j] = secant_coeffs(self.coeffs, x, y)[0]
        self.composes: dict[tuple[int, int], int] = {}  # i < j -> rank of x_i o x_j
        self.undefined = 0
        for i in range(1, n + 1):
            x = self.points[i - 1]
            for j in range(i + 1, n + 1):
                a, b = c1[i][j], c1[j][i]
                if a == 0 and b == 0:
                    self.undefined += 1
                    continue
                z = normalize([b * p - a * q for p, q in zip(x, self.points[j - 1])])
                k = rank.get(z)
                if k is not None:
                    self.composes[(i, j)] = k
        # x_j lies on the tangent section at x_i iff grad F(x_i) . x_j = 0,
        # which is the t-coefficient of F(x_i + t*x_j)
        self.tangent = {
            i: [j for j in range(1, n + 1) if j != i and c1[i][j] == 0]
            for i in range(1, n + 1)
        }

    def strong(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, set[tuple[int, int]]] = {}
        for (i, j), k in self.composes.items():
            if i < k and j < k:
                out.setdefault(k, set()).add((i, j))
        for i, row in self.tangent.items():
            for k in row:
                if i < k:
                    out.setdefault(k, set()).add((i, i))
        return {k: sorted(v) for k, v in sorted(out.items())}

    def closure_order(self) -> list[bool]:
        """reached[x]: whether rank x lies in the closure of ranks 1..x-1.

        The closure of {1..x} contains that of {1..x-1}, so one worklist
        grows across all x instead of restarting per rank.
        """
        n = len(self.points)
        partners: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, n + 1)}
        for (i, j), k in self.composes.items():
            partners[i].append((j, k))
            partners[j].append((i, k))
        inside = set()
        out = [False] * (n + 1)

        def add(r):
            work = [r]
            inside.add(r)
            while work:
                i = work.pop()
                for k in self.tangent[i]:
                    if k not in inside:
                        inside.add(k)
                        work.append(k)
                for j, k in partners[i]:
                    if j in inside and k not in inside:
                        inside.add(k)
                        work.append(k)

        for x in range(1, n + 1):
            out[x] = x in inside
            if x not in inside:
                add(x)
        return out

    def values(self, tree) -> set[int]:
        """Value set of a parsed scheme: leaves are ranks, x o x is the tangent section."""
        if isinstance(tree, int):
            return {tree}
        left, right = self.values(tree[0]), self.values(tree[1])
        out = set()
        for i in left:
            for j in right:
                if i == j:
                    out.update(self.tangent[i])
                else:
                    k = self.composes.get((min(i, j), max(i, j)))
                    if k is not None:
                        out.add(k)
        return out


def parse_scheme(text: str, op: str = "∘"):
    """Nested (left, right) tuples with int leaves from an infix rendering."""
    pos = 0

    def atom():
        nonlocal pos
        if text.startswith("(", pos):
            pos += 1
            node = expr()
            if not text.startswith(")", pos):
                raise ValueError(f"missing ')' at {pos} in {text!r}")
            pos += 1
            return node
        end = pos
        while end < len(text) and text[end].isdigit():
            end += 1
        if end == pos:
            raise ValueError(f"expected a rank at {pos} in {text!r}")
        value, pos = int(text[pos:end]), end
        return value

    def expr():
        nonlocal pos
        left = atom()
        if text.startswith(op, pos):
            pos += len(op)
            return (left, atom())
        return left

    tree = expr()
    if pos != len(text):
        raise ValueError(f"trailing input at {pos} in {text!r}")
    return tree


def leaves(tree):
    if isinstance(tree, int):
        yield tree
    else:
        yield from leaves(tree[0])
        yield from leaves(tree[1])


def plane_points(p: int) -> set[tuple[int, int, int]]:
    """All points of P^2(F_p), scaled so the first nonzero coordinate is 1."""
    pts = {(1, a, b) for a in range(p) for b in range(p)}
    pts |= {(0, 1, b) for b in range(p)}
    pts.add((0, 0, 1))
    return pts


def meet_mod(a, b, c, d, p: int):
    """Point where line ab meets line cd in P^2(F_p), first nonzero coordinate 1."""

    def cross(u, v):
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    w = [c_ % p for c_ in cross(cross(a, b), cross(c, d))]
    lead = next((c_ for c_ in w if c_), None)
    if lead is None:
        return None
    inv = pow(lead, -1, p)
    return tuple(c_ * inv % p for c_ in w)
