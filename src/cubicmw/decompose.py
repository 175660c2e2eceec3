"""Composition table over the point registry and decomposition search.

A point is strongly decomposable when it is y o z for two earlier points
(y = z meaning the tangent relation), and weakly decomposable when it is
reachable from the earlier points by iterated compositions whose
intermediate values all stay inside the registry.  Points that are neither
form the generator set.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .enumeration import PointRegistry
from .errors import EmptyRegistry
from .geometry import canonical_rows
from .surface import height, on_tangent_section, point_rows, secant_compose

OP = "∘"  # the composition symbol used in rendered schemes


@dataclass
class CompositionTable:
    """Outcomes of all unordered compositions restricted to the registry.

    The outcomes are int64 arrays of 1-based ranks in row-major order:
    `in_vh` has a row (i, j, k), i < j, when point_i o point_j is registry
    point k, `undefined` a row (i, j), i < j, when the secant line of the
    pair lies on the surface, and `tangent_rows` a row (r, j) when point j
    (j != r) lies on the tangent section at point r; every other pair
    composes to a point outside the registry.  `tangent` is the same
    relation as a mapping, rank r -> the sorted tuple of its j, built on
    first use.  The entries of each kind number `len(in_vh)`,
    `len(undefined)` and `len(tangent_rows)`.
    """

    registry: PointRegistry
    in_vh: np.ndarray
    undefined: np.ndarray
    tangent_rows: np.ndarray

    @functools.cached_property
    def tangent(self) -> dict[int, tuple[int, ...]]:
        """tangent[r]: the ranks j of the rows (r, j) of `tangent_rows`, for every rank r."""
        r, j = self.tangent_rows.T
        groups = _groups(tuple(j.tolist()), r, len(self.registry))
        return dict(enumerate(groups[1:], 1))

    @functools.cached_property
    def pairs_of(self) -> list[list[tuple[int, int, int]]]:
        """pairs_of[r]: the `in_vh` rows (i, j, k) with i or j equal to rank r, in table order."""
        i, j, _ = self.in_vh.T
        rows = np.fromiter(zip(*self.in_vh.T.tolist()), object, len(i))
        # per rank the rows (i, r) come before the rows (r, j), as in row-major order
        side = np.concatenate([j, i])
        order = np.argsort(side, kind="stable") % len(i)
        return _groups(rows[order].tolist(), side, len(self.registry))


def _groups(items, ranks: np.ndarray, n: int) -> list:
    """The run of items of each rank 0..n: items are in rank order, and ranks holds their ranks."""
    ends = np.cumsum(np.bincount(ranks, minlength=n + 1)).tolist()
    return [items[s:e] for s, e in zip([0] + ends, ends)]


# Pairs (i, j), j > i, per row block of `build_table`.  On 2 vCPUs blocks of
# 2^10..2^13 pairs took 14.6, 11.1, 9.5, 10.2 ms (tracemalloc peak 0.56,
# 0.65, 1.08, 1.73 MB) at H=1100 and 0.87, 0.61, 0.54, 0.49 s (4.9, 6.5,
# 6.9, 8.8 MB) at H=8000.
_BLOCK = 2**12


def _row_blocks(n: int):
    """(i, e) per block of consecutive rows i..e-1: at most _BLOCK pairs, or one row."""
    i = 0
    while i < n:
        e, pairs = i + 1, n - 1 - i
        while e < n and pairs + n - 1 - e <= _BLOCK:
            pairs += n - 1 - e
            e += 1
        yield i, e
        i = e


def _bucket(v0, v1) -> np.ndarray:
    """Per entry floor(2^16·|v0| / (|v0| + |v1|)), 0 if both are 0, -1 if |v0| + |v1| >= 2^53."""
    a = np.abs(v0)
    s = a + np.abs(v1)
    q = (a / np.maximum(s, 1) * 2**16).astype(np.int64)
    q[s >= 2**53] = -1
    return q


def _row_keys(rows: np.ndarray, cap: int) -> np.ndarray:
    """One key per row with entries in [-cap, cap]: its entries + cap as digits in base 2·cap + 1.

    Distinct rows have distinct keys.  On int64 rows the keys are int64
    while the largest, base^4 − 1, is below 2^63, and Python ints otherwise.
    """
    base = 2 * cap + 1
    weights = np.array([base**3, base**2, base, 1], dtype=np.int64 if base**4 <= 2**63 else object)
    return (rows + cap) @ weights


def build_table(registry: PointRegistry) -> CompositionTable:
    """Evaluate all unordered pairs and all tangent-section rows.

    For a cubic form, F(x + t*y) has c1 = grad F(x)·y and c2 = grad F(y)·x,
    so the whole table follows from the n gradients G and the coordinates P.
    It is read off in blocks of consecutive rows i..e-1, each with about
    _BLOCK pairs (r, j), j > r, from two products, c1 = G[i:e]·Pᵀ and
    c2 = P[i:e]·Gᵀ: for point r of the block, c1 = grad F(x_r)·x_j and
    c2 = grad F(x_j)·x_r over all j.  x_j (j != r) lies on the tangent
    section at x_r when c1 = 0, the line through x_r, x_j lies on the
    surface when c1 = c2 = 0, and otherwise x_r o x_j is c2·x_r − c1·x_j,
    normalized.  Only its first two entries r0, r1 are formed for every pair,
    the rest only when `_bucket(r0, r1)` is a registry point's bucket.  A hit
    λ·x_k has x_k's rational as its quotient, and below 2^53 both are
    correctly rounded divisions of exact integers, so no hit is lost.  Only
    candidates no higher than the highest registry point are looked up, by
    an exact key of their coordinates (`_row_keys`) in the sorted keys of
    the registry's rows.

    Each block yields int64 rows in row-major order: its tangent entries
    (r, j), its undefined pairs (r, j) and its hits (r, j, k).  Their
    concatenations are `tangent_rows`, `undefined` and `in_vh`.

    P and G are the rows of `point_rows`: int64 while no entry can wrap.
    """
    n = len(registry)
    if n == 0:
        raise EmptyRegistry("empty registry")
    P, G = point_rows(registry.surface.form, registry.points)
    cap = max(height(x) for x in registry.points)
    registry_keys = _row_keys(P, cap)
    by_key = np.argsort(registry_keys)
    registry_keys = registry_keys[by_key]
    x0, x1 = P[:, :2].T.copy()
    marked = np.zeros(2**16 + 2, dtype=bool)  # buckets 0..2^16, then -1
    marked[_bucket(x0, x1)] = True
    marked[-1] = True
    cols = np.arange(n)
    on_section, undefined, found = [], [], []
    for i, e in _row_blocks(n):
        rows = cols[i:e, None]
        c1 = G[i:e] @ P.T
        c2 = P[i:e] @ G.T
        zero = c1 == 0
        zero[rows - i, rows] = False  # x_r is not on its own list
        on_section.append(np.argwhere(zero) + (i, 0))
        upper = cols > rows
        on_surface = zero & (c2 == 0)
        undefined.append(np.argwhere(on_surface & upper) + (i, 0))
        r, j = np.nonzero(upper & ~on_surface)
        a, b = c1[r, j], c2[r, j]
        r += i
        near = marked[_bucket(b * x0[r] - a * x0[j], b * x1[r] - a * x1[j])]
        a, b, r, j = a[near], b[near], r[near], j[near]
        z, _ = canonical_rows(b[:, None] * P[r] - a[:, None] * P[j])
        low = np.abs(z).sum(axis=1) <= cap
        found.append((r[low], j[low], _row_keys(z[low], cap)))
    r, j, keys = map(np.concatenate, zip(*found))
    at = np.minimum(np.searchsorted(registry_keys, keys), n - 1)
    hit = registry_keys[at] == keys
    in_vh = np.stack([r[hit], j[hit], by_key[at[hit]]], axis=1) + 1
    return CompositionTable(
        registry, in_vh, np.concatenate(undefined) + 1, np.concatenate(on_section) + 1
    )


class StrongRelations(Mapping):
    """The relations x = y o z with y, z earlier than x, as a mapping x -> sorted [(y, z), ...].

    Held as arrays in (x, y, z) order: `pairs`, one int64 row (y, z) per
    relation, and per strongly decomposable rank x the slice of its rows.
    A rank's list of tuples is built when it is read; `flat_pairs` gives
    the entries of each rank's rows without building them.
    """

    def __init__(self, keys: np.ndarray, n: int):
        """keys: the sorted int64 keys (x·m + y)·m + z, m = n + 1, of the relations."""
        m = n + 1
        xy, z = np.divmod(keys, m)
        x, y = np.divmod(xy, m)
        self.pairs = np.stack([y, z], axis=1)
        ends = np.flatnonzero(np.diff(x, append=m)) + 1
        self._rows = dict(zip(x[ends - 1].tolist(), zip([0, *ends[:-1].tolist()], ends.tolist())))

    def __getitem__(self, x: int) -> list[tuple[int, int]]:
        s, e = self._rows[x]
        return list(map(tuple, self.pairs[s:e].tolist()))

    def __contains__(self, x) -> bool:
        return x in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def flat_pairs(self):
        """(x, [y1, z1, y2, z2, ...]) per rank x in order: the entries of its pairs, one list."""
        flat = self.pairs.ravel()
        for x, (s, e) in self._rows.items():
            yield x, flat[2 * s:2 * e].tolist()


def strong_decompositions(table: CompositionTable) -> StrongRelations:
    """All relations x = y o z with y, z earlier than x (y = z allowed), pairs sorted.

    Returned as a `StrongRelations`, which keeps them as int64 rows.  Read
    off the arrays: the `in_vh` rows (y, z, x) with z < x and the
    `tangent_rows` (y, x) with y < x, as (y, y, x).  Each relation is one
    int64 key (x·m + y)·m + z, m = n + 1 (below 2^63 while n < 2·10^6, far
    past any table that can be built), and one sort of the keys orders them
    by (x, y, z).
    """
    m = len(table.registry) + 1
    y, z, x = table.in_vh[table.in_vh[:, 1] < table.in_vh[:, 2]].T
    ty, tx = table.tangent_rows[table.tangent_rows[:, 0] < table.tangent_rows[:, 1]].T
    keys = np.concatenate([(x * m + y) * m + z, tx * m * m + ty * (m + 1)])
    keys.sort()
    return StrongRelations(keys, m - 1)


@dataclass(frozen=True)
class Scheme:
    """Binary composition tree; leaves are ranks, nodes carry their value rank."""

    rank: int
    left: "Scheme | None" = None
    right: "Scheme | None" = None
    tangent: bool = False

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _MinMaxPass:
    """Least offers over the table from a growing seed set (Knuth, IPL 6 (1977)).

    A relation (i, j) -> k offers max(w_k, step + max(v_i, v_j)) to k, a
    tangent row r -> k offers max(w_k, step + v_r); seeds hold 0.  With
    step 1 and w = 0, value[k] is the closure generation of k; with step 0
    and w = height, it is the least height cap under which k is reached.
    parent[k] is the smallest pair among the offers equal to value[k], with
    (r, r) for a tangent row; with step 1 it is the smallest producing pair
    in the earliest closure generation.  Seeds are only ever added, so
    values only fall, and each `settle` resumes from the last one
    (Ramalingam & Reps, J. Algorithms 21 (1996)): a popped rank offers
    along every relation it enters, and a lowered rank is pushed again.
    """

    def __init__(self, table: CompositionTable, by_height: bool = False):
        n = len(table.registry)
        self.pairs_of = table.pairs_of
        self.tangent = table.tangent
        self.step = 0 if by_height else 1
        self.weight = [0] * (n + 1)
        if by_height:
            self.weight[1:] = map(height, table.registry.points)
        # rank 0 names no point and stays unreached: settle(0) runs to the fixpoint
        self.value: list[float] = [math.inf] * (n + 1)
        self.parent: list[tuple[int, int] | None] = [None] * (n + 1)
        self.heap: list[tuple[float, int]] = []

    def seed(self, *ranks: int) -> None:
        for r in ranks:
            self.value[r] = 0
            heapq.heappush(self.heap, (0, r))

    def settle(self, target: int = 0) -> None:
        """Pop while the heap's least entry is below value[target]; settle() runs to the fixpoint.

        Then the target and every rank whose least offer is below that bound
        hold their least offers, and with step 1 their parents are final: each
        relation into them was offered at its inputs' final values.
        """
        value, parent, heap = self.value, self.parent, self.heap
        pairs_of, tangent, weight, step = self.pairs_of, self.tangent, self.weight, self.step
        inf, push = math.inf, heapq.heappush
        while heap and heap[0][0] < value[target]:
            v, r = heapq.heappop(heap)
            if v != value[r]:
                continue  # superseded by a lower entry
            # an offer from r is at least v + step: ranks below that cannot gain
            low = v + step
            for i, j, k in pairs_of[r]:
                if value[k] < low:
                    continue
                a, b = value[i], value[j]
                o = (a if a > b else b) + step
                if o < weight[k]:
                    o = weight[k]
                if o < value[k]:
                    value[k], parent[k] = o, (i, j)
                    push(heap, (o, k))
                elif o == value[k] != inf and (i, j) < parent[k]:  # inf: an input is unreached
                    parent[k] = (i, j)
            # the tangent rows: the same offers, from the pair (r, r)
            pair = (r, r)
            for k in tangent[r]:
                if value[k] < low:
                    continue
                o = low if low > weight[k] else weight[k]
                if o < value[k]:
                    value[k], parent[k] = o, pair
                    push(heap, (o, k))
                elif o == value[k] and pair < parent[k]:
                    parent[k] = pair

    def scheme(self, k: int) -> Scheme:
        """The witness of k read off the parents; its leaves are seeds."""
        if self.value[k] == 0:
            return Scheme(k)
        i, j = self.parent[k]
        left = self.scheme(i)
        if i == j:
            return Scheme(k, left, left, tangent=True)
        return Scheme(k, left, self.scheme(j))


def weak_closure(table: CompositionTable, x: int) -> tuple[bool, Scheme | None]:
    """Whether rank x is generated by the earlier ranks, with a witness scheme.

    Leaves of the witness are ranks below x; intermediate values may be any
    registry point.  The scheme is minimal in closure generations, ties
    broken by smallest producing rank pair.  As in `build_report`, the pass
    settles only as far as x's own depth.
    """
    kernel = _MinMaxPass(table)
    kernel.seed(*range(1, x))
    kernel.settle(x)
    if kernel.value[x] == math.inf:
        return False, None
    return True, kernel.scheme(x)


def _non_strong(table: CompositionTable, strong, by_height: bool = False):
    """Yield (x, kernel) for each rank x not in strong, value[x] settled over the ranks below x."""
    kernel = _MinMaxPass(table, by_height)
    for x in range(1, len(table.registry) + 1):
        if x not in strong:
            kernel.settle(x)
            yield x, kernel
        kernel.seed(x)


def cap_profile(table: CompositionTable, strong) -> list[tuple[int, int | None]]:
    """(x, cap(x)) for each rank x not in strong, the table's `strong_decompositions`.

    cap(x) is the least height c such that x lies in the closure of the
    ranks below x when every value on the way, x included, has height <= c;
    None when x is not reached at all.
    """
    return [(x, None if kernel.value[x] == math.inf else kernel.value[x])
            for x, kernel in _non_strong(table, strong, by_height=True)]


def render_scheme(scheme: Scheme) -> str:
    """Fully parenthesized infix rendering over ranks, e.g. `5o(1o2)`."""

    def sub(s: Scheme) -> str:
        return str(s.rank) if s.is_leaf else "(" + top(s) + ")"

    def top(s: Scheme) -> str:
        return f"{sub(s.left)}{OP}{sub(s.right)}"

    return str(scheme.rank) if scheme.is_leaf else top(scheme)


def evaluate_scheme(registry: PointRegistry, scheme: Scheme):
    """Re-evaluate an annotated scheme bottom-up through the surface arithmetic."""
    surface = registry.surface
    if scheme.is_leaf:
        return registry.point(scheme.rank)
    child = evaluate_scheme(registry, scheme.left)
    value = registry.point(scheme.rank)
    if scheme.tangent:
        if not on_tangent_section(surface, value, child):
            raise ValueError(f"tangent witness fails at rank {scheme.rank}")
        return value
    other = evaluate_scheme(registry, scheme.right)
    z = secant_compose(surface, child, other)
    if z != value:
        raise ValueError(f"scheme value mismatch at rank {scheme.rank}")
    return value


@dataclass
class DecompositionReport:
    """The split of the registry into strong, weak-only and generator ranks.

    `strong` is the table's `StrongRelations` (or any mapping rank -> sorted
    pairs), `weak_witnesses` maps each weak-only rank to its scheme, and
    `generator_ranks` lists the rest in order.
    """

    registry: PointRegistry
    strong: Mapping[int, list[tuple[int, int]]]
    weak_witnesses: dict[int, Scheme]
    generator_ranks: list[int]

    def json_fields(self) -> dict:
        """The report's JSON object, with `strong` itself as the value of "strong".

        A writer that knows `StrongRelations` streams that block from its
        arrays (`cli.json_pieces`); `to_json_dict` builds it as a dict.
        """
        reg = self.registry
        return {
            "points": len(reg),
            "strong_count": len(self.strong),
            "weak_only_count": len(self.weak_witnesses),
            "generator_count": len(self.generator_ranks),
            "generators": [list(reg.point(r).coords) for r in self.generator_ranks],
            "strong": self.strong,
            "weak_witnesses": {
                str(k): render_scheme(s) for k, s in sorted(self.weak_witnesses.items())
            },
        }

    def to_json_dict(self) -> dict:
        """`json_fields()` with "strong" as the dict {str(x): [(y, z), ...]}."""
        return {**self.json_fields(), "strong": {str(k): v for k, v in self.strong.items()}}


def build_report(table: CompositionTable) -> DecompositionReport:
    """Partition the registry into strong / weak-only / generator points.

    One incremental pass over the ranks in order: each non-strong rank is
    settled only as far as its own depth over the ranks below it.
    """
    strong = strong_decompositions(table)
    weak: dict[int, Scheme] = {}
    gens: list[int] = []
    for x, kernel in _non_strong(table, strong):
        if kernel.value[x] == math.inf:
            gens.append(x)
        else:
            weak[x] = kernel.scheme(x)
    return DecompositionReport(table.registry, strong, weak, gens)
