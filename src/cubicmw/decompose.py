"""Composition table over the point registry and decomposition search.

A point is strongly decomposable when it is y o z for two earlier points
(y = z meaning the tangent relation), and weakly decomposable when it is
reachable from the earlier points by iterated compositions whose
intermediate values all stay inside the registry.  Points that are neither
form the generator set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .enumeration import PointRegistry
from .errors import EmptyRegistry
from .fixpoint import semi_naive
from .geometry import primitive_rows
from .surface import height, on_tangent_section, point_rows, secant_compose

OP = "∘"  # the composition symbol used in rendered schemes


@dataclass
class CompositionTable:
    """Outcomes of all unordered compositions restricted to the registry.

    `in_vh[(i, j)] = k` (i < j) when point_i o point_j is registry point k;
    `undefined` holds pairs whose secant line lies on the surface; every
    other pair composes to a point outside the registry.  `tangent[i]` is
    the sorted tuple of ranks lying on the tangent section at point i.
    """

    registry: PointRegistry
    in_vh: dict[tuple[int, int], int] = field(default_factory=dict)
    undefined: set[tuple[int, int]] = field(default_factory=set)
    tangent: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @functools.cached_property
    def pairs_of(self) -> dict[int, list[tuple[tuple[int, int], int]]]:
        """Rank -> the in_vh items ((i, j), k) with i or j equal to that rank."""
        index: dict[int, list[tuple[tuple[int, int], int]]] = {}
        for item in self.in_vh.items():
            for r in item[0]:
                index.setdefault(r, []).append(item)
        return index


def build_table(registry: PointRegistry) -> CompositionTable:
    """Evaluate all unordered pairs and all tangent-section rows.

    For a cubic form, F(x + t*y) has c1 = grad F(x)·y and c2 = grad F(y)·x,
    so the whole table follows from the n gradients G and the coordinates P
    through C = G·Pᵀ, C[i, j] = grad F(x_i)·x_j.  Row i is read off two
    mat-vecs, c1 = P·G[i] and c2 = G·P[i]: x_j (j != i) lies on the tangent
    section at x_i when c1[j] = 0, the line through x_i, x_j lies on the
    surface when c1[j] = c2[j] = 0, and otherwise x_i o x_j is
    c2[j]·x_i − c1[j]·x_j, normalized.  Only candidates no higher than the highest registry point
    are looked up in the index.

    P and G are the rows of `point_rows`: int64 while no entry can wrap.
    """
    n = len(registry)
    if n == 0:
        raise EmptyRegistry("empty registry")
    table = CompositionTable(registry)
    P, G = point_rows(registry.surface.form, registry.points)
    cap = max(height(x) for x in registry.points)
    index = registry.index
    for i in range(n):
        c1 = P @ G[i]
        c2 = G @ P[i]
        on_section = c1 == 0
        on_section[i] = False
        table.tangent[i + 1] = tuple((np.flatnonzero(on_section) + 1).tolist())
        a, b = c1[i + 1 :], c2[i + 1 :]
        on_surface = (a == 0) & (b == 0)
        for j in (np.flatnonzero(on_surface) + i + 2).tolist():
            table.undefined.add((i + 1, j))
        defined = ~on_surface
        js = np.flatnonzero(defined) + i + 1
        raw = b[defined, None] * P[i] - a[defined, None] * P[js]
        g = np.gcd.reduce(raw, axis=1)
        low = np.abs(raw).sum(axis=1) // g <= cap
        z, js = primitive_rows(raw[low], g[low]), js[low]
        for j, key in zip(js.tolist(), z.tolist()):
            k = index.get(tuple(key))
            if k is not None:
                table.in_vh[(i + 1, j + 1)] = k
    return table


def strong_decompositions(table: CompositionTable) -> dict[int, list[tuple[int, int]]]:
    """All relations x = y o z with y, z earlier than x (y = z allowed)."""
    strong: dict[int, list[tuple[int, int]]] = {}
    for (i, j), k in table.in_vh.items():
        if i < k and j < k:
            strong.setdefault(k, []).append((i, j))
    for i, row in table.tangent.items():
        for j in row:
            if i < j:
                strong.setdefault(j, []).append((i, i))
    return {k: sorted(v) for k, v in sorted(strong.items())}


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


def _closure(
    table: CompositionTable, seeds: set[int]
) -> tuple[set[int], dict[int, tuple[int, int]]]:
    """Fixpoint of the seed set under table compositions, with back-pointers.

    parents[k] = (i, j) is the lexicographically smallest producing pair in
    the earliest generation; (i, i) marks the tangent relation k = i o i.
    A round visits only the relations with an input new in the last round.
    """

    def derive(old, new, known):
        offers = [(k, (i, j)) for r in new for (i, j), k in table.pairs_of.get(r, ())
                  if k not in known and i in known and j in known]
        offers += [(j, (r, r)) for r in new for j in table.tangent[r] if j not in known]
        found: dict[int, tuple[int, int]] = {}
        for k, pair in offers:
            if k not in found or pair < found[k]:
                found[k] = pair
        return found

    known, _ = semi_naive(seeds, derive)
    return set(known), {k: pair for k, pair in known.items() if pair is not None}


def _scheme_from_parents(
    target: int, seeds: set[int], parents: dict[int, tuple[int, int]]
) -> Scheme:
    if target in seeds:
        return Scheme(target)
    i, j = parents[target]
    left = _scheme_from_parents(i, seeds, parents)
    if i == j:
        return Scheme(target, left, left, tangent=True)
    return Scheme(target, left, _scheme_from_parents(j, seeds, parents))


def weak_closure(table: CompositionTable, x: int) -> tuple[bool, Scheme | None]:
    """Whether rank x is generated by the earlier ranks, with a witness scheme.

    Leaves of the witness are ranks below x; intermediate values may be any
    registry point.  The scheme is minimal in closure generations, ties
    broken by smallest producing rank pair.
    """
    seeds = set(range(1, x))
    reached, parents = _closure(table, seeds)
    if x not in reached:
        return False, None
    return True, _scheme_from_parents(x, seeds, parents)


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
    registry: PointRegistry
    strong: dict[int, list[tuple[int, int]]]
    weak_witnesses: dict[int, Scheme]
    generator_ranks: list[int]

    def to_json_dict(self) -> dict:
        reg = self.registry
        return {
            "points": len(reg),
            "strong_count": len(self.strong),
            "weak_only_count": len(self.weak_witnesses),
            "generator_count": len(self.generator_ranks),
            "generators": [list(reg.point(r).coords) for r in self.generator_ranks],
            "strong": {str(k): [list(p) for p in v] for k, v in self.strong.items()},
            "weak_witnesses": {
                str(k): render_scheme(s) for k, s in sorted(self.weak_witnesses.items())
            },
        }


def build_report(table: CompositionTable) -> DecompositionReport:
    """Partition the registry into strong / weak-only / generator points."""
    strong = strong_decompositions(table)
    weak: dict[int, Scheme] = {}
    gens: list[int] = []
    for x in range(1, len(table.registry) + 1):
        if x in strong:
            continue
        ok, scheme = weak_closure(table, x)
        if ok:
            weak[x] = scheme
        else:
            gens.append(x)
    return DecompositionReport(table.registry, strong, weak, gens)
