"""Randomized pointwise verification suites for the composition identities.

Each suite draws seeded random configurations, skips the ones where some
intermediate composition is undefined, and counts failures.  Skips are
reported, never hidden.

The registry suites check their draws in batches of at most `_BATCH`.  A
batch stacks the drawn points into numpy object arrays of Python ints, so
the arithmetic stays exact, and composes them row by row (`compose_rows`).
A batch never holds more draws than trials are missing, and its outcomes
are counted in draw order, so every count, and the draw at which the skip
budget runs out, is the same as when each draw is checked on its own.
The group law runs through the same loop over F_p: its points are int64
rows of residues mod p, composed row by row with `chord_rows`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .enumeration import PointRegistry
from .errors import CubicError, DegenerateSample
from .geometry import CubicForm, Field, ProjPoint, gradient_rows, polar_rows
from .planecubic import (
    PlaneCubic,
    _tangent_value,
    chord_rows,
    curve_rows,
    gradient_mod_rows,
    same_rows,
)
# bench/workload.py counts calls of relations.secant_compose; the batched
# compositions of the registry suites are not such calls
from .surface import compose_rows, secant_compose  # noqa: F401

# Draws checked at once; it bounds the size, and so the memory, of a batch's arrays.
_BATCH = 128

# Skipped draws allowed per requested trial.  Registries of real surfaces skip
# fewer than 4 draws per trial (the most: the Fermat surface at H=10 in the
# sextuple suite), so only one where almost every draw is undefined, such as
# points on one line of the surface, runs out.
_SKIPS_PER_TRIAL = 100


@dataclass
class SuiteResult:
    name: str
    passes: int = 0
    failures: int = 0
    skips: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def __str__(self):
        return (
            f"{self.name}: {self.passes} passed, {self.failures} failed, "
            f"{self.skips} skipped"
        )


def _check_size(pts, k: int) -> None:
    if len(pts) < k:
        raise DegenerateSample(
            f"the suite draws {k} distinct points, there are {len(pts)}"
        )


def _skip(res: SuiteResult, trials: int) -> None:
    """Count a skipped draw; a registry where nearly every draw skips is degenerate."""
    res.skips += 1
    if res.skips > _SKIPS_PER_TRIAL * trials:
        raise DegenerateSample(
            f"{res.name}: {res.skips} draws skipped before {trials} trials were made"
        )


def _run(name: str, trials: int, draw, check) -> SuiteResult:
    """Count the outcomes of check on batches of draws until trials are made.

    check maps a list of draws to one outcome per draw, in order: True for
    a pass, False for a failure and None for a skip.  A round draws no more
    than the trials still missing, so the rng gives the draws a loop over
    single draws would get.
    """
    res = SuiteResult(name)
    while (done := res.passes + res.failures) < trials:
        batch = [draw() for _ in range(min(_BATCH, trials - done))]
        for outcome in check(batch):
            if outcome is None:
                _skip(res, trials)
            elif outcome:
                res.passes += 1
            else:
                res.failures += 1
    return res


def _outcomes(defined, holds) -> list:
    """None where a draw's compositions are undefined, else whether it holds."""
    return np.where(defined, holds, None).tolist()


def _registry_draws(registry: PointRegistry, k: int, seed: int):
    """The registry's coordinates as an object array, and a draw of k row indices.

    A draw holds the indices `random.sample` picks from the points.
    """
    _check_size(registry.points, k)
    P = np.array([x.coords for x in registry.points], dtype=object)
    return P, functools.partial(random.Random(seed).sample, range(len(P)), k)


def involution_suite(registry: PointRegistry, trials: int, seed: int = 0) -> SuiteResult:
    """x o (x o y) = y, or x o y = x when y lies on the tangent section at x."""
    form = registry.surface.form
    P, draw = _registry_draws(registry, 2, seed)

    def check(draws):
        X, Y = P[np.array(draws).T]
        GX = gradient_rows(form, X)
        Z, defined = compose_rows(form, X, Y, GX)
        fixed = (Z == X).all(axis=1)
        back, ok = compose_rows(form, X, Z, GX)
        # as in `z == x or x o z == y`: x o z counts only where z != x
        return _outcomes(defined & (fixed | ok), fixed | (back == Y).all(axis=1))

    return _run("involution", trials, draw, check)


def sextuple_suite(registry: PointRegistry, trials: int, seed: int = 0) -> SuiteResult:
    """(t_x t_{x o y} t_y)^2 = identity, tested pointwise on registry samples."""
    form = registry.surface.form
    P, draw = _registry_draws(registry, 3, seed)

    def check(draws):
        X, Y, Z = P[np.array(draws).T]
        GX, GY = gradient_rows(form, X), gradient_rows(form, Y)
        W, defined = compose_rows(form, X, Y, GX, GY)
        GW = gradient_rows(form, W)
        cur = Z
        for T, GT in ((Y, GY), (W, GW), (X, GX)) * 2:
            cur, ok = compose_rows(form, T, cur, GT)
            defined &= ok
        return _outcomes(defined, (cur == Z).all(axis=1))

    return _run("sextuple relation", trials, draw, check)


def tangent_consistency_suite(
    registry: PointRegistry, trials: int, seed: int = 0
) -> SuiteResult:
    """x on the tangent section at y iff the polar coefficient c1 of (y, x) vanishes.

    The section is grad F(y)·x = 0, as in `on_tangent_section`; the polar
    expansion does not use the gradient.
    """
    form = registry.surface.form
    P, draw = _registry_draws(registry, 2, seed)

    def check(draws):
        X, Y = P[np.array(draws).T]
        on_section = (gradient_rows(form, Y) * X).sum(axis=1) == 0
        return (on_section == (polar_rows(form, Y, X)[1] == 0)).tolist()

    return _run("tangent consistency", trials, draw, check)


def group_law_suite(
    trials: int, seed: int = 0, p: int = 101, diagonal=(1, 1, 1)
) -> list[SuiteResult]:
    """Identity, commutativity, associativity of x + y = e o (x o y) on a smooth cubic.

    A sum is defined where `group_add` returns: x o y, and e o (x o y)
    unless x o y = e, where the sum is e o e, found by `_tangent_value`
    once per identity e drawn.
    """
    curve = PlaneCubic(CubicForm.diagonal(diagonal), Field(p))
    P = curve_rows(curve)
    G = gradient_mod_rows(curve, P)
    smooth = G.any(axis=1)
    P, G = P[smooth], G[smooth]
    _check_size(P, 4)
    rng = random.Random(seed)
    tangent = {}  # index of e -> e o e, None where it is undefined

    def e_o_e(e):
        if e not in tangent:
            try:
                x = ProjPoint(tuple(P[e].tolist()), curve.field)
                tangent[e] = _tangent_value(curve, x).coords
            except CubicError:
                tangent[e] = None
        return tangent[e]

    def add(e, X, Y, GX=None, GY=None):
        """x + y for each row pair with identity P[e], and where it is defined."""
        W, ok = chord_rows(curve, X, Y, GX, GY)
        S, defined = chord_rows(curve, P[e], W, G[e])
        for r in np.flatnonzero(ok & same_rows(W, P[e], p)):
            value = e_o_e(e[r])
            if value is not None:
                S[r], defined[r] = value, True
        return S, ok & defined

    def identity(draws):
        e, x = np.array(draws).T
        S, ok = add(e, P[x], P[e], G[x], G[e])
        return _outcomes(ok, same_rows(S, P[x], p))

    def commutativity(draws):
        e, x, y = np.array(draws).T
        A, ok = add(e, P[x], P[y], G[x], G[y])
        B, ok_b = add(e, P[y], P[x], G[y], G[x])
        return _outcomes(ok & ok_b, same_rows(A, B, p))

    def associativity(draws):
        e, x, y, z = np.array(draws).T
        XY, ok = add(e, P[x], P[y], G[x], G[y])
        YZ, ok_yz = add(e, P[y], P[z], G[y], G[z])
        L, ok_l = add(e, XY, P[z], GY=G[z])
        R, ok_r = add(e, P[x], YZ, G[x])
        return _outcomes(ok & ok_yz & ok_l & ok_r, same_rows(L, R, p))

    def draw(k):
        return functools.partial(rng.sample, range(len(P)), k)

    return [
        _run("group identity", trials, draw(2), identity),
        _run("group commutativity", trials, draw(3), commutativity),
        _run("group associativity", trials, draw(4), associativity),
    ]
