"""Randomized pointwise verification suites for the composition identities.

Each suite draws seeded random configurations, skips the ones where some
intermediate composition is undefined, and counts failures.  Skips are
reported, never hidden.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .enumeration import PointRegistry
from .errors import CubicError, DegenerateSample, EqualPoints, LineOnSurface
from .geometry import CubicForm, Field, polar_coeffs
from .planecubic import PlaneCubic, curve_points, group_add
from .surface import on_tangent_section, secant_compose

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


def _run(name: str, trials: int, draw, check, skip=()) -> SuiteResult:
    """Count check(*draw()) as a pass or a failure until trials are made.

    A draw whose check raises one of the skip exceptions is skipped.
    """
    res = SuiteResult(name)
    while res.passes + res.failures < trials:
        try:
            ok = check(*draw())
        except skip:
            _skip(res, trials)
            continue
        if ok:
            res.passes += 1
        else:
            res.failures += 1
    return res


def involution_suite(registry: PointRegistry, trials: int, seed: int = 0) -> SuiteResult:
    """x o (x o y) = y, or x o y = x when y lies on the tangent section at x."""
    surface = registry.surface
    _check_size(registry.points, 2)

    def check(x, y):
        z = secant_compose(surface, x, y)
        return z == x or secant_compose(surface, x, z) == y

    draw = functools.partial(random.Random(seed).sample, registry.points, 2)
    return _run("involution", trials, draw, check, (LineOnSurface,))


def sextuple_suite(registry: PointRegistry, trials: int, seed: int = 0) -> SuiteResult:
    """(t_x t_{x o y} t_y)^2 = identity, tested pointwise on registry samples."""
    surface = registry.surface
    _check_size(registry.points, 3)

    def check(x, y, z):
        w = secant_compose(surface, x, y)
        cur = z
        for t in (y, w, x, y, w, x):
            cur = secant_compose(surface, t, cur)
        return cur == z

    draw = functools.partial(random.Random(seed).sample, registry.points, 3)
    return _run("sextuple relation", trials, draw, check, (EqualPoints, LineOnSurface))


def tangent_consistency_suite(
    registry: PointRegistry, trials: int, seed: int = 0
) -> SuiteResult:
    """on_tangent_section(x, y) iff the polar coefficient c1 of (y, x) vanishes."""
    surface = registry.surface
    _check_size(registry.points, 2)

    def check(x, y):
        return on_tangent_section(surface, x, y) == (polar_coeffs(surface.form, y, x)[1] == 0)

    draw = functools.partial(random.Random(seed).sample, registry.points, 2)
    return _run("tangent consistency", trials, draw, check)


def group_law_suite(
    trials: int, seed: int = 0, p: int = 101, diagonal=(1, 1, 1)
) -> list[SuiteResult]:
    """Identity, commutativity, associativity of x + y = e o (x o y) on a smooth cubic."""
    curve = PlaneCubic(CubicForm.diagonal(diagonal), Field(p))
    pts = [x for x in curve_points(curve) if curve.is_smooth_at(x)]
    _check_size(pts, 4)
    rng = random.Random(seed)
    add = functools.partial(group_add, curve)

    def draw(k):
        return functools.partial(rng.sample, pts, k)

    return [
        _run("group identity", trials, draw(2),
             lambda e, x: add(e, x, e) == x, (CubicError,)),
        _run("group commutativity", trials, draw(3),
             lambda e, x, y: add(e, x, y) == add(e, y, x), (CubicError,)),
        _run("group associativity", trials, draw(4),
             lambda e, x, y, z: add(e, add(e, x, y), z) == add(e, x, add(e, y, z)),
             (CubicError,)),
    ]
