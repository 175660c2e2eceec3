"""Randomized pointwise verification suites for the composition identities.

Each suite draws seeded random configurations, skips the ones where some
intermediate composition is undefined, and counts failures.  Skips are
reported, never hidden.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .enumeration import PointRegistry
from .errors import CubicError, DegenerateSample, EqualPoints, LineOnSurface
from .geometry import Field, normalize, polar_coeffs
from .planecubic import PlaneCubic, curve_points, group_add
from .geometry import CubicForm
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
            f"the suite draws {k} distinct points, the registry has {len(pts)}"
        )


def _skip(res: SuiteResult, trials: int) -> None:
    """Count a skipped draw; a registry where nearly every draw skips is degenerate."""
    res.skips += 1
    if res.skips > _SKIPS_PER_TRIAL * trials:
        raise DegenerateSample(
            f"{res.name}: {res.skips} draws skipped before {trials} trials were made"
        )


def involution_suite(registry: PointRegistry, trials: int, seed: int = 0) -> SuiteResult:
    """x o (x o y) = y whenever x o y != x; tangency at x is the EqualPoints case."""
    rng = random.Random(seed)
    res = SuiteResult("involution")
    surface = registry.surface
    pts = registry.points
    _check_size(pts, 2)
    while res.passes + res.failures < trials:
        x, y = rng.sample(pts, 2)
        try:
            z = secant_compose(surface, x, y)
        except LineOnSurface:
            _skip(res, trials)
            continue
        if z == x:
            # tangent at x: recomposition must be exactly the multivalued case
            try:
                secant_compose(surface, x, z)
                res.failures += 1
            except EqualPoints:
                res.passes += 1
            continue
        try:
            back = secant_compose(surface, x, z)
        except LineOnSurface:
            _skip(res, trials)
            continue
        if back == y:
            res.passes += 1
        else:
            res.failures += 1
    return res


def sextuple_suite(registry: PointRegistry, trials: int, seed: int = 0) -> SuiteResult:
    """(t_x t_{x o y} t_y)^2 = identity, tested pointwise on registry samples."""
    rng = random.Random(seed)
    res = SuiteResult("sextuple relation")
    surface = registry.surface
    pts = registry.points
    _check_size(pts, 3)
    while res.passes + res.failures < trials:
        x, y, z = rng.sample(pts, 3)
        try:
            w = secant_compose(surface, x, y)
            cur = z
            for t in (y, w, x, y, w, x):
                cur = secant_compose(surface, t, cur)
        except (EqualPoints, LineOnSurface):
            _skip(res, trials)
            continue
        if cur == z:
            res.passes += 1
        else:
            res.failures += 1
    return res


def tangent_consistency_suite(
    registry: PointRegistry, trials: int, seed: int = 0
) -> SuiteResult:
    """on_tangent_section(x, y) iff the polar coefficient c1 of (y, x) vanishes."""
    rng = random.Random(seed)
    res = SuiteResult("tangent consistency")
    surface = registry.surface
    pts = registry.points
    _check_size(pts, 2)
    for _ in range(trials):
        x, y = rng.sample(pts, 2)
        rel = on_tangent_section(surface, x, y)
        c1 = polar_coeffs(surface.form, y, x)[1]
        if rel == (c1 == 0):
            res.passes += 1
        else:
            res.failures += 1
    return res


def group_law_suite(
    trials: int, seed: int = 0, p: int = 101, diagonal=(1, 1, 1)
) -> list[SuiteResult]:
    """Identity, commutativity, associativity of x + y = e o (x o y) on a smooth cubic."""
    field = Field(p)
    curve = PlaneCubic(CubicForm.diagonal(diagonal), field)
    pts = [x for x in curve_points(curve) if curve.is_smooth_at(x)]
    rng = random.Random(seed)
    identity = SuiteResult("group identity")
    commut = SuiteResult("group commutativity")
    assoc = SuiteResult("group associativity")
    while identity.passes + identity.failures < trials:
        e, x = rng.sample(pts, 2)
        try:
            s = group_add(curve, e, x, e)
        except CubicError:
            identity.skips += 1
            continue
        if s == x:
            identity.passes += 1
        else:
            identity.failures += 1
    while commut.passes + commut.failures < trials:
        e, x, y = rng.sample(pts, 3)
        try:
            lhs = group_add(curve, e, x, y)
            rhs = group_add(curve, e, y, x)
        except CubicError:
            commut.skips += 1
            continue
        if lhs == rhs:
            commut.passes += 1
        else:
            commut.failures += 1
    while assoc.passes + assoc.failures < trials:
        e, x, y, z = rng.sample(pts, 4)
        try:
            lhs = group_add(curve, e, group_add(curve, e, x, y), z)
            rhs = group_add(curve, e, x, group_add(curve, e, y, z))
        except CubicError:
            assoc.skips += 1
            continue
        if lhs == rhs:
            assoc.passes += 1
        else:
            assoc.failures += 1
    return [identity, commut, assoc]
