"""Randomized pointwise verification suites for the composition identities.

Each suite draws seeded random configurations, skips the ones where some
intermediate composition is undefined, and counts failures.  Skips are
reported, never hidden.

The registry suites check their draws in batches of at most `_BATCH`.  A
batch's draws come in bulk from the rng's word stream (`sample_rows`),
exactly the indices, and the rng state, that `random.sample` would give
one draw at a time.  The registry's points and gradients are rows of
`point_rows`, int64 while no composition of two of them can wrap, so the
first compositions of a draw run on int64 rows with the gradients looked
up; every composed point is an object row of Python ints, so the later
steps stay exact.  The tangent suite evaluates F at the rows y + x and
y − x, which `eval_rows` keeps int64 while no value can reach 2^63.  A
batch never holds more draws than trials are missing, and its outcomes
are counted in draw order, so every count, and the draw at which the
skip budget runs out, is the same as when each draw is checked on its
own.  The group law runs through the same loop over F_p: its points are
int64 rows of residues mod p, composed row by row with the same
`compose_rows`, given p, into canonical rows.

The sextuple suite checks (t_x t_w t_y)² = 1, w = x o y, as
t_x t_w t_y z = t_y t_w t_x z on both sides at once; a draw whose sides do
not agree with c1 ≠ 0 at each step of the second (grad F(x)·z, grad F(w)·b1,
grad F(y)·b2) is settled by the six-step chain continued from the first
(see `sextuple_suite`).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .enumeration import PointRegistry
from .errors import CubicError, DegenerateSample
from .geometry import (
    CubicForm,
    Field,
    ProjPoint,
    canonical_rows,
    dot_rows,
    eval_rows,
    gradient_rows,
)
from .planecubic import PlaneCubic, _tangent_value, curve_rows
# bench/workload.py counts calls of relations.secant_compose; the batched
# compositions of the registry suites are not such calls
from .surface import (
    compose_rows,
    point_rows,
    secant_compose,  # noqa: F401
    third_rows,
)

# Draws checked at once; it bounds the size, and so the memory, of a batch's
# arrays.  Larger batches spread numpy's cost per call over more draws; past
# 512 big-integer rows cost more memory than they save time.  The sextuple
# suite stacks two sides, so it takes _BATCH // 2 draws at a time: 512 raised
# its VmHWM at H=1100 by about 0.45 MB, for 4% less time.
_BATCH = 512

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

    draw(m) gives m draws as the rows of an array; check maps them to one
    outcome per draw, in order: True for a pass, False for a failure and
    None for a skip.  A round draws no more than the trials still missing,
    so the rng gives the draws a loop over single draws would get.
    """
    res = SuiteResult(name)
    while (done := res.passes + res.failures) < trials:
        for outcome in check(draw(min(_BATCH, trials - done))):
            if outcome is None:
                _skip(res, trials)
            elif outcome:
                res.passes += 1
            else:
                res.failures += 1
    return res


def sample_rows(rng: random.Random, n: int, k: int, m: int) -> np.ndarray:
    """`[rng.sample(range(n), k) for _ in range(m)]` as an (m, k) int64 array.

    rng ends in the state that loop leaves it in.  For n > 21 and k <= 5,
    `sample` draws each value as `getrandbits(b)`, b = n.bit_length(), again
    while it is n or more or already picked.  For b <= 32 that value is the
    top b bits of one 32-bit word of the generator, and `getrandbits(32·w)`
    is the next w words, the first in the lowest bits.  So the rows are read
    off one chunk of words: the values below n, cut into rows of k, up to
    the first row with a repeat, which is redrawn one value at a time.  The
    rng is then wound back and moved on by the words used.  Other n and k,
    and subclasses of Random, run the loop.
    """
    b = n.bit_length()
    if not (n > 21 and 0 < k <= 5 and b <= 32 and type(rng) is random.Random):
        rows = [rng.sample(range(n), k) for _ in range(m)]
        return np.array(rows, dtype=np.int64).reshape(m, k)
    rows = np.empty((m, k), dtype=np.int64)
    done = 0
    while done < m:
        state = rng.getstate()
        w = 2 * k * (m - done) + 16
        words = np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w, "little"), "<u4")
        values = words >> (32 - b)
        pos = np.flatnonzero(values < n)
        got, used = _fill_rows(values[pos], rows[done:])
        rng.setstate(state)
        if got:
            rng.getrandbits(32 * (int(pos[used - 1]) + 1))
        else:  # no whole row in the chunk
            rows[done], got = rng.sample(range(n), k), 1
        done += got
    return rows


def _fill_rows(values, out) -> tuple[int, int]:
    """Fill rows of out from the values `sample` accepts, in order, as it picks them.

    Returns the number of rows filled, each a whole row, and of values used.
    """
    k = out.shape[1]
    r = i = 0
    while r < len(out):
        R = values[i : i + (len(values) - i) // k * k].reshape(-1, k)[: len(out) - r]
        s = np.sort(R, axis=1)
        repeats = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        good = int(repeats[0]) if len(repeats) else len(R)
        out[r : r + good] = R[:good]
        r, i = r + good, i + good * k
        if good == len(R):
            break
        row, j = [], i  # the row with a repeat: `sample` skips a picked value
        while len(row) < k and j < len(values):
            if values[j] not in row:
                row.append(values[j])
            j += 1
        if len(row) < k:
            break
        out[r], r, i = row, r + 1, j
    return r, i


def _outcomes(defined, holds) -> list:
    """None where a draw's compositions are undefined, else whether it holds."""
    return np.where(defined, holds, None).tolist()


def _registry_draws(registry: PointRegistry, k: int, seed: int):
    """The registry's `point_rows` P and G, and draw(m), m draws of k row indices.

    A draw holds the indices `random.sample` picks from the points.
    """
    _check_size(registry.points, k)
    P, G = point_rows(registry.surface.form, registry.points)
    return P, G, functools.partial(sample_rows, random.Random(seed), len(P), k)


def involution_suite(registry: PointRegistry, trials: int, seed: int = 0) -> SuiteResult:
    """x o (x o y) = y, or x o y = x when y lies on the tangent section at x."""
    form = registry.surface.form
    P, G, draw = _registry_draws(registry, 2, seed)

    def check(draws):
        x, y = draws.T
        X, Y, GX = P[x], P[y], G[x]
        Z, defined = compose_rows(form, X, Y, GX, G[y])
        fixed = (Z == X).all(axis=1)
        back, ok = compose_rows(form, X, Z, GX)
        # as in `z == x or x o z == y`: x o z counts only where z != x
        return _outcomes(defined & (fixed | ok), fixed | (back == Y).all(axis=1))

    return _run("involution", trials, draw, check)


def _proportional(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Whether each row pair of U and V is nonzero and proportional: v_k·U = u_k·V
    and v_k ≠ 0, k the first nonzero column of U's row."""
    r = np.arange(len(U))
    k = (U != 0).argmax(axis=1)
    u, v = U[r, k], V[r, k]
    return (u != 0) & (v != 0) & (V * u[:, None] == U * v[:, None]).all(axis=1)


def _chain_outcomes(form, S, steps, Z) -> list:
    """Outcomes of the chain S = T o S over steps' (T, GT), compared with Z."""
    for T, GT in steps:
        S = third_rows(form, T, S, GT)[0]
    V, defined = canonical_rows(S)
    return _outcomes(defined, (V == Z).all(axis=1))


def sextuple_suite(registry: PointRegistry, trials: int, seed: int = 0) -> SuiteResult:
    """(t_x t_{x o y} t_y)^2 = identity, tested pointwise on registry samples.

    With w = x o y and t_v(u) = v o u, each t an involution, the relation
    says A = B for A = x o (w o (y o z)) and B = y o (w o (x o z)).  Both
    sides run as `third_rows`, stacked into 2m rows; the inner steps divide
    by gcd(c1, c2), the last, compared only up to scale, does not.  A draw
    passes when A and b3, B's last row, are nonzero and proportional and
    each of B's steps has c1 ≠ 0: grad F(x)·z, grad F(w)·b1, grad F(y)·b2
    (c1 = 0 exactly where a step's value is its left operand or undefined).
    Then the six-step chain is defined and ends at z: the line through y and
    b3 is the line through y and b2, not on the surface, so y o b3 = b2;
    likewise w o b2 = b1 and x o b1 = z.  Conversely every draw whose chain
    ends at z passes so.  A zero A, where the chain's first three steps
    fail, is a skip; any other draw continues the chain from A through t_y,
    t_w and t_x and compares its canonical last row with z, which tells a
    skip from a failure.
    """
    form = registry.surface.form
    P, G, draw = _registry_draws(registry, 3, seed)

    def check(draws):
        m = len(draws)
        x, y, z = draws.T
        W = third_rows(form, P[x], P[y], G[x], G[y])[0]
        GW = gradient_rows(form, W)
        # rows :m hold side A, rows m: side B
        xy, yx, zz = np.concatenate([x, y]), np.concatenate([y, x]), np.concatenate([z, z])
        S, c1 = third_rows(form, P[yx], P[zz], G[yx], G[zz])
        moved = c1[m:] != 0
        S, c1 = third_rows(form, np.concatenate([W, W]), S, np.concatenate([GW, GW]))
        moved &= c1[m:] != 0
        S, c1 = third_rows(form, P[xy], S, G[xy], divide=False)
        moved &= c1[m:] != 0
        A = S[:m]
        passed = _proportional(A, S[m:]) & moved
        out = np.where(passed, True, None)
        rest = np.flatnonzero(~passed & (A != 0).any(axis=1))
        if len(rest):
            x, y, z = x[rest], y[rest], z[rest]
            steps = ((P[y], G[y]), (W[rest], GW[rest]), (P[x], G[x]))
            out[rest] = _chain_outcomes(form, A[rest], steps, P[z])
        return out.tolist()

    def half_batch(m):
        return draw(min(m, max(1, _BATCH // 2)))

    return _run("sextuple relation", trials, half_batch, check)


def tangent_consistency_suite(
    registry: PointRegistry, trials: int, seed: int = 0
) -> SuiteResult:
    """F(y + x) − F(y − x) = 2·grad F(y)·x for distinct points x, y of the surface.

    On the line through y and x, F(y + t·x) = t·(grad F(y)·x) + t²·(grad F(x)·y)
    since F(x) = F(y) = 0, and its values at t = ±1 differ by twice the
    first coefficient.  So the left side is zero exactly where x lies on
    the tangent section at y, as in `on_tangent_section`, and it uses only
    F's values, not the gradient code of the right side.  The values are
    compared exactly.
    """
    form = registry.surface.form
    P, G, draw = _registry_draws(registry, 2, seed)

    def check(draws):
        x, y = draws.T
        X, Y = P[x], P[y]
        diff = eval_rows(form, Y + X) - eval_rows(form, Y - X)
        return (diff == 2 * dot_rows(G[y], X)).tolist()

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
    form = curve.form
    P = curve_rows(curve)
    G = gradient_rows(form, P, p)
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
        W, ok = compose_rows(form, X, Y, GX, GY, p)
        S, defined = compose_rows(form, P[e], W, G[e], p=p)
        for r in np.flatnonzero(ok & (W == P[e]).all(axis=1)):
            value = e_o_e(e[r])
            if value is not None:
                S[r], defined[r] = value, True
        return S, ok & defined

    def identity(draws):
        e, x = draws.T
        S, ok = add(e, P[x], P[e], G[x], G[e])
        return _outcomes(ok, (S == P[x]).all(axis=1))

    def commutativity(draws):
        e, x, y = draws.T
        A, ok = add(e, P[x], P[y], G[x], G[y])
        B, ok_b = add(e, P[y], P[x], G[y], G[x])
        return _outcomes(ok & ok_b, (A == B).all(axis=1))

    def associativity(draws):
        e, x, y, z = draws.T
        XY, ok = add(e, P[x], P[y], G[x], G[y])
        YZ, ok_yz = add(e, P[y], P[z], G[y], G[z])
        L, ok_l = add(e, XY, P[z], GY=G[z])
        R, ok_r = add(e, P[x], YZ, G[x])
        return _outcomes(ok & ok_yz & ok_l & ok_r, (L == R).all(axis=1))

    def draw(k):
        return functools.partial(sample_rows, rng, len(P), k)

    return [
        _run("group identity", trials, draw(2), identity),
        _run("group commutativity", trials, draw(3), commutativity),
        _run("group associativity", trials, draw(4), associativity),
    ]
