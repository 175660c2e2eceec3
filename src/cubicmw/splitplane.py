"""Blow-up model of a split cubic surface and its plane machinery.

Six base points of P^2 in general position span a 4-dimensional space of
cubics; evaluating a basis of that space embeds the complement of the base
locus onto a cubic surface in P^3.  The surface's equation is the one
linear relation among the 20 cubic monomials of P^3 composed with that
basis, found exactly over Q and over every F_p the package accepts; no
point is sampled.  On top of the model: twisted cubics
(preimages of plane lines), the quaternary line-intersection operation,
the section-dependent modified composition, and projective-plane closure.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousKernel,
    BasePoint,
    BasePointResult,
    CoincidentLines,
    DegeneratePosition,
    DegenerateSample,
    DegenerateSeeds,
    DimensionMismatch,
    InvalidBound,
    NotOnSection,
)
from .geometry import (
    CubicForm,
    Field,
    ProjPoint,
    RATIONALS,
    canonical_rows,
    eval_form,
    line_through,
    meet,
    normalize,
)
from .linalg import kernel_basis, rank
from .planecubic import PlaneCubic, cubic_compose


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials of one degree in n variables, lex descending."""
    return sorted(
        (e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree),
        reverse=True,
    )


CUBIC_MONOMIALS_3 = _monomials(3, 3)  # ten, starting (3,0,0), (2,1,0), (2,0,1)
CUBIC_MONOMIALS_4 = _monomials(4, 3)  # twenty

DEFAULT_BASE = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)]


def _monomial_value(coords, expo) -> int:
    v = 1
    for c, e in zip(coords, expo):
        for _ in range(e):
            v *= c
    return v


def _collinear(a: ProjPoint, b: ProjPoint, c: ProjPoint, field: Field) -> bool:
    """Whether three points of P^2 lie on one line: their coordinates have rank < 3."""
    return rank([a.coords, b.coords, c.coords], field) < 3


def check_general_position(pts: list[ProjPoint]) -> tuple[bool, list[str]]:
    """Pairwise distinct, no three collinear, not all six on a conic."""
    report = []
    if len(pts) != 6:
        return False, [f"expected 6 points, got {len(pts)}"]
    field = pts[0].field
    for i, j in itertools.combinations(range(6), 2):
        if pts[i] == pts[j]:
            report.append(f"points {i} and {j} coincide: {pts[i]}")
    for i, j, k in itertools.combinations(range(6), 3):
        if _collinear(pts[i], pts[j], pts[k], field):
            report.append(f"points {i},{j},{k} are collinear")
    m = [[_monomial_value(x.coords, e) for e in _monomials(3, 2)] for x in pts]
    if rank(m, field) < 6:
        report.append("all six points lie on a conic")
    return not report, report


def cubic_system_basis(pts: list[ProjPoint]) -> list[CubicForm]:
    """Canonical basis of the 4-dimensional space of cubics through the six points."""
    field = pts[0].field
    m = [[_monomial_value(x.coords, e) for e in CUBIC_MONOMIALS_3] for x in pts]
    basis = kernel_basis(m, field)
    if len(basis) != 4:
        raise DegeneratePosition(
            f"cubics through the six points form a {len(basis)}-dimensional space"
        )
    return [
        CubicForm(3, dict(zip(CUBIC_MONOMIALS_3, vec))) for vec in basis
    ]


@dataclass
class BlowupModel:
    """Six base points, the cubic system through them, and the image surface."""

    field: Field
    base: list[ProjPoint]
    cubics: list[CubicForm]
    surface: CubicForm

    @classmethod
    def build(cls, base_raw=None, field: Field = RATIONALS) -> "BlowupModel":
        base_raw = base_raw if base_raw is not None else DEFAULT_BASE
        base = [normalize(b, field) for b in base_raw]
        if any(b.dim != 3 for b in base):
            raise DimensionMismatch("base points must lie in P^2")
        ok, report = check_general_position(base)
        if not ok:
            raise DegeneratePosition("; ".join(report))
        cubics = cubic_system_basis(base)
        return cls(field, base, cubics, recover_cubic_equation(cubics, field))

    def is_base(self, q: ProjPoint) -> bool:
        return q in self.base


def embed(model: BlowupModel, q: ProjPoint) -> ProjPoint:
    """Image of a plane point under the cubic system, a point of P^3."""
    vals = [eval_form(f, q) for f in model.cubics]
    if not any(vals):
        raise BasePoint(f"{q} is a base point of the cubic system")
    return normalize(vals, model.field)


def _product(f: dict, g: dict) -> dict:
    """Product of two forms stored as {exponent tuple: integer coefficient}."""
    out: dict[tuple[int, ...], int] = {}
    for ea, a in f.items():
        for eb, b in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + a * b
    return out


def recover_cubic_equation(cubics: list[CubicForm], field: Field) -> CubicForm:
    """The quaternary cubic F with F(f0, f1, f2, f3) = 0 for the cubic system f.

    Each of the 20 cubic monomials in four variables, composed with f, is a
    plane form of degree 9 with integer coefficients.  The image surface's
    equation spans the kernel of the 55 x 20 matrix of those coefficients
    (reduced mod p over F_p), and `kernel_basis` gives its canonical vector.
    """
    columns = []
    for expo in CUBIC_MONOMIALS_4:
        form = {(0, 0, 0): 1}
        for f, e in zip(cubics, expo):
            for _ in range(e):
                form = _product(form, f.coeffs)
        columns.append(form)
    m = [[form.get(r, 0) for form in columns] for r in _monomials(3, 9)]
    basis = kernel_basis(m, field)
    if len(basis) != 1:
        raise AmbiguousKernel(
            f"the cubics vanishing on the image form a {len(basis)}-dimensional space"
        )
    return CubicForm(4, dict(zip(CUBIC_MONOMIALS_4, basis[0])))


def quaternary_star(
    model: BlowupModel, a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint
) -> ProjPoint:
    """Intersection of the twisted cubics through (a,b) and (c,d), via plane lines."""
    l1 = line_through(a, b)
    l2 = line_through(c, d)
    if l1 == l2:
        raise CoincidentLines("the four points span a single line")
    x = meet(l1, l2)
    if model.is_base(x):
        raise BasePointResult(f"{x} is blown down; the twisted cubics meet a common line")
    return x


def pullback_cubic(model: BlowupModel, section: ProjPoint) -> PlaneCubic:
    """The plane cubic cut out by a plane of P^3 (dual coordinates), pulled back."""
    if section.dim != 4:
        raise DimensionMismatch(f"a plane of P^3 has 4 dual coordinates, got {section}")
    coeffs: dict[tuple[int, int, int], int] = {}
    for lam, f in zip(section.coords, model.cubics):
        if lam == 0:
            continue
        for expo, c in f.coeffs.items():
            coeffs[expo] = coeffs.get(expo, 0) + lam * c
    p = model.field.p
    if p is not None:
        coeffs = {e: c % p for e, c in coeffs.items()}
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        raise NotOnSection("hyperplane pulls back to the zero form")
    return PlaneCubic(CubicForm(3, coeffs), model.field)


def modified_compose(
    model: BlowupModel, section: ProjPoint, x: ProjPoint, y: ProjPoint
) -> ProjPoint:
    """Composition of x, y inside the plane cubic pulled back from the section."""
    curve = pullback_cubic(model, section)
    if not curve.contains(x) or not curve.contains(y):
        raise NotOnSection(f"{x} or {y} is not on the section")
    z = cubic_compose(curve, x, y)
    if model.is_base(z):
        raise BasePointResult(f"composition lands on the base point {z}")
    return z


def section_through(model: BlowupModel, pts3: list[ProjPoint]) -> ProjPoint:
    """The plane of P^3 through three embedded points; unique in the generic case."""
    m = [list(x.coords) for x in pts3]
    basis = kernel_basis(m, model.field)
    if len(basis) != 1:
        raise DegenerateSample("the three embedded points are collinear in P^3")
    return normalize(basis[0], model.field)


def verify_claim1(
    model: BlowupModel, a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint
) -> bool:
    """Check that the quaternary operation agrees with a modified composition.

    Computes x = *(a,b;c,d), takes the plane section through the embedded
    a, b, x and compares the modified composition of a, b against x.
    """
    x = quaternary_star(model, a, b, c, d)
    if x == a or x == b:
        raise DegenerateSample("the star value coincides with an operand")
    section = section_through(model, [embed(model, q) for q in (a, b, x)])
    return modified_compose(model, section, a, b) == x


# pairs per numpy step: a (pairs, 3) int64 block stays below malloc's 128 KB mmap
# threshold, so blocks reuse heap memory and the closure leaves peak RSS flat
_BLOCK_PAIRS = 1 << 12


class _Codec:
    """Points and lines of P^2 as ints: the canonical row (x, y, z) has code (x*r + y+b)*r + z+b.

    Over F_p a row is canonical with lead 1 mod p, and r = p, b = 0.  Over Q
    (p None) it is primitive with a positive lead, as `normalize` makes it; a
    line through two points under the cap has entries of size at most
    b = 2 cap^2, and r = 2b + 1.  Codes stay below (lead + 1) r^2, so codes and
    rows are int64 when that fits (always over F_p, where p < 2^31), and
    object arrays of Python ints otherwise.

    The candidates of a closure are every point of P^2 over F_p and every
    point under the cap over Q.  `cross` meets or joins pairs of items;
    `meets` reads the meets of the known lines off the candidates instead.
    """

    def __init__(self, p: int | None, cap: int | None):
        self.p = p
        self.cap = cap
        self.b = 0 if p is not None else 2 * cap * cap
        self.r = p if p is not None else 2 * self.b + 1
        lead = 1 if p is not None else self.b  # the largest lead of a canonical row
        self.dtype = np.int64 if (lead + 1) * self.r ** 2 <= 1 << 63 else object

    @property
    def listed(self) -> int:
        """A bound on the number of candidates, found without listing them."""
        p = self.p
        return p * p + p + 1 if p is not None else ((2 * self.cap + 1) ** 3 - 1) // 2

    def code(self, v: np.ndarray) -> np.ndarray:
        """The codes of canonical rows."""
        r, b = self.r, self.b
        return (v[:, 0] * r + v[:, 1] + b) * r + v[:, 2] + b

    def encode(self, raw: np.ndarray, cap: int | None = None) -> np.ndarray:
        """Codes of the canonical forms of the rows of raw, none zero, dropping those above cap."""
        v, _ = canonical_rows(raw, self.p)
        if cap is not None:
            v = v[np.abs(v).max(axis=1) <= cap]
        return self.code(v)

    @functools.cached_property
    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical int64 rows of the candidates, and their codes."""
        p, c = self.p, self.cap
        # canonical rows lie in {0, 1} x [0, p)^2 over F_p, in [-c, c]^3 over Q
        box = (2, p, p) if p is not None else (2 * c + 1,) * 3
        v = np.indices(box, dtype=np.int64).reshape(3, -1).T - (c if p is None else 0)
        w, nonzero = canonical_rows(v, p)
        v = v[nonzero & (w == v).all(axis=1)]
        return v, self.code(v)

    def rows(self, codes: list[int]) -> np.ndarray:
        """The canonical rows of the codes; the inverse of encode."""
        r, b = self.r, self.b
        c = np.array(codes, dtype=self.dtype)
        rest = c // r
        return np.stack([rest // r, rest % r - b, c % r - b], axis=1)

    def cross(self, items: list[int], start: int, cap: int | None = None) -> set[int]:
        """Codes of a x b over the pairs of items that hold a member of items[start:].

        A block pairs a run of rows i >= start with the columns j < i, about
        _BLOCK_PAIRS pairs and never more than one row when a row alone is
        longer.  The codes are distinct, so no pair is proportional and no
        cross product vanishes.  A line and a point of P^2 share this encoding.
        """
        vecs = self.rows(items)
        n = len(vecs)
        rows = max(1, _BLOCK_PAIRS // n)
        found: set[int] = set()
        for i0 in range(start, n, rows):
            i1 = min(i0 + rows, n)
            c = np.cross(vecs[i0:i1, None], vecs[None, :i1])
            found.update(self.encode(c[np.arange(i1) < np.arange(i0, i1)[:, None]], cap).tolist())
        return found

    def meets(self, known: list[int]) -> set[int]:
        """Codes of the candidates outside known that lie on two lines through two known points.

        Two distinct lines meet in exactly one point, so a candidate q is a
        meet of two such lines exactly when the lines from q to the known
        points, sorted, hold two runs of length two or more.  No line is kept,
        so no join step is needed.  A block crosses a run of candidates with every known point, about
        _BLOCK_PAIRS pairs and never less than one candidate.
        """
        cands, codes = self.candidates
        new = ~np.isin(codes, known)
        cands, codes = cands[new], codes[new]
        vecs = self.rows(known)
        n = len(vecs)
        rows = max(1, _BLOCK_PAIRS // n)
        hit = np.zeros(len(cands), dtype=bool)
        for k0 in range(0, len(cands), rows):
            c = np.cross(cands[k0:k0 + rows, None], vecs[None])
            lines = np.sort(self.encode(c.reshape(-1, 3)).reshape(len(c), n), axis=1)
            same = lines[:, 1:] == lines[:, :-1]  # runs of two or more start where same turns on
            hit[k0:k0 + rows] = same[:, 0] + (same[:, 1:] > same[:, :-1]).sum(axis=1) >= 2
        return set(codes[hit].tolist())


def plane_closure(
    field: Field,
    seeds: list[ProjPoint],
    height_cap: int | None = None,
    max_generations: int | None = None,
) -> tuple[set[ProjPoint], int]:
    """Closure of the seeds under pairwise line intersections.

    Rounds start semi-naive (Bancilhon & Ramakrishnan, SIGMOD 1986):
    generation g+1 joins only the point pairs that contain a point new in
    generation g, and meets only the line pairs that contain a line new in
    that round, in numpy blocks of about _BLOCK_PAIRS pairs that do not grow
    with p.  Points and lines are int codes (`_Codec`).  Once, before its
    joins, a round would meet more line pairs (about joins^2 / 2) than there
    are candidates times known points, every later round counts the known
    lines through each candidate instead (`_Codec.meets`), and keeps no
    lines.  Both find the points off the known ones that lie on two known
    lines, so the switch does not change the result; where the candidates
    cannot be listed (p = 2^31 - 1, large caps) the rounds stay pairwise.
    Over a prime field this runs to an exact fixpoint.  Over Q a height cap
    is required (and only allowed there): meets above the cap are discarded,
    the closure is a bounded portion of the true (infinite) closure, and
    `max_generations` bounds the search.  A generation counts only when it
    adds a point.  Returns (points, generations).
    """
    if len(seeds) < 4:
        raise DegenerateSeeds("need at least four seed points")
    if any(s.dim != 3 for s in seeds):
        raise DimensionMismatch("plane closure needs points of P^2")
    if any(s.field != field for s in seeds):
        raise DimensionMismatch(f"plane closure over {field} needs seeds over {field}")
    for i, j, k in itertools.combinations(range(4), 3):
        if _collinear(seeds[i], seeds[j], seeds[k], field):
            raise DegenerateSeeds(f"seeds {i},{j},{k} are collinear")
    if max_generations is not None and max_generations < 0:
        raise InvalidBound(f"max_generations must be >= 0, got {max_generations}")
    if field.p is not None:
        if height_cap is not None:
            raise InvalidBound(f"a height cap applies only over Q, not over {field}")
    else:
        if height_cap is None:
            raise DegenerateSeeds("a height cap is required over Q")
        if height_cap < 1:
            raise InvalidBound(f"height cap must be >= 1, got {height_cap}")
        for s in seeds:
            if max(abs(c) for c in s.coords) > height_cap:
                raise DegenerateSeeds(f"seed {s} is above the height cap {height_cap}")
    codec = _Codec(field.p, height_cap)
    seed_rows = np.array([s.coords for s in seeds], dtype=codec.dtype)
    points = dict.fromkeys(codec.encode(seed_rows).tolist())
    lines: dict[int, None] = {}
    counting = False
    start = 0  # points[start:] are new in the last generation
    generation = 0
    while max_generations is None or generation < max_generations:
        n = len(points)
        joins = (n - start) * (n + start - 1) // 2
        counting = counting or 2 * codec.listed * n < joins * joins
        if counting:
            found = codec.meets(list(points))
        else:
            # join the point pairs that hold a new point, then meet the line pairs that hold a new line
            known = len(lines)
            lines.update(dict.fromkeys(codec.cross(list(points), start)))
            found = codec.cross(list(lines), known, height_cap).difference(points)
        if not found:
            break
        start = n
        points.update(dict.fromkeys(found))
        generation += 1
    return {ProjPoint(tuple(r), field) for r in codec.rows(list(points)).tolist()}, generation
