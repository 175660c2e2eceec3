"""End-to-end acceptance gate.

Each test checks one headline claim of the experiment at its stated
tolerance and prints a single PASS/FAIL line (visible with `pytest -s`).
Thresholds are hard-coded on purpose: they are the contract.
"""

import json
import random

import pytest

from cubicmw import (
    BlowupModel,
    Field,
    RATIONALS,
    brute_force_oracle,
    build_report,
    build_table,
    enumerate_points,
    normalize,
    on_tangent_section,
    plane_closure,
    save_registry,
    strong_decompositions,
    verify_claim1,
)
from cubicmw.errors import CubicError
from cubicmw.relations import group_law_suite, involution_suite, sextuple_suite

ZAGIER = (1, 2, 3, 4)
H = 1100


def _verdict(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_point_count(registry_1100):
    n = len(registry_1100)
    _verdict("point count at height 1100 is 379", n == 379, f"found {n}")


@pytest.mark.parametrize("coeff", [ZAGIER, (1, 1, 1, 1)])
@pytest.mark.parametrize("bound", [10, 60, 120])
def test_criterion_02_oracle_equivalence(coeff, bound):
    fast = [p.coords for p in enumerate_points(coeff, bound).points]
    slow = [p.coords for p in brute_force_oracle(coeff, bound).points]
    _verdict(
        f"oracle equivalence for {coeff} at height {bound}",
        fast == slow,
        f"{len(fast)} vs {len(slow)} points",
    )


def test_criterion_03_strong_count(report_1100):
    # The target value 339 could not be reproduced: the whole table gives 336
    # under rank <, height < and height <= input orderings, and 338 with
    # tangent rows from any point (README, "Tests").  Kept at the stated
    # target rather than weakened.
    n = len(report_1100.strong)
    _verdict("strongly decomposable points number 339", n == 339, f"found {n}")


def test_criterion_04_specific_relations(registry_1100, table_1100):
    # The fourth expected decomposition pairs this point with (31,4,-13,-18),
    # which ties at height 66 and sorts after it lexicographically, so it is
    # not rank-earlier here; only 3 strong pairs exist under this ordering,
    # and all four under height <= (README, "Tests").  Kept at the stated target.
    x = registry_1100.index[(1, 28, -19, -18)]
    y = registry_1100.index[(1, 1, -1, 0)]
    tangent_ok = on_tangent_section(
        registry_1100.surface, registry_1100.point(x), registry_1100.point(y)
    )
    pairs = strong_decompositions(table_1100).get(x, [])
    tangent_pairs = [p for p in pairs if p[0] == p[1]]
    ok = tangent_ok and len(pairs) >= 4 and len(tangent_pairs) >= 2
    _verdict(
        "relations of (1,28,-19,-18): tangent at (1,1,-1,0), >=4 strong, >=2 tangent",
        ok,
        f"tangent={tangent_ok}, strong={len(pairs)}, tangent_pairs={len(tangent_pairs)}",
    )


def test_criterion_05_named_generators(registry_1100, report_1100):
    # (15,-37,5,29) is targeted as indecomposable but admits a verified weak
    # decomposition with all leaves of smaller rank; `decompose --profile`
    # gives its cap, 1089.  Kept at the stated target rather than weakened.
    gens = set(report_1100.generator_ranks)
    targets = [(1, 0, 1, -1), (1, 1, -1, 0), (1, -1, -1, 1), (15, -37, 5, 29)]
    missing = [t for t in targets if registry_1100.index[t] not in gens]
    _verdict(
        "named indecomposable points are generators",
        not missing,
        f"missing {missing}" if missing else "all present",
    )


def test_criterion_06_weak_closure_bounds(registry_1100, report_1100):
    non_strong = len(registry_1100) - len(report_1100.strong)
    weak = len(report_1100.weak_witnesses)
    gens = len(report_1100.generator_ranks)
    ok = weak >= 24 and gens <= 16
    _verdict(
        "weak closure: >=24 weakly decomposable among non-strong, <=16 generators",
        ok,
        f"non_strong={non_strong}, weak={weak}, generators={gens}",
    )


def test_criterion_07_pointwise_suites(registry_1100):
    inv = involution_suite(registry_1100, 10_000, seed=1)
    sext = sextuple_suite(registry_1100, 10_000, seed=2)
    for r in (inv, sext):
        total = r.passes + r.failures + r.skips
        print(f"  {r}; skip rate {r.skips / total:.4f}")
    _verdict(
        "involution and sextuple suites: 10^4 configurations each, 0 failures",
        inv.ok and sext.ok,
        f"involution failures={inv.failures}, sextuple failures={sext.failures}",
    )


def test_criterion_08_group_law():
    results = group_law_suite(100, seed=3)
    for r in results:
        print(f"  {r}")
    _verdict(
        "plane-cubic group law: identity, commutativity, associativity on 100 configs",
        all(r.ok for r in results),
    )


def _random_plane_points(model, rng, n):
    p = model.field.p
    pts = []
    while len(pts) < n:
        if p is None:
            q = normalize((1, rng.randint(-5, 5), rng.randint(-5, 5)))
        else:
            q = normalize((1, rng.randrange(p), rng.randrange(p)), model.field)
        if not model.is_base(q):
            pts.append(q)
    return pts


def _claim1_run(model, trials, rng):
    good = 0
    while good < trials:
        pts = _random_plane_points(model, rng, 4)
        if len(set(pts)) < 4:
            continue
        try:
            agrees = verify_claim1(model, *pts)
        except CubicError:
            continue
        if not agrees:
            return good, False
        good += 1
    return good, True


def test_criterion_09_quaternary_agreement():
    model_p = BlowupModel.build(field=Field(101))
    model_q = BlowupModel.build()
    np_, ok_p = _claim1_run(model_p, 100, random.Random(4))
    nq, ok_q = _claim1_run(model_q, 20, random.Random(5))
    _verdict(
        "quaternary operation matches modified composition: 100/100 F101, 20/20 Q",
        ok_p and ok_q,
        f"F101 {np_}/100 agreed, Q {nq}/20 agreed",
    )


def test_criterion_10_plane_closure_counts():
    seeds_raw = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    bad = []
    for p in (2, 3, 5, 7, 11, 13):
        field = Field(p)
        pts, _ = plane_closure(field, [normalize(v, field) for v in seeds_raw])
        if len(pts) != p * p + p + 1:
            bad.append((p, len(pts)))
    _verdict(
        "plane closure reaches p^2+p+1 points for p in {2,3,5,7,11,13}",
        not bad,
        f"mismatches {bad}" if bad else "all exact",
    )


def test_criterion_11_determinism(tmp_path):
    artifacts = []
    for threads in (1, 4):
        reg = enumerate_points(ZAGIER, H, threads=threads)
        pts_path = tmp_path / f"pts_{threads}.txt"
        save_registry(reg, pts_path)
        report = build_report(build_table(reg))
        rep_path = tmp_path / f"report_{threads}.json"
        rep_path.write_text(json.dumps(report.to_json_dict(), indent=1) + "\n")
        artifacts.append((pts_path.read_bytes(), rep_path.read_bytes()))
    _verdict(
        "point list and decomposition report byte-identical across thread counts",
        artifacts[0] == artifacts[1],
    )
