"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs the program at reduced size (zagier at H=400, the identities at F_7),
confirms that the checks accept its outputs, then feeds them deliberately
corrupted copies and confirms that each corruption is caught: a dropped
point, a point off the surface, a wrong strong pair, a witness leaf of too
high a rank and a plane closure one point short.  It also confirms that the
two reference enumerations agree with each other and that the reference
composition reproduces a known value.  Exits 1 if anything is missed.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import checks
import reference as ref
import run

OP = checks.OP


def render(tree) -> str:
    def sub(t):
        return str(t) if isinstance(t, int) else "(" + top(t) + ")"

    def top(t):
        return f"{sub(t[0])}{OP}{sub(t[1])}"

    return str(tree) if isinstance(tree, int) else top(tree)


def replace_first_leaf(tree, rank):
    if isinstance(tree, int):
        return rank
    return (replace_first_leaf(tree[0], rank), tree[1])


def main() -> int:
    failures = []

    def expect(label, errors, caught: bool):
        if bool(errors) == caught:
            detail = f": {errors[0]}" if errors else ""
            print(f"ok   {label}{detail}")
        else:
            failures.append(label)
            print(f"FAIL {label}: {errors if errors else 'not detected'}")

    # the reference methods against each other and against a known composition
    for coeffs in ((1, 2, 3, 4), (1, 1, 1, 1)):
        same = ref.enumerate_hash_join(coeffs, 40) == ref.enumerate_brute(coeffs, 40)
        expect(f"hash join equals brute force at H=40 for {coeffs}", [] if same else ["differ"], False)
    z = ref.third_point((1, 2, 3, 4), (1, 0, 1, -1), (1, 1, -1, 0))
    expect("(1,0,1,-1) o (1,1,-1,0) = (3,1,1,-2)", [] if z == (3, 1, 1, -2) else [str(z)], False)

    work = run.BENCH / "work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = dict(run.SPECS["zagier-1100"], **run.QUICK["zagier-1100"])
        rec = run.run_child(spec, 1, work / "zagier", None)
        coeffs, bound = tuple(spec["coeffs"]), spec["height"]
        header, points = checks.read_points_file(rec["outputs"]["points"])
        with open(rec["outputs"]["report"]) as fh:
            report = json.load(fh)
        expected = ref.enumerate_hash_join(coeffs, bound)
        table = ref.Table(coeffs, expected)

        expect("program points accepted", checks.check_points(header, points, coeffs, bound, expected), False)
        expect("program report accepted", checks.check_report(report, table), False)

        expect("dropped point", checks.check_points(header, points[:5] + points[6:], coeffs, bound, expected), True)
        off = list(points)
        x = off[7]
        off[7] = x[:3] + (x[3] + 1,)
        expect("point off the surface", checks.check_points(header, off, coeffs, bound, expected), True)

        bad = copy.deepcopy(report)
        k = max(int(r) for r in bad["strong"])
        valid = {tuple(p) for p in bad["strong"][str(k)]}
        i = bad["strong"][str(k)][0][0]
        j = next(j for j in range(1, k) if j != i and (min(i, j), max(i, j)) not in valid)
        bad["strong"][str(k)][0] = [min(i, j), max(i, j)]
        expect(f"wrong strong pair ({i},{j}) for rank {k}", checks.check_report(bad, table), True)

        bad = copy.deepcopy(report)
        k, text = next(iter(bad["weak_witnesses"].items()))
        bad["weak_witnesses"][k] = render(replace_first_leaf(ref.parse_scheme(text, OP), int(k)))
        expect(f"witness leaf of too high a rank ({bad['weak_witnesses'][k]} for {k})",
               checks.check_report(bad, table), True)

        spec = dict(run.SPECS["identities"], **run.QUICK["identities"])
        spec["points_file"] = str(work / "registry.txt")
        run.write_points(work / "registry.txt", spec["coeffs"], spec["height"],
                         ref.enumerate_hash_join(spec["coeffs"], spec["height"]))
        rec = run.run_child(spec, 1, work / "identities", None)
        outputs = rec["outputs"]
        expect("program identities accepted", checks.check_identities(spec, outputs), False)
        short = copy.deepcopy(outputs)
        short["closure"]["points"].pop()
        expect("plane closure one point short", checks.check_identities(spec, short), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{len(failures)} of the self-test's expectations failed" if failures else "all corruptions caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
