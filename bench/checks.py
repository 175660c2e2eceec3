"""Checks of the program's outputs against the computations in reference.py.

Each check returns a list of error strings; an empty list means the output
passed.  No check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json

import reference as ref

OP = "∘"


def read_points_file(path):
    """(header dict, list of coordinate tuples) from a points file."""
    header: dict[str, str] = {}
    points = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
                continue
            points.append(tuple(int(tok) for tok in line.split()))
    return header, points


def check_points(header, points, coeffs, bound, expected) -> list[str]:
    """A points file against its config and the independent enumeration."""
    errors = []
    if header.get("coeffs") != " ".join(str(c) for c in coeffs):
        errors.append(f"coeffs header {header.get('coeffs')!r}, expected {coeffs}")
    if header.get("height") != str(bound):
        errors.append(f"height header {header.get('height')!r}, expected {bound}")
    for n, x in enumerate(points, start=1):
        if len(x) != 4:
            errors.append(f"point {n}: {len(x)} coordinates")
            continue
        if ref.form_value(coeffs, x) != 0:
            errors.append(f"point {n} {x} is not on the surface")
        if not ref.is_normalized(x):
            errors.append(f"point {n} {x} is not primitive and sign-normalized")
        if ref.height(x) > bound:
            errors.append(f"point {n} {x} has height {ref.height(x)} > {bound}")
        if n > 1 and not ref.order_key(points[n - 2]) < ref.order_key(x):
            errors.append(f"point {n} {x} is out of (height, lex) order or repeated")
    if points != expected:
        missing = set(expected) - set(points)
        extra = set(points) - set(expected)
        errors.append(
            f"{len(points)} points, independent enumeration gives {len(expected)} "
            f"({len(missing)} missing, {len(extra)} extra)"
        )
    return errors[:20]


def check_report(report: dict, table: ref.Table) -> list[str]:
    """A decomposition report against the independent table and closure."""
    errors = []
    n = len(table.points)
    strong = {int(k): [tuple(p) for p in v] for k, v in report["strong"].items()}
    weak = {int(k): v for k, v in report["weak_witnesses"].items()}
    rank = {p: r for r, p in enumerate(table.points, start=1)}
    gens = []
    for coords in report["generators"]:
        r = rank.get(tuple(coords))
        if r is None:
            errors.append(f"generator {coords} is not a registry point")
        else:
            gens.append(r)

    counts = (report["strong_count"], report["weak_only_count"], report["generator_count"])
    if counts != (len(strong), len(weak), len(gens)):
        errors.append(f"counts {counts} disagree with the listed sets")
    if report["points"] != n or sum(counts) != n:
        errors.append(f"strong + weak-only + generators = {sum(counts)}, points = {n}")
    parts = sorted(list(strong) + list(weak) + gens)
    if parts != list(range(1, n + 1)):
        errors.append("strong, weak-only and generator ranks do not partition the points")

    for k, pairs in strong.items():
        for i, j in pairs:
            if not (1 <= i < k and 1 <= j < k):
                errors.append(f"strong pair {(i, j)} of rank {k} is not earlier")
            elif i == j:
                if k not in table.tangent[i]:
                    errors.append(f"rank {k} is not on the tangent section at {i}")
            elif ref.third_point(table.coeffs, table.points[i - 1], table.points[j - 1]) != table.points[k - 1]:
                errors.append(f"strong pair {(i, j)} does not compose to rank {k}")
    independent_strong = table.strong()
    if strong != independent_strong:
        errors.append("strong decompositions differ from the pass over all pairs")

    for k, text in weak.items():
        try:
            tree = ref.parse_scheme(text, OP)
        except ValueError as exc:
            errors.append(f"witness of rank {k} does not parse: {exc}")
            continue
        if isinstance(tree, int) or any(not 1 <= leaf < k for leaf in ref.leaves(tree)):
            errors.append(f"witness {text!r} of rank {k} has a leaf that is not earlier")
        elif k not in table.values(tree):
            errors.append(f"witness {text!r} does not evaluate to rank {k}")

    reached = table.closure_order()
    not_strong = [x for x in range(1, n + 1) if x not in independent_strong]
    if sorted(weak) != [x for x in not_strong if reached[x]]:
        errors.append("weak-only set differs from the independent closure")
    if gens != [x for x in not_strong if not reached[x]]:
        errors.append("generators differ from the ranks the independent closure misses")
    return errors[:20]


def check_pipeline(spec, outputs, references) -> list[str]:
    """Outputs of one enumerate (and decompose) round."""
    coeffs, bound = tuple(spec["coeffs"]), spec["height"]
    header, points = read_points_file(outputs["points"])
    errors = check_points(header, points, coeffs, bound, references["points"])
    if spec.get("expect_points") is not None and len(points) != spec["expect_points"]:
        errors.append(f"{len(points)} points, the paper has {spec['expect_points']}")
    if spec.get("sub_height") is not None:
        part = [x for x in points if ref.height(x) <= spec["sub_height"]]
        if part != references["sub_points"]:
            errors.append(f"the height <= {spec['sub_height']} part differs from that enumeration")
    if outputs.get("report") and not errors:
        with open(outputs["report"]) as fh:
            errors += check_report(json.load(fh), references["table"])
    return errors


def check_identities(spec, outputs) -> list[str]:
    errors = []
    suites = outputs["suites"]
    if len(suites) != 6:
        errors.append(f"{len(suites)} suite results, expected 6")
    for s in suites:
        if s["failures"] or s["passes"] != s["trials"]:
            errors.append(f"{s['name']}: {s['passes']} passed, {s['failures']} failed "
                          f"of {s['trials']} trials")
    claim1 = outputs["claim1"]
    p = spec["claim1_field"]
    if claim1 is None or len(claim1["samples"]) != spec["claim1_samples"]:
        errors.append("claim-1 suite did not complete")
    else:
        for s in claim1["samples"]:
            a, b, c, d = map(tuple, s["points"])
            star = ref.meet_mod(a, b, c, d, p)
            if not s["agrees"]:
                errors.append(f"claim 1 fails at {s['points']}")
            if star is None or tuple(s["star"]) != star:
                errors.append(f"star of {s['points']} is {s['star']}, lines meet at {star}")
    closure = outputs["closure"]
    q = spec["closure_field"]
    if closure is None:
        errors.append("plane closure did not complete")
    else:
        pts = [tuple(x) for x in closure["points"]]
        if len(pts) != q * q + q + 1 or set(pts) != ref.plane_points(q):
            errors.append(f"closure over F_{q} has {len(pts)} points, "
                          f"P^2(F_{q}) has {q * q + q + 1}")
    return errors[:20]
