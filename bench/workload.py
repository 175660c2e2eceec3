"""One repetition of a benchmark workload, in a fresh single-threaded process.

Started by run.py, which passes the workload's sizes as a JSON spec.  The
process imports the package and prepares its inputs (set-up), then does the
work through the package's public entry points: `cubicmw.cli.main` for the
enumerate/decompose pipelines and the module functions for the identity
suites and the split-plane work.  It writes one JSON record with its timing,
its counts of attempted and failed operations and the outputs the checks
need, and the host-speed samples of its speed probe (bench/speedprobe.py);
with --trace it also writes the spans and counters of a traced run.

    PYTHONPATH=src CUBIC_MW_THREADS=1 python3 bench/workload.py \\
        --spec '{"kind": "pipeline", ...}' --seed 1 --workdir DIR --record FILE
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import time
from contextlib import nullcontext

from speedprobe import SpeedProbe, pin_to_current_cpu
from tracer import Tracer, peak_mb


def monotonic() -> float:
    """The clock run.py reads before starting this process (CLOCK_MONOTONIC)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def install_tracing(tracer, cli, decompose, enumeration, relations, splitplane):
    def on_enumerate(t, args, kwargs, result):
        bound = args[1] if len(args) > 1 else kwargs["bound"]
        # both pair tables hold every (u, v) with |u| + |v| <= bound
        t.add("enumeration.pair_entries", 2 * (2 * bound * bound + 2 * bound + 1))

    def on_table(t, args, kwargs, table):
        n = len(table.registry)
        t.add("decompose.table.pairs", n * (n - 1) // 2)
        t.add("decompose.table.in_registry", len(table.in_vh))
        t.add("decompose.table.undefined", len(table.undefined))
        t.add("decompose.table.tangent_entries", sum(len(r) for r in table.tangent.values()))

    def on_suite(t, args, kwargs, result):
        for r in result if isinstance(result, list) else [result]:
            t.add("relations.passes", r.passes)
            t.add("relations.attempts", r.passes + r.failures + r.skips)

    def on_closure(t, args, kwargs, result):
        points, generations = result
        t.add("splitplane.plane_closure.points", len(points))
        t.add("splitplane.plane_closure.generations", generations)

    tracer.patch(cli, "main", "cli.main")
    for owner in (cli, enumeration):
        tracer.patch(owner, "enumerate_points", "enumeration.enumerate_points",
                     on_result=on_enumerate, memory=True)
        tracer.patch(owner, "save_registry", "enumeration.save_registry")
        tracer.patch(owner, "load_registry", "enumeration.load_registry")
    tracer.patch(cli, "build_table", "decompose.build_table", on_result=on_table)
    tracer.patch(cli, "build_report", "decompose.build_report")
    tracer.patch(decompose, "strong_decompositions", "decompose.strong_decompositions")
    tracer.patch(decompose, "weak_closure", "decompose.weak_closure")
    tracer.patch(decompose.DecompositionReport, "to_json_dict", "decompose.report_json")
    for name in ("involution_suite", "sextuple_suite", "tangent_consistency_suite",
                 "group_law_suite"):
        tracer.patch(relations, name, "relations." + name, on_result=on_suite)
    tracer.count_calls(relations, "secant_compose", "relations.compositions")
    tracer.patch(splitplane, "plane_closure", "splitplane.plane_closure", on_result=on_closure)


class Ops:
    """Counts attempted and failed operations; an operation fails if it raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except (Exception, SystemExit) as exc:  # record and go on with the round
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def run_pipeline(spec, workdir, ops, cli):
    coeffs = ",".join(str(c) for c in spec["coeffs"])
    points = os.path.join(workdir, "points.txt")
    report = os.path.join(workdir, "report.json")
    steps = [["enumerate", "--coeffs", coeffs, "--height", str(spec["height"]), "--out", points]]
    if spec["decompose"]:
        steps.append(["decompose", "--points", points, "--coeffs", coeffs, "--report", report])
    for argv in steps:
        code = ops.run(argv[0], cli.main, argv)
        if code not in (0, None):
            ops.failed += 1
            ops.errors.append(f"{argv[0]}: exit code {code}")
    return {"points": points, "report": report if spec["decompose"] else None}


def claim1_suite(splitplane, geometry, errors, p, samples, rng):
    """Random non-degenerate quadruples over F_p and whether claim 1 holds on each.

    Draws the samples as `cubicmw split-demo` does; degenerate draws are
    counted and skipped.
    """
    field = geometry.Field(p)
    model = splitplane.BlowupModel.build(None, field)
    good, degenerate = [], 0
    while len(good) < samples:
        raws = [(1, rng.randrange(p), rng.randrange(p)) for _ in range(4)]
        pts = [geometry.normalize(r, field) for r in raws]
        if len(set(pts)) < 4 or any(model.is_base(q) for q in pts):
            degenerate += 1
            continue
        try:
            agrees = splitplane.verify_claim1(model, *pts)
        except errors.CubicError:
            degenerate += 1
            continue
        good.append((pts, agrees))
    return model, good, degenerate


def run_identities(spec, seed, registry, ops, tracer):
    from cubicmw import errors, geometry, relations, splitplane

    trials = spec["trials"]
    suites = []
    for name in ("involution_suite", "sextuple_suite", "tangent_consistency_suite"):
        res = ops.run(name, getattr(relations, name), registry, trials, seed)
        if res is not None:
            suites.append((res, trials))
    group = ops.run("group_law_suite", relations.group_law_suite, spec["group_trials"], seed)
    suites += [(r, spec["group_trials"]) for r in group or []]
    with tracer.span("splitplane.claim1") if tracer else nullcontext():
        claim1 = ops.run("claim1", claim1_suite, splitplane, geometry, errors,
                         spec["claim1_field"], spec["claim1_samples"], random.Random(seed))
    q = geometry.Field(spec["closure_field"])
    seeds = [geometry.normalize(v, q) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
    closure = ops.run("plane_closure", splitplane.plane_closure, q, seeds)

    def outputs():
        """Plain data for the checks, built after the clock has stopped."""
        out = {
            "suites": [
                {"name": r.name, "passes": r.passes, "failures": r.failures,
                 "skips": r.skips, "trials": n}
                for r, n in suites
            ],
            "claim1": None,
            "closure": None,
        }
        if claim1 is not None:
            model, good, degenerate = claim1
            out["claim1"] = {
                "samples": [
                    {"points": [list(x.coords) for x in pts], "agrees": agrees,
                     "star": list(splitplane.quaternary_star(model, *pts).coords)}
                    for pts, agrees in good
                ],
                "degenerate": degenerate,
            }
        if closure is not None:
            points, generations = closure
            out["closure"] = {
                "points": sorted(list(x.coords) for x in points),
                "generations": generations,
            }
        return out

    return outputs


def main() -> None:
    pin_to_current_cpu()
    probe = SpeedProbe().start()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spec", required=True, help="workload sizes as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True, help="JSON record written here")
    parser.add_argument("--trace-out", default=None, help="spans written here; enables tracing")
    args = parser.parse_args()
    spec = json.loads(args.spec)

    tracer = Tracer() if args.trace_out else None
    t_import = monotonic()
    from cubicmw import cli, decompose, enumeration, relations, splitplane
    t_imported = monotonic()

    if tracer:
        install_tracing(tracer, cli, decompose, enumeration, relations, splitplane)
    ops = Ops()
    registry = None
    if spec["kind"] == "identities":
        # the points file is on disk before the run, as a user would have it
        registry = ops.run("load_registry", enumeration.load_registry,
                           spec["points_file"], tuple(spec["coeffs"]))

    t_ready = monotonic()
    cpu0 = cpu_seconds()
    if spec["kind"] == "pipeline":
        outputs = run_pipeline(spec, args.workdir, ops, cli)
    else:
        outputs = run_identities(spec, args.seed, registry, ops, tracer)
    t_done = monotonic()
    cpu1 = cpu_seconds()
    peak = peak_mb()
    probe.stop()

    if callable(outputs):
        outputs = outputs()
    record = {
        "t_import": t_import,
        "t_imported": t_imported,
        "t_ready": t_ready,
        "t_done": t_done,
        "wall_s": t_done - t_ready,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "probe": probe.samples,
        "outputs": outputs,
    }
    if tracer:
        tracer.dump(args.trace_out)
    with open(args.record, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
