"""Benchmark of the cubicmw pipelines, suites and split-plane work.

    python3 bench/run.py --workload zagier-1100 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --quick      # each workload once, reduced size

Each repetition of a workload runs in a fresh single-threaded process
(bench/workload.py).  Repetitions are started while another one should end
within --seconds (at least one is made); the end-to-end metrics are medians
over them, with timings scaled to the host's reference speed
(bench/speedprobe.py).  With --trace 1 the
repetitions alternate between untraced and traced, and the per-layer
metrics come from the traced ones.  All outputs are checked against the
independent computations of bench/reference.py.  The last line printed is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A record
with every repetition and the spans of traced runs goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import reference as ref
from speedprobe import at_reference_speed
from tracer import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 150

# Workload sizes.  "quick" overrides them for a fast run of every check.
SPECS = {
    "zagier-1100": {"kind": "pipeline", "coeffs": [1, 2, 3, 4], "height": 1100,
                    "decompose": True, "expect_points": 379},
    "enumerate-2200": {"kind": "pipeline", "coeffs": [1, 2, 3, 4], "height": 2200,
                       "decompose": False, "sub_height": 1100},
    "fermat-lines": {"kind": "pipeline", "coeffs": [1, 1, 1, 1], "height": 24,
                     "decompose": True},
    "identities": {"kind": "identities", "coeffs": [1, 2, 3, 4], "height": 1100,
                   "trials": 10000, "group_trials": 1000, "claim1_field": 101,
                   "claim1_samples": 200, "closure_field": 23},
}
QUICK = {
    "zagier-1100": {"height": 400, "expect_points": None},
    "enumerate-2200": {"height": 800, "sub_height": 400},
    "fermat-lines": {"height": 12},
    "identities": {"height": 200, "trials": 500, "group_trials": 100,
                   "claim1_samples": 20, "closure_field": 7},
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "enumeration.enumerate_points.s": "s",
    "enumeration.enumerate_points.peak_mb": "MB",
    "enumeration.pairs_per_s": "1/s",
    "enumeration.save_registry.s": "s",
    "enumeration.load_registry.s": "s",
    "decompose.build_table.s": "s",
    "decompose.build_table.pairs_per_s": "1/s",
    "decompose.table.in_registry": "count",
    "decompose.table.undefined": "count",
    "decompose.table.tangent_entries": "count",
    "decompose.build_report.s": "s",
    "decompose.report_json.s": "s",
    "relations.involution_suite.s": "s",
    "relations.sextuple_suite.s": "s",
    "relations.tangent_consistency_suite.s": "s",
    "relations.group_law_suite.s": "s",
    "relations.compositions_per_s": "1/s",
    "relations.useful_ratio": "ratio",
    "splitplane.plane_closure.s": "s",
    "splitplane.plane_closure.points": "count",
    "splitplane.plane_closure.generations": "count",
    "splitplane.claim1.s": "s",
    "splitplane.claim1.useful_ratio": "ratio",
    "layer.cli.self_s": "s",
    "layer.enumeration.self_s": "s",
    "layer.decompose.self_s": "s",
    "layer.relations.self_s": "s",
    "layer.splitplane.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    # one thread everywhere: enumeration through CUBIC_MW_THREADS (the CLI's
    # default), numpy's BLAS pools through the usual variables
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        CUBIC_MW_THREADS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(spec, seed, rep_dir: Path, trace_out: Path | None) -> dict:
    rep_dir.mkdir(parents=True)
    record = rep_dir / "record.json"
    cmd = [sys.executable, str(BENCH / "workload.py"), "--spec", json.dumps(spec),
           "--seed", str(seed), "--workdir", str(rep_dir), "--record", str(record)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t_spawn = monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(record) as fh:
        rec = json.load(fh)
    # raw timings, and the same at the reference host speed (bench/speedprobe.py)
    samples = rec["probe"]
    raw = {"setup_s": rec["t_ready"] - t_spawn, "wall_s": rec["wall_s"], "cpu_s": rec["cpu_s"]}
    rec["raw"] = raw
    rec["probe_samples"] = len(samples)
    rec["setup_s"], _ = at_reference_speed(samples, t_spawn, rec["t_ready"], raw["setup_s"])
    rec["wall_s"], rec["speed"] = at_reference_speed(samples, rec["t_ready"], rec["t_done"],
                                                     raw["wall_s"])
    rec["cpu_s"], _ = at_reference_speed(samples, rec["t_ready"], rec["t_done"], raw["cpu_s"])
    rec["traced"] = trace_out is not None
    return rec


def write_points(path: Path, coeffs, bound: int, points) -> None:
    lines = [f"# coeffs: {' '.join(map(str, coeffs))}", f"# height: {bound}"]
    lines += [" ".join(map(str, x)) for x in points]
    path.write_text("\n".join(lines) + "\n")


def prepare(spec, workdir: Path) -> dict:
    """Reference data for the checks, and input files for the identities workload."""
    references = {}
    if spec["kind"] == "pipeline":
        if spec["height"] <= 40:
            references["points"] = ref.enumerate_brute(spec["coeffs"], spec["height"])
        else:
            references["points"] = ref.enumerate_hash_join(spec["coeffs"], spec["height"])
        if spec.get("sub_height") is not None:
            references["sub_points"] = ref.enumerate_hash_join(spec["coeffs"], spec["sub_height"])
    else:
        # the registry the suites sample from; a user would have it on disk
        points = ref.enumerate_hash_join(spec["coeffs"], spec["height"])
        spec["points_file"] = str(workdir / "registry.txt")
        write_points(Path(spec["points_file"]), spec["coeffs"], spec["height"], points)
    return references


def check_rep(spec, rec, references, seen: dict) -> list[str]:
    """Check one repetition's outputs; identical outputs are checked once.

    A repetition in which an operation failed is counted in `failed` and its
    outputs, being incomplete, are not checked.
    """
    if rec["failed"]:
        return []
    out = rec["outputs"]
    if spec["kind"] == "identities":
        return checks.check_identities(spec, out)
    digest = hashlib.sha256()
    for key in ("points", "report"):
        if out.get(key) and os.path.exists(out[key]):
            digest.update(Path(out[key]).read_bytes())
        digest.update(b"\0")
    key = digest.hexdigest()
    if key not in seen:
        if spec["decompose"] and "table" not in references:
            references["table"] = ref.Table(spec["coeffs"], references["points"])
        seen[key] = checks.check_pipeline(spec, out, references)
    return seen[key]


def layer_metrics(rec) -> dict[str, float]:
    with open(rec["trace_file"]) as fh:
        trace = json.load(fh)
    # span times at the reference host speed, like the end-to-end timings
    totals, layer_self = summarize(
        trace["spans"],
        lambda start, end: at_reference_speed(rec["probe"], start, end, end - start)[0])
    counters = trace["counters"]

    def rate(count_key, *span_names):
        busy = sum(totals.get(s, 0.0) for s in span_names)
        return counters.get(count_key, 0) / busy if busy > 0 else 0.0

    m = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".s"):
            m[name] = totals.get(name[:-2], 0.0)
        elif name.startswith("layer."):
            m[name] = layer_self.get(name.split(".")[1], 0.0)
    m["setup.import_s"] = at_reference_speed(rec["probe"], rec["t_import"], rec["t_imported"],
                                             rec["t_imported"] - rec["t_import"])[0]
    m["enumeration.enumerate_points.peak_mb"] = counters.get("enumeration.enumerate_points.peak_mb", 0.0)
    m["enumeration.pairs_per_s"] = rate("enumeration.pair_entries", "enumeration.enumerate_points")
    m["decompose.build_table.pairs_per_s"] = rate("decompose.table.pairs", "decompose.build_table")
    for key in ("decompose.table.in_registry", "decompose.table.undefined",
                "decompose.table.tangent_entries", "splitplane.plane_closure.points",
                "splitplane.plane_closure.generations"):
        m[key] = counters.get(key, 0)
    m["relations.compositions_per_s"] = rate(
        "relations.compositions", "relations.involution_suite", "relations.sextuple_suite")
    attempts = counters.get("relations.attempts", 0)
    m["relations.useful_ratio"] = counters.get("relations.passes", 0) / attempts if attempts else 0.0
    claim1 = rec["outputs"].get("claim1")
    if claim1:
        good = len(claim1["samples"])
        m["splitplane.claim1.useful_ratio"] = good / (good + claim1["degenerate"])
    else:
        m["splitplane.claim1.useful_ratio"] = 0.0
    m["trace.spans"] = len(trace["spans"])
    return m


def run_workload(name, seed, seconds, trace, quick, results: Path) -> dict:
    spec = dict(SPECS[name], **QUICK[name]) if quick else dict(SPECS[name])
    workdir = BENCH / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        references = prepare(spec, workdir)
        # compile the package's bytecode once, as an installed package has it
        warm = subprocess.run([sys.executable, "-c", "import cubicmw.cli"], env=child_env(),
                              cwd=ROOT, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if warm.returncode != 0:
            raise BenchError(f"cannot import cubicmw: {warm.stderr[-2000:]}")
        reps, seen, errors = [], {}, []
        start = monotonic()
        while True:
            traced = bool(trace) and len(reps) % 2 == 1
            k = len(reps)
            trace_out = results / f"trace-{name}-seed{seed}-rep{k}.json" if traced else None
            rec = run_child(spec, seed, workdir / f"rep{k}", trace_out)
            rec["trace_file"] = str(trace_out) if traced else None
            reps.append(rec)
            if quick and (not trace or traced):
                break
            elapsed = monotonic() - start
            # start another repetition only if it should end within the budget
            if elapsed + elapsed / len(reps) > seconds and (not trace or traced):
                break
        for k, rec in enumerate(reps):
            errors += [f"rep {k}: {e}" for e in check_rep(spec, rec, references, seen)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if trace:
        per_rep = [layer_metrics(r) for r in traced_reps]
        values = {m: statistics.median(p[m] for p in per_rep) for m in PER_LAYER_UNITS
                  if m != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                      - statistics.median(r["wall_s"] for r in plain))
        units = PER_LAYER_UNITS
    else:
        values = {m: statistics.median(r[m] for r in plain) for m in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
        "spec": spec, "errors": errors[:50], "result": result,
        "reps": [{k: v for k, v in r.items() if k not in ("outputs", "probe")} for r in reps],
        "machine": {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "platform": platform.platform()},
    }
    suffix = "-quick" if quick else ""
    (results / f"{name}{suffix}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    for k, r in enumerate(reps):
        for e in r["errors"]:
            print(f"operation failed in rep {k}: {e}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SPECS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the identity suites and the claim-1 samples")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one repetition of each workload at reduced size")
    args = parser.parse_args()
    if not (ROOT / "src" / "cubicmw" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cubicmw'}", file=sys.stderr)
        return 2
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    names = list(SPECS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.quick, results)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        for metric, v in result["metrics"].items():
            print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
