"""The benchmark's traced quick run, as a test.

bench/workload.py reaches into the package by name: it calls the CLI and the
suites, and its traced run patches public functions such as
`cli.build_table`, `relations.secant_compose` and `decompose.weak_closure`.
A refactor that renames one of them fails here, not only in a benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_traced_quick_benchmark_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 4  # one result line per workload, the last line included
    assert proc.stdout.splitlines()[-1].startswith("{")
    for result in results:
        assert result["correct"] is True, proc.stderr[-2000:]
        assert result["failed"] == 0, proc.stderr[-2000:]
