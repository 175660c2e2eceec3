import contextlib
import io
import json
import os
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cubicmw import (
    __version__,
    build_report,
    build_table,
    cli,
    decompose,
    enumerate_points,
    height,
    load_registry,
)
from cubicmw.cli import main

P3_BASE = "1,0,0,5;0,1,0,0;0,0,1,0;1,1,1,0;1,2,3,0;1,4,9,0"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_writes_points(tmp_path, capsys):
    out = tmp_path / "pts.txt"
    code, stdout, _ = run(
        capsys, "enumerate", "--coeffs", "1,2,3,4", "--height", "60", "--out", str(out)
    )
    assert code == 0
    assert "wrote" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "# coeffs: 1 2 3 4"
    assert lines[1] == "# height: 60"
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "1 0 1 -1"


def test_enumerate_deterministic_across_threads(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path, threads in ((a, "1"), (b, "4")):
        code, _, _ = run(
            capsys, "enumerate", "--coeffs", "1,2,3,4", "--height", "120",
            "--out", str(path), "--threads", threads,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_compose_example(capsys):
    code, stdout, _ = run(
        capsys, "compose", "--coeffs", "1,2,3,4", "--x", "1,0,1,-1", "--y", "1,1,-1,0"
    )
    assert code == 0
    assert stdout.strip() == "3 1 1 -2"


def test_compose_domain_error_exit_code(capsys):
    code, _, stderr = run(
        capsys, "compose", "--coeffs", "1,2,3,4", "--x", "1,1,1,1", "--y", "1,0,1,-1"
    )
    assert code == 1
    assert stderr.startswith("error: NotOnSurface")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--coeffs", "1,2,3,4"])  # missing --height/--out
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-relations", "--height", "10", "--trials", "-3"],
        ["verify-relations", "--height", "10", "--trials", "0"],
        ["enumerate", "--coeffs", "1,2,3,4", "--height", "10", "--out", "x", "--threads", "0"],
        ["split-demo", "--samples", "-2"],
    ],
    ids=["negative-trials", "zero-trials", "zero-threads", "negative-samples"],
)
def test_non_positive_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--points", "p", "--coeffs", "1,2,3,4", "--report", "r", "--seed", "1"],
        ["compose", "--coeffs", "1,2,3,4", "--x", "1,0,1,-1", "--y", "1,1,-1,0",
         "--threads", "2"],
        ["enumerate", "--coeffs", "1,2,3,4", "--height", "10", "--out", "x", "--seed", "1"],
        ["plane-closure", "--field", "fp:7", "--seed", "1"],
    ],
    ids=["decompose-seed", "compose-threads", "enumerate-seed", "plane-closure-seed"],
)
def test_flag_where_it_is_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["split-demo", "--field", "fp:4"], "argument --field: not a prime below 2^31: 4"),
        (["plane-closure", "--field", "fp:x"],
         "argument --field: invalid literal for int() with base 10: 'x'"),
        (["compose", "--coeffs", "1,2,b,4", "--x", "1,0,1,-1", "--y", "1,1,-1,0"],
         "argument --coeffs: invalid literal for int() with base 10: 'b'"),
        (["verify-relations", "--trials", "abc"],
         "argument --trials: invalid literal for int() with base 10: 'abc'"),
    ],
    ids=["field-not-prime", "field-not-a-number", "coeffs-not-a-number", "trials-not-a-number"],
)
def test_bad_value_is_usage_error_with_its_reason(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(reason)


def test_verify_relations_passes_threads(monkeypatch, capsys):
    seen = []

    def recording(coeffs, height, threads=1):
        seen.append(threads)
        return enumerate_points(coeffs, height, threads=threads)

    monkeypatch.setattr(cli, "enumerate_points", recording)
    code, stdout, _ = run(
        capsys, "verify-relations", "--height", "60", "--trials", "20", "--threads", "2",
        "--seed", "4",
    )
    assert code == 0 and "0 failed" in stdout
    assert seen == [2]


def test_malformed_extra_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plane-closure", "--field", "fp:7", "--extra", "1,2,a"])
    assert exc.value.code == 2
    assert "argument --extra" in capsys.readouterr().err


def test_malformed_base_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["split-demo", "--samples", "3", "--base", "1,0,0;0,1,a"])
    assert exc.value.code == 2
    assert "argument --base" in capsys.readouterr().err


def test_decompose_report(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    report = tmp_path / "report.json"
    run(capsys, "enumerate", "--coeffs", "1,2,3,4", "--height", "120", "--out", str(pts))
    code, stdout, _ = run(
        capsys, "decompose", "--points", str(pts), "--coeffs", "1,2,3,4",
        "--report", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    total = payload["points"]
    assert stdout.startswith(f"points={total} ")
    assert total == (
        payload["strong_count"] + payload["weak_only_count"] + payload["generator_count"]
    )
    assert payload["config"]["coeffs"] == [1, 2, 3, 4]


def test_decompose_profile(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    run(capsys, "enumerate", "--coeffs", "1,2,3,4", "--height", "300", "--out", str(pts))
    argv = ["decompose", "--points", str(pts), "--coeffs", "1,2,3,4"]
    assert run(capsys, *argv, "--report", str(tmp_path / "plain.json"))[0] == 0
    for name in ("a", "b"):
        with mock.patch.object(decompose, "strong_decompositions",
                               wraps=decompose.strong_decompositions) as strong:
            code, _, _ = run(capsys, *argv, "--report", str(tmp_path / f"report_{name}.json"),
                             "--profile", str(tmp_path / f"{name}.json"))
        # the profile reuses the report's strong map
        assert code == 0 and strong.call_count == 1
        # nothing of the profile goes into the report
        assert (tmp_path / f"report_{name}.json").read_bytes() == (
            tmp_path / "plain.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    registry = enumerate_points((1, 2, 3, 4), 300)
    report = build_report(build_table(registry))
    plain = json.loads((tmp_path / "plain.json").read_text())
    del plain["config"]
    assert plain == json.loads(json.dumps(report.to_json_dict()))
    profile = json.loads((tmp_path / "a.json").read_text())
    assert profile["points"] == len(registry)
    caps = profile["caps"]
    non_strong = [x for x in range(1, len(registry) + 1) if x not in report.strong]
    assert [c["rank"] for c in caps] == non_strong
    for c in caps:
        x = registry.point(c["rank"])
        assert c["coords"] == list(x.coords) and c["height"] == height(x)
        assert (c["cap"] is None) == (c["rank"] in report.generator_ranks)
        assert c["cap"] is None or c["cap"] >= c["height"]


@pytest.mark.parametrize("report, profile", [
    ("report.json", "no/such/dir/p.json"),
    ("no/such/dir/report.json", "p.json"),
    ("report.json", "."),
], ids=["profile-dir-missing", "report-dir-missing", "profile-is-a-dir"])
def test_decompose_bad_output_path_fails_before_any_work(tmp_path, capsys, report, profile):
    pts = tmp_path / "pts.txt"
    run(capsys, "enumerate", "--coeffs", "1,2,3,4", "--height", "60", "--out", str(pts))
    with mock.patch.object(cli, "load_registry") as load:
        code, stdout, stderr = run(capsys, "decompose", "--points", str(pts),
                                   "--coeffs", "1,2,3,4", "--report", str(tmp_path / report),
                                   "--profile", str(tmp_path / profile))
    assert code == 1 and not load.called and stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.txt"]


def test_enumerate_into_missing_directory_fails_before_any_work(tmp_path, capsys):
    with mock.patch.object(cli, "enumerate_points") as enumerate_:
        code, _, stderr = run(capsys, "enumerate", "--coeffs", "1,2,3,4", "--height", "60",
                              "--out", str(tmp_path / "no" / "pts.txt"))
    assert code == 1 and not enumerate_.called
    assert stderr.startswith("error: FileNotFoundError: ") and len(stderr.splitlines()) == 1


_json_ints = st.integers(-(2**70), 2**70)
_json_str = st.text(st.characters() | st.sampled_from('∘"\\/\x00\x1f\n\t\x7f'), max_size=8)
# rows of one width, as lists or as tuples (json.dumps writes both as lists)
_json_rows = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(_json_ints, min_size=width, max_size=width)
                           | st.tuples(*[_json_ints] * width), max_size=4))
_json_values = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_str | _json_rows
    | st.lists(st.lists(_json_ints, max_size=3), max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_str, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_pieces_match_json_dumps(obj):
    assert "".join(cli.json_pieces(obj)) == json.dumps(obj, indent=1)


def expected_report(points, coeffs: str) -> bytes:
    """The bytes `decompose` should write: json.dumps of to_json_dict() and the config."""
    coeffs = tuple(map(int, coeffs.split(",")))
    report = build_report(build_table(load_registry(points, coeffs)))
    payload = report.to_json_dict()
    payload["config"] = {"coeffs": list(coeffs), "points_file": str(points),
                         "version": __version__}
    return (json.dumps(payload, indent=1) + "\n").encode()


@pytest.mark.parametrize("coeffs, height", [("1,2,3,4", "300"), ("1,1,1,1", "24")])
def test_decompose_report_bytes_are_json_dumps(tmp_path, capsys, coeffs, height):
    # the directory name puts a quote and the composition symbol into points_file
    pts = tmp_path / 'pts "∘"' / "points.txt"
    pts.parent.mkdir()
    report = tmp_path / "report.json"
    run(capsys, "enumerate", "--coeffs", coeffs, "--height", height, "--out", str(pts))
    code, _, _ = run(capsys, "decompose", "--points", str(pts), "--coeffs", coeffs,
                     "--report", str(report))
    assert code == 0
    assert report.read_bytes() == expected_report(pts, coeffs)


_nonzero = st.integers(-9, 9).filter(bool)


@settings(max_examples=40, deadline=None)
@given(st.tuples(_nonzero, _nonzero, _nonzero, _nonzero), st.integers(1, 40))
def test_report_bytes_on_random_surfaces(coeffs, bound):
    registry = enumerate_points(coeffs, bound)
    # (1, -1, 1, -1) has 837 points at H=40, and the table grows with their square
    assume(0 < len(registry) <= 250)
    coeffs = _csv(coeffs)
    with tempfile.TemporaryDirectory() as tmp:
        pts, out = os.path.join(tmp, "points.txt"), os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            # --coeffs=... as a leading minus sign would read as a flag
            assert main(["enumerate", f"--coeffs={coeffs}", "--height", str(bound),
                         "--out", pts]) == 0
            assert main(["decompose", "--points", pts, f"--coeffs={coeffs}",
                         "--report", out]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == expected_report(pts, coeffs)
    # rank 1 is always a generator and strong is often empty: the writer also on
    # reports with no generators, no strong ranks, or neither
    report = build_report(build_table(registry))
    none = decompose.StrongRelations(np.zeros(0, dtype=np.int64), len(registry))
    for strong, gens in [(report.strong, []), (none, report.generator_ranks), (none, [])]:
        variant = decompose.DecompositionReport(registry, strong, report.weak_witnesses, gens)
        text = "".join(cli.json_pieces(variant.json_fields()))
        assert text == json.dumps(variant.to_json_dict(), indent=1)


def test_report_writer_streams(tmp_path):
    registry = enumerate_points((1, 1, 1, 1), 24)
    report = build_report(build_table(registry))
    payload, fields = report.to_json_dict(), report.json_fields()

    def peak(write):
        with open(tmp_path / "report.json", "w") as fh:
            tracemalloc.start()
            try:
                write(fh)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    old = peak(lambda fh: json.dump(payload, fh, indent=1))
    new = peak(lambda fh: fh.writelines(cli.json_pieces(fields)))
    assert new <= old


def test_verify_relations(capsys):
    code, stdout, _ = run(
        capsys, "verify-relations", "--height", "60", "--trials", "200"
    )
    assert code == 0
    assert "involution" in stdout and "0 failed" in stdout


def test_verify_relations_output_is_pinned(capsys):
    code, stdout, _ = run(capsys, "verify-relations", "--height", "200", "--trials", "2000")
    assert code == 0
    assert stdout.splitlines() == [
        "involution: 2000 passed, 0 failed, 0 skipped",
        "sextuple relation: 2000 passed, 0 failed, 83 skipped",
        "tangent consistency: 2000 passed, 0 failed, 0 skipped",
        "group identity: 100 passed, 0 failed, 0 skipped",
        "group commutativity: 100 passed, 0 failed, 0 skipped",
        "group associativity: 100 passed, 0 failed, 1 skipped",
    ]


def test_split_demo(capsys):
    code, stdout, _ = run(capsys, "split-demo", "--samples", "10", "--seed", "3")
    assert code == 0
    assert "surface:" in stdout
    assert "10 agreed" in stdout


def test_plane_closure_fp(capsys):
    code, stdout, _ = run(capsys, "plane-closure", "--field", "fp:7")
    assert code == 0
    assert "closure size 57" in stdout


def test_plane_closure_q_cap_4_counts_incidences(capsys):
    # pairwise meeting alone takes about 20 s on 2 vCPUs: its last round meets 85
    # million line pairs; counting the known lines through each point under the
    # cap takes well under a second
    start = time.perf_counter()
    code, stdout, _ = run(capsys, "plane-closure", "--field", "q", "--cap", "4")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert stdout == "closure size 289 after 4 generations\n"


def test_plane_closure_q_requires_cap(capsys):
    code, _, stderr = run(capsys, "plane-closure", "--field", "q")
    assert code == 1
    assert "error: DegenerateSeeds" in stderr


@pytest.mark.parametrize(
    "argv, points_text, name",
    [
        (["compose", "--coeffs", "1,0,3,4", "--x", "1,0,1,-1", "--y", "1,1,-1,0"],
         None, "InvalidCoefficients"),
        (["decompose", "--points", "{pts}", "--coeffs", "1,2,3,4", "--report", "{report}"],
         "", "EmptyRegistry"),
        (["decompose", "--points", "{pts}", "--coeffs", "1,2,3,4", "--report", "{report}"],
         None, "FileNotFoundError"),
        (["decompose", "--points", "{pts}", "--coeffs", "1,2,3,4", "--report", "{report}"],
         "# height: abc\n1 0 1 -1\n", "ParseError"),
        (["verify-relations", "--height", "3", "--trials", "10"], None, "DegenerateSample"),
        (["decompose", "--points", "{pts}", "--coeffs", "1,2,3,4", "--report", "{report}"],
         "# coeffs: 1 1 1 1\n# height: 24\n1 0 1 -1\n", "ParseError"),
        (["enumerate", "--coeffs", f"{2**61 + 1},1,-1,-{2**61 + 1}", "--height", "6",
          "--out", "{pts}"], None, "BoundTooLarge"),
        (["plane-closure", "--field", "fp:7", "--cap", "2"], None, "InvalidBound"),
        (["plane-closure", "--field", "q", "--cap", "0"], None, "InvalidBound"),
        (["plane-closure", "--field", "q", "--cap", "2", "--extra", "1,3,0"],
         None, "DegenerateSeeds"),
        (["plane-closure", "--field", "fp:7", "--max-generations", "-1"], None, "InvalidBound"),
        (["plane-closure", "--field", "fp:7", "--extra", "1,2,3,4"], None, "DimensionMismatch"),
        (["CUBIC_MW_THREADS=abc", "enumerate", "--coeffs", "1,2,3,4", "--height", "10",
          "--out", "{pts}"], None, "ParseError"),
        (["CUBIC_MW_THREADS=0", "enumerate", "--coeffs", "1,2,3,4", "--height", "10",
          "--out", "{pts}"], None, "ParseError"),
        (["CUBIC_MW_THREADS=-3", "verify-relations", "--height", "10", "--trials", "10"],
         None, "ParseError"),
        (["decompose", "--points", "{pts}", "--coeffs", "1,2,3,4,5", "--report", "{report}"],
         "# height: 24\n1 0 1 -1\n", "InvalidCoefficients"),
        (["decompose", "--points", "{pts}", "--coeffs", "1,2,3", "--report", "{report}"],
         "# height: 24\n1 0 1 -1\n", "InvalidCoefficients"),
        (["compose", "--coeffs", "0,0,0,0", "--x", "1,0,1,-1", "--y", "1,1,-1,0"],
         None, "InvalidCoefficients"),
        (["enumerate", "--coeffs", "1,2,3,4", "--height", "0", "--out", "{pts}"],
         None, "InvalidBound"),
        (["verify-relations", "--height", "-4"], None, "InvalidBound"),
        (["split-demo", "--samples", "3", "--base", P3_BASE], None, "DimensionMismatch"),
        (["decompose", "--points", "{pts}", "--coeffs", "1,2,3,4", "--report", "{report}"],
         "# height: 1\n1 0 1 -1\n", "ParseError"),
        (["decompose", "--points", "{pts}", "--coeffs", "1,2,3,4", "--report", "{report}"],
         "# height: -5\n1 0 1 -1\n", "ParseError"),
        (["decompose", "--points", "{pts}", "--coeffs", "1,2,3,4", "--report", "{report}"],
         "1 0 1 -1\n0 0 0 0\n", "ZeroVector: line 2"),
    ],
    ids=["zero-coefficient", "empty-points", "missing-points", "bad-height-header",
         "too-few-points", "other-surface-header", "pair-values-beyond-int64",
         "closure-cap-over-fp", "closure-cap-zero", "closure-seed-above-cap",
         "closure-negative-generations", "closure-seed-in-p3", "threads-env-not-a-number",
         "threads-env-zero", "threads-env-negative", "five-coefficients", "three-coefficients",
         "all-zero-coefficients", "enumerate-height-zero", "relations-height-negative",
         "split-base-in-p3", "point-above-height-header", "height-header-below-one",
         "zero-point"],
)
def test_bad_input_is_one_error_line(tmp_path, monkeypatch, capsys, argv, points_text, name):
    """argv may start with NAME=value environment assignments, as in a shell."""
    pts = tmp_path / "pts.txt"
    if points_text is not None:
        pts.write_text(points_text)
    paths = {"pts": str(pts), "report": str(tmp_path / "report.json")}
    env = [a for a in argv if a.startswith("CUBIC_MW_")]
    for assignment in env:
        monkeypatch.setenv(*assignment.split("=", 1))
    code, _, stderr = run(capsys, *(a.format(**paths) for a in argv[len(env):]))
    assert code == 1
    assert stderr.startswith(f"error: {name}: ")
    assert len(stderr.splitlines()) == 1
    for assignment in env:
        assert assignment.split("=")[0] in stderr


def _csv(values):
    return ",".join(str(v) for v in values)


def _mostly(valid, invalid):
    """Values from valid four times in five, so that most calls get past parsing."""
    return st.integers(0, 4).flatmap(lambda i: valid if i else invalid)


_ints = st.integers(-9, 9)
_coeffs = _mostly(
    st.one_of(st.sampled_from(["1,2,3,4", "1,1,1,1", "2,-3,5,-7", "1,-1,2,-2"]),
              st.lists(_ints.filter(bool), min_size=3, max_size=3)
              .map(lambda a: _csv([1] + a))),
    st.one_of(st.lists(_ints, max_size=5).map(_csv),
              st.sampled_from(["1,2,a,4", "1,,3,4", "", f"{2**61 + 1},1,-1,-{2**61 + 1}"])),
)
_vector = _mostly(
    st.one_of(st.sampled_from(["1,0,1,-1", "1,1,-1,0", "1,-1,-1,1", "0,0,1,-1", "1,2,3"]),
              st.lists(_ints, min_size=4, max_size=4).map(lambda a: _csv([1] + a[1:]))),
    st.one_of(st.lists(_ints, max_size=5).map(_csv), st.sampled_from(["x", "1,0,1,-1,"])),
)
_height = _mostly(st.integers(1, 40).map(str),
                  st.one_of(st.integers(-3, 0).map(str), st.sampled_from(["", "abc", "2.5"])))
_count = _mostly(st.integers(1, 12).map(str),
                 st.one_of(st.integers(-2, 0).map(str), st.just("abc")))
_seed = _mostly(st.integers(0, 99).map(str), st.sampled_from(["s", "-1"]))
# at most 4 threads, so that no call starts many OS threads
_threads = _mostly(st.sampled_from(["1", "2", "4"]), st.sampled_from(["0", "-1", "abc", ""]))
_field = _mostly(
    st.sampled_from(["q", "fp:2", "fp:3", "fp:5", "fp:7", "fp:11", "fp:101"]),
    st.sampled_from(["fp:4", "fp:0", "fp:-7", "fp:x", "fp:", "r"]),
)
_base = _mostly(
    st.sampled_from(["default", P3_BASE]),
    st.one_of(st.sampled_from(["1,0,0;0,1,0", "1,2,a", ""]),
              st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=4).map(_csv),
                       min_size=5, max_size=7).map(";".join)),
)
_points_text = _mostly(
    st.sampled_from(["# coeffs: 1 2 3 4\n# height: 4\n1 0 1 -1\n1 1 -1 0\n1 -1 -1 1\n",
                     "0 0 1 -1\n1 -1 0 0\n", "1 0 1 -1\n1 1 -1 0\n1 -1 -1 1\n"]),
    st.one_of(st.none(), st.text(max_size=30), st.sampled_from(
        ["", "# height: abc\n1 0 1 -1\n", "1 1 1 1\n", "2 0 2 -2\n", "1 0 1\n",
         "# height: 1\n1 0 1 -1\n", "# height: -5\n1 0 1 -1\n",
         "1 1 -1 0\n1 0 1 -1\n", "# coeffs: 1 1 1 1\n1 0 1 -1\n", "1 0 one -1\n"])),
)
# Flags of each subcommand and their values; "{out}" and "{pts}" name files in
# a fresh directory, "{dir}" the directory itself.  Heights stay <= 40 and
# counts small, and the flags that default to large work are always given.
_OPTIONS = {
    "enumerate": [("--coeffs", _coeffs), ("--height", _height),
                  ("--out", st.sampled_from(["{out}", "{dir}"])), ("--threads", _threads)],
    "compose": [("--coeffs", _coeffs), ("--x", _vector), ("--y", _vector)],
    "decompose": [("--points", st.just("{pts}")), ("--coeffs", _coeffs),
                  ("--report", st.sampled_from(["{out}", "{dir}"])),
                  ("--profile", st.sampled_from(["{out}", "{dir}"]))],
    "verify-relations": [("--coeffs", _coeffs), ("--height", _height), ("--trials", _count),
                         ("--threads", _threads), ("--seed", _seed)],
    "split-demo": [("--field", _field), ("--base", _base), ("--samples", _count),
                   ("--seed", _seed)],
    "plane-closure": [("--field", _field), ("--cap", st.integers(-1, 8).map(str)),
                      ("--extra", _vector), ("--max-generations", _count)],
}
_ALWAYS = {"--height", "--trials", "--samples"}


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, values in _OPTIONS[command]:
        if flag in _ALWAYS or draw(st.integers(0, 5)):
            argv += [flag, draw(values)]
    if not draw(st.integers(0, 15)):
        argv += draw(st.sampled_from([["--bogus"], ["--seed", "1"], ["--threads", "2"]]))
    return argv, draw(st.one_of(st.none(), _threads)), draw(_points_text)


@settings(max_examples=150, deadline=None)
@given(_cli_calls())
def test_no_cli_input_ends_in_a_traceback(call):
    argv, env_threads, points_text = call
    env = {} if env_threads is None else {"CUBIC_MW_THREADS": env_threads}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if env_threads is None:
            os.environ.pop("CUBIC_MW_THREADS", None)
        paths = {"out": os.path.join(tmp, "out"), "pts": os.path.join(tmp, "pts.txt"),
                 "dir": tmp}
        if points_text is not None:
            with open(paths["pts"], "w") as fh:
                fh.write(points_text)
        # any exception but SystemExit escaping main ends in a traceback, and fails here
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([a.format(**paths) for a in argv])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
