import json

import pytest

from cubicmw import cli, enumerate_points
from cubicmw.cli import main


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


def test_verify_relations(capsys):
    code, stdout, _ = run(
        capsys, "verify-relations", "--height", "60", "--trials", "200"
    )
    assert code == 0
    assert "involution" in stdout and "0 failed" in stdout


def test_split_demo(capsys):
    code, stdout, _ = run(capsys, "split-demo", "--samples", "10", "--seed", "3")
    assert code == 0
    assert "surface:" in stdout
    assert "10 agreed" in stdout


def test_plane_closure_fp(capsys):
    code, stdout, _ = run(capsys, "plane-closure", "--field", "fp:7")
    assert code == 0
    assert "closure size 57" in stdout


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
    ],
    ids=["zero-coefficient", "empty-points", "missing-points", "bad-height-header",
         "too-few-points", "other-surface-header", "pair-values-beyond-int64",
         "closure-cap-over-fp", "closure-cap-zero", "closure-seed-above-cap",
         "closure-negative-generations", "closure-seed-in-p3", "threads-env-not-a-number",
         "threads-env-zero", "threads-env-negative", "five-coefficients", "three-coefficients",
         "all-zero-coefficients"],
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
