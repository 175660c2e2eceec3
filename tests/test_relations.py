import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_suites_give_up_when_every_draw_is_skipped():
    # every pair of these Fermat points spans the line x1+x2 = x3+x4 = 0, which
    # lies on the surface, so no draw can be tested; run apart so a hang is cut
    code = (
        "from cubicmw import CubicSurface, PointRegistry, normalize, surface_point\n"
        "from cubicmw.errors import DegenerateSample\n"
        "from cubicmw.relations import involution_suite, sextuple_suite\n"
        "s = CubicSurface.diagonal((1, 1, 1, 1))\n"
        "pts = [(0, 0, 1, -1), (1, -1, 0, 0), (1, -1, 1, -1), (1, -1, -1, 1)]\n"
        "reg = PointRegistry(s, 4, [surface_point(s, normalize(p)) for p in pts])\n"
        "for suite in (involution_suite, sextuple_suite):\n"
        "    try:\n"
        "        suite(reg, 5)\n"
        "    except DegenerateSample as exc:\n"
        "        print(exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.stdout.splitlines() == [
        "involution: 501 draws skipped before 5 trials were made",
        "sextuple relation: 501 draws skipped before 5 trials were made",
    ], out.stderr
