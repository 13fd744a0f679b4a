"""scripts/tour.py prints a fixed text: the golden below is its whole stdout."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tour_output_matches_golden():
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "tour.py")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (ROOT / "tests" / "golden" / "tour.txt").read_text(encoding="utf-8")
