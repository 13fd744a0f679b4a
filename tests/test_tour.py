"""The scripts print fixed texts: each golden below is one script's whole stdout."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args, golden", [
    pytest.param(["tour.py"], "tour.txt", id="tour"),
    pytest.param(["s_family_census.py", "--max-total", "8", "--max-blocks", "3"], "census.txt",
                 id="census"),
])
def test_tour_output_matches_golden(args, golden):
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (ROOT / "tests" / "golden" / golden).read_text(encoding="utf-8")
