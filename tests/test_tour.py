"""The scripts print fixed texts: each golden below is one script's whole
stdout, under each of two hash seeds."""

import os
import pathlib
import platform
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("hashseed", ["0", "1"], ids=lambda seed: f"hashseed{seed}")
@pytest.mark.parametrize("args, golden", [
    pytest.param(["tour.py"], "tour.txt", id="tour"),
    pytest.param(["s_family_census.py", "--max-total", "8", "--max-blocks", "3"], "census.txt",
                 id="census"),
])
def test_tour_output_matches_golden(args, golden, hashseed):
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": hashseed})
    assert r.returncode == 0, r.stderr
    assert r.stdout == (ROOT / "tests" / "golden" / golden).read_text(encoding="utf-8")


def test_check_outputs_passes_under_this_interpreter():
    # scripts/check_outputs.py replays both scripts and the README examples
    # under three hash seeds on any interpreters it is given; here on the
    # one running the tests
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "check_outputs.py"),
                        sys.executable], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert re.fullmatch(rf"outputs: \d+ runs under Python {platform.python_version()}"
                        r" and hash seeds 0, 1, 2: 0 differ\n", r.stdout), r.stdout
