"""Replay the fixed outputs under each interpreter and hash seed.

    python3 scripts/check_outputs.py PYTHON [PYTHON ...]

Under every PYTHON given and PYTHONHASHSEED 0, 1 and 2, runs
scripts/tour.py and scripts/s_family_census.py --max-total 8
--max-blocks 3 against their goldens in tests/golden, and every README
example, as tests/test_readme.py reads them, against the stdout and the
exit code the README shows. Prints each run that differs on stderr, then
one summary line, and exits 1 when any run differs. Standard library
only; the package is imported from src/.
"""

import os
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from test_readme import readme_examples  # noqa: E402

SEEDS = ("0", "1", "2")
SCRIPTS = [(["tour.py"], "tour.txt"),
           (["s_family_census.py", "--max-total", "8", "--max-blocks", "3"], "census.txt")]


def replay(python: str, seed: str) -> tuple[int, list[str]]:
    """The number of runs under python and seed, and the ones that differ."""
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    files, examples = readme_examples()
    differ = []
    for args, golden in SCRIPTS:
        r = subprocess.run([python, str(ROOT / "scripts" / args[0]), *args[1:]],
                           capture_output=True, env=env)
        if (r.returncode, r.stdout) != (0, (ROOT / "tests" / "golden" / golden).read_bytes()):
            differ.append(" ".join(args))
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        for command, want in examples:  # in README order: a '> FILE' feeds later ones
            code = re.search(r"#\s*exit code (\d)", command)
            argv = shlex.split(command, comments=True)
            target = None
            if ">" in argv:
                i = argv.index(">")
                argv, target = argv[:i], argv[i + 1]
            r = subprocess.run([python, "-m", *argv], cwd=work, capture_output=True, env=env)
            if target is not None:
                Path(work, target).write_bytes(r.stdout)
            shown = r.stdout if target is None else b""
            if (r.returncode, shown) != (int(code[1]) if code else 0, want.encode()):
                differ.append(command)
    return len(SCRIPTS) + len(examples), [f"{python} seed {seed}: {d}" for d in differ]


def main(pythons: list[str]) -> int:
    if not pythons:
        sys.stderr.write("usage: check_outputs.py PYTHON [PYTHON ...]\n")
        return 2
    versions = [subprocess.run([p, "-c", "import platform; print(platform.python_version())"],
                               capture_output=True, text=True, check=True).stdout.strip()
                for p in pythons]
    with ThreadPoolExecutor(max_workers=len(SEEDS)) as pool:
        results = list(pool.map(replay, *zip(*[(p, s) for p in pythons for s in SEEDS])))
    differ = [d for _, ds in results for d in ds]
    for d in differ:
        sys.stderr.write(f"differs: {d}\n")
    print(f"outputs: {sum(n for n, _ in results)} runs under Python {', '.join(versions)}"
          f" and hash seeds {', '.join(SEEDS)}: {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
