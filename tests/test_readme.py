"""The command-line examples in README.md, run as written.

Every `$ hypergroups ...` line of an sh block runs in one temporary
directory, in README order, after each plain block that starts with
`# NAME.trame:` is written there as NAME.trame; a `> FILE` redirect
writes stdout to FILE. Stdout must equal the lines shown under the
command, and the exit code the one a `# exit code N` comment names (0
when there is none).
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def readme_examples():
    """(trame files by name, [(command line, expected stdout)])."""
    blocks = FENCE.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    files = {}
    for lang, body in blocks:
        m = re.match(r"# (\S+\.trame):", body)
        if not lang and m:
            files[m[1]] = body
    runs = []
    for lang, body in blocks:
        if lang != "sh":
            continue
        current = None
        for line in body.splitlines():
            if line.startswith("$ hypergroups "):
                current = [line[2:], ""]
                runs.append(current)
            elif line.strip() and current is not None:
                current[1] += line + "\n"
            else:
                current = None
    return files, runs


def test_readme_examples(tmp_path):
    files, runs = readme_examples()
    assert {"pair.trame", "tot.trame"} <= set(files) and len(runs) >= 7
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for command, want in runs:
        code = re.search(r"#\s*exit code (\d)", command)
        argv = shlex.split(command, comments=True)
        target = None
        if ">" in argv:
            i = argv.index(">")
            argv, target = argv[:i], argv[i + 1]
        r = subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
        assert r.returncode == (int(code[1]) if code else 0), (command, r.stderr)
        if target is None:
            assert r.stdout == want, command
        else:
            (tmp_path / target).write_text(r.stdout)
            assert want == "", command
