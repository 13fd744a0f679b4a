"""Self-test of the answer checks: planted wrong answers must fail.

    python3 perfbench/selftest.py

Runs a few invocations in this process, confirms that their real outputs
pass, then plants a flipped verdict, an off-by-one congruence count, an
associativity witness that holds and a bijection that breaks a product,
and confirms that each planted output is counted as a failed invocation.
Exits 0 when every plant is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def planted(workloads, res, edit, rc=None):
    obj = json.loads(res.out)
    edit(obj)
    return workloads.Result(res.rc if rc is None else rc, json.dumps(obj) + "\n", res.err)


def holding_triple(path):
    import oracle
    names, t = oracle.load(open(path, encoding="utf-8").read())
    n = len(t)
    return next([names[x], names[y], names[z]] for x in range(n) for y in range(n)
                for z in range(n) if not oracle.assoc_fails_at(t, x, y, z))


def main() -> int:
    workloads = run.load_program()
    work = run.BENCH / "work" / f"selftest-{os.getpid()}"
    ok = True
    try:
        cases = []
        for name, picks in (("axioms", ("verify-nassoc40",)),
                            ("congruences", ("simple-c7", "simple-c12", "iso-c12"))):
            sub = work / name
            sub.mkdir(parents=True)
            jobs = [j for j in workloads.build(name, 7, sub) if j.name in picks]
            _, results = run.replay(workloads, jobs)
            bad = run.check_round(jobs, results)
            print(f"real outputs of {', '.join(picks)}: {len(bad)} failed")
            ok &= not bad
            cases += [(j, results) for j in jobs]
        job = {j.name: (j, r) for j, r in cases}

        def flip(obj):
            obj["simple"] = not obj["simple"]

        def plus_one(obj):
            obj["congruences"] += 1

        def swap(obj):
            obj["bijection"][0], obj["bijection"][1] = obj["bijection"][1], obj["bijection"][0]

        verify_job, _ = job["verify-nassoc40"]
        triple = holding_triple(verify_job.argv[1])

        def holds(obj):
            obj["assoc_witness"] = triple

        plants = (("flipped verdict and exit code", "simple-c7", flip, 1),
                  ("flipped verdict", "simple-c12", flip, None),
                  ("off-by-one congruence count", "simple-c12", plus_one, None),
                  ("associativity witness that holds", "verify-nassoc40", holds, None),
                  ("bijection that breaks a product", "iso-c12", swap, None))
        for label, name, edit, rc in plants:
            j, results = job[name]
            wrong = dict(results)
            wrong[name] = planted(workloads, results[name], edit, rc)
            failures = run.check_round([j], wrong)
            caught = len(failures) == 1
            ok &= caught
            print(f"{'caught' if caught else 'MISSED'}: {label} in {name}"
                  + (f" ({failures[0].split(': ', 1)[1]})" if caught else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
