"""Benchmark of the `hypergroups` command line, stdlib only.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds the workload's inputs from the
seed through the library in `src/`, then runs the workload's pinned verb
invocations (`python -m hypergroups ...`), one at a time, each in a fresh
process: a closed loop with one client. Each invocation is timed from
start to exit and its exit code and stdout are checked against
`oracle.py`. Whole rounds of the job list repeat until `--seconds` of
invocation time have passed; each invocation's time is the median of its
samples (see `measure`), each sample calibrated against the speed of the
machine at the time (see `CALIBRATION`).

With `--trace 1` the same invocations are replayed in this process through
`hypergroups.cli.main`, twice plain and once with spans around the public
functions of every module, and the per-layer metrics are reported.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. `--workload all` runs every workload and reports each metric as
`<workload>.<metric>`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PER_PASS = 1  # input builds after each pass, for setup_s
# Samples of a job per round, by kind. A round is PASSES passes over the
# job list; a job runs in SAMPLES[kind] of them, spread evenly. Light
# jobs are many and short, so their sum is steady with fewer samples.
SAMPLES = {"light": 4, "heavy": 5, "refuse": 7}
PASSES = max(SAMPLES.values())
INVOCATION_LIMIT_S = 170  # an invocation still running after this is killed

# The machine's speed flips between a fast and a slow state, about 1.5x
# apart, each lasting from half a second to a few seconds, and it drifts
# for minutes. So every timed sample is paired with a calibration: this
# fixed loop, which uses nothing of the library, timed just before and
# just after the sample by the process that times it. A sample counts as
# its seconds times CALIBRATION_REF_S over the mean of those two times:
# the seconds it would take on a machine where the loop takes
# CALIBRATION_REF_S, about this machine's median.
CALIBRATION = r"""
def calibrate(n=35):
    # the least seconds of three runs of a fixed loop of int, list and bit
    # operations like the library's; the least, so that a preemption in
    # one run does not count
    best = None
    for _ in range(3):
        start = time.perf_counter()
        t = [[(i * j) % n for j in range(n)] for i in range(n)]
        s = 0
        for a in range(n):
            for b in range(n):
                m = 0
                for c in t[a]:
                    m |= 1 << t[c][b]
                s += bin(m).count("1")
        dt = time.perf_counter() - start
        best = dt if best is None else min(best, dt)
    return best
"""
CALIBRATION_REF_S = 0.005
exec(CALIBRATION)


def calibrated(seconds: float, cal: float) -> float:
    return seconds * CALIBRATION_REF_S / cal


END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("light_s", "s"),
              ("refuse_s", "s"), ("peak_rss_mb", "MB"))


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_program_present() -> None:
    if not (SRC / "hypergroups" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'hypergroups'} is missing")


def load_program():
    """Import the library from this checkout's src/, and nothing else."""
    check_program_present()
    sys.path.insert(0, str(SRC))
    import hypergroups
    if Path(hypergroups.__file__).resolve().parent != (SRC / "hypergroups").resolve():
        fail(f"imported hypergroups from {hypergroups.__file__}, not from {SRC}")
    sys.path.insert(0, str(BENCH))
    import workloads
    return workloads


def build_inputs(workloads, name: str, seed: int, where: Path):
    """(jobs, calibrated seconds): the workload's inputs written afresh
    into where."""
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    before = calibrate()
    start = time.perf_counter()
    jobs = workloads.build(name, seed, where)
    elapsed = time.perf_counter() - start
    return jobs, calibrated(elapsed, (before + calibrate()) / 2)


# --- one invocation in a fresh process ---------------------------------------

# wait4 reports a child's peak resident set as at least the peak of the
# process that started it, so the invocations are started by this small
# launcher, begun before the harness loads anything, and not by the
# harness itself, whose memory would otherwise show in peak_rss_mb.
LAUNCHER = r"""
import json, os, signal, subprocess, sys, threading, time
child = None
""" + CALIBRATION + r"""

def stop(signum, frame):
    if child is not None:
        try:
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    os._exit(128 + signum)

signal.signal(signal.SIGTERM, stop)
limit = float(sys.argv[1])
for line in sys.stdin:
    argv, cwd, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        before = calibrate()
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=cwd)
        timer = threading.Timer(limit, child.kill)
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        elapsed = time.perf_counter() - start
        timer.cancel()
    after = calibrate()
    child.returncode = os.waitstatus_to_exitcode(status)
    child = None
    print(json.dumps([os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss,
                      (before + after) / 2]), flush=True)
"""


class Launcher:
    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, str(INVOCATION_LIMIT_S)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, work: Path):
        """(exit code, stdout, stderr, seconds from start to exit, peak RSS in
        MB, calibration seconds around it) of `python -m hypergroups argv`
        run in work."""
        out_path, err_path = work / "_stdout", work / "_stderr"
        request = [[sys.executable, "-m", "hypergroups", *argv], str(work),
                   str(out_path), str(err_path)]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        rc, elapsed, maxrss_kb, cal = json.loads(reply)
        return (rc, out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8"), elapsed, maxrss_kb / 1024.0, cal)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # still running an invocation
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


def check_round(jobs, results) -> list[str]:
    """Failure lines for the jobs of a pass; checks run after its timing."""
    failures = []
    for job in jobs:
        res = results[job.name]
        if "Traceback (most recent call last)" in res.err:
            bad = "traceback: " + res.err.strip().splitlines()[-1][:200]
        else:
            try:
                bad = job.check(res, results)
            except Exception:  # a check that crashes is a failed invocation
                bad = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if bad:
            failures.append(f"{job.name}: {bad}")
    return failures


def runs_in(job, p: int) -> bool:
    """Whether job runs in pass p of a round."""
    k = SAMPLES[job.kind]
    return p * k // PASSES != (p + 1) * k // PASSES


def measure(workloads, jobs, work: Path, seconds: float, rebuild, launcher: Launcher):
    """Rounds until `seconds` of invocation time have passed (see SAMPLES
    for what a round runs). A job's time is the median of its samples, so
    that a burst of load on the machine that slows one sample does not
    move it, and a metric sums those medians over its jobs. After each
    pass the inputs are built SETUP_PER_PASS more times by rebuild(),
    which returns the seconds taken; setup_s is the median of those times
    and the first build's, so spread over the whole run. Every time is
    calibrated (see CALIBRATION); the last value returned is the median
    calibration time, for the log."""
    launcher.run(["classify-s", "3", "3"], work)  # warm the bytecode cache, untimed
    samples = {job.name: [] for job in jobs}
    setup_times, calibration = [], []
    attempted, failures, peak_mb, measured, rounds = 0, [], 0.0, 0.0, 0
    results = {}
    while not rounds or measured < seconds:
        for p in range(PASSES):
            ran = [job for job in jobs if runs_in(job, p)]
            for job in ran:
                rc, out, err, dt, rss, cal = launcher.run(job.argv, work)
                calibration.append(cal)
                results[job.name] = workloads.Result(rc, out, err)
                if job.save_as is not None:
                    job.save_as.write_text(out, encoding="utf-8")
                samples[job.name].append(calibrated(dt, cal))
                measured += dt
                peak_mb = max(peak_mb, rss)
            attempted += len(ran)
            failures += check_round(ran, results)
            setup_times += [rebuild() for _ in range(SETUP_PER_PASS)]
        rounds += 1
    median = {name: statistics.median(v) for name, v in samples.items()}
    metrics = {"wall_s": sum(median.values()), "peak_rss_mb": peak_mb}
    for kind in ("light", "refuse"):
        metrics[f"{kind}_s"] = sum(median[job.name] for job in jobs if job.kind == kind)
    return metrics, setup_times, attempted, failures, rounds, statistics.median(calibration)


# --- traced replay in this process -------------------------------------------


def replay(workloads, jobs, tracer=None):
    """Every job through hypergroups.cli.main; (calibrated seconds, results)."""
    import hypergroups.cli as cli
    results = {}
    total = 0.0
    for i, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = i
        before = calibrate()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(job.argv)
            except SystemExit as e:  # argparse rejects its arguments
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = 1
        elapsed = time.perf_counter() - start
        total += calibrated(elapsed, (before + calibrate()) / 2)
        results[job.name] = workloads.Result(rc, out.getvalue(), err.getvalue())
        if job.save_as is not None:
            job.save_as.write_text(out.getvalue(), encoding="utf-8")
    return total, results


def traced(workloads, jobs, name: str, seed: int):
    import tracer as tracing
    # the first plain replay warms imports and caches for the two timed ones
    failures = []
    for _ in range(2):
        plain_s, results = replay(workloads, jobs)
        failures += check_round(jobs, results)
    t = tracing.Tracer()
    t.install()
    try:
        traced_s, results = replay(workloads, jobs, t)
    finally:
        t.uninstall()
    failures += check_round(jobs, results)
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    t.write(out_dir / f"spans-{name}-seed{seed}.json")
    return t.metrics(traced_s - plain_s), 3 * len(jobs), failures


# --- entry point -------------------------------------------------------------


def run_workload(workloads, name: str, seed: int, seconds: float, launcher):
    work = BENCH / "work" / f"{name}-{os.getpid()}"
    try:
        jobs, first_s = build_inputs(workloads, name, seed, work / "inputs")
        if launcher is None:
            metrics, attempted, failures = traced(workloads, jobs, name, seed)
        else:
            def rebuild():
                return build_inputs(workloads, name, seed, work / "again")[1]
            values, setup_times, attempted, failures, n_rounds, cal_s = measure(
                workloads, jobs, work / "inputs", seconds, rebuild, launcher)
            values["setup_s"] = statistics.median([first_s, *setup_times])
            print(f"{name}: {len(jobs)} invocations x {n_rounds} round(s); median "
                  f"calibration {cal_s * 1000:.2f} ms", file=sys.stderr)
            metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in failures:
        print(f"FAILED {name} {line}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["axioms", "congruences", "cosets", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # a terminated run still removes its work directory and its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    check_program_present()
    # The CPUs of the machine run at different speeds at any one time. This
    # process, the launcher and every invocation stay on one CPU, so that a
    # calibration measures the CPU that runs the sample it calibrates.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    launcher = None if args.trace else Launcher()
    try:
        workloads = load_program()
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        reports = {n: run_workload(workloads, n, args.seed, args.seconds, launcher)
                   for n in names}
    finally:
        if launcher is not None:
            launcher.close()
    if len(reports) == 1:
        result = reports[names[0]]
    else:
        for n, rep in reports.items():
            print(f"{n}: attempted {rep['attempted']}, failed {rep['failed']}")
            for metric, v in rep["metrics"].items():
                print(f"  {metric} = {v['value']:.6g} {v['unit']}")
        result = {"correct": all(r["correct"] for r in reports.values()),
                  "attempted": sum(r["attempted"] for r in reports.values()),
                  "failed": sum(r["failed"] for r in reports.values()),
                  "metrics": {f"{n}.{m}": v for n, r in reports.items()
                              for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
