"""Run one benchmark workload against the jchlab CLI and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from `src/`, so
nothing is installed.  The workload's inputs are generated from --seed and
one warm-up command compiles the bytecode and fills the caches; that set-up
runs SETUP_REPEATS times and its median is `setup_s`.  Then the job list
runs in a closed loop with one client: each job is one `python -m
jchlab.cli` subprocess, started when the previous one has exited.  Passes
repeat while at least half of another fits in --seconds.  Every job's exit
status and output are checked on every pass.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 passes alternate between untraced and traced (jobs run through
shim.py) and it carries the per-layer metrics, including the tracing
overhead.  The exit status is 0 only when every job passed its check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(HERE, "shim.py")
WORK = os.path.join(ROOT, ".perfbench-work")

SETUP_REPEATS = 5
HARD_LIMIT_S = 170        # no job may run past this many seconds after start
WARMUP = ("turan", "--z", "4")


@dataclass(frozen=True)
class JobResult:
    wall: float         # seconds
    cpu: float          # user + sys seconds
    rss_kb: int         # peak resident set
    out_bytes: int      # size of the files the job wrote
    error: object       # None, or why the job failed its check


class Runner:
    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("JCHLAB_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.first_stdout = {}

    def spawn(self, argv, spans=None, job="warmup"):
        """Run one command; return (wall s, rusage, exit code, stdout, stderr)."""
        if spans is None:
            cmd = [sys.executable, "-m", "jchlab.cli", *argv]
        else:
            cmd = [sys.executable, SHIM, spans, job, "--", *argv]
        out_path = os.path.join(self.workdir, "job.out")
        err_path = os.path.join(self.workdir, "job.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            # wait without reaping, so a late kill can only hit our own zombie
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return wall, usage, proc.returncode, stdout, stderr

    def run(self, job, spans=None):
        wall, usage, code, stdout, stderr = self.spawn(job.argv, spans, job.name)
        error = None
        try:
            workloads.expect(code == job.exit,
                             f"exit {code}, expected {job.exit}: {stderr.strip()[-300:]}")
            if job.exit != 0:
                workloads.expect(stderr.count("\n") == 1 and "Traceback" not in stderr,
                                 f"refusal is not one stderr line: {stderr!r}")
            if job.check is not None:
                job.check(workloads.parse_records(stdout), self.workdir)
            first = self.first_stdout.setdefault(job.name, stdout)
            workloads.expect(stdout == first, "output differs from the first pass")
        except (workloads.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            error = f"{job.name}: {type(exc).__name__}: {exc}"
        out_bytes = sum(os.path.getsize(os.path.join(self.workdir, f))
                        for f in job.outputs
                        if os.path.exists(os.path.join(self.workdir, f)))
        return JobResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                         out_bytes, error)


def snapshot(workdir):
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def set_up(workload, runner, seed):
    """Set the run up SETUP_REPEATS times: generate the seeded inputs, then
    run the warm-up command (bytecode compiled, imports cached).  Returns the
    median seconds; every repeat must write the same input bytes."""
    times, first = [], None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(runner.workdir, ignore_errors=True)
        os.makedirs(runner.workdir)
        start = time.perf_counter()
        workload.setup(runner.workdir, seed)
        files = snapshot(runner.workdir)
        runner.spawn(WARMUP)
        times.append(time.perf_counter() - start)
        if first is None:
            first = files
        elif files != first:
            raise SystemExit("setup is not deterministic for one seed")
    other = runner.workdir + "-other-seed"
    os.makedirs(other)
    try:
        workload.setup(other, seed + 1)
        if snapshot(other) == first:
            raise SystemExit("setup writes the same inputs for another seed")
    finally:
        shutil.rmtree(other)
    return statistics.median(times)


def median_sum(passes, key):
    """Sum over jobs of each job's median over passes."""
    jobs = passes[0].keys()
    return sum(statistics.median(key(p[j]) for p in passes) for j in jobs)


def hd_median(values):
    """Harrell-Davis estimate of the median.

    A mean of the order statistics weighted by the Beta((n+1)/2, (n+1)/2)
    mass on each [(i-1)/n, i/n].  Job times are sparse near the middle, so
    the plain median jumps from one job to the next on small shifts; this
    estimate moves smoothly with them.
    """
    xs = sorted(values)
    n, per = len(xs), 200
    a = (n + 1) / 2
    grid = [(k / (per * n)) ** (a - 1) * (1 - k / (per * n)) ** (a - 1)
            for k in range(per * n + 1)]
    cells = [(grid[k] + grid[k + 1]) / 2 for k in range(per * n)]
    total = sum(cells)
    return sum(sum(cells[i * per:(i + 1) * per]) / total * x for i, x in enumerate(xs))


def end_to_end(passes, setup_s):
    job_walls = [statistics.median(p[j].wall for p in passes) for j in passes[0]]
    return {
        "wall_s": (sum(job_walls), "s"),
        "cpu_s": (median_sum(passes, lambda r: r.cpu), "s"),
        "job_p50_s": (hd_median(job_walls), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_kb for r in p.values()) / 1024
                                          for p in passes), "MB"),
        "out_bytes": (statistics.median(sum(r.out_bytes for r in p.values())
                                        for p in passes), "bytes"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(untraced, traced, span_sets):
    per_pass = [layers.pass_metrics(spans) for spans in span_sets]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_frac"] = (median_sum(traced, lambda r: r.wall)
                                  / median_sum(untraced, lambda r: r.wall) - 1.0)
    return {name: (out[name], unit) for name, unit in layers.METRICS.items()}


def measure(name, seed, seconds, trace):
    """Set up, warm up and run passes of one workload; returns the result
    object, per-job median wall seconds and the pass durations."""
    start = time.monotonic()
    workload = workloads.WORKLOADS[name]
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    untraced, traced, span_sets, durations = [], [], [], []
    errors, attempted = [], 0
    try:
        runner = Runner(workdir, start + HARD_LIMIT_S)
        setup_s = set_up(workload, runner, seed)
        jobs = workload.jobs(seed)
        if trace:
            runner.spawn(WARMUP, os.path.join(workdir, "warmup.spans"))
        measure_start = time.monotonic()
        while not errors:
            elapsed = time.monotonic() - measure_start
            # start another pass while at least half of a typical one fits
            if len(durations) >= (2 if trace else 1) \
                    and elapsed + statistics.median(durations) / 2 > seconds:
                break
            tracing = bool(trace) and len(durations) % 2 == 1
            pass_start = time.monotonic()
            results, spans = {}, []
            for job in jobs:
                spans_path = os.path.join(workdir, f"{job.name}.spans") if tracing else None
                results[job.name] = runner.run(job, spans_path)
                attempted += 1
                if results[job.name].error:
                    errors.append(results[job.name].error)
                if tracing:
                    try:
                        with open(spans_path) as fh:
                            spans.append(json.load(fh))
                    except (OSError, ValueError) as exc:
                        errors.append(f"{job.name}: no spans: {exc}")
            durations.append(time.monotonic() - pass_start)
            (traced if tracing else untraced).append(results)
            if tracing:
                span_sets.append(spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    if errors:
        metrics = {}
    elif trace:
        metrics = per_layer(untraced, traced, span_sets)
    else:
        metrics = end_to_end(untraced, setup_s)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m: {"value": value, "unit": unit} for m, (value, unit) in metrics.items()},
        "errors": errors,
        "jobs_s": {j: statistics.median(p[j].wall for p in untraced)
                   for j in (untraced[0] if untraced else {})},
        "passes": durations,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jchlab", "cli.py")):
        print(f"no jchlab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    res = measure(args.workload, args.seed, args.seconds, args.trace)
    for err in res["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    for job, seconds in res["jobs_s"].items():
        print(f"{args.workload:7s} job {job:30s} {seconds:10.3f} s", file=sys.stderr)
    for metric, m in res["metrics"].items():
        print(f"{args.workload:7s} {metric:34s} {m['value']:16.6f} {m['unit']}",
              file=sys.stderr)
    print(f"{args.workload}: {len(res['passes'])} passes, seconds "
          f"{[round(d, 2) for d in res['passes']]}", file=sys.stderr)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
