"""Measure every workload once untraced and once traced and print all metrics.

    python3 perfbench/baseline.py --seed 1 --seconds 36 [--out perfbench/baseline/NAME.json]

Prints one line per metric (workload, name, value, unit), then the per-job
median wall times.  With --out it also writes the numbers as JSON together
with a description of the machine they were taken on.  Exits non-zero if
any job failed its check.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import sys

import run
import workloads


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    report = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    ok = True
    for name in workloads.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            res = run.measure(name, args.seed, args.seconds, trace)
            ok = ok and res["correct"]
            entry["end_to_end" if trace == 0 else "per_layer"] = res["metrics"]
            if trace == 0:
                entry["jobs_s"] = res["jobs_s"]
                entry["passes"] = res["passes"]
        report["workloads"][name] = entry
        for section in ("end_to_end", "per_layer"):
            for metric, m in entry[section].items():
                print(f"{name:7s} {metric:34s} {m['value']:18.6f} {m['unit']}")
        for job, seconds in entry["jobs_s"].items():
            print(f"{name:7s} job {job:30s} {seconds:18.6f} s")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
