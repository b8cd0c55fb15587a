"""Run bench/run.py over many seeds and summarise, for baselines and
before/after comparisons.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--traced]
                             [--out FILE]

Runs one after another, from the checkout root, with the run length from
BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1) /
median next to the metric's bound.  Workload-only timings are summarised
the same way from the files run.py leaves in .bench_out/.  --traced adds one
traced run per workload, on the first seed, and records its per-layer
metrics and the largest self time in each task.  --out writes everything
as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, done.stderr))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))) as fh:
        saved = json.load(fh)
    return result, saved


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "logical_cpus": os.cpu_count(), "python": platform.python_version()}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(prog="bench/collect.py")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        e2e, details, runs = {}, {}, []
        for seed in args.seeds:
            result, saved = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for name, m in result["metrics"].items():
                e2e.setdefault(name, []).append(m["value"])
            for name, m in saved["details"].items():
                details.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(result["metrics"])), flush=True)
        entry = {"runs": runs,
                 "end_to_end": {k: summarise(v) for k, v in e2e.items()},
                 "details": {k: summarise(v) for k, v in details.items()}}
        for name, s in entry["end_to_end"].items():
            print("%-12s %-12s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  (bound %s)"
                  % (workload, name, s["median"], s["q1"], s["q3"], s["spread"],
                     bounds.get(name)), flush=True)
        if args.traced:
            result, saved = run_once(workload, args.seeds[0], spec["run_seconds"], 1)
            tasks = run.task_totals(saved["tasks"])
            entry["traced"] = {
                "seed": args.seeds[0],
                "correct": result["correct"],
                "per_layer": {k: m["value"] for k, m in result["metrics"].items()},
                "details": {k: m["value"] for k, m in saved["details"].items()},
                "task_self_s": {name: dict(sorted(acc.items(), key=lambda kv: -kv[1]))
                                for name, acc in tasks.items()},
            }
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
