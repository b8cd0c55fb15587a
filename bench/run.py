"""nilalg benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports nilalg from ./src and writes
only .bench_out/ and Python's bytecode caches.  Workloads: degree_scan,
reduce_q, invariants (see bench/workloads.py and bench/workloads.json).
Each runs in this one process and thread as a closed loop with one client:
the next operation starts when the previous one has returned.

--trace 0 runs whole passes until the next would end after S seconds (at
least one) and reports the end-to-end metrics: wall_s (median pass time),
setup_s (median of nine set-ups: this process and eight fresh ones, each
timing the import of nilalg plus input generation) and peak_rss_mb.

--trace 1 runs one untraced pass, then installs the layer tracer, runs the
same pass again, removes the tracer and reports the per-layer metrics,
trace.overhead_s (traced minus untraced pass time), trace.unattributed_s
(traced pass time outside every wrapped call) and each module's source
line count.  It also checks that the untraced passes ran the original
functions and that both passes gave identical verdicts.

Before the last line, every metric the workload defines is printed by name
with its unit and sample count, including the workload-only timings that
are not in BENCHMARK.json; the same data goes to .bench_out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_clock = time.perf_counter
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 8
MODULES = ("bounds", "cli", "formal", "ideal", "invariants", "polarize",
           "rewrite4", "words")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import plus input generation and print it")
    return parser.parse_args(argv)


def import_program():
    """Import nilalg from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "nilalg", "__init__.py")):
        raise SystemExit("bench: no src/nilalg under %s; run from a full checkout" % ROOT)
    sys.path.insert(0, SRC)
    import nilalg

    if not os.path.abspath(nilalg.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: nilalg imported from %s, not %s" % (nilalg.__file__, SRC))
    import workloads

    return workloads


def setup_probe(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def source_loc():
    """Non-blank, non-comment source lines of each module of the package."""
    out = {}
    pkg = os.path.join(SRC, "nilalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                loc = sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))
            out[name[:-3]] = loc
    metrics = {"%s.loc" % m: out[m] for m in MODULES}
    metrics["nilalg.loc"] = sum(out.values())
    return metrics


def timed_pass(workload, wl, tracer=None):
    run = wl.Run(tracer)
    t0 = _clock()
    workload.run_pass(run)
    return _clock() - t0, run.ops


def measure(args, wl, workload, setup_own):
    """--trace 0: passes until the time budget, plus set-up probes."""
    setups = [setup_own] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    walls, passes, failed = [], [], 0
    start = _clock()
    while True:
        wall, ops = timed_pass(workload, wl)
        failed += wl.check_ops(workload, ops)
        walls.append(wall)
        passes.append(ops)
        if _clock() - start + statistics.median(walls) > args.seconds:
            break
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    details = workload.details(passes)
    return metrics, details, sum(len(ops) for ops in passes), failed, True, {}


def measure_traced(args, wl, workload):
    """--trace 1: an untraced pass, then the same pass traced."""
    import nilalg
    import tracer as T

    modules = {m: sys.modules["nilalg." + m] for m in MODULES}
    tracer = T.Tracer(nilalg, modules)
    problems = []
    if tracer.wrappers_present():
        problems.append("wrappers present before the untraced pass")
    plain_wall, plain_ops = timed_pass(workload, wl)
    failed = wl.check_ops(workload, plain_ops)

    tracer.install()
    try:
        traced_wall, traced_ops = timed_pass(workload, wl, tracer)
    finally:
        tracer.uninstall()
    left = tracer.wrappers_present()
    if left:
        problems.append("wrappers left after uninstall: %s" % ", ".join(left))
    failed += wl.check_ops(workload, traced_ops)
    if wl.verdicts(plain_ops) != wl.verdicts(traced_ops):
        problems.append("traced and untraced verdicts differ")
    for text in problems:
        print("SELF-TEST FAILED: %s" % text, file=sys.stderr)

    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["trace.unattributed_s"] = traced_wall - tracer.covered
    layers.update(source_loc())
    metrics = {name: (value, unit_of(name), 1) for name, value in layers.items()}
    details = workload.details([traced_ops])
    details["traced_wall_s"] = (traced_wall, "s", 1)
    details["untraced_wall_s"] = (plain_wall, "s", 1)
    extra = {"tasks": tracer.task_breakdown(), "spans": list(tracer.span_records())}
    ops = len(plain_ops) + len(traced_ops)
    return metrics, details, ops, failed, not problems, extra


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".loc"):
        return "lines"
    return "count"


def task_totals(tasks):
    """Per task name: self seconds by layer, summed over the tasks of that name."""
    by_name = {}
    for t in tasks:
        acc = by_name.setdefault(t["name"], {})
        for layer, s in t["self_s"].items():
            acc[layer] = acc.get(layer, 0.0) + s
    return by_name


def write_outputs(args, result, details, extra):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    spans = extra.pop("spans", None)
    if spans is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "details": details, **extra}, fh, indent=1)


def main(argv=None):
    t_start = _clock()
    args = parse_args(argv)
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        raise SystemExit("bench: unknown workload %r (have %s)"
                         % (args.workload, ", ".join(sorted(wl.WORKLOADS))))
    workload = wl.WORKLOADS[args.workload](args.seed)
    setup_own = _clock() - t_start
    if args.setup_probe:
        print(repr(setup_own))
        return 0

    if args.trace:
        metrics, details, attempted, failed, selftest_ok, extra = measure_traced(args, wl, workload)
    else:
        metrics, details, attempted, failed, selftest_ok, extra = measure(
            args, wl, workload, setup_own)

    for name, (value, unit, samples) in list(metrics.items()) + list(details.items()):
        print("%-36s %14.6f %-6s (%d sample%s)"
              % (name, value, unit, samples, "" if samples == 1 else "s"))
    if "tasks" in extra:
        for name, acc in sorted(task_totals(extra["tasks"]).items()):
            layer, s = max(acc.items(), key=lambda kv: kv[1])
            print("largest self time in %-20s %-36s %.4f s" % (name, layer, s))
    result = {
        "correct": failed == 0 and selftest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    write_outputs(args, result, {k: {"value": v, "unit": u, "samples": n}
                                 for k, (v, u, n) in details.items()}, extra)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
