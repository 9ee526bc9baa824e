#!/usr/bin/env python3
"""The repository benchmark: builds the harness, runs it, reports metrics.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1

prints every metric by name with its unit and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json for --trace 0, its per-layer metrics for --trace 1.

A record (K sets; each set runs every workload once, one process per run,
with the workload order rotated from set to set):

    python3 perfbench/run.py --sets 5 --out record.json [--seconds 15]
        [--seed 1] [--traced] [--cpus 0]

writes per-run values, medians and quartiles, and a hardware stamp. With
--traced it adds one traced run per workload, whose spans go to
<record>.<workload>.trace.json. --cpus runs every process under taskset, so
a 1-core record can be taken; compare.py refuses to compare records whose
stamps differ.

    python3 perfbench/run.py --smoke

runs every workload for 2 s, untraced and traced, with every check on.

The program is built from source into $CARGO_TARGET_DIR (default
.bench_build) before anything runs; an up-to-date build costs a second.
"""

import argparse
import datetime
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
# A run that needs longer than this is wedged; the harness itself takes
# about --seconds plus 5 s.
RUN_TIMEOUT_S = 170
# The load generator's lateness above which a run's timings are invalid.
MAX_LAG_P99_MS = 2.0


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


_run_ids = itertools.count()


def run_harness(binary, workload, seed, seconds, trace, trace_out=None,
                cpus=None):
    """Runs the harness once in a fresh directory (its fleet sockets and
    snapshot live there). Returns (exit code, human lines, result dict or
    None)."""
    workdir = os.path.join(build_dir(), "runs",
                           "%s-%d-%d-%d" % (workload, seed, os.getpid(),
                                            next(_run_ids)))
    os.makedirs(workdir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if cpus:
        cmd = ["taskset", "-c", cpus] + cmd
    # Its own process group: a timeout kills the fleet workers it spawned too.
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        return 1, ["perfbench: %s timed out" % workload], None
    shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, lines, None
    return proc.returncode, lines[:-1], result


def pick(result, declared):
    """The declared metrics of a harness result; raises on a missing name or
    a unit that differs from BENCHMARK.json."""
    chosen = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            raise ValueError("metric %s missing or not in %s: %r"
                             % (m["name"], m["unit"], got))
        chosen[m["name"]] = got
    return chosen


def one_run(args):
    spec = load_spec()
    binary = build()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
        trace_out = os.path.join(build_dir(), "traces", "%s-seed%d.trace.json"
                                 % (args.workload, args.seed))
    code, lines, result = run_harness(binary, args.workload, args.seed,
                                      args.seconds, args.trace, trace_out,
                                      args.cpus)
    for line in lines:
        print(line)
    if result is None:
        sys.exit("perfbench: the harness printed no result")
    try:
        metrics = pick(result, declared)
    except ValueError as e:
        sys.exit("perfbench: %s" % e)
    print("%s metrics of %s:" % ("per-layer" if args.trace else "end-to-end",
                                 args.workload))
    for name, m in metrics.items():
        print("  %-42s %r %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return code


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_list(text):
    cpus = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        cpus.update(range(int(lo), int(hi or lo) + 1))
    return sorted(cpus)


def hardware_stamp(cpus):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            found = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            model = found.group(1).strip() if found else model
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
        if sha and subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                  capture_output=True, text=True).stdout:
            sha += "-dirty"  # taken from uncommitted changes on top of it
    except OSError:
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": cpu_list(cpus) if cpus else
        sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "compiler": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_sha": sha or "unknown",
    }


def summarize(values):
    """Median and quartiles as statistics.quantiles(n=4) gives them, and the
    quartile distance as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def record(args):
    spec = load_spec()
    binary = build()
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    seed = args.seed
    failures = 0
    for s in range(args.sets):
        shift = s % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            code, lines, result = run_harness(binary, w, seed, args.seconds,
                                              0, cpus=args.cpus)
            seed += 1
            if result is None or code != 0:
                failures += 1
                print("\n".join(lines), file=sys.stderr)
                print("set %d %-16s FAILED (exit %d)" % (s, w, code))
                continue
            lag = result["checks"].get("loadgen_lag_p99_ms", 0.0)
            runs.append({"set": s, "workload": w, "seed": result["seed"],
                         "valid": lag <= MAX_LAG_P99_MS,
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()},
                         "checks": result["checks"]})
            print("set %d %-16s seed %-5d %s%s" % (
                s, w, result["seed"],
                "  ".join("%s=%.4g" % (k, v["value"])
                          for k, v in result["metrics"].items()),
                "" if lag <= MAX_LAG_P99_MS else
                "  INVALID: loadgen lag p99 %.2f ms" % lag))
            sys.stdout.flush()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary = {}
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        if not mine:
            continue
        summary[w] = {name: dict(summarize([r["metrics"][name] for r in mine]),
                             unit=unit)
                      for name, unit in units.items()}

    traced = {}
    if args.traced:
        stem = os.path.splitext(os.path.abspath(args.out))[0]
        for w in workloads:
            trace_out = "%s.%s.trace.json" % (stem, w)
            code, lines, result = run_harness(binary, w, seed, args.seconds, 1,
                                              trace_out, args.cpus)
            seed += 1
            if result is None or code != 0:
                failures += 1
                print("\n".join(lines), file=sys.stderr)
                print("traced %-16s FAILED (exit %d)" % (w, code))
                continue
            layer = dict(result["metrics"])
            if w in summary:
                untraced = summary[w]["goodput_per_s"]["median"]
                layer["obs.traced_goodput_ratio"] = {
                    "value": (layer["obs.traced_goodput_per_s"]["value"]
                              / untraced if untraced else 0.0),
                    "unit": "fraction"}
            traced[w] = {"seed": result["seed"], "metrics": layer,
                         "checks": result["checks"],
                         "self_ms": result["self_ms"],
                         "trace_file": os.path.basename(trace_out)}
            print("traced %-16s seed %d -> %s" % (w, result["seed"],
                                                   os.path.basename(trace_out)))

    out = {
        "benchmark": "perfbench",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "hardware": hardware_stamp(args.cpus),
        "settings": {"sets": args.sets, "seconds": args.seconds,
                     "first_seed": args.seed, "workloads": workloads},
        "summary": summary,
        "traced": traced,
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print("\n%-16s %-16s %14s %9s  %s" % ("workload", "metric", "median",
                                          "IQR/med", "unit"))
    for w, metrics in summary.items():
        for name, s in metrics.items():
            print("%-16s %-16s %14.4f %8.1f%%  %s" % (
                w, name, s["median"], 100 * s["spread"], s["unit"]))
    print("wrote %s" % args.out)
    return 1 if failures else 0


def smoke(args):
    spec = load_spec()
    binary = build()
    bad = 0
    for w in (m["name"] for m in spec["workloads"]):
        for trace in (0, 1):
            code, lines, result = run_harness(binary, w, args.seed, 2.0, trace,
                                              cpus=args.cpus)
            ok = code == 0 and result is not None and result["correct"]
            if ok:
                try:
                    pick(result, spec["per_layer" if trace else "end_to_end"])
                except ValueError as e:
                    ok = False
                    lines.append(str(e))
            bad += not ok
            print("smoke %-16s trace %d: %s" % (w, trace, "ok" if ok else
                                                 "FAILED"))
            if not ok:
                print("\n".join(lines))
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sets", type=int, help="take a record of K sets")
    p.add_argument("--out", help="record file (with --sets)")
    p.add_argument("--traced", action="store_true",
                   help="add one traced run per workload (with --sets)")
    p.add_argument("--cpus", help="taskset CPU list, e.g. 0 or 0-3")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.smoke:
        return smoke(args)
    if args.sets:
        if not args.out:
            p.error("--sets needs --out")
        return record(args)
    if not args.workload:
        p.error("give --workload, --sets or --smoke")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
