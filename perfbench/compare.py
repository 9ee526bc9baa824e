#!/usr/bin/env python3
"""Compares records taken by `perfbench/run.py --sets K --out <file>`.

    python3 perfbench/compare.py base.json new.json
    python3 perfbench/compare.py record.json

With two records, the new one is set against the base. With one, the
record's first half of sets is set against its second half: the check that
the benchmark repeats on the box the record was taken on.

For every end-to-end metric of BENCHMARK.json and every workload present on
both sides, the medians are compared and the pair is labelled:

  regressed   worse by more than the metric's bound
  improved    better by more than the bound
  unchanged   within the bound either way
  unresolved  the quartile spread (IQR / median) of either side is wider
              than the bound, so a change of that size cannot be told from
              run-to-run noise; it reads as improved only when every new run
              beats every base run. A workload with a run whose load
              generator ran late (lag p99 above 2 ms) is unresolved too.

Records with different hardware stamps (core count, CPU affinity, CPU
model, compiler, build type) are refused: their numbers do not compare.
Exit status: 0; 1 if anything regressed; 2 if the records cannot be
compared.
"""

import argparse
import json
import sys

from run import BENCHMARK_JSON, summarize

STAMP_KEYS = ("nproc", "affinity_cpus", "cpu_model", "compiler",
              "build_type")


def label(metric, base, new, valid):
    bound = metric["bound"]
    sign = -1.0 if metric["better"] == "higher" else 1.0
    worse = sign * (new["median"] - base["median"]) / base["median"]
    beats_all = all(sign * (n - b) < 0
                    for n in new["values"] for b in base["values"])
    if not valid or max(base["spread"], new["spread"]) > bound:
        return worse, "improved" if valid and beats_all else "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("new", nargs="?")
    args = p.parse_args()
    with open(BENCHMARK_JSON) as f:
        metrics = json.load(f)["end_to_end"]
    with open(args.base) as f:
        base = json.load(f)
    if args.new:
        with open(args.new) as f:
            new = json.load(f)
        differ = [k for k in STAMP_KEYS
                  if base["hardware"].get(k) != new["hardware"].get(k)]
        if differ:
            for k in differ:
                print("hardware differs in %s: %r vs %r"
                      % (k, base["hardware"].get(k), new["hardware"].get(k)))
            print("refusing to compare records taken on different hardware")
            return 2
        base_runs, new_runs = base["runs"], new["runs"]
    else:
        half = base["settings"]["sets"] // 2
        base_runs = [r for r in base["runs"] if r["set"] < half]
        new_runs = [r for r in base["runs"] if r["set"] >= half]

    regressed = 0
    print("%-16s %-15s %12s %12s %8s %9s %9s  %s" % (
        "workload", "metric", "base", "new", "change", "base IQR",
        "new IQR", "verdict"))
    workloads = list(dict.fromkeys(r["workload"] for r in base_runs))
    for w in workloads:
        mine = [r for r in base_runs if r["workload"] == w]
        theirs = [r for r in new_runs if r["workload"] == w]
        valid = all(r["valid"] for r in mine + theirs)
        if len(mine) < 2 or len(theirs) < 2:
            continue
        for m in metrics:
            b = summarize([r["metrics"][m["name"]] for r in mine])
            n = summarize([r["metrics"][m["name"]] for r in theirs])
            worse, verdict = label(m, b, n, valid)
            regressed += verdict == "regressed"
            print("%-16s %-15s %12.4f %12.4f %+7.1f%% %8.1f%% %8.1f%%  %s" % (
                w, m["name"], b["median"], n["median"], 100 * worse,
                100 * b["spread"], 100 * n["spread"], verdict))
    print("(change: + is worse; bounds from BENCHMARK.json)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
