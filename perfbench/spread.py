"""Run the benchmark on several seeds; report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads weights-disk ...] [--trace 0]
                                [--out perfbench/results/FILE.json]

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) as a share of their
median.  Runs go one after another, with the command, run length and
bounds taken from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {"seconds": bench["run_seconds"], "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                raise SystemExit("%s seed %d exited %d" % (workload, seed, done.returncode))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            print("%s seed %d: correct %s, failed %d/%d" % (workload, seed, result["correct"],
                                                            result["failed"], result["attempted"]))
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0,
                          "bound": bounds.get(name), "values": values}
            bound = bounds.get(name)
            print("  %-28s median %12.6g  spread %6.2f%%  %s" % (
                name, med, 100 * rows[name]["spread"],
                "" if bound is None else "bound %.0f%% (a third: %.1f%%)" % (100 * bound, 100 * bound / 3)))
        summary["workloads"][workload] = {
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "metrics": rows,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
