"""starcycle benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload weights-disk --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics.  It runs whole cycles of the
workload's ops, as many as took --seconds at the commit that defined the
benchmark (the workload's CYCLE_SECONDS), so every commit does the same
work and the tail percentile is taken over the same number of ops.  Times
are scaled to a reference machine speed with the readings that
probe.Sampler takes all through the run; the raw wall-clock figures are
printed beside them.
--trace 1 runs a warm-up cycle, one cycle untraced and the same cycle
traced, and reports the per-layer split.  Every op is checked against perfbench/oracle.py.  The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat the metrics for people.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import oracle
import probe
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
# A run may measure at most this multiple of --seconds, so that a machine
# much slower than the nominal one still ends every run in its budget.
OVERRUN = 1.4
# import plus the first WeightTable.builtin(), timed inside a fresh interpreter
# with the machine-speed sampler running; prints (scaled, raw) seconds
SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import probe; "
              "s = probe.Sampler(sys.argv[3]); s.start(); a = time.perf_counter(); "
              "import starcycle; starcycle.WeightTable.builtin(); b = time.perf_counter(); "
              "s.stop(); print(*map(repr, s.scaled(a, b)))")
# import is interpreter work plus loading numpy's shared libraries
SETUP_READING = "interpreter+pages"
SPEEDUP_GRAPH = "2;2;b1,2|b2,1"  # the ROADMAP baseline graph
SPEEDUP_SAMPLES = 1 << 20
SPEEDUP_SEED = 5


def nproc():
    return len(os.sched_getaffinity(0))


def measure_setup():
    """(scaled, raw) median set-up seconds over SETUP_REPEATS interpreters."""
    env = {k: v for k, v in os.environ.items() if k != "STARCYCLE_THREADS"}
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, HERE, SETUP_READING],
                              env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        setup, raw_setup = map(float, done.stdout.split())
        scaled.append(setup)
        raw.append(raw_setup)
    return statistics.median(scaled), statistics.median(raw)


def tail(values):
    """(percentile, value): the highest whole percentile with at least 10
    ops beyond it, by nearest rank."""
    xs = sorted(values)
    n = len(xs)
    pct = max(math.floor(100 * (n - 10) / n), 0) if n > 10 else 0
    rank = max(math.ceil(pct * n / 100), 1)
    return pct, xs[rank - 1]


def run_cycle(workload):
    """(ops, blobs, steps) of one pass; steps holds the (start, end) of each step."""
    ops, blobs, steps = [], [], []
    for step in workload.steps:
        start = perf_counter()
        step_ops, blob = step()
        steps.append((start, perf_counter()))
        ops.extend(step_ops)
        blobs.append(blob)
    return ops, blobs, steps


def run_cycles(workload, seconds):
    """(ops, steps, sampler, cycles, mismatches) of round(seconds /
    CYCLE_SECONDS) whole cycles, with the machine-speed sampler running; fewer
    cycles if the first one shows they would take over OVERRUN x seconds."""
    cycles = max(1, round(seconds / workload.CYCLE_SECONDS))
    with probe.Sampler(workload.READING) as sampler:
        start = perf_counter()
        ops, first, steps = run_cycle(workload)
        cycles = max(1, min(cycles, math.floor(OVERRUN * seconds / (perf_counter() - start))))
        mismatches = 0
        for _ in range(cycles - 1):
            cycle_ops, blobs, cycle_steps = run_cycle(workload)
            ops.extend(cycle_ops)
            steps.extend(cycle_steps)
            mismatches += sum(a != b for a, b in zip(first, blobs))
    return ops, steps, sampler, cycles, mismatches


def sampler_metrics(ops):
    """(samples per second of sampler time, mean over graphs of std_error^2 x seconds)."""
    sampled = [op for op in ops if op.samples]
    if not sampled:
        return 0.0, 0.0
    per_graph = {}
    for op in sampled:
        per_graph.setdefault(op.label, []).append(op.std_error ** 2 * op.seconds)
    rate = sum(op.samples for op in sampled) / sum(op.seconds for op in sampled)
    return rate, statistics.mean(statistics.mean(v) for v in per_graph.values())


def verdict(ops):
    """(correct, failed, lines).  Exact failures make the run incorrect;
    3-sigma misses count as failed ops and make it incorrect only when more
    distinct graphs miss than honest error bars allow."""
    failed = [op for op in ops if op.failure]
    exact = [op for op in failed if op.failure[0] == "exact"]
    sigma_graphs = {op.label for op in failed if op.failure[0] == "sigma"}
    limit = oracle.sigma_miss_limit(len({op.label for op in ops if op.samples}))
    lines = []
    seen = {}
    for op in failed:
        seen.setdefault((op.label, op.failure[1]), []).append(op)
    for (label, reason), group in seen.items():
        lines.append("miss: %s: %s (%d op%s)" % (label, reason, len(group), "s" * (len(group) > 1)))
    if sigma_graphs:
        lines.append("3-sigma misses on %d distinct graph(s); more than %d would be incorrect"
                     % (len(sigma_graphs), limit))
    return not exact and len(sigma_graphs) <= limit, len(failed), lines


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload):
    start = perf_counter()
    ops, steps, sampler, cycles, mismatches = run_cycles(workload, args.seconds)
    wall = perf_counter() - start
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seconds, raw = [], []
    for op in ops:
        scaled_s, op.seconds = sampler.scaled(op.start, op.start + op.seconds)
        seconds.append(scaled_s)
        raw.append(op.seconds)
    busy, raw_busy = map(sum, zip(*(sampler.scaled(a, b) for a, b in steps)))
    pct, tail_s = tail(seconds)
    rate, err2 = sampler_metrics(ops)
    correct, failed, lines = verdict(ops)
    correct = correct and not mismatches and workload.coverage
    setup_s, raw_setup_s = args.setup_s
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(ops) / busy, "1/s"),
        "op_s_p50": metric(statistics.median(seconds), "s"),
        "op_s_tail": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_mib, "MiB"),
    }
    raw_metrics = [raw_setup_s, len(ops) / raw_busy, statistics.median(raw), tail(raw)[1], peak_mib]
    print("workload %s, seed %d: %d ops in %d cycle(s), %.2f s; speed %.4f of the reference, "
          "from %d readings (%.1f%% of the run)"
          % (workload.name, args.seed, len(ops), cycles, wall, busy / raw_busy,
             len(sampler.spans), 100 * sum(sampler.spans) / wall))
    print("  %-18s %12s %12s" % ("", "scaled", "raw"))
    for (name, m), raw_value in zip(metrics.items(), raw_metrics):
        print("  %-18s %12.6g %12.6g %s" % (name, m["value"], raw_value, m["unit"]))
    print("  %-18s %12s (percentile p%d of %d ops)" % ("", "", pct, len(ops)))
    print("  %-18s %12s %d/%d" % ("failed_share", "", failed, len(ops)))
    if rate:
        print("  %-18s %12.6g 1/s" % ("mc_samples_per_s", rate))
        print("  %-18s %12.6g s" % ("mc_err2_x_s", err2))
    if mismatches:
        print("  %d step report(s) differ between cycles" % mismatches)
    if not workload.coverage:
        print("  the graphs run do not match the exact table's 36 order-2 graphs")
    for line in lines:
        print("  " + line)
    return correct, len(ops), failed, metrics


def speedup(sc, name):
    """(1-thread seconds / nproc-thread seconds, same entry?) on one fixed graph."""
    graph = sc.AdmissibleGraph.from_key(SPEEDUP_GRAPH)
    if name == "weights-disk":
        ctx = sc.AngleContext.standard((0.0, 0.0, 1.0))
        run = lambda t: sc.weights.compute_weight(graph.add_boundary_vertex(), ctx,
                                                  SPEEDUP_SAMPLES, SPEEDUP_SEED, threads=t)
    else:
        run = lambda t: sc.weights.halfplane_weight(graph, SPEEDUP_SAMPLES, SPEEDUP_SEED, threads=t)
    times, entries = [], []
    for threads in (1, nproc()):
        start = perf_counter()
        entries.append(run(threads))
        times.append(perf_counter() - start)
    return times[0] / times[1], entries[0] == entries[1]


def per_layer(args, sc, workload, make_workload):
    warm_ops, warm_blobs, _ = run_cycle(workload)
    probes = [probe.probe() for _ in range(5)]
    start = perf_counter()
    plain_ops, plain_blobs, _ = run_cycle(workload)
    plain_wall = perf_counter() - start
    probes += [probe.probe() for _ in range(5)]

    tr = tracer.Tracer()
    tr.install()
    try:
        start = perf_counter()
        traced_ops, traced_blobs, _ = run_cycle(workload)
        wall = perf_counter() - start
    finally:
        tr.uninstall()
    identical = warm_blobs == plain_blobs == traced_blobs

    stats, root_s = tracer.summarize(tr.spans)
    unattributed = wall - root_s

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def notes(name):
        return stats.get(name, {}).get("notes", {})

    accounted = sum(row["self_s"] for row in stats.values()) + unattributed
    balanced = abs(accounted - wall) <= 1e-6 * max(wall, 1.0)

    samples = notes("weights.kernel").get("samples", 0)
    rejected = notes("weights.kernel").get("rejected", 0)
    contracted, _ = tracer.children_of(tr.spans, "star.assemble", "star.contract")
    _, enumerated = tracer.children_of(tr.spans, "star.assemble", "graphs.star_graphs")
    threads_same = True
    thread_speedup = 0.0
    if workload.name.startswith("weights"):
        thread_speedup, threads_same = speedup(sc, workload.name)
    if workload.name == "weights-disk":
        _, nproc_blobs, _ = run_cycle(make_workload(threads=nproc()))
        threads_same = threads_same and nproc_blobs == plain_blobs
    rate, err2 = sampler_metrics(plain_ops)

    metrics = {
        "weights.det_s": metric(self_s("weights.det"), "s"),
        "weights.det_calls": metric(calls("weights.det"), "count"),
        "weights.kernel_self_s": metric(self_s("weights.kernel"), "s"),
        "weights.samples": metric(samples, "count"),
        "weights.reject_share": metric(rejected / samples if samples else 0.0, "share"),
        "weights.thread_speedup": metric(thread_speedup, "ratio"),
        "weights.mc_samples_per_s": metric(rate, "1/s"),
        "weights.mc_err2_x_s": metric(err2, "s"),
        "graphs.star_graphs_s": metric(self_s("graphs.star_graphs"), "s"),
        "graphs.enumerated": metric(notes("graphs.star_graphs").get("n", 0), "count"),
        "star.assemble_self_s": metric(self_s("star.assemble"), "s"),
        "star.contract_s": metric(self_s("star.contract"), "s"),
        "star.contract_calls": metric(calls("star.contract"), "count"),
        "star.nonzero_weight_share": metric(contracted / enumerated["n"] if enumerated["n"] else 0.0,
                                            "share"),
        "star.assoc_self_s": metric(self_s("star.associative"), "s"),
        "star.cyclic_self_s": metric(self_s("star.cyclic"), "s"),
        "star.closed_self_s": metric(self_s("star.closed"), "s"),
        "diffops.apply_s": metric(self_s("diffops.apply"), "s"),
        "diffops.apply_calls": metric(calls("diffops.apply"), "count"),
        "diffops.ibp_normal_form_s": metric(self_s("diffops.ibp_normal_form"), "s"),
        "diffops.ibp_calls": metric(calls("diffops.ibp_normal_form"), "count"),
        "diffops.level_terms": metric(notes("diffops.ibp_normal_form").get("n", 0), "count"),
        "polyvector.schouten_s": metric(self_s("polyvector.schouten"), "s"),
        "poly.constructed": metric(tr.counts["poly.constructed"], "count"),
        "cli.self_s": metric(self_s("cli.main"), "s"),
        "trace.unattributed_s": metric(unattributed, "s"),
        "trace.wall_s": metric(wall, "s"),
        "trace.overhead_s": metric(wall - plain_wall, "s"),
        "host.probe_s": metric(statistics.median(probes), "s"),
    }
    correct, failed, lines = verdict(warm_ops + plain_ops + traced_ops)
    correct = correct and identical and threads_same and balanced and workload.coverage

    print("workload %s, seed %d, traced: %d ops per cycle" % (workload.name, args.seed, len(plain_ops)))
    print("  untraced %.3f s, traced %.3f s, overhead %.3f s (%.1f%%)"
          % (plain_wall, wall, wall - plain_wall, 100 * (wall - plain_wall) / plain_wall))
    print("  self times %.6f s + unattributed %.6f s = %.6f s of %.6f s traced wall"
          % (accounted - unattributed, unattributed, accounted, wall))
    print("  reports identical traced vs untraced: %s; across thread counts: %s"
          % (identical, threads_same))
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-28s %14s %d/%d" % ("failed_share", "", failed, 3 * len(plain_ops)))
    for line in lines:
        print("  " + line)

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", "trace-%s-seed%d.json" % (workload.name, args.seed))
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "note"],
                   "spans": sorted(tr.spans), "counts": dict(tr.counts)}, fh)
    return correct, 3 * len(plain_ops), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "starcycle", "__init__.py")):
        print("error: no starcycle package under %s; run from a checkout of the repo" % SRC,
              file=sys.stderr)
        return 2
    # measure what users get by default
    os.environ.pop("STARCYCLE_THREADS", None)
    if not args.trace:
        args.setup_s = measure_setup()
    sys.path.insert(0, SRC)
    import starcycle as sc
    import starcycle.cli  # noqa: F401  (binds sc.cli)

    exact = oracle.load_exact(os.path.join(ROOT, oracle.TABLE_FILE))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        cls = workloads.WORKLOADS[args.workload]

        def make_workload(**kw):
            return cls(sc, args.seed, workdir, exact, **kw)

        workload = make_workload()
        if args.trace:
            result = per_layer(args, sc, workload, make_workload)
        else:
            result = end_to_end(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
