"""Re-measure the ROADMAP "Baseline" numbers with the same recipes.

    python3 perfbench/baseline.py [--repeats 5] [--out FILE.json]

Medians of --repeats runs of: the disk sampler on the 3-boundary
embedding of 2;2;b1,2|b2,1 at 2^20 samples on 1 thread and on every CPU;
the split of one 65536-sample chunk into Jacobian rows, np.linalg.det
and the rest (rows are timed through the private weights._disk_rows,
here only); the half-plane route on the same graph; and the wall time of
the CLI commands and the bare import, each in a fresh interpreter.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import run

GRAPH = "2;2;b1,2|b2,1"
SAMPLES = 1 << 20
CLI = {
    "weights compute --n 2 --m 2 --samples 100000":
        ["weights", "compute", "--n", "2", "--m", "2", "--samples", "100000", "--seed", "1"],
    "check cyclic --pi so3 --order 2": ["check", "cyclic", "--pi", "so3", "--order", "2"],
    "star apply --pi so3 --f x1 --g x2": ["star", "apply", "--pi", "so3", "--f", "x1", "--g", "x2"],
    "check assoc --pi so3": ["check", "assoc", "--pi", "so3"],
}
CLI_CODE = ("import sys; sys.path.insert(0, %r); from starcycle.cli import main; "
            "sys.exit(main(sys.argv[1:]))")


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def chunk_split(sc, graph, ctx, repeats):
    """Median seconds of (whole chunk, rows, det) for one 65536-sample chunk."""
    weights = sc.weights
    rows_fn, det_fn = weights._disk_rows, weights.np.linalg.det
    spent = {"rows": 0.0, "det": 0.0}

    def timed(key, fn):
        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                spent[key] += perf_counter() - start
        return wrapper

    alphas = [ctx.alphas] * graph.edge_count
    rows_t, det_t, total_t = [], [], []
    weights._disk_rows = timed("rows", rows_fn)
    weights.np.linalg.det = timed("det", det_fn)
    try:
        for _ in range(repeats):
            spent.update(rows=0.0, det=0.0)
            start = perf_counter()
            weights._disk_chunk(graph, ctx, alphas, 1, 0, weights.CHUNK)
            total_t.append(perf_counter() - start)
            rows_t.append(spent["rows"])
            det_t.append(spent["det"])
    finally:
        weights._disk_rows = rows_fn
        weights.np.linalg.det = det_fn
    return statistics.median(total_t), statistics.median(rows_t), statistics.median(det_t)


def cli_wall(argv, repeats, env):
    def once():
        subprocess.run([sys.executable, "-c", CLI_CODE % run.SRC] + argv, env=env, cwd=run.ROOT,
                       capture_output=True, timeout=300, check=True)
    return median_time(once, repeats)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", help="also write the numbers to this JSON file")
    args = ap.parse_args(argv)
    os.environ.pop("STARCYCLE_THREADS", None)
    env = dict(os.environ)
    sys.path.insert(0, run.SRC)
    import starcycle as sc
    from starcycle.graphs import AdmissibleGraph

    base = AdmissibleGraph.from_key(GRAPH)
    disk = base.add_boundary_vertex()
    ctx = sc.AngleContext.standard((0.0, 0.0, 1.0))
    cpus = run.nproc()
    one = median_time(lambda: sc.compute_weight(disk, ctx, SAMPLES, 5, threads=1), args.repeats)
    many = median_time(lambda: sc.compute_weight(disk, ctx, SAMPLES, 5, threads=cpus), args.repeats)
    chunk, rows, det = chunk_split(sc, disk, ctx, max(args.repeats, 9))
    half = median_time(lambda: sc.halfplane_weight(base, SAMPLES, 5, threads=1), args.repeats)
    out = {
        "python": sys.version.split()[0],
        "numpy": sc.weights.np.__version__,
        "cpus": cpus,
        "repeats": args.repeats,
        "disk_1_thread_s": one,
        "disk_1_thread_msamples_per_s": SAMPLES / one / 1e6,
        "disk_%d_threads_s" % cpus: many,
        "thread_speedup": one / many,
        "chunk_ms": {"total": 1e3 * chunk, "rows": 1e3 * rows, "det": 1e3 * det,
                     "rng_reject_reduce": 1e3 * (chunk - rows - det)},
        "halfplane_1_thread_s": half,
        "cli_wall_s": {name: cli_wall(cmd, args.repeats, env) for name, cmd in CLI.items()},
        "bare_import_s": median_time(
            lambda: subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, %r); "
                                    "import starcycle" % run.SRC], env=env, check=True),
            args.repeats),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
