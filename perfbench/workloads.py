"""The three workloads, each a fixed cycle of steps built from the seed.

A step is one call into starcycle (compute_weight, or one cli.main
command) and yields one op per graph weight or per command, plus the
canonical bytes of what it returned, for the determinism checks.
CYCLE_SECONDS is the wall time of one cycle at the commit that defined
the benchmark, on a 2-core x86-64 machine; run.py turns --seconds into a
whole number of cycles with it.  READING names the probe.READINGS kind that
run.py rescales the workload's times with.
"""

import contextlib
import io
import json
import os
import traceback
from time import perf_counter

import inputs
import oracle


class Op:
    __slots__ = ("label", "start", "seconds", "failure", "samples", "std_error")

    def __init__(self, label, start, seconds, failure=None, samples=0, std_error=0.0):
        self.label = label
        self.start = start  # perf_counter() when the op began
        self.seconds = seconds  # wall time; run.py rescales it with probe.Sampler
        self.failure = failure  # None, or (kind, reason) with kind "sigma" or "exact"
        self.samples = samples
        self.std_error = std_error


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def run_cli(sc, argv):
    """cli.main(argv) with its text output captured; (exit code, stderr,
    start, seconds).

    An exception escaping the CLI is a failed op, not the end of the run:
    the exit code is then None and stderr holds the traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = sc.cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
        seconds = perf_counter() - start
    return rc, err.getvalue().strip(), start, seconds


def read_report(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    return blob, json.loads(blob)


class WeightsDisk:
    """36 order-2 star graphs on their 3-boundary embeddings at alpha (0,0,1),
    one compute_weight call each."""

    name = "weights-disk"
    CYCLE_SECONDS = 7.5
    READING = "interpreter+pages"

    def __init__(self, sc, seed, workdir, exact, threads=None):
        base = sc.star_graphs(2, 2)
        self.graphs = [g.add_boundary_vertex() for g in base]
        self.seeds = inputs.graph_seeds(seed, len(self.graphs))
        self.ctx = sc.AngleContext.standard((0.0, 0.0, 1.0))
        self.sc, self.exact, self.threads = sc, exact, threads
        self.coverage = sorted(g.canonical_key() for g in self.graphs) == oracle.order2_keys(exact)
        self.steps = [self._step(k) for k in range(len(self.graphs))]

    def _step(self, k):
        graph, seed = self.graphs[k], self.seeds[k]

        def step():
            start = perf_counter()
            try:
                entry = self.sc.weights.compute_weight(graph, self.ctx, samples=inputs.SAMPLES,
                                                       seed=seed, threads=self.threads)
            except Exception:
                reason = traceback.format_exc().strip().splitlines()[-1]
                return [Op(graph.canonical_key(), start, perf_counter() - start,
                           ("exact", reason))], b""
            seconds = perf_counter() - start
            obj = entry.to_json()
            op = Op(obj["graph"], start, seconds, oracle.weight_failure(obj, self.exact),
                    entry.samples, entry.std_error)
            return [op], canonical(obj)

        return step


class WeightsHalfplane:
    """The same 36 graphs through `weights compute --n 2 --m 2`, the native
    half-plane route.  One command makes one step of 36 ops; each op's
    time is its halfplane_weight call, timed by a stopwatch rebound around
    the command."""

    name = "weights-halfplane"
    CYCLE_SECONDS = 7.0
    READING = "interpreter+pages"

    def __init__(self, sc, seed, workdir, exact):
        self.sc, self.exact = sc, exact
        self.out = os.path.join(workdir, "halfplane.json")
        self.argv = ["weights", "compute", "--n", "2", "--m", "2",
                     "--samples", str(inputs.SAMPLES),
                     "--seed", str(inputs.halfplane_base_seed(seed)), "--out", self.out]
        self.coverage = True
        self.steps = [self._step]

    def _step(self):
        weights = self.sc.weights
        inner = weights.halfplane_weight
        times = []

        def stopwatch(*args, **kwargs):
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times.append((start, perf_counter() - start))

        weights.halfplane_weight = stopwatch
        try:
            rc, err, start, seconds = run_cli(self.sc, self.argv)
        finally:
            weights.halfplane_weight = inner
        if rc != 0:
            # every graph weight the command owed counts as a failed op
            keys = oracle.order2_keys(self.exact)
            failure = ("exact", "weights compute exit %s: %s" % (rc, err))
            share = seconds / len(keys)
            return [Op(k, start + i * share, share, failure) for i, k in enumerate(keys)], b""
        blob, report = read_report(self.out)
        entries = report["result"]["entries"]
        keys = sorted(oracle.embedded_key(e["graph"]) for e in entries)
        self.coverage = (self.coverage and keys == oracle.order2_keys(self.exact)
                         and len(times) == len(entries))
        ops = [Op(e["graph"], start, t, oracle.weight_failure(e, self.exact), e["samples"],
                  e["std_error"]) for e, (start, t) in zip(entries, times)]
        return ops, blob


class ChecksExact:
    """check cyclic, check closed, star apply and check assoc at order 2 on
    the bundled structures and on seed-generated ones, through cli.main."""

    name = "checks-exact"
    CYCLE_SECONDS = 9.0
    READING = "interpreter"
    COMMANDS = ("cyclic", "closed", "apply", "assoc")

    def __init__(self, sc, seed, workdir, exact):
        self.sc = sc
        self.coverage = True
        structures = inputs.structures(seed, workdir)
        pairs = inputs.apply_pairs(seed, [dim for _, dim, _ in structures])
        bundled_dir = os.path.join(os.path.dirname(sc.__file__), "data", "pi")
        self.steps = []
        inputs_by_pi = []
        for (pi, dim, divfree), (f, g) in zip(structures, pairs):
            path = pi if pi.endswith(".json") else os.path.join(bundled_dir, pi + ".json")
            with open(path) as fh:
                inputs_by_pi.append((pi, dim, divfree, f, g, json.load(fh)["components"]))
        # Command by command, so that ops of one kind are spread over the
        # cycle and a slow second of the machine does not hit all of them.
        for command in self.COMMANDS:
            for pi, dim, divfree, f, g, components in inputs_by_pi:
                out = os.path.join(workdir, "%s-%s.json" % (os.path.basename(pi), command))
                if command == "apply":
                    argv = ["star", "apply", "--pi", pi, "--f", f, "--g", g]
                else:
                    argv = ["check", command, "--pi", pi]
                argv += ["--order", str(inputs.ORDER), "--out", out]
                label = "%s %s" % (command, os.path.basename(pi))
                expect = oracle.expected_exit(command, divfree)
                check = (lambda report, c=components, d=dim, f=f, g=g:
                         oracle.apply_failure(sc.Polynomial, report, c, d, f, g, inputs.ORDER)) \
                    if command == "apply" else None
                self.steps.append(self._step(label, argv, out, expect, check))

    def _step(self, label, argv, out, expect, check):
        def step():
            rc, err, start, seconds = run_cli(self.sc, argv)
            if rc not in (0, 1):
                return [Op(label, start, seconds, ("exact", "exit %s: %s" % (rc, err)))], b""
            blob, report = read_report(out)
            failure = None
            if rc != expect:
                failure = ("exact", "exit %d, expected %d" % (rc, expect))
            elif check is not None:
                reason = check(report)
                failure = reason and ("exact", reason)
            return [Op(label, start, seconds, failure)], blob

        return step


WORKLOADS = {w.name: w for w in (WeightsDisk, WeightsHalfplane, ChecksExact)}
