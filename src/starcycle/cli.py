"""Batch command-line interface.

Subcommands map one-to-one onto library operations:

    starcycle graphs enumerate --n N --m M --edges E
    starcycle weights compute --n N --m 2 --samples S --seed K [--out-table T.json]
    starcycle weights compute --n N --m 3 --alpha a1,a2,a3 --samples S --seed K [--out-table T.json]
    starcycle star apply --pi PI --f "<poly>" --g "<poly>" [--order N] [--table T.json]
    starcycle check {jacobi,divergence,cyclic,closed,assoc,alpha} --pi PI ...

`weights compute` takes --m 2 (the half-plane slice) or --m 3 (with
--alpha).

Exit codes: 0 all checks passed, 1 a check failed (report emitted), 2
usage or input error.  Bad input is a ValueError, whether the CLI or the
library raises it: main() alone turns one into exit 2 and a single
`error: <message>` line on stderr; any other exception is a traceback.

Reports embed the sha256 of each bivector and volume-form file, so
every command loads hashlib (and OpenSSL) when this module is imported,
while `import starcycle` alone does not.  A weight table is named by
WeightTable.fingerprint(), the sha256 of its canonical JSON, and its
provenance; that is not the sha256 of the
file's bytes (the bundled table reports 844069..., while sha256sum of
its file gives 5f2c63...).  Reports contain no timestamps and are
dumped canonically, so identical invocations produce byte-identical
JSON.
Thread count comes from the STARCYCLE_THREADS environment variable only.

The two sampling commands, `weights compute` and `check alpha`, import
the Monte Carlo sampler (and numpy with it) when they run; every other
command runs on the standard library alone.

A process builds one argument parser, on its first main() call, and
reads the bundled weight table, its sha256 and its provenance once, on
the first command that uses it; so repeated main() calls in one process
(tests, benchmarks, library callers) skip that fixed cost.  A --table
file is read on every call, and every report gets fresh metadata.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys

from .angles import AngleContext
from .graphs import enumerate_graphs, star_graphs
from .poly import Polynomial
from .polyvector import PolyVector, VolumeForm
from .star import (
    _check_alpha_sums,
    assemble_star,
    check_alpha_independence,
    check_associative,
    check_closed,
    check_cyclic,
)
from .table import DATA_DIR, WeightTable

BUNDLED_PI = ("moyal", "so3", "nondiv")


# ---------------------------------------------------------------- inputs

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(spec: str, what: str, from_json, bundled=()):
    """(object, file bytes, label) of an input file: the bundled bivector
    data/pi/SPEC.json when spec is one of `bundled`, else the file at path
    spec.  A file that cannot be read or built is a ValueError."""
    try:
        if spec in bundled:
            path, label = os.path.join(DATA_DIR, "pi", spec + ".json"), "bundled:" + spec
        else:
            path = label = spec
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ValueError("cannot read %s %r: %s" % (what, spec, e))
    try:
        return from_json(json.loads(blob)), blob, label
    except (ValueError, KeyError, TypeError, AttributeError, ArithmeticError,
            RecursionError) as e:
        raise ValueError("bad %s file %r: %s" % (what, spec, e))


def _load_pi(spec: str):
    """Bivector from a JSON path or a bundled name (moyal, so3, nondiv)."""
    pi, blob, label = _read(spec, "bivector", PolyVector.from_json, BUNDLED_PI)
    if pi.degree != 1:
        raise ValueError("%r is not a bivector (degree %d)" % (spec, pi.degree))
    return pi, {"path": label, "sha256": _sha256(blob)}


def _load_vol(spec, dim: int):
    """Volume form from a JSON path; default is the constant density."""
    if spec is None:
        return VolumeForm.constant(dim), {"path": "constant", "sha256": None}
    vol, blob, label = _read(spec, "volume form", VolumeForm.from_json)
    if vol.dim != dim:
        raise ValueError("volume form dim %d does not match bivector dim %d" % (vol.dim, dim))
    return vol, {"path": label, "sha256": _sha256(blob)}


@functools.cache
def _builtin_table():
    """(table, sha256, provenance) of the bundled weight table, read once
    per process.  The table is shared: it is only read, never changed."""
    table = WeightTable.builtin()
    return table, table.fingerprint(), table.provenance()


def _load_table(spec):
    if spec is None:
        (table, sha, provenance), label = _builtin_table(), "builtin"
    else:
        table, _, label = _read(spec, "weight table", WeightTable.from_json)
        sha, provenance = table.fingerprint(), table.provenance()
    return table, {"path": label, "sha256": sha, "provenance": dict(provenance)}


def _parse_alpha(text: str, m: int):
    try:
        alphas = tuple(float(a) for a in text.split(","))
    except ValueError:
        raise ValueError("bad alpha list %r" % text)
    if len(alphas) != m:
        raise ValueError("alpha list %r has %d entries, expected %d" % (text, len(alphas), m))
    if not all(map(math.isfinite, alphas)):
        raise ValueError("alpha list %r has a non-finite entry" % text)
    return alphas


# ---------------------------------------------------------------- output

def _check_writable(path):
    """A ValueError unless the output file `path` can be written: an
    existing file, or a new one in an existing directory."""
    parent = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise ValueError("cannot write %r: not a writable file path" % path)


def _emit(report: dict, args) -> int:
    blob = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob)
    if args.format == "json":
        sys.stdout.write(blob)
    else:
        for line in _text_summary(report):
            print(line)
    return 0 if report.get("passed", True) else 1


def _text_summary(report: dict):
    cmd = report["command"]
    yield "%s: %s" % (cmd, "PASS" if report.get("passed", True) else "FAIL")
    result = report.get("result", {})
    if cmd == "graphs enumerate":
        yield "count: %d" % result["count"]
        for key in result["graphs"]:
            yield "  " + key
    elif cmd == "weights compute":
        for e in result["entries"]:
            yield "  %-24s %+11.6f +- %.6f  (samples %d, seed %d)" % (
                e["graph"], e["value"], e["std_error"], e["samples"], e["seed"])
    elif cmd == "star apply":
        for n, level in enumerate(result["levels"]):
            yield "  hbar^%d: %s" % (n, level)
    elif cmd == "check jacobi":
        if not result["components"]:
            yield "  [pi,pi] = 0"
        for key, text in result["components"].items():
            yield "  [pi,pi]_{%s} = %s" % (key, text)
    elif cmd == "check divergence":
        yield "  div(pi) = %s" % (result["divergence"] or "0")
    elif cmd in ("check cyclic", "check closed", "check assoc"):
        field = result["check"]
        for row in result["orders"]:
            status = "ok" if row[field] else "residual: %s" % row["residual"]
            yield "  order %d: %s" % (row["order"], status)
    elif cmd == "check alpha":
        yield "  divergence-free: %s" % result["divergence_free"]
        for row in result["coefficients"]:
            if not row["ok"]:
                yield "    slots %s monomial %s: |delta| %.3g > tol %.3g" % (
                    "|".join(row["slots"]), row["monomial"], row["delta"], row["tolerance"])


# ---------------------------------------------------------------- handlers

def _cmd_graphs_enumerate(args):
    if args.edges < 0:
        raise ValueError("--edges must be at least 0, got %d" % args.edges)
    graphs = enumerate_graphs(args.n, args.m, args.edges)
    return {
        "command": "graphs enumerate",
        "options": {"n": args.n, "m": args.m, "edges": args.edges},
        "result": {"count": len(graphs), "graphs": [g.canonical_key() for g in graphs]},
        "passed": True,
    }


def _check_sampling(args):
    if args.samples < 1:
        raise ValueError("--samples must be at least 1, got %d" % args.samples)
    if args.seed is None:
        raise ValueError("--seed is required")
    if args.seed < 0:
        raise ValueError("--seed must be at least 0, got %d" % args.seed)


def _cmd_weights_compute(args):
    _check_sampling(args)
    if args.m not in (2, 3):
        raise ValueError("no star graphs have top degree at m=%d; weights compute takes "
                         "--m 2 (the half-plane slice) or --m 3 (with --alpha)" % args.m)
    graphs = star_graphs(args.n, args.m)
    table = WeightTable()
    if args.out_table and os.path.exists(args.out_table):
        table = _read(args.out_table, "weight table", WeightTable.from_json)[0]
    if args.m == 2:
        if args.alpha is not None:
            raise ValueError("the 2-boundary route has no alpha weights; drop --alpha")
        # looked up per command, so that a caller may rebind weights.halfplane_weight
        from .weights import halfplane_weight as sample
    else:
        if args.alpha is None:
            raise ValueError("--alpha is required for m = 3")
        from .weights import compute_weight
        ctx = AngleContext.standard(_parse_alpha(args.alpha, args.m))
        sample = lambda g, **kw: compute_weight(g, ctx, **kw)
    entries = []
    for k, g in enumerate(graphs):
        entry = sample(g, samples=args.samples, seed=args.seed + k)
        table.add(entry)
        entries.append(entry.to_json())
    if args.out_table:
        table.save(args.out_table)
    return {
        "command": "weights compute",
        "options": {"n": args.n, "m": args.m, "alpha": args.alpha,
                    "samples": args.samples, "seed": args.seed},
        "result": {"entries": entries, "table_sha256": table.fingerprint()},
        "passed": True,
    }


def _cmd_star_apply(args):
    pi, pi_meta = _load_pi(args.pi)
    f = Polynomial.parse(args.f, pi.dim)
    g = Polynomial.parse(args.g, pi.dim)
    table, table_meta = _load_table(args.table)
    levels = assemble_star(pi, table, args.order).apply(f, g)
    return {
        "command": "star apply",
        "inputs": {"pi": pi_meta, "table": table_meta},
        "options": {"order": args.order, "f": args.f, "g": args.g},
        "result": {"levels": [p.render() for p in levels]},
        "passed": True,
    }


def _cmd_check(args):
    pi, pi_meta = _load_pi(args.pi)
    inputs = {"pi": pi_meta}
    options = {}
    if "vol" in args:
        vol, inputs["vol"] = _load_vol(args.vol, pi.dim)
    if args.which == "jacobi":
        jac = pi.schouten(pi)
        result = {"components": {",".join(map(str, k)): p.render()
                                 for k, p in sorted(jac.components.items())}}
        passed = jac.is_zero()
    elif args.which == "divergence":
        div = pi.divergence(vol)
        result = {"divergence": div.render() if not div.is_zero() else None}
        passed = div.is_zero()
    elif args.which in ("cyclic", "closed", "assoc"):
        options["order"] = args.order
        check = {"cyclic": check_cyclic, "closed": check_closed,
                 "assoc": check_associative}[args.which]
        table, inputs["table"] = _load_table(args.table)
        s = assemble_star(pi, table, args.order)
        result = check(s, vol) if "vol" in args else check(s)
        passed = result["passed"]
    else:  # alpha
        if args.order < 1:
            raise ValueError("--order must be at least 1, got %d" % args.order)
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise ValueError("--tolerance must be finite and >= 0, got %r" % args.tolerance)
        _check_sampling(args)
        a1 = _parse_alpha(args.alpha, 3)
        a2 = _parse_alpha(args.alpha2, 3)
        options.update({"order": args.order, "alpha": args.alpha, "alpha2": args.alpha2,
                        "samples": args.samples, "seed": args.seed,
                        "tolerance": args.tolerance})
        from .weights import compute_weight
        table = WeightTable()
        graphs = star_graphs(args.order, 3)
        stride = max(1000, len(graphs))  # the sides' seeds stay apart, as the tolerance needs
        _check_alpha_sums(a1, a2)
        for side, alphas in enumerate((a1, a2)):
            ctx = AngleContext.standard(alphas)
            for k, g in enumerate(graphs):
                table.add(compute_weight(g, ctx, samples=args.samples,
                                         seed=args.seed + stride * side + k))
        result = check_alpha_independence(pi, a1, a2, table, args.order, vol,
                                          floor=args.tolerance)
        passed = result["passed"]
    return {
        "command": "check " + args.which,
        "inputs": inputs,
        "options": options,
        "result": result,
        "passed": passed,
    }


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """ArgumentParser, as are its subparsers, that reads the help width as
    shutil.get_terminal_size does (COLUMNS, the terminal, 80) without shutil."""

    def _get_formatter(self):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        try:
            columns = columns if columns > 0 else os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            pass
        return self.formatter_class(prog=self.prog, width=(columns if columns > 0 else 80) - 2)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="starcycle",
                                 description="Kontsevich star products: graphs, weights, checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the canonical JSON report to this path")

    graphs = sub.add_parser("graphs", help="graph enumeration").add_subparsers(
        dest="subcommand", required=True)
    p = graphs.add_parser("enumerate", help="list admissible graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_graphs_enumerate)

    weights = sub.add_parser("weights", help="Monte Carlo weights").add_subparsers(
        dest="subcommand", required=True)
    p = weights.add_parser("compute", help="compute weights for all star graphs at (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", help="comma-separated boundary weights, length m (m = 3)")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-table", metavar="PATH",
                   help="save the table JSON here; merges into an existing file")
    common(p)
    p.set_defaults(handler=_cmd_weights_compute)

    star = sub.add_parser("star", help="star product").add_subparsers(
        dest="subcommand", required=True)
    p = star.add_parser("apply", help="apply f * g level by level")
    p.add_argument("--pi", required=True, help="bivector JSON path or bundled name")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--table", help="weight table JSON (default: bundled exact table)")
    common(p)
    p.set_defaults(handler=_cmd_star_apply)

    check = sub.add_parser("check", help="theorem-level checks").add_subparsers(
        dest="which", required=True)
    for which in ("jacobi", "divergence", "cyclic", "closed", "assoc", "alpha"):
        p = check.add_parser(which)
        p.add_argument("--pi", required=True, help="bivector JSON path or bundled name")
        if which in ("divergence", "cyclic", "closed", "alpha"):
            p.add_argument("--vol", help="volume form JSON (default: constant)")
        if which in ("cyclic", "closed", "assoc"):
            p.add_argument("--order", type=int, default=2)
            p.add_argument("--table", help="weight table JSON (default: bundled exact table)")
        if which == "assoc":
            ignored = "ignored: associativity is checked as an exact operator identity"
            p.add_argument("--trials", type=int, default=20, help=ignored)
            p.add_argument("--seed", type=int, default=0, help=ignored)
        if which == "alpha":
            p.add_argument("--order", type=int, default=1)
            p.add_argument("--alpha", required=True)
            p.add_argument("--alpha2", required=True)
            p.add_argument("--samples", type=int, default=1 << 20)
            p.add_argument("--seed", type=int)
            p.add_argument("--tolerance", type=float, default=1e-3)
        common(p)
        p.set_defaults(handler=_cmd_check)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for path in filter(None, (args.out, getattr(args, "out_table", None))):
            _check_writable(path)
        report = args.handler(args)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
