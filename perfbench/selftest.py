"""Harness self-test at tiny sizes: the oracle must catch planted faults.

    python3 perfbench/selftest.py

1. A weight table with one corrupted entry (2;2;b1,b2|b1,b2 set to 0, as
   acceptance criterion 5 does) makes `check assoc` fail the oracle, and
   the same corruption in the oracle's own copy of the table makes a
   correct Monte Carlo weight fail it: failed_share rises above 0 both ways.
2. A generated dim-2 structure is reported as not divergence-free, and
   the oracle rejects `check cyclic` on it when told to expect a pass.
Each fault must also make the run incorrect, and each unfaulted control
must pass.  Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import random
import shutil
import sys
import tempfile

import inputs
import oracle
import run
import workloads

CORRUPTED = "2;3;b1,b2|b1,b2"


def main():
    sys.path.insert(0, run.SRC)
    import starcycle as sc
    import starcycle.cli  # noqa: F401

    table_path = os.path.join(run.ROOT, oracle.TABLE_FILE)
    exact = oracle.load_exact(table_path)
    results = []

    def expect(name, ok):
        results.append(ok)
        print("%s  %s" % ("PASS" if ok else "FAIL", name))

    os.makedirs(os.path.join(run.ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.ROOT, ".perfbench"))
    try:
        with open(table_path) as fh:
            table = json.load(fh)
        for entry in table["entries"]:
            if entry["graph"] == CORRUPTED:
                entry["exact"], entry["value"] = "0/1", 0.0
        bad_table = os.path.join(workdir, "corrupted.json")
        with open(bad_table, "w") as fh:
            json.dump(table, fh)

        checks = workloads.ChecksExact(sc, 0, workdir, exact)
        out = os.path.join(workdir, "assoc.json")
        for label, extra, want_failed in (("bundled table", [], False),
                                          ("corrupted table", ["--table", bad_table], True)):
            argv = ["check", "assoc", "--pi", "moyal", "--trials", "5", "--out", out] + extra
            ops, _ = checks._step(label, argv, out, oracle.expected_exit("assoc", True), None)()
            correct, failed, lines = run.verdict(ops)
            expect("check assoc on moyal, %s: failed %d/%d, correct %s %s"
                   % (label, failed, len(ops), correct, "; ".join(lines)),
                   (failed > 0) == want_failed != correct)

        disk = workloads.WeightsDisk(sc, 0, workdir, exact)
        k = [g.canonical_key() for g in disk.graphs].index(CORRUPTED)
        bad_exact = dict(exact, **{CORRUPTED: 0})
        for label, table_used, want_failed in (("exact table", exact, False),
                                                ("corrupted oracle table", bad_exact, True)):
            disk.exact = table_used
            ops, _ = disk.steps[k]()
            correct, failed, lines = run.verdict(ops)
            expect("weight of %s against the %s: failed %d/%d, correct %s %s"
                   % (CORRUPTED, label, failed, len(ops), correct, "; ".join(lines)),
                   (failed > 0) == want_failed != correct)

        rng = random.Random(0)
        for name, obj, divfree in (("planar", inputs.planar_structure(rng, 2), False),
                                   ("casimir", inputs.casimir_structure(rng, 3), True)):
            path = os.path.join(workdir, name + ".json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            rc = workloads.run_cli(sc, ["check", "divergence", "--pi", path])[0]
            expect("generated %s structure: check divergence exits %d" % (name, rc),
                   rc == (0 if divfree else 1))
        out = os.path.join(workdir, "cyclic.json")
        argv = ["check", "cyclic", "--pi", os.path.join(workdir, "planar.json"), "--out", out]
        for label, claimed, want_failed in (("as not divergence-free", False, False),
                                            ("mislabelled divergence-free", True, True)):
            ops, _ = checks._step(label, argv, out, oracle.expected_exit("cyclic", claimed), None)()
            correct, failed, _ = run.verdict(ops)
            expect("check cyclic on the planar structure %s: failed %d/%d, correct %s"
                   % (label, failed, len(ops), correct), (failed > 0) == want_failed != correct)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: %d/%d checks hold" % (sum(results), len(results)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
