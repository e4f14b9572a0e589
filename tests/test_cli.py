"""Command line interface: exit codes, text output, canonical JSON reports."""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

import starcycle
from starcycle import WeightTable, cli
from starcycle.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graphs_enumerate(capsys):
    code, out, _ = run(capsys, "graphs", "enumerate", "--n", "1", "--m", "3",
                       "--edges", "2")
    assert code == 0
    assert "graphs enumerate: PASS" in out
    assert "count: 6" in out
    assert "1;3;b1,b2" in out


def test_graphs_enumerate_json(capsys):
    code, out, _ = run(capsys, "graphs", "enumerate", "--n", "1", "--m", "2",
                       "--edges", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "graphs enumerate"
    assert report["result"]["count"] == 2
    # canonical serialization: sorted keys, compact separators, one newline
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def test_star_apply(capsys):
    code, out, _ = run(capsys, "star", "apply", "--pi", "moyal",
                       "--f", "x1", "--g", "x2")
    assert code == 0
    assert "hbar^0: x1*x2" in out
    assert "hbar^1: 1/2" in out
    assert "hbar^2: 0" in out


def test_star_apply_json_embeds_input_hashes(capsys):
    code, out, _ = run(capsys, "star", "apply", "--pi", "so3",
                       "--f", "x1", "--g", "x2*x3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["pi"]["path"] == "bundled:so3"
    assert len(report["inputs"]["pi"]["sha256"]) == 64
    assert report["inputs"]["table"]["provenance"] == {"exact": 42, "monte_carlo": 0}


def test_check_cyclic_pass_and_fail(capsys):
    code, out, _ = run(capsys, "check", "cyclic", "--pi", "so3", "--order", "2")
    assert code == 0
    assert "check cyclic: PASS" in out
    code, out, _ = run(capsys, "check", "cyclic", "--pi", "nondiv", "--order", "1")
    assert code == 1
    assert "check cyclic: FAIL" in out
    assert "order 1: residual: (-1/2) D[0,1]*D[0,0]" in out


def test_check_divergence(capsys):
    code, out, _ = run(capsys, "check", "divergence", "--pi", "so3")
    assert code == 0
    code, out, _ = run(capsys, "check", "divergence", "--pi", "nondiv")
    assert code == 1
    assert "x1" in out or "d2" in out


def test_check_jacobi(capsys, tmp_path):
    code, _, _ = run(capsys, "check", "jacobi", "--pi", "so3")
    assert code == 0
    bad = tmp_path / "bad_pi.json"
    bad.write_text(json.dumps({
        "dim": 4, "degree": 1,
        "components": {"1,2": "x1", "3,4": "1", "1,3": "x3"},
    }))
    code, out, _ = run(capsys, "check", "jacobi", "--pi", str(bad))
    assert code == 1
    assert "check jacobi: FAIL" in out


def test_check_closed(capsys):
    code, _, _ = run(capsys, "check", "closed", "--pi", "moyal", "--order", "2")
    assert code == 0
    code, _, _ = run(capsys, "check", "closed", "--pi", "nondiv", "--order", "1")
    assert code == 1


def test_check_assoc(capsys):
    code, out, _ = run(capsys, "check", "assoc", "--pi", "so3", "--order", "2",
                       "--trials", "5", "--seed", "3")
    assert code == 0
    assert "check assoc: PASS" in out
    assert "  order 0: ok\n  order 1: ok\n  order 2: ok\n" in out


def write_corrupted_table(path, graph):
    """The bundled table with the weight of `graph` set to 0, as a file."""
    table = json.loads((resources.files("starcycle") / "data/weights_exact.json").read_text())
    for entry in table["entries"]:
        if entry["graph"] == graph:
            entry["exact"], entry["value"] = "0/1", 0.0
    path.write_text(json.dumps(table))


def test_check_assoc_corrupted_table_reports_residual(capsys, tmp_path):
    path = tmp_path / "corrupted.json"
    write_corrupted_table(path, "2;3;b1,b2|b1,b2")
    code, out, _ = run(capsys, "check", "assoc", "--pi", "moyal", "--table", str(path))
    assert code == 1
    assert "check assoc: FAIL\n  order 0: ok\n  order 1: ok\n  order 2: residual: (" in out
    code, out, _ = run(capsys, "check", "assoc", "--pi", "moyal", "--table", str(path),
                       "--format", "json")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["check"] == "associative" and not result["passed"]
    assert [o["associative"] for o in result["orders"]] == [True, True, False]
    assert result["orders"][2]["residual"] and result["orders"][1]["residual"] is None


def test_check_alpha(capsys):
    code, out, _ = run(capsys, "check", "alpha", "--pi", "so3",
                       "--alpha", "0,0,1", "--alpha2", "1,0,0",
                       "--samples", "32768", "--seed", "2")
    assert code == 0
    code, out, _ = run(capsys, "check", "alpha", "--pi", "nondiv",
                       "--alpha", "0,0,1", "--alpha2", "1,0,0",
                       "--samples", "32768", "--seed", "2")
    assert code == 1


def test_weights_compute_and_table_round_trip(capsys, tmp_path):
    table_path = tmp_path / "table.json"
    code, out, _ = run(capsys, "weights", "compute", "--n", "1", "--m", "3",
                       "--alpha", "0,0,1", "--samples", "65536", "--seed", "5",
                       "--out-table", str(table_path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    entries = report["result"]["entries"]
    assert len(entries) == 6
    anchor = [e for e in entries if e["graph"] == "1;3;b1,b2"][0]
    assert abs(anchor["value"] - 0.5) <= 3 * anchor["std_error"]
    from starcycle import WeightTable

    loaded = WeightTable.from_json(json.loads(table_path.read_text()))
    assert loaded.fingerprint() == report["result"]["table_sha256"]


def test_weights_compute_halfplane_route(capsys):
    code, out, _ = run(capsys, "weights", "compute", "--n", "1", "--m", "2",
                       "--samples", "65536", "--seed", "9", "--format", "json")
    assert code == 0
    entries = json.loads(out)["result"]["entries"]
    assert len(entries) == 2
    # each half-plane weight is keyed by its 3-boundary embedding at alpha (0, 0, 1)
    assert {e["graph"] for e in entries} == {"1;3;b1,b2", "1;3;b2,b1"}
    assert all(e["alphas"] == [0.0, 0.0, 1.0] for e in entries)
    vals = {e["graph"]: e["value"] for e in entries}
    assert abs(vals["1;3;b1,b2"] - 0.5) < 0.02


def test_halfplane_and_disk_runs_merge_into_one_entry_per_weight(capsys, tmp_path):
    # a half-plane run and then a disk run at alpha (0, 0, 1) write the same
    # keys, so the later run's weights replace the earlier ones and star apply
    # reads them
    merged, disk = str(tmp_path / "merged.json"), str(tmp_path / "disk.json")
    runs = (("--m", "2", "--seed", "1", "--out-table", merged),
            ("--m", "3", "--alpha", "0,0,1", "--seed", "50", "--out-table", merged),
            ("--m", "3", "--alpha", "0,0,1", "--seed", "50", "--out-table", disk))
    for args in runs:
        code, _, _ = run(capsys, "weights", "compute", "--n", "1", "--samples", "4096", *args)
        assert code == 0
    reports = []
    for path in (merged, disk):
        code, out, _ = run(capsys, "star", "apply", "--pi", "moyal", "--f", "x1", "--g", "x2",
                           "--order", "1", "--table", path, "--format", "json")
        assert code == 0
        reports.append(json.loads(out))
    assert [r["inputs"]["table"]["provenance"] for r in reports] == [{"exact": 0, "monte_carlo": 6}] * 2
    assert reports[0]["inputs"]["table"]["sha256"] == reports[1]["inputs"]["table"]["sha256"]
    assert reports[0]["result"] == reports[1]["result"]


def test_a_table_keyed_by_2_boundary_graphs_exits_2(capsys, tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"entries": [
        {"graph": key, "alphas": [], "value": value, "std_error": 0.01, "samples": 4096, "seed": 1}
        for key, value in (("1;2;b1,b2", 0.5), ("1;2;b2,b1", -0.5))]}))
    code, out, err = run(capsys, "star", "apply", "--pi", "moyal", "--f", "x1", "--g", "x2",
                         "--order", "1", "--table", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "1;2;b1,b2 is keyed by a 2-boundary graph; store it as 1;3;b1,b2 at alphas [0.0, 0.0, 1.0]" in err


def test_weights_compute_merges_out_table_and_feeds_star(capsys, tmp_path):
    from fractions import Fraction

    path = str(tmp_path / "table.json")
    code, _, _ = run(capsys, "weights", "compute", "--n", "1", "--m", "2",
                     "--samples", "65536", "--seed", "3", "--out-table", path)
    assert code == 0
    code, _, _ = run(capsys, "weights", "compute", "--n", "2", "--m", "2",
                     "--samples", "65536", "--seed", "7", "--out-table", path)
    assert code == 0
    from starcycle import WeightTable

    assert len(WeightTable.from_json(json.loads((tmp_path / "table.json").read_text())).entries) == 38
    code, out, _ = run(capsys, "star", "apply", "--pi", "moyal", "--f", "x1",
                       "--g", "x2", "--order", "2", "--table", path,
                       "--format", "json")
    assert code == 0
    levels = json.loads(out)["result"]["levels"]
    assert levels[0] == "x1*x2"
    assert abs(Fraction(levels[1]) - Fraction(1, 2)) < Fraction(1, 50)


def test_usage_errors_exit_2(capsys):
    # --seed required when sampling
    code, _, err = run(capsys, "weights", "compute", "--n", "1", "--m", "3",
                       "--alpha", "0,0,1", "--samples", "4096")
    assert code == 2 and "seed" in err
    # --alpha forbidden on the half-plane route
    code, _, err = run(capsys, "weights", "compute", "--n", "1", "--m", "2",
                       "--alpha", "0,1", "--samples", "4096", "--seed", "1")
    assert code == 2
    # alpha length must match m
    code, _, err = run(capsys, "weights", "compute", "--n", "1", "--m", "3",
                       "--alpha", "0,1", "--samples", "4096", "--seed", "1")
    assert code == 2
    # no star graph has top degree at m = 4, and none exists at n = 0
    code, out, err = run(capsys, "weights", "compute", "--n", "1", "--m", "4",
                         "--alpha", "0,0,1,0", "--samples", "16", "--seed", "1")
    assert code == 2 and out == ""
    assert "error: no star graphs have top degree at m=4" in err
    assert "--m 2 (the half-plane slice) or --m 3 (with --alpha)" in err
    code, out, err = run(capsys, "weights", "compute", "--n", "0", "--m", "2",
                         "--samples", "16", "--seed", "1")
    assert code == 2 and "n >= 1" in err and out == ""
    # a negative edge count
    code, out, err = run(capsys, "graphs", "enumerate", "--n", "4", "--m", "3", "--edges", "-1")
    assert code == 2 and out == "" and err == "error: --edges must be at least 0, got -1\n"
    # unparsable polynomial
    code, _, err = run(capsys, "star", "apply", "--pi", "moyal",
                       "--f", "x1 +", "--g", "x2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "star", "apply", "--pi", "moyal",
                       "--f", "x1 + + x2", "--g", "x2")
    assert code == 2 and "position" in err
    # unknown bivector source
    code, _, err = run(capsys, "check", "divergence", "--pi", "no_such_pi")
    assert code == 2
    # alpha sums must match
    code, _, err = run(capsys, "check", "alpha", "--pi", "so3",
                       "--alpha", "0,0,1", "--alpha2", "2,0,0",
                       "--samples", "4096", "--seed", "1")
    assert code == 2


def test_check_alpha_refuses_unequal_sums_before_it_samples(capsys, monkeypatch):
    from starcycle import weights

    def unused(*args, **kwargs):
        raise AssertionError("a weight was sampled before the alpha sums were compared")

    monkeypatch.setattr(weights, "compute_weight", unused)
    code, out, err = run(capsys, "check", "alpha", "--pi", "so3", "--alpha", "0.3,-0.7,1.1",
                         "--alpha2", "1,0,0", "--order", "2", "--samples", "262144", "--seed", "1")
    assert code == 2 and out == ""
    assert err == ("error: alpha sums differ (0.7 vs 1): the statement compares "
                   "equal-sum weight systems\n")


def test_weights_compute_without_star_graphs_exits_2(capsys, tmp_path):
    # a vertex of a star graph needs two targets other than itself, so
    # n = 1, m = 1 has none; nothing is sampled and no table is written
    argv = ("weights", "compute", "--n", "1", "--m", "1", "--alpha", "1",
            "--samples", "16", "--seed", "1")
    path = tmp_path / "table.json"
    for extra in ((), ("--out-table", str(path))):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2 and "no star graphs" in err and out == ""
    assert not path.exists()


def test_missing_order_3_weight_exits_2_before_contracting(capsys):
    # every labeled graph's weight is looked up before any contraction, so
    # the first uncovered graph is named at once
    code, _, err = run(capsys, "check", "cyclic", "--pi", "so3", "--order", "3")
    assert code == 2
    assert "3;2;2,3|1,3|1,2" in err


_NON_POISSON = {"dim": 4, "degree": 1, "components": {
    "1,2": "1/3*x3^2 + x4", "1,3": "-2/5*x1*x2", "2,4": "x1^2 + 7/6", "3,4": "1/2*x2*x4"}}
_LONG_F, _LONG_G = "%s*x1" % ("9" * 3000), "%s*x2" % ("9" * 3000)


def _bundled_pi(name):
    return starcycle.PolyVector.from_json(
        json.loads((resources.files("starcycle") / "data/pi" / (name + ".json")).read_text()))


def _long_levels():
    s = starcycle.assemble_star(_bundled_pi("moyal"), WeightTable.builtin(), 1)
    parse = starcycle.Polynomial.parse
    return [p.render() for p in s.apply(parse(_LONG_F, 2), parse(_LONG_G, 2))]


# each command, and the library call on the same input that refuses it
LIBRARY_REFUSALS = {
    "parse error": (("star", "apply", "--pi", "so3", "--f", "x1 x2", "--g", "x1"),
                    lambda: starcycle.Polynomial.parse("x1 x2", 3)),
    "pi not Poisson": (("check", "cyclic", "--pi", "{non_poisson}"),
                       lambda: starcycle.assemble_star(starcycle.PolyVector.from_json(_NON_POISSON),
                                                       WeightTable.builtin())),
    "missing weight": (("check", "cyclic", "--pi", "so3", "--order", "3"),
                       lambda: starcycle.assemble_star(_bundled_pi("so3"), WeightTable.builtin(), 3)),
    "negative order": (("check", "assoc", "--pi", "so3", "--order", "-1"),
                       lambda: starcycle.assemble_star(_bundled_pi("so3"), WeightTable.builtin(), -1)),
    "long coefficient": (("star", "apply", "--pi", "moyal", "--f", _LONG_F, "--g", _LONG_G,
                          "--order", "1"), _long_levels),
    "one sample": (("weights", "compute", "--n", "1", "--m", "2", "--samples", "1", "--seed", "3"),
                   lambda: starcycle.halfplane_weight(starcycle.star_graphs(1, 2)[0], 1, 3)),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_library_refusal_exits_2_with_its_own_message(capsys, tmp_path, case):
    pi_file = tmp_path / "non_poisson.json"
    pi_file.write_text(json.dumps(_NON_POISSON))
    argv, call = LIBRARY_REFUSALS[case]
    with pytest.raises(ValueError) as refusal:
        call()
    code, out, err = run(capsys, *(a.format(non_poisson=pi_file) for a in argv))
    assert (code, out, err) == (2, "", "error: %s\n" % refusal.value)


def test_an_error_that_is_not_a_value_error_is_a_traceback(monkeypatch):
    def broken(*args):
        raise RuntimeError("a bug, not bad input")

    monkeypatch.setattr(cli, "assemble_star", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["check", "cyclic", "--pi", "so3"])


SAMPLING_COMMANDS = [
    ("weights", "compute", "--n", "1", "--m", "2"),
    ("weights", "compute", "--n", "1", "--m", "3", "--alpha", "0,0,1"),
    ("check", "alpha", "--pi", "so3", "--alpha", "0,0,1", "--alpha2", "1,0,0"),
]


@pytest.mark.parametrize("argv", SAMPLING_COMMANDS)
@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("seed", [(), ("--seed", "1")])
def test_nonpositive_samples_exit_2(capsys, argv, samples, seed):
    code, out, err = run(capsys, *argv, "--samples", samples, *seed)
    assert code == 2
    assert "--samples must be at least 1" in err
    assert out == ""


ALPHA_CHECK = ("check", "alpha", "--pi", "so3", "--samples", "4096", "--seed", "1")


def assert_input_error(capsys, argv, words):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and words in err


@pytest.mark.parametrize("argv", SAMPLING_COMMANDS)
def test_negative_seed_exits_2(capsys, argv):
    # check alpha used to end in a ValueError traceback from the seed sequence
    assert_input_error(capsys, argv + ("--samples", "100", "--seed=-1"), "--seed must be at least 0")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_alpha_exits_2(capsys, bad):
    # a NaN weighting used to reject every sample and report PASS
    alpha = "%s,0,1" % bad
    for argv in [("weights", "compute", "--n", "1", "--m", "3", "--alpha=" + alpha,
                  "--samples", "100", "--seed", "1", "--format", "json"),
                 ALPHA_CHECK + ("--alpha=" + alpha, "--alpha2", "1,0,0"),
                 ALPHA_CHECK + ("--alpha", "1,0,0", "--alpha2=" + alpha)]:
        assert_input_error(capsys, argv, "non-finite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("big, words", [("1e300", "overflow"), ("1e308", "not finite")])
def test_overflowing_alpha_exits_2(capsys, big, words):
    # at 1e300 the determinants overflow: they used to be dropped, and both
    # commands reported 0.0 +- 0.0 and PASS.  At 1e308 the alpha sum
    # overflows: that used to end in an OverflowError traceback.  The error
    # line is all there is: no numpy RuntimeWarning comes before it
    alpha = "%s,%s,0" % (big, big)
    for argv in [("weights", "compute", "--n", "1", "--m", "3", "--alpha", alpha,
                  "--samples", "1000", "--seed", "1", "--format", "json"),
                 ("check", "alpha", "--pi", "so3", "--alpha", alpha, "--alpha2", alpha,
                  "--samples", "100", "--seed", "1")]:
        assert_input_error(capsys, argv, words)


@pytest.mark.parametrize("order", ["0", "-1"])
def test_check_alpha_order_below_1_exits_2(capsys, order):
    argv = ALPHA_CHECK + ("--alpha", "0,0,1", "--alpha2", "1,0,0", "--order", order)
    assert_input_error(capsys, argv, "--order must be at least 1")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-3", "-inf"])
def test_check_alpha_bad_tolerance_exits_2(capsys, tolerance):
    argv = ALPHA_CHECK + ("--alpha", "0,0,1", "--alpha2", "1,0,0", "--tolerance=" + tolerance)
    assert_input_error(capsys, argv, "--tolerance must be finite and >= 0")


def test_check_alpha_accepts_zero_tolerance(capsys):
    code, out, _ = run(capsys, *ALPHA_CHECK, "--alpha", "0,0,1", "--alpha2", "1,0,0",
                       "--tolerance", "0", "--format", "json")
    assert code in (0, 1)
    assert json.loads(out)["options"]["tolerance"] == 0.0


def test_report_is_deterministic(capsys, monkeypatch):
    argv = ["weights", "compute", "--n", "1", "--m", "3", "--alpha", "0,0,1",
            "--samples", "65536", "--seed", "12", "--format", "json"]
    monkeypatch.setenv("STARCYCLE_THREADS", "1")
    _, out1, _ = run(capsys, *argv)
    monkeypatch.setenv("STARCYCLE_THREADS", "4")
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    _, out3, _ = run(capsys, *argv)
    assert out1 == out3


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "divergence", "--pi", "moyal",
                       "--format", "json", "--out", str(path))
    assert code == 0
    on_disk = path.read_text()
    assert json.loads(on_disk)["passed"] is True
    assert on_disk.endswith("\n")


def test_custom_pi_and_volume_files(capsys, tmp_path):
    pi_path = tmp_path / "pi.json"
    pi_path.write_text(json.dumps({
        "dim": 2, "degree": 1, "components": {"1,2": "x2"}}))
    vol_path = tmp_path / "vol.json"
    vol_path.write_text(json.dumps({"dim": 2, "log_density": "0"}))
    code, out, _ = run(capsys, "check", "cyclic", "--pi", str(pi_path),
                       "--vol", str(vol_path), "--order", "1")
    assert code == 1     # d(x2 d1^d2) has divergence -d1
    code, out, _ = run(capsys, "check", "jacobi", "--pi", str(pi_path))
    assert code == 0


def test_bundled_names_match_exactly(capsys, tmp_path, monkeypatch):
    # a local so3.json is a file like any other, not the bundled so3
    monkeypatch.chdir(tmp_path)
    (tmp_path / "so3.json").write_text(json.dumps({
        "dim": 3, "degree": 1, "components": {"1,2": "x1"}}))
    for spec in ("so3.json", "./so3.json"):
        code, out, _ = run(capsys, "check", "divergence", "--pi", spec, "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["inputs"]["pi"]["path"] == spec
        assert report["result"]["divergence"] == "(1) d2"
    code, out, _ = run(capsys, "check", "divergence", "--pi", "so3", "--format", "json")
    assert code == 0
    assert json.loads(out)["inputs"]["pi"]["path"] == "bundled:so3"


_ENTRY = {"graph": "1;3;b1,b2", "alphas": [0, 0, 1], "value": 0.5, "exact": "1/2"}


def _sampled_table(**fields):
    """A Monte Carlo table of the two order-1 star graphs, the first entry
    with `fields` in place of its own: enough for star apply --order 1."""
    entries = [{"graph": g, "alphas": [0, 0, 1], "value": v, "std_error": 0.01,
                "samples": 16, "seed": 1, "exact": None, "rejected": 0}
               for g, v in (("1;3;b1,b2", 0.5), ("1;3;b2,b1", -0.5))]
    entries[0].update(fields)
    return json.dumps({"entries": entries})


_APPLY_1 = ("star", "apply", "--pi", "so3", "--f", "x1", "--g", "x2", "--order", "1")


@pytest.mark.parametrize("flag, text, argv", [
    ("--pi", "[]", ("check", "jacobi")),
    ("--pi", json.dumps({"dim": 2, "degree": 1, "components": {"1,2": 3}}), ("check", "jacobi")),
    ("--pi", "[" * 100000, ("check", "jacobi")),
    # Moyal as the full skew matrix would read as 2 d1^d2
    ("--pi", json.dumps({"dim": 2, "degree": 1, "components": {"1,2": "1", "2,1": "-1"}}),
     ("star", "apply", "--f", "x1", "--g", "x2")),
    ("--pi", json.dumps({"dim": 2, "degree": 1, "components": {"1,2": "1", "2,1": "1"}}),
     ("check", "jacobi")),
    ("--pi", json.dumps({"dim": 2, "degree": 1, "components": {"1,1": "1", "1,2": "x1"}}),
     ("check", "jacobi")),
    # a dim or degree that is not a JSON integer would pass by truncation
    ("--pi", json.dumps({"dim": 2.9, "degree": 1, "components": {"1,2": "x1"}}), ("check", "jacobi")),
    ("--pi", json.dumps({"dim": 2, "degree": 1.7, "components": {"1,2": "x1"}}), ("check", "jacobi")),
    ("--pi", json.dumps({"dim": True, "degree": 1, "components": {}}), ("check", "jacobi")),
    # a key is its axes in ASCII digits joined by single commas
    ("--pi", json.dumps({"dim": 2, "degree": 1, "components": {" 1,+2": "x1"}}), ("check", "jacobi")),
    ("--pi", json.dumps({"dim": 2, "degree": 1, "components": {"01,2": "x1"}}), ("check", "jacobi")),
    ("--pi", json.dumps({"dim": 2, "degree": 1, "components": {"1, 2": "x1"}}), ("check", "jacobi")),
    ("--pi", json.dumps({"dim": 2, "degree": 1, "components": {"\u0661,\u0662": "x1"}}),
     ("check", "jacobi")),
    ("--vol", "[]", ("check", "divergence", "--pi", "so3")),
    ("--vol", json.dumps({"dim": 3, "log_density": 1}), ("check", "cyclic", "--pi", "so3")),
    ("--vol", json.dumps({"dim": 3.0, "log_density": "0"}), ("check", "cyclic", "--pi", "so3")),
    ("--table", "[]", ("check", "assoc", "--pi", "so3")),
    ("--table", json.dumps({"entries": [dict(_ENTRY, exact="1/0")]}),
     ("star", "apply", "--pi", "so3", "--f", "x1", "--g", "x2")),
    ("--table", json.dumps({"entries": [dict(_ENTRY, value=None)]}),
     ("check", "closed", "--pi", "so3")),
    # exact is null or a string p/q of ASCII digits that value equals; graph a string
    ("--table", _sampled_table(exact=True, samples=0, std_error=0.0), _APPLY_1),
    ("--table", _sampled_table(exact=0.5, samples=0, std_error=0.0), _APPLY_1),
    ("--table", _sampled_table(exact="1e-3", samples=0, std_error=0.0), _APPLY_1),
    ("--table", _sampled_table(exact="1/3", samples=0, std_error=0.0), _APPLY_1),
    ("--table", json.dumps({"entries": json.loads(_sampled_table())["entries"] + [dict(_ENTRY, graph=7)]}),
     _APPLY_1),
    ("--table", json.dumps({"entries": [_ENTRY, dict(_ENTRY, value=0.0, exact="0/1")]}),
     ("check", "assoc", "--pi", "so3")),
    # integer fields must be JSON integers, number fields JSON numbers
    ("--table", _sampled_table(samples=1.9), _APPLY_1),
    ("--table", _sampled_table(seed=True), _APPLY_1),
    ("--table", _sampled_table(seed=2.5), _APPLY_1),
    ("--table", _sampled_table(value="0.5"), _APPLY_1),
    ("--table", _sampled_table(rejected=0.7), _APPLY_1),
    ("--table", _sampled_table(std_error=False), _APPLY_1),
    ("--table", _sampled_table(alphas=[0, 0, "1"]), _APPLY_1),
    ("--out-table", "[]", ("weights", "compute", "--n", "1", "--m", "2",
                           "--samples", "16", "--seed", "1")),
], ids=["pi-list", "pi-int-component", "pi-nested-too-deep", "pi-skew-matrix",
        "pi-symmetric-pair", "pi-repeated-axis", "pi-float-dim", "pi-float-degree", "pi-bool-dim",
        "pi-key-space-sign", "pi-key-leading-zero", "pi-key-inner-space", "pi-key-non-ascii",
        "vol-list", "vol-int-density", "vol-float-dim", "table-list",
        "table-exact-div-zero", "table-value-null", "table-bool-exact", "table-float-exact",
        "table-sci-exact", "table-exact-not-value", "table-int-graph", "table-repeated-entry",
        "table-float-samples", "table-bool-seed", "table-float-seed", "table-string-value",
        "table-float-rejected", "table-bool-std-error", "table-string-alpha", "out-table-list"])
def test_malformed_input_file_exits_2(capsys, tmp_path, flag, text, argv):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, flag, str(path))
    assert code == 2
    assert err.startswith("error: bad ") and err.count("\n") == 1
    assert out == ""


_DEGREE_0 = {"dim": 3, "degree": 0, "components": {"1": "x2"}}
_DEGREE_2 = {"dim": 3, "degree": 2, "components": {"1,2,3": "1"}}


@pytest.mark.parametrize("argv, files, message", [
    (("check", "cyclic", "--pi", "{tmp}/pi.json"), {"pi.json": _DEGREE_0},
     "'{tmp}/pi.json' is not a bivector (degree 0)"),
    (("check", "cyclic", "--pi", "{tmp}/pi.json"), {"pi.json": _DEGREE_2},
     "'{tmp}/pi.json' is not a bivector (degree 2)"),
    (("star", "apply", "--pi", "{tmp}/pi.json", "--f", "x1", "--g", "x2"), {"pi.json": _DEGREE_0},
     "'{tmp}/pi.json' is not a bivector (degree 0)"),
    (("star", "apply", "--pi", "{tmp}/pi.json", "--f", "x1", "--g", "x2"), {"pi.json": _DEGREE_2},
     "'{tmp}/pi.json' is not a bivector (degree 2)"),
    (("check", "cyclic", "--pi", "so3", "--vol", "{tmp}/vol.json"), {"vol.json": {"dim": 2}},
     "volume form dim 2 does not match bivector dim 3"),
    (("weights", "compute", "--n", "1", "--m", "3", "--alpha", "0,x,1", "--samples", "16", "--seed", "1"),
     {}, "bad alpha list '0,x,1'"),
    (("weights", "compute", "--n", "1", "--m", "3", "--samples", "16", "--seed", "1"),
     {}, "--alpha is required for m = 3"),
], ids=["cyclic-pi-degree-0", "cyclic-pi-degree-2", "apply-pi-degree-0", "apply-pi-degree-2",
        "vol-dim", "alpha-not-a-number", "alpha-missing-at-m-3"])
def test_refused_input_exits_2_with_one_error_line(capsys, tmp_path, argv, files, message):
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out, err) == (2, "", "error: %s\n" % message.format(tmp=tmp_path))


def test_sampled_tables_load(capsys, tmp_path):
    # the well-typed table of the malformed cases above, and the tables that
    # weights compute writes on both routes, are read by star apply
    path = tmp_path / "table.json"
    path.write_text(_sampled_table())
    assert run(capsys, *_APPLY_1, "--table", str(path))[0] == 0
    for route in (("--m", "3", "--alpha", "0,0,1"), ("--m", "2")):
        path = tmp_path / ("table%s.json" % route[1])
        code, _, _ = run(capsys, "weights", "compute", "--n", "1", *route, "--samples", "64",
                         "--seed", "1", "--out-table", str(path))
        assert code == 0
        code, out, err = run(capsys, *_APPLY_1, "--table", str(path))
        assert code == 0 and err == ""


@pytest.mark.parametrize("flag, argv", [
    ("--out", ("check", "cyclic", "--pi", "so3")),
    ("--out-table", ("weights", "compute", "--n", "1", "--m", "2", "--samples", "16", "--seed", "1")),
], ids=["out", "out-table"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, monkeypatch, flag, argv):
    from starcycle import weights

    def unused(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    # found before anything is assembled or sampled
    monkeypatch.setattr(cli, "assemble_star", unused)
    monkeypatch.setattr(weights, "halfplane_weight", unused)
    (tmp_path / "afile").write_text("")
    for path in (str(tmp_path / "missing" / "x.json"), str(tmp_path),
                 str(tmp_path / "afile" / "x.json")):
        code, out, err = run(capsys, *argv, flag, path)
        assert code == 2 and out == ""
        assert err == "error: cannot write %r: not a writable file path\n" % path


@pytest.mark.parametrize("field, bad", [("value", float("nan")), ("std_error", float("inf"))])
def test_non_finite_table_entry_exits_2_naming_the_graph(capsys, tmp_path, field, bad):
    # json writes these as NaN and Infinity, which json.loads reads back
    entry = {"graph": "1;3;b1,b2", "alphas": [0, 0, 1], "value": 0.5, "std_error": 0.01,
             "samples": 16, "seed": 1, field: bad}
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": [entry]}))
    code, out, err = run(capsys, "star", "apply", "--pi", "so3", "--f", "x1", "--g", "x2",
                         "--table", str(path))
    assert code == 2
    assert err.startswith("error: bad weight table file ")
    assert "1;3;b1,b2" in err and "must be finite" in err
    assert out == ""


@pytest.fixture
def int_str_limit_640():
    """Python's int-to-str digit limit at its minimum, 640, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


_NINES = "9" * 400  # a 400-digit coefficient; its products have about 800 digits


@pytest.mark.parametrize("argv, files", [
    (("star", "apply", "--pi", "moyal", "--f", _NINES + "*x1", "--g", _NINES + "*x2", "--order", "1"),
     {}),
    (("check", "jacobi"),
     {"--pi": {"dim": 3, "degree": 1, "components": {"1,2": _NINES + "*x3", "1,3": _NINES + "*x1"}}}),
    (("check", "divergence"),
     {"--pi": {"dim": 3, "degree": 1, "components": {"1,2": _NINES + "*x1*x3", "2,3": _NINES + "*x1"}},
      "--vol": {"dim": 3, "log_density": _NINES + "*x1^2*x2"}}),
], ids=["star-apply", "check-jacobi", "check-divergence"])
def test_result_too_long_to_print_exits_2(capsys, tmp_path, int_str_limit_640, argv, files):
    for flag, obj in files.items():
        path = tmp_path / (flag[2:] + ".json")
        path.write_text(json.dumps(obj))
        argv += (flag, str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "integer string conversion" in err


# ------------------------------------------------- state reused across calls
#
# main() keeps one parser and one bundled table per process; these pin that
# reusing them changes no report.

_APPLY = {"so3": ("x1^2*x2 + 1/3*x3", "x2*x3^2 - x1"),
          "moyal": ("x1^2*x2 + 1/2", "x2^3 - 3*x1*x2")}

# sha256 of the canonical JSON report of each command at --order 2, taken
# before the per-process parser and table and the int coefficients
_PINNED = {
    ("so3", "cyclic"): "38b1bab51b3467c0399d42e4d61fbddd8ae5d93f1ff838332f08459d52fb10a0",
    ("so3", "closed"): "e4f8742d699dcd2f9266e3e39ddaf6cf34433711621a22e97bd614a048857a31",
    ("so3", "assoc"): "47c7a6d61caaff1411a6560a7994d256c0bdf3239d7fb9dad1d5480edd50399f",
    ("so3", "apply"): "dc055235aae2810e62f9af20aa25d8b2875b9d5ba5633deff75fd3323d304519",
    ("moyal", "cyclic"): "ed20ff26625dad844d04b5bd1dcf033288407ec8e9de99f3a79b4671a8ece3ac",
    ("moyal", "closed"): "ac6613fa4d80b5a3f100526e07c6a4199c0d44d48714b80cf33a3ab15fa25086",
    ("moyal", "assoc"): "f43987428f05dfaff591314c48ab2431b747b0d692f397bacdbf423a3fa74313",
    ("moyal", "apply"): "bb13da22c3562093b77a9739f603a709efaf8ba9d51b76e97b5d4a5478a70134",
}


def _exact_argv(pi, command):
    if command == "apply":
        f, g = _APPLY[pi]
        return ["star", "apply", "--pi", pi, "--f", f, "--g", g, "--order", "2"]
    return ["check", command, "--pi", pi, "--order", "2"]


@pytest.mark.parametrize("pi, command", sorted(_PINNED))
def test_exact_reports_are_pinned(capsys, pi, command):
    code, out, _ = run(capsys, *_exact_argv(pi, command), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[pi, command]


# sha256 of the report below, taken before assoc_defect composed with B_0 in
# closed form
_FAILING_ASSOC_PIN = "6512bc940d958ec233188a0e586571de8c7eabea240ce3929366a586115ee48c"


def test_failing_assoc_report_is_pinned(capsys, tmp_path, monkeypatch):
    # an internal-edge weight zeroed breaks so3 at order 2; the table is
    # named by a relative path, which the report records as given
    monkeypatch.chdir(tmp_path)
    write_corrupted_table(tmp_path / "corrupted.json", "2;3;b1,2|b1,b2")
    code, out, _ = run(capsys, *_exact_argv("so3", "assoc"), "--table", "corrupted.json",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["result"]["orders"][2]["residual"]
    assert hashlib.sha256(out.encode()).hexdigest() == _FAILING_ASSOC_PIN


# sha256 of failing jacobi and divergence reports, taken before the bracket
# and the divergence each became one pass over the components
_FAILING_HYPOTHESIS_PINS = {
    "jacobi": "200169a8a19004f37b36c988f570186b85de81e1637aae4f5ed59548800256db",
    "nondiv": "37e520ac8efdebbbb9d72b2f9f089207661ea0e6f04ae82fb091dba4e3168630",
    "so3-vol": "91051d3057202c45bd462781b9539ab3b7adcaf1c8b4ddec5a4511c3d239d00c",
}


@pytest.mark.parametrize("case, argv, residual", [
    # [pi, pi]_{1,2,3} = 2*x1*x3 for this bivector
    ("jacobi", ["check", "jacobi", "--pi", "pi.json"], "2*x1*x3"),
    ("nondiv", ["check", "divergence", "--pi", "nondiv"], "(1) d2"),
    # so3 is divergence-free only for a constant density
    ("so3-vol", ["check", "divergence", "--pi", "so3", "--vol", "vol.json"], "(x2^2 - x3^2) d1"),
])
def test_failing_hypothesis_reports_are_pinned(capsys, tmp_path, monkeypatch, case, argv, residual):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pi.json").write_text(json.dumps(
        {"dim": 3, "degree": 1, "components": {"1,2": "x3", "2,3": "x1*x2"}}))
    (tmp_path / "vol.json").write_text(json.dumps({"dim": 3, "log_density": "x1^2 + x2*x3"}))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert residual in out
    assert hashlib.sha256(out.encode()).hexdigest() == _FAILING_HYPOTHESIS_PINS[case]


# sha256 of sampled reports, taken before the weighted graph sums walked
# star_orbits: check alpha at orders 1 and 2, and star apply on a Monte Carlo
# table, whose float weights take the other branch of the weight reader.  The
# last was taken again when half-plane entries moved to their 3-boundary keys,
# which changed the table's sha256 and nothing in its levels
_ALPHA_PINS = {1: "43132d4632484bcc3c590df10209b8274a703a45111069876b8b5ae296090910",
               2: "c49ab23e297d1bc566aceae10b31e28d27011d6ce33a7bc32bfab09b5b88bb11"}
_MC_APPLY_PIN = "cf9f64903023797e3760f921be56e2acdc4a397d3548fd5c968aa3033cd841d7"


@pytest.mark.parametrize("order", sorted(_ALPHA_PINS))
def test_alpha_report_is_pinned(capsys, order):
    code, out, _ = run(capsys, "check", "alpha", "--pi", "so3", "--alpha", "0,0,1",
                       "--alpha2", "1,0,0", "--samples", "4096", "--seed", "2",
                       "--order", str(order), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _ALPHA_PINS[order]


def test_monte_carlo_apply_report_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for n, seed in (("1", "5"), ("2", "7")):
        code, _, _ = run(capsys, "weights", "compute", "--n", n, "--m", "2", "--samples", "4096",
                         "--seed", seed, "--out-table", "mc.json")
        assert code == 0
    f, g = _APPLY["so3"]
    code, out, _ = run(capsys, "star", "apply", "--pi", "so3", "--f", f, "--g", g,
                       "--order", "2", "--table", "mc.json", "--format", "json")
    assert code == 0
    assert json.loads(out)["inputs"]["table"]["provenance"] == {"exact": 0, "monte_carlo": 38}
    assert hashlib.sha256(out.encode()).hexdigest() == _MC_APPLY_PIN


# sha256 of weights compute reports, taken before each chunk streamed its
# draws block by block: 70000 samples are a full chunk, then a tail chunk
# that ends in a short block.  The --m 2 report was taken again when its
# entries moved to their 3-boundary keys: only graph, alphas and the table's
# sha256 changed
_WEIGHTS_PINS = {
    ("--n", "2", "--m", "2", "--samples", "70000", "--seed", "4"):
        "eecd7b3c791f05279acd780cf425664296a4d41ce2d36c8b9855822bc46707c9",
    ("--n", "1", "--m", "3", "--alpha", "0.3,-0.7,1.1", "--samples", "70000", "--seed", "9"):
        "f102a9afb0e4687b3892c6fe355efbc94ea69f62cad03d97c0e1f93cda415507",
    # the order-2 disk route, 144 graphs: A != 1 with 2-cycles both ways, then A == 1
    ("--n", "2", "--m", "3", "--alpha", "0.3,-0.7,1.1", "--samples", "4096", "--seed", "3"):
        "311ba1ec8d4fef000d5258aab8fbc52ee908d348881409125bb9be9815f1db14",
    ("--n", "2", "--m", "3", "--alpha", "0,0,1", "--samples", "4096", "--seed", "3"):
        "5771c9181033d0251d61f552904e86846d0b6864568a317a6bc7b86ceb29d1d9",
}


@pytest.mark.parametrize("args", sorted(_WEIGHTS_PINS))
def test_weights_report_is_pinned(capsys, args):
    code, out, _ = run(capsys, "weights", "compute", *args, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _WEIGHTS_PINS[args]


def test_alpha_seeds_are_distinct_at_every_order(capsys, monkeypatch):
    from starcycle import weights

    seeds = []

    def recorded(g, ctx, samples, seed):
        seeds.append(seed)
        return starcycle.WeightEntry(g.canonical_key(), ctx.alphas, 0.0, 0.0, samples, seed)

    # nothing is sampled or contracted
    monkeypatch.setattr(weights, "compute_weight", recorded)
    monkeypatch.setattr(cli, "check_alpha_independence", lambda *a, **kw: {"passed": True})
    for order, count in ((1, 6), (2, 144), (3, 8000)):
        del seeds[:]
        code, _, _ = run(capsys, "check", "alpha", "--pi", "so3", "--alpha", "0,0,1",
                         "--alpha2", "1,0,0", "--samples", "16", "--seed", "9",
                         "--order", str(order), "--format", "json")
        assert code == 0
        assert len(seeds) == len(set(seeds)) == 2 * count
        if order < 3:
            assert seeds == [9 + 1000 * side + k for side in (0, 1) for k in range(count)]


def test_consecutive_calls_give_identical_reports(capsys, tmp_path):
    blobs = []
    for k in range(2):
        path = tmp_path / ("report%d.json" % k)
        code, out, _ = run(capsys, "check", "assoc", "--pi", "so3", "--format", "json",
                           "--out", str(path))
        assert code == 0
        blobs.append((out, path.read_bytes()))
    assert blobs[0] == blobs[1]
    assert blobs[0][0].encode() == blobs[0][1]


def test_table_file_is_read_on_every_call(capsys, tmp_path):
    table = json.loads((resources.files("starcycle") / "data/weights_exact.json").read_text())
    path = tmp_path / "table.json"
    shas = []
    for exact, value in (("1/2", 0.5), ("1/3", 1 / 3)):
        for entry in table["entries"]:
            if entry["graph"] == "1;3;b1,b2":
                entry["exact"], entry["value"] = exact, value
        path.write_text(json.dumps(table))
        code, out, _ = run(capsys, "check", "closed", "--pi", "so3", "--order", "1",
                           "--table", str(path), "--format", "json")
        report = json.loads(out)
        assert report["inputs"]["table"]["path"] == str(path)
        shas.append(report["inputs"]["table"]["sha256"])
        assert shas[-1] == WeightTable.from_json(json.loads(path.read_text())).fingerprint()
    assert shas[0] != shas[1]


def test_bundled_table_is_unchanged_by_exact_commands(capsys):
    builtin = WeightTable.builtin().fingerprint()
    for argv in (_exact_argv("so3", "assoc"), _exact_argv("moyal", "apply")):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        meta = json.loads(out)["inputs"]["table"]
        assert meta == {"path": "builtin", "sha256": builtin,
                        "provenance": {"exact": 42, "monte_carlo": 0}}
        assert cli._builtin_table()[0].fingerprint() == builtin


def test_reports_do_not_share_metadata(capsys):
    # each report is built from fresh dicts, so a caller's edit of one
    # report's metadata cannot reach the next
    first = cli._cmd_check(cli._parser().parse_args(_exact_argv("moyal", "closed")))
    first["inputs"]["table"]["provenance"]["exact"] = -1
    second = cli._cmd_check(cli._parser().parse_args(_exact_argv("moyal", "closed")))
    assert second["inputs"]["table"]["provenance"] == {"exact": 42, "monte_carlo": 0}


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "assoc", "--pi", "so3", "--order", "two"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    code, out, _ = run(capsys, *_exact_argv("so3", "assoc"), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED["so3", "assoc"]


# ------------------------------------------------- numpy only with the sampler

_NO_SAMPLER = [
    ["check", "cyclic", "--pi", "so3"],
    ["check", "closed", "--pi", "so3"],
    ["check", "assoc", "--pi", "so3"],
    ["check", "jacobi", "--pi", "so3"],
    ["check", "divergence", "--pi", "so3"],
    ["star", "apply", "--pi", "so3", "--f", "x1", "--g", "x2"],
    ["graphs", "enumerate", "--n", "1", "--m", "2", "--edges", "2"],
    ["weights", "compute", "--n", "1", "--m", "2", "--samples", "16", "--seed", "1"],
]


def _fresh(code, bare=False):
    """stdout of code run in a new interpreter that imports this starcycle.
    A bare one runs with -S: no site-packages and so no .pth hook that
    preloads modules; numpy's directory alone is put on its path."""
    path = [os.path.dirname(os.path.dirname(starcycle.__file__))]
    if bare:
        path.append(os.path.dirname(os.path.dirname(importlib.util.find_spec("numpy").origin)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, *(["-S"] if bare else []), "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_only_the_sampler_loads_numpy():
    steps = _fresh("""
import contextlib, io, json, sys
import starcycle, starcycle.cli
steps = [("import", 0, "numpy" in sys.modules)]
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = starcycle.cli.main(argv)
    steps.append((" ".join(argv[:2]), rc, "numpy" in sys.modules))
print(json.dumps(steps))
""" % _NO_SAMPLER)
    assert [rc for _, rc, _ in steps] == [0] * len(steps)
    assert [name for name, _, loaded in steps if loaded] == ["weights compute"]


def test_sampler_names_resolve_on_first_use():
    got = _fresh("""
import json, sys
import starcycle
before = "numpy" in sys.modules
from starcycle import compute_weight, default_threads, halfplane_weight, mixed_edge_integral
star = {}
exec("from starcycle import *", star)
try:
    starcycle.no_such_name
    missing = "resolved"
except AttributeError as e:
    missing = str(e)
w = starcycle.weights
print(json.dumps({
    "before": before,
    "after": "numpy" in sys.modules,
    "same": [compute_weight is w.compute_weight, default_threads is w.default_threads,
             halfplane_weight is w.halfplane_weight,
             mixed_edge_integral is w.mixed_edge_integral],
    "star": sorted(set(starcycle.__all__) - set(star)),
    "missing": missing,
}))
""")
    assert got == {"before": False, "after": True, "same": [True] * 4, "star": [],
                   "missing": "module 'starcycle' has no attribute 'no_such_name'"}


# ------------------------------------------- only the modules a process uses

_UNUSED = ["numpy", "dataclasses", "inspect", "importlib.resources", "concurrent.futures", "shutil"]


def test_exact_commands_load_only_what_they_use():
    loaded = _fresh("""
import contextlib, io, json, sys
import starcycle, starcycle.cli
starcycle.WeightTable.builtin()
with contextlib.redirect_stdout(io.StringIO()):
    assert starcycle.cli.main(["check", "cyclic", "--pi", "so3"]) == 0
print(json.dumps([name for name in %r if name in sys.modules]))
""" % _UNUSED, bare=True)
    assert loaded == []


def test_weight_table_loads_openssl_only_to_fingerprint(capsys):
    got = _fresh("""
import json, sys
import starcycle
table = starcycle.WeightTable.builtin()
before = [name for name in ("hashlib", "_hashlib") if name in sys.modules]
print(json.dumps({"before": before, "sha": table.fingerprint(), "after": "_hashlib" in sys.modules}))
""", bare=True)
    code, out, _ = run(capsys, "check", "cyclic", "--pi", "so3", "--format", "json")
    assert code == 0
    assert got == {"before": [], "sha": json.loads(out)["inputs"]["table"]["sha256"], "after": True}


def test_exact_commands_load_only_what_they_use_on_every_exit_path():
    runs = [(["check", which, "--pi", "so3"], 0) for which in ("cyclic", "closed", "assoc", "jacobi")]
    runs += [(["check", "divergence", "--pi", "nondiv"], 1),
             (["star", "apply", "--pi", "so3", "--f", "x1", "--g", "x2"], 0),
             (["graphs", "enumerate", "--n", "1", "--m", "2", "--edges", "2"], 0),
             (["check", "cyclic", "--pi", "nondiv", "--order", "1"], 1),
             (["star", "apply", "--pi", "so3", "--f", "x1 +", "--g", "x2"], 2)]
    loaded = _fresh("""
import contextlib, io, json, sys
from starcycle.cli import main
for argv, code in %r:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code, argv
print(json.dumps([name for name in %r if name in sys.modules]))
""" % (runs, _UNUSED), bare=True)
    assert loaded == []


def _parsers(parser):
    """parser and every parser under it, depth first."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


@pytest.mark.parametrize("columns", ["60", "80", "200"])
def test_help_reads_the_width_as_argparse_does(monkeypatch, capsys, columns):
    """Without shutil, every --help text is still byte for byte the one
    argparse's own HelpFormatter writes at that terminal width."""
    monkeypatch.setenv("COLUMNS", columns)
    ours = {p.prog: p.format_help() for p in _parsers(cli.build_parser())}
    assert len(ours) == 14
    with pytest.raises(SystemExit):
        main(["check", "assoc", "--help"])
    assert capsys.readouterr().out == ours["starcycle check assoc"]
    monkeypatch.delattr(cli._Parser, "_get_formatter")
    assert {p.prog: p.format_help() for p in _parsers(cli.build_parser())} == ours


def test_one_thread_sampler_runs_without_a_thread_pool():
    loaded = _fresh("""
import json, sys
import starcycle
g = starcycle.AdmissibleGraph.from_key("1;3;b1,b2")
ctx = starcycle.AngleContext.standard((0.0, 0.0, 1.0))
steps = []
for threads in (1, 2):
    starcycle.compute_weight(g, ctx, 1 << 12, 1, threads=threads)
    steps.append("concurrent.futures" in sys.modules)
print(json.dumps(steps))
""", bare=True)
    assert loaded == [False, True]
