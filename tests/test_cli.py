"""Command line interface: exit codes, text output, canonical JSON reports."""

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
    vals = {e["graph"]: e["value"] for e in entries}
    assert abs(vals["1;2;b1,b2"] - 0.5) < 0.02


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
    ("--vol", "[]", ("check", "divergence", "--pi", "so3")),
    ("--vol", json.dumps({"dim": 3, "log_density": 1}), ("check", "cyclic", "--pi", "so3")),
    ("--table", "[]", ("check", "assoc", "--pi", "so3")),
    ("--table", json.dumps({"entries": [dict(_ENTRY, exact="1/0")]}),
     ("star", "apply", "--pi", "so3", "--f", "x1", "--g", "x2")),
    ("--table", json.dumps({"entries": [dict(_ENTRY, value=None)]}),
     ("check", "closed", "--pi", "so3")),
    ("--table", json.dumps({"entries": [_ENTRY, dict(_ENTRY, value=0.0, exact="0/1")]}),
     ("check", "assoc", "--pi", "so3")),
    ("--out-table", "[]", ("weights", "compute", "--n", "1", "--m", "2",
                           "--samples", "16", "--seed", "1")),
], ids=["pi-list", "pi-int-component", "pi-nested-too-deep", "pi-skew-matrix",
        "pi-symmetric-pair", "pi-repeated-axis", "vol-list", "vol-int-density", "table-list",
        "table-exact-div-zero", "table-value-null", "table-repeated-entry", "out-table-list"])
def test_malformed_input_file_exits_2(capsys, tmp_path, flag, text, argv):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, flag, str(path))
    assert code == 2
    assert err.startswith("error: bad ")
    assert out == ""


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


# sha256 of sampled reports, taken before the weighted graph sums walked
# star_orbits: check alpha at orders 1 and 2, and star apply on a Monte Carlo
# table, whose float weights take the other branch of the weight reader
_ALPHA_PINS = {1: "43132d4632484bcc3c590df10209b8274a703a45111069876b8b5ae296090910",
               2: "c49ab23e297d1bc566aceae10b31e28d27011d6ce33a7bc32bfab09b5b88bb11"}
_MC_APPLY_PIN = "154d63c4ff438c42009f4f3b2b76af8143d43e8bf391ec64779a4a7976958811"


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
# that ends in a short block
_WEIGHTS_PINS = {
    ("--n", "2", "--m", "2", "--samples", "70000", "--seed", "4"):
        "b49a4e019610274d052e201e5b82e948ca1356d38b755916a42e926bf3dec94c",
    ("--n", "1", "--m", "3", "--alpha", "0.3,-0.7,1.1", "--samples", "70000", "--seed", "9"):
        "f102a9afb0e4687b3892c6fe355efbc94ea69f62cad03d97c0e1f93cda415507",
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
    for exact in ("1/2", "1/3"):
        for entry in table["entries"]:
            if entry["graph"] == "1;3;b1,b2":
                entry["exact"] = exact
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

_UNUSED = ["numpy", "dataclasses", "inspect", "importlib.resources", "concurrent.futures"]


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
