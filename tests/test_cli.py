import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul import cli, spencer
from koszul.errors import ConformanceMismatch
from oracles import fresh_parse, json_report

SO3_ROWS = [
    [0, 1, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, -1, 0],
]


def run_main(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_report_envelope():
    rep = cli.run(["check-lie", "--catalog", "so3"])
    assert sorted(rep) == ["command", "inputs", "result", "schema", "seed"]
    assert rep["schema"] == "koszul-report/1"
    assert rep["command"] == ["check-lie", "--catalog", "so3"]
    assert rep["seed"] == 7
    assert len(rep["inputs"]["sha256"]) == 64
    assert rep["result"] == {"valid": True, "dim": 3}


def test_seed_resolution():
    rep = cli.run(["check-lie", "--catalog", "so3", "--seed", "5"])
    assert rep["seed"] == 5


def test_json_output_deterministic_bytes(capsys):
    argv = ["invariants", "--catalog", "so3", "--which", "bimetric",
            "--seed", "11"]
    code1, out1 = run_main(capsys, argv)
    code2, out2 = run_main(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert list(doc) == sorted(doc)
    assert doc["result"]["exists"] == "yes"
    assert doc["result"]["witness"] == "killing"


def test_sampling_commands_deterministic(capsys):
    argv = ["flat-models", "completeness", "--catalog", "matrix:2",
            "--seed", "3"]
    code1, out1 = run_main(capsys, argv)
    code2, out2 = run_main(capsys, argv)
    assert code1 == code2 == 0 and out1 == out2
    res = json.loads(out1)["result"]
    assert res["verdict"] == "incomplete" and res["witness"] is not None


def test_affine1_conjugate_completeness_has_an_empty_note(capsys, tmp_path):
    # aff(1) in the basis (e + 3f, 2e + f): the former root analysis noted
    # "discriminant vanishes identically" here
    path = tmp_path / "aff1-conjugate.json"
    path.write_text(json.dumps({"dim": 2, "gamma": [
        [0, 0, 0, "1"], [0, 1, 0, "2"], [1, 0, 1, "1"], [1, 1, 1, "2"]]}))
    code, out = run_main(capsys, ["flat-models", "completeness",
                                  "--product", str(path)])
    assert code == 0
    assert json.loads(out)["result"] == {
        "verdict": "incomplete", "witness": ["-1", "0"],
        "method": "exact-roots", "note": ""}


@pytest.mark.parametrize("which, catalog, cartan", [
    ("sb", "sl2", None),
    ("sb", "abelian:3", None),
    ("sb+", "so3", None),
    ("sb+", "abelian:4", None),
    ("s*b", "abelian:4", "zero"),
    ("s*b", "heisenberg", "zero"),
    ("hessian", "abelian:3", "zero"),
    ("bimetric", "so3", None),
    ("bimetric", "heisenberg", None),
    ("symplectic", "abelian:4", None),
    ("symplectic", "affine:2", None),
])
def test_rank_verdicts_do_not_read_the_seed(capsys, which, catalog, cartan):
    argv = ["invariants", "--catalog", catalog, "--which", which]
    argv += ["--cartan", cartan] if cartan else []
    docs = []
    for seed in ("1", "2"):
        code, out = run_main(capsys, argv + ["--seed", seed])
        assert code == 0
        docs.append(json.loads(out))
    assert [d["seed"] for d in docs] == [1, 2]
    assert json.dumps(docs[0]["result"]) == json.dumps(docs[1]["result"])


def test_timing_and_dump_are_optional():
    argv = ["check-lie", "--catalog", "heisenberg"]
    assert "timing_ms" not in cli.run(argv)
    assert "dump" not in cli.run(argv)
    rep = cli.run(argv + ["--timing"])
    assert isinstance(rep["timing_ms"], float)
    rep = cli.run(argv + ["--dump"])
    assert "algebra" in rep["dump"]


def test_dump_roundtrip_is_a_fixpoint(tmp_path):
    rep1 = cli.run(["check-lie", "--catalog", "heisenberg", "--dump"])
    doc = rep1["dump"]["algebra"]
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(doc))
    rep2 = cli.run(["check-lie", "--algebra", str(path), "--dump"])
    assert rep2["dump"]["algebra"] == doc
    assert rep2["result"] == rep1["result"] == {"valid": True, "dim": 3}


def test_bimetric_failure_carries_certificate():
    # a unimodular "no" comes from the rank walk, a non-unimodular one from
    # the trace of an ad(e_i)
    res = cli.run(["invariants", "--catalog", "heisenberg",
                   "--which", "bimetric"])["result"]
    assert res["exists"] == "no" and res["witness"] is None
    assert "annihilates" in res["certificate"]
    res = cli.run(["invariants", "--catalog", "aff1",
                   "--which", "bimetric"])["result"]
    assert res["exists"] == "no" and res["witness"] is None
    assert res["certificate"] == (
        "tr ad(e_0) = 1 is not 0, so the algebra is not unimodular; a "
        "nondegenerate ad-invariant form makes every ad_x skew, of trace 0")


def test_the_empty_form_answers_both_definite_queries_yes():
    # on the algebra of dimension 0 the one form, the empty one, is a
    # positive definite invariant metric
    argv = ["invariants", "--catalog", "abelian:0", "--which"]
    sb = cli.run(argv + ["sb+"])["result"]
    bimetric = cli.run(argv + ["bimetric"])["result"]
    assert sb["exists"] == bimetric["exists"] == "yes"
    assert sb["s_b"] == 0 and sb["notes"] == ""
    assert bimetric["notes"] == "witness is positive definite"


def test_tower_command():
    res = cli.run(["flat-models", "tower", "--m", "1",
                   "--steps", "3"])["result"]
    assert res["dims"] == [1, 2, 6, 42]
    assert res["levels_materialized"] == [True, True, True]


def test_festar_command_reports_rank():
    res = cli.run(["gauge", "--catalog", "abelian:2", "--cartan", "zero",
                   "--op", "festar"])["result"]
    assert res["dim_solution"] == 6 and res["r_b"] == 2
    assert res["shrink_steps"] >= 0
    assert len(res["basis"]) == 6 and len(res["basis"][0]) == 6


def test_kv_cohomology_command():
    res = cli.run(["kv-cohomology", "--catalog", "heisenberg-kv",
                   "--complex", "kv", "--coeffs", "scalar"])["result"]
    assert res["complex"] == "kv" and res["dim"] == 3
    assert res["betti"] == [1, 2, 5, 13]


@pytest.mark.parametrize("complex_, catalog", [
    ("kv", "heisenberg-kv"), ("ce", "so3"), ("hochschild", "matrix:2")])
def test_negative_max_degree_exits_2(capsys, complex_, catalog):
    code, out = run_main(capsys, ["kv-cohomology", "--complex", complex_,
                                  "--catalog", catalog, "--max-degree", "-1"])
    assert code == 2
    assert json.loads(out)["error"] == {
        "message": "max_degree -1 is negative", "type": "ValidationError"}


@pytest.mark.parametrize("complex_, catalog, cap", [
    ("kv", "heisenberg-kv", 3), ("ce", "so3", 3), ("hochschild", "matrix:2", 2)])
def test_max_degree_defaults_to_the_cap_and_refuses_above_it(
        capsys, complex_, catalog, cap):
    argv = ["kv-cohomology", "--complex", complex_, "--catalog", catalog]
    res = cli.run(argv)["result"]
    assert len(res["betti"]) == cap + 1
    assert cli.run(argv + ["--max-degree", str(cap)])["result"] == res
    code, out = run_main(capsys, argv + ["--max-degree", str(cap + 1)])
    assert code == 2
    assert json.loads(out)["error"] == {
        "message": f"degrees capped at {cap}", "type": "ValidationError"}


@pytest.mark.parametrize("coeffs", ["scalar", "trivial"])
def test_hochschild_refuses_coefficients_other_than_adjoint(capsys, coeffs):
    code, out = run_main(capsys, ["kv-cohomology", "--complex", "hochschild",
                                  "--catalog", "matrix:2", "--coeffs", coeffs])
    assert code == 2
    assert json.loads(out)["error"] == {
        "message": "hochschild coefficients must be adjoint",
        "type": "ValidationError"}


def test_spencer_command(tmp_path):
    path = tmp_path / "so3-symbol.json"
    path.write_text(json.dumps(
        {"v": 3, "w": 3, "basis": [[str(x) for x in r] for r in SO3_ROWS]}))
    res = cli.run(["spencer", "--symbol", str(path),
                   "--op", "involutive", "--trials", "20"])["result"]
    assert res["verdict"] == "no" and res["basis"] is None
    assert tuple(res["cohomology_witness"]) == (2, 0)
    res = cli.run(["spencer", "--symbol", str(path), "--op", "cartan"])
    assert res["result"]["quasi_regular"] is False


def test_statmodel_command():
    res = cli.run(["statmodel", "--family", "bernoulli",
                   "--op", "fisher"])["result"]
    assert abs(res["fisher"][0][0] - 4.0) < 1e-9
    assert res["theta"] == [0.5]


@pytest.mark.parametrize("op, theta", [("fisher", "0.6,0.5"),
                                       ("defect", "0.5,0.49")])
def test_categorical_theta_outside_the_simplex_exits_2(capsys, op, theta):
    # the fisher point sums past 1; the defect point is inside, but on the
    # domain margin, where no probe grid fits
    code, out = run_main(capsys, ["statmodel", "--family", "categorical:3",
                                  "--op", op, "--theta=" + theta])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DomainViolation"


@pytest.mark.parametrize("theta", [None, "0.45,0.4"])
def test_categorical_defect_probe_shrinks_its_grid(theta):
    # +-0.3 leaves the simplex at both points; a smaller grid fits, and
    # the family is dually flat: both ends of the alpha family read
    # rounding alone, so either may be the best, and the notes name both
    argv = ["statmodel", "--family", "categorical:3", "--op", "defect"]
    res = cli.run(argv + ([] if theta is None else ["--theta=" + theta]))
    res = res["result"]
    assert res["grid_size"] == 9 and res["exponential_like"] is True
    assert max(res["curvature_norms"].values()) < 1e-8
    assert res["best_alpha"] in (-1.0, 1.0)
    assert res["notes"] == "flat within tolerance at alpha = -1 and +1"


# Work that grows as a power of an argument is refused before it is built,
# and a malformed outcome count before any model is. Each input lies just
# above its bound; matrix:46 lies just below the table bound, so its table
# is built (about 0.3 s and 63 MB as a subprocess) and the associator's own
# envelope refuses it. Inputs just below the other bounds are answered in
# test_cohomology.py and test_statmodel.py.
REFUSALS = [
    (["check-lie", "--catalog", "affine:47"],
     "refused: affine algebra table entries estimated at 106032, above the "
     "bound of 100000"),
    (["algebra", "--op", "associator", "--catalog", "matrix:47"],
     "refused: matrix algebra table entries estimated at 103823, above the "
     "bound of 100000"),
    (["algebra", "--op", "associator", "--catalog", "matrix:46"],
     "refused: operator defect accumulator entries estimated at 8954912, "
     "above the bound of 1000000"),
    (["kv-cohomology", "--complex", "ce", "--coeffs", "trivial",
      "--catalog", "abelian:70"],
     "refused: cochain index tuples estimated at 1031346, above the bound "
     "of 1000000"),
    (["kv-cohomology", "--complex", "kv", "--coeffs", "scalar",
      "--catalog", "zero:32"],
     "refused: cochain index tuples estimated at 1082400, above the bound "
     "of 1000000"),
    (["kv-cohomology", "--complex", "hochschild", "--catalog", "zero:100"],
     "refused: cochain index tuples estimated at 1010100, above the bound "
     "of 1000000"),
    (["statmodel", "--family", "categorical-natural:7", "--op", "defect"],
     "refused: statmodel work units estimated at 105815808, above the "
     "bound of 20000000"),
    (["statmodel", "--family", "categorical-natural:20", "--op",
      "curvature"],
     "refused: statmodel work units estimated at 41702720, above the "
     "bound of 20000000"),
    (["statmodel", "--family", "categorical:x", "--op", "fisher"],
     "family 'categorical:x': the outcome count must be an integer, e.g. "
     "categorical:3"),
    (["statmodel", "--family", "categorical-natural:2.5", "--op", "fisher"],
     "family 'categorical-natural:2.5': the outcome count must be an "
     "integer, e.g. categorical-natural:3"),
]


@pytest.mark.parametrize("argv, message", REFUSALS,
                         ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_oversized_or_malformed_inputs_exit_2(capsys, argv, message):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert json.loads(out)["error"] == {"message": message,
                                        "type": "ValidationError"}


def test_the_form_flag_is_gone(capsys):
    # --metric is the one name of the metric file, and --form is no
    # abbreviation of --format either
    with pytest.raises(SystemExit) as exc:
        cli.main(["connection", "--catalog", "so3", "--cartan", "zero",
                  "--op", "dual", "--form", "g.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --form g.json" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["check-lie", "--catalog", "so3", "--form", "text"], "--form text"),
    (["kv-cohomology", "--catalog", "heisenberg-kv", "--complex", "kv",
      "--coeffs", "scalar", "--max-deg", "1"], "--max-deg 1"),
    (["flat-models", "tower", "--m", "1", "--steps", "3", "--form",
      "text"], "--form text"),
])
def test_an_abbreviated_option_is_refused(argv, option):
    # argparse would take a unique prefix of an option for the option
    done = subprocess.run(
        [sys.executable, "-m", "koszul.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert f"unrecognized arguments: {option}" in done.stderr
    assert "Traceback" not in done.stderr


def test_text_format(capsys):
    code, out = run_main(capsys, ["flat-models", "tower", "--m", "1",
                                  "--steps", "3", "--format", "text"])
    assert code == 0
    assert "dims: [1, 2, 6, 42]" in out
    assert "levels_materialized: [true, true, true]" in out


def test_validation_failures_exit_2(capsys, tmp_path):
    code, out = run_main(capsys, ["check-lie", "--catalog", "nope"])
    assert code == 2
    doc = json.loads(out)
    assert doc["schema"] == "koszul-report/1"
    assert doc["error"]["type"] == "ValidationError"
    assert "nope" in doc["error"]["message"]

    code, out = run_main(capsys, ["check-lie"])
    assert code == 2
    assert "provide --algebra" in json.loads(out)["error"]["message"]

    code, out = run_main(capsys, ["check-lie", "--algebra",
                                  str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["check-lie", "--catalog", "abelian:-1"],
    ["flat-models", "completeness", "--catalog", "zero:-1"]])
def test_negative_catalog_dimension_exits_2(capsys, argv):
    code, out = run_main(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValidationError",
        "message": "dimension must be >= 0, got -1"}


@pytest.mark.parametrize("argv", [
    ["check-lie", "--catalog", "so3", "--budget", "3"],
    ["invariants", "--which", "flat", "--catalog", "abelian:2",
     "--budget", "-1"],
    ["flat-models", "completeness", "--catalog", "matrix:2", "--budget", "3"],
])
def test_budget_is_refused_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_trials_below_one_exit_2_before_the_spencer_window(capsys, tmp_path):
    path = tmp_path / "full-4x4.json"
    path.write_text(json.dumps({"v": 4, "w": 4, "basis": [
        [int(i == j) for j in range(16)] for i in range(16)]}))
    argv = ["spencer", "--symbol", str(path), "--op", "involutive",
            "--trials", "0"]
    with mock.patch.object(spencer, "spencer_cohomology") as window:
        code, out = run_main(capsys, argv)
    assert code == 2 and not window.called
    assert json.loads(out) == {
        "command": argv, "schema": cli.SCHEMA,
        "error": {"type": "ValidationError",
                  "message": "trials must be >= 1"}}


@pytest.mark.parametrize("basis", [[1, 2], 5, [None]],
                         ids=["scalar-rows", "scalar", "null-row"])
def test_a_malformed_ideal_basis_exits_2(capsys, tmp_path, basis):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"dim": 2, "basis": basis}))
    code, out = run_main(capsys, ["flat-models", "ideal", "--catalog",
                                  "zero:2", "--ideal", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


def test_flat_existence_is_the_same_for_every_seed():
    argv = ["invariants", "--which", "flat", "--catalog", "aff1", "--seed"]
    results = [cli.run(argv + [seed])["result"] for seed in ("2", "7", "12")]
    assert results[0]["exists"] == "yes"
    assert results[1] == results[0] and results[2] == results[0]


def test_jacobi_violation_exit_2_with_witness(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 3,
        "bracket": [[0, 1, 2, "1"], [1, 2, 0, "1"], [2, 0, 0, "1"]],
    }))
    code, out = run_main(capsys, ["check-lie", "--algebra", str(path)])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "JacobiViolation"
    assert "(0, 1, 2)" in err["message"]


def test_conformance_mismatch_exits_3(capsys, monkeypatch):
    def boom(lie, seed=None):
        raise ConformanceMismatch("routes disagree")

    monkeypatch.setattr("koszul.invariants.bi_invariant_metric", boom)
    code, out = run_main(capsys, ["invariants", "--catalog", "so3",
                                  "--which", "bimetric"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ConformanceMismatch"


def test_unknown_command_is_an_argparse_error():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_a_bad_format_prints_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-lie", "--catalog", "so3", "--format", "yaml"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: koszul check-lie ")
    assert "invalid choice: 'yaml'" in err


def test_flat_models_flags_before_the_operation_are_kept(capsys):
    argv = ["flat-models", "--format", "text", "tower", "--m", "1",
            "--steps", "1"]
    assert run_main(capsys, argv) == (0, "dims: [1, 2]\n"
                                         "levels_materialized: [true]\n")
    argv = ["flat-models", "--seed", "3", "tower", "--m", "1", "--steps", "1"]
    assert cli.run(argv)["seed"] == 3
    assert cli.run(argv + ["--seed", "4"])["seed"] == 4


DUMP_FILES = {
    "metric": {"dim": 2, "sym": "symmetric",
               "entries": [[0, 0, "2"], [0, 1, "1/2"], [1, 1, "1"]]},
    "dual": {"dim": 2, "gamma": [[0, 1, 1, "-1/3"], [1, 1, 0, "2"]]},
    "symbol": {"v": 2, "w": 1, "basis": [["1", "-1/2"]]},
    "ideal": {"dim": 2, "basis": [["0", "1"]]},
}
AFF1 = {"dim": 2, "bracket": [[0, 1, 1, "1"]]}
AFF1_ZERO = {"dim": 2, "gamma": [[0, 1, 1, "1/2"], [1, 0, 1, "-1/2"]]}
# argv (a "@name" stands for the file DUMP_FILES[name]) and its dump
DUMP_CASES = [
    (["check-lie", "--catalog", "aff1"], {"algebra": AFF1}),
    (["algebra", "--op", "associator", "--catalog", "heisenberg-kv"],
     {"product": {"dim": 3, "gamma": [[0, 1, 2, "1"]]}}),
    (["gauge", "--catalog", "aff1", "--cartan", "zero", "--op", "fe",
      "--metric", "@metric"],
     {"algebra": AFF1, "connection": AFF1_ZERO,
      "metric": DUMP_FILES["metric"]}),
    (["gauge", "--catalog", "aff1", "--cartan", "plus", "--op", "fe",
      "--dual", "@dual"],
     {"algebra": AFF1,
      "connection": {"dim": 2, "gamma": [[0, 1, 1, "1"], [1, 0, 1, "-1"]]},
      "dual": DUMP_FILES["dual"]}),
    (["spencer", "--symbol", "@symbol", "--op", "cartan"],
     {"symbol": DUMP_FILES["symbol"]}),
    (["flat-models", "ideal", "--catalog", "zero:2", "--ideal", "@ideal"],
     {"ideal": DUMP_FILES["ideal"], "product": {"dim": 2, "gamma": []}}),
]


def _with_files(argv, tmp_path):
    out = []
    for a in argv:
        if a.startswith("@"):
            path = tmp_path / f"{a[1:]}.json"
            path.write_text(json.dumps(DUMP_FILES[a[1:]]))
            a = str(path)
        out.append(a)
    return out


@pytest.mark.parametrize("argv, dump", DUMP_CASES)
def test_dump_documents_are_pinned(capsys, tmp_path, argv, dump):
    code, out = run_main(capsys, _with_files(argv, tmp_path) + ["--dump"])
    assert code == 0
    assert json.loads(out)["dump"] == dump


@pytest.mark.parametrize("argv", [argv for argv, _ in DUMP_CASES])
def test_dump_documents_are_built_only_under_dump(capsys, tmp_path,
                                                  monkeypatch, argv):
    def refuse(*_):
        raise AssertionError("dump document built without --dump")
    for name in ("dump_algebra", "dump_product", "dump_connection",
                 "dump_form", "dump_symbol"):
        monkeypatch.setattr(cli.kio, name, refuse)
    code, out = run_main(capsys, _with_files(argv, tmp_path))
    assert code == 0
    assert "dump" not in json.loads(out)


# every subcommand; flat-models flags before and after the operation (their
# defaults are suppressed there); the text format, --dump and --timing;
# failures inside a handler
CORPUS = [
    ["check-lie", "--catalog", "so3"],
    ["check-lie", "--catalog", "heisenberg", "--format", "text"],
    ["check-lie", "--catalog", "heisenberg", "--dump", "--timing"],
    ["check-lie", "--catalog", "nope"],
    ["algebra", "--op", "killing", "--catalog", "sl2"],
    ["algebra", "--op", "anomaly", "--catalog", "heisenberg-kv"],
    ["connection", "--catalog", "aff1", "--cartan", "zero",
     "--op", "curvature"],
    ["connection", "--catalog", "aff1", "--cartan", "plus", "--op", "alpha",
     "--alpha", "1/2", "--metric", "@metric"],
    ["gauge", "--catalog", "abelian:2", "--cartan", "zero", "--op", "festar"],
    ["gauge", "--catalog", "aff1", "--cartan", "zero", "--op", "parallel",
     "--sym", "skew"],
    ["invariants", "--catalog", "so3", "--which", "bimetric", "--seed", "2"],
    ["invariants", "--catalog", "aff1", "--which", "flat"],
    ["kv-cohomology", "--catalog", "heisenberg-kv", "--coeffs", "scalar",
     "--max-degree", "2"],
    ["spencer", "--symbol", "@symbol", "--op", "involutive", "--trials", "5",
     "--seed", "3"],
    ["spencer", "--symbol", "@symbol", "--op", "cohomology", "--format",
     "text"],
    ["flat-models", "tower", "--m", "1", "--steps", "2"],
    ["flat-models", "--format", "text", "tower", "--m", "1", "--steps", "1"],
    ["flat-models", "--seed", "3", "tower", "--m", "1", "--steps", "1",
     "--seed", "4"],
    ["flat-models", "--timing", "completeness", "--catalog", "matrix:2",
     "--seed", "3"],
    ["flat-models", "--dump", "ideal", "--catalog", "zero:2",
     "--ideal", "@ideal"],
    ["flat-models", "ideal", "--catalog", "zero:2", "--ideal", "@ideal",
     "--dump", "--format", "text"],
    ["statmodel", "--family", "bernoulli", "--op", "curvature",
     "--alpha=-1"],
    ["statmodel", "--family", "curved4", "--op", "defect"],
    ["statmodel", "--family", "bernoulli", "--op", "alpha", "--alpha", "inf"],
] + [argv for argv, _ in DUMP_CASES]
# argv that argparse itself refuses
PARSE_ERRORS = [
    ["frobnicate"],
    ["check-lie", "--catalog", "so3", "--format", "yaml"],
    ["check-lie", "--catalog", "so3", "--budget", "3"],
    ["flat-models", "tower", "--m", "one", "--steps", "1"],
    ["flat-models", "--format", "yaml", "tower", "--m", "1", "--steps", "1"],
    ["statmodel", "--family", "bernoulli", "--op", "alpha", "--alpha", "x"],
]


def _without_timing(out):
    return re.sub(r'"timing_ms": [^,\n]+', '"timing_ms": null', out)


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def _fresh_parser_main():
    """cli.main as it ran with a parser built on every call."""
    return mock.patch.object(cli, "_build_parser",
                             cli._build_parser.__wrapped__)


def test_the_corpus_covers_every_subcommand():
    def commands(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))

    top = commands(cli._build_parser())
    assert {argv[0] for argv in CORPUS} == set(top)
    ops = set(commands(top["flat-models"]))
    assert {a for argv in CORPUS if argv[0] == "flat-models"
            for a in argv} >= ops == {"tower", "completeness", "ideal"}


@pytest.mark.parametrize("argv", CORPUS + PARSE_ERRORS)
def test_the_cached_parser_parses_as_a_fresh_one(capsys, argv):
    cached = cli._build_parser()
    try:
        fresh = vars(fresh_parse(argv))
    except SystemExit as exc:
        fresh_err = (exc.code, capsys.readouterr().err)
        with pytest.raises(SystemExit) as cached_exc:
            cached.parse_args(argv)
        assert (cached_exc.value.code, capsys.readouterr().err) == fresh_err
        assert fresh_err[0] == 2
    else:
        assert vars(cached.parse_args(argv)) == fresh


@pytest.mark.parametrize("argv", CORPUS)
def test_main_prints_what_a_fresh_parser_main_prints(capsys, tmp_path, argv):
    argv = _with_files(argv, tmp_path)
    code, out = run_main(capsys, argv)
    with _fresh_parser_main():
        fresh_code, fresh_out = run_main(capsys, argv)
    assert code == fresh_code
    assert _without_timing(out) == _without_timing(fresh_out)


@pytest.mark.parametrize("bad", PARSE_ERRORS)
def test_an_argparse_failure_leaves_the_cached_parser_as_it_was(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        cli.main(bad)
    err = capsys.readouterr().err
    with _fresh_parser_main(), pytest.raises(SystemExit) as fresh_exc:
        cli.main(bad)
    assert (exc.value.code, err) == (fresh_exc.value.code,
                                     capsys.readouterr().err)
    assert exc.value.code == 2 and err.startswith("usage: koszul")
    for good in (["flat-models", "--seed", "3", "tower", "--m", "1",
                  "--steps", "1"],
                 ["check-lie", "--catalog", "so3", "--format", "text"]):
        assert vars(cli._build_parser().parse_args(good)) == \
            vars(fresh_parse(good))


def test_twenty_calls_build_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    for seed in range(20):
        code, _ = run_main(capsys, ["check-lie", "--catalog", "so3",
                                    "--seed", str(seed)])
        assert code == 0
    # one tree: the root, its 9 commands, the 3 flat-models operations and
    # the 4 shared flag groups
    assert len(built) == 17
    assert built.count("koszul") == 1


@pytest.mark.parametrize("argv", [argv for argv in CORPUS
                                  if "text" not in argv])
def test_every_report_is_strict_json(capsys, tmp_path, argv):
    _, out = run_main(capsys, _with_files(argv, tmp_path))
    assert isinstance(json.loads(out, parse_constant=_strict_constant), dict)


@pytest.mark.parametrize("flag", [
    ["--op", "alpha", "--alpha", "inf"],
    ["--op", "alpha", "--alpha=-inf"],
    ["--op", "curvature", "--alpha", "nan"],
    ["--op", "defect", "--tol", "inf"],
    ["--op", "defect", "--tol", "nan"],
    ["--op", "defect", "--tol=-1"],
])
def test_non_finite_alpha_and_tol_exit_2_before_any_work(capsys, flag):
    argv = ["statmodel", "--family", "curved4"] + flag
    with mock.patch("koszul.statmodel.get_family") as family:
        code, out = run_main(capsys, argv)
    assert code == 2 and not family.called
    err = json.loads(out, parse_constant=_strict_constant)["error"]
    assert err["type"] == "ValidationError"
    assert err["message"].startswith(f"{flag[2].split('=')[0]} must be finite")


@pytest.mark.parametrize("op", ["alpha", "curvature"])
@pytest.mark.parametrize("alpha", ["1e308", "-1e308"])
def test_an_alpha_whose_result_overflows_exits_2(capsys, op, alpha):
    # the overflow is refused by the check, with no warning on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["statmodel", "--family", "bernoulli", "--op", op,
                         "--alpha=" + alpha, "--theta=0.3"])
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == [] and err == ""
    assert code == 2
    assert json.loads(out, parse_constant=_strict_constant)["error"] == {
        "type": "ValidationError",
        "message": f"--alpha {float(alpha)} is too large: the result "
                   "overflows"}


@pytest.mark.parametrize("alpha", ["1e308", "-1e308"])
def test_symbols_that_vanish_answer_any_alpha(capsys, alpha):
    # at theta = 1/2 the Bernoulli scores are +-2 with probability 1/2
    # each, so E[H s] and E[s s s] vanish and every alpha gives zero
    # symbols; only the curvature, whose derivatives do not vanish there,
    # overflows
    code, out = run_main(capsys, ["statmodel", "--family", "bernoulli",
                                  "--op", "alpha", "--alpha=" + alpha])
    assert code == 0
    assert json.loads(out)["result"]["lowered"] == [[[0.0]]]


@pytest.mark.parametrize("argv", [
    ["--family", "bernoulli", "--op", "alpha", "--alpha=-1"],
    ["--family", "bernoulli", "--op", "curvature", "--alpha", "0.5"],
    ["--family", "curved4", "--op", "defect"],
    ["--family", "curved4", "--op", "defect", "--tol", "0"],
])
def test_finite_alpha_and_tol_still_answer(capsys, argv):
    code, out = run_main(capsys, ["statmodel"] + argv)
    assert code == 0
    assert "result" in json.loads(out, parse_constant=_strict_constant)


# The report writer against json.dumps(sort_keys=True, indent=2), on trees
# like those the handlers and `jsonable` build: str keys, strings with
# non-ASCII and control characters, big ints, NaN and infinities, tuples,
# empty containers.

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 40, 10 ** 40), st.floats(),
                    st.text(max_size=6), st.sampled_from(
                        ["", "1/2", "\u00e9\u4e2d\ud83d\ude00", "\ud800",
                         "\x00\n\t\"\\", "\u2028"]))
KEYS = st.one_of(st.text(max_size=4), st.sampled_from(["schema", "result"]))
TREES = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(KEYS, kids, max_size=4)), max_leaves=24)


def _written(write, doc):
    try:
        return write(doc)
    except TypeError as exc:
        return "TypeError", str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(TREES)
@example({"schema": cli.SCHEMA, "command": ["check-lie", "--algebra", "x"],
          "error": {"type": "JacobiViolation",
                    "message": "Jacobi identity fails on basis triple "
                               "(0, 1, 2)"}})
@example([{}, [], (), {"a": []}, [[], {}]])
@example({"x": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300,
                5e-324, 2 ** 64, -(10 ** 30), True, False, None]})
@example({"a": 1, 2: "mixed key types do not sort"})
@example({"a": [1, Fraction(1, 2)]})
def test_the_report_writer_matches_json_dumps(doc):
    assert _written(cli._dumps, doc) == _written(json_report, doc)


@pytest.mark.parametrize("argv", [
    ["algebra", "--op", "associator", "--catalog", "matrix:2", "--dump"],
    ["connection", "--op", "curvature", "--catalog", "so3", "--cartan",
     "zero", "--timing"],
    ["invariants", "--which", "symplectic", "--catalog", "aff1"],
    ["kv-cohomology", "--catalog", "heisenberg-kv"],
    ["spencer", "--op", "involutive", "--symbol", "@symbol"],
    ["flat-models", "completeness", "--catalog", "affine:1"],
    ["statmodel", "--family", "categorical:3", "--op", "defect"],
    ["statmodel", "--family", "bernoulli", "--op", "curvature"],
])
def test_every_report_is_written_as_json_dumps_writes_it(
        capsys, tmp_path, argv):
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps({"v": 3, "w": 3, "basis": SO3_ROWS}))
    argv = [str(path) if a == "@symbol" else a for a in argv]
    code, out = run_main(capsys, argv)
    assert code == 0
    assert out == json_report(json.loads(out)) + "\n"


@pytest.mark.parametrize("catalog, dim", [("zero:1", True), ("zero:2", 2.0)])
def test_an_ideal_dim_that_is_not_an_integer_exits_2(
        capsys, tmp_path, catalog, dim):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"dim": dim, "basis": [["1"] * 2]}))
    code, out = run_main(capsys, ["flat-models", "ideal", "--catalog",
                                  catalog, "--ideal", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValidationError",
        "message": f"{path}: 'dim' must be a non-negative integer, "
                   f"got {dim!r}"}


@pytest.mark.parametrize("argv", [
    ["algebra", "--op", "associator", "--product", "@p", "--dump"],
    ["connection", "--op", "torsion", "--catalog", "abelian:1",
     "--connection", "@p"],
])
def test_contradictory_product_entries_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 1, "gamma": [[0, 0, 0, "1"],
                                                    [0, 0, 0, "2"]]}))
    argv = [str(path) if a == "@p" else a for a in argv]
    code, out = run_main(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValidationError",
        "message": f"{path}: conflicting entries for (0,0,0)"}


# An input file is read once, as UTF-8 text, and parsed as JSON; bytes that
# are not UTF-8, a number past int()'s digit limit and a nesting too deep
# for the parser are refused with exit 2 and a ValidationError naming the
# file, not a traceback.

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("content, message", [
    (b'\xff\xfe{"dim": 1}', "cannot read {}: not UTF-8 text ('utf-8' codec"),
    (b"[" * 200_000 + b"]" * 200_000,
     "{} is nested too deeply to be read as JSON"),
    (b'{"dim": 1, "bracket": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
     "{} is nested too deeply to be read as JSON"),
    (b"9" * 5000, "{} cannot be read as JSON: Exceeds the limit"),
], ids=["not-utf-8", "nested", "nested-entry", "long-number"])
def test_an_undecodable_or_too_deeply_nested_file_exits_2(
        tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    done = subprocess.run(
        [sys.executable, "-m", "koszul.cli", "check-lie", "--algebra",
         str(path)], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (2, "")
    error = json.loads(done.stdout)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith(message.format(path))
