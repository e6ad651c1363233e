"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import subprocess
import sys
import time

import pytest

from periodcalc import cli, weil_real


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, (json.loads(out) if out.strip() else None), err


def test_infinity_type_from_weight(capsys):
    code, data, _ = run_json(capsys, "infinity-type", "--weight", "11,0",
                             "--round-trip")
    assert code == 0
    assert data["infinity_type"] == {"n": 2, "kappa": [13], "w": -11,
                                     "sign": 0}
    assert data["weight"] == [11, 0]


def test_infinity_type_from_type(capsys):
    payload = json.dumps({"n": 4, "kappa": [9, 5], "w": 1})
    code, data, _ = run_json(capsys, "infinity-type", "--type", payload)
    assert code == 0
    assert data["weight"] == [2, 1, -2, -3]


def test_infinity_type_impure_weight_is_math_error(capsys):
    code, _, err = run(capsys, "infinity-type", "--weight", "2,1,1")
    assert code == 1 and "pure" in err


def test_infinity_type_malformed_weight_is_schema_error(capsys):
    code, _, err = run(capsys, "infinity-type", "--weight", "a,b")
    assert code == 2 and "schema error" in err


def test_critical_gl2(capsys):
    code, data, _ = run_json(
        capsys, "critical",
        "--pi", '{"n":2,"kappa":[12],"w":0}',
        "--sigma", '{"n":1,"kappa":[],"w":0}')
    assert code == 0
    assert len(data["critical"]) == 11
    assert data["critical"][0] == "-9/2" and data["critical"][-1] == "11/2"
    assert data["closed_form"] == data["critical"]
    assert data["central_point"] == "1/2" and data["central_is_critical"]


def test_critical_builds_the_tensor_parameter_once(capsys, monkeypatch):
    """critical builds the pair's tensor parameter at most once; reading the
    critical set from the types, it now builds it not at all."""
    calls = []
    tensor = weil_real.tensor

    def counted(a, b):
        calls.append((a, b))
        return tensor(a, b)

    monkeypatch.setattr(weil_real, "tensor", counted)
    code, data, _ = run_json(capsys, "critical",
                             "--pi", '{"n":3,"kappa":[7],"w":0}',
                             "--sigma", '{"n":2,"kappa":[4],"w":0}')
    assert code == 0 and not calls
    assert data["critical"] == ["-1/2", "1/2", "3/2"]
    assert data["central_point"] == "1/2" and data["central_is_critical"]
    # the closed form is reported for an even-rank pi only
    assert "closed_form" not in data


def test_critical_rank_one_pair_rejected(capsys):
    code, _, err = run(capsys, "critical",
                       "--pi", '{"n":1,"kappa":[],"w":0}',
                       "--sigma", '{"n":1,"kappa":[],"w":0}')
    assert code == 1 and "infinite" in err


def test_classify_branches(capsys):
    pi = '{"n":4,"kappa":[9,5],"w":1}'
    code, data, _ = run_json(capsys, "classify", "--pi", pi,
                             "--delta", "0", "--u", "1")
    assert code == 0
    assert data["verdict"] == "orthogonal" and data["epsilon_chi_inf"] == -1
    assert data["hom_sym2"] == 2 and data["hom_wedge2"] == 0
    code, data, _ = run_json(capsys, "classify", "--pi", pi,
                             "--delta", "1", "--u", "1")
    assert data["verdict"] == "symplectic" and data["epsilon_chi_inf"] == 1
    code, data, _ = run_json(capsys, "classify", "--pi", pi,
                             "--delta", "0", "--u", "3")
    assert data["verdict"] == "neither"
    assert data["hom_sym2"] == 0 and data["hom_wedge2"] == 0


def test_classify_rejects_a_fractional_u_before_any_work(capsys,
                                                        monkeypatch):
    def refuse(param):
        raise AssertionError("Sym^2 built for a rejected --u")
    monkeypatch.setattr(weil_real, "sym2", refuse)
    code, out, err = run(capsys, "classify", "--pi",
                         '{"n":4,"kappa":[9,5],"w":1}', "--delta", "0",
                         "--u", "1/2")
    assert (code, out) == (1, "")
    assert err == "error: chi twist must be integral for the sign epsilon\n"


def test_deligne_renders_relation(capsys):
    code, data, _ = run_json(
        capsys, "deligne",
        "--motive", '{"label":"M","n":4,"weight":0,"kappa":[9,5],'
                    '"dplus":2,"dminus":2}',
        "--aux", '{"label":"N","n":3,"weight":0,"kappa":[7],'
                 '"dplus":2,"dminus":1}',
        "--sign", "1")
    assert code == 0
    assert data["lhs"] == "DC(M(x)N,+)^1"
    assert "Delta(N)" in data["rhs"]


def _motive(label, n, weight, kappa):
    dplus = (n + 1) // 2
    return json.dumps({"label": label, "n": n, "weight": weight,
                       "kappa": kappa, "dplus": dplus, "dminus": n - dplus})


# (motive, a valid auxiliary motive of the next lower rank in good position)
INVALID_MOTIVES = {
    "kappa-below-2": (_motive("M", 2, 0, [1]), _motive("N", 1, 0, [])),
    "negative-kappa": (_motive("M", 2, 0, [-3]), _motive("N", 1, 0, [])),
    "odd-weight-at-odd-rank": (_motive("M", 3, 1, [4]),
                               _motive("N", 2, 1, [2])),
}


@pytest.mark.parametrize("motive,aux", INVALID_MOTIVES.values(),
                         ids=INVALID_MOTIVES)
def test_deligne_rejects_an_invalid_motive(capsys, motive, aux):
    code, out, err = run(capsys, "deligne", "--motive", motive, "--aux", aux)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_check_main1_builtin(capsys):
    code, data, _ = run_json(capsys, "check", "main1", "--n", "6",
                             "--w", "2", "--m", "3/2")
    assert code == 0 and data["ok"] and data["residual"] == "1"


def test_check_main1_off_lattice_rejected(capsys):
    code, _, err = run(capsys, "check", "main1", "--n", "6", "--w", "2",
                       "--m", "2")
    assert code == 1 and "integer" in err


def test_check_main1_at_a_negative_point(capsys):
    # argparse reads "--m -5/2" as two options; the point is given as --m=
    code, data, _ = run_json(capsys, "check", "main1", "--n", "8",
                             "--m=-5/2")
    assert code == 0 and data["ok"] and data["residual"] == "1"


def test_check_main1_far_from_the_center_is_fast(capsys):
    start = time.monotonic()
    code, data, _ = run_json(capsys, "check", "main1", "--n", "8",
                             "--m", "1000001/2")
    assert code == 0 and data["ok"] and data["residual"] == "1"
    assert time.monotonic() - start < 5


def test_check_accepts_the_largest_rank(capsys):
    code, data, _ = run_json(capsys, "check", "motivic-dual", "--n",
                             str(cli.MAX_RANK))
    assert code == 0 and data["ok"]


def test_check_corrupt_names_offending_atom(capsys):
    code, data, _ = run_json(capsys, "check", "main1", "--n", "6",
                             "--w", "2", "--m", "3/2", "--corrupt")
    assert code == 1
    assert data["offending_atom"] == "Gauss(omega_Pi)"


def test_check_motivic_dual(capsys):
    code, data, _ = run_json(capsys, "check", "motivic-dual", "--n", "5")
    assert code == 0 and data["ok"]


def test_check_script_round_trip(tmp_path, capsys):
    db_path = str(tmp_path / "rel.json")
    code, _, _ = run_json(capsys, "check", "corollary-main", "--n", "2",
                          "--db", db_path)
    assert code == 0
    code, data, _ = run_json(capsys, "--verbose", "check", "corollary-main",
                             "--n", "2")
    script = json.dumps(data["steps"])
    code, data, _ = run_json(capsys, "check", "--script", script,
                             "--db", db_path)
    assert code == 0 and data["ok"]


def test_motivic_dual_steps_replay_from_db(tmp_path, capsys):
    db_path = str(tmp_path / "rel.json")
    code, data, _ = run_json(capsys, "--verbose", "check", "motivic-dual",
                             "--n", "6", "--db", db_path)
    assert code == 0
    code, data, _ = run_json(capsys, "check", "--db", db_path,
                             "--script", json.dumps(data["steps"]))
    assert code == 0 and data["ok"]


# an argument "@name" stands for the file tmp_path/name
MALFORMED = {
    "index-out-of-range": ["check", "motivic-dual", "--n", "6", "--i", "9"],
    "no-citation": ["check", "--db", "@no_citation.json", "--script",
                    '[{"relation": "r", "exponent": 1}]'],
    "missing-db": ["check", "--db", "@missing.json", "--script", "[]"],
    "non-integer-kappa": ["critical", "--pi", '{"n":2,"kappa":["x"],"w":0}',
                          "--sigma", '{"n":1,"kappa":[],"w":0}'],
    "non-record-step": ["check", "--db", "@empty.json", "--script", "[1]"],
    "non-fraction-m": ["check", "main1", "--n", "8", "--m", "abc"],
    "zero-denominator-m": ["check", "main1", "--n", "8", "--m", "1/0"],
    "non-integer-n": ["check", "main1", "--n", "abc"],
    "unknown-builtin": ["check", "no-such-check", "--n", "2"],
    "rank-above-cap": ["check", "motivic-dual", "--n", "20000"],
    "nprime-above-cap": ["check", "main2", "--n", "2", "--nprime", "257"],
    "payload-rank-above-cap": [
        "critical", "--pi", json.dumps({"n": 258, "w": 0,
                                        "kappa": list(range(260, 2, -2))}),
        "--sigma", '{"n":1,"kappa":[],"w":0}'],
    "weight-longer-than-cap": ["infinity-type", "--weight", "0" + ",0" * 256],
    "kappa-above-cap": [
        "critical", "--pi", json.dumps({"n": 2, "w": 0,
                                        "kappa": [cli.MAX_KAPPA + 2]}),
        "--sigma", '{"n":1,"kappa":[],"w":0}'],
    "motive-kappa-above-cap": [
        "deligne", "--motive", json.dumps({"label": "M", "n": 2, "weight": 0,
                                           "kappa": [cli.MAX_KAPPA + 1],
                                           "dplus": 1, "dminus": 1}),
        "--aux", '{"label":"N","n":1,"weight":0,"kappa":[],'
                 '"dplus":1,"dminus":0}'],
    "payload-integer-too-long": [
        "critical", "--pi", '{"n":2,"kappa":[1' + "0" * 5000 + '],"w":0}',
        "--sigma", '{"n":1,"kappa":[],"w":0}'],
    "script-integer-too-long": [
        "check", "--db", "@empty.json", "--script",
        '[{"relation": "r", "exponent": 1' + "0" * 5000 + '}]'],
    "payload-w-above-cap": [
        "critical", "--pi", '{"n":2,"kappa":[10000],"w":2' + "0" * 1000 + "}",
        "--sigma", '{"n":1,"kappa":[],"w":0}'],
    "motive-weight-above-cap": [
        "deligne", "--motive", json.dumps({"label": "M", "n": 1,
                                           "weight": cli.MAX_W + 2,
                                           "kappa": [], "dplus": 1,
                                           "dminus": 0}),
        "--aux", '{"label":"N","n":1,"weight":0,"kappa":[],'
                 '"dplus":1,"dminus":0}'],
    "check-w-above-cap": ["check", "main1", "--n", "8",
                          f"--w={-cli.MAX_W - 2}"],
    "m-too-long": ["check", "main1", "--n", "8",
                   "--m", "1" * cli.MAX_FRACTION_CHARS + "/2"],
    "m-exponent": ["check", "main1", "--n", "8", "--m", "1e99999999"],
    "u-too-long": ["classify", "--pi", '{"n":2,"kappa":[4],"w":0}',
                   "--delta", "0", "--u", "1" * (cli.MAX_FRACTION_CHARS + 1)],
    "nested-payload": ["critical", "--pi", "[" * 100_000, "--sigma", "{}"],
    "nested-db": ["check", "--db", "@nested.json", "--script", "[]"],
}


def _db_file(lhs=(), name="r"):
    return json.dumps({"relations": [{"name": name, "citation": "c",
                                      "lhs": list(lhs), "rhs": []}]})


def _atom(kind, *payload):
    return {"kind": kind, "payload": list(payload)}


# --db files that each hold one bad field; the file name is the case id
MALFORMED_DB = {
    "db-infinite-exponent": _db_file([[_atom("TwoPiI"), float("inf")]]),
    "db-infinite-index": _db_file([[_atom("DCi", "M", float("inf")), 1]]),
    "db-zero-denominator-lval": _db_file([[_atom("LVal", "1/0", "P"), 1]]),
    "db-zero-denominator-archz": _db_file([[_atom("ArchZ", "1/0", "P"), 1]]),
    "db-list-name": _db_file(name=["r"]),
    "db-exponent-notation": _db_file(
        [[_atom("ArchZ", "1e999999999", "P"), 1]]),
    "db-float-exponent": _db_file([[_atom("TwoPiI"), 1.9]]),
    "db-float-sign": _db_file([[_atom("BW", "P", 1.9), 1]]),
    "db-string-exponent": _db_file([[_atom("TwoPiI"), "3"]]),
}
MALFORMED.update({case: ["check", "--db", f"@{case}.json", "--script",
                         '[{"relation": "r", "exponent": 1}]']
                  for case in MALFORMED_DB})


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "no_citation.json").write_text(
        '{"relations": [{"name": "r", "lhs": [], "rhs": []}]}')
    (tmp_path / "empty.json").write_text('{"relations": []}')
    (tmp_path / "nested.json").write_text("[" * 100_000)
    for case, text in MALFORMED_DB.items():
        (tmp_path / f"{case}.json").write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_module_entry_point_prints_no_warning():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "periodcalc.cli", "--json", "check", "main2",
         "--n", "2"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == ""


def test_check_script_without_db_is_schema_error(capsys):
    code, _, err = run(capsys, "check", "--script", "[]")
    assert code == 2 and "schema error" in err


def test_asai(capsys):
    code, data, _ = run_json(capsys, "asai", "--kappa1", "4", "--w1", "0",
                             "--kappa2", "2", "--w2", "0")
    assert code == 0
    assert data["kappa"] == [5, 3] and data["w"] == 1
    assert data["verdict"] == "orthogonal"
    assert data["gauss_atoms"] == ["omega_F/Q"]
    code, data, _ = run_json(capsys, "asai", "--kappa1", "4", "--w1", "0",
                             "--kappa2", "4", "--w2", "0")
    assert code == 0 and not data["regular"]


def test_asai_rejects_invalid_gl2_type(capsys):
    code, _, _ = run(capsys, "asai", "--kappa1", "3", "--w1", "0",
                     "--kappa2", "2", "--w2", "0")
    assert code == 1


def test_machine_output_is_deterministic(capsys):
    args = ("--json", "critical", "--pi", '{"n":4,"kappa":[9,5],"w":1}',
            "--sigma", '{"n":3,"kappa":[7],"w":0}')
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
