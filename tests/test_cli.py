"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodcalc import cli, infinity_types, weil_real
from tests.golden.make_cli_corpus import run as run_in_dir
from tests.golden.malformed import FILES, MALFORMED, REJECTED, _db2_file


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


def test_infinity_type_from_weight_at_the_caps(capsys):
    # the type of a weight is held to the caps of a --type payload
    code, data, _ = run_json(capsys, "infinity-type", "--weight=-5000,-5000")
    assert code == 0 and data["infinity_type"]["w"] == cli.MAX_W
    code, data, _ = run_json(capsys, "infinity-type", "--weight=9998,0")
    assert code == 0 and data["infinity_type"]["kappa"] == [cli.MAX_KAPPA]


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


def test_classify_reads_the_type_not_the_parameter(capsys, monkeypatch):
    """classify builds neither the parameter nor its Sym^2 and Wedge^2."""
    def refuse(*args):
        raise AssertionError("classify built a Weil-group parameter")
    for module, name in ((weil_real, "sym2"), (weil_real, "wedge2"),
                         (infinity_types, "to_arch_rep")):
        monkeypatch.setattr(module, name, refuse)
    for pi, delta, u, want in (
            ('{"n":4,"kappa":[9,5],"w":1}', "0", "1",
             '{"epsilon_chi_inf": -1, "hom_sym2": 2, "hom_wedge2": 0, '
             '"verdict": "orthogonal"}'),
            ('{"n":5,"kappa":[9,3],"w":2,"sign":1}', "1", "2",
             '{"epsilon_chi_inf": -1, "hom_sym2": 0, "hom_wedge2": 2, '
             '"verdict": "symplectic"}'),
            ('{"n":3,"kappa":[5],"w":0}', "0", "0",
             '{"epsilon_chi_inf": 1, "hom_sym2": 2, "hom_wedge2": 0, '
             '"verdict": "orthogonal"}'),
            ('{"n":3,"kappa":[5],"w":0}', "0", "-1",
             '{"epsilon_chi_inf": -1, "hom_sym2": 0, "hom_wedge2": 0, '
             '"verdict": "neither"}')):
        code, out, err = run(capsys, "--json", "classify", "--pi", pi,
                             "--delta", delta, "--u", u)
        assert (code, out, err) == (0, want + "\n", "")


def test_classify_rejects_a_fractional_u_before_any_work(capsys,
                                                        monkeypatch):
    def refuse(*args):
        raise AssertionError("Hom-dimensions read for a rejected --u")
    monkeypatch.setattr(cli, "self_dual_homs", refuse)
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


def test_check_main1_with_only_n_passes_at_every_rank(capsys):
    # the default --m 3/2 is never the central point (1 - w - delta)/2 of
    # the default --w 0 and --delta n % 2
    failed = [n for n in range(1, cli.MAX_RANK + 1)
              if run(capsys, "check", "main1", "--n", str(n))[0] != 0]
    assert failed == []


def test_check_main1_off_lattice_rejected(capsys):
    code, _, err = run(capsys, "check", "main1", "--n", "6", "--w", "2",
                       "--m", "2")
    assert code == 1 and "integer" in err


def test_check_main1_names_the_flag_of_an_off_lattice_point(capsys):
    # --m is m0 = m + 1/2; the rank and parity errors still come first
    code, out, err = run(capsys, "check", "main1", "--n", "2", "--m", "0")
    assert (code, out) == (1, "")
    assert err == "error: --m must be a half-integer m0 = m + 1/2, got 0\n"
    code, _, err = run(capsys, "check", "main1", "--n", "1", "--m", "1/3")
    assert code == 1 and err.endswith("got 1/3\n")
    code, _, err = run(capsys, "check", "main1", "--n", "3", "--w=1",
                       "--m=2")
    assert (code, err) == (1, "error: w must be even for odd rank\n")


@pytest.mark.parametrize("argv, code", [
    (["--n", "8"], 0), (["--n", "3", "--w=1"], 1), (["--n", "2", "--m", "0"], 1),
    (["--n", "3", "--w=1", "--m=2"], 1)])
def test_check_main1_checks_its_hypotheses_once(capsys, argv, code):
    """A check main1 request runs require_main1_hypotheses once: in the step,
    or before the error of a point off the half-integers."""
    from periodcalc import period_algebra
    target = period_algebra.require_main1_hypotheses.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is target:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        got = run(capsys, "check", "main1", *argv)[0]
    finally:
        sys.setprofile(None)
    assert (got, len(calls)) == (code, 1)


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


# the SHA-256 of the DB file that each builtin writes at its largest rank
LARGE_DBS = {
    ("motivic-dual", "--n", "256"):
        "cda8fbb27eaa61d0487a8afeb7766c7079c97a2d310630d1801c79b6eaca45b9",
    ("main1", "--n", "255", "--m", "3/2"):
        "61b910114a404f286ec5619d7e3a8c29820d38c642284c0882072ea35544ca33",
    ("corollary-main", "--n", "256"):
        "6502bc3843df847da7c15293244a8cda1bc12eacd77f9575a943888d5033ce90",
    ("main2", "--n", "256", "--nprime", "255", "--eps-num=-1"):
        "efaec0006c083cc2274d40badd2fb28d5d1a3282344eff85abdfb3cfe3fbcf9b",
}


@pytest.mark.parametrize("argv", sorted(LARGE_DBS))
def test_a_large_db_file_keeps_its_bytes(tmp_path, capsys, argv):
    db = tmp_path / "db.json"
    assert cli.main(["check", *argv, "--db", str(db)]) == 0
    assert hashlib.sha256(db.read_bytes()).hexdigest() == LARGE_DBS[argv]


def test_a_db_given_before_the_builtin_name_is_saved(tmp_path, capsys):
    before, after = str(tmp_path / "before.json"), str(tmp_path / "after.json")
    argv = ["main1", "--n", "4", "--m", "3/2"]
    assert run(capsys, "check", "--db", before, *argv)[0] == 0
    assert run(capsys, "check", *argv, "--db", after)[0] == 0
    with open(before, "rb") as fh, open(after, "rb") as gh:
        assert fh.read() == gh.read()


@pytest.mark.parametrize("target, errno_", [
    ("missing/x.json", errno.ENOENT), ("d", errno.EISDIR)],
    ids=["missing-directory", "directory"])
def test_a_failed_save_names_the_given_path(tmp_path, capsys, target,
                                            errno_):
    # the one stderr line names the --db path, not the temporary file that
    # the save writes first, and no file is left behind
    (tmp_path / "d").mkdir()
    db = str(tmp_path / target)
    code, out, err = run(capsys, "check", "main1", "--n", "3", "--db", db)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno {errno_}] {os.strerror(errno_)}: {db!r}\n"
    assert os.listdir(tmp_path) == ["d"] and not os.listdir(tmp_path / "d")


def test_corrupt_before_the_builtin_name_is_never_ignored(capsys):
    code, out, err = run(capsys, "--json", "check", "--corrupt", "main1",
                         "--n", "6", "--w", "2", "--m", "3/2")
    if code == 2:
        assert out == "" and err.count("\n") == 1
    else:
        assert code == 1
        assert json.loads(out)["offending_atom"] == "Gauss(omega_Pi)"


@pytest.mark.parametrize("argv, reason", [
    (["motivic-dual", "--n", "2"], "rank 2 has no c_i to corrupt"),
    (["motivic-dual", "--n", "3"], "rank 3 has no c_i to corrupt"),
    (["main1", "--n", "1"], "the rank-1 base case has no relation"),
    (["main2", "--n", "3", "--nprime", "4"], "n' = 4 has no relation"),
], ids=["motivic-dual-rank-2", "motivic-dual-rank-3", "main1-rank-1",
        "main2-even-nprime"])
def test_a_control_that_corrupts_nothing_exits_2(tmp_path, capsys, argv,
                                                 reason):
    # the derivation is empty, so its negative control cannot fail; the
    # same request without --corrupt succeeds
    db = str(tmp_path / "db.json")
    code, out, err = run(capsys, "--json", "check", *argv, "--corrupt",
                         "--db", db)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("schema error: --corrupt needs ") and reason in err
    assert not os.path.exists(db)
    code, out, _ = run(capsys, "--json", "check", *argv)
    assert code == 0 and json.loads(out)["ok"]


def test_the_version_2_db_file_of_the_malformed_cases_is_valid(tmp_path,
                                                               capsys):
    (tmp_path / "v2.json").write_text(_db2_file())
    code, out, err = run(capsys, "check", "--db", str(tmp_path / "v2.json"),
                         "--script", '[{"relation": "r", "exponent": 1}]')
    assert (code, err) == (1, "")
    assert "offending atom TwoPiI" in out


# inputs that are not UTF-8 text; the golden corpus records text files only
NOT_UTF8 = {
    "script-not-utf8": ["check", "--db", "@empty.json",
                        "--script", "@not_utf8.json"],
    "db-not-utf8": ["check", "--db", "@not_utf8.json", "--script", "[]"],
}


@pytest.mark.parametrize("argv", [*MALFORMED.values(), *NOT_UTF8.values()],
                         ids=[*MALFORMED, *NOT_UTF8])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe")
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    if str(tmp_path / "not_utf8.json") in argv:
        assert "not_utf8.json is not UTF-8" in err


@pytest.mark.parametrize("argv", REJECTED.values(), ids=REJECTED)
def test_rejected_input_exits_1_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_module_entry_point_prints_no_warning():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "periodcalc.cli", "--json", "check", "main2",
         "--n", "2"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == ""


# what a fresh interpreter prints last: the modules loaded when main returns
# or argparse exits; it exits with main's code
_LOADED = ("import sys; from periodcalc.cli import main\n"
           "try:\n    code = main(sys.argv[1:])\n"
           "except SystemExit as exc:  # argparse usage errors\n"
           "    code = exc.code\n"
           "print(' '.join(sorted(sys.modules))); sys.exit(code)")
# no request loads weil_real, only deligne loads yoshida, and no builtin
# check loads arch_l
_BASE = {"periodcalc", "periodcalc.cli", "periodcalc.infinity_types"}
_CHECK = _BASE | {"periodcalc.formal", "periodcalc.period_algebra"}
# a version-1 DB file whose relation r has a trivial quotient (I^2 = 1)
_V1_DB = ('{"relations": [{"name": "r", "citation": "c", "lhs": [[{"kind": '
          '"BW", "payload": ["P", 1]}, 1], [{"kind": "I", "payload": []}, 2]],'
          ' "rhs": [[{"kind": "BW", "payload": ["P", 1]}, 1]]}]}')
_MOTIVE = '{"label":"M","n":4,"weight":0,"kappa":[9,5],"dplus":2,"dminus":2}'
_AUX = '{"label":"N","n":3,"weight":0,"kappa":[7],"dplus":2,"dminus":1}'


@pytest.mark.parametrize("argv, expected, exit_code", [
    (["asai", "--kappa1", "4", "--w1", "0", "--kappa2", "2", "--w2", "0"],
     _BASE, 0),
    (["infinity-type", "--weight", "11,0", "--round-trip"], _BASE, 0),
    (["classify", "--pi", '{"n":4,"kappa":[9,5],"w":1}', "--delta", "0",
      "--u", "1"], _BASE, 0),
    (["critical", "--pi", '{"n":2,"kappa":[12],"w":0}',
      "--sigma", '{"n":1,"kappa":[],"w":0}'], _BASE | {"periodcalc.arch_l"}, 0),
    (["deligne", "--motive", _MOTIVE, "--aux", _AUX],
     _BASE | {"periodcalc.formal", "periodcalc.yoshida"}, 0),
    (["check", "main2", "--n", "2"], _CHECK, 0),
    # a malformed check exits 2 before it loads the period algebra
    (["check", "--n", "6"], _BASE, 2),
    (["check", "corollary-main", "--n", "2", "--chi", ""], _BASE, 2),
    (["check", "motivic-dual", "--n", "6", "--i", "9"], _BASE, 2),
    (["check", "main1", "--n", "4", "--chi", "psi"], _BASE, 2),
    (["check", "main1", "--n", "4", f"--delta={cli.MAX_W + 2}"], _BASE, 2),
    (["check", "motivic-dual", "--n", "3", "--i", "1"], _BASE, 2),
    (["check", "motivic-dual", "--n", "3", "--corrupt"], _BASE, 2),
    (["infinity-type", "--type", '{"n":4,"kappa":[9,5],"w":1}'], _BASE, 0),
    (["check", "main1", "--n", "4"], _CHECK, 0),
    (["check", "corollary-main", "--n", "2"], _CHECK, 0),
    (["check", "motivic-dual", "--n", "6"], _CHECK, 0),
    (["check", "--db", "@v1.json", "--script",
      '[{"relation": "r", "exponent": 1}]'], _BASE | {"periodcalc.formal"}, 0),
], ids=["asai", "infinity-type", "classify", "critical", "deligne", "check",
        "check-without-builtin", "check-empty-chi",
        "check-index-out-of-range", "check-stray-flag",
        "check-delta-above-cap", "check-index-below-rank-4",
        "check-corrupt-below-rank-4",
        "infinity-type-from-type", "check-main1", "check-corollary-main",
        "check-motivic-dual", "check-script"])
def test_fresh_interpreter_loads_only_what_the_request_runs(tmp_path, argv,
                                                             expected,
                                                             exit_code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    (tmp_path / "v1.json").write_text(_V1_DB)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]

    def loaded(*args, code=0):
        proc = subprocess.run([sys.executable, "-c", *args],
                              capture_output=True, text=True, timeout=60,
                              env=env)
        assert proc.returncode == code, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    modules = loaded(_LOADED, *argv, code=exit_code)
    assert {m for m in modules if m.startswith("periodcalc")} == expected
    # the interpreter's own start-up may load some modules; compare with it
    bare = loaded("import sys; print(' '.join(sorted(sys.modules)))")
    assert not ({"dataclasses", "inspect"} - bare) & modules


def test_stdin_that_does_not_decode_is_schema_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"),
                                                       encoding="utf-8"))
    code, _, err = run(capsys, "critical", "--pi", "-", "--sigma", "{}")
    assert code == 2 and len(err.strip().splitlines()) == 1


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


def test_asai_hypotheses_met_and_is_regular_disagree_on_72_pairs(capsys):
    # two rules for the same GL(4) transfer type (k1 + k2 - 1, |k1 - k2| + 1;
    # w1 + w2 + 1), pinned as they stand: asai's hypotheses_met asks for
    # kappa_2 >= 2 and min(k1, k2) >= 3, or >= 4 when k1 + k2 is odd;
    # oracles.is_regular, the duality theorem's regularity, asks for
    # kappa_2 >= 3 and a gap of 4, or 6 when w is even.  They disagree
    # exactly where |k1 - k2| = 1 and min(k1, k2) >= 4: there kappa_2 = 2,
    # which hypotheses_met accepts and is_regular does not
    from tests.oracles import is_regular
    pairs = [(k1, k2) for k1 in range(2, 41) for k2 in range(2, 41)
             if k1 != k2]
    disagree = set()
    for k1, k2 in pairs:
        code, data, _ = run_json(capsys, "asai", f"--kappa1={k1}",
                                 f"--w1={k1 % 2}", f"--kappa2={k2}",
                                 f"--w2={k2 % 2}")
        assert code == 0
        t = infinity_types.InfinityType(4, tuple(data["kappa"]), data["w"])
        if data["hypotheses_met"] != is_regular(t):
            disagree.add((k1, k2))
    assert len(pairs) == 1482 and len(disagree) == 72
    assert disagree == {(k1, k2) for k1, k2 in pairs
                        if abs(k1 - k2) == 1 and min(k1, k2) >= 4}


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


def test_no_flag_reads_an_integer_by_int():
    # every parser, the builtins of check too: an integer flag goes through
    # the one reader, so that a flag added later follows the rule
    parsers, actions = [cli.build_parser()], []
    while parsers:
        for action in parsers.pop()._actions:
            actions.append(action)
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
    assert [a.option_strings for a in actions if a.type is int] == []
    assert {a.option_strings[0] for a in actions if a.type is cli._int} == {
        "--n", "--nprime", "--w", "--delta", "--i", "--eps-num", "--sign",
        "--kappa1", "--w1", "--kappa2", "--w2"}


@given(st.text(st.sampled_from("09-+_/ \uff14x"), max_size=5))
def test_an_integer_flag_reads_ascii_digits_alone(text):
    try:
        value = cli._int(text)
    except argparse.ArgumentTypeError as exc:
        assert str(exc) == f"invalid int value: {text!r}"
        value = None
    assert value == (int(text) if re.fullmatch("-?[0-9]+", text) else None)


# ---------------------------------------------------------------------------
# contract fuzz: argv and JSON payloads drawn from a small alphabet of valid,
# mistyped and oversized values; "@name" is a file in the run's directory

def mostly(good, odd):
    """Draw from good nine times in ten, else from odd."""
    return st.integers(0, 9).flatmap(lambda i: odd if i == 0 else good)


ODD_VALUES = st.sampled_from(
    [-1, -3, 257, 10_001, 10 ** 6, True, False, 1.5, 2.0, None, "x", "M", "",
     "1/2", [], [1], [[1]], {}, {"n": 2}])
SMALL = st.integers(-3, 9)
# the fields of InfinityType and MotiveShape payloads
PAYLOAD_VALUES = {
    "n": mostly(st.integers(1, 9), ODD_VALUES),
    "kappa": mostly(st.lists(st.sampled_from([2, 3, 4, 5, 7, 9, 12, 15]),
                             max_size=4).map(lambda k: sorted(k)[::-1]),
                    st.one_of(st.lists(ODD_VALUES, max_size=3), ODD_VALUES)),
    "w": mostly(SMALL, ODD_VALUES),
    "sign": mostly(st.integers(0, 1), ODD_VALUES),
    "label": mostly(st.sampled_from(["M", "N"]), ODD_VALUES),
    "weight": mostly(SMALL, ODD_VALUES),
    "dplus": mostly(st.integers(0, 5), ODD_VALUES),
    "dminus": mostly(st.integers(0, 5), ODD_VALUES),
}


@st.composite
def payloads(draw):
    """JSON text: a dict over most payload fields, another JSON value, or
    text that is not JSON at all."""
    data = {k: draw(v) for k, v in PAYLOAD_VALUES.items()
            if draw(st.integers(0, 9))}
    if draw(st.integers(0, 5)):
        return json.dumps(data)
    return draw(st.one_of(
        ODD_VALUES.map(json.dumps),
        st.sampled_from(["{", "[" * 2000, "", "nope", '{"n": 1' + "0" * 5000
                         + "}", '{"n": NaN}', '{"n": Infinity}'])))


INTS = mostly(st.integers(-3, 12).map(str), st.sampled_from(
    ["256", "257", "20000", "abc", "1.5", "", "0x10"]))
FRACTIONS = st.sampled_from(["1/2", "3/2", "-5/2", "7", "101/2", "1/0", "abc",
                             "1e5", "1.5", " 1/2", "+1/2", "", "1_1/2",
                             "1" * 41 + "/2", "10000000001/2"])
SCRIPTS = st.sampled_from(["[]", "[1]", "{}", "[", "@script.json",
                           '[{"relation": "r", "exponent": 1}]',
                           '[{"relation": "r", "exponent": true}]',
                           '[{"relation": ["r"], "exponent": 1}]'])
DBS = st.sampled_from(["@db.json", "@empty.json", "@missing.json",
                       "@nested.json", "@bad.json"])
FILES = {"db.json": json.dumps({"relations": [
             {"name": "r", "citation": "c", "rhs": [],
              "lhs": [[{"kind": "TwoPiI", "payload": []}, 1]]}]}),
         "empty.json": '{"relations": []}',
         "nested.json": "[" * 100_000,
         "bad.json": '{"relations": [{"name": "r"}]}',
         "script.json": '[{"relation": "r", "exponent": -1}]'}

WEIGHTS = st.sampled_from(["11,0", "2,1,-2,-3", "2,1,1", "a,b", "", "3",
                          "5,2,-1", "0" + ",0" * 256])


def signs(*valid):
    return mostly(st.sampled_from(valid), INTS)


# each subcommand's required options, one from each group of alternatives,
# and its other options; an option maps to a value strategy, or to None for
# a switch
OPTIONS = {
    "infinity-type": ([{"--weight": WEIGHTS, "--type": payloads()}],
                      {"--round-trip": None}),
    "critical": ([{"--pi": payloads()}, {"--sigma": payloads()}], {}),
    "classify": ([{"--pi": payloads()}, {"--delta": signs("0", "1")}],
                 {"--u": FRACTIONS}),
    "deligne": ([{"--motive": payloads()}, {"--aux": payloads()}],
                {"--sign": signs("1", "-1")}),
    "check": ([{"--n": INTS}],
              {"--w": INTS, "--delta": INTS, "--m": FRACTIONS,
               "--nprime": INTS, "--i": INTS, "--eps-num": INTS,
               "--chi": st.sampled_from(["chi", "psi", "omega_Pi", ""]),
               "--db": DBS, "--script": SCRIPTS, "--symplectic": None,
               "--no-i-power": None, "--corrupt": None}),
    "asai": ([{"--kappa1": INTS}, {"--w1": INTS}, {"--kappa2": INTS},
              {"--w2": INTS}], {}),
}


@st.composite
def requests(draw):
    argv = draw(st.lists(st.sampled_from(["--json", "--verbose"]),
                         unique=True))
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv.append(command)
    if command == "check":
        argv.append(draw(st.sampled_from(
            ["main1", "corollary-main", "main2", "motivic-dual",
             "no-such-check", "--corrupt"])))
    groups, others = OPTIONS[command]
    options = dict(others)
    flags = []
    for group in groups:
        options.update(group)
        if draw(st.integers(0, 19)):  # now and then a required one is missing
            flags.append(draw(st.sampled_from(sorted(group))))
    if others:
        flags += draw(st.lists(st.sampled_from(sorted(others)), max_size=4,
                               unique=True))
    for flag in flags:
        if options[flag] is None:
            argv.append(flag)
            continue
        value = draw(options[flag])
        if value.startswith("@") or draw(st.booleans()):  # "@name" alone
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    if draw(st.integers(0, 19)) == 0:  # an option of another subcommand
        argv.append(draw(st.sampled_from(["--kappa1=3", "--pi={}", "--n=2"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(requests())
def test_cli_contract_holds_on_fuzzed_requests(argv):
    """Exit 0, 1 or 2 and never an exception; exit 2 is one stderr line."""
    got = run_in_dir(argv, FILES)
    assert got["code"] in (0, 1, 2), got
    if got["code"] == 2:
        err = got["stderr"]
        assert err.endswith("\n") and err.count("\n") == 1, err
