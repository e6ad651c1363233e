"""tests/dbcheck.py, the reader of relation-database files that does not
import periodcalc, agrees with the CLI on every golden DB file."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodcalc import period_algebra as pa
from periodcalc.formal import RelationDB, check_script
from tests import dbcheck, oracles
from tests.golden.make_cli_corpus import CORPUS, run
from tests.golden.malformed import MALFORMED_DB

with open(CORPUS) as fh:
    RECORDS = [json.loads(line) for line in fh]


def _library_residual(tmp_path, db_text, script):
    path = tmp_path / "db.json"
    path.write_text(db_text)
    return repr(check_script(RelationDB.load(str(path)), script))


def _steps(argv):
    """The steps of the derivation that a `check <builtin> --db` run saved,
    from the same request run with --json --verbose and no --db."""
    i = argv.index("--db")
    argv = argv[:i] + argv[i + 2:]
    out = run(["--json", "--verbose"] + [a for a in argv if a not in
                                         ("--json", "--verbose")])["stdout"]
    return json.loads(out).get("steps", [])


@pytest.mark.parametrize("record", [r for r in RECORDS if "db" in r],
                         ids=lambda r: " ".join(r["argv"])[:60])
def test_the_reader_replays_each_saved_derivation_as_the_library(tmp_path,
                                                                 record):
    steps = _steps(record["argv"])
    assert (dbcheck.check(record["db"], json.dumps(steps))
            == _library_residual(tmp_path, record["db"], steps))


@st.composite
def derivations(draw):
    """A main1 step or a motivic-dual derivation, clean or corrupted."""
    n, corrupt = draw(st.integers(2, 40)), draw(st.booleans())
    if draw(st.booleans()):
        return pa.check_motivic_dual(max(n, 4), corrupt=corrupt)
    w = 2 * draw(st.integers(-2, 2)) + (n % 2 == 0) * draw(st.integers(0, 1))
    delta = n % 2 + 2 * draw(st.integers(-1, 1))
    try:
        return pa.check_main1_step(n, w, delta, draw(st.integers(-12, 12)),
                                   corrupt=corrupt)
    except ValueError:  # the point is not critical for the pair
        assume(False)


@settings(max_examples=60, deadline=None)
@given(derivations())
def test_the_reader_replays_a_drawn_derivation_as_the_library(res):
    db = RelationDB()
    res.register(db)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "db.json")
        db.save(path)
        with open(path, encoding="utf-8") as fh:
            db_text = fh.read()
    assert (dbcheck.check(db_text, json.dumps(res.to_script()))
            == repr(res.residual))


# hand-written version-1 files whose residual needs I mod 2, a canonical
# point or a zero exponent dropped; no derivation saves one
_V1 = '{"relations": [{"name": "r", "citation": "c", "lhs": %s, "rhs": []}]}'


@pytest.mark.parametrize("lhs", [
    [[{"kind": "I", "payload": []}, 2]],
    [[{"kind": "I", "payload": []}, -1], [{"kind": "TwoPiI"}, 3]],
    [[{"kind": "ArchZ", "payload": ["2/4", "P"]}, 1],
     [{"kind": "ArchZ", "payload": ["1/2", "P"]}, 1]],
    [[{"kind": "LVal", "payload": ["-06/3", "P"]}, 1],
     [{"kind": "BW", "payload": ["P", -1]}, 0]]])
def test_the_reader_reduces_a_residual_as_the_library(tmp_path, lhs):
    db_text = _V1 % json.dumps(lhs)
    for e in (1, 3):
        script = [{"relation": "r", "exponent": e}]
        assert (dbcheck.check(db_text, json.dumps(script))
                == _library_residual(tmp_path, db_text, script))


# small derivations that save every atom kind but TwoPiI, one of each
# builtin and two negative controls
_SMALL = [pa.check_main1_step(3, 0, 1, 2),
          pa.check_main1_step(2, 1, 0, 1, corrupt=True),
          pa.check_corollary_main(2, chi_expr={"chi": 1}),
          pa.check_theorem_main2(2, 3, eps_num=-1),
          pa.check_motivic_dual(5, corrupt=True)]
# what one node of a valid file is replaced with
_VALUES = [{}, "", "ab", 0, True, None, [], [[]]]


def _nodes(data):
    """The path of every side, pair, payload, index, exponent, name and
    citation in the JSON value of a version-1 or version-2 file."""
    v2 = data.get("version") == 2
    if v2:
        yield from (("atoms", k, "payload") for k in range(len(data["atoms"])))
        yield from (("citations", k) for k in range(len(data["citations"])))
    for k, rel in enumerate(data["relations"]):
        yield "relations", k, "name"
        yield "relations", k, "citation"
        for side in ("lhs", "rhs"):
            yield "relations", k, side
            for j in range(len(rel[side])):
                pair = ("relations", k, side, j)
                yield pair
                yield pair + ((0,) if v2 else (0, "payload"))
                yield pair + (1,)


@st.composite
def damaged_files(draw):
    """The DB text and script of a small derivation, its file in version 1
    or 2 with one node replaced."""
    res = draw(st.sampled_from(_SMALL))
    relations = list({rel.name: rel for rel, _ in res.relations}.values())
    data = (oracles.db_to_json(relations) if draw(st.booleans()) else
            {"relations": [oracles.relation_to_json(r) for r in relations]})
    *path, last = draw(st.sampled_from(list(_nodes(data))))
    node = data
    for key in path:
        node = node[key]
    node[last] = draw(st.sampled_from(_VALUES))
    return json.dumps(data), res.to_script()


@settings(max_examples=300, deadline=None)
@given(damaged_files())
def test_the_reader_and_the_library_reject_the_same_damaged_files(case):
    db_text, script = case
    try:
        want = dbcheck.check(db_text, json.dumps(script))
    except ValueError:
        want = None
    with tempfile.TemporaryDirectory() as work:
        try:  # what the CLI reports as a schema error
            got = _library_residual(pathlib.Path(work), db_text, script)
        except (KeyError, ValueError):
            got = None
    assert got == want


def _replays():
    """(record, DB text, script text) of each golden `check --db F --script
    S` request whose DB file the record holds."""
    for r in RECORDS:
        argv = [a for a in r["argv"] if a not in ("--json", "--verbose")]
        if len(argv) != 5 or argv[:2] != ["check", "--db"] or \
                argv[3] != "--script" or argv[2][1:] not in r.get("files", {}):
            continue
        script = argv[4]
        if script.startswith("@"):
            script = r["files"][script[1:]]
        yield r, r["files"][argv[2][1:]], script


def test_the_reader_rejects_exactly_the_db_replays_the_cli_exits_2_on(
        tmp_path):
    rejected = set()
    for record, db_text, script in _replays():
        try:
            residual = dbcheck.check(db_text, script)
        except ValueError:
            assert record["code"] == 2, record["argv"]
            rejected.add(record["argv"][2][1:-len(".json")])
            continue
        assert record["code"] != 2, record["argv"]
        assert residual == _library_residual(tmp_path, db_text,
                                             json.loads(script))
    assert set(MALFORMED_DB) <= rejected


def test_the_reader_runs_without_periodcalc(tmp_path):
    record = next(r for r in RECORDS if "db" in r and r["code"] == 1
                  and r["argv"][0] == "--json")
    (tmp_path / "db.json").write_text(record["db"])
    (tmp_path / "steps.json").write_text(json.dumps(_steps(record["argv"])))
    (tmp_path / "bad.json").write_text(MALFORMED_DB["db-bw-sign-2"])
    # -S -I: no site-packages and no PYTHONPATH, so periodcalc cannot load
    reader = [sys.executable, "-S", "-I",
              os.path.join(os.path.dirname(__file__), "dbcheck.py")]
    ok = subprocess.run(reader + [str(tmp_path / "db.json"),
                                  str(tmp_path / "steps.json")],
                        capture_output=True, text=True, timeout=60)
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout == json.loads(record["stdout"])["residual"] + "\n"
    bad = subprocess.run(reader + [str(tmp_path / "bad.json"),
                                   str(tmp_path / "steps.json")],
                         capture_output=True, text=True, timeout=60)
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("dbcheck: ") and bad.stderr.count("\n") == 1
