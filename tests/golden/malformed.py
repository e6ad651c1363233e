"""Malformed and rejected CLI requests, shared by tests/test_cli.py and the
golden corpus (tests/golden/make_cli_corpus.py).

Only the standard library and periodcalc are imported here, so the corpus can
be regenerated on an interpreter without the test extra.
"""

import json

from periodcalc import cli

# an argument "@name" stands for the file of that name in the run's own
# directory, as FILES at the end of this module holds it
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
    "non-string-motive-label": [
        "deligne", "--motive", json.dumps({"label": ["M"], "n": 2,
                                           "weight": 0, "kappa": [5],
                                           "dplus": 1, "dminus": 1}),
        "--aux", json.dumps({"label": 7, "n": 1, "weight": 0, "kappa": [],
                             "dplus": 1, "dminus": 0})],
    "delta-not-a-parity": ["classify", "--pi", '{"n":2,"kappa":[4],"w":0}',
                           "--delta", "7", "--u", "0"],
    "nested-db": ["check", "--db", "@nested.json", "--script", "[]"],
}


def _db_file(lhs=(), name="r", citation="c", **version):
    return json.dumps({"relations": [{"name": name, "citation": citation,
                                      "lhs": lhs, "rhs": []}],
                       **version})


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
    "db-version-2": _db_file(version=2),
    "db-version-string": _db_file(version="1"),
}
MALFORMED.update({case: ["check", "--db", f"@{case}.json", "--script",
                         '[{"relation": "r", "exponent": 1}]']
                  for case in MALFORMED_DB})
# a builtin check together with --script; added after the --db cases, so
# that the golden corpus appends its record and keeps the others in place
MALFORMED["builtin-and-script"] = ["check", "main1", "--n", "4", "--m=9/2",
                                   "--corrupt", "--db", "@empty.json",
                                   "--script", "[]"]
MALFORMED["empty-chi"] = ["check", "corollary-main", "--n", "2", "--chi", ""]
MALFORMED["stray-builtin-flag"] = ["check", "main1", "--n", "4", "--m", "3/2",
                                   "--chi", "psi", "--eps-num=-1",
                                   "--symplectic"]
MALFORMED["chi-not-a-label"] = ["check", "corollary-main", "--n", "2",
                                "--chi", "omega_Pi^-1*chi"]
MALFORMED["script-with-builtin-flag"] = ["check", "--db", "@empty.json",
                                         "--script", "[]", "--n", "3"]
# ranks below 4 have no index i, and |--delta| (the weight of Sigma) has the
# cap of |--w|; appended last, as above
MALFORMED["index-at-rank-2"] = ["check", "motivic-dual", "--n", "2", "--i", "1"]
MALFORMED["index-at-rank-3"] = ["check", "motivic-dual", "--n", "3", "--i", "1"]
MALFORMED["delta-above-cap"] = ["check", "main1", "--n", "4",
                                "--delta", "1" + "0" * 50]


def _db2_file(pair=(0, 1), citation=0, version=2, without=None, lhs=None):
    """A version-2 --db file of two atoms, one citation and r = TwoPiI / 1,
    with one field changed or left out; lhs replaces the side [pair]."""
    data = {"atoms": [_atom("TwoPiI"), _atom("I")], "citations": ["c"],
            "relations": [{"name": "r", "citation": citation,
                           "lhs": [list(pair)] if lhs is None else lhs,
                           "rhs": []}],
            "version": version}
    data.pop(without, None)
    return json.dumps(data)


# version-2 --db files that each hold one bad index, table or pair; appended
# last, as above
MALFORMED_DB2 = {
    "db-atom-index-out-of-range": _db2_file(pair=(2, 1)),
    "db-negative-atom-index": _db2_file(pair=(-1, 1)),
    "db-true-atom-index": _db2_file(pair=(True, 1)),
    "db-float-atom-index": _db2_file(pair=(1.0, 1)),
    "db-citation-index-out-of-range": _db2_file(citation=1),
    "db-atoms-missing": _db2_file(without="atoms"),
    "db-pair-of-three": _db2_file(pair=(0, 1, 1)),
    "db-version-3": _db2_file(version=3),
}
MALFORMED_DB.update(MALFORMED_DB2)
MALFORMED.update({case: ["check", "--db", f"@{case}.json", "--script",
                         '[{"relation": "r", "exponent": 1}]']
                  for case in MALFORMED_DB2})

# a version-1 pair of three entries, as db-pair-of-three is in version 2, and
# a flag of one builtin given to each other builtin; appended last, as above
MALFORMED_DB["db-v1-pair-of-three"] = _db_file([[_atom("TwoPiI"), 1, 1]])
MALFORMED["db-v1-pair-of-three"] = ["check", "--db",
                                    "@db-v1-pair-of-three.json", "--script",
                                    '[{"relation": "r", "exponent": 1}]']
MALFORMED["main2-stray-flag"] = ["check", "main2", "--n", "2", "--i", "1"]
MALFORMED["motivic-dual-stray-flag"] = ["check", "motivic-dual", "--n", "6",
                                        "--chi", "psi"]
MALFORMED["corollary-main-stray-flag"] = ["check", "corollary-main",
                                          "--n", "2", "--w", "2"]
# a --script before the builtin name, which argparse does not reject
MALFORMED["script-before-builtin"] = ["check", "--db", "@empty.json",
                                      "--script", "[]", "main1", "--n", "4"]
# a --weight whose infinity type has a kappa or a |w| above a payload's cap;
# appended last, as above
MALFORMED["weight-kappa-above-cap"] = ["infinity-type", "--weight=9999,0"]
MALFORMED["weight-w-above-cap"] = ["infinity-type", "--weight=5001,5001"]


# error lines that no request above reaches; the golden corpus appends their
# records after all others, so every earlier record keeps its line
PINNED = len(MALFORMED)
PINNED_DB = {
    "db-unknown-kind": _db_file([[_atom("Nope"), 1]]),
    "db-payload-count": _db_file([[_atom("BW", "P"), 1]]),
    "db-bw-sign-2": _db_file([[_atom("BW", "P", 2), 1]]),
    "db-dc-sign-2": _db_file([[_atom("DC", "M", 2), 1]]),
    "db-empty-gauss-label": _db_file([[_atom("Gauss", ""), 1]]),
    "db-empty-name": _db_file(name=""),
    "db-empty-citation": _db_file(citation=""),
    "db-name-with-two-bodies": json.dumps({"relations": [
        {"name": "r", "citation": "c", "lhs": [], "rhs": []},
        {"name": "r", "citation": "c", "lhs": [[_atom("TwoPiI"), 1]],
         "rhs": []}]}),
    "db-top-level-list": "[]",
    "db-atom-not-an-object": json.dumps({**json.loads(_db2_file()),
                                         "atoms": [1, _atom("I")]}),
}
MALFORMED_DB.update(PINNED_DB)
MALFORMED.update({case: ["check", "--db", f"@{case}.json", "--script",
                         '[{"relation": "r", "exponent": 1}]']
                  for case in PINNED_DB})
MALFORMED["script-unknown-relation"] = [
    "check", "--db", "@empty.json", "--script",
    '[{"relation": "x", "exponent": 1}]']
MALFORMED["script-without-db"] = ["check", "--script", "[]"]
MALFORMED["bare-check"] = ["check"]
MALFORMED["script-file-object"] = ["check", "--db", "@empty.json",
                                   "--script", "@object.json"]
MALFORMED["weight-empty-entry"] = ["infinity-type", "--weight", "1,,2"]

# a JSON list field (a side, a pair, a payload, a kappa) given as some other
# value; the golden corpus appends their records after those of REJECTED
LISTS = len(MALFORMED)
LIST_DB = {
    "db-side-object": _db_file({}),
    "db-v2-side-string": _db2_file(lhs=""),
    "db-gauss-payload-string": _db_file([[{"kind": "Gauss", "payload": "x"},
                                          1]]),
    "db-archz-payload-string": _db_file([[{"kind": "ArchZ", "payload": "12"},
                                          1]]),
    "db-two-pi-i-payload-object": _db_file([[{"kind": "TwoPiI",
                                              "payload": {}}, 1]]),
    "db-pair-int": _db_file([0]),
}
MALFORMED_DB.update(LIST_DB)
MALFORMED.update({case: ["check", "--db", f"@{case}.json", "--script",
                         '[{"relation": "r", "exponent": 1}]']
                  for case in LIST_DB})
MALFORMED["kappa-object"] = ["critical", "--pi", '{"n":2,"kappa":[4],"w":0}',
                             "--sigma", '{"n":1,"kappa":{},"w":0}']
MALFORMED["kappa-string"] = ["infinity-type", "--type",
                             '{"n":1,"kappa":"","w":0}']
MALFORMED["motive-kappa-object"] = [
    "deligne", "--motive", '{"label":"M","n":2,"weight":0,"kappa":[5],'
                           '"dplus":1,"dminus":1}',
    "--aux", '{"label":"N","n":1,"weight":0,"kappa":{},"dplus":1,'
             '"dminus":0}']
MALFORMED["kappa-object-with-a-key"] = [
    "critical", "--pi", '{"n":2,"kappa":{"4":1},"w":0}',
    "--sigma", '{"n":1,"kappa":[],"w":0}']

# requests the library rejects with exit 1 and one "error:" line
REJECTED = {
    "main1-rank-0": ["check", "main1", "--n", "0"],
    "corollary-main-rank-0": ["check", "corollary-main", "--n", "0"],
    "main2-rank-0": ["check", "main2", "--n", "0"],
    "motivic-dual-rank-1": ["check", "motivic-dual", "--n", "1"],
    "classify-half-integral-twist": [
        "classify", "--pi", '{"n":2,"kappa":[4],"w":0}', "--delta", "0",
        "--u", "1/2"],
}

# the files that the requests above read, by name
FILES = {"no_citation.json":
         '{"relations": [{"name": "r", "lhs": [], "rhs": []}]}',
         "empty.json": '{"relations": []}',
         "nested.json": "[" * 100_000,
         "object.json": "{}",
         **{f"{case}.json": text for case, text in MALFORMED_DB.items()}}
