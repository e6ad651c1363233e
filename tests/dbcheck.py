"""An independent reader of periodcalc relation-database files.

It uses json and fractions only, not periodcalc. It reads a version-1 or
version-2 file, checks its layout and every atom, replays a script of
{"relation": name, "exponent": int} steps by summing exponents per
(kind, payload), with points canonical and I taken mod 2, and prints the
residual as `periodcalc check` renders it:

    python3 tests/dbcheck.py DB_FILE SCRIPT_FILE

Exit 0 with the residual on stdout, or 2 with one line on stderr when the
file or the script is malformed.
"""

import json
import re
import sys
from fractions import Fraction

# kind -> payload types; the int of BW and DC is a sign, +1 or -1
KINDS = {"BW": (str, int), "Gauss": (str,), "ArchZ": (str, str),
         "LVal": (str, str), "Delta": (str,), "DC": (str, int),
         "DCi": (str, int), "TwoPiI": (), "I": ()}
POINT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def need(ok, what):
    if not ok:
        raise ValueError(what)


def read_atom(data):
    """An atom record as the hashable pair (kind, payload)."""
    need(type(data) is dict, f"an atom is not an object: {data!r}")
    kind, payload = data.get("kind"), data.get("payload", [])
    need(type(kind) is str and kind in KINDS, f"unknown kind {kind!r}")
    need(type(payload) is list
         and [type(x) for x in payload] == list(KINDS[kind]),
         f"bad {kind} payload {payload!r}")
    if kind in ("BW", "DC"):
        need(payload[1] in (1, -1), f"{kind} sign {payload[1]}")
    elif kind == "Gauss":
        need(payload[0] != "", "empty Gauss label")
    elif kind in ("ArchZ", "LVal"):
        need(POINT.fullmatch(payload[0]), f"point {payload[0]!r}")
        payload = [str(Fraction(payload[0])), payload[1]]
    return kind, tuple(payload)


def reduced(exp):
    exp = dict(exp)
    if ("I", ()) in exp:
        exp[("I", ())] %= 2
    return {a: e for a, e in exp.items() if e}


def read_side(pairs, atoms):
    """A side of a relation as {atom: exponent}; atoms is the version-2
    atom table, or None when each pair holds its atom in full."""
    need(type(pairs) is list, f"a side is not a list: {pairs!r}")
    exp = {}
    for pair in pairs:
        need(type(pair) is list and len(pair) == 2
             and type(pair[1]) is int, f"bad pair {pair!r}")
        ref = pair[0]
        if atoms is None:
            atom = read_atom(ref)
        else:
            need(type(ref) is int and 0 <= ref < len(atoms),
                 f"bad atom index {ref!r}")
            atom = atoms[ref]
        exp[atom] = exp.get(atom, 0) + pair[1]
    return reduced(exp)


def read_db(text):
    """{name: (citation, lhs, rhs)} of a version-1 or version-2 file."""
    data = json.loads(text)
    need(type(data) is dict, "not a JSON object")
    version = data.get("version", 1)
    need(type(version) is int and version in (1, 2),
         f"unknown version {version!r}")
    atoms = citations = None
    if version == 2:
        atoms, citations = data.get("atoms"), data.get("citations")
        need(type(atoms) is list and type(citations) is list,
             "no atom or citation table")
        atoms = [read_atom(a) for a in atoms]
    relations = data.get("relations", [])
    need(type(relations) is list, "relations is not a list")
    db = {}
    for rel in relations:
        need(type(rel) is dict
             and {"name", "citation", "lhs", "rhs"} <= set(rel),
             f"bad relation record {rel!r}")
        name, citation = rel["name"], rel["citation"]
        if citations is not None:
            need(type(citation) is int and 0 <= citation < len(citations),
                 f"bad citation index {citation!r}")
            citation = citations[citation]
        need(type(name) is str and name and type(citation) is str
             and citation, f"relation needs a name and a citation: {name!r}")
        body = (citation, read_side(rel["lhs"], atoms),
                read_side(rel["rhs"], atoms))
        need(db.setdefault(name, body) == body,
             f"relation {name!r} has two bodies")
    return db


def replay(db, script):
    """The residual {atom: exponent} of the script's steps against db."""
    need(type(script) is list, "the script is not a list")
    exp = {}
    for step in script:
        need(type(step) is dict and set(step) == {"relation", "exponent"}
             and type(step["relation"]) is str
             and type(step["exponent"]) is int, f"bad step {step!r}")
        need(step["relation"] in db, f"unknown relation {step['relation']!r}")
        _, lhs, rhs = db[step["relation"]]
        for side, sign in ((lhs, 1), (rhs, -1)):
            for atom, e in side.items():
                exp[atom] = exp.get(atom, 0) + sign * step["exponent"] * e
    return reduced(exp)


def render(exp):
    """The residual as `periodcalc check` prints it: "1", or the atoms by
    (kind, payload as text), each as kind(payload)^exponent."""
    def key(atom):
        return atom[0], tuple(map(str, atom[1]))

    def atom_text(atom):
        kind, payload = atom
        parts = [str(x) for x in payload]
        if kind in ("BW", "DC"):
            parts[1] = "+" if payload[1] > 0 else "-"
        return f"{kind}({','.join(parts)})" if parts else kind

    return " * ".join(f"{atom_text(a)}^{exp[a]}"
                      for a in sorted(exp, key=key)) or "1"


def check(db_text, script_text):
    """The rendered residual; a ValueError for a bad file or script."""
    try:
        return render(replay(read_db(db_text), json.loads(script_text)))
    except RecursionError as exc:
        raise ValueError("nested too deeply") from exc


def main(argv):
    if len(argv) != 2:
        print("usage: dbcheck.py DB_FILE SCRIPT_FILE", file=sys.stderr)
        return 2
    try:
        texts = []
        for path in argv:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        print(check(*texts))
    except (OSError, ValueError) as exc:  # also not UTF-8
        print(f"dbcheck: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
