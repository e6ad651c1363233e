"""Write tests/golden/cli.jsonl, the golden corpus of CLI runs.

Each line is one in-process run of `periodcalc.cli.main`: its argv, the input
files it reads (name -> text), the exit code, stdout, stderr and the messages
of the warnings it raised, and for a `check ... --db` run the text of the
relation database it wrote. An argv entry "@name" stands for the file `name`
in the run's own empty directory, and that directory is written as "@" in the
outputs, so a record does not depend on where it runs.

`tests/test_golden_cli.py` replays every record and wants each byte back.
Regenerate the corpus only on purpose, and list every record that changed:

    PYTHONPATH=src python3 tests/golden/make_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "cli.jsonl")

BUILTINS = ("main1", "corollary-main", "main2", "motivic-dual")


def run(argv, files=None, db=None) -> dict:
    """Run the CLI on argv in a fresh directory holding files; db names the
    file whose text a `check --db` run leaves behind."""
    from periodcalc import cli

    files = files or {}
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(text)
        real = [os.path.join(work, a[1:]) if a.startswith("@") else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(real)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        def here(text):
            return text.replace(work + os.sep, "@")

        record = {"argv": list(argv), "code": code,
                  "stdout": here(out.getvalue()), "stderr": here(err.getvalue())}
        if files:
            record["files"] = files
        if caught:
            record["warnings"] = [here(str(w.message)) for w in caught]
        # a run that exits before it writes the database has no "db"
        if db is not None and os.path.exists(os.path.join(work, db)):
            with open(os.path.join(work, db)) as fh:
                record["db"] = fh.read()
    return record


def _itype(rng, n: int, w: int) -> dict:
    """A random infinity type of rank n with a random sign choice."""
    if n % 2:
        w -= w % 2
    par = w % 2 if n % 2 == 0 else 1
    k = 2 + (par != 0) + 2 * rng.randint(0, 2)
    kappa = []
    for _ in range(n // 2):
        kappa.append(k)
        k += 2 * rng.randint(1, 3)
    return {"n": n, "kappa": kappa[::-1], "w": w, "sign": rng.randint(0, 1)}


def _flags(bits: int) -> list:
    """Global flags before the subcommand: --json, --verbose by two bits."""
    return (["--json"] if bits & 1 else []) + (["--verbose"] if bits & 2
                                               else [])


def _critical(rng):
    for _ in range(150):
        n, n2 = rng.randint(1, 9), rng.randint(1, 9)
        pi = _itype(rng, n, rng.randint(-3, 3))
        sigma = _itype(rng, n2, rng.randint(-3, 3))
        yield _flags(rng.randint(0, 1)) + [
            "critical", "--pi", json.dumps(pi), "--sigma", json.dumps(sigma)]
    # both sign choices of one odd-rank pair, on either side
    for s1 in (0, 1):
        for s2 in (0, 1):
            pi = {"n": 3, "kappa": [7], "w": 0, "sign": s1}
            sigma = {"n": 5, "kappa": [9, 3], "w": 2, "sign": s2}
            yield ["--json", "critical", "--pi", json.dumps(pi),
                   "--sigma", json.dumps(sigma)]


def _builtin_n(builtin: str, n: int) -> list:
    argv = ["check", builtin, "--n", str(n)]
    if builtin == "main1":
        argv += ["--w", str((n + 1) % 2), "--m", "3/2"]
    elif builtin == "main2":
        argv += ["--nprime", "3"]
    return argv


def _builtins():
    """Every builtin at n = 2..9 under each of --json, --verbose, --corrupt;
    a few of them also write a relation database."""
    for builtin in BUILTINS:
        for n in range(2, 10):
            for bits in range(8):
                argv = _flags(bits) + _builtin_n(builtin, n)
                if bits & 4:
                    argv.append("--corrupt")
                db = n in (2, 5, 9) and bits in (0, 5)
                yield (argv + ["--db", "@db.json"], None, "db.json") if db \
                    else argv


def _main1_grid(rng):
    for n in (2, 3, 5, 8):
        for w in (-2, 0, 1, 3):
            for m in ("1/2", "3/2", "-5/2", "7/2", "101/2", "1000001/2", "2"):
                yield _flags(rng.randint(0, 1)) + [
                    "check", "main1", "--n", str(n), f"--w={w}", f"--m={m}"]
    for n, delta in ((4, 0), (4, 1), (5, 1), (5, 0), (6, 2)):
        yield ["--json", "check", "main1", "--n", str(n),
               f"--delta={delta}", "--m", "5/2"]


def _corollary_main():
    for n in range(1, 5):
        for chi in (None, "chi", "psi", "omega_Pi", "zeta"):
            for symplectic in (False, True):
                argv = ["--json", "check", "corollary-main", "--n", str(n)]
                if chi:
                    argv += ["--chi", chi]
                if symplectic:
                    argv.append("--symplectic")
                yield argv
    yield ["--verbose", "check", "corollary-main", "--n", "3", "--chi", "psi",
           "--corrupt"]


def _main2():
    for n in (1, 2, 3):
        for nprime in (1, 2, 3, 5):
            for eps in (1, -1):
                for no_i in (False, True):
                    argv = ["--json", "check", "main2", "--n", str(n),
                            "--nprime", str(nprime), f"--eps-num={eps}"]
                    yield argv + (["--no-i-power"] if no_i else [])


def _motivic_dual_indices():
    for n in range(4, 10):
        for i in range(1, n // 2):
            yield ["--json", "check", "motivic-dual", "--n", str(n),
                   "--i", str(i)]


def _db_and_steps(argv) -> tuple:
    """The database a builtin writes and its --verbose steps as a script."""
    written = run(argv + ["--db", "@db.json"], db="db.json")["db"]
    steps = json.loads(run(["--json", "--verbose"] + argv)["stdout"])
    return written, json.dumps(steps["steps"])


def _scripts():
    """A builtin's --verbose steps replayed from the database it wrote."""
    for argv in (_builtin_n("corollary-main", 2), _builtin_n("main1", 5),
                 _builtin_n("motivic-dual", 6)):
        written, script = _db_and_steps(argv)
        yield (["--json", "check", "--db", "@rel.json", "--script", script],
               {"rel.json": written}, None)
        yield (["check", "--db", "@rel.json", "--script", "@script.json"],
               {"rel.json": written, "script.json": script}, None)


def _asai(rng):
    for _ in range(40):
        ks = [rng.randint(1, 9) for _ in range(2)]
        ws = [k % 2 + 2 * rng.randint(-1, 1) for k in ks]
        if rng.random() < 0.1:
            ws[0] += 1
        yield _flags(rng.randint(0, 1)) + [
            "asai", f"--kappa1={ks[0]}", f"--w1={ws[0]}",
            f"--kappa2={ks[1]}", f"--w2={ws[1]}"]


def _classify(rng):
    for _ in range(30):
        pi = _itype(rng, rng.randint(1, 8), rng.randint(-3, 3))
        u = pi["w"] + rng.choice((0, 0, 1, -1))
        yield _flags(rng.randint(0, 1)) + [
            "classify", "--pi", json.dumps(pi),
            "--delta", str(rng.randint(0, 1)), f"--u={u}"]
    for flags in ([], ["--json"]):
        yield flags + ["classify", "--pi", '{"n":2,"kappa":[4],"w":0}',
                       "--delta", "7", "--u", "0"]


MOTIVES = (
    ('{"label":"M","n":4,"weight":0,"kappa":[9,5],"dplus":2,"dminus":2}',
     '{"label":"N","n":3,"weight":0,"kappa":[7],"dplus":2,"dminus":1}'),
    ('{"label":"A","n":3,"weight":0,"kappa":[7],"dplus":2,"dminus":1}',
     '{"label":"B","n":2,"weight":0,"kappa":[5],"dplus":1,"dminus":1}'),
    ('{"label":"A","n":3,"weight":2,"kappa":[7],"dplus":1,"dminus":2}',
     '{"label":"B","n":2,"weight":2,"kappa":[3],"dplus":1,"dminus":1}'),
    ('{"label":"M","n":5,"weight":0,"kappa":[13,5],"dplus":3,"dminus":2}',
     '{"label":"N","n":4,"weight":0,"kappa":[9,3],"dplus":2,"dminus":2}'),
    ('{"label":"M","n":4,"weight":0,"kappa":[9,5],"dplus":2,"dminus":2}',
     '{"label":"N","n":3,"weight":0,"kappa":[11],"dplus":2,"dminus":1}'),
    ('{"label": ["M"], "n": 2, "weight": 0, "kappa": [5], "dplus": 1, '
     '"dminus": 1}',
     '{"label": 7, "n": 1, "weight": 0, "kappa": [], "dplus": 1, '
     '"dminus": 0}'),
)


def _deligne():
    for motive, aux in MOTIVES:
        for sign in ("1", "-1"):
            for flags in ([], ["--json"]):
                yield flags + ["deligne", "--motive", motive, "--aux", aux,
                               f"--sign={sign}"]


def _infinity_type(rng):
    for weight in ("11,0", "2,1,-2,-3", "5,2,-1", "3,3", "2,1,1", "0"):
        yield ["--json", "infinity-type", "--weight", weight, "--round-trip"]
        yield ["infinity-type", f"--weight={weight}"]
    for _ in range(8):
        t = _itype(rng, rng.randint(1, 9), rng.randint(-3, 3))
        yield _flags(rng.randint(0, 1)) + [
            "infinity-type", "--type", json.dumps(t), "--round-trip"]


def _malformed(part=0):
    """Every input of test_malformed_input_exits_2_with_one_line before
    PINNED (part 0), from PINNED to LISTS (1), from LISTS to LATE_MALFORMED
    (2) or from LATE_MALFORMED on (3), each with the files it reads."""
    from tests.golden.malformed import (FILES, LATE_MALFORMED, LISTS,
                                        MALFORMED, PINNED)

    bounds = (0, PINNED, LISTS, LATE_MALFORMED, None)
    for argv in list(MALFORMED.values())[bounds[part]:bounds[part + 1]]:
        used = {a[1:]: FILES[a[1:]] for a in argv
                if a.startswith("@") and a[1:] in FILES}
        yield argv, used or None, None


def _defaults():
    """A builtin with every flag but --n left at its default; appended after
    the malformed inputs, so the records before it keep their lines."""
    yield ["check", "main1", "--n", "4"]
    yield ["--json", "check", "main1", "--n", "4"]


def _main1_db():
    """main1 steps that write a relation database: a Gauss exponent of 0
    (n = 2), the i-power present and absent in duality-ratio and
    arch-iparity, ranks 16 and 255, a negative control, and big-integer
    point text at the caps."""
    for argv in (["--n", "2", "--w=0", "--m", "3/2"],
                 ["--n", "2", "--w=1", "--m=-5/2"],
                 ["--n", "3", "--w=-2", "--delta=-3", "--m", "7/2"],
                 ["--n", "6", "--w=-2", "--delta=-2", "--m=-1/2"],
                 ["--n", "16", "--w=1", "--m=-7/2"],
                 ["--n", "255", "--w=2", "--delta=-1", "--m", "9/2"],
                 ["--n", "7", "--w=2", "--m", "5/2", "--corrupt"],
                 ["--n", "256", "--w=-10000", "--delta=10000",
                  "--m=-9999999999999999999999999999999999999/2"]):
        yield (["--json", "check", "main1"] + argv + ["--db", "@db.json"],
               None, "db.json")


def _main1_rank_one():
    """The rank-1 base case: Pi's weight and the point m are checked before
    the trivial residual, so an odd w or a point off the half-integers
    exits 1 as it does at every odd rank."""
    yield ["check", "main1", "--n", "1", "--w=3"]
    yield ["check", "main1", "--n", "1"]
    yield ["check", "main1", "--n", "1", "--m", "1/3"]


def _empty_controls():
    """A --corrupt negative control on a derivation of no relation, which
    exits 2 as motivic-dual at ranks 2 and 3 does: the rank-1 main1 base
    case and main2 at an even n'."""
    yield ["check", "main1", "--n", "1", "--corrupt"]
    yield ["check", "main2", "--n", "2", "--nprime", "2", "--corrupt"]


def _pinned():
    """Error lines that no earlier record reaches: the malformed inputs
    from PINNED to LISTS, the requests that exit 1 with one error line
    before LATE_REJECTED, the malformed inputs from LISTS to
    LATE_MALFORMED, the rejected requests from LATE_REJECTED on, then the
    malformed inputs from LATE_MALFORMED on."""
    from tests.golden.malformed import LATE_REJECTED, REJECTED

    rejected = list(REJECTED.values())
    yield from _malformed(1)
    yield from rejected[:LATE_REJECTED]
    yield from _malformed(2)
    yield from rejected[LATE_REJECTED:]
    yield from _malformed(3)


# a version-2 file whose atom table lists I twice; its relation r leaves
# the residual TwoPiI^1
TWICE_I_DB = ('{"atoms": [{"kind": "I", "payload": []}, {"kind": "I", '
              '"payload": []}, {"kind": "TwoPiI", "payload": []}], '
              '"citations": ["c"], "relations": [{"citation": 0, "lhs": '
              '[[0, 1], [2, 1]], "name": "r", "rhs": [[1, -1]]}, '
              '{"citation": 0, "lhs": [[1, 1]], "name": "s", "rhs": []}], '
              '"version": 2}')


def _residual_replays():
    """DB replays that leave a residual, so the replay decodes the nonzero
    sums of the records it kept: a hand-written file and the DB of a
    corrupted main1 step replayed with its own steps."""
    script = '[{"relation": "r", "exponent": 1}]'
    yield (["--json", "check", "--db", "@rel.json", "--script", script],
           {"rel.json": TWICE_I_DB}, None)
    written, script = _db_and_steps(["check", "main1", "--n", "7",
                                     "--corrupt"])
    yield (["--json", "check", "--db", "@rel.json", "--script", "@script.json"],
           {"rel.json": written, "script.json": script}, None)


def _payload_rejections():
    """Payload rejections that no earlier record reaches, each exiting 1 with
    one error line: a --pi of rank 0, which checked_kappa rejects, and a
    --pi of odd rank and odd w, which InfinityType rejects."""
    sigma = '{"n":2,"kappa":[4],"w":0}'
    for pi in ('{"n":0,"kappa":[],"w":0}', '{"n":3,"kappa":[5],"w":1}'):
        yield ["critical", "--pi", pi, "--sigma", sigma]


def _non_object_payloads():
    """Payloads that are JSON but not an object, each exiting 2 with one
    error line that names what was given: to critical, to infinity-type
    --type and to deligne."""
    sigma = '{"n":1,"kappa":[],"w":0}'
    for payload in ("[1]", "null", '"M"'):
        yield ["critical", "--pi", payload, "--sigma", sigma]
        yield ["infinity-type", "--type", payload]
        yield ["deligne", "--motive", payload, "--aux", MOTIVES[0][1]]


def _motive(label: str, n: int, weight: int, top: int, dplus: int) -> str:
    """A motive of rank n whose kappa steps down by 4 from top."""
    return json.dumps({"label": label, "n": n, "weight": weight,
                       "kappa": list(range(top, 1, -4))[:n // 2],
                       "dplus": dplus, "dminus": n - dplus})


def _large_deligne():
    """deligne above rank 5, up to the rank cap: the motive pairs (8, 7),
    (9, 8) and (256, 255), with both signs, with and without --json."""
    for motive, aux in ((_motive("M", 8, 0, 15, 4), _motive("N", 7, 2, 13, 3)),
                        (_motive("M", 9, 2, 17, 5), _motive("N", 8, 1, 14, 4)),
                        (_motive("M", 256, 0, 513, 128),
                         _motive("N", 255, 0, 511, 128))):
        for sign in ("1", "-1"):
            for flags in ([], ["--json"]):
                yield flags + ["deligne", "--motive", motive, "--aux", aux,
                               f"--sign={sign}"]


def requests():
    """(argv, files, db) of every run in the corpus, in a fixed order."""
    rng = random.Random(20261018)
    sources = [_critical(rng), _builtins(), _main1_grid(rng),
               _corollary_main(), _main2(), _motivic_dual_indices(),
               _scripts(), _asai(rng), _classify(rng), _deligne(),
               _infinity_type(rng), _malformed(), _defaults(), _main1_db(),
               _main1_rank_one(), _empty_controls(), _pinned(),
               _residual_replays(), _payload_rejections(),
               _non_object_payloads(), _large_deligne()]
    for source in sources:
        for req in source:
            yield req if isinstance(req, tuple) else (req, None, None)


def main():
    root = os.path.dirname(os.path.dirname(HERE))
    for path in (root, os.path.join(root, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    with open(CORPUS, "w") as fh:
        for argv, files, db in requests():
            fh.write(json.dumps(run(argv, files, db), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
