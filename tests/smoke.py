"""Smoke rows: periodcalc from PATH at the CLI's caps, on malformed
requests and on its own DB files, held to one set of rules.

    python3 tests/smoke.py

Each row is (seconds, exit code, argv[, text stderr holds]). Its run, in a
fresh temporary directory, must end within its seconds, with its exit
code; exit 2 prints exactly one stderr line, exit 0 none and exit 1 at
most one (a failed check prints its residual on stdout); no stderr names a
.tmp file. In argv, $NAME is an entry of ARGS, {tmp} the directory and
{db} a file the row saves: that file must be version 2, the CLI given the
run's --verbose steps must replay it to the same exit code and residual,
and the residual is "1" exactly when the exit code is 0. Every
`--json check --db D --script S` run that exits 0 or 1 must print the
residual that tests/dbcheck.py reads from D and S. Exit 0 when every row
passes, else 1 after one line per failing row; the standard library only.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

DBCHECK = Path(__file__).with_name("dbcheck.py")
REPLAY_SECONDS, DBCHECK_SECONDS = 5, 20
STEP_R = '[{"relation": "r", "exponent": 1}]'
ARGS = {
    "$PI": json.dumps({"n": 256, "kappa": list(range(510, 1, -4)), "w": 0}),
    "$SIGMA": json.dumps({"n": 256, "kappa": list(range(511, 2, -4)),
                          "w": 1}),
    "$MOTIVE": json.dumps({"label": "M", "n": 256, "weight": 0,
                           "kappa": list(range(513, 4, -4)), "dplus": 128,
                           "dminus": 128}),
    "$AUX": json.dumps({"label": "N", "n": 255, "weight": 0,
                        "kappa": list(range(511, 6, -4)), "dplus": 128,
                        "dminus": 127}),
    "$PI_OVER_CAP": '{"n":2,"kappa":[2000000],"w":0}',
    "$SIGMA_GL1": '{"n":1,"kappa":[],"w":0}',
    "$STEP_R": STEP_R,
}
# hand-written DB files, written to the directory before the first row
FILES = {
    "exponent_db.json": '{"relations": [{"name": "r", "citation": "c", "rhs": [], "lhs": [[{"kind": "ArchZ", "payload": ["1e999999999", "P"]}, 1]]}]}',
    "v1.json": '{"relations": [{"name": "r", "citation": "c", "lhs": [[{"kind": "BW", "payload": ["P", 1]}, 1], [{"kind": "I", "payload": []}, 2]], "rhs": [[{"kind": "BW", "payload": ["P", 1]}, 1]]}]}',
    "twice_i.json": '{"atoms": [{"kind": "I", "payload": []}, {"kind": "I", "payload": []}, {"kind": "TwoPiI", "payload": []}], "citations": ["c"], "relations": [{"citation": 0, "lhs": [[0, 1], [2, 1]], "name": "r", "rhs": [[1, -1]]}, {"citation": 0, "lhs": [[1, 1]], "name": "s", "rhs": []}], "version": 2}',
    "two_bodies.json": '{"atoms": [{"kind": "TwoPiI", "payload": []}], "citations": ["c"], "relations": [{"citation": 0, "lhs": [[0, 1]], "name": "r", "rhs": []}, {"citation": 0, "lhs": [], "name": "r", "rhs": []}], "version": 2}',
    "truncated.json": '{"relations": [',
    "step_r.json": STEP_R,
}
ROWS = [
    (20, 0, "check main1 --n 8 --m 1000001/2"),
    (20, 2, "critical --pi $PI_OVER_CAP --sigma $SIGMA_GL1"),
    (20, 0, "check main1 --n 4"),
    (20, 2, "infinity-type --weight 20001,0"),
    (20, 2, "check main1 --n 1_0"),
    (20, 2, "asai --kappa1 +3 --w1 1 --kappa2 3 --w2 1"),
    (20, 2, "asai --kappa1 10001 --w1 1 --kappa2 3 --w2 1"),
    (5, 0, "critical --pi $PI --sigma $SIGMA"),
    (5, 0, "--json classify --pi $PI --delta 0 --u 0"),
    (5, 0, "deligne --motive $MOTIVE --aux $AUX"),
    (5, 0, "deligne --motive $MOTIVE --aux $AUX --sign=-1"),
    (20, 2, "check motivic-dual --n 3 --corrupt"),
    (20, 1, "check main1 --n 1 --m 1/3"),
    (20, 2, "check main1 --n 3 --db {tmp}/missing/x.json",
     "{tmp}/missing/x.json"),
    (20, 0, "--json --verbose check motivic-dual --n 256 --db {db}"),
    (20, 0, "--json --verbose check main1 --n 255 --m 3/2 --db {db}"),
    (5, 0, "--json --verbose check main1 --n 256 --w=-10000 --delta=10000 "
           "--m=-9999999999999999999999999999999999999/2 --db {db}"),
    (20, 0, "--json --verbose check corollary-main --n 256 --db {db}"),
    (20, 0, "--json --verbose check main2 --n 256 --nprime 255 "
            "--eps-num=-1 --db {db}"),
    (20, 1, "--json --verbose check main1 --n 7 --corrupt --db {db}"),
    (20, 1, "--json --verbose check motivic-dual --n 256 --corrupt "
            "--db {db}"),
    (20, 0, "--json --verbose check --db {db} main1 --n 8 --m 3/2"),
    (5, 2, "check --db exponent_db.json --script $STEP_R"),
    (5, 0, "--json check --db v1.json --script step_r.json"),
    (5, 1, "--json check --db twice_i.json --script step_r.json"),
    (5, 2, "check --db two_bodies.json --script $STEP_R"),
    (5, 2, "check --db truncated.json --script []",
     "truncated.json is not JSON"),
]


def need(ok, what):
    if not ok:
        raise ValueError(what)


def run(tmp, seconds, code, argv, holds=""):
    """Run periodcalc on argv in tmp, hold it to the rules, and return its
    stdout."""
    proc = subprocess.run(["periodcalc", *argv], cwd=tmp, text=True,
                          capture_output=True, timeout=seconds)
    err = proc.stderr.splitlines()
    need(proc.returncode == code,
         f"exit {proc.returncode}, not {code}: {proc.stderr.strip()!r}")
    need(len(err) <= 1 if code == 1 else len(err) == (code == 2),
         f"{len(err)} stderr lines at exit {code}: {err}")
    need(".tmp" not in proc.stderr, f"stderr names a .tmp file: {err}")
    need(holds in proc.stderr, f"stderr lacks {holds!r}: {err}")
    if code < 2 and argv[:3] == ["--json", "check", "--db"]:
        db, script = argv[3], argv[argv.index("--script") + 1]
        got = json.loads(proc.stdout)["residual"]
        want = subprocess.run(
            [sys.executable, DBCHECK, db, script], cwd=tmp, text=True,
            capture_output=True, timeout=DBCHECK_SECONDS, check=True)
        need(got == want.stdout.strip(),
             f"the CLI gives {got}, dbcheck {want.stdout.strip()}")
    return proc.stdout


def replay(tmp, db, code, out):
    """Replay a saved DB file with the steps of the run that saved it."""
    version = json.loads(Path(tmp, db).read_text())["version"]
    need(version == 2, f"{db} is version {version}")
    saved, steps = json.loads(out), db + ".steps"
    Path(tmp, steps).write_text(json.dumps(saved["steps"]))
    again = run(tmp, REPLAY_SECONDS, code,
                ["--json", "check", "--db", db, "--script", steps])
    residual = json.loads(again)["residual"]
    need(residual == saved["residual"] and (residual == "1") == (code == 0),
         f"saved with residual {saved['residual']}, replayed to {residual}")


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text + "\n")
        for i, (seconds, code, line, *holds) in enumerate(ROWS):
            db = f"saved{i}.json"
            argv = [ARGS.get(a, a).replace("{tmp}", tmp).replace("{db}", db)
                    for a in line.split()]
            try:
                out = run(tmp, seconds, code, argv,
                          *(h.replace("{tmp}", tmp) for h in holds))
                if "{db}" in line:
                    replay(tmp, db, code, out)
            except (ValueError, KeyError, TypeError, OSError,
                    subprocess.SubprocessError) as exc:
                failed += 1
                print(f"FAIL periodcalc {line}: {type(exc).__name__}: {exc}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} smoke rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
