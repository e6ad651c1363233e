"""Replay the golden CLI corpus: every record must come back byte for byte.

The corpus is written by tests/golden/make_cli_corpus.py; see its docstring
for the record format and for when to regenerate it.
"""

import json

from tests.golden.make_cli_corpus import line, records, requests, run
from tests.golden.malformed import MALFORMED, REJECTED


def test_golden_corpus_replays_byte_identically():
    corpus = records()
    assert 500 <= len(corpus) <= 1000
    # sorted with no line twice, and no request (argv, files) twice
    lines = [line(r) for r in corpus]
    assert lines == sorted(set(lines))
    asked = {json.dumps([r["argv"], r.get("files")]) for r in corpus}
    assert len(asked) == len(corpus)
    # the generator runs each request once
    assert len(list(requests())) == len(corpus)
    changed = []
    for lineno, want in enumerate(corpus, 1):
        got = run(want["argv"], want.get("files"),
                  "db.json" if "db" in want else None)
        if got != want:
            changed.append(f"line {lineno}: {' '.join(want['argv'])[:120]}")
    assert not changed, f"{len(changed)} records changed:\n" + \
        "\n".join(changed[:20])


def _keeps_contract(code, out, err):
    """Exit 0 prints, exit 1 prints a residual or writes one "error:" line,
    and exit 2 writes one stderr line that is not a traceback."""
    if out:
        return code in (0, 1) and not err
    one_line = err.endswith("\n") and err.count("\n") == 1
    return one_line and (code == 1 and err.startswith("error: ")
                         or code == 2 and "Traceback" not in err)


def test_every_record_keeps_the_exit_contract():
    broken, codes = [], {}
    for r in records():
        if ("warnings" in r
                or not _keeps_contract(r["code"], r["stdout"], r["stderr"])):
            broken.append(" ".join(r["argv"])[:120])
        codes.setdefault(tuple(r["argv"]), set()).add(r["code"])
    broken += [f"exits {codes.get(tuple(argv))}, not {{{want}}}: {case}"
               for cases, want in ((MALFORMED, 2), (REJECTED, 1))
               for case, argv in cases.items()
               if codes.get(tuple(argv)) != {want}]
    assert not broken, "\n".join(broken[:20])
