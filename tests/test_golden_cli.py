"""Replay the golden CLI corpus: every record must come back byte for byte.

The corpus is written by tests/golden/make_cli_corpus.py; see its docstring
for the record format and for when to regenerate it.
"""

import json

from tests.golden.make_cli_corpus import CORPUS, run


def test_golden_corpus_replays_byte_identically():
    with open(CORPUS) as fh:
        records = [json.loads(line) for line in fh]
    assert 500 <= len(records) <= 1000
    changed = []
    for lineno, want in enumerate(records, 1):
        got = run(want["argv"], want.get("files"),
                  "db.json" if "db" in want else None)
        if got != want:
            changed.append(f"line {lineno}: {' '.join(want['argv'])[:120]}")
    assert not changed, f"{len(changed)} records changed:\n" + \
        "\n".join(changed[:20])
