"""tests/smoke.py passes on periodcalc and fails on two broken CLIs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
CLI = f'"{sys.executable}" -m periodcalc.cli "$@"'


def _smoke(tmp_path, body):
    """tests/smoke.py run with a periodcalc shell script of body first on
    PATH."""
    shim = tmp_path / "periodcalc"
    shim.write_text(f"#!/bin/sh\nexport PYTHONPATH='{TESTS.parent / 'src'}'\n"
                    f"{body}\n")
    shim.chmod(0o755)
    env = {**os.environ, "PATH": f"{tmp_path}{os.pathsep}{os.environ['PATH']}"}
    return subprocess.run([sys.executable, TESTS / "smoke.py"], env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_smoke_row_passes_on_periodcalc(tmp_path):
    proc = _smoke(tmp_path, f"exec {CLI}")
    assert proc.returncode == 0, proc.stdout


@pytest.mark.parametrize("body, fault", [
    ("exit 0", "exit 0, not 2"),
    (f"{CLI}\ncode=$?\n[ $code -eq 2 ] && echo again >&2\nexit $code",
     "2 stderr lines at exit 2"),
], ids=["always-exits-0", "a-second-stderr-line-at-exit-2"])
def test_smoke_fails_on_a_broken_cli(tmp_path, body, fault):
    proc = _smoke(tmp_path, body)
    assert proc.returncode == 1 and fault in proc.stdout, proc.stdout
