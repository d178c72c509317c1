"""The table of CLI checks, run through ``cli.main`` in-process."""

import contextlib
import io
import os
import sys
import warnings
from pathlib import Path

import pytest

from cli_checks import CHECKS, Check, check, subprocess_invoke
from patternwalks.cli import main


def invoke(argv):
    """Run ``cli.main`` as the script would: a usage error's exit code, and
    every warning written to stderr as Python's default handler prints it."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, err.getvalue() + shown


@pytest.mark.parametrize("row", CHECKS, ids=[row.name for row in CHECKS])
def test_row(tmp_path, row):
    assert check(row, tmp_path, invoke) == []


def test_wrong_rows_fail(tmp_path):
    bad = {"n": 9}
    claims_success = Check("claims-success", "a bad config that claims exit 0", "simulate", bad)
    wrong_prefix = Check("wrong-prefix", "the right exit with another message", "simulate", bad,
                         exit=2, stderr="config error: sinks")
    assert check(claims_success, tmp_path, invoke)[0] == "a: exit 2, expected 0"
    assert check(wrong_prefix, tmp_path, invoke) == [
        "a: stderr 'config error: n: expected an integer in 1..6, got 9\\n' does not start with 'config error: sinks'"
    ]


def test_module_entry_point_passes_a_row(tmp_path, monkeypatch):
    src = str(Path(__file__).resolve().parent.parent / "src")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    (row,) = [row for row in CHECKS if row.name == "bad-n"]
    assert check(row, tmp_path, subprocess_invoke(sys.executable, "-m", "patternwalks.cli")) == []
