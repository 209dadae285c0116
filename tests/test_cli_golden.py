"""Golden CLI transcript: each stored query replayed through `cli.main`.

`tests/data/cli_golden.json` holds the character files the queries read
and, per query, its argv, exit code, stdout and stderr.  Queries run in a
directory holding those files, so paths in messages are relative.  After a
deliberate change of output, rewrite the stored results with

    PYTHONPATH=src python tests/test_cli_golden.py

An argv given on that command line is appended as a new query first,
unless it is stored already:

    PYTHONPATH=src python tests/test_cli_golden.py blocks --composition 3,3,3
"""

import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from pericat.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
DOC = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _write_files(directory: Path) -> None:
    for name, doc in DOC["files"].items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (directory / name).write_text(text, encoding="utf-8")


def run_query(argv: list) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize(
    "query", DOC["queries"], ids=[" ".join(q["argv"]) for q in DOC["queries"]]
)
def test_cli_golden(query, tmp_path, monkeypatch):
    monkeypatch.delenv("PERICAT_FIXTURES", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_query(query["argv"]) == query


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] and sys.argv[1:] not in [q["argv"] for q in DOC["queries"]]:
        DOC["queries"].append({"argv": sys.argv[1:]})
    os.environ.pop("PERICAT_FIXTURES", None)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
        os.chdir(tmp)
        DOC["queries"] = [run_query(q["argv"]) for q in DOC["queries"]]
    GOLDEN.write_text(json.dumps(DOC, indent=1) + "\n", encoding="utf-8")
