"""Golden outputs for a fixed corpus of CLI invocations.

Every entry of `cli_golden.json` is one command line run through
`dispatch`, with the exit code, the report and the first stderr line it
produced. A refactor of the CLI must reproduce them byte for byte. Only
the wall-clock field `elapsed_seconds` is dropped from each report. Paths
under the test's temporary directory are written as `{tmp}`. The usage
text is not recorded, so that help wording can change on its own.
"""

import json
import os
from pathlib import Path

import pytest

from primelab.cli import dispatch

CORPUS = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())

# files the corpus refers to as {tmp}/<name>
FILES = {
    "t.txt": "0\n4\n6\n",
    "lab.conf": "seed=99\nsegment_size=65536\n",
    "bad.conf": "volume=11\n",
    "gpy_strict.conf": "tolerance.gpy_agreement=0\n",
    "eigen_strict.conf": "tolerance.eigen_residual=1e-300\n",
}


def _normalise(out: str) -> str:
    if out.startswith("{"):
        report = json.loads(out)
        report.pop("elapsed_seconds")
        return json.dumps(report, sort_keys=True) + "\n"
    return "".join(
        line for line in out.splitlines(keepends=True)
        if not line.startswith("elapsed_seconds,")
    )


def observe(argv: list[str], tmp: Path, capsys) -> dict:
    """Run one corpus command line and return what the corpus records."""
    code = dispatch([a.replace("{tmp}", str(tmp)) for a in argv])
    captured = capsys.readouterr()
    err_lines = captured.err.splitlines()
    return {
        "argv": argv,
        "exit": code,
        "stdout": _normalise(captured.out).replace(str(tmp), "{tmp}"),
        "stderr": (err_lines[0] if err_lines else "").replace(str(tmp), "{tmp}"),
    }


@pytest.fixture(autouse=True)
def no_child_left():
    # a forked sieve piece is reaped by the call that started it
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("PRIMELAB_CONFIG", raising=False)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: " ".join(e["argv"]))
def test_golden_output(entry, corpus_dir, capsys):
    assert observe(entry["argv"], corpus_dir, capsys) == entry
