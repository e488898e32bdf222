"""Every call of the benchmark, replayed in this process against the exit
codes and payload hashes stored in perfbench/reference.json, so a changed
output fails here before the benchmark runs.  The file is only read."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from parafock.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
CALLS = json.loads(REFERENCE.read_text())


def test_reference_is_not_empty():
    assert CALLS


@pytest.mark.parametrize("key", sorted(CALLS))
def test_benchmark_call_matches_reference(key):
    """The payload is every output line after the meta record; of the meta
    record only the command name is checked."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(key.split(" "))
    meta, _, payload = buf.getvalue().partition("\n")
    assert json.loads(meta)["meta"] == key.split(" ", 1)[0]
    assert code == CALLS[key]["exit"]
    assert hashlib.sha256(payload.encode()).hexdigest() == CALLS[key]["sha256"]
