"""Byte-for-byte regression of the CLI's JSON output.

The `count`/`table` fixtures under golden/ were written by the engine
before its Grothendieck-Witt arithmetic was moved to integer square-class
masks.  They pin the values and the order of `total.terms`, which the JSON
promises to keep stable across engine changes.  The `enumerate` fixtures
were written while merged classes were still found by the 2^s ordering
key; they pin the class representatives, their first-seen order and
their labels.
"""

from pathlib import Path

import pytest

from gwfloor.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,fixture", [
    (["table", "p2:4"], "table_p2_4.json"),
    (["table", "p1xp1:2,4"], "table_p1xp1_2_4.json"),
    (["count", "p2:3", "--pairs-count", "3"], "count_p2_3_s3.json"),
])
def test_json_matches_golden(capsys, argv, fixture):
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / fixture).read_bytes()


@pytest.mark.parametrize("argv,fixture", [
    (["enumerate", "p2:4", "--pairs-count", "2"], "enumerate_p2_4_s2.jsonl"),
    (["enumerate", "p1xp1:2,3", "--pairs", "2,3;5,6"],
     "enumerate_p1xp1_2_3_pairs.jsonl"),
])
def test_enumerate_matches_golden(capsys, argv, fixture):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / fixture).read_bytes()
