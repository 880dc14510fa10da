"""Byte-for-byte regression of the CLI's JSON output.

The `count`/`table` fixtures under golden/ were written by the engine
before its Grothendieck-Witt arithmetic was moved to integer square-class
masks.  They pin the values and the order of `total.terms`, which the JSON
promises to keep stable across engine changes.  The `enumerate` fixtures
were written while merged classes were still found by the 2^s ordering
key; they pin the class representatives, their first-seen order and
their labels.  The published `table p1xp1:2,5` fixture was written while
every class's multiplicity was still multiplied out on its own.  The
blowup fixtures, `table bl3:5,2,1,1` and `enumerate bl2:4,1,1` at s = 2
(whose floors carry both a -1 and a +1 leak), were written while
`enumerate_diagrams` still chose a floor's leak options by family name.
The sequence fixture, `enumerate_sequences.json`, holds the number of
diagrams and the SHA-256 of the JSON lines of the whole
`enumerate_diagrams` sequence per degree, so it pins every diagram and
its place in the order; it was written while the diagrams were still
enumerated by a recursive sweep with undo.  The verify fixture,
`verify_quick.json`, holds the `verify --scope quick` report of the clean
engine and of each classification and local-factor mutant of test_cli,
one stdout line per entry; it pins the check counts, the failure records
and the residual rule (a count outside the table format ends its group
as one failed check), and was written while each check family of verify
had its own CLI helper.  Its "classify:no_twin_trees" entry was rewritten
when rows with pairs came to be summed by orbit weights: without twin
trees, the weights of a signature are no longer whole classes, and each
group ends as one failed "orbit_weights_not_whole" check.  The
classification mutants have since moved from the per-diagram branch walk
to the walk's labelling (`diagrams.label`), keeping their entries byte
for byte.
"""

import hashlib
import json
from pathlib import Path

import pytest

import gwfloor.diagrams as diagrams
import gwfloor.multiplicity as multiplicity
from gwfloor.cli import main
from gwfloor.degrees import parse_degree
from gwfloor.diagrams import enumerate_diagrams

from test_cli import CLASSIFY_MUTANTS, LOCAL_FACTOR_MUTANTS, _verify_under
from test_degrees import FORCED_BUDGETS

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,fixture", [
    (["table", "p2:4"], "table_p2_4.json"),
    (["table", "p1xp1:2,4"], "table_p1xp1_2_4.json"),
    (["count", "p2:3", "--pairs-count", "3"], "count_p2_3_s3.json"),
    (["table", "p1xp1:2,5"], "table_p1xp1_2_5.json"),
    (["table", "bl3:5,2,1,1"], "table_bl3_5_2_1_1.json"),
])
def test_json_matches_golden(capsys, argv, fixture):
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / fixture).read_bytes()


@pytest.mark.parametrize("argv,fixture", [
    (["enumerate", "p2:4", "--pairs-count", "2"], "enumerate_p2_4_s2.jsonl"),
    (["enumerate", "p1xp1:2,3", "--pairs", "2,3;5,6"],
     "enumerate_p1xp1_2_3_pairs.jsonl"),
    (["enumerate", "bl2:4,1,1", "--pairs-count", "2"], "enumerate_bl2_4_1_1_s2.jsonl"),
])
def test_enumerate_matches_golden(capsys, argv, fixture):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / fixture).read_bytes()


SEQUENCE_SPECS = ["p2:4", "p2:5", "p1xp1:2,5", "p1xp1:3,3", "bl2:4,1,1", "bl3:5,2,1,1",
                  "bl3:6,3,2,2"] + FORCED_BUDGETS


def enumeration_sequence(spec_str: str) -> dict:
    """The number of diagrams and the SHA-256 of their JSON lines, in order."""
    diagrams = enumerate_diagrams(parse_degree(spec_str))
    text = "".join(json.dumps([d.colors, d.leaks, d.edges, d.ends]) + "\n" for d in diagrams)
    return {"count": len(diagrams), "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize("spec_str", SEQUENCE_SPECS)
def test_enumeration_sequence_matches_golden(spec_str):
    golden = json.loads((GOLDEN / "enumerate_sequences.json").read_text())
    assert enumeration_sequence(spec_str) == golden[spec_str]


def verify_quick_fixture(capsys, monkeypatch) -> str:
    """The verify --scope quick stdout line of the clean engine and of each
    mutant, as one JSON object keyed by "clean" and "<layer>:<mutant>"."""
    assert main(["verify", "--scope", "quick"]) == 0
    entries = [("clean", capsys.readouterr().out)]
    for layer, module, mutants in (("classify", diagrams, CLASSIFY_MUTANTS),
                                   ("local_factor", multiplicity, LOCAL_FACTOR_MUTANTS)):
        for name, (attr, make) in mutants.items():
            with monkeypatch.context() as patch:
                _, out = _verify_under(module, attr, make, patch, capsys)
            entries.append((f"{layer}:{name}", out))
    return "{\n" + ",\n".join(f"{json.dumps(key)}: {out.rstrip()}"
                               for key, out in entries) + "\n}\n"


def test_verify_quick_matches_golden(capsys, monkeypatch):
    fixture = verify_quick_fixture(capsys, monkeypatch)
    assert fixture.encode() == (GOLDEN / "verify_quick.json").read_bytes()
