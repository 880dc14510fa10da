"""The public surface of the package: what `gwfloor` exports, and what no
module of it carries any more."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gwfloor
from gwfloor.diagrams import FloorDiagram

PUBLIC = [
    "BetaForm", "CountResult", "DegreeSpec", "FloorDiagram", "GwElem",
    "GwMonomial", "InvalidDegree", "ResidualNotInSpan", "TwinTreeSummary",
    "beta_decompose", "beta_elem", "count", "display", "end_spec",
    "enumerate_diagrams", "equals_mod", "gamma", "h", "kontsevich", "m_a1",
    "n_delta", "one", "parse_degree", "twin_edge_mult", "twin_tree_mult",
    "verify_merge_invariance", "verify_rank_and_signatures",
    "verify_square_substitution", "white_spec",
]

# Wrappers and test oracles that left the package; tests/oracles.py holds
# the oracles.
REMOVED = ["merge", "MergedFloorDiagram", "diagram_mult", "edge_mult", "witt_compare",
           "signature_mult"]
REMOVED_METHODS = ["neighbors", "validate", "divergence", "complex_mult", "swapped"]


def test_all_is_the_decided_surface():
    assert sorted(gwfloor.__all__) == sorted(PUBLIC)
    assert len(gwfloor.__all__) == len(set(gwfloor.__all__)) == 29
    for name in gwfloor.__all__:
        assert getattr(gwfloor, name) is not None, name


def test_removed_names_are_gone():
    modules = [gwfloor] + [importlib.import_module(f"gwfloor.{info.name}")
                           for info in pkgutil.iter_modules(gwfloor.__path__)]
    assert len(modules) > 6
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), (module.__name__, name)
    for name in REMOVED_METHODS:
        assert not hasattr(FloorDiagram, name), name


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: site may import typing itself
    src = str(Path(gwfloor.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import gwfloor\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))") % src
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("record,field,bad", [
    (gwfloor.DegreeSpec("p2", (3,)), "params", (0,)),
    (gwfloor.GwMonomial(3, ()), "int_part", 4),
    (gwfloor.TwinTreeSummary((1, 2), ((1, 1),), 1, 0), "m_root", 2),
], ids=["DegreeSpec", "GwMonomial", "TwinTreeSummary"])
def test_replace_is_checked(record, field, bad):
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    with pytest.raises(AttributeError):
        setattr(record, field, bad)
