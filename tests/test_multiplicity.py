import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import gwfloor
from gwfloor.gwring import GwElem, GwMonomial, beta_elem, equals_mod, h, one
from gwfloor.diagrams import INCOMING, FloorDiagram
from gwfloor.multiplicity import TwinTreeSummary, absorbing_masks, gamma, m_a1, twin_edge_mult, \
    twin_tree_mult

from kummer import trace_kummer
from oracles import edge_mult

S = 6  # ambient parameter count used throughout


def test_m_a1_examples():
    assert m_a1(1, 0) == one()
    assert m_a1(2, 0) == h()
    assert m_a1(3, 0) == GwElem.symbol(3) + h()


def test_edge_mult_examples():
    assert edge_mult(1) == one()
    assert edge_mult(2) == 2 * h()
    assert edge_mult(3) == one() + 4 * h()


def test_twin_edge_mult_examples():
    assert twin_edge_mult(1, 1, S) == one(S)
    d1 = GwElem.symbol(-1, (1,), S)
    assert twin_edge_mult(2, 1, S) == 2 * (one(S) + d1) + 6 * h(S)
    assert twin_edge_mult(3, 1, S) == one(S) + 4 * (one(S) + d1) + 36 * h(S)


def test_gamma_examples():
    assert gamma(1, 1, S) == one(S)
    expected = one(S) + GwElem.symbol(2, (), S) + GwElem.symbol(-2, (2,), S) + 3 * h(S)
    assert gamma(3, 2, S) == expected
    assert gamma(2, 1, S) == 2 * h(S)


def test_beta_signature():
    b = beta_elem(1, S)
    assert b.rank() == 2
    assert b.signature({i: -1 for i in range(1, S + 1)}) == 0


@pytest.mark.parametrize("s", range(4))
@pytest.mark.parametrize("m", range(1, 13))
def test_m_a1_is_kummer_trace(m, s):
    assert m_a1(m, s) == trace_kummer(m, GwMonomial.of(1), "x", s)


@pytest.mark.parametrize("m", range(1, 13))
def test_edge_mult_is_m_a1_squared(m):
    assert m_a1(m, 0) * m_a1(m, 0) == edge_mult(m)


@pytest.mark.parametrize("m", range(1, 13))
def test_ranks(m):
    assert edge_mult(m).rank() == m * m
    assert gamma(m, 1, S).rank() == m * m
    assert twin_edge_mult(m, 1, S).rank() == m ** 4


@pytest.mark.parametrize("m", range(1, 13))
def test_square_substitution_collapses(m):
    # setting d_i square: gamma -> edge mult, twin edge -> edge mult squared
    assert gamma(m, 1, S).substitute_square(1) == edge_mult(m, S)
    assert twin_edge_mult(m, 1, S).substitute_square(1) == \
        edge_mult(m, S) * edge_mult(m, S)


def _tree(weights, m_root, unbounded, floor_points=0):
    """Build a summary: one elevator per weight, extra points on floors."""
    t = len(weights) + floor_points
    points = tuple(range(1, t + 1))
    marks = tuple((w, i + 1) for i, w in enumerate(weights))
    return TwinTreeSummary(points, marks, m_root, unbounded)


def test_twin_tree_figures():
    # simplest doubled unbounded elevator
    t1 = _tree([1], m_root=1, unbounded=1)
    assert twin_tree_mult(t1, S) == one(S)
    # doubled floor over a root elevator
    t2 = TwinTreeSummary((1, 2), ((1, 2),), 1, 0)
    expected = GwElem.symbol(2, (1,), S) + GwElem.symbol(2, (2,), S)
    assert twin_tree_mult(t2, S) == expected


def test_twin_tree_weighted_example():
    # seven points, one weight-2 elevator marked q1, six weight-1 elevators,
    # m_root = 2 and one unbounded twin elevator
    weights = [2, 1, 1, 1]
    tree = _tree(weights, m_root=2, unbounded=1, floor_points=3)
    e = twin_tree_mult(tree, 7)
    factor = twin_edge_mult(2, 1, 7)
    subset_sum = GwElem.zero(7)
    for k in range(1, 8, 2):
        for I in itertools.combinations(range(1, 8), k):
            subset_sum = subset_sum + GwElem.symbol(1, I, 7)
    assert e == factor * GwElem.symbol(2 ** 6, (), 7) * subset_sum


@pytest.mark.parametrize("weights,m_root,unbounded,floors", [
    ([1], 1, 1, 0),
    ([1], 1, 0, 1),
    ([2, 2], 2, 0, 1),
    ([3], 3, 0, 1),
    ([1, 1, 2], 1, 1, 1),
    ([2, 1, 3], 2, 0, 2),
])
def test_twin_tree_square_substitution(weights, m_root, unbounded, floors):
    # substituting any tree point collapses to edge multiplicities times
    # the betas of the remaining tree points
    tree = _tree(weights, m_root, unbounded, floors)
    t = tree.t
    for j in tree.point_indices:
        lhs = twin_tree_mult(tree, t).substitute_square(j)
        rhs = one(t)
        for w, _ in tree.elevator_marks:
            rhs = rhs * edge_mult(w, t) * edge_mult(w, t)
        for i in tree.point_indices:
            if i != j:
                rhs = rhs * beta_elem(i, t)
        assert equals_mod(lhs, rhs)


@pytest.mark.parametrize("weights,m_root,unbounded,floors", [
    ([1], 1, 1, 0),
    ([1], 1, 0, 1),
    ([2, 2], 2, 0, 1),
    ([1, 1], 1, 1, 1),
    ([3, 2], 3, 0, 1),
])
def test_twin_tree_signature_rule(weights, m_root, unbounded, floors):
    tree = _tree(weights, m_root, unbounded, floors)
    t = tree.t
    sig = twin_tree_mult(tree, t).signature({i: -1 for i in range(1, t + 1)})
    prod = 1
    for w in weights:
        prod *= w * w
    sign = 1 if tree.m_circ % 2 == 0 else -1
    assert sig == sign * 2 ** (t - 1) * prod


def test_invalid_weight_rejected():
    with pytest.raises(ValueError):
        m_a1(0, 0)
    with pytest.raises(ValueError):
        edge_mult(0)
    with pytest.raises(IndexError):
        gamma(1, 7, S)


@pytest.mark.parametrize("points,marks,m_root", [
    ((), (), 1),
    ((2, 1), ((1, 1),), 1),
    ((1, 2), ((1, 1), (2, 1)), 1),
    ((1,), ((1, 2),), 1),
    ((1, 2), ((1, 1),), 2),
])
def test_twin_tree_summary_checks_raise(points, marks, m_root):
    with pytest.raises(ValueError):
        TwinTreeSummary(points, marks, m_root, 0)


def test_twin_tree_summary_checks_survive_optimize():
    src = str(Path(gwfloor.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from gwfloor.multiplicity import TwinTreeSummary\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    TwinTreeSummary((1, 2), ((1, 1),), 2, 0)\n"
        "except ValueError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    ) % src
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# a p2:3 diagram: black 4 splices floors 2 and 5, so pair (4, 5) is type A
SPLICED = FloorDiagram(
    ("b", "b", "w", "b", "b", "w", "b", "w"),
    (None, None, (1,), None, None, (1,), None, (1,)),
    ((0, 2, 1), (1, 2, 1), (2, 4, 1), (3, 5, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1)),
    ((0, INCOMING), (1, INCOMING), (3, INCOMING)))
PAIRS = ((2, 3), (4, 5))


def test_absorbing_masks():
    # the type-A pair 1 absorbs both edges at its black; no label is bit 2
    labels = ((("free",), ("type_a", 1)), ())
    assert absorbing_masks(SPLICED, PAIRS, *labels) == ((1,) * 7, (0b10,) * 2 + (0b100,) * 5)


def test_edge_between_two_labels_raises():
    # hand-built labels that no tree allows: pair (2, 3) on a twin tree
    # absorbs edge (2, 4) too, with a mask other than the type-A pair's
    labels = ((("twin", 0), ("type_a", 1)), (TwinTreeSummary((1,), ((1, 1),), 1, 0),))
    with pytest.raises(ValueError, match="different labels"):
        absorbing_masks(SPLICED, PAIRS, *labels)
    src = str(Path(gwfloor.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, %r); sys.path.insert(0, %r)\n"
        "from test_multiplicity import PAIRS, SPLICED, TwinTreeSummary, absorbing_masks\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    absorbing_masks(SPLICED, PAIRS, (('twin', 0), ('type_a', 1)),\n"
        "                    (TwinTreeSummary((1,), ((1, 1),), 1, 0),))\n"
        "except ValueError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    ) % (src, str(Path(__file__).parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_twin_tree_mult_cached_per_tree_and_s():
    tree = _tree([2, 1], m_root=2, unbounded=0, floor_points=1)
    assert twin_tree_mult(tree, S) is twin_tree_mult(_tree([2, 1], 2, 0, 1), S)
    assert twin_tree_mult(tree, S + 1).num_params == S + 1
