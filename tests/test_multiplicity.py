import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import gwfloor
import gwfloor.multiplicity as multiplicity
from gwfloor.cli import main
from gwfloor.counting import _signature_tally, default_pairs
from gwfloor.degrees import parse_degree
from gwfloor.gwring import MAX_PARAMS, GwElem, GwMonomial, beta_decompose, beta_elem, equals_mod, \
    h, one
from gwfloor.diagrams import INCOMING, FloorDiagram, PairLabels, label
from gwfloor.multiplicity import TwinTreeSummary, gamma, m_a1, twin_edge_mult, twin_tree_mult

from conftest import clear_count_caches
from kummer import trace_kummer
from oracles import edge_mult


def test_m_a1_examples():
    assert m_a1(1) == one()
    assert m_a1(2) == h()
    assert m_a1(3) == GwElem.symbol(3) + h()


def test_edge_mult_examples():
    assert edge_mult(1) == one()
    assert edge_mult(2) == 2 * h()
    assert edge_mult(3) == one() + 4 * h()


def test_twin_edge_mult_examples():
    assert twin_edge_mult(1, 1) == one()
    d1 = GwElem.symbol(-1, (1,))
    assert twin_edge_mult(2, 1) == 2 * (one() + d1) + 6 * h()
    assert twin_edge_mult(3, 1) == one() + 4 * (one() + d1) + 36 * h()


def test_gamma_examples():
    assert gamma(1, 1) == one()
    expected = one() + GwElem.symbol(2) + GwElem.symbol(-2, (2,)) + 3 * h()
    assert gamma(3, 2) == expected
    assert gamma(2, 1) == 2 * h()


def test_beta_signature():
    b = beta_elem(1)
    assert b.rank() == 2
    assert b.signature({1: -1}) == 0


@pytest.mark.parametrize("s", range(4))
@pytest.mark.parametrize("m", range(1, 13))
def test_m_a1_is_kummer_trace(m, s):
    # the trace of <x> from L[x]/(x^m - d) is <d> m_a1(m), at d = 1 for
    # s = 0 and at d = d_s otherwise
    d = GwMonomial.of(1, (s,) if s else ())
    assert m_a1(m) * GwElem.from_coeffs({d: 1}) == trace_kummer(m, d, "x")


@pytest.mark.parametrize("m", range(1, 13))
def test_edge_mult_is_m_a1_squared(m):
    assert m_a1(m) * m_a1(m) == edge_mult(m)


@pytest.mark.parametrize("m", range(1, 13))
def test_ranks(m):
    assert edge_mult(m).rank() == m * m
    assert gamma(m, 1).rank() == m * m
    assert twin_edge_mult(m, 1).rank() == m ** 4


@pytest.mark.parametrize("m", range(1, 13))
def test_square_substitution_collapses(m):
    # setting d_i square: gamma -> edge mult, twin edge -> edge mult squared
    assert gamma(m, 1).substitute_square(1) == edge_mult(m)
    assert twin_edge_mult(m, 1).substitute_square(1) == \
        edge_mult(m) * edge_mult(m)


def _tree(weights, m_root, unbounded, floor_points=0):
    """Build a summary: one elevator per weight, extra points on floors."""
    t = len(weights) + floor_points
    points = tuple(range(1, t + 1))
    marks = tuple((w, i + 1) for i, w in enumerate(weights))
    return TwinTreeSummary(points, marks, m_root, unbounded)


def test_twin_tree_figures():
    # simplest doubled unbounded elevator
    t1 = _tree([1], m_root=1, unbounded=1)
    assert twin_tree_mult(t1) == one()
    # doubled floor over a root elevator
    t2 = TwinTreeSummary((1, 2), ((1, 2),), 1, 0)
    expected = GwElem.symbol(2, (1,)) + GwElem.symbol(2, (2,))
    assert twin_tree_mult(t2) == expected


def test_twin_tree_weighted_example():
    # seven points, one weight-2 elevator marked q1, six weight-1 elevators,
    # m_root = 2 and one unbounded twin elevator
    weights = [2, 1, 1, 1]
    tree = _tree(weights, m_root=2, unbounded=1, floor_points=3)
    e = twin_tree_mult(tree)
    factor = twin_edge_mult(2, 1)
    subset_sum = GwElem.zero()
    for k in range(1, 8, 2):
        for I in itertools.combinations(range(1, 8), k):
            subset_sum = subset_sum + GwElem.symbol(1, I)
    assert e == factor * GwElem.symbol(2 ** 6) * subset_sum


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
        lhs = twin_tree_mult(tree).substitute_square(j)
        rhs = one()
        for w, _ in tree.elevator_marks:
            rhs = rhs * edge_mult(w) * edge_mult(w)
        for i in tree.point_indices:
            if i != j:
                rhs = rhs * beta_elem(i)
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
    sig = twin_tree_mult(tree).signature({i: -1 for i in range(1, t + 1)})
    prod = 1
    for w in weights:
        prod *= w * w
    sign = 1 if tree.m_circ % 2 == 0 else -1
    assert sig == sign * 2 ** (t - 1) * prod


def test_invalid_weight_rejected():
    with pytest.raises(ValueError):
        m_a1(0)
    with pytest.raises(ValueError):
        edge_mult(0)
    with pytest.raises(IndexError):
        gamma(1, MAX_PARAMS + 1)


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
        "from gwfloor.degrees import DegreeSpec\n"
        "from gwfloor.gwring import GwMonomial\n"
        "from gwfloor.multiplicity import TwinTreeSummary\n"
        "assert False, 'asserts are on'\n"
        "for bad in (lambda: TwinTreeSummary((1, 2), ((1, 1),), 2, 0),\n"
        "            lambda: DegreeSpec('p2', (0,)), lambda: GwMonomial(4, ())):\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError:  # InvalidDegree is one\n"
        "        continue\n"
        "    sys.exit(1)\n"
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
KEY = (SPLICED.leaks, SPLICED.edges)  # as the walk packs it


def test_absorbing_masks():
    # the type-A pair 1 (joined, bit 0b10) absorbs both edges at its black;
    # no label is bit 2
    assert label(KEY, PAIRS, 0b10, ()) == (PairLabels((("free",), ("type_a", 1)), ()),
                                           (1,) * 7, (0b10,) * 2 + (0b100,) * 5)


def test_edge_between_two_labels_raises():
    # walk output that no tree allows: pair (2, 3) as a twin tree of its own
    # absorbs edge (2, 4) too, with a mask other than the type-A pair's
    with pytest.raises(ValueError, match="different labels"):
        label(KEY, PAIRS, 0b10, (0b1,))
    src = str(Path(gwfloor.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, %r); sys.path.insert(0, %r)\n"
        "from test_multiplicity import KEY, PAIRS, label\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    label(KEY, PAIRS, 0b10, (0b1,))\n"
        "except ValueError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    ) % (src, str(Path(__file__).parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_twin_tree_mult_cached_per_tree():
    tree = _tree([2, 1], m_root=2, unbounded=0, floor_points=1)
    assert twin_tree_mult(tree) is twin_tree_mult(_tree([2, 1], 2, 0, 1))


def test_twin_tree_mult_built_once_per_tree(capsys):
    # a twin-tree factor does not depend on s: one per distinct summary
    spec = parse_degree("p1xp1:2,5")
    tallies = [_signature_tally(spec, default_pairs(s)) for s in range(1, 7)]
    clear_count_caches()
    assert main(["table", "p1xp1:2,5"]) == 0
    capsys.readouterr()
    trees = {tree for tally in tallies for (twin_trees, _, _), _ in tally for tree in twin_trees}
    assert twin_tree_mult.cache_info().misses == len(trees) == 6


def test_patched_factor_applied_once(monkeypatch):
    # a factor is a plain formula: a wrapper patched over the module
    # attribute calls the real m_a1 once
    calls = []
    real = multiplicity.m_a1

    def wrapper(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(multiplicity, "m_a1", wrapper)
    real.cache_clear()  # so that the call builds m_a1(5) anew
    assert multiplicity.m_a1(5) == GwElem.symbol(5) + 2 * h()
    assert calls == [5]


@pytest.mark.parametrize("call,error", [
    (lambda: m_a1(0), ValueError),
    (lambda: GwElem.symbol(1, (0,)), ValueError),
    (lambda: GwElem.symbol(1, (MAX_PARAMS + 1,)), ValueError),
    (lambda: gamma(0, 1), ValueError),
    (lambda: gamma(3, 0), IndexError),
    (lambda: gamma(3, MAX_PARAMS + 1), IndexError),
    (lambda: twin_edge_mult(0, 1), ValueError),
    (lambda: twin_edge_mult(3, 0), IndexError),
    (lambda: twin_edge_mult(3, MAX_PARAMS + 1), IndexError),
    (lambda: beta_decompose(one(), MAX_PARAMS + 1), ValueError),
    (lambda: twin_tree_mult(TwinTreeSummary((1, MAX_PARAMS + 1), ((1, MAX_PARAMS + 1),), 1, 0)),
     IndexError),
    (lambda: twin_tree_mult(_tree([0, 1], 1, 0, 1)), ValueError),
])
def test_factor_range_checks_kept(call, error):
    with pytest.raises(error):
        call()
