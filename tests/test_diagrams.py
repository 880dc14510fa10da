import ast
import subprocess
import sys
from pathlib import Path

import pytest

import gwfloor
import gwfloor.counting as counting
import gwfloor.diagrams as diagrams_module
from gwfloor.cli import main
from gwfloor.degrees import n_delta, parse_degree
from gwfloor.diagrams import (
    INCOMING, OUTGOING, FloorDiagram, OverBudget, PairLabels, _partitions, _rank,
    _state_graph, _twin_tree_summary, check_pairs, count_diagrams, enumerate_diagrams, label,
    unpack, walk,
)
from gwfloor.counting import _disjoint_adjacent_pairs, _orbits, default_pairs, merged_classes

import classify as classify_module
from classify import absorbing_masks, classify
from conftest import clear_count_caches
from keying import canonical_key
from oracles import complex_mult, signature, signature_mult, small_degrees, swapped, validate
from test_degrees import FORCED_BUDGETS
from twins import swap_fixing_sets
from wdvv import blowup_count

SMALL_SPECS = ["p2:1", "p2:2", "p2:3", "p1xp1:1,1", "p1xp1:2,2", "p1xp1:2,3",
               "bl1:3,1", "bl2:4,2,2", "bl3:3,1,1,1", "bl3:2,1,1,1"]
# larger degrees of every family, and those whose leak budget forces each floor's leaks
ENUMERATED_SPECS = SMALL_SPECS + ["p2:4", "p1xp1:2,4", "bl2:4,1,1", "bl3:4,1,1,2"] + \
    [spec for spec in FORCED_BUDGETS if spec not in SMALL_SPECS]


class TestEnumeration:
    def test_forced_degrees(self):
        assert len(enumerate_diagrams(parse_degree("p2:1"))) == 1
        assert len(enumerate_diagrams(parse_degree("p2:2"))) == 1

    def test_cubic_complex_count(self):
        diagrams = enumerate_diagrams(parse_degree("p2:3"))
        assert len(diagrams) == 9
        assert sum(complex_mult(d) for d in diagrams) == 12

    @pytest.mark.parametrize("spec_str", ENUMERATED_SPECS)
    def test_invariants_hold(self, spec_str):
        spec = parse_degree(spec_str)
        for diagram in enumerate_diagrams(spec):
            validate(diagram, spec)

    @pytest.mark.parametrize("spec_str", ENUMERATED_SPECS)
    def test_duplicate_free(self, spec_str):
        diagrams = enumerate_diagrams(parse_degree(spec_str))
        assert len(set(diagrams)) == len(diagrams)

    @pytest.mark.parametrize("spec_str", ENUMERATED_SPECS)
    def test_path_count_is_diagram_count(self, spec_str):
        spec = parse_degree(spec_str)
        assert count_diagrams(spec) == len(enumerate_diagrams(spec))

    def test_budget_bounds_the_count(self):
        # within the budget the count is exact; past it the build stops at a
        # state whose paths bound the count from below
        spec = parse_degree("p2:5")
        assert count_diagrams(spec, 25871) == count_diagrams(spec) == 25871
        with pytest.raises(OverBudget, match=r"^p2:5 has at least 1212 floor diagrams$"):
            count_diagrams(spec, 1000)

    def test_partitions_without_recursion(self):
        # largest first, as the floors' moves are listed; the last floor of
        # p1xp1:1,b opens b strands of weight 1, past any recursion limit
        assert list(_partitions(5, 3, 3)) == [(3, 2), (3, 1, 1), (2, 2, 1)]
        assert list(_partitions(5000, 1, 5000)) == [(1,) * 5000]

    @pytest.mark.parametrize("spec_str", ENUMERATED_SPECS)
    def test_state_graph_in_post_order(self, spec_str):
        # the s = 0 row sums the graph in one forward pass over this order
        root, moves, _ = _state_graph(parse_degree(spec_str))
        seen = set()
        for state, kept in moves.items():
            assert all(child in seen for _, child in kept), state
            seen.add(state)
        assert state == root

    @pytest.mark.parametrize("spec_str,kept_moves,distinct", [
        ("p2:5", 617, 153), ("p1xp1:2,5", 559, 219), ("bl3:5,2,1,1", 674, 94),
    ])
    def test_graph_holds_one_object_per_state_and_move(self, spec_str, kept_moves, distinct):
        # the graph costs its distinct states and moves, not one copy per parent
        _, moves, _ = _state_graph(parse_degree(spec_str))
        keys = {id(state) for state in moves}
        kept = [pair for pairs in moves.values() for pair in pairs]
        assert all(id(child) in keys for _, child in kept)
        assert len(kept) == kept_moves
        assert len({id(move) for move, _ in kept}) == len({move for move, _ in kept}) == distinct

    @pytest.mark.parametrize("spec_str", small_degrees(12))
    def test_moves_in_rank_order(self, spec_str):
        # the walk's pruning rests on it, and the build checks it; within a
        # rank the walk orders moves by their closed strands, then by their
        # new weights, largest first, which must be the order they are kept in
        _, moves, _ = _state_graph(parse_degree(spec_str))
        for state, kept in moves.items():
            ranks = [_rank(move) for move, _ in kept]
            assert ranks == sorted(ranks), state
            keys = [(_rank(move), [i for i, _ in move[1]],
                     [-strand[1] for strand, k in zip(child[6], move[2]) if k < 0])
                    for move, child in kept]
            assert all(key < after for key, after in zip(keys, keys[1:])), state

    def test_moves_out_of_rank_order_raise(self, monkeypatch):
        monkeypatch.setattr(diagrams_module, "_rank", lambda move: -_rank(move)[0])
        with pytest.raises(RuntimeError, match=r"^p2:3: the moves of state .* rank order$"):
            diagrams_module._build_graph(parse_degree("p2:3"))  # past the cache

    @pytest.mark.parametrize("spec_str,children,states,paths", [
        ("p1xp1:3,4", 1461, 432, 26422), ("bl3:6,1,1,3", 5449, 1082, 106006),
        ("p2:5", 617, 186, 25871),
    ])
    def test_children_built(self, monkeypatch, spec_str, children, states, paths):
        # no child holds more seek-white strands of one component than there
        # are floors left to close them: 46 and 122 fewer children than
        # without that bound, and the same kept graph
        built = []
        real = diagrams_module._canonical
        monkeypatch.setattr(diagrams_module, "_canonical",
                            lambda strands: built.append(strands) or real(strands))
        _, moves, total = diagrams_module._build_graph(parse_degree(spec_str))  # past the cache
        assert (len(built), len(moves), total) == (children, states, paths)

    @pytest.mark.parametrize("spec_str,expected", [
        ("p2:3", 12), ("p2:4", 620),
        ("bl1:3,1", 12), ("bl1:4,2", 96),
        ("bl2:4,2,2", 12), ("bl2:4,2,1", 96), ("bl2:4,1,1", 620),
        ("bl3:3,1,1,1", 12), ("bl3:4,1,1,2", 96),
    ])
    def test_complex_count_against_wdvv_oracle(self, spec_str, expected):
        spec = parse_degree(spec_str)
        assert blowup_count(spec.family, spec.params) == expected
        total = sum(complex_mult(d) for d in enumerate_diagrams(spec))
        assert total == expected

    @pytest.mark.parametrize("spec_str,expected", [
        ("p1xp1:2,2", 12), ("p1xp1:2,3", 96), ("p1xp1:2,4", 640),
    ])
    def test_complex_count_quadric(self, spec_str, expected):
        spec = parse_degree(spec_str)
        total = sum(complex_mult(d) for d in enumerate_diagrams(spec))
        assert total == expected


def cubic_t2_diagram():
    """Three incoming ends into a bottom floor carrying two parallel
    weight-1 elevators up to two structurally identical floors."""
    return FloorDiagram(
        colors=("b", "b", "b", "w", "b", "b", "w", "w"),
        leaks=(None, None, None, (1,), None, None, (1,), (1,)),
        edges=((0, 3, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1),
               (4, 6, 1), (5, 7, 1)),
        ends=((0, INCOMING), (1, INCOMING), (2, INCOMING)),
    )


def quadric_asymmetric_diagram():
    """One floor with an outgoing end and an elevator to a second floor."""
    return FloorDiagram(
        colors=("b", "b", "w", "b", "b", "w", "b"),
        leaks=(None, None, (), None, None, (), None),
        edges=((0, 2, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1), (4, 5, 1),
               (5, 6, 1)),
        ends=((0, INCOMING), (1, INCOMING), (3, OUTGOING), (6, OUTGOING)),
    )


class TestMerge:
    def test_malformed_pairs_rejected(self):
        d = cubic_t2_diagram()
        with pytest.raises(ValueError):
            check_pairs([(0, 2)], d.n)
        with pytest.raises(ValueError):
            check_pairs([(0, 1), (1, 2)], d.n)

    def test_twin_tree_t2_shape(self):
        d = cubic_t2_diagram()
        validate(d, parse_degree("p2:3"))
        m = classify(d, ((4, 5), (6, 7)))
        trees = m.twin_trees
        assert len(trees) == 1
        tree = trees[0]
        assert tree.t == 2
        assert tree.m_root == 1
        assert tree.unbounded_twin_elevators == 0
        assert tree.m_circ == 1
        assert m.classification == (("twin", 0), ("twin", 0))

    def test_no_double_merges_no_trees(self):
        d = cubic_t2_diagram()
        m = classify(d, ((3, 4),))  # white + adjacent black
        assert m.twin_trees == ()
        assert m.classification == (("type_a", 1),)

    def test_no_pairs_no_work(self, monkeypatch):
        def unused(*args):
            raise AssertionError("pairs looked for without pairs")
        monkeypatch.setattr(classify_module, "_pair_maps", unused)
        monkeypatch.setattr(classify_module, "_twin_trees", unused)
        assert classify(cubic_t2_diagram(), ()) == PairLabels((), ())

    def test_asymmetric_double_elevator_is_free(self):
        d = quadric_asymmetric_diagram()
        validate(d, parse_degree("p1xp1:2,2"))
        m = classify(d, ((3, 4),))  # outgoing-end black with a splice black
        assert m.twin_trees == ()
        assert m.classification == (("free",),)

    def test_simplest_twin_tree(self):
        d = cubic_t2_diagram()
        m = classify(d, ((0, 1),))  # two incoming ends into the same floor
        trees = m.twin_trees
        assert len(trees) == 1
        assert trees[0].t == 1
        assert trees[0].m_circ == 2

    def test_parallel_ends_to_distinct_floors_are_free(self):
        # like the simplest twin but the ends feed different floors
        d = FloorDiagram(
            colors=("b", "b", "b", "w", "b", "w", "b", "w"),
            leaks=(None, None, None, (1,), None, (1,), None, (1,)),
            edges=((0, 3, 1), (1, 5, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1),
                   (5, 6, 1), (6, 7, 1)),
            ends=((0, INCOMING), (1, INCOMING), (2, INCOMING)),
        )
        validate(d, parse_degree("p2:3"))
        m = classify(d, ((0, 1),))
        assert m.twin_trees == ()
        assert m.classification == (("free",),)

    def test_weight_two_twin_elevator(self):
        # two weight-2 elevators leave floor 3 for twin floors 6, 7, each
        # continuing by a weight-1 elevator to twin floors 10, 11
        d = FloorDiagram(
            colors=tuple("bbbwbbwwbbww"),
            leaks=(None, None, None, (-1,), None, None, (1,), (1,),
                   None, None, (1,), (1,)),
            edges=((0, 3, 1), (1, 3, 1), (2, 3, 1), (3, 4, 2), (3, 5, 2),
                   (4, 6, 2), (5, 7, 2), (6, 8, 1), (7, 9, 1), (8, 10, 1),
                   (9, 11, 1)),
            ends=((0, INCOMING), (1, INCOMING), (2, INCOMING)),
        )
        validate(d, parse_degree("bl2:5,1,1"))
        m = classify(d, ((4, 5), (6, 7), (8, 9), (10, 11)))
        (tree,) = m.twin_trees
        assert tree.point_indices == (1, 2, 3, 4)
        assert tree.elevator_marks == ((2, 1), (1, 3))
        assert tree.m_root == 2
        assert tree.unbounded_twin_elevators == 0
        assert m.classification == (("twin", 0),) * 4


class TestTwinTreeSummaries:
    def test_repeated_summary_is_one_object(self):
        first = classify(cubic_t2_diagram(), ((4, 5), (6, 7))).twin_trees[0]
        assert classify(cubic_t2_diagram(), ((4, 5), (6, 7))).twin_trees[0] is first
        trees = [tree for _, m in merged_classes(parse_degree("p2:4"), default_pairs(3))
                 for tree in m.twin_trees]
        assert len({id(tree) for tree in trees}) == len(set(trees)) < len(trees)

    @pytest.mark.parametrize("points,marks,m_root", [
        ((2, 1), ((1, 1),), 1),   # unsorted points
        ((1, 2), ((1, 1),), 2),   # the root weight is no elevator weight
    ])
    def test_invalid_summary_raises(self, points, marks, m_root):
        with pytest.raises(ValueError):
            _twin_tree_summary(points, marks, m_root, 0)

    def test_invalid_summary_raises_under_optimize(self):
        src = str(Path(gwfloor.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, %r)\n"
            "from gwfloor.diagrams import _twin_tree_summary\n"
            "assert False, 'asserts are on'\n"
            "for args in [((2, 1), ((1, 1),), 1, 0), ((1, 2), ((1, 1),), 2, 0)]:\n"
            "    try:\n"
            "        _twin_tree_summary(*args)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    sys.exit(1)\n"
        ) % src
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestClassify:
    def test_weight_three_elevator_type_a(self):
        d = FloorDiagram(
            colors=("b", "b", "b", "w", "b", "w", "b", "b", "b"),
            leaks=(None, None, None, (), None, (), None, None, None),
            edges=((0, 3, 1), (1, 3, 1), (2, 3, 1), (3, 4, 3), (4, 5, 3),
                   (5, 6, 1), (5, 7, 1), (5, 8, 1)),
            ends=((0, INCOMING), (1, INCOMING), (2, INCOMING),
                  (6, OUTGOING), (7, OUTGOING), (8, OUTGOING)),
        )
        validate(d, parse_degree("p1xp1:2,3"))
        m = classify(d, ((4, 5),))
        assert m.classification == (("type_a", 3),)

    def test_non_adjacent_black_is_free(self):
        d = cubic_t2_diagram()
        m = classify(d, ((5, 6),))  # splice black 5 feeds floor 7, merged with 6
        assert m.classification == (("free",),)

    @pytest.mark.parametrize("spec_str", ["p2:4", "bl2:4,1,1"])
    def test_twin_walk_reads_no_ends(self, spec_str):
        # a black with one edge carries the one end, pointing away from the
        # edge, so the labels and twin trees follow from leaks and edges
        spec = parse_degree(spec_str)
        cover = default_pairs(n_delta(spec) // 2)
        for d in enumerate_diagrams(spec):
            assert classify(d, cover) == classify(d._replace(ends=()), cover)


class TestCanonicalKey:
    def test_swap_within_pair_same_key(self):
        d = cubic_t2_diagram()
        # swapping both pairs produces the mirror-labeled diagram
        d2 = FloorDiagram(
            colors=d.colors, leaks=d.leaks,
            edges=((0, 3, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1),
                   (4, 7, 1), (5, 6, 1)),
            ends=d.ends)
        pairs = ((4, 5), (6, 7))
        assert canonical_key(d, pairs) == canonical_key(d2, pairs)

    def test_cubic_classes_distinct(self):
        reps = merged_classes(parse_degree("p2:3"), default_pairs(3))
        keys = [canonical_key(d, default_pairs(3)) for d, _ in reps]
        assert len(set(keys)) == 6

    def test_preimage_collapse(self):
        # 9 cubic diagrams fall into exactly 6 merged classes
        spec = parse_degree("p2:3")
        keys = set()
        for diagram in enumerate_diagrams(spec):
            keys.add(canonical_key(diagram, default_pairs(3)))
        assert len(keys) == 6


def two_covers(spec):
    """The default cover and the one shifted by one: together they reach
    every position."""
    n = n_delta(spec)
    return default_pairs(n // 2), tuple((a + 1, b + 1) for a, b in default_pairs((n - 1) // 2))


def vertex_rank(d: FloorDiagram, p: int) -> tuple:
    """The rank of the move that places position p, read off the diagram:
    floors before blacks, floors by (-1 leaks, +1 leaks, edges below),
    blacks as splice < incoming end < outgoing end."""
    if d.colors[p] == "b":
        return 1, (None, INCOMING, OUTGOING).index(dict(d.ends).get(p))
    return 0, d.leaks[p].count(-1), d.leaks[p].count(1), sum(v == p for _, v, _ in d.edges)


def joined_bits(d: FloorDiagram, pairs) -> int:
    """Bit k per pair (a, a + 1) = pairs[k] that an edge joins."""
    edges = {(u, v) for u, v, _ in d.edges}
    return sum(1 << k for k, pair in enumerate(pairs) if pair in edges)


def sweep_orbits(spec, pairs) -> list:
    """(first diagram, orbit) per orbit of the diagrams under the swaps of
    the pairs that no edge joins, breadth first over `enumerate_diagrams`,
    in sweep order of the first diagrams."""
    diagrams = enumerate_diagrams(spec)
    enumerated = set(diagrams)
    seen, firsts = set(), []
    for d in diagrams:
        if d in seen:
            continue
        orbit, frontier = {d}, [d]
        while frontier:
            e = frontier.pop()
            joined = joined_bits(e, pairs)
            for k, (a, _) in enumerate(pairs):
                image = swapped(e, a)
                valid = not joined >> k & 1
                assert (image in enumerated) == valid, (e, a)
                if valid and image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        firsts.append((d, orbit))
    return firsts


KEYED_SPECS = ["p2:3", "p1xp1:2,2", "p1xp1:2,3", "bl1:4,2", "bl2:4,1,1",
               "bl3:4,1,1,2"]


def _placements():
    """Every placement with s <= 4 on KEYED_SPECS, default pairs beyond."""
    for spec_str in KEYED_SPECS:
        n = n_delta(parse_degree(spec_str))
        for s in range(min(4, n // 2) + 1):
            yield spec_str, s, tuple(_disjoint_adjacent_pairs(n, s))
    for spec_str in ["p2:4", "p1xp1:2,4"]:
        n = n_delta(parse_degree(spec_str))
        for s in range(n // 2 + 1):
            yield spec_str, s, (default_pairs(s),)


class TestMergedClasses:
    @pytest.mark.parametrize("spec_str,s,placements", [
        pytest.param(*p, id=f"{p[0]}-s{p[1]}") for p in _placements()])
    def test_partition_matches_ordering_key(self, spec_str, s, placements):
        # every diagram's key equals the key of exactly one representative
        spec = parse_degree(spec_str)
        diagrams = enumerate_diagrams(spec)
        for pairs in placements:
            reps = merged_classes(spec, pairs)
            rep_keys = [canonical_key(d, pairs) for d, _ in reps]
            assert len(set(rep_keys)) == len(reps), pairs
            keys = {canonical_key(d, pairs) for d in diagrams}
            assert keys == set(rep_keys), pairs
            # the local factors read the twin-tree vertices off the pair labels
            for d, m in reps:
                for t, tree in enumerate(m.twin_trees):
                    labelled = {k + 1 for k, label in enumerate(m.classification)
                                if label == ("twin", t)}
                    assert set(tree.point_indices) == labelled, (pairs, m)
                twins = {frozenset(tree.point_indices) for tree in m.twin_trees}
                assert twins == swap_fixing_sets(d, pairs), (pairs, m)

    def test_representatives_first_seen(self):
        spec = parse_degree("p2:4")
        diagrams = enumerate_diagrams(spec)
        reps = merged_classes(spec, default_pairs(3))
        positions = [diagrams.index(d) for d, _ in reps]
        assert positions == sorted(positions) and positions[0] == 0

    @pytest.mark.parametrize("pairs,message", [
        (((0, 2),), "not an adjacent position pair"),
        (((7, 8),), "not an adjacent position pair"),
        (((0, 1), (1, 2)), "must be disjoint"),
    ])
    def test_malformed_pairs_rejected(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            merged_classes(parse_degree("p2:3"), pairs)

    @pytest.mark.parametrize("pairs,message", [
        ([(0, 2)], "pair 1,3 is not an adjacent position pair of 1..8"),
        ([(3, 2), (1, 2)], "merge pairs 2,3 and 3,4 must be disjoint"),
    ])
    def test_library_names_pairs_one_based(self, pairs, message):
        # as the command line and the verify report name them
        with pytest.raises(ValueError, match=f"^{message}$"):
            counting.count(parse_degree("p2:3"), len(pairs), pairs)

    # p1xp1:3,3 and bl3:5,2,1,1 hold diagrams whose class meets no member
    # under a single swap before them, only under the swaps of two pairs
    @pytest.mark.parametrize("spec_str", ["p2:4", "p1xp1:3,3", "bl3:5,2,1,1"] + small_degrees(9))
    def test_walk_skips_falling_pairs(self, spec_str):
        # under a cover the walk yields exactly the sweep-first diagram of
        # each orbit, which has no unjoined pair whose rank falls at a + 1,
        # flags the joined pairs and counts the orbit
        spec = parse_degree(spec_str)
        for pairs in two_covers(spec):
            firsts = sweep_orbits(spec, pairs)
            assert [(key, ends, joined) for key, ends, joined, _ in walk(spec, pairs)] == [
                ((d.leaks, d.edges), d.ends, joined_bits(d, pairs)) for d, _ in firsts], pairs
            for (key, ends, joined, trees), (d, orbit) in zip(walk(spec, pairs), firsts):
                assert 1 << len(pairs) - joined.bit_count() - len(trees) == len(orbit), (pairs, d)
                # each twin tree the walk finds is a minimal set of pairs whose swap fixes d
                assert {frozenset(k + 1 for k in range(len(pairs)) if mask >> k & 1)
                        for mask in trees} == swap_fixing_sets(d, pairs), (pairs, d)
                assert len(set(trees)) == len(trees)
                assert not any(vertex_rank(d, b) < vertex_rank(d, a)
                               for k, (a, b) in enumerate(pairs) if not joined >> k & 1)

    @pytest.mark.parametrize("spec_str", ["p2:4", "p1xp1:3,3", "bl3:5,2,1,1"])
    def test_images_are_the_orbit(self, spec_str):
        # the orbit pass yields the sweep-first diagram of each orbit under
        # the plain swaps of the pairs, in sweep order, with its orbit size
        spec = parse_degree(spec_str)
        for pairs in two_covers(spec):
            firsts = sweep_orbits(spec, pairs)
            assert [(unpack(key, ends), size, joined)
                    for key, ends, _, size, joined in _orbits(spec, pairs)] == [
                (d, len(orbit), joined_bits(d, pairs)) for d, orbit in firsts], pairs
            assert sum(len(orbit) for _, orbit in firsts) == count_diagrams(spec)

    @pytest.mark.parametrize("spec_str,classes", [("p1xp1:2,5", 405), ("p2:5", 3743)])
    def test_walk_meets_the_classes_alone(self, spec_str, classes):
        # the last row's classes, of 1686 and 25871 diagrams
        spec = parse_degree(spec_str)
        assert sum(1 for _ in walk(spec, default_pairs(n_delta(spec) // 2))) == classes

    @pytest.mark.parametrize("spec_str", ["p2:5", "p1xp1:2,5", "bl2:5,1,1"])
    def test_packed_keys_distinct(self, spec_str):
        # (leaks, edges) determines the colours and the ends too
        diagrams = enumerate_diagrams(parse_degree(spec_str))
        assert len({(d.leaks, d.edges) for d in diagrams}) == len(diagrams)

    def test_rows_count_without_building_swaps(self, monkeypatch, capsys):
        specs = [parse_degree(spec_str) for spec_str in ["p2:4", "p1xp1:2,4"]]
        rows = [(spec, s) for spec in specs for s in range(n_delta(spec) // 2 + 1)]
        expected = [counting.count(spec, s) for spec, s in rows]
        assert main(["enumerate", "p2:4", "--pairs-count", "3"]) == 0
        listing = capsys.readouterr().out

        # the package has no swap builder; the images come from packed keys
        assert not hasattr(FloorDiagram, "swapped")
        clear_count_caches()
        assert [counting.count(spec, s) for spec, s in rows] == expected
        assert main(["enumerate", "p2:4", "--pairs-count", "3"]) == 0
        assert capsys.readouterr().out == listing

    def test_swap_is_an_involution(self):
        d = cubic_t2_diagram()
        assert swapped(swapped(d, 4), 4) == d
        assert swapped(d, 4) != d


class TestWalkLabels:
    """The labels and absorbing masks that `label` builds from what the walk
    finds, against those of the branch walk over the built diagram
    (tests/classify.py), which reads no mirror set."""

    @pytest.mark.parametrize("spec_str", small_degrees(10) + ["p1xp1:2,5"])
    def test_labels_match_the_oracle(self, spec_str):
        spec = parse_degree(spec_str)
        for pairs in two_covers(spec):
            for key, ends, joined, trees in walk(spec, pairs):
                d = unpack(key, ends)
                labels = classify(d, pairs)
                assert joined == joined_bits(d, pairs), (pairs, d)
                assert label(key, pairs, joined, trees) == \
                    (labels, *absorbing_masks(d, pairs, *labels)), (pairs, d)

    def test_no_pairs(self):
        key, ends, joined, trees = next(walk(parse_degree("p2:3")))
        # with no pairs, no label absorbs an edge: every mask is bit 0
        assert label(key, (), joined, trees) == \
            (PairLabels((), ()), tuple(sorted(w for _, _, w in key[1])), (1,) * 7)


class TestValidateRaises:
    def test_wrong_degree(self):
        with pytest.raises(ValueError, match="positions"):
            validate(cubic_t2_diagram(), parse_degree("p1xp1:2,2"))

    def test_broken_elevator(self):
        d = cubic_t2_diagram()
        bad = FloorDiagram(d.colors, d.leaks,
                           d.edges[:-1] + ((5, 7, 2),), d.ends)
        with pytest.raises(ValueError):
            validate(bad, parse_degree("p2:3"))

    def test_swapped_type_a_pair(self):
        # the floor would sit below the black that feeds it
        with pytest.raises(ValueError, match="unbalanced"):
            validate(swapped(cubic_t2_diagram(), 2), parse_degree("p2:3"))

    def test_no_asserts_in_package(self):
        # checks must hold under python -O, which strips assert statements
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(gwfloor.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_merged_record_has_no_defaults(self):
        # label builds both fields, so no half-built labels can exist
        assert PairLabels._fields == ("classification", "twin_trees")
        assert PairLabels._field_defaults == {}
        with pytest.raises(TypeError):
            PairLabels(())


class TestClassSoundness:
    @pytest.mark.parametrize("spec_str", ["p2:3", "p1xp1:2,2", "bl3:3,1,1,1",
                                          "p1xp1:2,3", "bl2:4,2,1"])
    def test_rank_preserved_by_merging(self, spec_str):
        spec = parse_degree(spec_str)
        diagrams = enumerate_diagrams(spec)
        complex_total = sum(complex_mult(d) for d in diagrams)
        for s in range(n_delta(spec) // 2 + 1):
            pairs = default_pairs(s)
            total_rank = sum(signature_mult(signature(d, pairs, *m)).rank()
                             for d, m in merged_classes(spec, pairs))
            assert total_rank == complex_total
