import pytest

from gwfloor.degrees import n_delta, parse_degree
from gwfloor.diagrams import (
    INCOMING, OUTGOING, FloorDiagram, MergedFloorDiagram, classify,
    detect_twin_trees, enumerate_diagrams, merge,
)
from gwfloor.counting import _disjoint_adjacent_pairs, default_pairs, merged_classes

from keying import canonical_key
from wdvv import blowup_count

SMALL_SPECS = ["p2:1", "p2:2", "p2:3", "p1xp1:1,1", "p1xp1:2,2", "p1xp1:2,3",
               "bl1:3,1", "bl2:4,2,2", "bl3:3,1,1,1", "bl3:2,1,1,1"]


class TestEnumeration:
    def test_forced_degrees(self):
        assert len(enumerate_diagrams(parse_degree("p2:1"))) == 1
        assert len(enumerate_diagrams(parse_degree("p2:2"))) == 1

    def test_cubic_complex_count(self):
        diagrams = enumerate_diagrams(parse_degree("p2:3"))
        assert len(diagrams) == 9
        assert sum(d.complex_mult() for d in diagrams) == 12

    @pytest.mark.parametrize("spec_str", SMALL_SPECS)
    def test_invariants_hold(self, spec_str):
        spec = parse_degree(spec_str)
        for diagram in enumerate_diagrams(spec):
            diagram.validate(spec)

    @pytest.mark.parametrize("spec_str", SMALL_SPECS)
    def test_duplicate_free(self, spec_str):
        diagrams = enumerate_diagrams(parse_degree(spec_str))
        assert len(set(diagrams)) == len(diagrams)

    @pytest.mark.parametrize("spec_str,expected", [
        ("p2:3", 12), ("p2:4", 620),
        ("bl1:3,1", 12), ("bl1:4,2", 96),
        ("bl2:4,2,2", 12), ("bl2:4,2,1", 96), ("bl2:4,1,1", 620),
        ("bl3:3,1,1,1", 12), ("bl3:4,1,1,2", 96),
    ])
    def test_complex_count_against_wdvv_oracle(self, spec_str, expected):
        spec = parse_degree(spec_str)
        assert blowup_count(spec.family, spec.params) == expected
        total = sum(d.complex_mult() for d in enumerate_diagrams(spec))
        assert total == expected

    @pytest.mark.parametrize("spec_str,expected", [
        ("p1xp1:2,2", 12), ("p1xp1:2,3", 96), ("p1xp1:2,4", 640),
    ])
    def test_complex_count_quadric(self, spec_str, expected):
        spec = parse_degree(spec_str)
        total = sum(d.complex_mult() for d in enumerate_diagrams(spec))
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
            merge(d, [(0, 2)])
        with pytest.raises(ValueError):
            merge(d, [(0, 1), (1, 2)])

    def test_twin_tree_t2_shape(self):
        d = cubic_t2_diagram()
        d.validate(parse_degree("p2:3"))
        m = merge(d, [(4, 5), (6, 7)])
        trees = detect_twin_trees(m)
        assert len(trees) == 1
        tree = trees[0]
        assert tree.t == 2
        assert tree.m_root == 1
        assert tree.unbounded_twin_elevators == 0
        assert tree.m_circ == 1
        assert m.classification == (("twin", 0), ("twin", 0))

    def test_no_double_merges_no_trees(self):
        d = cubic_t2_diagram()
        m = merge(d, [(3, 4)])  # white + adjacent black
        assert detect_twin_trees(m) == []
        assert m.classification == (("type_a", 1),)

    def test_asymmetric_double_elevator_is_free(self):
        d = quadric_asymmetric_diagram()
        d.validate(parse_degree("p1xp1:2,2"))
        m = merge(d, [(3, 4)])  # outgoing-end black with a splice black
        assert detect_twin_trees(m) == []
        assert m.classification == (("free",),)

    def test_simplest_twin_tree(self):
        d = cubic_t2_diagram()
        m = merge(d, [(0, 1)])  # two incoming ends into the same floor
        trees = detect_twin_trees(m)
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
        d.validate(parse_degree("p2:3"))
        m = merge(d, [(0, 1)])
        assert detect_twin_trees(m) == []
        assert m.classification == (("free",),)


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
        d.validate(parse_degree("p1xp1:2,3"))
        m = merge(d, [(4, 5)])
        assert m.classification == (("type_a", 3),)

    def test_non_adjacent_black_is_free(self):
        d = cubic_t2_diagram()
        m = merge(d, [(2, 3)])  # incoming black not attached to this floor?
        # position 2 feeds floor 3, so this IS adjacent; use (5, 6) instead:
        m = merge(d, [(5, 6)])  # splice black 5 feeds floor 7, merged with 6
        assert m.classification == (("free",),)


class TestCanonicalKey:
    def test_swap_within_pair_same_key(self):
        d = cubic_t2_diagram()
        m = merge(d, [(4, 5), (6, 7)])
        # swapping both pairs produces the mirror-labeled diagram
        d2 = FloorDiagram(
            colors=d.colors, leaks=d.leaks,
            edges=((0, 3, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1),
                   (4, 7, 1), (5, 6, 1)),
            ends=d.ends)
        m2 = merge(d2, [(4, 5), (6, 7)])
        assert canonical_key(m) == canonical_key(m2)

    def test_cubic_classes_distinct(self):
        reps = merged_classes(parse_degree("p2:3"), default_pairs(3))
        keys = [canonical_key(m) for m in reps]
        assert len(set(keys)) == 6

    def test_preimage_collapse(self):
        # 9 cubic diagrams fall into exactly 6 merged classes
        spec = parse_degree("p2:3")
        keys = set()
        for diagram in enumerate_diagrams(spec):
            keys.add(canonical_key(merge(diagram, list(default_pairs(3)))))
        assert len(keys) == 6


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
            rep_keys = [canonical_key(m) for m in reps]
            assert len(set(rep_keys)) == len(reps), pairs
            keys = {canonical_key(MergedFloorDiagram(d, pairs)) for d in diagrams}
            assert keys == set(rep_keys), pairs

    def test_representatives_first_seen(self):
        spec = parse_degree("p2:4")
        diagrams = enumerate_diagrams(spec)
        reps = merged_classes(spec, default_pairs(3))
        positions = [diagrams.index(m.base) for m in reps]
        assert positions == sorted(positions) and positions[0] == 0

    @pytest.mark.parametrize("pairs,message", [
        (((0, 2),), "not an adjacent position pair"),
        (((7, 8),), "not an adjacent position pair"),
        (((0, 1), (1, 2)), "must be disjoint"),
    ])
    def test_malformed_pairs_rejected(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            merged_classes(parse_degree("p2:3"), pairs)

    def test_swap_is_an_involution(self):
        d = cubic_t2_diagram()
        assert d.swapped(4).swapped(4) == d
        assert d.swapped(4) != d


class TestValidateRaises:
    def test_wrong_degree(self):
        with pytest.raises(ValueError, match="positions"):
            cubic_t2_diagram().validate(parse_degree("p1xp1:2,2"))

    def test_broken_elevator(self):
        d = cubic_t2_diagram()
        bad = FloorDiagram(d.colors, d.leaks,
                           d.edges[:-1] + ((5, 7, 2),), d.ends)
        with pytest.raises(ValueError):
            bad.validate(parse_degree("p2:3"))

    def test_swapped_type_a_pair(self):
        # the floor would sit below the black that feeds it
        with pytest.raises(ValueError, match="unbalanced"):
            cubic_t2_diagram().swapped(2).validate(parse_degree("p2:3"))


class TestClassSoundness:
    @pytest.mark.parametrize("spec_str", ["p2:3", "p1xp1:2,2", "bl3:3,1,1,1",
                                          "p1xp1:2,3", "bl2:4,2,1"])
    def test_rank_preserved_by_merging(self, spec_str):
        from gwfloor.multiplicity import diagram_mult
        spec = parse_degree(spec_str)
        diagrams = enumerate_diagrams(spec)
        complex_total = sum(d.complex_mult() for d in diagrams)
        for s in range(n_delta(spec) // 2 + 1):
            reps = merged_classes(spec, default_pairs(s))
            total_rank = sum(diagram_mult(m, s).rank() for m in reps)
            assert total_rank == complex_total
