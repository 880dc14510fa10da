import gc
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gwfloor.counting as counting
import gwfloor.diagrams as diagrams_module
import gwfloor.multiplicity as multiplicity
from gwfloor.cli import main
from gwfloor.counting import (
    OrbitWeightError, _disjoint_adjacent_pairs, _signature_tally, count, default_pairs,
    kontsevich, merged_classes, verify_merge_invariance, verify_rank_and_signatures,
    verify_square_substitution,
)
from gwfloor.degrees import n_delta, parse_degree
from gwfloor.diagrams import INCOMING, FloorDiagram, PairLabels, check_pairs, enumerate_diagrams, \
    walk
from gwfloor.gwring import BetaForm, GwElem, equals_mod, h, one
from gwfloor.multiplicity import m_a1, row_mult
from gwfloor.tables import FULL_PLACEMENTS, ISOMORPHIC_SPECS, KNOWN_COMPLEX, KNOWN_COUNTS, \
    KNOWN_WELSCHINGER, QUICK_SPECS

from classify import absorbing_masks, classify
from conftest import COUNT_CACHES, clear_count_caches
from keying import canonical_key
from oracles import beta_form_from_signatures, signature, signature_mult, small_degrees, \
    validate, witt_compare
from test_cli import CLASSIFY_MUTANTS
from test_diagrams import ENUMERATED_SPECS
from wdvv import blowup_count


class TestKontsevich:
    def test_small_values(self):
        assert kontsevich(1) == 1
        assert kontsevich(2) == 1
        assert kontsevich(3) == 12
        assert kontsevich(4) == 620
        assert kontsevich(5) == 87304

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            kontsevich(0)


class TestCount:
    def test_one_line(self):
        res = count(parse_degree("p2:1"), 0)
        assert res.total == one()
        assert res.class_count == 1

    def test_cubic_three_pairs(self):
        res = count(parse_degree("p2:3"), 3)
        assert (res.beta_form.h_coeff, res.beta_form.beta_coeffs,
                res.beta_form.one_coeff) == (2, (1, 0, 0), 2)
        assert res.class_count == 6
        assert res.rank == 12

    def test_quadric_row(self):
        res = count(parse_degree("p1xp1:2,3"), 4)
        assert (res.beta_form.h_coeff, res.beta_form.beta_coeffs,
                res.beta_form.one_coeff) == (24, (2, 1, 0, 0), 8)

    def test_bl3_row(self):
        res = count(parse_degree("bl3:3,1,1,1"), 2)
        assert (res.beta_form.h_coeff, res.beta_form.beta_coeffs,
                res.beta_form.one_coeff) == (2, (1, 0), 4)

    def test_beta_form_expands_to_total(self):
        res = count(parse_degree("p2:3"), 2)
        assert equals_mod(res.beta_form.expand(), res.total)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            count(parse_degree("p2:3"), 5)

    @pytest.mark.parametrize("spec_str", ["p2:4", "p1xp1:2,4"])
    def test_per_signature_sum_is_per_class_sum(self, spec_str):
        spec = parse_degree(spec_str)
        for s in range(n_delta(spec) // 2 + 1):
            pairs = default_pairs(s)
            per_class = GwElem.zero()
            for d, labels in merged_classes(spec, pairs):
                per_class = per_class + signature_mult(signature(d, pairs, *labels))
            assert count(spec, s).total == per_class, s

    def test_signatures_fewer_than_classes(self):
        # row_mult sums 58 signatures for this row's 98 classes: 10 distinct
        # edge-weight products, summed into 50 label parts
        reps = merged_classes(parse_degree("p2:4"), default_pairs(5))
        sigs = {signature(d, default_pairs(5), *labels) for d, labels in reps}
        assert (len(reps), len(sigs)) == (98, 58)
        assert len({(trees, labels) for trees, labels, _ in sigs}) == 50
        assert len({weights for _, _, weights in sigs}) == 10


class TestPatchedFactors:
    """`row_mult` and the s = 0 path read each local factor by its name in
    `multiplicity` at call time and keep none past the call: a patched
    factor reaches every row that uses it, as the per-signature oracle
    says."""

    @staticmethod
    def plus_one(real):
        return lambda *args: real(*args) + one()

    @pytest.mark.parametrize("name,label", [
        ("m_a1", None), ("gamma", "type_a"), ("twin_tree_mult", "twin"), ("beta_elem", "free"),
    ])
    def test_rows_with_pairs(self, name, label, monkeypatch):
        spec = parse_degree("p2:4")
        tallies = [_signature_tally(spec, default_pairs(s)) for s in range(1, 6)]
        before = [row_mult(tally) for tally in tallies]
        monkeypatch.setattr(multiplicity, name, self.plus_one(getattr(multiplicity, name)))
        clear_count_caches()
        try:
            changed = 0
            for s, tally in enumerate(tallies, start=1):
                patched = row_mult(tally)
                oracle = GwElem.zero()
                for sig, k in tally:
                    oracle = oracle + k * signature_mult(sig)
                assert patched == oracle, (name, s)
                uses = label is None or any(c[0] == label for (_, labels, _), _ in tally
                                            for c in labels)
                assert (patched != before[s - 1]) == uses, (name, s)
                changed += uses
            assert changed
        finally:
            clear_count_caches()

    def test_row_without_pairs(self, monkeypatch):
        spec = parse_degree("p2:4")
        clear_count_caches()
        before = count(spec, 0).total
        monkeypatch.setattr(multiplicity, "m_a1", self.plus_one(multiplicity.m_a1))
        try:
            patched = counting._edge_product_sum(spec)
            oracle = GwElem.zero()
            for d in enumerate_diagrams(spec):
                oracle = oracle + signature_mult(((), (), [w for _, _, w in d.edges]))
            assert patched == oracle != before
        finally:
            clear_count_caches()


class TestOrbitWeights:
    """Each row summed over all diagrams, not over class representatives.

    The swaps of the v(D) pairs of D that no edge joins form a group
    (Z/2)^v acting on the diagrams, and the swap sets that fix D are the
    unions of its T(D) twin trees, so D's class has 2^(v - T) diagrams.
    Weighting each diagram by 2^(s - v + T) therefore counts every class
    2^s times.  No orbit pass, class or row cache is used.
    """

    @pytest.mark.parametrize("spec_str", ["p2:4", "p1xp1:2,4", "bl3:4,1,1,2"])
    def test_rows(self, spec_str):
        spec = parse_degree(spec_str)
        diagrams = enumerate_diagrams(spec)
        for s in range(1, n_delta(spec) // 2 + 1):
            pairs = default_pairs(s)
            total, weight_sum = GwElem.zero(), 0
            for d in diagrams:
                joined = {(u, v) for u, v, _ in d.edges}
                labels = classify(d, pairs)
                v = sum(pair not in joined for pair in pairs)
                w = 2 ** (s - v + len(labels.twin_trees))
                total = total + w * signature_mult(signature(d, pairs, *labels))
                weight_sum += w
            res = count(spec, s)
            assert total == 2 ** s * res.total, s
            assert weight_sum == 2 ** s * res.class_count, s


class TestRowCache:
    """count() caches each cover's row tallies, never its records."""

    def test_no_merged_records_outlive_count(self):
        def live_records():
            gc.collect()
            return sum(isinstance(o, PairLabels) for o in gc.get_objects())

        spec = parse_degree("p2:4")
        clear_count_caches()
        before = live_records()
        for s in range(n_delta(spec) // 2 + 1):
            count(spec, s)
        # the cover's memo holds its distinct labels, each once with the
        # masks of its twin trees, and its distinct profiles, each with its
        # number of diagrams: no class, no diagram and no row's labels;
        # every row is summed from them when it is read
        entries, profiles = counting._cover_profiles(spec, default_pairs(n_delta(spec) // 2))
        assert counting._cover_profiles.cache_info().currsize == 1
        assert live_records() <= before
        assert len(set(entries)) == len(entries)
        for classification, trees, masks in entries:
            assert type(classification) is tuple and len(masks) == len(trees)
        assert sum(k for _, k in profiles) == len(enumerate_diagrams(spec))
        assert len(set(profile for profile, _ in profiles)) == len(profiles)
        for (e, weights, masks, joined), k in profiles:
            assert 0 <= e < len(entries) and type(joined) is int and k > 0
            assert len(weights) == len(masks) and all(type(mask) is int for mask in masks)

    def test_table_classifies_each_class_once(self, monkeypatch, capsys):
        # each class of the full default placement is labelled once per
        # degree, from the walk: 405 calls for 1686 diagrams, and no
        # diagram is built
        spec = parse_degree("p1xp1:2,5")
        assert n_delta(spec) // 2 == 6
        assert len(enumerate_diagrams(spec)) == 1686
        classified = Counter()
        real = diagrams_module.label

        def counted(key, pairs, joined, trees):
            classified[pairs] += 1
            return real(key, pairs, joined, trees)

        def unbuilt(*args):
            raise AssertionError("a diagram built on the count path")

        monkeypatch.setattr(diagrams_module, "label", counted)
        monkeypatch.setattr(diagrams_module, "FloorDiagram", unbuilt)
        clear_count_caches()
        try:
            assert main(["table", "p1xp1:2,5", "--format", "json"]) == 0
        finally:
            clear_count_caches()
        capsys.readouterr()
        assert classified == {default_pairs(6): 405}

    def test_repeated_row_hits_the_tally(self):
        # verify repeats rows, with default and with explicit pairs: a
        # repeated row is read from the row cache without its cover, and
        # every default row of a degree reads the one default cover
        spec = parse_degree("p2:4")
        clear_count_caches()
        count(spec, 2)
        rows, covers = counting._row.cache_info(), counting._cover_profiles.cache_info()
        count(spec, 2, [(2, 3), (0, 1)])
        rows_again = counting._row.cache_info()
        assert (rows_again.hits, rows_again.misses) == (rows.hits + 1, rows.misses)
        assert counting._cover_profiles.cache_info() == covers
        count(spec, 4)
        again = counting._cover_profiles.cache_info()
        assert (again.hits, again.misses) == (covers.hits + 1, covers.misses)

    def test_verify_computes_each_row_once(self, monkeypatch):
        # the report and the d_s := 1 chain read the same rows: each row is
        # decomposed once, and the s = 0 path sum is summed once
        calls = Counter()

        def counted(name):
            real = getattr(counting, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in ("beta_decompose", "_edge_product_sum"):
            monkeypatch.setattr(counting, name, counted(name))
        spec = parse_degree("p2:4")
        clear_count_caches()
        verify_rank_and_signatures(spec)
        for s in range(1, n_delta(spec) // 2 + 1):
            assert verify_square_substitution(spec, s)
        assert calls == {"beta_decompose": 6, "_edge_product_sum": 1}

    def test_every_factor_cache_is_cleared(self):
        # a cache of a label or local-factor result left out of
        # COUNT_CACHES would hide a patched mutant; these hold neither, or
        # are leaf factors whose patch replaces the cached function itself
        factor_free = {"kontsevich", "m_a1", "gamma"}
        cached = {name for module in (counting, multiplicity)
                  for name, obj in vars(module).items()
                  if hasattr(obj, "cache_clear")
                  and getattr(obj, "__module__", None) == module.__name__}
        assert cached == {cache.__name__ for cache in COUNT_CACHES} | factor_free

    def test_pairs_checked_per_row_not_per_class(self, monkeypatch):
        # the diagrams are classified under the row's checked cover, and
        # no diagram checks it again
        calls = []

        def counted(*args):
            calls.append(args)
            return check_pairs(*args)

        monkeypatch.setattr(counting, "check_pairs", counted)
        monkeypatch.setattr("gwfloor.diagrams.check_pairs", counted)
        spec = parse_degree("p2:4")
        per_row, classes = [], []
        for s in range(1, n_delta(spec) // 2 + 1):
            clear_count_caches()
            calls.clear()
            classes.append(count(spec, s).class_count)
            per_row.append(len(calls))
        assert len(set(classes)) == len(classes)
        assert set(per_row) == {0}  # resolve_pairs builds the default rows
        clear_count_caches()
        calls.clear()
        count(spec, 2, [(2, 3), (5, 6)])
        assert len(calls) == 1  # the one in resolve_pairs


class TestCoverRestriction:
    """A row's tally, taken from its cover's profiles, is the tally that
    classifying each diagram under the row's own pairs gives."""

    @staticmethod
    def direct_tally(spec, pairs):
        # each diagram classified under the row's pairs, weighted 2^(T + j)
        # with j read from the edges, and each sum divided by 2^s
        s, sums = len(pairs), Counter()
        for d in enumerate_diagrams(spec):
            row = classify(d, pairs)
            j = sum((u, v) in pairs for u, v, _ in d.edges)
            sums[signature(d, pairs, *row)] += \
                2 ** (len(row.twin_trees) + j)
        assert all(weight % 2 ** s == 0 for weight in sums.values()), pairs
        return tuple((sig, weight // 2 ** s) for sig, weight in sums.items())

    def assert_tallied_directly(self, spec, pairs):
        assert counting._signature_tally(spec, pairs) == self.direct_tally(spec, pairs), pairs

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("spec_str", ["p2:4", "p1xp1:2,5", "bl2:4,1,1", "bl3:5,2,1,1"])
    def test_default_rows(self, spec_str, descending):
        # the first row counted builds every row of the default cover
        spec = parse_degree(spec_str)
        rows = range(1, n_delta(spec) // 2 + 1)
        clear_count_caches()
        for s in reversed(rows) if descending else rows:
            self.assert_tallied_directly(spec, default_pairs(s))

    def test_every_placement(self):
        spec = parse_degree("p2:3")
        clear_count_caches()
        for s in range(1, n_delta(spec) // 2 + 1):
            for pairs in _disjoint_adjacent_pairs(n_delta(spec), s):
                self.assert_tallied_directly(spec, pairs)

    def test_every_placement_of_a_blowup(self):
        # 55 rows of n = 9, with s = 0, read from 9 covers
        spec = parse_degree("bl2:4,1,1")
        clear_count_caches()
        rows = [pairs for s in range(n_delta(spec) // 2 + 1)
                for pairs in _disjoint_adjacent_pairs(n_delta(spec), s)]
        assert len(rows) == 55
        for pairs in rows:
            self.assert_tallied_directly(spec, pairs)
        assert counting._cover_profiles.cache_info().misses == 9

    def test_kept_trees_are_renumbered(self):
        # tree 0 reaches pair 7 and tree 1 is pair 2 alone, so at s = 2 only
        # tree 1 is kept, as tree 0, and pair 1 of the dropped tree is free;
        # every subset of the cover is a row, with its points renumbered
        d = FloorDiagram(
            ("b",) * 5 + ("w", "b", "b", "w", "w", "b", "b", "w", "w"),
            (None,) * 5 + ((1,), None, None, (1,), (1,), None, None, (1,), (1,)),
            ((0, 8, 1), (1, 9, 1), (2, 5, 1), (3, 5, 1), (4, 5, 1), (5, 6, 1), (5, 7, 1),
             (6, 8, 1), (7, 9, 1), (8, 10, 1), (9, 11, 1), (10, 12, 1), (11, 13, 1)),
            tuple((i, INCOMING) for i in range(5)))
        validate(d, parse_degree("p2:5"))
        cover_pairs = default_pairs(7)
        cover = classify(d, cover_pairs)
        assert [tree.point_indices for tree in cover.twin_trees] == [(1, 4, 5, 6, 7), (2,)]
        masks = (0b1111001, 0b10)  # bit i - 1 per point i of each tree
        weights, edge_masks = absorbing_masks(d, cover_pairs, *cover)
        assert weights == tuple(sorted(w for _, _, w in d.edges))
        for k in range(1, 8):
            for pairs in itertools.combinations(cover_pairs, k):
                picked = [cover_pairs.index(pair) for pair in pairs]
                row = sum(1 << i for i in picked)
                labels = classify(d, pairs)
                assert counting._restrict((*cover, masks), row, picked) == labels, pairs
                # the edges a row keeps are those whose masks it does not hold
                assert signature(d, pairs, *labels)[2] == \
                    tuple(w for w, mask in zip(weights, edge_masks) if mask & row != mask)
        assert classify(d, default_pairs(2)).classification == (("free",), ("twin", 0))
        assert classify(d, ((2, 3), (8, 9))).twin_trees[0].point_indices == (1,)

    @pytest.mark.parametrize("n", [8, 9, 12])
    def test_cover_is_the_leftmost_extension(self, n):
        assert counting._extension(default_pairs(2), n) == default_pairs(n // 2)
        shifted = tuple((a + 1, b + 1) for a, b in default_pairs((n - 1) // 2))
        assert counting._extension(((1, 2), (5, 6)), n) == shifted
        # a mixed row: the gaps are filled from the left
        assert counting._extension(((0, 1), (3, 4)), n) == ((0, 1),) + shifted[1:]
        for s in range(n // 2 + 1):
            for pairs in _disjoint_adjacent_pairs(n, s):
                cover = counting._extension(pairs, n)
                assert check_pairs(cover, n) == cover and set(pairs) <= set(cover)
                free = set(range(n)).difference(*cover)
                assert all(a + 1 not in free for a in free), (pairs, cover)  # maximal

    def test_placements_share_covers(self):
        # one orbit pass per distinct cover: the default rows and every
        # placement with s <= 2 read 7 covers of p2:3 and 5 of p1xp1:2,2,
        # where a pass per placement made 21 and 15; the full placement
        # lies in the default cover
        for spec_str, passes in [("p2:3", 7), ("p1xp1:2,2", 5)]:
            spec = parse_degree(spec_str)
            n = n_delta(spec)
            clear_count_caches()
            for s in range(1, n // 2 + 1):
                count(spec, s)
            for s in (1, 2):
                for pairs in _disjoint_adjacent_pairs(n, s):
                    count(spec, s, list(pairs))
            assert counting._cover_profiles.cache_info().misses == passes, spec_str
        (spec_str, pairs), = FULL_PLACEMENTS
        spec = parse_degree(spec_str)
        clear_count_caches()
        for s in range(1, n_delta(spec) // 2 + 1):
            count(spec, s)
        assert counting._cover_profiles.cache_info().misses == 1
        count(spec, len(pairs), list(pairs))
        assert counting._cover_profiles.cache_info().misses == 1
        clear_count_caches()

    def test_placement_after_default_rows_has_its_own_cover(self):
        spec = parse_degree("p2:4")
        clear_count_caches()
        for s in range(1, n_delta(spec) // 2 + 1):
            count(spec, s)
        self.assert_tallied_directly(spec, ((1, 2), (3, 4)))


class TestRowErrors:
    """A row whose orbit weights are not whole classes raises its own
    error, whichever row of its cover was counted first."""

    @pytest.mark.parametrize("first", [1, 4])
    def test_error_names_its_row(self, monkeypatch, first):
        attr, make = CLASSIFY_MUTANTS["no_twin_trees"]
        monkeypatch.setattr(diagrams_module, attr, make(getattr(diagrams_module, attr)))
        spec = parse_degree("p2:3")
        clear_count_caches()
        try:
            with pytest.raises(OrbitWeightError):
                count(spec, first)
            errors = {}
            for s in (1, 2, 1):
                with pytest.raises(OrbitWeightError) as raised:
                    count(spec, s)
                errors.setdefault(s, str(raised.value))
                assert str(raised.value) == errors[s]
        finally:
            clear_count_caches()
        assert errors == {
            1: "p2:3 with pairs 1,2: the orbit weights of a signature sum to 1, "
               "not a multiple of 2^1",
            2: "p2:3 with pairs 1,2;3,4: the orbit weights of a signature sum to 2, "
               "not a multiple of 2^2"}


class TestUnmetImage:
    """A class that the walk leaves out leaves the class sizes short of the
    number of diagrams: the orbit pass raises, also under python -O, and
    `count` exits 3."""

    SPEC = "p2:3"
    COVER = default_pairs(4)  # the cover of every default row of p2:3
    MISSING = 1  # the index of a class of two diagrams in the walk under the cover

    def test_orbit_pass_raises(self, monkeypatch, capsys):
        spec = parse_degree(self.SPEC)
        monkeypatch.setattr(counting, "walk", lambda spec, pairs: (
            met for j, met in enumerate(walk(spec, pairs)) if j != self.MISSING))
        clear_count_caches()
        try:
            for run in (lambda: merged_classes(spec, self.COVER), lambda: count(spec, 1)):
                with pytest.raises(OrbitWeightError, match=f"^{self.SPEC} with pairs "):
                    run()
            assert main(["count", self.SPEC, "--pairs-count", "1"]) == 3
        finally:
            clear_count_caches()
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {self.SPEC} with pairs 1,2;3,4;5,6;7,8: the classes met hold " \
                      "7 of the 9 diagrams\n"

    def test_raises_under_optimize(self):
        # the invariant is a real raise, so -O keeps it
        script = ("import sys\n"
                  "import gwfloor.counting as counting\n"
                  "from gwfloor.cli import main\n"
                  "real, i = counting.walk, int(sys.argv[1])\n"
                  "counting.walk = lambda spec, pairs: (\n"
                  "    met for j, met in enumerate(real(spec, pairs)) if j != i)\n"
                  f"sys.exit(main(['count', '{self.SPEC}', '--pairs-count', '1']))\n")
        src = str(Path(counting.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(self.MISSING)],
            capture_output=True, encoding="utf-8", env={**os.environ, "PYTHONPATH": src},
            timeout=120)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: {self.SPEC} with pairs 1,2;3,4;5,6;7,8: the classes " \
                              "met hold 7 of the 9 diagrams\n"


class TestMissedTree:
    """A twin tree missed by the walk makes its class too large, so the
    class sizes overshoot the number of diagrams; one missed by the labels
    alone leaves the class size right and the orbit weights not whole.
    Both are real raises, so python -O keeps them, and `count` exits 3."""

    SCRIPT = ("import sys\n"
              "import gwfloor.counting as counting\n"
              "import gwfloor.diagrams as diagrams\n"
              "from gwfloor.cli import main\n"
              "real, label = counting.walk, diagrams.label\n"
              "def walk(spec, pairs):\n"
              "    dropped = False\n"
              "    for key, ends, joined, trees in real(spec, pairs):\n"
              "        if trees and not dropped:  # the first tree met\n"
              "            dropped, trees = True, trees[1:]\n"
              "        yield key, ends, joined, trees\n"
              "if sys.argv[1] == 'walk':\n"
              "    counting.walk = walk\n"
              "else:\n"
              "    diagrams.label = lambda key, pairs, joined, trees: \\\n"
              "        label(key, pairs, joined, ())\n"
              "sys.exit(main(['count', 'p2:3', '--pairs-count', '1']))\n")

    @pytest.mark.parametrize("missed_by,error", [
        ("walk", "p2:3 with pairs 1,2;3,4;5,6;7,8: the classes met hold 10 of the 9 diagrams"),
        ("label", "p2:3 with pairs 1,2: the orbit weights of a signature sum to 1, "
                  "not a multiple of 2^1"),
    ])
    def test_raises_under_optimize(self, missed_by, error):
        src = str(Path(counting.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT, missed_by],
            capture_output=True, encoding="utf-8", env={**os.environ, "PYTHONPATH": src},
            timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {error}\n")


class TestCrossPath:
    """Each row's orbit-weight tally against the classes that the 2^s
    ordering key finds, each labelled through its first diagram: the key
    shares no code with the orbit pass."""

    @staticmethod
    def assert_tallies_agree(spec, pairs):
        firsts: dict = {}
        for d in enumerate_diagrams(spec):
            firsts.setdefault(canonical_key(d, pairs), d)
        classes = Counter(signature(d, pairs, *classify(d, pairs)) for d in firsts.values())
        assert counting._signature_tally(spec, pairs) == tuple(classes.items()), pairs

    @pytest.mark.parametrize("spec_str", QUICK_SPECS)
    def test_default_rows(self, spec_str):
        spec = parse_degree(spec_str)
        for s in range(1, n_delta(spec) // 2 + 1):
            self.assert_tallies_agree(spec, default_pairs(s))

    def test_every_placement(self):
        spec = parse_degree("p2:3")
        for s in range(1, n_delta(spec) // 2 + 1):
            for pairs in _disjoint_adjacent_pairs(n_delta(spec), s):
                self.assert_tallies_agree(spec, pairs)

    def test_full_placement(self):
        (spec_str, pairs), = FULL_PLACEMENTS
        self.assert_tallies_agree(parse_degree(spec_str), pairs)

    def test_rows_with_pairs_find_no_class(self, monkeypatch):
        spec = parse_degree("p1xp1:2,4")
        rows = [(s, None) for s in range(1, n_delta(spec) // 2 + 1)] + [(2, [(1, 2), (4, 5)])]
        clear_count_caches()
        expected = [count(spec, s, pairs) for s, pairs in rows]

        def refuse(*args):
            raise AssertionError("a class listed for a count")

        monkeypatch.setattr(counting, "merged_classes", refuse)
        clear_count_caches()
        assert [count(spec, s, pairs) for s, pairs in rows] == expected


class TestBranchCensus:
    """Every branch of the local factors is reached by the classes verify counts."""

    def test_quick_rows(self):
        labels, m_circ, heavy = Counter(), Counter(), 0
        for spec_str in QUICK_SPECS:
            spec = parse_degree(spec_str)
            for s in range(1, n_delta(spec) // 2 + 1):
                for _, m in merged_classes(spec, default_pairs(s)):
                    for label in m.classification:
                        labels[label[0]] += 1
                        if label[0] == "type_a":
                            labels["type_a_" + ("odd" if label[1] % 2 else "even")] += 1
                    for tree in m.twin_trees:
                        m_circ["odd" if tree.m_circ % 2 else "even"] += 1
                        heavy += any(w >= 2 for w, _ in tree.elevator_marks)
        assert labels == {"type_a": 1748, "type_a_odd": 1575, "type_a_even": 173,
                          "free": 684, "twin": 657}
        assert m_circ == {"even": 637, "odd": 8}
        assert heavy == 0  # hence the placement below

    def test_full_placement_reaches_a_heavy_twin_elevator(self):
        (spec_str, pairs), = FULL_PLACEMENTS
        weights = {w for _, m in merged_classes(parse_degree(spec_str), pairs)
                   for tree in m.twin_trees for w, _ in tree.elevator_marks}
        assert max(weights) >= 2


class TestRowWithoutPairs:
    """The s = 0 row is a path sum over the sweep-state graph; here it is
    summed diagram by diagram instead, each diagram weighted by m_a1 of
    each of its edges."""

    @pytest.mark.parametrize("spec_str", ENUMERATED_SPECS + ["p2:5"])
    def test_sum_over_diagrams(self, spec_str):
        spec = parse_degree(spec_str)
        diagrams = enumerate_diagrams(spec)
        expected = GwElem.zero()
        for weights, k in Counter(tuple(sorted(w for _, _, w in d.edges))
                                  for d in diagrams).items():
            product = one()
            for w in weights:
                product = product * m_a1(w)
            expected = expected + k * product
        res = count(spec, 0)
        assert res.total == expected
        assert res.class_count == len(diagrams)

    def test_septics_without_diagrams(self, monkeypatch):
        # p2:7 has 1413862091 floor diagrams: no enumeration could finish
        def refuse(*args):
            raise AssertionError("diagrams built for an s = 0 row")

        monkeypatch.setattr(counting, "walk", refuse)
        monkeypatch.setattr(counting, "merged_classes", refuse)
        clear_count_caches()  # so that the row is computed under the refusal
        try:
            res = count(parse_degree("p2:7"), 0)
        finally:
            clear_count_caches()
        assert res.rank == kontsevich(7) == 14616808192
        assert res.class_count == 1413862091

    def test_sextic_welschinger_invariant(self):
        # the all-positive and all-negative signatures agree at s = 0
        res = count(parse_degree("p2:6"), 0)
        assert res.signature_all_positive == KNOWN_WELSCHINGER["p2:6"] == 2845440
        assert res.signature_all_negative == res.signature_all_positive

    @pytest.mark.parametrize("spec_str,expected", [
        ("bl1:6,2", 6506400), ("bl2:6,2,1", 6506400), ("bl3:6,2,2,1", 1558272),
    ])
    def test_blowup_ranks_past_the_tables(self, spec_str, expected):
        spec = parse_degree(spec_str)
        assert count(spec, 0).rank == blowup_count(spec.family, spec.params) == expected


class TestRankOracles:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_p2_rank_is_kontsevich_for_every_s(self, d):
        spec = parse_degree(f"p2:{d}")
        for s in range(n_delta(spec) // 2 + 1):
            assert count(spec, s).rank == kontsevich(d)

    @pytest.mark.parametrize("spec_str", ["bl1:3,1", "bl1:4,2", "bl2:4,2,2",
                                          "bl2:4,2,1", "bl2:4,1,1",
                                          "bl3:3,1,1,1", "bl3:4,1,1,2"])
    def test_blowup_ranks_match_wdvv(self, spec_str):
        spec = parse_degree(spec_str)
        expected = blowup_count(spec.family, spec.params)
        for s in range(n_delta(spec) // 2 + 1):
            assert count(spec, s).rank == expected

    @pytest.mark.parametrize("spec_str,expected", [
        ("p1xp1:1,1", 1), ("p1xp1:2,2", 12), ("p1xp1:2,3", 96),
    ])
    def test_quadric_ranks(self, spec_str, expected):
        spec = parse_degree(spec_str)
        for s in range(n_delta(spec) // 2 + 1):
            assert count(spec, s).rank == expected

    @pytest.mark.parametrize("spec_str", small_degrees(12))
    def test_every_small_degree_matches_wdvv(self, spec_str):
        # a path has rank prod w >= 1, so a sweep that dropped a path with a
        # completion would lower the rank; WDVV shares no code with the sweep
        spec = parse_degree(spec_str)
        family, params = spec.family, spec.params
        if family == "p1xp1":
            # Bl1(P^1 x P^1) = Bl2(P^2) sends bidegree (a, b) to (a + b; a, b)
            family, params = "bl2", (sum(params), max(params), min(params))
        assert count(spec, 0).rank == blowup_count(family, params)


class TestSquareSubstitution:
    @pytest.mark.parametrize("spec_str", ["p2:3", "p1xp1:2,3", "bl1:4,2",
                                          "bl2:4,2,1", "bl3:3,1,1,1",
                                          "bl3:4,1,1,2"])
    def test_chain(self, spec_str):
        spec = parse_degree(spec_str)
        for s in range(n_delta(spec) // 2 + 1):
            assert verify_square_substitution(spec, s)

    def test_vacuous_at_zero(self):
        assert verify_square_substitution(parse_degree("p2:2"), 0)


class TestMergeInvariance:
    def test_cubic_single_pair_all_positions(self):
        assert verify_merge_invariance(parse_degree("p2:3"), 1)

    def test_cubic_triples(self):
        assert verify_merge_invariance(parse_degree("p2:3"), 3)

    def test_quadric(self):
        for s in range(n_delta(parse_degree("p1xp1:2,2")) // 2 + 1):
            assert verify_merge_invariance(parse_degree("p1xp1:2,2"), s)

    @pytest.mark.parametrize("n", range(13))
    def test_every_placement_once_in_order(self, n):
        # valid, distinct, sorted and C(n - s, s) of them: all of them
        for s in range(n // 2 + 1):
            placements = list(_disjoint_adjacent_pairs(n, s))
            assert placements == sorted(set(placements))
            assert len(placements) == math.comb(n - s, s)
            assert all(check_pairs(pairs, n) == pairs and len(pairs) == s
                       for pairs in placements)


class TestReports:
    def test_p2_4_report(self):
        report = verify_rank_and_signatures(parse_degree("p2:4"))
        assert report["rank_constant"] and report["rank"] == 620
        assert report["signature_constant"]
        assert report["rows"][0]["sig_pos"] == 240
        assert report["welschinger_sequence"] == [240, 144, 80, 40, 16, 0]
        assert report["shustin_matches_one_coeff"]
        assert report["rank_matches_kontsevich"]

    @pytest.mark.parametrize("spec_str", ["p1xp1:2,3", "bl1:4,2", "bl3:4,1,1,2"])
    def test_constancy_small_blocks(self, spec_str):
        report = verify_rank_and_signatures(parse_degree(spec_str))
        assert report["rank_constant"]
        assert report["signature_constant"]
        assert report["shustin_matches_one_coeff"]


class TestIsomorphicSurfaces:
    """Degrees on isomorphic surfaces count the same curves, so the engine's
    β-forms agree row by row for s <= min(n)/2 (`tables.ISOMORPHIC_SPECS`
    gives the identities); verify --scope full checks the same groups."""

    @pytest.mark.parametrize("specs", ISOMORPHIC_SPECS, ids=lambda specs: "=".join(specs))
    def test_beta_forms_agree(self, specs):
        degrees = [parse_degree(spec) for spec in specs]
        for s in range(min(n_delta(spec) for spec in degrees) // 2 + 1):
            forms = [count(spec, s).beta_form for spec in degrees]
            assert forms == [forms[0]] * len(forms), (specs, s)


class TestWittComparison:
    def test_p2_vs_quadric_quartics(self):
        s1, s2 = parse_degree("p2:4"), parse_degree("p1xp1:2,4")
        for s in range(6):
            r1, r2 = count(s1, s), count(s2, s)
            assert r1.beta_form.beta_coeffs == r2.beta_form.beta_coeffs
            diff = witt_compare(s1, s2, s)
            mult = r1.beta_form.one_coeff - r2.beta_form.one_coeff
            assert mult == -16
            assert equals_mod(diff, mult * one())

    def test_cubic_vs_quadric(self):
        s1, s2 = parse_degree("p2:3"), parse_degree("p1xp1:2,2")
        for s in range(4):
            r1, r2 = count(s1, s), count(s2, s)
            assert r1.beta_form.beta_coeffs == r2.beta_form.beta_coeffs

    def test_self_difference_zero(self):
        spec = parse_degree("p2:3")
        assert witt_compare(spec, spec, 2).is_zero()


class TestAgainstPublishedRows:
    # Whole-block reproductions live in the acceptance suite; spot rows here.
    @pytest.mark.parametrize("spec_str,s", [
        ("p2:3", 0), ("p2:3", 4), ("p1xp1:2,2", 3), ("bl1:3,1", 2),
        ("bl2:4,2,2", 1), ("bl3:4,1,1,2", 3),
    ])
    def test_row(self, spec_str, s):
        hc, betas, c0 = KNOWN_COUNTS[spec_str][s]
        form = count(parse_degree(spec_str), s).beta_form
        assert (form.h_coeff, form.beta_coeffs, form.one_coeff) == (hc, betas, c0)


class TestReferenceTables:
    """The reference rows themselves, checked without running the engine."""

    @staticmethod
    def oracle_rank(spec_str):
        spec = parse_degree(spec_str)
        if spec.family == "p1xp1":
            return {"p1xp1:2,2": 12, **KNOWN_COMPLEX}[spec_str]
        return blowup_count(spec.family, spec.params)

    @pytest.mark.parametrize("spec_str", list(KNOWN_COUNTS))
    def test_row_ranks_match_oracle(self, spec_str):
        expected = self.oracle_rank(spec_str)
        for s, row in KNOWN_COUNTS[spec_str].items():
            assert BetaForm(*row).expand().rank() == expected, (spec_str, s)

    @pytest.mark.parametrize("spec_str", list(KNOWN_COUNTS))
    def test_all_positive_signature_constant(self, spec_str):
        sigs = {BetaForm(*row).expand().signature({i: 1 for i in range(1, s + 1)})
                for s, row in KNOWN_COUNTS[spec_str].items()}
        assert len(sigs) == 1, sigs

    # Isomorphic classes: an exceptional class of multiplicity 1 is one
    # more rational point, and Bl2(P^2) = Bl1(P^1 x P^1) sends
    # (a + b; a, b) to bidegree (a, b).  Rows agree wherever both exist.
    @pytest.mark.parametrize("spec_str,same_as", [
        ("bl2:4,1,1", "p2:4"), ("bl1:3,1", "p2:3"), ("bl3:3,1,1,1", "p2:3"),
        ("bl2:4,2,1", "bl1:4,2"), ("bl3:4,1,1,2", "bl1:4,2"),
        ("bl2:4,2,2", "p1xp1:2,2"),
    ])
    def test_isomorphic_blocks_agree(self, spec_str, same_as):
        rows, other = KNOWN_COUNTS[spec_str], KNOWN_COUNTS[same_as]
        for s in rows.keys() & other.keys():
            assert rows[s] == other[s], (spec_str, same_as, s)


class TestBetaFormFromSignatures:
    """A row's beta form from its rank and the Welschinger numbers W(d, j),
    the all-negative signatures of rows j = 0..s, alone: a decomposition
    that shares no code with `beta_decompose`."""

    @pytest.mark.parametrize("spec_str", list(KNOWN_COUNTS))
    def test_reference_rows(self, spec_str):
        rows = KNOWN_COUNTS[spec_str]
        rank = TestReferenceTables.oracle_rank(spec_str)
        welschinger = [rows[j][2] for j in range(len(rows))]  # sig_neg = c_0
        for s, row in rows.items():
            assert beta_form_from_signatures(rank, welschinger[:s + 1]) == row, (spec_str, s)

    @pytest.mark.parametrize("spec_str", QUICK_SPECS + ["p2:4"])
    def test_engine_rows(self, spec_str):
        spec = parse_degree(spec_str)
        results = [count(spec, s) for s in range(n_delta(spec) // 2 + 1)]
        welschinger = [res.signature_all_negative for res in results]
        for res in results:
            form = res.beta_form
            assert beta_form_from_signatures(res.rank, welschinger[:res.s + 1]) == \
                (form.h_coeff, form.beta_coeffs, form.one_coeff), (spec_str, res.s)
