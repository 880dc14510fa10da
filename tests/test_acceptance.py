"""Acceptance suite: one test per criterion, each printing a PASS line
with its wall-clock time (pytest reports failures itself).

Criterion 4 includes the Bl2(4,1,1) block, whose published h-coefficient
(160) is irreproducible: the faithful computation, a WDVV oracle, and the
blow-down bijection to plane quartics all give 190.  The reference table
holds the corrected block and keeps the printed value in
PUBLISHED_ERRATA; for such a block the test also checks the correction
against the WDVV oracle and that the printed rows contradict it.  See the
Erratum section of the README.  Every criterion passes.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from gwfloor.counting import (
    count, default_pairs, kontsevich, merged_classes, verify_merge_invariance,
    verify_square_substitution, witt_compare,
)
from gwfloor.degrees import n_delta, parse_degree
from gwfloor.gwring import (
    BetaForm, GwElem, GwMonomial, beta_decompose, beta_elem, equals_mod, h, one,
)
from gwfloor.multiplicity import (
    TwinTreeSummary, diagram_mult, edge_mult, gamma, m_a1,
    twin_edge_mult, twin_tree_mult,
)
from gwfloor.tables import KNOWN_COUNTS, PUBLISHED_ERRATA

from wdvv import blowup_count


@contextmanager
def criterion(number, budget_seconds, label):
    t0 = time.monotonic()
    yield
    dt = time.monotonic() - t0
    assert dt < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"
    print(f"ACCEPTANCE criterion {number:2d} PASS ({dt:6.2f}s)  {label}")


def block_rows(spec_str):
    spec = parse_degree(spec_str)
    rows = {}
    for s, expected in KNOWN_COUNTS[spec_str].items():
        form = count(spec, s).beta_form
        rows[s] = (form.h_coeff, form.beta_coeffs, form.one_coeff)
    return rows


ROW_FIELDS = ("h_coeff", "beta_coeffs", "one_coeff")


def assert_erratum_holds(spec_str):
    """The corrected rows meet the WDVV rank; the printed ones differ from
    them only in the recorded fields and miss it."""
    spec = parse_degree(spec_str)
    oracle = blowup_count(spec.family, spec.params)
    printed_fields = PUBLISHED_ERRATA[spec_str]
    for s, row in KNOWN_COUNTS[spec_str].items():
        printed = tuple(printed_fields.get(f, v) for f, v in zip(ROW_FIELDS, row))
        differing = [f for f, a, b in zip(ROW_FIELDS, row, printed) if a != b]
        assert differing == list(printed_fields), (spec_str, s)
        assert BetaForm(*row).expand(s).rank() == oracle, (spec_str, s)
        assert BetaForm(*printed).expand(s).rank() != oracle, (spec_str, s)


def test_criterion_01_table1_cubic_classes():
    with criterion(1, 1.0, "cubic merged classes and multiplicities"):
        spec = parse_degree("p2:3")
        reps = merged_classes(spec, default_pairs(3))
        assert len(reps) == 6
        mults = [diagram_mult(m, 3) for m in reps]
        expected = [beta_elem(1, 3), beta_elem(2, 3), beta_elem(3, 3),
                    one(3), one(3), 2 * h(3)]
        remaining = list(mults)
        for e in expected:
            assert e in remaining
            remaining.remove(e)
        assert not remaining
        total = GwElem.zero(3)
        for e in mults:
            total = total + e
        assert total == 2 * h(3) + beta_elem(1, 3) + beta_elem(2, 3) + \
            beta_elem(3, 3) + 2 * one(3)
        assert total.rank() == 12
        assert total.signature({1: 1, 2: 1, 3: 1}) == 8
        assert total.signature({1: -1, 2: -1, 3: -1}) == 2


def test_criterion_02_table2_plane_curves():
    with criterion(2, 90.0, "plane cubic and quartic blocks"):
        for spec_str in ("p2:3", "p2:4"):
            assert block_rows(spec_str) == KNOWN_COUNTS[spec_str], spec_str


def test_criterion_03_table3_quadric():
    with criterion(3, 600.0, "quadric bidegree blocks and complex counts"):
        for spec_str in ("p1xp1:2,2", "p1xp1:2,3", "p1xp1:2,4", "p1xp1:2,5"):
            assert block_rows(spec_str) == KNOWN_COUNTS[spec_str], spec_str
        assert count(parse_degree("p1xp1:2,3"), 0).rank == 96
        assert count(parse_degree("p1xp1:2,4"), 0).rank == 640
        assert count(parse_degree("p1xp1:2,5"), 0).rank == 3840


@pytest.mark.parametrize("spec_str", [
    "bl1:3,1", "bl1:4,2", "bl2:4,2,2", "bl2:4,2,1",
    pytest.param("bl2:4,1,1", id="bl2:4,1,1-published-block-irreproducible"),
    "bl3:3,1,1,1", "bl3:4,1,1,2",
])
def test_criterion_04_tables_4_to_6_blowups(spec_str):
    with criterion(4, 60.0, f"blowup block {spec_str}"):
        assert block_rows(spec_str) == KNOWN_COUNTS[spec_str], spec_str
        if spec_str in PUBLISHED_ERRATA:
            assert_erratum_holds(spec_str)


def test_criterion_05_kontsevich_rank_oracle():
    with criterion(5, 90.0, "plane ranks equal the recursion values"):
        for d, expected in [(1, 1), (2, 1), (3, 12), (4, 620)]:
            assert kontsevich(d) == expected
            spec = parse_degree(f"p2:{d}")
            for s in range(n_delta(spec) // 2 + 1):
                assert count(spec, s).rank == expected


def test_criterion_06_signature_constancy():
    with criterion(6, 300.0, "all-positive signature independent of s"):
        for spec_str in KNOWN_COUNTS:
            spec = parse_degree(spec_str)
            sigs = {count(spec, s).signature_all_positive
                    for s in range(n_delta(spec) // 2 + 1)}
            assert len(sigs) == 1, spec_str
        spec = parse_degree("p2:4")
        for s in range(6):
            assert count(spec, s).signature_all_positive == 240


def test_criterion_07_shustin_specialization():
    with criterion(7, 300.0, "all-negative signature equals the <1> coefficient"):
        for spec_str in KNOWN_COUNTS:
            spec = parse_degree(spec_str)
            for s in range(n_delta(spec) // 2 + 1):
                res = count(spec, s)
                assert res.signature_all_negative == res.beta_form.one_coeff
        seq = [count(parse_degree("p2:4"), s).signature_all_negative
               for s in range(6)]
        assert seq == [240, 144, 80, 40, 16, 0]


def test_criterion_08_square_substitution_chain():
    with criterion(8, 300.0, "d_s := 1 lowers s by one in every block"):
        for spec_str in KNOWN_COUNTS:
            spec = parse_degree(spec_str)
            for s in range(1, n_delta(spec) // 2 + 1):
                assert verify_square_substitution(spec, s), (spec_str, s)


def test_criterion_09_merge_position_invariance():
    with criterion(9, 30.0, "count independent of merged pair positions"):
        for spec_str in ("p2:3", "p1xp1:2,2"):
            spec = parse_degree(spec_str)
            for s in range(n_delta(spec) // 2 + 1):
                assert verify_merge_invariance(spec, s), (spec_str, s)


def test_criterion_10_witt_comparison():
    with criterion(10, 120.0, "quartic plane vs quadric agree in the Witt ring"):
        s1, s2 = parse_degree("p2:4"), parse_degree("p1xp1:2,4")
        for s in range(6):
            r1, r2 = count(s1, s), count(s2, s)
            assert r1.beta_form.beta_coeffs == r2.beta_form.beta_coeffs
            diff = witt_compare(s1, s2, s)
            mult = r1.beta_form.one_coeff - r2.beta_form.one_coeff
            assert equals_mod(diff, mult * one(s))


def test_criterion_11_formula_layer_properties():
    with criterion(11, 5.0, "local multiplicity identities"):
        for m in range(1, 13):
            assert m_a1(m) * m_a1(m) == edge_mult(m)
            assert edge_mult(m).rank() == m * m
            assert gamma(m, 1, 1).rank() == m * m
            assert twin_edge_mult(m, 1, 1).rank() == m ** 4
            assert gamma(m, 1, 1).substitute_square(1) == edge_mult(m, 1)
            assert twin_edge_mult(m, 1, 1).substitute_square(1) == \
                edge_mult(m, 1) * edge_mult(m, 1)
        shapes = [([1], 1, 1, 0), ([1], 1, 0, 1), ([2, 2], 2, 0, 1),
                  ([3], 3, 0, 1), ([1, 1, 2], 1, 1, 1), ([2, 1, 3], 2, 0, 2)]
        for weights, m_root, unbounded, floors in shapes:
            t = len(weights) + floors
            tree = TwinTreeSummary(
                tuple(range(1, t + 1)),
                tuple((w, i + 1) for i, w in enumerate(weights)),
                m_root, unbounded)
            e = twin_tree_mult(tree, t)
            for j in tree.point_indices:
                rhs = one(t)
                for w, _ in tree.elevator_marks:
                    rhs = rhs * edge_mult(w, t) * edge_mult(w, t)
                for i in tree.point_indices:
                    if i != j:
                        rhs = rhs * beta_elem(i, t)
                assert equals_mod(e.substitute_square(j), rhs)
            sig = e.signature({i: -1 for i in range(1, t + 1)})
            prod = 1
            for w in weights:
                prod *= w * w
            assert sig == (1 if tree.m_circ % 2 == 0 else -1) * 2 ** (t - 1) * prod


def test_criterion_12_gw_ring_properties():
    with criterion(12, 5.0, "ring identities and decomposition round-trip"):
        for q, ds in [(1, ()), (2, ()), (3, (1,)), (5, (2,)), (6, (1, 2))]:
            assert GwElem.symbol(q, ds, 2) * h(2) == h(2)
        for q in (1, 2, 3, 5, 7):
            assert equals_mod(2 * GwElem.symbol(q, (1,), 1),
                              2 * GwElem.symbol(2 * q, (1,), 1))
        rng = random.Random(20260810)
        for _ in range(1000):
            s = rng.randint(0, 6)
            form = BetaForm(
                rng.randint(-200, 200),
                tuple(rng.randint(-200, 200) for _ in range(s)),
                rng.randint(-200, 200))
            assert beta_decompose(form.expand(s)) == form
