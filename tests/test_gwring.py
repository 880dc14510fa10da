import math
import multiprocessing
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwfloor
from gwfloor import counting
from gwfloor.counting import default_pairs
from gwfloor.degrees import n_delta, parse_degree
from gwfloor.gwring import (
    MAX_PARAMS, BetaForm, GwElem, GwMonomial, ResidualNotInSpan, beta_decompose,
    beta_elem, beta_sym, display, equals_mod, h, one, split_mul, split_sum,
    to_json_dict,
)
from gwfloor.multiplicity import m_a1, row_mult

from kummer import trace_kummer
from oracles import beta_sym_product


def sym(a, ds=()):
    return GwElem.symbol(a, ds)


class TestMonomial:
    def test_square_free_reduction(self):
        assert GwMonomial.of(4) == GwMonomial.of(1)
        assert GwMonomial.of(12) == GwMonomial.of(3)
        assert GwMonomial.of(-8, [2]) == GwMonomial(2, (2,), -1)

    def test_mul_examples(self):
        # <2><2d1> = <d1>, <-d1><-d1> = <1>, <3><2d1d2> = <6d1d2>
        assert GwMonomial.of(2) * GwMonomial.of(2, [1]) == GwMonomial.of(1, [1])
        m = GwMonomial.of(-1, [1])
        assert m * m == GwMonomial.of(1)
        assert GwMonomial.of(3) * GwMonomial.of(2, [1, 2]) == \
            GwMonomial.of(6, [1, 2])

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_squares_to_one(self, q1, q2):
        m = GwMonomial.of(q1 * q2, [1, 3])
        assert m * m == GwMonomial.of(1)


class TestRingOps:
    def test_hyperbolic_absorption(self):
        # <m> * h = h for any symbol
        for q, ds in [(1, ()), (2, ()), (3, (1,)), (6, (1, 2))]:
            assert sym(q, ds) * h() == h()
            assert sym(-q, ds) * h() == h()

    def test_h_squared(self):
        assert h() * h() == 2 * h()

    def test_cubic_symbol_square(self):
        # (<3> + h)^2 = <1> + 4h
        e = sym(3) + h()
        assert e * e == one() + 4 * h()

    def test_negative_canonicalization(self):
        # <m> + <-m> collapses to h exactly
        e = sym(5, (1,)) + sym(-5, (1,))
        assert e == h()


class TestRankSignature:
    def test_rank_examples(self):
        assert h().rank() == 2
        e = 2 * h() + beta_sym(1, 3) + 2 * one()
        assert e.rank() == 12
        e = 190 * h() + beta_sym(3, 5) + 2 * beta_sym(2, 5) + 8 * beta_sym(1, 5)
        assert e.rank() == 620

    def test_signature_examples(self):
        assert h().signature({}) == 0
        e = 2 * h() + beta_sym(1, 3) + 2 * one()
        assert e.signature({1: -1, 2: -1, 3: -1}) == 2
        e = 2 * h() + beta_sym(1, 1) + 6 * one()
        assert e.signature({1: 1}) == 8

    @given(st.integers(1, 10), st.integers(1, 10), st.booleans())
    @settings(max_examples=50)
    def test_homomorphisms(self, q1, q2, flip):
        signs = {1: -1 if flip else 1, 2: 1}
        e1 = sym(q1, (1,)) + 2 * h()
        e2 = sym(q2, (2,)) - one()
        assert (e1 * e2).rank() == e1.rank() * e2.rank()
        assert (e1 * e2).signature(signs) == e1.signature(signs) * e2.signature(signs)

    def test_signature_constant_on_two_shift_classes(self):
        signs = {1: -1}
        assert (2 * sym(3, (1,))).signature(signs) == \
            (2 * sym(6, (1,))).signature(signs)


class TestSubstituteSquare:
    def test_beta_becomes_two_twos(self):
        b = beta_elem(1)
        assert b.substitute_square(1) == 2 * sym(2)

    def test_gamma_case(self):
        # gamma(3, d1) with d1 := 1 collapses to <1> + 4h exactly
        g = one() + (sym(2) + sym(-2, (1,))) + 3 * h()
        assert g.substitute_square(1) == one() + 4 * h()

    def test_out_of_range(self):
        for i in (0, MAX_PARAMS + 1):
            with pytest.raises(IndexError):
                one().substitute_square(i)


class TestEqualsBeyondCanonical:
    def test_two_shift_instances(self):
        assert equals_mod(2 * one(), 2 * sym(2))
        d = sym(-1, (1,))
        assert equals_mod(2 * (one() + d), 2 * (sym(2) + sym(-2, (1,))))

    def test_generic_forms_differ(self):
        e1 = one() + sym(1, (1,))
        e2 = sym(2) + sym(2, (1,))
        assert e1.rank() == e2.rank()
        assert e1.signature({1: 1}) == e2.signature({1: 1})
        assert not equals_mod(e1, e2)

    def test_odd_multiple_not_equal(self):
        assert not equals_mod(one(), sym(2))
        assert not equals_mod(3 * one(), 3 * sym(2))


class TestBetaDecompose:
    def test_trivial(self):
        assert beta_decompose(one(), 0) == BetaForm(0, (), 1)

    def test_cubic_row(self):
        e = 2 * h() + beta_elem(1) + 6 * one()
        assert beta_decompose(e, 1) == BetaForm(2, (1,), 6)

    def test_product_expansion(self):
        # <1> + <d1> + <d2> + <d1 d2> is beta_1 beta_2 after square reduction
        e = one() + sym(1, (1,)) + sym(1, (2,)) + sym(1, (1, 2))
        assert beta_decompose(e, 2) == BetaForm(0, (0, 1), 0)

    def test_residual_not_in_span(self):
        with pytest.raises(ResidualNotInSpan):
            beta_decompose(sym(1, (1,)), 1)
        with pytest.raises(ResidualNotInSpan):
            beta_decompose(sym(3), 0)

    def test_parity_failure(self):
        # <d1> alone: beta^(1) puts its d1 part on <2 d1>, and one (2, -2)
        # move cannot carry a single <d1> there
        with pytest.raises(ResidualNotInSpan, match=r"^parity failure on subset \(1,\)"):
            beta_decompose(sym(1, (1,)), 1)

    def test_inconsistent_coefficient(self):
        # beta_1 over two parameters: d1 asks for one beta^(1), d2 for none
        with pytest.raises(ResidualNotInSpan,
                           match=r"^inconsistent coefficient for beta\^\(1\): 1 vs 0 at \(2,\)"):
            beta_decompose(beta_elem(1), 2)

    def test_residual_outside_lattice(self):
        # every beta coefficient is solved, and <3> is left over
        with pytest.raises(ResidualNotInSpan, match=r"^residual <3> not in the two-shift lattice"):
            beta_decompose(sym(3), 0)
        with pytest.raises(ResidualNotInSpan, match=r"^residual <3> not in the two-shift lattice"):
            beta_decompose(beta_sym(2, 2) + sym(3), 2)

    @pytest.mark.parametrize("s", range(9))
    def test_closed_form_is_the_definition(self, s):
        # expand and beta_decompose both read beta_sym, so only an
        # independent product pins it
        for l in range(s + 1):
            assert beta_sym(l, s) == beta_sym_product(l, s), (l, s)

    def test_closed_form_past_s_is_zero(self):
        assert beta_sym(3, 2) == GwElem.zero()
        assert beta_sym(0, 0) == one()
        with pytest.raises(ValueError):
            beta_sym(-1, 2)
        with pytest.raises(ValueError):
            beta_sym(1, MAX_PARAMS + 1)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, s, data):
        coeffs = st.integers(-200, 200)
        form = BetaForm(
            data.draw(coeffs),
            tuple(data.draw(coeffs) for _ in range(s)),
            data.draw(coeffs))
        expanded = form.expand()
        assert beta_decompose(expanded, s) == form
        assert equals_mod(beta_decompose(expanded, s).expand(), expanded)


class TestTraceKummer:
    def test_examples(self):
        d1 = GwMonomial.of(1, [1])
        assert trace_kummer(1, d1, "unit") == one()
        assert trace_kummer(2, d1, "unit") == beta_elem(1)
        assert trace_kummer(3, d1, "x") == sym(3, (1,)) + h()
        assert trace_kummer(4, d1, "x") == 2 * h()

    @pytest.mark.parametrize("which", ["unit", "x"])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_rank_is_m(self, m, which):
        assert trace_kummer(m, GwMonomial.of(1, [1]), which).rank() == m

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            trace_kummer(0, GwMonomial.of(1), "unit")


class TestDisplay:
    def test_pure_h(self):
        assert display(h()) == (1, [])

    def test_mixed(self):
        e = sym(2) + sym(-2, (1,))
        n, residual = display(e)
        assert n == 1
        assert residual == [(GwMonomial.of(2), 1), (GwMonomial.of(2, [1]), -1)]

    def test_plain_ones(self):
        assert display(3 * one()) == (0, [(GwMonomial.of(1), 3)])

    def test_round_trip(self):
        e = 4 * h() - beta_elem(2) + 5 * one()
        n, residual = display(e)
        assert n * h() + GwElem.from_coeffs(dict(residual)) == e

    def test_json(self):
        d = to_json_dict(2 * h() + beta_elem(1))
        assert d["h"] == 2
        assert {"sign": 1, "q": 2, "d": [1], "c": 1} in d["terms"]


nonzero = st.one_of(st.integers(1, 10 ** 5), st.integers(-10 ** 5, -1))
subsets = st.frozensets(st.integers(1, 4))


class TestMaskEncoding:
    @given(nonzero, subsets, nonzero, subsets)
    @settings(max_examples=200, deadline=None)
    def test_symbol_product_is_xor(self, a, I, b, J):
        assert sym(a, I) * sym(b, J) == sym(a * b, I ^ J)

    def test_same_masks_in_a_spawned_process(self):
        # This process has long met the prime 2; a fresh one meets 99991
        # first.  Masks must not depend on the order primes are first seen.
        args = [(-99991, (1,)), (3 * 65537, (2, 3)), (2, ()), (-6, (1, 3))]
        expected = [sym(a, ds) for a, ds in args]
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            future = pool.submit(_symbols, args)
            got = future.result(timeout=120)
        assert got == expected

    def test_index_outside_layout_rejected(self):
        with pytest.raises(ValueError):
            GwMonomial(1, (0,))
        with pytest.raises(ValueError):
            GwMonomial.of(1, [MAX_PARAMS + 1])

    def test_prime_beyond_limit_rejected(self):
        with pytest.raises(ValueError):
            sym(2 ** 31 - 1)  # a prime


# elements over d_1..d_4 with <-1>, <-m> and d-classes among their symbols
symbols = st.tuples(st.one_of(st.sampled_from([1, -1, 2, -2, 3, -6]), nonzero), subsets)
elements = st.lists(st.tuples(symbols, st.integers(-9, 9)), max_size=6).map(
    lambda terms: GwElem.from_coeffs([(GwMonomial.of(a, I), c) for (a, I), c in terms]))


def _assert_split_form(e):
    a, x = e[0], e[1]
    assert isinstance(a, int)
    assert all(c != 0 and m & 1 == 0 for m, c in x.items()), x  # bit 0: the sign


class TestSignature:
    """`signature` reads the d bits of each class alone, up to d_MAX_PARAMS,
    whose bit is next to that of the prime 2."""

    @given(st.lists(st.tuples(st.one_of(st.sampled_from([1, -1, 2, -2, 3, -6]), nonzero),
                              st.frozensets(st.sampled_from([1, 2, 5, MAX_PARAMS])),
                              st.integers(-9, 9)), max_size=6),
           st.lists(st.sampled_from([1, -1]), min_size=MAX_PARAMS, max_size=MAX_PARAMS))
    @settings(max_examples=200, deadline=None)
    def test_against_terms(self, terms, sign_list):
        e = GwElem.from_coeffs([(GwMonomial.of(a, I), c) for a, I, c in terms])
        signs = dict(enumerate(sign_list, start=1))
        # <a> has signature sign(a), so h, as <1> + <-1>, has 0
        expected = sum(c * m.sign * math.prod(signs[i] for i in m.d_subset)
                       for m, c in e.terms)
        assert e.signature(signs) == expected


class TestSplit:
    """e = h_coeff h + x with x over sign-positive classes: the fields of a
    GwElem, and the form in which every sum and product is taken."""

    @given(elements)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, e):
        _assert_split_form(e[:2])
        assert GwElem(*e[:2]) == e
        assert e[0] == e.coeff(GwMonomial(1, (), -1))

    @given(elements, elements)
    @settings(max_examples=200, deadline=None)
    def test_product_is_the_ring_product(self, e1, e2):
        # against the products of the symbols, term by term
        product = split_mul(e1[:2], e2[:2])
        _assert_split_form(product)
        expected = GwElem.from_coeffs(
            [(m1 * m2, c1 * c2) for m1, c1 in e1.terms for m2, c2 in e2.terms])
        assert GwElem(*product) == e1 * e2 == expected

    @given(elements, elements, st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_sum(self, e1, e2, k1, k2):
        total = split_sum([(k1, e1[:2]), (k2, e2[:2])])
        _assert_split_form(total)
        expected = GwElem.from_coeffs(
            [(m, k1 * c) for m, c in e1.terms] + [(m, k2 * c) for m, c in e2.terms])
        assert GwElem(*total) == k1 * e1 + k2 * e2 == expected

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_even_edge_factor_is_pure_h(self, m):
        # no {<1>: 0} entry is carried, so products with it stay in h
        assert m_a1(m)[:2] == (m // 2, {})
        assert split_mul(beta_elem(1), m_a1(m)) == (m, {})


def _assert_canonical(e):
    assert isinstance(e, GwElem)
    _assert_split_form(e)
    terms = dict(e.terms)  # the canonical readout
    assert all(c != 0 for c in terms.values()), terms
    assert all(m.sign > 0 or m == GwMonomial(1, (), -1) for m in terms), terms
    assert terms.get(GwMonomial(1, (), -1), 0) == e.h_coeff


class TestCanonicalForm:
    """Every element is in split form, with no zero coefficient and no
    sign-negative class in rest, and its canonical readout (`terms`) has
    no zero coefficient and no sign-negative class but <-1>, which
    carries h_coeff."""

    @given(elements, elements, st.integers(-5, 5), st.integers(1, 4),
           st.tuples(st.integers(-3, 3), st.lists(st.integers(-3, 3), max_size=4),
                     st.integers(-3, 3)))
    @settings(max_examples=200, deadline=None)
    def test_results_are_canonical(self, e1, e2, k, i, form):
        for e in (e1, e1 + e2, e1 * e2, k * e1, e1.substitute_square(i)):
            _assert_canonical(e)
        c_h, cs, c_0 = form
        _assert_canonical(BetaForm(c_h, tuple(cs), c_0).expand())
        for l in range(len(cs) + 2):
            _assert_canonical(beta_sym(l, len(cs)))

    @pytest.mark.parametrize("spec_str", ["p2:4", "p1xp1:2,4", "bl2:4,1,1"])
    def test_rows_are_canonical(self, spec_str):
        # row_mult and the s = 0 fold build their GwElem from the split form
        spec = parse_degree(spec_str)
        _assert_canonical(counting._edge_product_sum(spec))
        for s in range(1, n_delta(spec) // 2 + 1):
            _assert_canonical(row_mult(counting._signature_tally(spec, default_pairs(s))))

    @given(elements, st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_substitute_square_drops_d_i(self, e, i):
        dropped = [(GwMonomial(m.int_part, tuple(j for j in m.d_subset if j != i), m.sign), c)
                   for m, c in e.terms]
        assert e.substitute_square(i) == GwElem.from_coeffs(dropped)


def _canonical_rule(e1, e2):
    """equals_mod as the rule on the canonical readouts (`terms`): on each
    partner pair {<m>, <2m>} the difference cancels and is even."""
    two, a, b = GwMonomial(2, ()), dict(e1.terms), dict(e2.terms)
    return not any((c := a.get(m, 0) - b.get(m, 0)) % 2
                   or c + a.get(m * two, 0) - b.get(m * two, 0) for m in a.keys() | b.keys())


# lattice vectors k (2<m> - 2<2m>), sign-negative m among them
lattice = st.lists(st.tuples(symbols, st.integers(-3, 3)), max_size=4).map(
    lambda vs: GwElem.from_coeffs([t for (a, I), k in vs for t in (
        (GwMonomial.of(a, I), 2 * k), (GwMonomial.of(2 * a, I), -2 * k))]))


class TestEqualsModRule:
    """equals_mod compares h counts, then rest by partner pairs; the rule on
    the canonical readouts that it replaces agrees with it."""

    @given(elements, elements, lattice, symbols, st.integers(-4, 4))
    @settings(max_examples=300, deadline=None)
    def test_against_canonical_rule(self, e, other, v, odd_symbol, k):
        # an odd symbol, or an odd multiple of h, which shifts h_coeff alone
        odd = [(2 * k + 1) * GwElem.symbol(*odd_symbol), (2 * k + 1) * h()]
        for e2, equal in ((e + v, True), (e + v + odd[0], False), (e + v + odd[1], False),
                          (other, None)):
            assert equals_mod(e, e2) == equals_mod(e2, e) == _canonical_rule(e, e2), (e, e2)
            assert equal is None or equals_mod(e, e2) == equal, (e, e2)


def _symbols(args):
    return [GwElem.symbol(a, ds) for a, ds in args]


class TestChecksRaise:
    """Invariant checks raise exceptions, so they hold under python -O too."""

    @pytest.mark.parametrize("int_part,d_subset,sign", [
        (4, (), 1), (0, (), 1), (-3, (), 1), (3, (2, 1), 1), (3, (1, 1), 1),
        (3, (), 0),
    ])
    def test_monomial_validation(self, int_part, d_subset, sign):
        with pytest.raises(ValueError):
            GwMonomial(int_part, d_subset, sign)

    def test_zero_symbol_rejected(self):
        with pytest.raises(ValueError):
            GwMonomial.of(0)

    def test_beta_decompose_refuses_d_past_s(self):
        # an element that carries d_3 has no presentation over s = 2
        with pytest.raises(ResidualNotInSpan):
            beta_decompose(GwElem.symbol(1, (3,)), 2)

    def test_signature_needs_every_sign_that_occurs(self):
        with pytest.raises(KeyError):
            (one() + sym(2, (1, 3))).signature({1: -1, 2: -1})

    @pytest.mark.parametrize("i", [0, MAX_PARAMS + 1])
    def test_beta_elem_range(self, i):
        with pytest.raises(IndexError):
            beta_elem(i)

    def test_beta_decompose_self_check(self, monkeypatch):
        # a presentation that does not expand back to its input is refused
        real = BetaForm.expand
        monkeypatch.setattr(BetaForm, "expand",
                            lambda form: real(form) + 2 * one())
        with pytest.raises(ResidualNotInSpan):
            beta_decompose(2 * h() + beta_elem(1) + 6 * one(), 1)

    def test_checks_survive_optimize(self):
        src = str(Path(gwfloor.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, %r)\n"
            "from gwfloor.gwring import GwMonomial\n"
            "assert False, 'asserts are on'\n"
            "try:\n"
            "    GwMonomial(4, ())\n"
            "except ValueError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        ) % src
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
