import multiprocessing
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwfloor
from gwfloor.gwring import (
    MAX_PARAMS, BetaForm, GwElem, GwMonomial, ResidualNotInSpan, beta_decompose,
    beta_elem, beta_sym, display, equals_mod, h, one, to_json_dict,
)

from kummer import trace_kummer


def sym(a, ds=(), s=0):
    return GwElem.symbol(a, ds, s)


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

    def test_key_serialization(self):
        assert GwMonomial.of(2, [1, 3]).key() == "+2*d1d3"
        assert GwMonomial.of(-1).key() == "-1"


class TestRingOps:
    def test_hyperbolic_absorption(self):
        # <m> * h = h for any symbol
        for q, ds in [(1, ()), (2, ()), (3, (1,)), (6, (1, 2))]:
            assert sym(q, ds, 2) * h(2) == h(2)
            assert sym(-q, ds, 2) * h(2) == h(2)

    def test_h_squared(self):
        assert h() * h() == 2 * h()

    def test_cubic_symbol_square(self):
        # (<3> + h)^2 = <1> + 4h
        e = sym(3) + h()
        assert e * e == one() + 4 * h()

    def test_negative_canonicalization(self):
        # <m> + <-m> collapses to h exactly
        e = sym(5, (1,), 1) + sym(-5, (1,), 1)
        assert e == h(1)

    def test_mismatched_params_rejected(self):
        with pytest.raises(ValueError):
            sym(1, (), 1) + sym(1, (), 2)
        with pytest.raises(ValueError):
            sym(1, (), 1) * sym(1, (), 2)
        with pytest.raises(ValueError):
            equals_mod(one(1), one(2))


class TestRankSignature:
    def test_rank_examples(self):
        assert h().rank() == 2
        e = 2 * h(3) + beta_sym(1, 3) + 2 * one(3)
        assert e.rank() == 12
        e = 190 * h(5) + beta_sym(3, 5) + 2 * beta_sym(2, 5) + 8 * beta_sym(1, 5)
        assert e.rank() == 620

    def test_signature_examples(self):
        assert h().signature({}) == 0
        e = 2 * h(3) + beta_sym(1, 3) + 2 * one(3)
        assert e.signature({1: -1, 2: -1, 3: -1}) == 2
        e = 2 * h(1) + beta_sym(1, 1) + 6 * one(1)
        assert e.signature({1: 1}) == 8

    @given(st.integers(1, 10), st.integers(1, 10), st.booleans())
    @settings(max_examples=50)
    def test_homomorphisms(self, q1, q2, flip):
        signs = {1: -1 if flip else 1, 2: 1}
        e1 = sym(q1, (1,), 2) + 2 * h(2)
        e2 = sym(q2, (2,), 2) - one(2)
        assert (e1 * e2).rank() == e1.rank() * e2.rank()
        assert (e1 * e2).signature(signs) == e1.signature(signs) * e2.signature(signs)

    def test_signature_constant_on_two_shift_classes(self):
        signs = {1: -1}
        assert (2 * sym(3, (1,), 1)).signature(signs) == \
            (2 * sym(6, (1,), 1)).signature(signs)


class TestSubstituteSquare:
    def test_beta_becomes_two_twos(self):
        b = beta_elem(1, 1)
        assert b.substitute_square(1) == 2 * sym(2, (), 1)

    def test_gamma_case(self):
        # gamma(3, d1) with d1 := 1 collapses to <1> + 4h exactly
        g = one(1) + (sym(2, (), 1) + sym(-2, (1,), 1)) + 3 * h(1)
        assert g.substitute_square(1) == one(1) + 4 * h(1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            one(1).substitute_square(2)


class TestEqualsBeyondCanonical:
    def test_two_shift_instances(self):
        assert equals_mod(2 * one(0), 2 * sym(2))
        d = sym(-1, (1,), 1)
        assert equals_mod(2 * (one(1) + d), 2 * (sym(2, (), 1) + sym(-2, (1,), 1)))

    def test_generic_forms_differ(self):
        e1 = one(1) + sym(1, (1,), 1)
        e2 = sym(2, (), 1) + sym(2, (1,), 1)
        assert e1.rank() == e2.rank()
        assert e1.signature({1: 1}) == e2.signature({1: 1})
        assert not equals_mod(e1, e2)

    def test_odd_multiple_not_equal(self):
        assert not equals_mod(one(0), sym(2))
        assert not equals_mod(3 * one(0), 3 * sym(2))


class TestBetaDecompose:
    def test_trivial(self):
        assert beta_decompose(one(0)) == BetaForm(0, (), 1)

    def test_cubic_row(self):
        e = 2 * h(1) + beta_elem(1, 1) + 6 * one(1)
        assert beta_decompose(e) == BetaForm(2, (1,), 6)

    def test_product_expansion(self):
        # <1> + <d1> + <d2> + <d1 d2> is beta_1 beta_2 after square reduction
        e = one(2) + sym(1, (1,), 2) + sym(1, (2,), 2) + sym(1, (1, 2), 2)
        assert beta_decompose(e) == BetaForm(0, (0, 1), 0)

    def test_residual_not_in_span(self):
        with pytest.raises(ResidualNotInSpan):
            beta_decompose(sym(1, (1,), 1))
        with pytest.raises(ResidualNotInSpan):
            beta_decompose(sym(3, (), 0))

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, s, data):
        coeffs = st.integers(-200, 200)
        form = BetaForm(
            data.draw(coeffs),
            tuple(data.draw(coeffs) for _ in range(s)),
            data.draw(coeffs))
        expanded = form.expand(s)
        assert beta_decompose(expanded) == form
        assert equals_mod(beta_decompose(expanded).expand(s), expanded)


class TestTraceKummer:
    def test_examples(self):
        d1 = GwMonomial.of(1, [1])
        assert trace_kummer(1, d1, "unit", 1) == one(1)
        assert trace_kummer(2, d1, "unit", 1) == beta_elem(1, 1)
        assert trace_kummer(3, d1, "x", 1) == sym(3, (1,), 1) + h(1)
        assert trace_kummer(4, d1, "x", 1) == 2 * h(1)

    @pytest.mark.parametrize("which", ["unit", "x"])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_rank_is_m(self, m, which):
        assert trace_kummer(m, GwMonomial.of(1, [1]), which, 1).rank() == m

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            trace_kummer(0, GwMonomial.of(1), "unit")


class TestDisplay:
    def test_pure_h(self):
        assert display(h()) == (1, [])

    def test_mixed(self):
        e = sym(2, (), 1) + sym(-2, (1,), 1)
        n, residual = display(e)
        assert n == 1
        assert residual == [(GwMonomial.of(2), 1), (GwMonomial.of(2, [1]), -1)]

    def test_plain_ones(self):
        assert display(3 * one()) == (0, [(GwMonomial.of(1), 3)])

    def test_round_trip(self):
        from gwfloor.gwring import assemble
        e = 4 * h(2) - beta_elem(2, 2) + 5 * one(2)
        n, residual = display(e)
        assert assemble(n, residual, 2) == e

    def test_json(self):
        d = to_json_dict(2 * h(1) + beta_elem(1, 1))
        assert d["h"] == 2
        assert {"sign": 1, "q": 2, "d": [1], "c": 1} in d["terms"]


nonzero = st.one_of(st.integers(1, 10 ** 5), st.integers(-10 ** 5, -1))
subsets = st.frozensets(st.integers(1, 4))


class TestMaskEncoding:
    @given(nonzero, subsets, nonzero, subsets)
    @settings(max_examples=200, deadline=None)
    def test_symbol_product_is_xor(self, a, I, b, J):
        assert sym(a, I, 4) * sym(b, J, 4) == sym(a * b, I ^ J, 4)

    def test_same_masks_in_a_spawned_process(self):
        # This process has long met the prime 2; a fresh one meets 99991
        # first.  Masks must not depend on the order primes are first seen.
        args = [(-99991, (1,)), (3 * 65537, (2, 3)), (2, ()), (-6, (1, 3))]
        expected = [sym(a, ds, 3) for a, ds in args]
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            future = pool.submit(_symbols, args, 3)
            got = future.result(timeout=120)
        assert got == expected

    def test_index_outside_layout_rejected(self):
        with pytest.raises(ValueError):
            GwElem.zero(MAX_PARAMS + 1)
        with pytest.raises(ValueError):
            GwMonomial(1, (0,))
        with pytest.raises(ValueError):
            GwMonomial.of(1, [MAX_PARAMS + 1])

    def test_prime_beyond_limit_rejected(self):
        with pytest.raises(ValueError):
            sym(2 ** 31 - 1)  # a prime


def _symbols(args, num_params):
    return [GwElem.symbol(a, ds, num_params) for a, ds in args]


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

    def test_from_coeffs_index_range(self):
        with pytest.raises(IndexError):
            GwElem.from_coeffs({GwMonomial.of(1, [3]): 1}, 2)
        with pytest.raises(IndexError):
            sym(1, (3,), 2)

    @pytest.mark.parametrize("i", [0, 3])
    def test_beta_elem_range(self, i):
        with pytest.raises(IndexError):
            beta_elem(i, 2)

    def test_beta_decompose_self_check(self, monkeypatch):
        # a presentation that does not expand back to its input is refused
        real = BetaForm.expand
        monkeypatch.setattr(BetaForm, "expand",
                            lambda form, s=None: real(form, s) + 2 * one(s))
        with pytest.raises(ResidualNotInSpan):
            beta_decompose(2 * h(1) + beta_elem(1, 1) + 6 * one(1))

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
