import pytest

from gwfloor.counting import (
    _reindex_drop_last, count, default_pairs, kontsevich, verify_merge_invariance,
    verify_rank_and_signatures, verify_square_substitution, witt_compare,
)
from gwfloor.degrees import n_delta, parse_degree
from gwfloor.gwring import BetaForm, GwElem, equals_mod, h, one
from gwfloor.tables import KNOWN_COMPLEX, KNOWN_COUNTS

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
        assert res.total == one(0)
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
        assert equals_mod(res.beta_form.expand(2), res.total)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            count(parse_degree("p2:3"), 5)

    def test_workers_deterministic(self):
        a = count(parse_degree("p2:3"), 3, workers=1)
        b = count(parse_degree("p2:3"), 3, workers=2)
        assert a == b


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

    def test_reindex_requires_inert_last_parameter(self):
        assert _reindex_drop_last(GwElem.symbol(3, (1,), 2), 2) == \
            GwElem.symbol(3, (1,), 1)
        with pytest.raises(IndexError):
            _reindex_drop_last(GwElem.symbol(3, (1, 2), 2), 2)


class TestMergeInvariance:
    def test_cubic_single_pair_all_positions(self):
        assert verify_merge_invariance(parse_degree("p2:3"), 1)

    def test_cubic_triples(self):
        assert verify_merge_invariance(parse_degree("p2:3"), 3)

    def test_quadric(self):
        for s in range(n_delta(parse_degree("p1xp1:2,2")) // 2 + 1):
            assert verify_merge_invariance(parse_degree("p1xp1:2,2"), s)


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


class TestWittComparison:
    def test_p2_vs_quadric_quartics(self):
        s1, s2 = parse_degree("p2:4"), parse_degree("p1xp1:2,4")
        for s in range(6):
            r1, r2 = count(s1, s), count(s2, s)
            assert r1.beta_form.beta_coeffs == r2.beta_form.beta_coeffs
            diff = witt_compare(s1, s2, s)
            mult = r1.beta_form.one_coeff - r2.beta_form.one_coeff
            assert mult == -16
            assert equals_mod(diff, mult * one(s))

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
            assert BetaForm(*row).expand(s).rank() == expected, (spec_str, s)

    @pytest.mark.parametrize("spec_str", list(KNOWN_COUNTS))
    def test_all_positive_signature_constant(self, spec_str):
        sigs = {BetaForm(*row).expand(s).signature({i: 1 for i in range(1, s + 1)})
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
