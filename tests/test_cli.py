import json

import pytest

from gwfloor.cli import (
    EXIT_PARSE, main, parse_beta_text, render_beta_form,
)
from gwfloor.gwring import BetaForm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCount:
    def test_cubic_text(self, capsys):
        code, out = run(capsys, "count", "p2:3", "--pairs-count", "3")
        assert code == 0
        assert out.strip() == "2h + β^{(1)} + 2⟨1⟩"

    def test_one_line(self, capsys):
        code, out = run(capsys, "count", "p2:1", "--pairs-count", "0")
        assert code == 0
        assert out.strip() == "⟨1⟩"

    def test_ascii(self, capsys):
        code, out = run(capsys, "count", "p2:3", "--pairs-count", "3", "--ascii")
        assert out.strip() == "2h + b^(1) + 2<1>"

    def test_explicit_pairs(self, capsys):
        code, out = run(capsys, "count", "p2:3", "--pairs", "2,3;5,6")
        assert code == 0
        code2, out2 = run(capsys, "count", "p2:3", "--pairs-count", "2")
        assert out == out2  # merge-position invariance at the CLI level

    def test_json_record(self, capsys):
        code, out = run(capsys, "count", "p1xp1:2,3", "--pairs-count", "4",
                        "--format", "json")
        record = json.loads(out)
        assert record["rank"] == 96
        assert record["h"] == 24
        assert record["beta"] == [2, 1, 0, 0]
        assert record["c0"] == 8
        assert "ms" not in record

    def test_json_stable_across_runs_and_workers(self, capsys):
        _, out1 = run(capsys, "count", "p2:3", "--pairs-count", "2",
                      "--format", "json")
        _, out2 = run(capsys, "count", "p2:3", "--pairs-count", "2",
                      "--format", "json", "--threads", "2")
        assert out1 == out2

    def test_parse_error_exit_code(self, capsys):
        assert main(["count", "bad:spec"]) == EXIT_PARSE
        assert main(["count", "p2:3", "--pairs-count", "9"]) == EXIT_PARSE


class TestTable:
    def test_cubic_block(self, capsys):
        code, out = run(capsys, "table", "p2:3", "--ascii")
        lines = out.strip().splitlines()
        assert lines[0] == "(8, 0)  2h + 8<1>"
        assert lines[4] == "(0, 4)  2h + b^(1)"

    def test_csv_columns(self, capsys):
        code, out = run(capsys, "table", "p2:3", "--format", "csv")
        header = out.splitlines()[0].split(",")
        assert header[:5] == ["family", "params", "r", "s", "h"]
        assert header[5:9] == ["c1", "c2", "c3", "c4"]
        assert header[9:] == ["c0", "rank", "sig_pos", "sig_neg", "classes", "ms"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.json"
        code = main(["table", "bl3:3,1,1,1", "--format", "json",
                     "--out", str(target)])
        assert code == 0
        rows = json.loads(target.read_text())
        assert [r["rank"] for r in rows] == [12, 12, 12]


class TestEnumerate:
    def test_emits_classified_classes(self, capsys):
        code, out = run(capsys, "enumerate", "p2:3", "--pairs-count", "3")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 6
        kinds = sorted(r["classification"][0][0] for r in records)
        assert set(kinds) <= {"twin", "type_a", "free"}

    def test_plain_diagrams(self, capsys):
        code, out = run(capsys, "enumerate", "p2:3")
        assert len(out.strip().splitlines()) == 9

    def test_non_adjacent_pairs_exit_code(self, capsys):
        assert main(["enumerate", "p2:3", "--pairs", "1,3"]) == EXIT_PARSE
        assert "not an adjacent position pair" in capsys.readouterr().err


class TestRendering:
    @pytest.mark.parametrize("form,s", [
        (BetaForm(24, (2, 1, 0, 0), 8), 4),
        (BetaForm(190, (8, 2, 1, 0, 0), 0), 5),
        (BetaForm(0, (), 1), 0),
        (BetaForm(2, (1,), 6), 1),
        (BetaForm(0, (0, 0), 0), 2),
    ])
    @pytest.mark.parametrize("ascii_mode", [False, True])
    def test_round_trip(self, form, s, ascii_mode):
        text = render_beta_form(form, ascii_mode)
        assert parse_beta_text(text, s) == form


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out = run(capsys, "verify", "--scope", "quick")
        report = json.loads(out)
        assert code == 0
        assert report["ok"] and report["failures"] == []

    def test_mutation_detected(self, capsys, monkeypatch):
        # an off-by-one in the type-A factor must trip the rank invariant
        import gwfloor.multiplicity as mult
        real_gamma = mult.gamma

        def broken_gamma(m, i, num_params):
            return real_gamma(m + 1, i, num_params)

        monkeypatch.setattr(mult, "gamma", broken_gamma)
        from gwfloor.counting import verify_rank_and_signatures
        from gwfloor.degrees import parse_degree
        from gwfloor.gwring import ResidualNotInSpan
        try:
            report = verify_rank_and_signatures(parse_degree("p2:3"))
        except ResidualNotInSpan:
            return  # corrupted count no longer fits the table format: caught
        assert not report["rank_constant"] or not report["rank_matches_kontsevich"]
