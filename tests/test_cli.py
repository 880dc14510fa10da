import argparse
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwfloor
import gwfloor.diagrams as diagrams
import gwfloor.multiplicity as multiplicity
import gwfloor.counting as counting
import gwfloor.cli as cli
from gwfloor.cli import EXIT_BUDGET, EXIT_PARSE, EXIT_RESIDUAL, _isomorphic_checks, \
    build_parser, main, render_beta_form
from gwfloor.degrees import parse_degree
from gwfloor.gwring import BetaForm, GwElem

from betatext import parse_beta_text
from conftest import clear_count_caches


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out



def _fresh_cli(*argv, timeout):
    """Run the CLI in a fresh interpreter; TimeoutExpired past timeout seconds."""
    env = {**os.environ, "PYTHONPATH": str(Path(gwfloor.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "gwfloor.cli", *argv],
                          capture_output=True, encoding="utf-8", env=env, timeout=timeout)


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

    def test_json_stable_across_runs(self, capsys):
        argv = ("count", "p2:3", "--pairs-count", "2", "--format", "json")
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2

    def test_parse_error_exit_code(self, capsys):
        assert main(["count", "bad:spec"]) == EXIT_PARSE
        assert main(["count", "p2:3", "--pairs-count", "9"]) == EXIT_PARSE
        capsys.readouterr()
        assert main(["count", "p2:" + "9" * 29]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: n(degree) = ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        "p2:0_4", "p2:+3", "p2:٣", "p1xp1:2,+3", "p2: 3",
    ])
    def test_degree_digits_are_ascii(self, capsys, spec):
        assert main(["count", spec]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: cannot parse degree spec {spec!r}\n"

    @pytest.mark.parametrize("text,chunk", [
        ("1,2,3", "1,2,3"), ("0,1", "0,1"), ("3,4;7", "7"), ("1,x", "1,x"),
        ("1,2;", ""), ("2,-1", "2,-1"), ("", ""), ("١,٢", "١,٢"),
    ])
    def test_malformed_pairs_exit_code(self, capsys, text, chunk):
        # the chunk is named as typed, not as a 0-based pair
        assert main(["count", "p2:3", "--pairs", text]) == EXIT_PARSE
        assert capsys.readouterr().err == \
            f"error: --pairs chunk {chunk!r} is not two positions >= 1\n"


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

    @pytest.mark.parametrize("text,pair", [
        ("1,3", "1,3"), ("3,1", "1,3"), ("3,4;8,9", "8,9"), ("9,10", "9,10"),
    ])
    def test_bad_pair_named_one_based(self, capsys, text, pair):
        # p2:3 has positions 1..8; the pair is named 1-based, not 0-based
        assert main(["count", "p2:3", "--pairs", text]) == EXIT_PARSE
        assert capsys.readouterr().err == \
            f"error: pair {pair} is not an adjacent position pair of 1..8\n"

    @pytest.mark.parametrize("text,named", [
        ("1,2;2,3", "1,2 and 2,3"), ("3,4;1,2;2,3", "1,2 and 2,3"), ("5,6;5,6", "5,6 and 5,6"),
    ])
    def test_overlapping_pairs_named_one_based(self, capsys, text, named):
        assert main(["count", "p2:3", "--pairs", text]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: merge pairs {named} must be disjoint\n"

    def test_negative_pairs_count_exit_code(self, capsys):
        assert main(["enumerate", "p2:3", "--pairs-count", "-1"]) == EXIT_PARSE
        assert "need 0 <= 2s <= n" in capsys.readouterr().err

    def test_pairs_disagreeing_with_count_exit_code(self, capsys):
        argv = ["enumerate", "p2:3", "--pairs", "1,2", "--pairs-count", "3"]
        assert main(argv) == EXIT_PARSE
        assert "expected 3 pairs, got 1" in capsys.readouterr().err


class TestDiagramBudget:
    """--max-diagrams N exits 4 before any diagram is built once the state
    graph's build finishes a state with more than N paths to the top, a
    lower bound on the degree's floor diagrams (p2:4 has 303), and changes
    nothing otherwise."""

    @pytest.mark.parametrize("command", ["count", "table", "enumerate"])
    def test_over_budget_exit_code(self, capsys, command):
        assert main([command, "p2:4", "--max-diagrams", "302"]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: p2:4 has at least 303 floor diagrams, more than --max-diagrams 302\n"

    @pytest.mark.parametrize("command", ["count", "table", "enumerate"])
    def test_within_budget_output_unchanged(self, capsys, command):
        assert run(capsys, command, "p2:4", "--max-diagrams", "303") == \
            run(capsys, command, "p2:4")

    def test_checked_before_enumeration(self, capsys, monkeypatch):
        def refuse(spec, *pairs):
            raise AssertionError(f"{spec} walked despite the budget")

        monkeypatch.setattr(diagrams, "walk", refuse)
        monkeypatch.setattr(counting, "walk", refuse)
        assert main(["count", "p2:7", "--max-diagrams", "1000"]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: p2:7 has at least 1212 floor diagrams, more than --max-diagrams 1000\n"

    def test_one_diagram_is_singular(self, capsys):
        # the top state alone has a path, one more than a budget of 0
        assert main(["table", "p2:4", "--max-diagrams", "0"]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: p2:4 has at least 1 floor diagram, more than --max-diagrams 0\n"

    def test_budgeted_build_is_kept(self, capsys, monkeypatch):
        # a budgeted build that finishes is the whole graph, so the table
        # reads it and builds p2:5 once; a lower budget still raises
        built = []
        real = diagrams._build_graph
        monkeypatch.setattr(diagrams, "_graphs", {})
        monkeypatch.setattr(diagrams, "_build_graph",
                            lambda spec, *budget: built.append(str(spec)) or real(spec, *budget))
        clear_count_caches()
        try:
            assert main(["table", "p2:5", "--max-diagrams", "100000", "--format", "json"]) == 0
            assert built == ["p2:5"]
            assert main(["count", "p2:5", "--max-diagrams", "1000"]) == EXIT_BUDGET
        finally:
            clear_count_caches()
        assert capsys.readouterr().err == \
            "error: p2:5 has at least 1212 floor diagrams, more than --max-diagrams 1000\n"

    # in a fresh interpreter, so that a deep recursion raises at the default
    # limit, and under a timeout, so that a build past the budget fails the test
    @pytest.mark.parametrize("spec", ["p2:12", "p2:170"])
    def test_stops_the_build(self, spec):
        proc = _fresh_cli("count", spec, "--max-diagrams", "10", timeout=5)
        assert proc.returncode == EXIT_BUDGET
        assert proc.stdout == ""
        assert proc.stderr == \
            f"error: {spec} has at least 18 floor diagrams, more than --max-diagrams 10\n"

    def test_deep_degree_builds(self):
        # n = 601 and one diagram: the build descends 601 positions
        proc = _fresh_cli("count", "p1xp1:1,300", "--format", "json", timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["classes"] == 1

    @pytest.mark.parametrize("argv,stage,what", [
        (["count", "p2:5", "--max-diagrams", "10"], "count_diagrams", "count p2:5"),
        (["table", "p2:3"], "count", "table p2:3"),
        (["enumerate", "p2:3"], "merged_classes", "enumerate p2:3"),
        (["verify"], "verify_rank_and_signatures", "verify --scope quick"),
    ])
    def test_out_of_memory_exit_code(self, capsys, monkeypatch, argv, stage, what):
        # one error line and the budget's exit code, not a traceback and
        # the exit code of a failed verify; nothing is allocated
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, stage, exhausted)
        assert main(argv) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory on {what}\n"

    def test_negative_budget_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "p2:3", "--max-diagrams", "-1"])
        assert exc.value.code == EXIT_PARSE


class TestParamsBound:
    """A row holds GW elements over at most MAX_PARAMS = 32 parameters, so
    count and table refuse more pairs before any graph, walk or row;
    enumerate builds no GW element and is not bounded."""

    def test_table_refused_before_its_first_row(self):
        # a class mask holds the d_i in bits 1..32, so row 33 has no mask layout
        proc = _fresh_cli("table", "p1xp1:1,33", timeout=5)
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert proc.stderr == "error: num_params 33 outside 0..32\n"

    @pytest.mark.parametrize("argv,last", [
        (("count", "p1xp1:1,32", "--pairs-count", "32"), "⟨1⟩"),
        (("table", "p1xp1:1,32"), "(1, 32)  ⟨1⟩"),
    ])
    def test_32_pairs_decompose_in_the_size_of_the_total(self, argv, last):
        # one diagram, total <1>: a decomposition over all 2^32 subsets of
        # the pairs would not finish
        proc = _fresh_cli(*argv, timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == last

    def test_count_refused_before_the_graph(self, capsys, monkeypatch):
        def refuse(spec, *args):
            raise AssertionError(f"{spec} built or walked despite 33 pairs")

        monkeypatch.setattr(diagrams, "_graphs", {})
        monkeypatch.setattr(diagrams, "_build_graph", refuse)
        monkeypatch.setattr(diagrams, "walk", refuse)
        monkeypatch.setattr(counting, "walk", refuse)
        assert main(["count", "p1xp1:1,33", "--pairs-count", "33"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: num_params 33 outside 0..32\n"

    def test_enumerate_unbounded(self, capsys):
        code, out = run(capsys, "enumerate", "p1xp1:1,33", "--pairs-count", "33")
        assert code == 0
        assert len(out.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["count", "p2:3", "--threads", "2"],
    ["table", "p2:3", "--threads", "2"],
    ["enumerate", "p2:3", "--emit"],
    ["enumerate", "p2:3", "--ascii"],
    ["verify", "--ascii"],
], ids=["count-threads", "table-threads", "enumerate-emit", "enumerate-ascii",
        "verify-ascii"])
def test_removed_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments" in capsys.readouterr().err


def _subcommand_parsers() -> dict:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestOptions:
    def test_option_strings_per_subcommand(self):
        got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in _subcommand_parsers().items()}
        assert got == {
            "count": {"--pairs-count", "--pairs", "--out", "--max-diagrams", "--ascii",
                      "--format"},
            "table": {"--out", "--max-diagrams", "--ascii", "--format"},
            "enumerate": {"--pairs-count", "--pairs", "--out", "--max-diagrams"},
            "verify": {"--scope", "--out"},
        }

    def test_pair_flags_have_one_help_text(self):
        parsers = _subcommand_parsers()
        count_help, enumerate_help = (
            {a.dest: a.help for a in parsers[name]._actions if "pairs" in a.dest}
            for name in ("count", "enumerate"))
        assert enumerate_help == count_help
        assert count_help["pairs"]

    @pytest.mark.parametrize("argv", [
        ["count", "p2:3"], ["table", "p2:3"], ["enumerate", "p2:3"], ["verify"],
    ], ids=["count", "table", "enumerate", "verify"])
    def test_unwritable_out_exit_code(self, argv, tmp_path, capsys):
        target = tmp_path / "missing" / "rows.json"
        assert main(argv + ["--out", str(target)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: cannot write --out {target}: {os.strerror(errno.ENOENT)}\n"

    def test_empty_out_exit_code(self, capsys):
        # an empty --out names no file; it does not mean stdout
        assert main(["count", "p2:3", "--out", ""]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: cannot write --out : {os.strerror(errno.ENOENT)}\n"

    def test_entry_point_under_optimize(self):
        # the installed script runs cli.main; -O drops every assert
        src = str(Path(gwfloor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "gwfloor.cli", "count", "p2:3", "--pairs-count", "3"],
            capture_output=True, encoding="utf-8", env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2h + β^{(1)} + 2⟨1⟩\n"

    def test_verify_under_optimize(self):
        # every check of verify is a real comparison, so -O keeps the report
        src = str(Path(gwfloor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "gwfloor.cli", "verify", "--scope", "quick"],
            capture_output=True, encoding="utf-8", env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        golden = json.loads((Path(__file__).parent / "golden" / "verify_quick.json").read_text())
        assert proc.stdout == json.dumps(golden["clean"], sort_keys=True) + "\n"


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


def _without_twin_trees(label):
    # the labels miss every tree, and the class sizes, read from the walk, do not
    return lambda key, pairs, joined, trees: label(key, pairs, joined, ())


def _without_type_a(label):
    # no pair is joined for the labels, so each type-A pair is labelled free
    return lambda key, pairs, joined, trees: label(key, pairs, 0, trees)


# Planted bugs in the walk's labelling (`diagrams.label`); verify must fail on each.
CLASSIFY_MUTANTS = {
    "no_twin_trees": ("label", _without_twin_trees),
    "type_a_as_free": ("label", _without_type_a),
}


def _gamma_classes_swapped(gamma):
    # <2> + <-2 d_i> in the odd-weight factor becomes <-2> + <2 d_i>
    def mutant(m, i):
        def sym(a, d=()):
            return GwElem.symbol(a, d)
        wrong = sym(-2) + sym(2, (i,)) - sym(2) - sym(-2, (i,))
        return gamma(m, i) + (m % 2) * ((m - 1) // 2) * wrong
    return mutant


def _twin_parity_flipped(twin_tree_mult):
    # one more unbounded twin elevator flips the parity of m_circ
    def mutant(tree):
        flipped = tree._replace(unbounded_twin_elevators=tree.unbounded_twin_elevators + 1)
        return twin_tree_mult(flipped)
    return mutant


# Planted bugs in the local factors; verify must fail on each.
LOCAL_FACTOR_MUTANTS = {
    "gamma_classes_swapped": ("gamma", _gamma_classes_swapped),
    "twin_parity_flipped": ("twin_tree_mult", _twin_parity_flipped),
}


def _twin_edge_sign_flipped(twin_edge_mult):
    # <1> + <d_i> in place of the anisotropic <1> + <-d_i>
    def mutant(m, i):
        wrong = GwElem.symbol(1, (i,)) - GwElem.symbol(-1, (i,))
        return twin_edge_mult(m, i) + (m * m // 2) * wrong
    return mutant


def _m_a1_four_off_by_one(m_a1):
    def mutant(m):
        real = m_a1(m)
        return real + GwElem.symbol(1, ()) if m == 4 else real
    return mutant


# Planted bugs in local factors that only the full scope reaches: a weight-2
# twin elevator, and an edge of weight 4, which no quick-scope degree has.
FULL_SCOPE_MUTANTS = {
    "twin_edge_sign_flipped": ("twin_edge_mult", _twin_edge_sign_flipped),
    "m_a1_four_off_by_one": ("m_a1", _m_a1_four_off_by_one),
}


def _verify_under(module, attr, make, monkeypatch, capsys, scope="quick"):
    # a count cached before the patch would hide the mutant, and one
    # cached under it would outlive it
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    clear_count_caches()
    try:
        code = main(["verify", "--scope", scope])
    finally:
        clear_count_caches()
    return code, capsys.readouterr().out


class TestVerify:
    @pytest.mark.parametrize("name", sorted(CLASSIFY_MUTANTS))
    def test_classify_mutant_fails_quick(self, name, capsys, monkeypatch):
        attr, make = CLASSIFY_MUTANTS[name]
        code, out = _verify_under(diagrams, attr, make, monkeypatch, capsys)
        assert code == 1  # a report, not a crash
        assert json.loads(out)["failures"]

    @pytest.mark.parametrize("name", sorted(LOCAL_FACTOR_MUTANTS))
    def test_local_factor_mutant_fails_quick(self, name, capsys, monkeypatch):
        attr, make = LOCAL_FACTOR_MUTANTS[name]
        code, out = _verify_under(multiplicity, attr, make, monkeypatch, capsys)
        assert code == 1  # a report, not a crash
        assert json.loads(out)["failures"]

    @pytest.mark.parametrize("name", sorted(FULL_SCOPE_MUTANTS))
    def test_full_scope_mutant_fails_full(self, name, capsys, monkeypatch):
        attr, make = FULL_SCOPE_MUTANTS[name]
        code, out = _verify_under(multiplicity, attr, make, monkeypatch, capsys,
                                  scope="full")
        assert code == 1
        assert json.loads(out)["failures"]

    def test_residual_is_a_failure_for_verify_only(self, capsys, monkeypatch):
        attr, make = LOCAL_FACTOR_MUTANTS["gamma_classes_swapped"]
        monkeypatch.setattr(multiplicity, attr, make(getattr(multiplicity, attr)))
        clear_count_caches()
        try:
            assert main(["table", "p1xp1:2,3"]) == EXIT_RESIDUAL
            assert main(["verify", "--scope", "quick"]) == 1
        finally:
            clear_count_caches()
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert any(f["spec"] == "p1xp1:2,3" and f["check"] == "residual_not_in_span"
                   and f["error"] for f in failures)

    def test_orbit_weights_not_whole_exit_code(self, capsys, monkeypatch):
        # without twin trees, a row's orbit weights are not whole classes
        attr, make = CLASSIFY_MUTANTS["no_twin_trees"]
        monkeypatch.setattr(diagrams, attr, make(getattr(diagrams, attr)))
        clear_count_caches()
        try:
            assert main(["table", "p2:3"]) == EXIT_RESIDUAL
            assert main(["count", "p2:3", "--pairs", "5,6;7,8"]) == EXIT_RESIDUAL
        finally:
            clear_count_caches()
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: p2:3 with pairs 1,2: the orbit weights of a signature sum to 1, "
            "not a multiple of 2^1",
            "error: p2:3 with pairs 5,6;7,8: the orbit weights of a signature sum to 2, "
            "not a multiple of 2^2"]

    def test_isomorphic_checks(self):
        # one check per s up to the least n / 2, failing where a row differs
        checks = list(_isomorphic_checks(parse_degree("bl1:3,1"), ["p2:3", "bl3:3,1,1,1"]))
        assert [(check, passed) for check, passed, _ in checks] == \
            [(f"isomorphic_s{s}", True) for s in range(3)]
        checks = list(_isomorphic_checks(parse_degree("p2:4"), ["p1xp1:2,4", "bl2:4,1,1"]))
        assert checks == [(f"isomorphic_s{s}", False, {"differ": ["p1xp1:2,4"]})
                          for s in range(5)]  # bl2:4,1,1 has n = 9

    def test_quick_passes(self, capsys):
        code, out = run(capsys, "verify", "--scope", "quick")
        report = json.loads(out)
        assert code == 0
        assert report["ok"] and report["failures"] == []

    def test_mutation_detected(self, capsys, monkeypatch):
        # an off-by-one in the type-A factor must trip the rank invariant
        import gwfloor.multiplicity as mult
        real_gamma = mult.gamma

        def broken_gamma(m, i):
            return real_gamma(m + 1, i)

        monkeypatch.setattr(mult, "gamma", broken_gamma)
        from gwfloor.counting import verify_rank_and_signatures
        from gwfloor.degrees import parse_degree
        from gwfloor.gwring import ResidualNotInSpan
        clear_count_caches()  # a row cached before the patch would hide it
        try:
            report = verify_rank_and_signatures(parse_degree("p2:3"))
        except ResidualNotInSpan:
            return  # corrupted count no longer fits the table format: caught
        finally:
            clear_count_caches()
        assert not report["rank_constant"] or not report["rank_matches_kontsevich"]
