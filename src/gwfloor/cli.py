"""Command line surface: count, table, enumerate, verify.

Text output mirrors the h / beta / <1> notation of the result tables;
--format json and csv give stable machine-readable records.

verify runs groups of checks through one loop: per spec, its report keys,
d_s := 1 per s and (full scope) its published rows; per spec and s, merge
invariance; per plane degree past the tables, the s = 0 Kontsevich rank
and Welschinger invariant; per placement, its count against the default
one; per group of degrees on isomorphic surfaces, their rows per s.  Each
group is a generator of (check, passed, extra failure fields).  A count
outside the table format (ResidualNotInSpan) or a row whose orbit
weights are not whole classes (OrbitWeightError) ends its group: the
group then counts as one check, a failed "residual_not_in_span" resp.
"orbit_weights_not_whole" carrying the error text, after the failures it
already found, and the remaining groups still run.  No verify row has a
twin elevator of odd weight >= 3, so only unit tests check that branch
of `multiplicity.twin_edge_mult`.  Two on-demand probes look and find
none: `tests/odd_twins.py` streams the default and the shifted cover of
every degree with n <= 13 and at most 200 000 diagrams, plus p2:5, and
`tests/degree6.py` scans the p2:6 default cover; verify's other covers
(merge invariance) have no weight 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import gwring
from .counting import OrbitWeightError, count, kontsevich, merged_classes, resolve_pairs, \
    verify_merge_invariance, verify_rank_and_signatures, verify_square_substitution
from .degrees import n_delta, parse_degree
from .diagrams import OverBudget, _named, count_diagrams
from .gwring import BetaForm, ResidualNotInSpan, equals_mod
from .tables import FULL_EXTRA_SPECS, FULL_KONTSEVICH_SPECS, FULL_PLACEMENTS, \
    ISOMORPHIC_SPECS, KNOWN_COUNTS, KNOWN_WELSCHINGER, MERGE_INVARIANCE_SPECS, QUICK_SPECS

EXIT_PARSE = 2
EXIT_RESIDUAL = 3
EXIT_BUDGET = 4

# the errors that end a verify group, by the failed check they count as
GROUP_ENDING = {ResidualNotInSpan: "residual_not_in_span",
                OrbitWeightError: "orbit_weights_not_whole"}


def render_beta_form(form: BetaForm, ascii_mode: bool = False) -> str:
    beta = "b" if ascii_mode else "β"
    one = "<1>" if ascii_mode else "⟨1⟩"
    sup = (lambda l: f"^({l})") if ascii_mode else (lambda l: f"^{{({l})}}")
    parts = []
    if form.h_coeff:
        parts.append(f"{form.h_coeff}h" if form.h_coeff != 1 else "h")
    for l in range(len(form.beta_coeffs), 0, -1):
        c = form.beta_coeffs[l - 1]
        if c:
            head = "" if c == 1 else f"{c}"
            parts.append(f"{head}{beta}{sup(l)}")
    if form.one_coeff:
        head = "" if form.one_coeff == 1 else f"{form.one_coeff}"
        parts.append(f"{head}{one}")
    return " + ".join(parts) if parts else "0"


def output_record(result, duration_ms: float) -> dict:
    return {
        "family": result.spec.family,
        "params": list(result.spec.params),
        "r": result.r,
        "s": result.s,
        "h": result.beta_form.h_coeff,
        "beta": list(result.beta_form.beta_coeffs),
        "c0": result.beta_form.one_coeff,
        "rank": result.rank,
        "sig_pos": result.signature_all_positive,
        "sig_neg": result.signature_all_negative,
        "classes": result.class_count,
        "ms": round(duration_ms, 3),
        "total": gwring.to_json_dict(result.total),
    }


def _csv_rows(records: list[dict]) -> str:
    s_max = max(len(r["beta"]) for r in records)
    header = ["family", "params", "r", "s", "h"] + \
        [f"c{l}" for l in range(1, s_max + 1)] + \
        ["c0", "rank", "sig_pos", "sig_neg", "classes", "ms"]
    lines = [",".join(header)]
    for r in records:
        betas = [str(c) for c in r["beta"]] + [""] * (s_max - len(r["beta"]))
        row = [r["family"], ";".join(map(str, r["params"])), str(r["r"]),
               str(r["s"]), str(r["h"])] + betas + \
            [str(r["c0"]), str(r["rank"]), str(r["sig_pos"]),
             str(r["sig_neg"]), str(r["classes"]), str(r["ms"])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _parse_pairs(text: str | None) -> list[tuple[int, int]] | None:
    """Parse 1-based "1,2;3,4" into 0-based position pairs, unchecked
    (`diagrams.check_pairs` checks them), None into None; ValueError,
    naming the chunk as typed, unless each chunk is two runs of ASCII
    digits >= 1."""
    if text is None:
        return None
    pairs = []
    for chunk in text.split(";"):
        parts = [x.strip() for x in chunk.split(",")]
        if len(parts) != 2 or not all(x.isascii() and x.isdigit() and int(x) >= 1
                                      for x in parts):
            raise ValueError(f"--pairs chunk {chunk!r} is not two positions >= 1")
        a, b = map(int, parts)
        pairs.append((a - 1, b - 1))
    return pairs


def _strip_timing(record: dict) -> dict:
    # json output is byte-identical across runs; wall clock stays in csv
    return {k: v for k, v in record.items() if k != "ms"}


def _parse_within_budget(args):
    """The degree of args.spec; OverBudget past --max-diagrams, before any diagram is built."""
    spec = parse_degree(args.spec)
    if args.max_diagrams is not None:
        count_diagrams(spec, args.max_diagrams)
    return spec


def _run_count(args) -> tuple[str, int]:
    spec = _parse_within_budget(args)
    t0 = time.monotonic()
    result = count(spec, args.pairs_count, _parse_pairs(args.pairs))
    ms = (time.monotonic() - t0) * 1000
    record = output_record(result, ms)
    if args.format == "json":
        return json.dumps(_strip_timing(record), sort_keys=True) + "\n", 0
    if args.format == "csv":
        return _csv_rows([record]), 0
    return render_beta_form(result.beta_form, args.ascii) + "\n", 0


def _run_table(args) -> tuple[str, int]:
    spec = _parse_within_budget(args)
    n = n_delta(spec)
    gwring._check_params(n // 2)  # before the first row: a class mask holds d bits 1..32
    records, lines = [], []
    for s in range(n // 2 + 1):
        t0 = time.monotonic()
        result = count(spec, s)
        ms = (time.monotonic() - t0) * 1000
        records.append(output_record(result, ms))
        lines.append(f"({result.r}, {s})  "
                     f"{render_beta_form(result.beta_form, args.ascii)}")
    if args.format == "json":
        return json.dumps([_strip_timing(r) for r in records], sort_keys=True) + "\n", 0
    if args.format == "csv":
        return _csv_rows(records), 0
    return "\n".join(lines) + "\n", 0


def _run_enumerate(args) -> tuple[str, int]:
    spec = _parse_within_budget(args)
    pairs = resolve_pairs(spec, args.pairs_count, _parse_pairs(args.pairs))
    lines = [json.dumps({
        "positions": list(range(1, d.n + 1)),
        "colors": list(d.colors),
        "leaks": [list(v) if v is not None else None for v in d.leaks],
        "edges": [[u + 1, v + 1, w] for u, v, w in d.edges],
        "ends": [[p + 1, ("in" if end < 0 else "out")] for p, end in d.ends],
        "pairs": [[a + 1, b + 1] for a, b in pairs],
        "classification": [list(c) for c in labels.classification],
    }, sort_keys=True) for d, labels in merged_classes(spec, pairs)]
    return "\n".join(lines) + ("\n" if lines else ""), 0


def _spec_checks(spec, check_table: bool):
    """The report keys, d_s := 1 per s, then the published rows if asked."""
    report = verify_rank_and_signatures(spec)
    for key in ("rank_constant", "signature_constant", "shustin_matches_one_coeff",
                "rank_matches_kontsevich"):
        if key in report:
            yield key, report[key], {}
    for s in range(1, n_delta(spec) // 2 + 1):
        yield f"square_substitution_s{s}", verify_square_substitution(spec, s), {}
    if check_table:
        for s, row in KNOWN_COUNTS.get(str(spec), {}).items():
            form = count(spec, s).beta_form
            yield f"table_row_s{s}", (form.h_coeff, form.beta_coeffs, form.one_coeff) == row, \
                {"got": [form.h_coeff, list(form.beta_coeffs), form.one_coeff]}


def _merge_invariance_checks(spec, s: int):
    yield f"merge_invariance_s{s}", verify_merge_invariance(spec, s), {}


def _kontsevich_checks(spec, _):
    """The s = 0 rank against Kontsevich's N_d, its signature against W_d."""
    res = count(spec, 0)
    yield "rank_matches_kontsevich_s0", res.rank == kontsevich(spec.params[0]), {}
    yield "welschinger_s0", res.signature_all_positive == KNOWN_WELSCHINGER[str(spec)], \
        {"got": res.signature_all_positive}


def _placement_checks(spec, pairs):
    s = len(pairs)
    yield f"merge_invariance_s{s}_pairs_{_named(pairs)}", \
        equals_mod(count(spec, s, list(pairs)).total, count(spec, s).total), {}


def _isomorphic_checks(spec, others):
    """Per s, the row of each degree on an isomorphic surface against spec's."""
    degrees = [parse_degree(other) for other in others]
    for s in range(min(n_delta(degree) for degree in [spec, *degrees]) // 2 + 1):
        form = count(spec, s).beta_form
        differ = [str(degree) for degree in degrees if count(degree, s).beta_form != form]
        yield f"isomorphic_s{s}", not differ, {"differ": differ}


def _run_verify(args) -> tuple[str, int]:
    # quick: every property for n <= 9; full adds the table reproductions,
    # degrees past the tables, a weight-2 twin elevator placement and the
    # isomorphic-surface identities.
    full = args.scope == "full"
    groups = [(_spec_checks, spec_str, full) for spec_str in QUICK_SPECS]
    # one group per s, so that a residual at one s leaves the others checked
    groups += [(_merge_invariance_checks, spec_str, s)
               for spec_str, s_max in MERGE_INVARIANCE_SPECS for s in range(1, s_max + 1)]
    if full:
        groups += [(_spec_checks, spec_str, True) for spec_str in FULL_EXTRA_SPECS]
        groups += [(_kontsevich_checks, spec_str, None) for spec_str in FULL_KONTSEVICH_SPECS]
        groups += [(_placement_checks, spec_str, pairs) for spec_str, pairs in FULL_PLACEMENTS]
        groups += [(_isomorphic_checks, specs[0], specs[1:]) for specs in ISOMORPHIC_SPECS]
    failures: list = []
    checks = 0
    for family, spec_str, arg in groups:
        start = checks
        try:
            for check, passed, extra in family(parse_degree(spec_str), arg):
                checks += 1
                if not passed:
                    failures.append({"spec": spec_str, "check": check, **extra})
        except tuple(GROUP_ENDING) as exc:
            checks = start + 1
            failures.append({"spec": spec_str, "check": GROUP_ENDING[type(exc)],
                             "error": str(exc)})
    report = {"scope": args.scope, "checks": checks,
              "failures": failures, "ok": not failures}
    return json.dumps(report, sort_keys=True) + "\n", 0 if not failures else 1


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwfloor",
        description="Quadratically enriched counts of rational curves on "
                    "toric del Pezzo surfaces via floor diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    # one parent parser per flag group, so that each option is declared once
    spec, pairs, out, budget, fmt, scope = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    spec.add_argument("spec")
    pairs.add_argument("--pairs-count", type=int)
    pairs.add_argument("--pairs", help="explicit 1-based adjacent pairs, e.g. '1,2;3,4'")
    out.add_argument("--out", metavar="FILE")
    budget.add_argument("--max-diagrams", type=_non_negative, metavar="N",
                        help="exit 4 if the degree has more than N floor diagrams")
    fmt.add_argument("--ascii", action="store_true")
    fmt.add_argument("--format", choices=["text", "json", "csv"], default="text")
    scope.add_argument("--scope", choices=["quick", "full"], default="quick")

    for name, help_text, parents, run in [
            ("count", "count one (degree, s) cell", [spec, pairs, out, budget, fmt], _run_count),
            ("table", "all rows s = 0..n/2 of a degree", [spec, out, budget, fmt], _run_table),
            ("enumerate", "emit merged-diagram classes as JSON", [spec, pairs, out, budget],
             _run_enumerate),
            ("verify", "run the verification suite", [scope, out], _run_verify)]:
        sub.add_parser(name, help=help_text, parents=parents).set_defaults(func=run)
    return parser


def _check_out(path: str) -> None:
    """Raise the OSError that writing path would, creating and truncating
    nothing; pipes, devices and dangling links are left to the write."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        if os.path.isfile(path) or os.path.isdir(path):
            os.close(os.open(path, os.O_WRONLY))
    else:
        os.remove(path)


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its text to stdout or --out; every error
    becomes one `error:` line on stderr and an exit code.  An --out that
    cannot be written fails before the command runs."""
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)  # before the command, so that it fails fast
        text, code = args.func(args)
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(text)
            return code
    except OSError as exc:  # the commands open no file but --out
        message, code = f"cannot write --out {args.out}: {exc.strerror}", EXIT_PARSE
    except ValueError as exc:  # InvalidDegree is one
        message, code = str(exc), EXIT_PARSE
    except ResidualNotInSpan as exc:
        message, code = f"count outside table format: {exc}", EXIT_RESIDUAL
    except OrbitWeightError as exc:
        message, code = str(exc), EXIT_RESIDUAL
    except OverBudget as exc:
        message, code = f"{exc}, more than --max-diagrams {args.max_diagrams}", EXIT_BUDGET
    except MemoryError:
        what = args.spec if args.command != "verify" else f"--scope {args.scope}"
        message, code = f"out of memory on {args.command} {what}", EXIT_BUDGET
    else:
        sys.stdout.write(text)
        return code
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
