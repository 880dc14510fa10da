"""Command line surface: count, table, enumerate, verify.

Text output mirrors the h / beta / <1> notation of the result tables;
--format json and csv give stable machine-readable records.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import gwring
from .counting import count, default_pairs, merged_classes, verify_merge_invariance, \
    verify_rank_and_signatures, verify_square_substitution
from .degrees import InvalidDegree, n_delta, parse_degree
from .gwring import BetaForm, ResidualNotInSpan
from .tables import FULL_EXTRA_SPECS, KNOWN_COUNTS, QUICK_SPECS

EXIT_PARSE = 2
EXIT_RESIDUAL = 3


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


_TERM_RE = re.compile(
    r"^(?P<coeff>-?\d*)\s*(?P<kind>h|(?:β|b)\^\{?\((?P<level>\d+)\)\}?|(?:⟨|<)1(?:⟩|>))$")


def parse_beta_text(text: str, s: int) -> BetaForm:
    """Inverse of render_beta_form (both unicode and ascii variants)."""
    h_coeff, one_coeff = 0, 0
    betas = [0] * s
    if text.strip() == "0":
        return BetaForm(0, tuple(betas), 0)
    for raw in text.split("+"):
        m = _TERM_RE.match(raw.strip())
        if not m:
            raise ValueError(f"cannot parse term {raw.strip()!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") not in ("", "-") \
            else (-1 if m.group("coeff") == "-" else 1)
        kind = m.group("kind")
        if kind == "h":
            h_coeff += coeff
        elif m.group("level"):
            betas[int(m.group("level")) - 1] += coeff
        else:
            one_coeff += coeff
    return BetaForm(h_coeff, tuple(betas), one_coeff)


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


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    """Parse 1-based "1,2;3,4" into 0-based position pairs."""
    pairs = []
    for chunk in text.split(";"):
        a, b = (int(x) for x in chunk.split(","))
        pairs.append((a - 1, b - 1))
    return pairs


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strip_timing(record: dict) -> dict:
    # json output is byte-identical across runs; wall clock stays in csv
    return {k: v for k, v in record.items() if k != "ms"}


def _run_count(args) -> int:
    spec = parse_degree(args.spec)
    pairs = _parse_pairs(args.pairs) if args.pairs else None
    s = args.pairs_count if args.pairs_count is not None else \
        (len(pairs) if pairs else 0)
    t0 = time.monotonic()
    result = count(spec, s, pairs, workers=args.threads)
    ms = (time.monotonic() - t0) * 1000
    record = output_record(result, ms)
    if args.format == "json":
        _emit(json.dumps(_strip_timing(record), sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        _emit(_csv_rows([record]), args.out)
    else:
        _emit(render_beta_form(result.beta_form, args.ascii) + "\n", args.out)
    return 0


def _run_table(args) -> int:
    spec = parse_degree(args.spec)
    n = n_delta(spec)
    records, lines = [], []
    for s in range(n // 2 + 1):
        t0 = time.monotonic()
        result = count(spec, s, workers=args.threads)
        ms = (time.monotonic() - t0) * 1000
        records.append(output_record(result, ms))
        lines.append(f"({result.r}, {s})  "
                     f"{render_beta_form(result.beta_form, args.ascii)}")
    if args.format == "json":
        _emit(json.dumps([_strip_timing(r) for r in records],
                         sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        _emit(_csv_rows(records), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_enumerate(args) -> int:
    spec = parse_degree(args.spec)
    pairs = tuple(_parse_pairs(args.pairs)) if args.pairs else \
        default_pairs(args.pairs_count or 0)
    lines = [json.dumps({
        "positions": list(range(1, m.base.n + 1)),
        "colors": list(m.base.colors),
        "leaks": [list(v) if v is not None else None for v in m.base.leaks],
        "edges": [[u + 1, v + 1, w] for u, v, w in m.base.edges],
        "ends": [[p + 1, ("in" if d < 0 else "out")] for p, d in m.base.ends],
        "pairs": [[a + 1, b + 1] for a, b in m.pairs],
        "classification": [list(c) for c in m.classification],
    }, sort_keys=True) for m in merged_classes(spec, pairs)]
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _verify_one_spec(spec_str: str, check_table: bool, failures: list) -> int:
    spec = parse_degree(spec_str)
    checks = 0
    report = verify_rank_and_signatures(spec)
    for key in ("rank_constant", "signature_constant", "shustin_matches_one_coeff"):
        checks += 1
        if not report[key]:
            failures.append({"spec": spec_str, "check": key})
    if "rank_matches_kontsevich" in report:
        checks += 1
        if not report["rank_matches_kontsevich"]:
            failures.append({"spec": spec_str, "check": "rank_matches_kontsevich"})
    for s in range(1, n_delta(spec) // 2 + 1):
        checks += 1
        if not verify_square_substitution(spec, s):
            failures.append({"spec": spec_str, "check": f"square_substitution_s{s}"})
    if check_table and spec_str in KNOWN_COUNTS:
        for s, (hc, betas, c0) in KNOWN_COUNTS[spec_str].items():
            checks += 1
            form = count(spec, s).beta_form
            if (form.h_coeff, form.beta_coeffs, form.one_coeff) != (hc, betas, c0):
                failures.append({"spec": spec_str, "check": f"table_row_s{s}",
                                 "got": [form.h_coeff, list(form.beta_coeffs),
                                         form.one_coeff]})
    return checks


def _run_verify(args) -> int:
    # quick: every property for n <= 9; full adds the table reproductions.
    failures: list = []
    checks = 0
    tables = args.scope == "full"
    for spec_str in QUICK_SPECS:
        checks += _verify_one_spec(spec_str, tables, failures)
    for spec_str, s_max in (("p2:3", 2), ("p1xp1:2,2", 2)):
        for s in range(1, s_max + 1):
            checks += 1
            if not verify_merge_invariance(parse_degree(spec_str), s):
                failures.append({"spec": spec_str, "check": f"merge_invariance_s{s}"})
    if args.scope == "full":
        for spec_str in FULL_EXTRA_SPECS:
            checks += _verify_one_spec(spec_str, True, failures)
    report = {"scope": args.scope, "checks": checks,
              "failures": failures, "ok": not failures}
    _emit(json.dumps(report, sort_keys=True) + "\n", args.out)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwfloor",
        description="Quadratically enriched counts of rational curves on "
                    "toric del Pezzo surfaces via floor diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=True):
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--ascii", action="store_true")
        p.add_argument("--out", default=None, metavar="FILE")
        if with_format:
            p.add_argument("--format", choices=["text", "json", "csv"],
                           default="text")

    p = sub.add_parser("count", help="count one (degree, s) cell")
    p.add_argument("spec")
    p.add_argument("--pairs-count", type=int, default=None)
    p.add_argument("--pairs", default=None,
                   help="explicit 1-based adjacent pairs, e.g. '1,2;3,4'")
    common(p)
    p.set_defaults(func=_run_count)

    p = sub.add_parser("table", help="all rows s = 0..n/2 of a degree")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=_run_table)

    p = sub.add_parser("enumerate", help="emit merged-diagram classes as JSON")
    p.add_argument("spec")
    p.add_argument("--pairs-count", type=int, default=None)
    p.add_argument("--pairs", default=None)
    p.add_argument("--emit", action="store_true",
                   help="accepted for compatibility; JSON is always emitted")
    common(p, with_format=False)
    p.set_defaults(func=_run_enumerate)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--scope", choices=["quick", "full"], default="quick")
    common(p, with_format=False)
    p.set_defaults(func=_run_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidDegree, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResidualNotInSpan as exc:
        print(f"error: count outside table format: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
