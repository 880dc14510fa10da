"""Orchestration: full quadratically enriched counts and verification.

count() folds the quadratic multiplicities of all merged-diagram classes
of a degree, presents the total in the h / beta^{(l)} / <1> basis, and
records rank and the constant-sign signature specializations.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from . import gwring
from .degrees import DegreeSpec, n_delta
from .diagrams import FloorDiagram, MergedFloorDiagram, check_pairs, enumerate_diagrams, \
    merge
from .gwring import BetaForm, GwElem, beta_decompose, equals_mod
from .multiplicity import diagram_mult


@dataclass(frozen=True)
class CountResult:
    spec: DegreeSpec
    r: int
    s: int
    total: GwElem
    beta_form: BetaForm
    rank: int
    signature_all_positive: int
    signature_all_negative: int
    class_count: int


def default_pairs(s: int) -> tuple[tuple[int, int], ...]:
    """Leftmost disjoint adjacent pairs (0-based): (0,1), (2,3), ..."""
    return tuple((2 * i, 2 * i + 1) for i in range(s))


@lru_cache(maxsize=None)
def _diagram_index(spec: DegreeSpec) -> dict[FloorDiagram, int]:
    return {d: i for i, d in enumerate(enumerate_diagrams(spec))}


@lru_cache(maxsize=None)
def _swap_partners(spec: DegreeSpec, a: int) -> tuple[int | None, ...]:
    """Per enumerated diagram, the index of its (a, a+1)-swap, or None."""
    index = _diagram_index(spec)
    return tuple(index.get(d.swapped(a)) for d in enumerate_diagrams(spec))


@lru_cache(maxsize=256)
def merged_classes(spec: DegreeSpec,
                   pairs: tuple[tuple[int, int], ...]) -> tuple[MergedFloorDiagram, ...]:
    """One classified representative per merged-diagram class, first-seen order.

    A class is an orbit of the enumerated diagrams under exchanging the two
    positions of any subset of the pairs; its representative is its first
    diagram.  Classes are the components of a union-find over single swaps:
    the pairs are disjoint and adjacent, so swapping (a, a+1) changes only
    the order of a and a+1, and each validity condition at a vertex depends
    only on whether its own pair is swapped.  So if d and g.d are both
    valid, so is every diagram on a single-swap path between them, and it
    is enumerated.
    """
    pairs = check_pairs(pairs, n_delta(spec))
    diagrams = enumerate_diagrams(spec)
    root = list(range(len(diagrams)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, _ in pairs:
        for i, j in enumerate(_swap_partners(spec, a)):
            if j is not None:
                ri, rj = find(i), find(j)
                root[max(ri, rj)] = min(ri, rj)
    return tuple(merge(d, pairs) for i, d in enumerate(diagrams) if find(i) == i)


def _class_mult(args) -> GwElem:
    merged_diagram, s = args
    return diagram_mult(merged_diagram, s)


def count(spec: DegreeSpec, s: int,
          pair_positions: list[tuple[int, int]] | None = None,
          workers: int = 1) -> CountResult:
    n = n_delta(spec)
    if not 0 <= 2 * s <= n:
        raise ValueError(f"need 0 <= 2s <= n({spec}) = {n}, got s = {s}")
    pairs = default_pairs(s) if pair_positions is None \
        else tuple(sorted(tuple(sorted(p)) for p in pair_positions))
    if len(pairs) != s:
        raise ValueError(f"expected {s} pairs, got {len(pairs)}")
    reps = merged_classes(spec, pairs)
    if workers > 1 and len(reps) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            mults = list(pool.map(_class_mult, [(m, s) for m in reps],
                                  chunksize=max(1, len(reps) // workers)))
    else:
        mults = [diagram_mult(m, s) for m in reps]
    total = GwElem.zero(s)
    for e in mults:
        total = total + e
    form = beta_decompose(total)
    return CountResult(
        spec=spec, r=n - 2 * s, s=s, total=total, beta_form=form,
        rank=total.rank(),
        signature_all_positive=total.signature({i: 1 for i in range(1, s + 1)}),
        signature_all_negative=total.signature({i: -1 for i in range(1, s + 1)}),
        class_count=len(reps),
    )


@lru_cache(maxsize=None)
def kontsevich(d: int) -> int:
    """Number of rational plane curves of degree d through 3d-1 points."""
    if d < 1:
        raise ValueError("degree must be positive")
    if d == 1:
        return 1
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        total += kontsevich(d1) * kontsevich(d2) * (
            d1 * d1 * d2 * d2 * math.comb(3 * d - 4, 3 * d1 - 2)
            - d1 ** 3 * d2 * math.comb(3 * d - 4, 3 * d1 - 1))
    return total


def _reindex_drop_last(e: GwElem, s: int) -> GwElem:
    """View an element of GW over d_1..d_s with d_s inert as one over d_1..d_{s-1}.

    Raises IndexError when d_s occurs in e.
    """
    return GwElem.from_coeffs(e.terms, s - 1)


def verify_square_substitution(spec: DegreeSpec, s: int) -> bool:
    """Setting d_s := 1 in the s-point count yields the (s-1)-point count."""
    if s == 0:
        return True
    bigger = count(spec, s).total.substitute_square(s)
    smaller = count(spec, s - 1).total
    return equals_mod(_reindex_drop_last(bigger, s), smaller)


def verify_merge_invariance(spec: DegreeSpec, s: int) -> bool:
    """The count does not depend on which adjacent position pairs merge."""
    n = n_delta(spec)
    baseline = None
    for pairs in _disjoint_adjacent_pairs(n, s):
        total = count(spec, s, list(pairs)).total
        if baseline is None:
            baseline = total
        elif not equals_mod(total, baseline):
            return False
    return True


def _disjoint_adjacent_pairs(n: int, s: int, start: int = 0):
    if s == 0:
        yield ()
        return
    for a in range(start, n - 1):
        for rest in _disjoint_adjacent_pairs(n, s - 1, a + 2):
            yield ((a, a + 1),) + rest


def verify_rank_and_signatures(spec: DegreeSpec) -> dict:
    """Rank and all-positive signature are constant in s; the all-negative
    signature equals the <1>-coefficient of the beta presentation."""
    n = n_delta(spec)
    report = {
        "spec": str(spec), "rows": [], "rank_constant": True,
        "signature_constant": True, "shustin_matches_one_coeff": True,
    }
    rank0 = sig0 = None
    for s in range(n // 2 + 1):
        res = count(spec, s)
        row = {
            "r": res.r, "s": s, "rank": res.rank,
            "sig_pos": res.signature_all_positive,
            "sig_neg": res.signature_all_negative,
            "one_coeff": res.beta_form.one_coeff,
        }
        report["rows"].append(row)
        rank0 = res.rank if rank0 is None else rank0
        sig0 = res.signature_all_positive if sig0 is None else sig0
        if res.rank != rank0:
            report["rank_constant"] = False
        if res.signature_all_positive != sig0:
            report["signature_constant"] = False
        if res.signature_all_negative != res.beta_form.one_coeff:
            report["shustin_matches_one_coeff"] = False
    report["rank"] = rank0
    report["welschinger_sequence"] = [row["sig_neg"] for row in report["rows"]]
    if spec.family == "p2":
        report["kontsevich"] = kontsevich(spec.params[0])
        report["rank_matches_kontsevich"] = report["kontsevich"] == rank0
    return report


def witt_compare(spec1: DegreeSpec, spec2: DegreeSpec, s: int) -> GwElem:
    """Difference of the two counts reduced modulo the hyperbolic form.

    The returned element represents the Witt-ring class; compare it with
    equals_mod against a multiple of <1>.
    """
    diff = count(spec1, s).total - count(spec2, s).total
    n = diff.coeff(gwring.GwMonomial(1, (), -1))
    return diff - n * gwring.h(s)
