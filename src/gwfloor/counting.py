"""Orchestration: full quadratically enriched counts and verification.

count() folds the quadratic multiplicities of all merged-diagram classes
of a degree, summing each row's distinct local-factor signatures, times
their numbers of classes, in split form (`multiplicity.row_mult`); it
presents the total in the h / beta^{(l)} / <1> basis, and records rank
and the constant-sign signature specializations.

A row with pairs sums orbit weights: a diagram with T twin trees and j
pairs joined by an edge adds 2^(T + j) to its signature, and each sum
divided by 2^s is that signature's number of classes (OrbitWeightError
unless every division is exact).  A class's members share its profile,
so one orbit pass (`_orbits`) classifies (`diagrams.classify`) only the
first diagram of each class, under the cover, and drops the others by
the packed keys of its swaps (3743 classes of 25871 diagrams on p2:5).
All rows of a cover are tallied from that pass (`_cover_tallies`), each
over the distinct class profiles (1320 on p2:5), restricting the labels
to the row (`_restrict`), which is exact by the argument at the end of
the `diagrams` docstring: the cover of a default row is the full default
placement default_pairs(n // 2), whose first s pairs are the row's, and
the cover of any other placement is its pairs.  The cover's sums are
cached, so its rows share one pass; each row divides its sums once
(`_signature_tally`), and no labels or profile outlive the pass.

Each row is computed once per (degree, pairs) and cached (`_row`), as
verify reads every row two or three times; a row that raises is not
cached, so it raises again on every read.

merged_classes() lists the representatives of the same pass, for
`enumerate`, with their labels under the row's pairs.

The s = 0 row has no pairs, so each class is one diagram, whose
multiplicity is the product of m_a1 over its edges.  count() sums it as
a path sum over the sweep-state graph (`diagrams._state_graph`, cached
per degree; `_edge_product_sum`) and takes the root's path count as the
class count, building no diagram.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache

from . import diagrams, multiplicity
from .degrees import DegreeSpec, n_delta
from .diagrams import FloorDiagram, PairLabels, _state_graph, check_pairs, \
    count_diagrams, enumerate_diagrams
from .gwring import BetaForm, GwElem, beta_decompose, equals_mod, split, split_mul, \
    split_sum, unsplit
from .multiplicity import absorbed_since, row_mult, row_signature


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


def resolve_pairs(spec: DegreeSpec, s: int | None,
                  pair_positions: list[tuple[int, int]] | None
                  ) -> tuple[tuple[int, int], ...]:
    """The checked pairs of an s-point count of the degree.

    None stands for default_pairs(s) resp. for s = the number of given
    pairs.  ValueError unless 0 <= 2s <= n and the pairs are s disjoint
    adjacent position pairs.
    """
    n = n_delta(spec)
    if s is None:
        s = 0 if pair_positions is None else len(pair_positions)
    if not 0 <= 2 * s <= n:
        raise ValueError(f"need 0 <= 2s <= n({spec}) = {n}, got s = {s}")
    pairs = default_pairs(s) if pair_positions is None \
        else check_pairs(pair_positions, n)
    if len(pairs) != s:
        raise ValueError(f"expected {s} pairs, got {len(pairs)}")
    return pairs


def _restrict(labels: PairLabels, s: int) -> PairLabels:
    """The labels of the cover's first s pairs, from the cover's labels.

    The row's twin trees are the cover's trees on points <= s, in order
    and renumbered; a pair of a dropped tree is free.
    """
    classification, trees = labels
    kept = {t: k for k, t in enumerate(
        t for t, tree in enumerate(trees) if tree.point_indices[-1] <= s)}
    return PairLabels(tuple(label if label[0] != "twin" else
                            ("twin", kept[label[1]]) if label[1] in kept else ("free",)
                            for label in classification[:s]),
                      tuple(trees[t] for t in kept))


class OrbitWeightError(Exception):
    """The orbit weights of a signature do not sum to whole classes, which
    no correct labelling allows."""


def _named(pairs: tuple[tuple[int, int], ...]) -> str:
    """The pairs as the command line takes them: 1-based, "a,b;c,d"."""
    return ";".join(f"{a + 1},{b + 1}" for a, b in pairs)


def _orbits(spec: DegreeSpec, pairs: tuple[tuple[int, int], ...]):
    """(representative, its labels, the packed keys of its class) per
    merged-diagram class, first-seen order.

    A class is an orbit of the enumerated diagrams under exchanging the two
    positions of any subset of the pairs; its first diagram represents it
    and is the only one classified.  The packed key (leaks, edges) is
    complete: leaks fixes the colours, and a black's one edge fixes the
    direction of its end.  The (a, a+1)-swap is valid iff no edge joins a
    and a + 1: such an edge would leave a splice black with both
    neighbours on one side, or an end pointing the wrong way; without one,
    every edge, end and leak moves with its vertex, so the swap is a floor
    diagram of the degree, keyed by the leaks exchanged and the edges
    relabelled (still ascending) and re-sorted.  The pairs are disjoint, so
    the swaps commute and do not change each other's validity, and the
    swap sets that fix the diagram are the unions of its T twin trees: the
    subsets of its v valid swaps that leave one pair of each tree out
    reach each of its 2^(v - T) members once.  A later member is dropped
    when met, and its key forgotten; a key never met raises
    OrbitWeightError.
    """
    pending: set = set()
    interned: dict = {}  # one relabelled edge triple per value, shared by the keys

    def swap(key, a):
        leaks, edges = key
        moved = {a: a + 1, a + 1: a}
        relabelled = []
        for edge in edges:
            u, v, w = edge
            if u in moved or v in moved:
                edge = (moved.get(u, u), moved.get(v, v), w)
                edge = interned.setdefault(edge, edge)
            relabelled.append(edge)
        relabelled.sort()
        return leaks[:a] + (leaks[a + 1], leaks[a]) + leaks[a + 2:], tuple(relabelled)

    for d in enumerate_diagrams(spec):
        key = (d.leaks, d.edges)
        if key in pending:
            pending.remove(key)
            continue
        # through the module, so that a patched or traced classify is the one used
        labels = diagrams.classify(d, pairs)
        held = {u for u, v, _ in d.edges if v == u + 1}
        held.update(pairs[tree.point_indices[0] - 1][0] for tree in labels.twin_trees)
        images = [key]
        for a, _ in pairs:
            if a not in held:
                images += [swap(image, a) for image in images]
        keys = set(images)
        pending |= keys
        pending.remove(key)
        yield d, labels, keys
    if pending:
        raise OrbitWeightError(f"{spec} with pairs {_named(pairs)}: swaps reach diagrams "
                               f"that were not enumerated ({len(pending)})")


def merged_classes(spec: DegreeSpec, pairs: tuple[tuple[int, int], ...]
                   ) -> tuple[tuple[FloorDiagram, PairLabels], ...]:
    """(representative, its labels) per merged-diagram class, first-seen
    order (see `_orbits`)."""
    return tuple((d, labels) for d, labels, _ in _orbits(spec, check_pairs(pairs, n_delta(spec))))


@lru_cache(maxsize=256)
def _cover_tallies(spec: DegreeSpec, cover: tuple[tuple[int, int], ...]) -> dict:
    """Per row of the cover, its (signature, orbit-weight sum) per
    distinct signature.

    The rows of the default cover are its prefixes cover[:s]; any other
    cover has one row, itself.  Each class is classified once, through
    its representative under the cover (`_orbits`), and reduced to a
    profile: its interned labels, its `multiplicity.absorbed_since` and
    the cover's pairs that an edge joins.  Each row is summed over the
    distinct profiles, weighted by their numbers of diagrams.  A class
    with T twin trees and v = s - j pairs that no edge joins has 2^(v - T)
    diagrams, so weighting each by 2^(T + j) counts every class 2^s times.
    """
    entries: dict = {}  # per distinct cover `PairLabels`, its index
    profiles: Counter = Counter()
    cover_starts = sum(1 << a for a, _ in cover)
    for d, labels, keys in _orbits(spec, cover):
        joined = sum(1 << u for u, v, _ in d.edges if v == u + 1) & cover_starts
        profiles[entries.setdefault(labels, len(entries)), absorbed_since(d, cover, *labels),
                 joined] += len(keys)
    size = len(cover)
    tallies = {}
    for s in range(1, size + 1) if cover == default_pairs(size) else (size,):
        restricted = [_restrict(labels, s) for labels in entries]
        starts = sum(1 << a for a, _ in cover[:s])
        sums: Counter = Counter()
        for (e, absorbed, joined), k in profiles.items():
            classification, trees = restricted[e]
            sums[row_signature(classification, trees, absorbed, s)] += \
                k << (len(trees) + (joined & starts).bit_count())
        tallies[s] = tuple(sums.items())
    return tallies


def _signature_tally(spec: DegreeSpec, pairs: tuple[tuple[int, int], ...]) -> tuple:
    """(signature, number of classes) per distinct signature of the row:
    its cover's orbit-weight sums divided by 2^s, OrbitWeightError at the
    first sum that is no multiple of it."""
    s = len(pairs)
    cover = default_pairs(n_delta(spec) // 2) if pairs == default_pairs(s) else pairs
    tally = []
    for sig, weight in _cover_tallies(spec, cover)[s]:
        k, rest = divmod(weight, 1 << s)
        if rest:
            raise OrbitWeightError(f"{spec} with pairs {_named(pairs)}: the orbit weights of a "
                                   f"signature sum to {weight}, not a multiple of 2^{s}")
        tally.append((sig, k))
    return tuple(tally)


def _edge_product_sum(spec: DegreeSpec) -> GwElem:
    """The sum over the floor diagrams of the product of m_a1 over their edges.

    A diagram is a path of the state graph from the root to the top, and
    each of its edges closes a strand in exactly one move of the path.  So
    the sum is total(root), where total(top) = <1> and total(state) is the
    sum over its kept moves of total(child) times m_a1 of every strand the
    move closes (Stanley's transfer-matrix method).  The moves come in
    post-order, so one forward pass meets every child before its parent.
    The totals are split (`gwring.split`), so an even m_a1 only scales h.
    """
    root, moves, _ = _state_graph(spec)
    n = n_delta(spec)
    # read at call time, so that a patched factor is used, and split once per weight
    m_a1 = cache(lambda w: split(multiplicity.m_a1(w, 0)))
    totals: dict = {}
    for state, kept in moves.items():
        terms = [(1, (0, {0: 1}))] if state[0] == n else []
        for (_, closed, _, _), child in kept:
            term = totals[child]
            for _, w in closed:
                term = split_mul(term, m_a1(w))
            terms.append((1, term))
        totals[state] = split_sum(terms)
    return unsplit(totals[root], 0)


def count(spec: DegreeSpec, s: int,
          pair_positions: list[tuple[int, int]] | None = None) -> CountResult:
    """The s-point count of the degree, with the given pairs or the default ones.

    The pairs are checked on every call (`resolve_pairs`); the row is
    then computed once per (degree, sorted pairs) and cached, so the
    result is shared between callers and its `total` must not be mutated.
    """
    return _row(spec, resolve_pairs(spec, s, pair_positions))


@lru_cache(maxsize=256)
def _row(spec: DegreeSpec, pairs: tuple[tuple[int, int], ...]) -> CountResult:
    """The count of the row of the checked pairs (see `count`), summed by `row_mult`."""
    n = n_delta(spec)
    s = len(pairs)
    if pairs:
        tally = _signature_tally(spec, pairs)
        total = row_mult(tally, s)
        class_count = sum(k for _, k in tally)
    else:
        # each class is one diagram, whose multiplicity is m_a1 per edge
        total, class_count = _edge_product_sum(spec), count_diagrams(spec)
    form = beta_decompose(total)
    return CountResult(
        spec=spec, r=n - 2 * s, s=s, total=total, beta_form=form,
        rank=total.rank(),
        signature_all_positive=total.signature({i: 1 for i in range(1, s + 1)}),
        signature_all_negative=total.signature({i: -1 for i in range(1, s + 1)}),
        class_count=class_count,
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
    totals = (count(spec, s, list(pairs)).total
              for pairs in _disjoint_adjacent_pairs(n_delta(spec), s))
    first = next(totals, None)
    return all(equals_mod(total, first) for total in totals)


def _disjoint_adjacent_pairs(n: int, s: int):
    """Every placement of s disjoint adjacent pairs in n positions, in
    lexicographic order: pair i starts c_i + i for slots c_0 < ... < c_{s-1}
    chosen from the n - s positions left once each pair is one slot."""
    for slots in itertools.combinations(range(n - s), s):
        yield tuple((c + i, c + i + 1) for i, c in enumerate(slots))


def verify_rank_and_signatures(spec: DegreeSpec) -> dict:
    """Rank and all-positive signature are constant in s; the all-negative
    signature equals the <1>-coefficient of the beta presentation."""
    results = [count(spec, s) for s in range(n_delta(spec) // 2 + 1)]
    rows = [{"r": res.r, "s": res.s, "rank": res.rank,
             "sig_pos": res.signature_all_positive,
             "sig_neg": res.signature_all_negative,
             "one_coeff": res.beta_form.one_coeff} for res in results]
    report = {
        "spec": str(spec), "rows": rows,
        "rank_constant": len({row["rank"] for row in rows}) == 1,
        "signature_constant": len({row["sig_pos"] for row in rows}) == 1,
        "shustin_matches_one_coeff": all(row["sig_neg"] == row["one_coeff"] for row in rows),
        "rank": rows[0]["rank"],
        "welschinger_sequence": [row["sig_neg"] for row in rows],
    }
    if spec.family == "p2":
        report["kontsevich"] = kontsevich(spec.params[0])
        report["rank_matches_kontsevich"] = report["kontsevich"] == report["rank"]
    return report
