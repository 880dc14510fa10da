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
and the walk under the cover (`diagrams.walk`) meets the first diagram
of each class and no other (3743 of the 25871 diagrams of p2:5, 405 of
the 1686 of p1xp1:2,5), so one orbit pass (`_orbits`) labels each class
once (`diagrams.label`) from what the walk hands over, the pairs an edge
joins and the pair mask of each twin tree, builds no swap and no
diagram, and weighs each class by the size the walk gives, from those
twin trees; OrbitWeightError unless the sizes sum to the number of
diagrams.  No diagram is cached, so a pass holds one class.  A row's cover
(`_extension`) adds the leftmost pairs that fit in each gap,
default_pairs(n // 2) for a default row; only the distinct profiles of
its pass are cached (1320 on p2:5, `_cover_profiles`), and a row is
summed over them when read (`_signature_tally`), its labels restricted
(`_restrict`, exact by the argument at the end of the `diagrams` docstring).

Each row is computed once per (degree, pairs) and cached (`_row`), as
verify reads every row two or three times; a row that raises is not
cached, so it raises again on every read.

merged_classes() lists the representatives of the same pass, for
`enumerate`, with their labels under the row's pairs; only it builds
the representatives' diagrams (`diagrams.unpack`).

The s = 0 row has no pairs, so each class is one diagram, whose
multiplicity is the product of m_a1 over its edges.  count() sums it as
a path sum over the sweep-state graph (`diagrams._state_graph`, cached
per degree; `_edge_product_sum`) and takes the root's path count as the
class count, building no diagram.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from functools import cache, lru_cache

from . import diagrams, multiplicity
from .degrees import DegreeSpec, n_delta
from .diagrams import FloorDiagram, PairLabels, _named, _state_graph, check_pairs, \
    count_diagrams, unpack, walk
from .gwring import GwElem, _check_params, beta_decompose, equals_mod, one, split_mul, \
    split_sum
from .multiplicity import TwinTreeSummary, row_mult, row_signature


class CountResult(namedtuple("CountResult", "spec r s total beta_form rank signature_all_positive "
                                            "signature_all_negative class_count")):
    """The count of one row: its degree, r + 2s = n, the total (a GwElem)
    and its BetaForm, rank and the two constant-sign signatures, and the
    number of merged-diagram classes."""

    __slots__ = ()


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


def _extension(pairs: tuple[tuple[int, int], ...], n: int) -> tuple[tuple[int, int], ...]:
    """The pairs and, in each gap, the leftmost adjacent pairs that fit."""
    cover, start = [], 0
    for a, b in pairs + ((n, n + 1),):
        cover += [(p, p + 1) for p in range(start, a - 1, 2)] + [(a, b)]
        start = b + 1
    return tuple(cover[:-1])


def _restrict(entry: tuple, row: int, picked: list) -> tuple:
    """(classification, twin trees) of the row from a cover entry (see
    `_cover_profiles`): the row picks cover[i] for i in picked (bits of
    row); its trees are the cover's trees within it, in order, their
    points renumbered to the row's; a pair of a dropped tree is free."""
    classification, trees, masks = entry
    kept = [t for t, mask in enumerate(masks) if mask & row == mask]
    trees = [trees[t] for t in kept]
    if trees and picked[-1] >= len(picked):  # not a prefix of the cover
        rank = {i + 1: k for k, i in enumerate(picked, 1)}
        trees = [TwinTreeSummary(tuple([rank[i] for i in tree.point_indices]), tuple(
            [(m, rank[i]) for m, i in tree.elevator_marks]), tree.m_root,
            tree.unbounded_twin_elevators) for tree in trees]
    return tuple([label if label[0] != "twin" else ("twin", kept.index(label[1])) if label[1]
                  in kept else ("free",) for label in map(classification.__getitem__, picked)]), \
        tuple(trees)


class OrbitWeightError(Exception):
    """The orbit weights of a signature do not sum to whole classes, which
    no correct labelling allows."""


def _orbits(spec: DegreeSpec, pairs: tuple[tuple[int, int], ...]):
    """(packed key, ends, (labels, weights, masks), the class size, the
    bits of the pairs an edge joins) per merged-diagram class, first-seen
    order: the key and ends are the representative's, and the labels and
    the edges' absorbing masks are `diagrams.label`'s.

    A class is an orbit of the diagrams under exchanging the two positions
    of any subset of the pairs; `walk` under the pairs meets its first
    diagram alone, which represents it, and hands over what it found on
    the way: the pairs an edge joins and the pair mask of each twin tree,
    from which the class is labelled without building its diagram.
    The (a, a+1)-swap is valid iff no edge joins a and a + 1: such an edge
    would leave a splice black with both neighbours on one side, or an end
    pointing the wrong way; without one, every edge, end and leak moves
    with its vertex, so the swap is a floor diagram of the degree.  The
    pairs are disjoint, so the swaps commute and do not change each
    other's validity, and the swap sets that fix the diagram are the
    unions of its T twin trees: a class with v valid pairs has 2^(v - T)
    diagrams.  The size counts the walk's trees, not the labels', so a
    labelling that misses a tree shows in the row's orbit weights
    (`_signature_tally`).  OrbitWeightError unless the sizes sum to the
    number of diagrams, which the state graph counts without the walk: a
    single class left out, or met twice, or a tree the walk misses,
    changes the sum.
    """
    total = 0
    for key, ends, joined, trees in walk(spec, pairs):
        size = 1 << len(pairs) - joined.bit_count() - len(trees)
        total += size
        # through the module, so that a patched labeller is the one used
        yield key, ends, diagrams.label(key, pairs, joined, trees), size, joined
    if total != count_diagrams(spec):
        raise OrbitWeightError(f"{spec} with pairs {_named(pairs)}: the classes met hold "
                               f"{total} of the {count_diagrams(spec)} diagrams")


def merged_classes(spec: DegreeSpec, pairs: tuple[tuple[int, int], ...]
                   ) -> tuple[tuple[FloorDiagram, PairLabels], ...]:
    """(representative, its labels) per merged-diagram class, first-seen
    order (see `_orbits`)."""
    return tuple((unpack(key, ends), labels) for key, ends, (labels, _, _), *_
                 in _orbits(spec, check_pairs(pairs, n_delta(spec))))


@lru_cache(maxsize=256)
def _cover_profiles(spec: DegreeSpec, cover: tuple[tuple[int, int], ...]) -> tuple:
    """The cover's distinct labels, as (classification, twin trees, their
    masks), and its distinct profiles, with their numbers of diagrams.  A
    profile is a class's labels (their index), its edges' weights and
    absorbing masks, and the mask of the pairs that an edge joins (bit k
    for cover[k]); each class is labelled once, from the walk, and counts
    its size (`_orbits`), as the walk meets one diagram per class (405 of
    1686 on p1xp1:2,5)."""
    entries: dict = {}  # per distinct cover `PairLabels`, its index
    profiles: Counter = Counter()
    intern = {}.setdefault  # one object per equal label or tuple, to keep the cache small
    for _, _, (labels, weights, masks), size, joined in _orbits(spec, cover):
        profiles[entries.setdefault(labels, len(entries)), intern(weights, weights),
                 intern(masks, masks), joined] += size
    return tuple((tuple([intern(label, label) for label in classification]), trees,
                  tuple([sum(1 << (i - 1) for i in tree.point_indices) for tree in trees]))
                 for classification, trees in entries), tuple(profiles.items())


def _signature_tally(spec: DegreeSpec, pairs: tuple[tuple[int, int], ...]) -> tuple:
    """(signature, number of classes) per distinct signature of the row,
    summed over its cover's profiles: each weighs 2^(T + j) per diagram,
    as a class with T twin trees and v = s - j pairs that no edge joins
    has 2^(v - T) diagrams; OrbitWeightError at the first sum that is no
    multiple of 2^s."""
    s, cover = len(pairs), _extension(pairs, n_delta(spec))
    entries, profiles = _cover_profiles(spec, cover)
    picked = [cover.index(pair) for pair in pairs]
    row = sum(1 << i for i in picked)
    restricted = [_restrict(entry, row, picked) for entry in entries]
    sums: Counter = Counter()
    for (e, weights, masks, joined), k in profiles:
        classification, trees = restricted[e]
        sums[row_signature(classification, trees, weights, masks, row)] += \
            k << (len(trees) + (joined & row).bit_count())
    for weight in sums.values():
        if weight % (1 << s):
            raise OrbitWeightError(f"{spec} with pairs {_named(pairs)}: the orbit weights of a "
                                   f"signature sum to {weight}, not a multiple of 2^{s}")
    return tuple((sig, weight >> s) for sig, weight in sums.items())


def _edge_product_sum(spec: DegreeSpec) -> GwElem:
    """The sum over the floor diagrams of the product of m_a1 over their edges.

    A diagram is a path of the state graph from the root to the top, and
    each of its edges closes a strand in exactly one move of the path.  So
    the sum is total(root), where total(top) = <1> and total(state) is the
    sum over its kept moves of total(child) times m_a1 of every strand the
    move closes (Stanley's transfer-matrix method).  The moves come in
    post-order, so one forward pass meets every child before its parent.
    The totals are in split form (see `gwring`), so an even m_a1 only
    scales h, and a factor equal to <1> is left out.
    """
    root, moves, _ = _state_graph(spec)
    n = n_delta(spec)
    # read at call time, so that a patched factor is used, once per weight
    m_a1, unit = cache(multiplicity.m_a1), one()
    totals: dict = {}
    for state, kept in moves.items():
        terms = [(1, unit)] if state[0] == n else []
        for (_, closed, _, _), child in kept:
            term = totals[child]
            for _, w in closed:
                if (f := m_a1(w)) != unit:
                    term = split_mul(term, f)
            terms.append((1, term))
        totals[state] = split_sum(terms)
    return GwElem(*totals[root])


def count(spec: DegreeSpec, s: int | None,
          pair_positions: list[tuple[int, int]] | None = None) -> CountResult:
    """The s-point count of the degree, with the given pairs or the default ones.

    s = None stands for the number of given pairs, 0 without them.  The
    pairs are checked on every call (`resolve_pairs`), and more than
    MAX_PARAMS of them are refused before any graph or walk; the row is
    then computed once per (degree, sorted pairs) and cached, so the
    result is shared between callers and its `total` must not be mutated.
    Only its beta presentation is over s; the total carries the d_i alone.
    """
    pairs = resolve_pairs(spec, s, pair_positions)
    _check_params(len(pairs))
    return _row(spec, pairs)


@lru_cache(maxsize=256)
def _row(spec: DegreeSpec, pairs: tuple[tuple[int, int], ...]) -> CountResult:
    """The count of the row of the checked pairs (see `count`), summed by `row_mult`."""
    n = n_delta(spec)
    s = len(pairs)
    if pairs:
        tally = _signature_tally(spec, pairs)
        total = row_mult(tally)
        class_count = sum(k for _, k in tally)
    else:
        # each class is one diagram, whose multiplicity is m_a1 per edge
        total, class_count = _edge_product_sum(spec), count_diagrams(spec)
    form = beta_decompose(total, s)
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


def verify_square_substitution(spec: DegreeSpec, s: int) -> bool:
    """Setting d_s := 1 in the s-point count yields the (s-1)-point count,
    compared as they are: the substitution leaves no d_s."""
    if s == 0:
        return True
    return equals_mod(count(spec, s).total.substitute_square(s), count(spec, s - 1).total)


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
