"""Floor diagram enumeration, merging, and double-point classification.

A floor diagram is a linearly ordered bipartite weighted tree: white
vertices are floors (carrying leaks), black vertices are the marked
points of elevators, either splicing a bounded elevator between two
floors (valence 2, equal weights) or carrying one unbounded vertical end
plus a weight-1 edge.

Enumeration places the positions bottom-to-top, tracking the elevator
strands that cross the current gap; which leaks a floor may carry
follows from the degree's leak budget and floor count alone.  What the
upper positions can still do depends only on a sweep state: the
position, the counts of floors, leaks and ends placed so far, and the
ordered strands as (origin, weight, stage, component), where origins and
components matter only through equality and are numbered by first
appearance.  `_state_graph` builds the graph of these states once (186
states for p2:5), lists each state's moves in sweep order and keeps a
move only if its child has a completion, counting the paths to the top
per state; it is cached per degree.  `count_diagrams` reads the root's
path count without building a diagram; `enumerate_diagrams` walks the
graph from the root, carrying the concrete origin of each strand, and
emits a diagram at the top of every path, so no branch is a dead end;
`counting.count` sums the s = 0 row over the graph's paths.

The move generators build only children that can still complete.  Every
later black closes a seek-black strand (a splice or an outgoing end) or
is an incoming end, so the floors from here on open room = blacks left -
incoming ends left - seek-black strands strands; the last floor, below
outgoing ends only, leaves no incoming end, closes every seek-white
strand and opens room of weight 1.  Splices and incoming ends open
seek-white strands, so need a floor above; a splice spends no end, so
needs a black besides one per end left.  The floors above a floor carry
at most one leak of each sign each.  On p1xp1:2,5 the build makes 612
children and memoises 289 states, not 2653 and 866, to keep 254; the
p2:5 graph has no dead state (617 children, 186 states).

Merging declares disjoint adjacent position pairs to be double points.
Diagrams that differ by exchanging the two positions of some pairs give
the same merged diagram.  One pass over the enumerated diagrams
(`counting._orbits`) classifies the first diagram of each class and
drops the others, found by the packed keys (leaks, edges) of its swaps;
a count weights each class by its size (`counting._cover_profiles`), and
`counting.merged_classes` lists the representatives.

`check_pairs` checks a pair list, and `classify` labels the pairs of a
diagram: it returns `PairLabels`, one label per pair and the twin-tree
summaries, always both.  A twin tree is two isomorphic strands of merged
pairs hanging from one root elevator pair.  As the diagram is a tree,
removing a floor r splits it into branches; for a black pair (x, y)
joined to r by edges of equal weight, `_twin_trees` walks the branches
at x and at y in step and keeps them as a twin tree when the pairs map
one onto the other; it reads leaks and edges only, as the end of a
black, if any, points away from its one edge.  Equivalently, the twin
trees are the minimal non-empty sets of pairs whose simultaneous swap
leaves the diagram unchanged (`tests/twins.py` checks this); each
distinct summary is built, and checked, once.  Pairs on a twin tree are labelled "twin".
Every other pair is "type_a" if it merges a floor with the adjacent
elevator point, and "free" otherwise.  The labels alone say which edges
a local factor absorbs, so nothing else about them is kept.

So the labels under pairs P follow from those under any pairs F
containing P, which `counting._cover_profiles` uses to classify each
class once per cover and to tally every row within F from the same
labels: for P within F, the sets of pairs within P whose swap fixes
the diagram are those of F that lie in P, so P's twin trees are F's
trees within P.  A pair of one of F's other trees joins two vertices
of one colour, and every edge joins a floor to a black, so under P it
is free; type-A and free labels depend on their pair alone.  No two
labels absorb at the two ends of an edge: the swap of a tree at one end
fixes the other end v, so v joins both twins, a cycle through the tree's
root floor r (if v = r, v is on a second tree, whose swap gives one).
So an edge has one absorbing mask, its label's pairs
(`multiplicity.absorbing_masks`), and P absorbs it iff P holds the mask.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .degrees import DegreeSpec, end_spec, leak_budget, n_delta, white_spec
from .multiplicity import TwinTreeSummary

INCOMING = -1
OUTGOING = 1

# strand stages during the sweep
_SEEK_BLACK = 0   # opened at a white, waiting for its elevator point
_SEEK_WHITE = 1   # opened at a black, waiting for the upper floor


@dataclass(frozen=True)
class FloorDiagram:
    colors: tuple[str, ...]                       # 'w' | 'b' per position
    leaks: tuple[tuple[int, ...] | None, ...]     # sub-multiset of {-1,+1} per white
    edges: tuple[tuple[int, int, int], ...]       # (low pos, high pos, weight)
    ends: tuple[tuple[int, int], ...]             # (pos, INCOMING | OUTGOING)

    @property
    def n(self) -> int:
        return len(self.colors)


def _partitions(rest: int, bound: int, parts_left: int):
    """Weakly decreasing partitions of rest into at most parts_left parts <= bound."""
    if rest == 0:
        yield ()
    elif parts_left:
        for first in range(min(rest, bound), 0, -1):
            for tail in _partitions(rest - first, first, parts_left - 1):
                yield (first,) + tail


def _canonical(strands) -> tuple[tuple[int, int, int, int], ...]:
    """The strands with origins and components numbered by first appearance."""
    origins: dict = {}
    comps: dict = {}
    return tuple((origins.setdefault(o, len(origins)), w, stage, comps.setdefault(c, len(comps)))
                 for o, w, stage, c in strands)


@lru_cache(maxsize=None)
def _state_graph(spec: DegreeSpec) -> tuple[tuple, dict, int]:
    """The root sweep state, the kept moves of each state, and the path count.

    The moves are given for the root and every state with a completion,
    and the path count is the number of paths from the root to the top.

    A state is (position, whites, -1 leaks, +1 leaks, incoming ends,
    outgoing ends, strands), a strand being (origin, weight, stage,
    component) with origins and components numbered by first appearance.
    A move is (leaks or None for a black, closed strands as (index,
    weight), layout, end): the new strands are the old ones at the layout
    indices, -1 standing for a strand that starts at the position.  Moves
    are listed in sweep order and kept only if their child has a completion.
    No child is built that the module docstring's bounds rule out: a floor
    opens at most room strands, as each later black closes a seek-black
    strand or is an incoming end; the last floor leaves no incoming end,
    closes every seek-white strand and opens room of weight 1, as the
    blacks above it are outgoing ends; a splice or an incoming end needs a
    floor above, and a splice a black besides one per end left; the floors
    above carry at most one leak of each sign each.  The dict is in
    post-order: every kept child comes before its parent, and the root
    comes last.  Built once per degree; the dict is shared, so callers
    must not mutate it.
    """
    n = n_delta(spec)
    w_total, _ = white_spec(spec)
    minus_total, plus_total = leak_budget(spec)
    in_total, out_total = end_spec(spec)
    b_total = n - w_total
    complete = (w_total, minus_total, plus_total, in_total, out_total, ())

    def counts(budget):
        # a floor carries a leak only if some floor must, and none only if not all must
        return [0] * (budget < w_total) + [1] * (budget > 0)

    leak_options = [(lm, lp) for lm in counts(minus_total) for lp in counts(plus_total)]

    def white_moves(pos, whites, minus, plus, inc, out, strands):
        open_sw = [i for i, s in enumerate(strands) if s[2] == _SEEK_WHITE]
        floors_after = w_total - whites - 1
        room = b_total - (pos - whites) - (in_total - inc) - (len(strands) - len(open_sw))
        if not floors_after and inc < in_total:
            return  # an incoming end needs a floor above
        for lm, lp in leak_options:
            if not (minus_total - floors_after <= minus + lm <= minus_total
                    and plus_total - floors_after <= plus + lp <= plus_total):
                continue
            leak = (-1,) * lm + (1,) * lp
            for k in range(len(open_sw) + 1) if floors_after else [len(open_sw)]:
                for chosen in itertools.combinations(open_sw, k):
                    comps = {strands[i][3] for i in chosen}
                    if len(comps) != k:
                        continue  # closing two strands of one component: cycle
                    out_flow = sum(strands[i][1] for i in chosen) - (lp - lm)
                    if out_flow < 0 or not (floors_after or out_flow == room):
                        continue
                    # the floor joins the closed components; -1 is a new one
                    comp = min(comps, default=-1)
                    layout = [i for i in range(len(strands)) if i not in chosen]
                    rest = [(o, w, stage, comp if c in comps else c)
                            for o, w, stage, c in (strands[i] for i in layout)]
                    closed = tuple((i, strands[i][1]) for i in chosen)
                    sealed = all(s[3] != comp for s in rest)
                    for parts in _partitions(out_flow, out_flow if floors_after else 1, room):
                        if sealed and not parts and pos != n - 1:
                            continue  # a component closed off below the top
                        yield ((leak, closed, tuple(layout) + (-1,) * len(parts), None),
                               (pos + 1, whites + 1, minus + lm, plus + lp, inc, out,
                                _canonical(rest + [(-1, w, _SEEK_BLACK, comp) for w in parts])))

    def black_moves(pos, whites, minus, plus, inc, out, strands):
        everyone = tuple(range(len(strands)))
        # (a) splice an open elevator strand, one of each (origin, weight)
        seen = set()
        splice = whites < w_total and b_total - (pos - whites) > in_total - inc + out_total - out
        for i, (o, w, stage, c) in enumerate(strands):
            if splice and stage == _SEEK_BLACK and (o, w) not in seen:
                seen.add((o, w))
                new = list(strands)
                new[i] = (-1, w, _SEEK_WHITE, c)
                yield ((None, ((i, w),), everyone[:i] + (-1,) + everyone[i + 1:], None),
                       (pos + 1, whites, minus, plus, inc, out, _canonical(new)))
        # (b) consume an incoming end: a weight-1 strand of a new component
        if whites < w_total and inc < in_total:
            yield ((None, (), everyone + (-1,), INCOMING),
                   (pos + 1, whites, minus, plus, inc + 1, out,
                    _canonical(strands + ((-1, 1, _SEEK_WHITE, -1),))))
        # (c) close a weight-1 strand with an outgoing end, one per origin
        if out < out_total:
            seen = set()
            for i, (o, w, stage, c) in enumerate(strands):
                if stage != _SEEK_BLACK or w != 1 or o in seen:
                    continue
                seen.add(o)
                layout = everyone[:i] + everyone[i + 1:]
                if pos != n - 1 and all(strands[j][3] != c for j in layout):
                    continue  # sealing the component early
                yield ((None, ((i, 1),), layout, OUTGOING),
                       (pos + 1, whites, minus, plus, inc, out + 1,
                        _canonical([strands[j] for j in layout])))

    moves: dict = {}
    paths: dict = {}

    def visit(state) -> int:
        if state in paths:
            return paths[state]
        pos, whites = state[0], state[1]
        kept = []
        if pos == n:
            total = int(state[1:] == complete)
        else:
            if whites < w_total:
                kept += [(m, c) for m, c in white_moves(*state) if visit(c)]
            if pos - whites < b_total:
                kept += [(m, c) for m, c in black_moves(*state) if visit(c)]
            total = sum(paths[c] for _, c in kept)
        moves[state], paths[state] = kept, total
        return total

    root = (0, 0, 0, 0, 0, 0, ())
    total = visit(root)
    # the states without a completion served only the memo; the cache drops them
    return root, {st: kept for st, kept in moves.items() if paths[st] or st == root}, total


def count_diagrams(spec: DegreeSpec) -> int:
    """The number of floor diagrams of the degree, without building any."""
    return _state_graph(spec)[2]


@lru_cache(maxsize=None)
def enumerate_diagrams(spec: DegreeSpec) -> tuple[FloorDiagram, ...]:
    """All floor diagrams of the degree, duplicate-free, in sweep order."""
    root, moves, _ = _state_graph(spec)
    n = n_delta(spec)
    results: list[FloorDiagram] = []

    def walk(state, origins, colors, leaks, edges, ends):
        pos = state[0]
        if pos == n:
            results.append(FloorDiagram(colors, leaks, tuple(sorted(edges)), ends))
            return
        for (leak, closed, layout, end), child in moves[state]:
            walk(child, tuple([pos if j < 0 else origins[j] for j in layout]),
                 colors + ("b" if leak is None else "w",), leaks + (leak,),
                 edges + tuple([(origins[i], pos, w) for i, w in closed]),
                 ends if end is None else ends + ((pos, end),))

    walk(root, (), (), (), (), ())
    return tuple(results)


class PairLabels(NamedTuple):
    """The labels of a diagram's merged pairs, as `classify` finds them.

    classification[k] is ("twin", tree index), ("type_a", elevator weight)
    or ("free",) for pairs[k]; twin_trees[t] summarises twin tree t.
    """

    classification: tuple[tuple, ...]
    twin_trees: tuple[TwinTreeSummary, ...]


def check_pairs(pair_positions: Iterable[tuple[int, int]],
                n: int) -> tuple[tuple[int, int], ...]:
    """Sorted 0-based position pairs; ValueError unless adjacent, disjoint, < n."""
    pairs = tuple(sorted(tuple(sorted(p)) for p in pair_positions))
    used = set()
    for a, b in pairs:
        if not (0 <= a < b < n) or b != a + 1:
            raise ValueError(f"pair ({a},{b}) is not an adjacent position pair")
        if a in used or b in used:
            raise ValueError("merge pairs must be disjoint")
        used.update((a, b))
    return pairs


# Twin trees repeat: the 405 classify calls of the p1xp1:2,5 table build
# 1050 of them in 6 distinct summaries, each built, and checked, once.
_twin_tree_summary = lru_cache(maxsize=None)(TwinTreeSummary)


@lru_cache(maxsize=256)
def _pair_maps(pairs: tuple[tuple[int, int], ...]) -> tuple[dict[int, int], dict[int, int]]:
    """Per paired position, its partner and the 1-based index of its pair.

    Built once per pairs tuple; the dicts are shared, so callers must not
    mutate them.
    """
    partner, index = {}, {}
    for k, (a, b) in enumerate(pairs):
        partner[a], partner[b] = b, a
        index[a] = index[b] = k + 1
    return partner, index


def _twin_trees(diagram: FloorDiagram, pairs, nbrs) -> list[TwinTreeSummary]:
    """The twin trees of the merged pairs, by the point of their first elevator mark.

    A twin tree hangs from a floor r at a black pair (x, y) joined to r by
    edges of equal weight: it is the branch at x and the branch at y, seen
    from r, when the pairs map one branch onto the other.  Both branches
    are walked in step; the walk fails at the first (u, v) whose leaks
    (None at a black, so colours too) or children do not correspond under
    the pairs.  A black's elevator weight is that of any of its edges,
    here the one the walk came in by.  The walk never passes an unpaired
    vertex, so nbrs need only list the neighbours of the paired positions.

    The walk reads no ends.  A black is a splice (two edges) or an end
    black (one edge and one end), so a black with no children is an
    unbounded elevator, and equal child counts make u and v both splices
    or both end blacks.  An end points away from its black's one edge.
    Paired u and v hang from one floor or from one adjacent pair, and as
    pairs are disjoint, their parents lie on the same side of them, so
    both ends point the same way.
    """
    partner, index = _pair_maps(pairs)
    trees = []
    for x, y in pairs:
        if diagram.colors[x] != "b" or diagram.colors[y] != "b":
            continue
        for r, m_root in nbrs[x]:
            if (r, m_root) not in nbrs[y]:
                continue  # at most one floor passes: a second would close a cycle
            points, marks, unbounded = [], [], 0
            stack = [(x, y, r, r, m_root)]
            while stack:
                u, v, up_u, up_v, w = stack.pop()
                kids = [(c, wc) for c, wc in nbrs[u] if c != up_u]
                v_kids = {(c, wc) for c, wc in nbrs[v] if c != up_v}
                if (diagram.leaks[u] != diagram.leaks[v] or len(kids) != len(v_kids)
                        or any((partner.get(c), wc) not in v_kids for c, wc in kids)):
                    break
                points.append(index[u])
                if diagram.colors[u] == "b":
                    marks.append((w, index[u]))
                    unbounded += not kids
                stack.extend((c, partner[c], u, v, wc) for c, wc in kids)
            else:
                floors = len(points) - len(marks)
                if len(marks) != floors + unbounded:
                    raise ValueError(f"invalid floor diagram: twin tree on points "
                                     f"{sorted(points)} miscounts its elevator pairs")
                trees.append(_twin_tree_summary(tuple(sorted(points)), tuple(sorted(
                    marks, key=lambda mark: mark[1])), m_root, unbounded))
    return sorted(trees, key=lambda tree: tree.elevator_marks[0][1])


def classify(diagram: FloorDiagram, pairs: tuple[tuple[int, int], ...]) -> PairLabels:
    """Each merged pair labelled twin tree member, type A, or free.

    pairs must be check_pairs output for the diagram, as in
    counting.merged_classes() and counting.resolve_pairs(), which check
    them.  Without pairs there is nothing to label, and no work is done.
    A pair (a, a + 1) off the twin trees is type A when an edge joins its
    two positions, read from the neighbours of a.
    """
    if not pairs:
        return PairLabels((), ())
    nbrs = {u: [] for u in _pair_maps(pairs)[0]}
    for u, v, w in diagram.edges:
        if u in nbrs:
            nbrs[u].append((v, w))
        if v in nbrs:
            nbrs[v].append((u, w))
    trees = _twin_trees(diagram, pairs, nbrs)
    tree_of_pair = {i - 1: t for t, tree in enumerate(trees) for i in tree.point_indices}
    labels = []
    for k, (a, b) in enumerate(pairs):
        if k in tree_of_pair:
            labels.append(("twin", tree_of_pair[k]))
        elif joined := [w for c, w in nbrs[a] if c == b]:
            labels.append(("type_a", joined[0]))
        else:
            labels.append(("free",))
    return PairLabels(tuple(labels), tuple(trees))
