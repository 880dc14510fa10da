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
appearance.  `_build_graph` builds the graph of these states with an
explicit stack, lists each state's moves in sweep order and keeps a move
only if its child has a completion, counting the paths to the top per
state, and numbers the kept states in post-order (`StateGraph`);
`_state_graph` keeps it per degree, once a build, budgeted or not,
finishes.  `count_diagrams` reads the root's path count, or stops
the build past a budget, without building a diagram;
`walk` streams the packed keys (leaks, edges) from the root with a stack
too, carrying the concrete origin of each strand, and yields one at the
top of every path it follows, so no branch is a dead end, reading the
graph through records that the degree's first walk keeps in it;
`enumerate_diagrams` builds the diagrams of the walk without pairs,
uncached; `counting.count` sums the s = 0 row over the graph's paths.

The move generators build only children that can still complete.  Every
later black closes a seek-black strand (a splice or an outgoing end) or
is an incoming end, so the floors from here on open room = blacks left -
incoming ends left - seek-black strands; the last floor, below
outgoing ends only, leaves no incoming end, closes every seek-white
strand and opens room of weight 1.  Splices and incoming ends open
seek-white strands, so need a floor above; a splice spends no end, so
needs a black besides one per end left.  A floor closes at most one
seek-white strand of a component, so no component keeps more of them
than floors are left, checked where that changes: at a floor and at a
splice.  The floors above a floor carry at most one leak of each sign
each.  On p1xp1:2,5 the build makes 612 children and
meets 289 states, not 2653 and 866, to keep 254; on p1xp1:3,4 it
makes 1461 children and meets 457 states to keep 432; the p2:5 graph
has no dead state (617 children, 186 states).

Merging declares disjoint adjacent position pairs to be double points.
Diagrams that differ by exchanging the two positions of some pairs give
the same merged diagram.  One pass over the walk under the pairs
(`counting._orbits`) labels each class from what the walk found on the
way to its first diagram, the only one the walk meets, and builds no
diagram; a count weights each class by its size
(`counting._cover_profiles`), and `counting.merged_classes` lists the
representatives, built from their packed keys.

The walk under pairs meets the first diagram of each class and no other
(orderly generation: B. D. McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26 (1998) 306-324).  Two diagrams part at the first
position where their moves differ, from one state; the move listed first
there comes first.  The moves up to a position fix the vertices below
it, with their leaks, ends, edges and the weights they open, and a swap
of pairs below maps that prefix to itself, or parts from it at one move
to an earlier or a later one.  The walk carries the live swap sets, those
that map its path to itself, and skips a move, with all it leads to, as
soon as a live set maps it to an earlier one.  If a swap set S makes
S(D) come first, S is live up to where they part, so D is skipped: the
walk meets exactly one diagram per class.

A pair (a, a + 1) that no edge joins enters at a + 1: its swap places at
a the vertex placed at a + 1, with the same rank, closing the same
strands (mapped through the live sets, strands of one (origin, weight)
taken in order).  `_rank` puts floors before blacks, floors by (-1 leaks,
+1 leaks, strands closed) and blacks as splice < incoming end < outgoing
end, and each state's kept moves are in nondecreasing rank, which
`_build_graph` checks, so a lower rank at a + 1 is skipped at once and a
higher one parts.  A tie, of equal rank, compares the two moves at a as
the generators list them (a test checks it): by the sorted indices of the
strands they close, then, for floors, by their new weights, largest
first.  If they are one move (two splices of one origin's strands, two
incoming ends, two floors that close nothing, or moves that live sets
map onto each other), the swap stays live, and the strands that a and
a + 1 open are mirrors.  The walk keeps the live sets as a basis of
mirror sets that move disjoint strands.  A black closes one strand and a
floor seek-white strands of distinct origins, and moves that differ only
in the strands they close are listed by their sorted indices, so a
product of mirror sets maps a move earlier only if one set does: a later
move that takes exactly one strand of a mirror pair must take the
earlier one, or it is skipped.  A tie whose moves are the same up to
mirrors marks its own new strands as mirrors, the composed swap of a
mirrored branch; no single swap catches 2 diagrams each on the default
covers of p1xp1:3,3 and bl3:5,2,1,1, and 13 on p2:5.  A set whose
strands all close while it is live fixes the diagram, and the sets that
fix it are the unions of its twin trees (below), so each such set is a
twin tree, and the walk hands over its pair mask (where a tie's swap
fixes the diagram at once, the tree is the tie's pair and the mirror
sets that map its two moves onto each other): the class has 2^(v - T)
diagrams for v pairs that no edge joins and T trees.  It meets 405 of the 1686
diagrams of p1xp1:2,5 and 3743 of the 25871 of p2:5 under the default
cover, and builds no swap.

`check_pairs` checks a pair list, and `label` labels the pairs of a
class from its packed key, the pairs an edge joins and the walk's tree
masks: it returns `PairLabels`, one label per pair and the twin-tree
summaries, always both, with each edge's weight and absorbing mask.  A
twin tree is two isomorphic strands of merged pairs hanging from one
root elevator pair, the black pair that shares a floor; equivalently,
the twin trees are the minimal non-empty sets of pairs whose
simultaneous swap leaves the diagram unchanged (`tests/twins.py` checks
the walk's masks against this, and `tests/classify.py`, a branch walk
over the built diagram, checks the labels); each distinct summary is
built, and checked, once.  Pairs on a twin tree are labelled "twin".
Every other pair is "type_a" if it merges a floor with the adjacent
elevator point, an edge joining the pair, and "free" otherwise.  The
labels alone say which edges a local factor absorbs, so nothing else
about them is kept.

So the labels under pairs P follow from those under any pairs F
containing P, which `counting._cover_profiles` uses to label each
class once per cover and to tally every row within F from the same
labels: for P within F, the sets of pairs within P whose swap fixes
the diagram are those of F that lie in P, so P's twin trees are F's
trees within P.  A pair of one of F's other trees joins two vertices
of one colour, and every edge joins a floor to a black, so under P it
is free; type-A and free labels depend on their pair alone.  No two
labels absorb at the two ends of an edge: the swap of a tree at one end
fixes the other end v, so v joins both twins, a cycle through the tree's
root floor r (if v = r, v is on a second tree, whose swap gives one).
So an edge has one absorbing mask, its label's pairs (`label`), and P
absorbs it iff P holds the mask.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from .degrees import DegreeSpec, end_spec, leak_budget, n_delta, white_spec
from .multiplicity import TwinTreeSummary

INCOMING = -1
OUTGOING = 1

# strand stages during the sweep
_SEEK_BLACK = 0   # opened at a white, waiting for its elevator point
_SEEK_WHITE = 1   # opened at a black, waiting for the upper floor


class FloorDiagram(namedtuple("FloorDiagram", "colors leaks edges ends")):
    """colors: 'w' | 'b' per position; leaks: a sub-multiset of {-1,+1}
    per white, None per black; edges: (low pos, high pos, weight); ends:
    (pos, INCOMING | OUTGOING)."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.colors)


class OverBudget(Exception):
    """The degree has more floor diagrams than a budget allows."""


@lru_cache(maxsize=None)
def _partitions(rest: int, bound: int, parts_left: int) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing partitions of rest in at most parts_left parts <= bound, largest first."""
    found, stack = [], [((), rest, bound)]
    while stack:
        parts, rest, bound = stack.pop()
        if rest == 0:
            found.append(parts)
        elif len(parts) < parts_left:  # the largest next part comes first, pushed last
            stack += [(parts + (k,), rest - k, k) for k in range(1, min(rest, bound) + 1)]
    return tuple(found)


def _canonical(strands) -> tuple[tuple[int, int, int, int], ...]:
    """The strands with origins and components numbered by first appearance."""
    origins: dict = {}
    comps: dict = {}
    return tuple([(origins.setdefault(o, len(origins)), w, stage, comps.setdefault(c, len(comps)))
                  for o, w, stage, c in strands])


class StateGraph:
    """A degree's kept states, numbered in post-order (children first, the
    root last): per number, its strands, its kept moves and their
    children's numbers; the top's number (-1 if dead) and the root's
    path count; and None, or the walk's (move, child, rank) records once
    a walk has read it.  Shared, so callers must not mutate it."""

    __slots__ = ("strands", "moves", "children", "top", "paths", "records")

    def __init__(self, strands: list, moves: list, children: list, top: int, paths: int):
        self.strands, self.moves, self.children = strands, moves, children
        self.top, self.paths, self.records = top, paths, None


_graphs: dict = {}  # per degree, its state graph, once a build has finished


def _state_graph(spec: DegreeSpec, at_most: float = float("inf")) -> StateGraph:
    """The degree's state graph (`_build_graph`), built once: a build that
    finishes within at_most is the whole graph, so it is kept.  OverBudget
    past at_most, with the message of a fresh build.  `_graphs` keeps
    every degree's graph, and its walk records, for the life of the
    process, so a caller who counts p2:9 and then p2:10 holds both."""
    graph = _graphs.get(spec)
    if graph is None:
        graph = _graphs[spec] = _build_graph(spec, at_most)
    elif graph.paths > at_most:
        _build_graph(spec, at_most)  # the root has more paths, so this raises
    return graph


def _build_graph(spec: DegreeSpec, at_most: float = float("inf")) -> StateGraph:
    """The root and the states with a completion, with their moves whose
    child has one, and the root's number of paths to the top; OverBudget
    once a state has more than at_most paths, a lower bound on the root's.

    A state is (position, whites, -1 leaks, +1 leaks, incoming ends,
    outgoing ends, strands), a strand being (origin, weight, stage,
    component) with origins and components numbered by first appearance.
    A move is (leaks or None for a black, closed strands as (index,
    weight), layout, end): the new strands are the old ones at the layout
    indices, -1 standing for a strand that starts at the position.  Moves
    are listed in sweep order; no child is built that the module
    docstring's bounds rule out (room, the last floor, a floor above,
    seek-white strands and leaks).  One loop over a stack of states, each
    with its moves left to list, finishes a state once all its children
    are and numbers it then, in post-order, or -1 if dead: positions rise
    along a path, so a listed child is finished or new, and one dict
    lookup tells which.
    A finished state's strands are interned, and its kept moves with
    their ranks, which must not fall (the premise of the walk's pruning;
    RuntimeError if they do).  The dicts die with the build.
    """
    n = n_delta(spec)
    w_total, _ = white_spec(spec)
    minus_total, plus_total = leak_budget(spec)
    in_total, out_total = end_spec(spec)
    b_total = n - w_total
    top = (n, w_total, minus_total, plus_total, in_total, out_total, ())  # where every path ends

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
                    out_flow = sum([strands[i][1] for i in chosen]) - (lp - lm)
                    if out_flow < 0 or not (floors_after or out_flow == room):
                        continue
                    # the floor joins the closed components; -1 is a new one
                    comp = min(comps, default=-1)
                    layout = [i for i in range(len(strands)) if i not in chosen]
                    rest = [(o, w, stage, comp if c in comps else c)
                            for o, w, stage, c in map(strands.__getitem__, layout)]
                    if len(open_sw) - k > floors_after:
                        waiting = [c for _, _, stage, c in rest if stage == _SEEK_WHITE]
                        if any(waiting.count(c) > floors_after for c in waiting):
                            continue  # a component has more strands than floors to close them
                    closed = tuple([(i, strands[i][1]) for i in chosen])
                    sealed = comp not in [s[3] for s in rest]
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
        # the components of the seek-white strands, when they might outnumber the floors left
        waiting = [s[3] for s in strands if s[2] == _SEEK_WHITE] \
            if splice and len(strands) >= w_total - whites else []
        for i, (o, w, stage, c) in enumerate(strands):
            if splice and stage == _SEEK_BLACK and (o, w) not in seen:
                seen.add((o, w))
                if waiting.count(c) >= w_total - whites:
                    continue  # the component would have more strands than floors to close them
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

    def listed(state):
        # at the top every floor and every black is placed, so nothing is listed
        if state[1] < w_total:
            yield from white_moves(*state)
        if state[0] - state[1] < b_total:
            yield from black_moves(*state)

    root = (0, 0, 0, 0, 0, 0, ())
    number: dict = {}  # per finished state, its number if kept, else -1
    paths: list = []  # per number, the state's path count
    interned: dict = {}  # one object per strand
    ranked: dict = {}  # per move, one object for it and its rank
    strands, moves, children, top_number = [], [], [], -1
    # per state: its moves left to list, its kept moves and their children, the move to it
    stack = [(root, listed(root), [], [], None)]
    while stack:
        state, todo, kept, kids, via = stack[-1]
        for move, child in todo:
            k = number.get(child)
            if k is None:  # new, so finish it first
                stack.append((child, listed(child), [], [], move))
                break
            if k >= 0:
                kept.append(move)
                kids.append(k)
        else:  # every child is finished, so the state is
            stack.pop()
            ranks = []
            for i, move in enumerate(kept):
                entry = ranked.get(move)
                if entry is None:
                    entry = ranked[move] = move, _rank(move)
                kept[i], rank = entry
                ranks.append(rank)
            if ranks != sorted(ranks):  # the premise of the walk's pruning
                raise RuntimeError(f"{spec}: the moves of state {state} are not in rank order")
            total = sum([paths[k] for k in kids], int(state == top))
            if total > at_most:  # the state is reachable, so its paths bound the root's
                raise OverBudget(f"{spec} has at least {total} floor diagram" + "s" * (total > 1))
            # numbered -1 if dead, unless the root; the key holds the
            # interned strands, so that the listed ones die
            own = tuple([interned.setdefault(strand, strand) for strand in state[6]])
            k = number[state[:6] + (own,)] = len(paths) if total or not stack else -1
            if k < 0:
                continue
            if state == top:
                top_number = k
            paths.append(total)
            strands.append(own)
            moves.append(tuple(kept))
            children.append(tuple(kids))
            if stack:  # the parent keeps the move to the state
                stack[-1][2].append(via)
                stack[-1][3].append(k)
    return StateGraph(strands, moves, children, top_number, paths[-1])


def count_diagrams(spec: DegreeSpec, at_most: int | None = None) -> int:
    """The number of floor diagrams of the degree, without building any; OverBudget past at_most."""
    return _state_graph(spec, float("inf") if at_most is None else at_most).paths


def _rank(move) -> tuple:
    """The rank of a move, from the vertex it places alone: floors before
    blacks, floors by (-1 leaks, +1 leaks, strands closed), blacks as
    splice < incoming end < outgoing end."""
    leak, closed, _, end = move
    if leak is None:
        return 1, (None, INCOMING, OUTGOING).index(end)
    return 0, leak.count(-1), leak.count(1), len(closed)


def walk(spec: DegreeSpec, pairs: tuple[tuple[int, int], ...] = ()):
    """Yield ((leaks, edges), ends, joined, trees) per merged class, in sweep order.

    The walk follows the kept moves from the root with an explicit stack,
    carrying the concrete origin of each strand, and builds no diagram:
    (leaks, edges) is the packed key of the class's first diagram, edges
    sorted, and `unpack` builds the `FloorDiagram`.  Bit k of joined is
    set if an edge joins the two positions of pairs[k], and trees holds
    the mask of the pairs of each twin tree, a mirror set whose strands
    all closed, so the class has 2^(s - |joined| - len(trees)) diagrams.
    A move is skipped, with all it leads to, as soon as a swap of pairs
    below maps the path so far to one with an earlier move (see the module
    docstring), so with no pairs every diagram is met.  The first walk
    of a degree keeps its records in the graph for every later one.
    """
    graph = _state_graph(spec)
    if graph.records is None:  # the degree's first walk: rank each distinct move once
        ranks = {id(move): move for kept in graph.moves for move in kept}
        for key, move in ranks.items():
            ranks[key] = _rank(move)
        graph.records = [tuple(zip(kept, kids, [ranks[id(move)] for move in kept]))
                         for kept, kids in zip(graph.moves, graph.children)]
    records, strands_of = graph.records, graph.strands
    n = n_delta(spec)
    bit, partner = [0] * n, list(range(n))
    for k, (a, b) in enumerate(pairs):
        bit[a] = bit[b] = 1 << k
        partner[a], partner[b] = b, a

    def spots(swaps, strands, origins, closes):
        # the sorted indices of the strands (origin, weight) with the origins
        # swapped, the first of each, as the generators take them
        found = []
        for u, _, w in closes:
            if bit[u] & swaps:
                u = partner[u]
            i = origins.index(u)
            while strands[i][1] != w:
                i = origins.index(u, i + 1)
            found.append(i)
        return sorted(found)

    def opens(swaps, origins, layout, pos):
        # whether the swaps move the origin of a strand open after the move
        # at pos: if not, they map every later move to itself
        return any(bit[pos if k < 0 else origins[k]] & swaps for k in layout)

    def weights(move, child):
        # the order of two floor moves of one rank that close the same
        # strands: the one with the larger new weights comes first
        return [-s[1] for s, k in zip(strands_of[child], move[2]) if k < 0]

    # per (state at a, move at a, move at a + 1), the tie's outcome without
    # mirrors; moves are shared between states, so the state is part of the key
    ties: dict = {}
    stack = [(len(records) - 1, (), (), (), (), 0, (), (), None)]
    while stack:
        state, origins, leaks, edges, ends, joined, mirrors, trees, low = stack.pop()
        pos = len(leaks)
        if pos == n:
            yield (leaks, tuple(sorted(edges))), ends, joined, trees
            continue
        strands, frames = strands_of[state], []
        lower = bit[pos] and partner[pos] > pos  # pos is a of a pair (a, a + 1)
        if low:  # pos is a + 1 of a pair (a, a + 1)
            state_a, origins_a, move_a, child_a, rank_a, mirrors_a, b = low
            strands_a = strands_of[state_a]
        for move, child, rank in records[state]:
            leak, closed, layout, end = move
            closes = [(origins[i], pos, w) for i, w in closed]  # the edges the move closes
            kept, t, j_bits = mirrors, trees, joined
            if mirrors:
                own = [i for i, _ in closed]
                kept, earlier = [], False
                for swaps in mirrors:
                    image = spots(swaps, strands, origins, closes)
                    earlier = image < own  # the image is an earlier diagram of the class
                    if earlier:
                        break
                    if image > own:
                        continue  # the image parts from the walk here
                    if not opens(swaps, origins, layout, pos):
                        t += (swaps,)  # the image stays on the walk: the swaps fix the diagram
                        continue
                    kept.append(swaps)
                if earlier:
                    continue
                kept = tuple(kept)
            if low and rank != rank_a:
                if any(u == pos - 1 for u, _, _ in closes):
                    j_bits |= b
                elif rank < rank_a:
                    continue  # the swap places this vertex earlier at a
            elif low:  # a tie, so no edge: the least image of this vertex at a
                key = state_a, id(move_a), id(move)
                free = not (mirrors_a and any(bit[u] for u, _, _ in closes))
                if free and key in ties:  # the state at a and the two moves fix the outcome
                    swaps, stays = ties[key]
                else:
                    swaps, image = 0, spots(0, strands_a, origins_a, closes)
                    for mirror in mirrors_a:
                        if any(bit[u] & mirror for u, _, _ in closes) and (other := spots(
                                swaps ^ mirror, strands_a, origins_a, closes)) < image:
                            swaps, image = swaps ^ mirror, other
                    own = [i for i, _ in move_a[1]]
                    if image == own and not rank[0]:  # floors: larger new weights come first
                        image, own = weights(move, child), weights(move_a, child_a)
                    # -1 if the image comes first, the swaps that make it a's move if
                    # it is that move, else None; and whether they move an open strand
                    stays = image == own and opens(swaps | b, origins, layout, pos)
                    swaps = -1 if image < own else swaps if image == own else None
                    if free:
                        ties[key] = swaps, stays
                if swaps == -1:
                    continue
                if swaps is not None:  # the swap stays on the walk
                    if stays:
                        kept += (swaps | b,)
                    else:
                        t += (swaps | b,)
            frames.append((child, tuple([pos if k < 0 else origins[k] for k in layout]),
                           leaks + (leak,), edges + tuple(closes),
                           ends if end is None else ends + ((pos, end),), j_bits, kept, t,
                           (state, origins, move, child, rank, mirrors, bit[pos])
                           if lower else None))
        stack += reversed(frames)


def unpack(key, ends) -> FloorDiagram:
    """The diagram of a packed key (leaks, edges) and its ends."""
    leaks, edges = key
    return FloorDiagram(tuple(["b" if leak is None else "w" for leak in leaks]), leaks, edges, ends)


def enumerate_diagrams(spec: DegreeSpec) -> tuple[FloorDiagram, ...]:
    """All floor diagrams of the degree, duplicate-free, in sweep order."""
    return tuple(unpack(key, ends) for key, ends, _, _ in walk(spec))


class PairLabels(namedtuple("PairLabels", "classification twin_trees")):
    """The labels of a class's merged pairs, as `label` builds them.

    classification[k] is ("twin", tree index), ("type_a", elevator weight)
    or ("free",) for pairs[k]; twin_trees[t] summarises twin tree t.
    """

    __slots__ = ()


def _named(pairs: tuple[tuple[int, int], ...]) -> str:
    """The pairs as the command line takes them: 1-based, "a,b;c,d"."""
    return ";".join(f"{a + 1},{b + 1}" for a, b in pairs)


def check_pairs(pair_positions: Iterable[tuple[int, int]],
                n: int) -> tuple[tuple[int, int], ...]:
    """Sorted 0-based position pairs; ValueError, naming the pairs 1-based,
    unless adjacent, disjoint, < n."""
    pairs = tuple(sorted(tuple(sorted(p)) for p in pair_positions))
    for k, (a, b) in enumerate(pairs):
        if not (0 <= a < b < n) or b != a + 1:
            raise ValueError(f"pair {_named([(a, b)])} is not an adjacent position pair of 1..{n}")
        if k and pairs[k - 1][1] >= a:  # the pairs before are sorted and adjacent
            raise ValueError(f"merge pairs {_named(pairs[k - 1:k])} and {_named([(a, b)])} "
                             "must be disjoint")
    return pairs


# Twin trees repeat: the 405 classes of the p1xp1:2,5 table hold 1050 of
# them in 6 distinct summaries, each built, and checked, once.
_twin_tree_summary = lru_cache(maxsize=None)(TwinTreeSummary)


def label(key, pairs: tuple[tuple[int, int], ...], joined: int, trees: tuple[int, ...]) -> tuple:
    """(PairLabels, weights, masks) of a class, from what `walk` yields for it.

    A pair in trees[t] (a mask of pairs) is a twin; its tree's points are
    the mask's, with a mark (weight, point) per black pair, the black's
    edge weight, unbounded if the black has one edge; its root is the
    black pair that shares a floor, and m_root their edges' weight; trees
    are ordered by their first mark.  Any other pair is type A, weighted
    by the edge (a, a + 1, w), if its bit of joined is set, and free if
    not.  weights and masks are the edges' sorted by (weight, mask): the
    mask is the pairs of the label that absorbs the edge, a whole twin
    tree at both its vertices or a type-A pair at its black (gamma takes
    its elevator), and bit len(pairs) if none does, so a row absorbs the
    edge iff it holds the mask.  ValueError if its two ends name
    different masks, which no tree allows (see the module docstring).
    """
    leaks, edges = key
    at = [0] * len(leaks)  # per vertex, the mask of the label that absorbs at it
    nbrs: dict = {}  # per black of a label, its (neighbour, weight) pairs
    labelled = [("free",)] * len(pairs)
    members, type_a = [], []  # per tree its pairs; per type-A pair (k, its black)
    for mask in trees:
        ks, rest = [], mask
        while rest:  # the set bits, lowest first
            k = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            ks.append(k)
            a, b = pairs[k]
            at[a] = at[b] = mask
            if leaks[a] is None:
                nbrs[a], nbrs[b] = [], []
        members.append(ks)
    rest = joined
    while rest:
        k = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        a, b = pairs[k]
        black = a if leaks[a] is None else b
        at[black], nbrs[black] = 1 << k, []
        type_a.append((k, black))
    # (weight, mask) as one int, weight << shift | mask, so that they sort fast
    found, shift, none = [], len(pairs) + 1, 1 << len(pairs)
    for u, v, w in edges:
        if not (mask := at[u] or at[v]):
            found.append(w << shift | none)
            continue
        if mask != (at[v] or mask):  # both ends absorbed, differently
            raise ValueError("an edge joins vertices that different labels absorb at")
        found.append(w << shift | mask)
        if u in nbrs:
            nbrs[u].append((v, w))
        if v in nbrs:
            nbrs[v].append((u, w))
    for k, black in type_a:  # a black's edges have one weight
        labelled[k] = ("type_a", nbrs[black][0][1])
    summaries = []  # per tree: the point of its first mark, its summary, its pairs
    for ks in members:
        marks, m_root, unbounded = [], None, 0
        for k in ks:
            a, b = pairs[k]
            if leaks[a] is None:
                w = nbrs[a][0][1]
                marks.append((w, k + 1))
                unbounded += len(nbrs[a]) == 1
                if m_root is None and not set(nbrs[a]).isdisjoint(nbrs[b]):
                    m_root = w  # the root pair: both blacks join one floor
        if len(marks) != len(ks) - len(marks) + unbounded:
            raise ValueError(f"invalid floor diagram: twin tree on points "
                             f"{[k + 1 for k in ks]} miscounts its elevator pairs")
        summaries.append((marks[0][1], _twin_tree_summary(
            tuple([k + 1 for k in ks]), tuple(marks), m_root, unbounded), ks))
    summaries.sort()
    for t, (_, _, ks) in enumerate(summaries):
        twin = ("twin", t)
        for k in ks:
            labelled[k] = twin
    found.sort()
    return PairLabels(tuple(labelled), tuple([tree for _, tree, _ in summaries])), \
        tuple([x >> shift for x in found]), tuple([x & (2 * none - 1) for x in found])
