"""Floor diagram enumeration, merging, and double-point classification.

A floor diagram is a linearly ordered bipartite weighted tree: white
vertices are floors (carrying leaks), black vertices are the marked
points of elevators, either splicing a bounded elevator between two
floors (valence 2, equal weights) or carrying one unbounded vertical end
plus a weight-1 edge.  Enumeration sweeps the positions bottom-to-top,
maintaining the multiset of elevator strands crossing the current gap;
which leaks a floor may carry follows from the degree's leak budget and
floor count alone.

Merging declares disjoint adjacent position pairs to be double points.
Diagrams that differ by exchanging the two positions of some pairs give
the same merged diagram; `FloorDiagram.swapped` exchanges one pair, and
`counting.merged_classes` labels each enumerated diagram with the first
diagram of its class, one pair at a time.

`merge` checks a pair list and hands it to `classify`, which builds the
one record of a merged diagram, `MergedFloorDiagram`, always fully
labelled.  A twin tree is two isomorphic strands of merged pairs hanging
from one root elevator pair.  As the diagram is a tree, removing a floor
r splits it into branches; for a black pair (x, y) joined to r by edges
of equal weight, `_twin_trees` walks the branches at x and at y in step
and keeps them as a twin tree when the pairs map one onto the other.
Equivalently, the twin trees are the minimal non-empty sets of pairs
whose simultaneous swap leaves the diagram unchanged (`tests/twins.py`
checks this).  Pairs on a twin tree are labelled "twin".  Every other
pair is "type_a" if it merges a floor with the adjacent elevator point,
and "free" otherwise.  The labels alone say which edges a local factor
absorbs, so the record stores nothing else about them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

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

    def neighbors(self) -> dict[int, list[tuple[int, int]]]:
        nbrs: dict[int, list[tuple[int, int]]] = {i: [] for i in range(self.n)}
        for u, v, w in self.edges:
            nbrs[u].append((v, w))
            nbrs[v].append((u, w))
        return nbrs

    def divergence(self, pos: int) -> int:
        d = 0
        for u, v, w in self.edges:
            if v == pos:
                d += w
            elif u == pos:
                d -= w
        for p, direction in self.ends:
            if p == pos:
                d += 1 if direction == INCOMING else -1
        return d

    def complex_mult(self) -> int:
        out = 1
        for _, _, w in self.edges:
            out *= w
        return out

    def validate(self, spec: DegreeSpec) -> None:
        """Raise ValueError unless this is a floor diagram of the degree."""
        n = n_delta(spec)
        _require(self.n == n, f"{self.n} positions, expected {n}")
        w_count, _ = white_spec(spec)
        minus, plus = leak_budget(spec)
        inc, out = end_spec(spec)
        _require(self.colors.count("w") == w_count, f"expected {w_count} floors")
        _require(len(self.edges) == n - 1, f"expected {n - 1} edges")
        nbrs = self.neighbors()
        # bipartite, connected (tree follows from edge count + connectivity)
        for u, v, w in self.edges:
            _require(u < v and w >= 1 and {self.colors[u], self.colors[v]} == {"w", "b"},
                     f"edge {(u, v, w)} is not an ascending weighted white-black edge")
        seen, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for y, _ in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        _require(len(seen) == n, "diagram is not connected")
        got_minus = got_plus = 0
        for i, c in enumerate(self.colors):
            if c == "w":
                leak = self.leaks[i]
                _require(leak is not None and set(leak) <= {-1, 1}, f"leaks {leak} at {i}")
                got_minus += leak.count(-1)
                got_plus += leak.count(1)
                _require(self.divergence(i) == sum(leak), f"floor {i} is unbalanced")
                continue
            _require(self.leaks[i] is None, f"black {i} carries leaks")
            _require(self.divergence(i) == 0, f"black {i} is unbalanced")
            deg_edges = nbrs[i]
            deg_ends = [e for e in self.ends if e[0] == i]
            if deg_ends:
                _require(len(deg_ends) == 1 and len(deg_edges) == 1, f"black {i} valence")
                _require(deg_edges[0][1] == 1, f"end at black {i} has weight > 1")
                (other, _), (_, direction) = deg_edges[0], deg_ends[0]
                _require((other > i) if direction == INCOMING else (other < i),
                         f"end at black {i} points the wrong way")
            else:
                _require(len(deg_edges) == 2, f"black {i} is not bivalent")
                (a, wa), (b, wb) = deg_edges
                _require(wa == wb and min(a, b) < i < max(a, b), f"black {i} is no splice")
        _require((got_minus, got_plus) == (minus, plus), "wrong leak counts")
        _require(sum(1 for _, d in self.ends if d == INCOMING) == inc, "incoming ends")
        _require(sum(1 for _, d in self.ends if d == OUTGOING) == out, "outgoing ends")

    def swapped(self, a: int) -> FloorDiagram:
        """The diagram with the vertices at positions a and a + 1 exchanged."""
        p = list(range(self.n))
        p[a], p[a + 1] = a + 1, a  # an involution: old <-> new position
        edges = [(p[u], p[v], w) if p[u] < p[v] else (p[v], p[u], w) for u, v, w in self.edges]
        return FloorDiagram(
            tuple([self.colors[i] for i in p]), tuple([self.leaks[i] for i in p]),
            tuple(sorted(edges)), tuple(sorted([(p[i], d) for i, d in self.ends])))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"invalid floor diagram: {what}")


def _partitions(rest: int, bound: int, parts_left: int):
    """Weakly decreasing partitions of rest into at most parts_left parts <= bound."""
    if rest == 0:
        yield ()
    elif parts_left:
        for first in range(min(rest, bound), 0, -1):
            for tail in _partitions(rest - first, first, parts_left - 1):
                yield (first,) + tail


@lru_cache(maxsize=None)
def enumerate_diagrams(spec: DegreeSpec) -> tuple[FloorDiagram, ...]:
    """All floor diagrams of the degree, duplicate-free, in sweep order."""
    n = n_delta(spec)
    w_total, _ = white_spec(spec)
    minus_total, plus_total = leak_budget(spec)
    in_total, out_total_ends = end_spec(spec)
    b_total = n - w_total

    def counts(budget):
        # a floor carries a leak only if some floor must, and none only if not all must
        return [0] * (budget < w_total) + [1] * (budget > 0)

    leak_options = [(lm, lp) for lm in counts(minus_total) for lp in counts(plus_total)]

    results: list[FloorDiagram] = []
    colors: list[str] = []
    leaks: list[tuple[int, ...] | None] = []
    edges: list[tuple[int, int, int]] = []
    ends: list[tuple[int, int]] = []
    # strand: [origin, weight, stage, comp]; every edit is undone in place,
    # so a strand stays the same list object while it is open
    strands: list[list[int]] = []
    seek_black = 0  # the number of strands in stage _SEEK_BLACK
    comp_counter = itertools.count()

    def feasible(pos, whites, minus, plus, inc, out):
        whites_left = w_total - whites
        blacks_left = b_total - (pos - whites)
        in_left, out_left = in_total - inc, out_total_ends - out
        sw = len(strands) - seek_black
        if blacks_left < in_left + out_left:
            return False
        if seek_black > blacks_left - in_left:
            return False
        if whites_left == 0 and (sw > 0 or in_left > 0):
            return False
        if minus_total - minus > whites_left or plus_total - plus > whites_left:
            return False
        return True

    def finish(whites, minus, plus, inc, out):
        if strands:
            return
        if (whites, minus, plus, inc, out) != (
                w_total, minus_total, plus_total, in_total, out_total_ends):
            return
        results.append(FloorDiagram(
            tuple(colors), tuple(leaks),
            tuple(sorted(edges)), tuple(sorted(ends))))

    def place(pos, whites, minus, plus, inc, out):
        if pos == n:
            finish(whites, minus, plus, inc, out)
            return
        if not feasible(pos, whites, minus, plus, inc, out):
            return
        if whites < w_total:
            place_white(pos, whites, minus, plus, inc, out)
        if pos - whites < b_total:
            place_black(pos, whites, minus, plus, inc, out)

    def place_white(pos, whites, minus, plus, inc, out):
        open_sw = [i for i, s in enumerate(strands) if s[2] == _SEEK_WHITE]
        blacks_left = b_total - (pos - whites)
        for lm, lp in leak_options:
            if minus + lm > minus_total or plus + lp > plus_total:
                continue
            leak_val = lp - lm
            for k in range(len(open_sw) + 1):
                for chosen in itertools.combinations(open_sw, k):
                    comps = [strands[i][3] for i in chosen]
                    if len(set(comps)) != len(comps):
                        continue  # closing two strands of one component: cycle
                    close_total = sum(strands[i][1] for i in chosen)
                    out_flow = close_total - leak_val
                    if out_flow < 0:
                        continue
                    for parts in _partitions(out_flow, out_flow, blacks_left):
                        apply_white(pos, whites, minus + lm, plus + lp, inc, out,
                                    chosen, comps, lm, lp, parts)

    def apply_white(pos, whites, minus, plus, inc, out, chosen, comps, lm, lp, parts):
        nonlocal seek_black
        comp = min(comps) if comps else next(comp_counter)
        closed = [(i, strands[i]) for i in chosen]  # chosen is ascending
        new_edges = [(s[0], pos, s[1]) for _, s in closed]
        for i in reversed(chosen):
            del strands[i]
        relabelled = [(s, s[3]) for s in strands if s[3] in comps]
        for s, _ in relabelled:
            s[3] = comp
        strands.extend([pos, w, _SEEK_BLACK, comp] for w in parts)
        seek_black += len(parts)
        sealed = not any(s[3] == comp for s in strands)
        if not sealed or pos == n - 1:
            colors.append("w")
            leaks.append((-1,) * lm + (1,) * lp)
            edges.extend(new_edges)
            place(pos + 1, whites + 1, minus, plus, inc, out)
            edges[len(edges) - len(new_edges):] = []
            leaks.pop()
            colors.pop()
        seek_black -= len(parts)
        del strands[len(strands) - len(parts):]
        for s, old in relabelled:
            s[3] = old
        for i, s in closed:
            strands.insert(i, s)

    def place_black(pos, whites, minus, plus, inc, out):
        nonlocal seek_black
        colors.append("b")
        leaks.append(None)
        # (a) splice an open elevator strand (dedupe identical strands)
        seen = set()
        for i, s in enumerate(strands):
            if s[2] != _SEEK_BLACK:
                continue
            sig = (s[0], s[1])
            if sig in seen:
                continue
            seen.add(sig)
            origin, weight = sig
            edges.append((origin, pos, weight))
            s[0], s[2] = pos, _SEEK_WHITE
            seek_black -= 1
            place(pos + 1, whites, minus, plus, inc, out)
            seek_black += 1
            s[0], s[2] = origin, _SEEK_BLACK
            edges.pop()
        # (b) consume an incoming end
        if inc < in_total:
            strands.append([pos, 1, _SEEK_WHITE, next(comp_counter)])
            ends.append((pos, INCOMING))
            place(pos + 1, whites, minus, plus, inc + 1, out)
            ends.pop()
            strands.pop()
        # (c) close a weight-1 strand with an outgoing end
        if out < out_total_ends:
            seen = set()
            for i, s in enumerate(strands):
                if s[2] != _SEEK_BLACK or s[1] != 1:
                    continue
                sig = s[0]
                if sig in seen:
                    continue
                seen.add(sig)
                origin, _, _, comp = s
                alive = any(t[3] == comp for j, t in enumerate(strands) if j != i)
                if not alive and pos != n - 1:
                    continue  # sealing the component early
                edges.append((origin, pos, 1))
                ends.append((pos, OUTGOING))
                del strands[i]
                seek_black -= 1
                place(pos + 1, whites, minus, plus, inc, out + 1)
                seek_black += 1
                strands.insert(i, s)
                ends.pop()
                edges.pop()
        leaks.pop()
        colors.pop()

    place(0, 0, 0, 0, 0, 0)
    return tuple(results)


@dataclass(frozen=True)
class MergedFloorDiagram:
    """A floor diagram with merged pairs, each pair labelled by `classify`.

    classification[k] is ("twin", tree index), ("type_a", elevator weight)
    or ("free",) for pairs[k]; twin_trees[t] summarises twin tree t.
    """

    base: FloorDiagram
    pairs: tuple[tuple[int, int], ...]
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


def merge(diagram: FloorDiagram,
          pair_positions: Iterable[tuple[int, int]]) -> MergedFloorDiagram:
    """Merge the given disjoint adjacent position pairs into double points.

    Positions are 0-based; a malformed pair list raises ValueError.  Two
    blacks at adjacent positions p, p + 1 of a valid diagram always carry
    overlapping elevators, as each elevator spans both p and p + 1.
    """
    return classify(diagram, check_pairs(pair_positions, diagram.n))


def _twin_trees(diagram: FloorDiagram, pairs, nbrs) -> list[TwinTreeSummary]:
    """The twin trees of the merged pairs, by the point of their first elevator mark.

    A twin tree hangs from a floor r at a black pair (x, y) joined to r by
    edges of equal weight: it is the branch at x and the branch at y, seen
    from r, when the pairs map one branch onto the other.  Both branches
    are walked in step; the walk fails at the first (u, v) whose leaks
    (None at a black, so colours too), ends or children do not correspond
    under the pairs.  A black's elevator weight is that of any of its
    edges, here the one the walk came in by.
    """
    partner, index = {}, {}
    for k, (a, b) in enumerate(pairs):
        partner[a], partner[b] = b, a
        index[a] = index[b] = k + 1
    ends = dict(diagram.ends)
    trees = []
    for x, y in pairs:
        if diagram.colors[x] != "b" or diagram.colors[y] != "b":
            continue
        for r, m_root in set(nbrs[x]) & set(nbrs[y]):
            points, marks, unbounded = [], [], 0
            stack = [(x, y, r, r, m_root)]
            while stack:
                u, v, up_u, up_v, w = stack.pop()
                kids = [(c, wc) for c, wc in nbrs[u] if c != up_u]
                v_kids = {(c, wc) for c, wc in nbrs[v] if c != up_v}
                if (diagram.leaks[u] != diagram.leaks[v] or ends.get(u) != ends.get(v)
                        or len(kids) != len(v_kids)
                        or any((partner.get(c), wc) not in v_kids for c, wc in kids)):
                    break
                points.append(index[u])
                if diagram.colors[u] == "b":
                    marks.append((w, index[u]))
                    unbounded += u in ends
                stack.extend((c, partner[c], u, v, wc) for c, wc in kids)
            else:
                floors = len(points) - len(marks)
                _require(len(marks) == floors + unbounded,
                         f"twin tree on points {sorted(points)} miscounts its elevator pairs")
                trees.append(TwinTreeSummary(tuple(sorted(points)), tuple(sorted(
                    marks, key=lambda mark: mark[1])), m_root, unbounded))
    return sorted(trees, key=lambda tree: tree.elevator_marks[0][1])


def classify(diagram: FloorDiagram,
             pairs: tuple[tuple[int, int], ...]) -> MergedFloorDiagram:
    """The merged diagram, each pair labelled twin tree member, type A, or free.

    pairs must be check_pairs output for the diagram; merge() checks them.
    Without pairs there is nothing to label, and no work is done.
    """
    if not pairs:
        return MergedFloorDiagram(diagram, pairs, (), ())
    edge_set = {(u, v): w for u, v, w in diagram.edges}
    trees = _twin_trees(diagram, pairs, diagram.neighbors())
    tree_of_pair = {i - 1: t for t, tree in enumerate(trees) for i in tree.point_indices}
    labels = []
    for k, pair in enumerate(pairs):
        if k in tree_of_pair:
            labels.append(("twin", tree_of_pair[k]))
        elif pair in edge_set:
            labels.append(("type_a", edge_set[pair]))
        else:
            labels.append(("free",))
    return MergedFloorDiagram(diagram, pairs, tuple(labels), tuple(trees))
