"""Floor diagram enumeration, merging, and double-point classification.

A floor diagram is a linearly ordered bipartite weighted tree: white
vertices are floors (carrying leaks), black vertices are the marked
points of elevators, either splicing a bounded elevator between two
floors (valence 2, equal weights) or carrying one unbounded vertical end
plus a weight-1 edge.  Enumeration sweeps the positions bottom-to-top,
maintaining the multiset of elevator strands crossing the current gap.

Merging declares disjoint adjacent position pairs to be double points.
Diagrams that differ by exchanging the two positions of some pairs give
the same merged diagram; `FloorDiagram.swapped` exchanges one pair, and
`counting.merged_classes` joins the enumerated diagrams one swap at a
time in a union-find to find these classes.  Twin trees are maximal
components of merged pairs whose two strands are isomorphic and attach
to the rest of the diagram at a single root elevator pair; every other
pair is a free double point unless it merges a floor with the adjacent
elevator point.
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


def _partitions(total: int, max_parts: int):
    """Weakly decreasing partitions of total with at most max_parts parts."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return

    def rec(rest, bound, parts_left):
        if rest == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(rest, bound), 0, -1):
            for tail in rec(rest - first, first, parts_left - 1):
                yield (first,) + tail

    yield from rec(total, total, max_parts)


@lru_cache(maxsize=None)
def enumerate_diagrams(spec: DegreeSpec) -> tuple[FloorDiagram, ...]:
    """All floor diagrams of the degree, duplicate-free, in sweep order."""
    n = n_delta(spec)
    w_total, _ = white_spec(spec)
    minus_total, plus_total = leak_budget(spec)
    in_total, out_total_ends = end_spec(spec)
    b_total = n - w_total

    family = spec.family
    if family == "p2":
        leak_options = ((0, 1),)
    elif family == "p1xp1":
        leak_options = ((0, 0),)
    elif family == "bl1":
        leak_options = ((0, 0), (0, 1))
    else:
        leak_options = ((0, 0), (0, 1), (1, 0), (1, 1))

    results: list[FloorDiagram] = []
    colors: list[str] = []
    leaks: list[tuple[int, ...] | None] = []
    edges: list[tuple[int, int, int]] = []
    ends: list[tuple[int, int]] = []
    # strand: [origin, weight, stage, comp]
    strands: list[list[int]] = []
    comp_counter = itertools.count()

    def feasible(pos, whites, minus, plus, inc, out):
        whites_left = w_total - whites
        blacks_left = b_total - (pos - whites)
        in_left, out_left = in_total - inc, out_total_ends - out
        if whites_left + blacks_left != n - pos:
            return False
        sb = sum(1 for s in strands if s[2] == _SEEK_BLACK)
        sw = len(strands) - sb
        if blacks_left < in_left + out_left:
            return False
        if sb > blacks_left - in_left:
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
                    for parts in _partitions(out_flow, blacks_left):
                        apply_white(pos, whites, minus + lm, plus + lp, inc, out,
                                    chosen, comps, lm, lp, parts)

    def apply_white(pos, whites, minus, plus, inc, out, chosen, comps, lm, lp, parts):
        saved = [list(s) for s in strands]
        comp = min(comps) if comps else next(comp_counter)
        new_edges = [(strands[i][0], pos, strands[i][1]) for i in chosen]
        for i in sorted(chosen, reverse=True):
            del strands[i]
        for s in strands:
            if s[3] in comps:
                s[3] = comp
        for w in parts:
            strands.append([pos, w, _SEEK_BLACK, comp])
        sealed = not any(s[3] == comp for s in strands)
        if not sealed or pos == n - 1:
            colors.append("w")
            leaks.append((-1,) * lm + (1,) * lp)
            edges.extend(new_edges)
            place(pos + 1, whites + 1, minus, plus, inc, out)
            edges[len(edges) - len(new_edges):] = []
            leaks.pop()
            colors.pop()
        strands[:] = [list(s) for s in saved]

    def place_black(pos, whites, minus, plus, inc, out):
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
            origin, weight, _, comp = s
            edges.append((origin, pos, weight))
            strands[i] = [pos, weight, _SEEK_WHITE, comp]
            place(pos + 1, whites, minus, plus, inc, out)
            strands[i] = [origin, weight, _SEEK_BLACK, comp]
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
                origin, weight, _, comp = s
                alive = any(t[3] == comp for j, t in enumerate(strands) if j != i)
                if not alive and pos != n - 1:
                    continue  # sealing the component early
                edges.append((origin, pos, 1))
                ends.append((pos, OUTGOING))
                del strands[i]
                place(pos + 1, whites, minus, plus, inc, out + 1)
                strands.insert(i, [origin, weight, _SEEK_BLACK, comp])
                ends.pop()
                edges.pop()
        leaks.pop()
        colors.pop()

    place(0, 0, 0, 0, 0, 0)
    return tuple(results)


@dataclass(frozen=True)
class MergedFloorDiagram:
    base: FloorDiagram
    pairs: tuple[tuple[int, int], ...]
    classification: tuple[tuple, ...] | None = None
    twin_trees: tuple[TwinTreeSummary, ...] = ()
    twin_vertex_sets: tuple[frozenset, ...] = ()

    @property
    def num_points(self) -> int:
        return len(self.pairs)


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
    return classify(MergedFloorDiagram(diagram, check_pairs(pair_positions, diagram.n)))


def _black_items(diagram: FloorDiagram, nbrs, pos):
    items = [("edge", v, w) for v, w in sorted(nbrs[pos])]
    items += [("end", d, 1) for p, d in diagram.ends if p == pos]
    return items


def _feasible_matchings(diagram, nbrs, pair_of, x, y):
    """Ways to pair the two items of black x with those of black y."""
    xi = _black_items(diagram, nbrs, x)
    yi = _black_items(diagram, nbrs, y)
    out = []
    for perm in (list(range(len(yi))), list(reversed(range(len(yi))))):
        if len(set(perm)) != len(yi):
            continue
        kinds = []
        for a, b in zip(xi, (yi[j] for j in perm)):
            kind = _match_item(pair_of, a, b)
            if kind is None:
                kinds = None
                break
            kinds.append(kind)
        if kinds is not None and kinds not in out:
            out.append(kinds)
    return out


def _match_item(pair_of, a, b):
    ka, va, wa = a
    kb, vb, wb = b
    if ka != kb or wa != wb:
        return None
    if ka == "end":
        return ("endpair",) if va == vb else None
    if va == vb:
        return ("root", va)
    if pair_of.get(va) is not None and pair_of.get(va) == pair_of.get(vb):
        return ("link", pair_of[va])
    return None


def detect_twin_trees(merged: MergedFloorDiagram) -> list[TwinTreeSummary]:
    trees, _ = _analyze_twins(merged)
    return list(trees)


def _analyze_twins(merged: MergedFloorDiagram):
    diagram = merged.base
    nbrs = diagram.neighbors()
    pairs = merged.pairs
    pair_of: dict[int, int] = {}
    for k, (a, b) in enumerate(pairs):
        pair_of[a] = k
        pair_of[b] = k

    bb = [k for k, (a, b) in enumerate(pairs)
          if diagram.colors[a] == "b" and diagram.colors[b] == "b"]
    ww = [k for k, (a, b) in enumerate(pairs)
          if diagram.colors[a] == "w" and diagram.colors[b] == "w"]

    # per-pair local validation
    bb_match: dict[int, list] = {}
    for k in bb:
        options = _feasible_matchings(diagram, nbrs, pair_of, *pairs[k])
        if options:
            bb_match[k] = options[0]
    ww_links: dict[int, list[int]] = {}
    for k in ww:
        u, v = pairs[k]
        if diagram.leaks[u] != diagram.leaks[v]:
            continue
        eu, ev = sorted(nbrs[u]), sorted(nbrs[v])
        if len(eu) != len(ev):
            continue
        links = []
        ok = True
        remaining = list(ev)
        for c, w in eu:
            pk = pair_of.get(c)
            if pk is None or pk not in bb:
                ok = False
                break
            ca, cb = pairs[pk]
            partner = cb if c == ca else ca
            if (partner, w) not in remaining:
                ok = False
                break
            remaining.remove((partner, w))
            links.append(pk)
        if ok and not remaining:
            ww_links[k] = links

    # components over locally valid pairs, linked bb <-> ww
    parent = {k: k for k in list(bb_match) + list(ww_links)}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for k, kinds in bb_match.items():
        for kind in kinds:
            if kind[0] == "link" and kind[1] in ww_links:
                union(k, kind[1])
    for k, links in ww_links.items():
        for pk in links:
            if pk in bb_match:
                union(k, pk)

    comps: dict[int, list[int]] = {}
    for k in parent:
        comps.setdefault(find(k), []).append(k)

    trees: list[TwinTreeSummary] = []
    vertex_sets: list[frozenset] = []
    twin_pairs: set[int] = set()
    for members in sorted(comps.values()):
        comp_set = set(members)
        roots = 0
        unbounded = 0
        valid = True
        for k in members:
            if k in ww_links:
                if any(pk not in comp_set for pk in ww_links[k]):
                    valid = False
                    break
            else:
                for kind in bb_match[k]:
                    if kind[0] == "root":
                        if pair_of.get(kind[1]) in comp_set:
                            valid = False  # root on a floor of this very tree
                        roots += 1
                    elif kind[0] == "endpair":
                        unbounded += 1
                    elif kind[0] == "link" and kind[1] not in comp_set:
                        valid = False
                if not valid:
                    break
        if not valid or roots != 1:
            continue
        comp_bb = [k for k in members if k in bb_match]
        comp_ww = [k for k in members if k in ww_links]
        assert len(comp_bb) == len(comp_ww) + unbounded
        marks = []
        m_root = None
        for k in comp_bb:
            x, _ = pairs[k]
            weight = sorted(nbrs[x])[0][1]
            marks.append((weight, k + 1))
            if any(kind[0] == "root" for kind in bb_match[k]):
                m_root = weight
        tree = TwinTreeSummary(
            point_indices=tuple(sorted(k + 1 for k in members)),
            elevator_marks=tuple(sorted(marks, key=lambda t: t[1])),
            m_root=m_root,
            unbounded_twin_elevators=unbounded,
        )
        trees.append(tree)
        vertex_sets.append(frozenset(v for k in members for v in pairs[k]))
        twin_pairs.update(members)
    return tuple(trees), (tuple(vertex_sets), twin_pairs)


def classify(merged: MergedFloorDiagram) -> MergedFloorDiagram:
    """Label every merged pair: twin tree member, type A, or free."""
    diagram = merged.base
    edge_set = {(u, v): w for u, v, w in diagram.edges}
    trees, (vertex_sets, twin_pairs) = _analyze_twins(merged)
    tree_of_pair = {}
    for t_idx, tree in enumerate(trees):
        for i in tree.point_indices:
            tree_of_pair[i - 1] = t_idx
    labels = []
    for k, (a, b) in enumerate(merged.pairs):
        ca, cb = diagram.colors[a], diagram.colors[b]
        if k in twin_pairs:
            labels.append(("twin", tree_of_pair[k]))
        elif {ca, cb} == {"w", "b"} and (a, b) in edge_set:
            black = a if ca == "b" else b
            weight = sorted(diagram.neighbors()[black])[0][1]
            labels.append(("type_a", weight))
        else:
            labels.append(("free",))
    return MergedFloorDiagram(diagram, merged.pairs, tuple(labels),
                              trees, vertex_sets)
