"""Independent oracle for the labels of merged pairs: a branch walk per diagram.

classify labels the pairs of a built `FloorDiagram` by walking, for each
black pair that shares a floor, the two branches below it in step, and
absorbing_masks reads each edge's absorbing mask from those labels.
Neither reads the sweep's mirror sets, so together they check
`diagrams.label`, which builds the same labels and masks from what the
walk found (`tests/twins.py` checks the twin trees in turn against the
swaps that fix a diagram).
"""

from functools import lru_cache

from gwfloor.diagrams import FloorDiagram, PairLabels
from gwfloor.multiplicity import TwinTreeSummary


# Twin trees repeat, so each distinct summary is built, and checked, once.
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

    pairs must be `diagrams.check_pairs` output for the diagram.  Without
    pairs there is nothing to label, and no work is done.
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


def absorbing_masks(diagram, pairs, classification, twin_trees) -> tuple:
    """(weights, masks) of a diagram's edges, sorted by (weight, mask).

    The mask has bit k for each pairs[k] whose label absorbs the edge, a
    whole twin tree at both its vertices or a "type_a" pair at its black
    (gamma takes its elevator), and bit len(pairs) if none does; a row
    absorbs the edge iff it holds the mask.  ValueError if its two ends
    name different masks, which no tree allows (`diagrams` docstring).
    `diagrams.label` states the same rule for the labels the walk finds.
    """
    at = [0] * len(diagram.colors)  # per vertex, the mask of the label that absorbs at it
    for k, ((a, b), label) in enumerate(zip(pairs, classification)):
        if label[0] == "twin":
            at[a] = at[b] = sum(1 << (i - 1) for i in twin_trees[label[1]].point_indices)
        elif label[0] == "type_a":
            at[a if diagram.colors[a] == "b" else b] = 1 << k
    edges, none = [], 1 << len(pairs)
    for u, v, w in diagram.edges:
        if (mask := at[u] or at[v]) != (at[v] or mask):  # both ends absorbed, differently
            raise ValueError("an edge joins vertices that different labels absorb at")
        edges.append((w, mask or none))
    edges.sort()
    return tuple([w for w, _ in edges]), tuple([mask for _, mask in edges])
