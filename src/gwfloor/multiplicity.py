"""Local quadratic multiplicity contributions and their assembly.

Every factor is a GwElem over the formal parameters d_1, ..., d_s:

* m_a1(m)            -- a bounded edge of weight m (one factor per edge),
* twin_edge_mult     -- a twin elevator pair carrying the point q_i,
* gamma(m, i)        -- a floor merged with the adjacent elevator point,
* gwring.beta_elem   -- a free double point,
* twin_tree_mult     -- a whole twin tree.

The multiplicity of a merged diagram is the product of these factors, so
it depends only on its local-factor signature: the twin-tree summaries,
the pair labels, and the sorted weights of the edges that no label
absorbs.  Which edges a label absorbs is said once, in `absorbing_masks`,
per edge as the pairs of the one label that absorbs it, so that
`row_signature` reads the signature of every row within a cover from
one diagram's labels.  `row_mult` sums a row with pairs over its
signatures in split form (see `gwring`); `counting` sums the row without
pairs from m_a1 over the state graph.  m_a1 and gamma are cached by
(weight, index, s), the twin-tree factor by (tree, s).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache, reduce

from .gwring import GwElem, beta_elem, h, one, split, split_mul, split_sum, unsplit


@lru_cache(maxsize=None)
def m_a1(m: int, num_params: int) -> GwElem:
    if m < 1:
        raise ValueError("edge weight must be positive")
    if m % 2 == 1:
        return GwElem.symbol(m, (), num_params) + ((m - 1) // 2) * h(num_params)
    return (m // 2) * h(num_params)


def twin_edge_mult(m: int, i: int, num_params: int) -> GwElem:
    if m < 1:
        raise ValueError("edge weight must be positive")
    if not (1 <= i <= num_params):
        raise IndexError(f"point index {i} out of range 1..{num_params}")
    anisotropic = one(num_params) + GwElem.symbol(-1, (i,), num_params)  # <1> + <-d_i>
    hyper = ((m ** 4 - m * m) // 2) * h(num_params)
    if m % 2 == 1:
        return one(num_params) + ((m * m - 1) // 2) * anisotropic + hyper
    return (m * m // 2) * anisotropic + hyper


@lru_cache(maxsize=None)
def gamma(m: int, i: int, num_params: int) -> GwElem:
    if m < 1:
        raise ValueError("edge weight must be positive")
    if not (1 <= i <= num_params):
        raise IndexError(f"point index {i} out of range 1..{num_params}")
    if m % 2 == 0:
        return (m * m // 2) * h(num_params)
    two_part = GwElem.symbol(2, (), num_params) + GwElem.symbol(-2, (i,), num_params)
    return one(num_params) + ((m - 1) // 2) * two_part + (m * (m - 1) // 2) * h(num_params)


@dataclass(frozen=True)
class TwinTreeSummary:
    """Combinatorial data of one twin tree of a merged diagram.

    point_indices: global indices of the t double points on the tree.
    elevator_marks: (weight, point index) per twin elevator pair; double
    points on doubled floors appear in point_indices only.
    """

    point_indices: tuple[int, ...]
    elevator_marks: tuple[tuple[int, int], ...]
    m_root: int
    unbounded_twin_elevators: int

    def __post_init__(self):
        points, elev_points = self.point_indices, [i for _, i in self.elevator_marks]
        if not points or tuple(sorted(points)) != points:
            raise ValueError(f"point indices {points} are empty or unsorted")
        if len(set(elev_points)) != len(elev_points) or not set(elev_points) <= set(points):
            raise ValueError(f"elevator marks {self.elevator_marks} are not distinct "
                             "points of the tree")
        if self.m_root not in [m for m, _ in self.elevator_marks]:
            raise ValueError(f"root weight {self.m_root} is not an elevator weight")

    @property
    def t(self) -> int:
        return len(self.point_indices)

    @property
    def m_circ(self) -> int:
        return self.m_root + self.unbounded_twin_elevators


@lru_cache(maxsize=None)
def twin_tree_mult(tree: TwinTreeSummary, num_params: int) -> GwElem:
    total = one(num_params)
    for m, i in tree.elevator_marks:
        total = total * twin_edge_mult(m, i, num_params)
    t = tree.t
    total = total * GwElem.symbol(2 ** (t - 1), (), num_params)
    parity = tree.m_circ % 2
    subset_sum = GwElem.zero(num_params)
    for k in range(parity, t + 1, 2):
        for I in itertools.combinations(tree.point_indices, k):
            subset_sum = subset_sum + GwElem.symbol(1, I, num_params)
    return total * subset_sum


def absorbing_masks(diagram, pairs, classification, twin_trees) -> tuple:
    """(weights, masks) of a diagram's edges, sorted by (weight, mask).

    The mask has bit k for each pairs[k] whose label absorbs the edge, a
    whole twin tree at both its vertices or a "type_a" pair at its black
    (gamma takes its elevator), and bit len(pairs) if none does; a row
    absorbs the edge iff it holds the mask.  ValueError if its two ends
    name different masks, which no tree allows (`diagrams` docstring).
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


def row_signature(classification, twin_trees, weights, masks, row: int) -> tuple:
    """The local-factor signature of a row, from its labels and the
    `absorbing_masks` of any pairs that contain its own (the bits of row).

    (twin_trees, classification, sorted weights of the edges that the
    row's labels do not absorb): all that its multiplicity depends on.
    """
    return twin_trees, classification, tuple([w for w, mask in zip(weights, masks)
                                              if mask & row != mask])


def row_mult(tally, num_params: int) -> GwElem:
    """Total quadratic multiplicity of a row, from its (signature, number of
    classes) tally: per weight tuple the product of m_a1, per label part
    (twin trees, classification) the sum of those products times its
    twin-tree, gamma (type-A pair) and beta (free double point) factors.
    Each factor is read from this module and split (`gwring.split`) once
    per call, so a patched one is used; edge factors equal to <1> are left out.
    """
    factor = cache(lambda f, *args: split(f(*args, num_params)))
    edges, parts = {}, {}  # per weight tuple its product; per label part its terms
    for (twin_trees, classification, weights), k in tally:
        if weights not in edges:
            kept = [f for w in weights if (f := factor(m_a1, w)) != (0, {0: 1})]  # not <1>
            edges[weights] = reduce(split_mul, kept, (0, {0: 1}))
        parts.setdefault((twin_trees, classification), []).append((k, edges[weights]))
    terms = []
    for (twin_trees, classification), edge_terms in parts.items():
        labels = [factor(twin_tree_mult, tree) for tree in twin_trees]
        for idx, label in enumerate(classification):
            if label[0] == "type_a":
                labels.append(factor(gamma, label[1], idx + 1))
            elif label[0] == "free":
                labels.append(factor(beta_elem, idx + 1))
        terms.append((1, reduce(split_mul, labels, split_sum(edge_terms))))
    return unsplit(split_sum(terms), num_params)
