"""Local quadratic multiplicity contributions and their assembly.

Every factor is a GwElem in the d_i of the points that it carries:

* m_a1(m)            -- a bounded edge of weight m (one factor per edge),
* twin_edge_mult     -- a twin elevator pair carrying the point q_i,
* gamma(m, i)        -- a floor merged with the adjacent elevator point,
* gwring.beta_elem   -- a free double point,
* twin_tree_mult     -- a whole twin tree.

The multiplicity of a merged diagram is the product of these factors, so
it depends only on its local-factor signature: the twin-tree summaries,
the pair labels, and the sorted weights of the edges that no label
absorbs.  Which edges a label absorbs is said once, in `diagrams.label`,
per edge as the pairs of the one label that absorbs it, so that
`row_signature` reads the signature of every row within a cover from
one class's labels.  `row_mult` sums a row with pairs over its
signatures in split form (see `gwring`); `counting` sums the row without
pairs from m_a1 over the state graph.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache, reduce

from .gwring import GwElem, _check_point, beta_elem, h, one, split_mul, split_sum


@lru_cache(maxsize=None)
def m_a1(m: int) -> GwElem:
    if m < 1:
        raise ValueError("edge weight must be positive")
    if m % 2 == 1:
        return GwElem.symbol(m) + ((m - 1) // 2) * h()
    return (m // 2) * h()


def twin_edge_mult(m: int, i: int) -> GwElem:
    if m < 1:
        raise ValueError("edge weight must be positive")
    _check_point(i)
    anisotropic = one() + GwElem.symbol(-1, (i,))  # <1> + <-d_i>
    hyper = ((m ** 4 - m * m) // 2) * h()
    if m % 2 == 1:
        return one() + ((m * m - 1) // 2) * anisotropic + hyper
    return (m * m // 2) * anisotropic + hyper


@lru_cache(maxsize=None)
def gamma(m: int, i: int) -> GwElem:
    if m < 1:
        raise ValueError("edge weight must be positive")
    _check_point(i)
    if m % 2 == 0:
        return (m * m // 2) * h()
    two_part = GwElem.symbol(2) + GwElem.symbol(-2, (i,))
    return one() + ((m - 1) // 2) * two_part + (m * (m - 1) // 2) * h()


class TwinTreeSummary(namedtuple(
        "TwinTreeSummary", "point_indices elevator_marks m_root unbounded_twin_elevators")):
    """Combinatorial data of one twin tree of a merged diagram.

    point_indices: global indices of the t double points on the tree.
    elevator_marks: (weight, point index) per twin elevator pair; double
    points on doubled floors appear in point_indices only.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, point_indices: tuple[int, ...], elevator_marks: tuple[tuple[int, int], ...],
                m_root: int, unbounded_twin_elevators: int):
        points, elev_points = point_indices, [i for _, i in elevator_marks]
        if not points or tuple(sorted(points)) != points:
            raise ValueError(f"point indices {points} are empty or unsorted")
        if len(set(elev_points)) != len(elev_points) or not set(elev_points) <= set(points):
            raise ValueError(f"elevator marks {elevator_marks} are not distinct "
                             "points of the tree")
        if m_root not in [m for m, _ in elevator_marks]:
            raise ValueError(f"root weight {m_root} is not an elevator weight")
        return super().__new__(cls, point_indices, elevator_marks, m_root,
                               unbounded_twin_elevators)

    @property
    def t(self) -> int:
        return len(self.point_indices)

    @property
    def m_circ(self) -> int:
        return self.m_root + self.unbounded_twin_elevators


@lru_cache(maxsize=None)
def twin_tree_mult(tree: TwinTreeSummary) -> GwElem:
    total = one()
    for m, i in tree.elevator_marks:
        total = total * twin_edge_mult(m, i)
    t = tree.t
    total = total * GwElem.symbol(2 ** (t - 1))
    parity = tree.m_circ % 2
    subset_sum = GwElem.zero()
    for k in range(parity, t + 1, 2):
        for I in itertools.combinations(tree.point_indices, k):
            subset_sum = subset_sum + GwElem.symbol(1, I)
    return total * subset_sum


def row_signature(classification, twin_trees, weights, masks, row: int) -> tuple:
    """The local-factor signature of a row, from its labels and the edges'
    absorbing masks (`diagrams.label`) under any pairs that contain its
    own (the bits of row).

    (twin_trees, classification, sorted weights of the edges that the
    row's labels do not absorb): all that its multiplicity depends on.
    """
    return twin_trees, classification, tuple([w for w, mask in zip(weights, masks)
                                              if mask & row != mask])


def row_mult(tally) -> GwElem:
    """Total quadratic multiplicity of a row, from its (signature, number of
    classes) tally: per weight tuple the product of m_a1, per label part
    (twin trees, classification) the sum of those products times its
    twin-tree, gamma (type-A pair) and beta (free double point) factors.
    Each factor is read by its name in this module at call time, so a
    patched one is used; edge factors equal to <1> are left out.
    """
    unit = one()
    edges, parts = {}, {}  # per weight tuple its product; per label part its terms
    for (twin_trees, classification, weights), k in tally:
        if weights not in edges:
            kept = [f for w in weights if (f := m_a1(w)) != unit]
            edges[weights] = reduce(split_mul, kept, unit)
        parts.setdefault((twin_trees, classification), []).append((k, edges[weights]))
    terms = []
    for (twin_trees, classification), edge_terms in parts.items():
        labels = [twin_tree_mult(tree) for tree in twin_trees]
        for idx, label in enumerate(classification):
            if label[0] == "type_a":
                labels.append(gamma(label[1], idx + 1))
            elif label[0] == "free":
                labels.append(beta_elem(idx + 1))
        terms.append((1, reduce(split_mul, labels, split_sum(edge_terms))))
    return GwElem(*split_sum(terms))
