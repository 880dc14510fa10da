"""Local quadratic multiplicity contributions and their assembly.

Every factor is a GwElem over the formal parameters d_1, ..., d_s:

* m_a1(m)            -- a bounded edge of weight m (one factor per edge),
* edge_mult(m)       -- a whole non-twin bounded elevator, = m_a1(m)^2,
* twin_edge_mult     -- a twin elevator pair carrying the point q_i,
* gamma(m, i)        -- a floor merged with the adjacent elevator point,
* gwring.beta_elem   -- a free double point,
* twin_tree_mult     -- a whole twin tree.

The local factors are cached by (weight, index, s) and the twin-tree
factor by (tree, s), safe as GwElem is immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .gwring import GwElem, beta_elem, h, one


@lru_cache(maxsize=None)
def m_a1(m: int, num_params: int = 0) -> GwElem:
    if m < 1:
        raise ValueError("edge weight must be positive")
    if m % 2 == 1:
        return GwElem.symbol(m, (), num_params) + ((m - 1) // 2) * h(num_params)
    return (m // 2) * h(num_params)


@lru_cache(maxsize=None)
def edge_mult(m: int, num_params: int = 0) -> GwElem:
    if m < 1:
        raise ValueError("edge weight must be positive")
    if m % 2 == 1:
        return one(num_params) + ((m * m - 1) // 2) * h(num_params)
    return (m * m // 2) * h(num_params)


@lru_cache(maxsize=None)
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
    for k in range(t + 1):
        if k % 2 != parity:
            continue
        for I in itertools.combinations(tree.point_indices, k):
            subset_sum = subset_sum + GwElem.symbol(1, I, num_params)
    return total * subset_sum


def diagram_mult(merged, num_params: int | None = None) -> GwElem:
    """Total quadratic multiplicity of a classified merged floor diagram.

    Product of twin-tree factors, gamma factors for white-plus-adjacent-
    black merges, beta factors for free double points, and m_a1 factors
    over the remaining bounded edges (skipping edges inside twin trees and
    the elevator through each merged type-A black vertex).
    """
    if merged.classification is None:
        raise ValueError("diagram must be classified first")
    s = len(merged.pairs) if num_params is None else num_params
    total = one(s)
    for tree in merged.twin_trees:
        total = total * twin_tree_mult(tree, s)
    twin_vertices = set()
    for verts in merged.twin_vertex_sets:
        twin_vertices.update(verts)
    absorbed_blacks = set()
    for idx, (pair, label) in enumerate(zip(merged.pairs, merged.classification)):
        if label[0] == "type_a":
            total = total * gamma(label[1], idx + 1, s)
            black = pair[0] if merged.base.colors[pair[0]] == "b" else pair[1]
            absorbed_blacks.add(black)
        elif label[0] == "free":
            total = total * beta_elem(idx + 1, s)
    for u, v, w in merged.base.edges:
        if u in twin_vertices or v in twin_vertices:
            continue
        if u in absorbed_blacks or v in absorbed_blacks:
            continue
        total = total * m_a1(w, s)
    return total
