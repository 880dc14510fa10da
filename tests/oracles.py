"""Oracles that only tests use: checks and quantities that no command needs.

validate checks a diagram against the definition of a floor diagram,
swapped exchanges two adjacent positions, complex_mult and edge_mult are
the complex multiplicities a quadratic one must reduce to, signature is
the local-factor signature of one row and signature_mult its
multiplicity, witt_compare compares two counts in the Witt ring, and
beta_form_from_signatures solves a row's beta form from its rank and
Welschinger numbers alone, and small_degrees lists every degree up to a
number of point conditions.

signature_mult multiplies out one signature's factors as GwElem
products, one signature at a time; it shares only the local factors with
`multiplicity.row_mult`, which sums a whole row in split form.
"""

import itertools
import math

import gwfloor.multiplicity as multiplicity
from gwfloor.counting import count
from gwfloor.degrees import DegreeSpec, InvalidDegree, end_spec, leak_budget, n_delta, white_spec
from gwfloor.diagrams import INCOMING, OUTGOING, FloorDiagram
from gwfloor.gwring import GwElem, GwMonomial, h, one
from gwfloor.multiplicity import absorbing_masks, row_signature


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"invalid floor diagram: {what}")


def divergence(d: FloorDiagram, pos: int) -> int:
    """Weight flowing into the vertex at pos minus weight flowing out."""
    total = 0
    for u, v, w in d.edges:
        if v == pos:
            total += w
        elif u == pos:
            total -= w
    for p, direction in d.ends:
        if p == pos:
            total += 1 if direction == INCOMING else -1
    return total


def validate(d: FloorDiagram, spec: DegreeSpec) -> None:
    """Raise ValueError unless d is a floor diagram of the degree."""
    n = n_delta(spec)
    _require(d.n == n, f"{d.n} positions, expected {n}")
    w_count, _ = white_spec(spec)
    minus, plus = leak_budget(spec)
    inc, out = end_spec(spec)
    _require(d.colors.count("w") == w_count, f"expected {w_count} floors")
    _require(len(d.edges) == n - 1, f"expected {n - 1} edges")
    nbrs: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for u, v, w in d.edges:
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    # bipartite, connected (tree follows from edge count + connectivity)
    for u, v, w in d.edges:
        _require(u < v and w >= 1 and {d.colors[u], d.colors[v]} == {"w", "b"},
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
    for i, c in enumerate(d.colors):
        if c == "w":
            leak = d.leaks[i]
            _require(leak is not None and set(leak) <= {-1, 1}, f"leaks {leak} at {i}")
            got_minus += leak.count(-1)
            got_plus += leak.count(1)
            _require(divergence(d, i) == sum(leak), f"floor {i} is unbalanced")
            continue
        _require(d.leaks[i] is None, f"black {i} carries leaks")
        _require(divergence(d, i) == 0, f"black {i} is unbalanced")
        deg_edges = nbrs[i]
        deg_ends = [e for e in d.ends if e[0] == i]
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
    _require(sum(1 for _, end in d.ends if end == INCOMING) == inc, "incoming ends")
    _require(sum(1 for _, end in d.ends if end == OUTGOING) == out, "outgoing ends")


def swapped(d: FloorDiagram, a: int) -> FloorDiagram:
    """The diagram with the vertices at positions a and a + 1 exchanged."""
    p = list(range(d.n))
    p[a], p[a + 1] = a + 1, a  # an involution: old <-> new position
    edges = [(p[u], p[v], w) if p[u] < p[v] else (p[v], p[u], w) for u, v, w in d.edges]
    return FloorDiagram(
        tuple([d.colors[i] for i in p]), tuple([d.leaks[i] for i in p]),
        tuple(sorted(edges)), tuple(sorted([(p[i], end) for i, end in d.ends])))


def small_degrees(n_max: int) -> list[str]:
    """Every valid degree of the five families with n <= n_max, by family.

    On the plane families n = 3d - a1 - a2 - a3 - 1 >= 3d/2 - 1, as
    a1 + a2 <= d and a3 <= d/2 (a3 <= a1 and a1 + a3 <= d); on the quadric
    n = 2(a1 + a2) - 1.  So no parameter exceeds 2(n_max + 1)/3.
    """
    degrees = []
    for family, k in (("p2", 1), ("p1xp1", 2), ("bl1", 2), ("bl2", 3), ("bl3", 4)):
        for params in itertools.product(range(1, 2 * (n_max + 1) // 3 + 1), repeat=k):
            try:
                spec = DegreeSpec(family, params)
            except InvalidDegree:
                continue
            if n_delta(spec) <= n_max:
                degrees.append(str(spec))
    return degrees


def complex_mult(d: FloorDiagram) -> int:
    """The complex multiplicity: the product of the edge weights."""
    return math.prod(w for _, _, w in d.edges)


def edge_mult(m: int, num_params: int = 0) -> GwElem:
    """A whole non-twin bounded elevator of weight m, = m_a1(m)^2."""
    if m < 1:
        raise ValueError("edge weight must be positive")
    if m % 2 == 1:
        return one(num_params) + ((m * m - 1) // 2) * h(num_params)
    return (m * m // 2) * h(num_params)


def signature(d: FloorDiagram, pairs, classification, twin_trees) -> tuple:
    """The local-factor signature of d with its pairs labelled, as one row."""
    return row_signature(classification, twin_trees,
                         *absorbing_masks(d, pairs, classification, twin_trees),
                         (1 << len(pairs)) - 1)


def signature_mult(sig: tuple, num_params: int) -> GwElem:
    """Total quadratic multiplicity of the merged diagrams with this signature.

    Product of twin-tree factors, gamma factors for type-A pairs (a floor
    merged with the adjacent elevator point), beta factors for free double
    points, and m_a1 factors over the remaining bounded edges, each read
    from `multiplicity` at call time, so that a patched factor is used.
    """
    twin_trees, classification, weights = sig
    total = one(num_params)
    for tree in twin_trees:
        total = total * multiplicity.twin_tree_mult(tree, num_params)
    for idx, label in enumerate(classification):
        if label[0] == "type_a":
            total = total * multiplicity.gamma(label[1], idx + 1, num_params)
        elif label[0] == "free":
            total = total * multiplicity.beta_elem(idx + 1, num_params)
    for w in weights:
        total = total * multiplicity.m_a1(w, num_params)
    return total


def witt_compare(spec1: DegreeSpec, spec2: DegreeSpec, s: int) -> GwElem:
    """Difference of the two counts reduced modulo the hyperbolic form.

    The returned element represents the Witt-ring class; compare it with
    equals_mod against a multiple of <1>.
    """
    diff = count(spec1, s).total - count(spec2, s).total
    n = diff.coeff(GwMonomial(1, (), -1))
    return diff - n * h(s)


def beta_form_from_signatures(rank: int, welschinger) -> tuple[int, tuple[int, ...], int]:
    """(h, (c_1, ..., c_s), c_0) of the s-point row, s = len(welschinger) - 1,
    from its rank and the Welschinger numbers W(d, 0..s) alone.

    W(d, j), the all-negative signature of row j, is also the signature of
    row s at j negative d_i (setting d_i := 1 drops a point).  There h has
    signature 0, <1> signature 1 and beta^{(l)} signature 2^l C(s - j, l),
    so W(d, j) = c_0 + sum_l c_l 2^l C(s - j, l): triangular in c_0, c_1,
    ... for j = s, s - 1, ....  Then h, of rank 2, is half of the rank
    minus that of the rest, W(d, 0).  ValueError if a division is not exact.
    """
    s = len(welschinger) - 1
    c0, cs = welschinger[s], []

    def positive_signature(k):  # of c_0 <1> + sum_l c_l beta^{(l)} at k positive d_i
        return c0 + sum(c * 2 ** l * math.comb(k, l) for l, c in enumerate(cs, start=1))

    for k in range(1, s + 1):
        c, rest = divmod(welschinger[s - k] - positive_signature(k), 2 ** k)
        if rest:
            raise ValueError(f"W(d, {s - k}) leaves c_{k} fractional")
        cs.append(c)
    h_coeff, rest = divmod(rank - positive_signature(s), 2)
    if rest:
        raise ValueError(f"rank {rank} minus W(d, 0) is odd")
    return h_coeff, tuple(cs), c0
