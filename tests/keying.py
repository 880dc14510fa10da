"""Independent oracle for merged classes: the 2^s ordering key.

canonical_key serialises a merged diagram in every within-pair ordering
and keeps the smallest, so two merged diagrams get the same key exactly
when a set of within-pair swaps turns one into the other.  Tests compare
the classes of counting.merged_classes, found one swap at a time, with
the partition by this key.
"""

from gwfloor.diagrams import MergedFloorDiagram


def canonical_key(merged: MergedFloorDiagram) -> bytes:
    """Class key: the minimum serialisation over all within-pair orderings."""
    d = merged.base
    n = d.n
    best = None
    for bits in range(1 << len(merged.pairs)):
        perm = list(range(n))
        for i, (a, b) in enumerate(merged.pairs):
            if bits >> i & 1:
                perm[a], perm[b] = perm[b], perm[a]
        colors = tuple(d.colors[perm[i]] for i in range(n))
        leaks = tuple(d.leaks[perm[i]] for i in range(n))
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        edges = tuple(sorted(
            (min(inv[u], inv[v]), max(inv[u], inv[v]), w) for u, v, w in d.edges))
        ends = tuple(sorted((inv[p], direction) for p, direction in d.ends))
        ser = (colors, leaks, edges, ends, merged.pairs)
        if best is None or ser < best:
            best = ser
    return repr(best).encode()
