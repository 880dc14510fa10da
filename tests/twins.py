"""Independent oracle for twin trees: the swaps that fix a diagram.

Exchanging the two positions of every pair of a twin tree maps one of its
strands onto the other and so leaves the diagram unchanged.  Conversely,
the twin trees are exactly the minimal non-empty sets of pairs whose
simultaneous swap fixes the diagram.  swap_fixing_sets finds those sets
by trying every subset of the pairs with oracles.swapped, without the
branch walk of classify (tests/classify.py) or the mirror sets of
diagrams.walk.
"""

from gwfloor.diagrams import FloorDiagram

from oracles import swapped


def swap_fixing_sets(d: FloorDiagram,
                     pairs: tuple[tuple[int, int], ...]) -> set[frozenset[int]]:
    """The minimal non-empty sets of 1-based pair indices whose swap fixes d."""
    # walk the subsets in Gray-code order, so each step is one more swap
    fixing, current = [], d
    for g in range(1, 1 << len(pairs)):
        current = swapped(current, pairs[(g & -g).bit_length() - 1][0])
        if current == d:
            bits = g ^ g >> 1
            fixing.append(frozenset(i + 1 for i in range(len(pairs)) if bits >> i & 1))
    return {s for s in fixing if not any(t < s for t in fixing)}
