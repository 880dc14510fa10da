"""On-demand probe: does any count reach a twin elevator of odd weight >= 3?

`multiplicity.twin_edge_mult` has an odd branch for weights m >= 3.  This
probe looks for a row that reaches it.  It scans the merged classes of
every degree with n <= 13 and at most MAX_DIAGRAMS diagrams, plus p2:5,
each under two placements: the default one, default_pairs(n // 2), and
the one shifted by one position.  The labels under a placement's
sub-placements follow from its own (see the `diagrams` docstring), so
these covers stand for every default row of those degrees, and for the
FULL_PLACEMENTS row, which lies in the default cover of bl2:5,1,1.  Each
class is labelled once, through `counting._orbits`, which meets one
diagram per class and holds none past it; it raises OrbitWeightError
unless the class sizes sum to the number of diagrams, so the scan checks
that too.  It also checks each class's labels and absorbing masks, which
`diagrams.label` builds from what the walk found, against the branch
walk over the built diagram (tests/classify.py).  It prints the diagrams
met per placement, every twin elevator mark of odd weight >= 3, every
class whose labels differ from the oracle's, and the number of each.

Run from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/odd_twins.py

It exits 1 if it finds such a mark or a label mismatch, and 0 otherwise.
"""

import sys

from gwfloor import counting, diagrams
from gwfloor.counting import default_pairs
from gwfloor.degrees import n_delta, parse_degree
from gwfloor.diagrams import unpack

from classify import absorbing_masks, classify
from oracles import small_degrees

MAX_DIAGRAMS = 200_000


def covers():
    """(degree, its scanned placements) per degree."""
    for spec in map(parse_degree, small_degrees(13) + ["p2:5"]):
        if diagrams.count_diagrams(spec) <= MAX_DIAGRAMS:
            n = n_delta(spec)
            yield spec, [default_pairs(n // 2),
                         tuple((a + 1, b + 1) for a, b in default_pairs((n - 1) // 2))]


def main() -> int:
    scanned = classes = found = mismatches = 0
    for spec, placements in covers():
        for pairs in filter(None, placements):
            scanned += 1
            named = ";".join(f"{a + 1},{b + 1}" for a, b in pairs)
            met = 0
            for key, ends, labelled, *_ in counting._orbits(spec, pairs):
                met += 1
                d, labels = unpack(key, ends), labelled[0]
                oracle = classify(d, pairs)
                if labelled != (oracle, *absorbing_masks(d, pairs, *oracle)):
                    mismatches += 1
                    print(f"{spec} pairs {named}: the walk's labels differ from the oracle's, "
                          f"edges {[(u + 1, v + 1, w) for u, v, w in d.edges]}")
                for m, i in (mark for tree in labels.twin_trees for mark in tree.elevator_marks):
                    if m >= 3 and m % 2:
                        found += 1
                        print(f"{spec} pairs {named}: weight {m} at point {i}, "
                              f"edges {[(u + 1, v + 1, w) for u, v, w in d.edges]}")
            classes += met
            print(f"{spec} pairs {named}: {met} of {diagrams.count_diagrams(spec)} diagrams met")
    print(f"{scanned} placements, {classes} classes: "
          f"{found} twin elevator marks of odd weight >= 3, {mismatches} label mismatches")
    return int(found > 0 or mismatches > 0)


if __name__ == "__main__":
    sys.exit(main())
