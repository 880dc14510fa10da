"""The five smooth toric del Pezzo degrees and their floor-diagram data.

Families and parameter conventions follow the dual polygons: the plane of
degree d, the quadric of bidegree (a1, a2), and the blowups of the plane
in one, two or three points.  The four plane families share one polygon,
the triangle of degree d with its corners cut by a1, a2, a3, so each of
their data is one formula in (d, a1, a2, a3), an absent multiplicity
being 0; only the quadric has its own.  Derived data: the number of point
conditions n, the white-vertex (floor) count with its leak budget, and
the incoming/outgoing vertical end counts.
"""

from __future__ import annotations

import sys
from collections import namedtuple


class InvalidDegree(ValueError):
    pass


_PARAMS = {
    "p2": ("d",), "p1xp1": ("a1", "a2"), "bl1": ("d", "a1"),
    "bl2": ("d", "a1", "a2"), "bl3": ("d", "a1", "a2", "a3"),
}


class DegreeSpec(namedtuple("DegreeSpec", "family params")):
    """family: "p2" | "p1xp1" | "bl1" | "bl2" | "bl3"; params: a tuple of its
    positive int parameters (see _PARAMS).  InvalidDegree unless they name
    a degree whose n fits an index."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, family: str, params: tuple[int, ...]):
        self = super().__new__(cls, family, params)
        f, p = family, params
        if not isinstance(p, tuple) or any(type(x) is not int for x in p):
            raise InvalidDegree(f"parameters must be a tuple of ints: {p!r}")
        if any(x < 1 for x in p):
            raise InvalidDegree(f"parameters must be positive: {self}")
        if f not in _PARAMS:
            raise InvalidDegree(f"unknown family {f!r}")
        names = _PARAMS[f]
        if len(p) != len(names):
            raise InvalidDegree(f"{f} takes ({', '.join(names)})")
        if f != "p1xp1":
            d, a1, a2, a3 = _plane(self)
            if a1 < a2:
                raise InvalidDegree(f"{f} needs a1 >= a2: {self}")
            # every pairwise sum of the a_i is <= d; a2 + a3 <= a1 + a3 follows
            for name, a in (("a2", a2), ("a3", a3)):
                if a1 + a > d:
                    cond = f"a1 + {name}" if name in names else "a1"
                    raise InvalidDegree(f"{f} needs {cond} <= d: {self}")
        n = n_delta(self)
        if n < 1:
            raise InvalidDegree(f"n(degree) < 1: {self}")
        if n > sys.maxsize:
            raise InvalidDegree(f"n(degree) = {n} does not fit an index: {self}")
        return self

    def __str__(self):
        return f"{self.family}:{','.join(map(str, self.params))}"


def parse_degree(text: str) -> DegreeSpec:
    """Parse "p2:d", "p1xp1:a1,a2", "bl1:d,a1", "bl2:d,a1,a2", "bl3:d,a1,a2,a3".

    Each parameter is a run of ASCII digits: no sign, space, underscore
    or other script's digit, all of which int() would take.
    """
    family, colon, rest = text.strip().lower().partition(":")
    params = rest.split(",")
    if not colon or not all(x.isascii() and x.isdigit() for x in params):
        raise InvalidDegree(f"cannot parse degree spec {text!r}")
    return DegreeSpec(family, tuple(map(int, params)))


def _plane(spec: DegreeSpec) -> tuple[int, int, int, int]:
    """(d, a1, a2, a3) of a plane family, an absent multiplicity being 0."""
    return spec.params + (0,) * (4 - len(spec.params))


def n_delta(spec: DegreeSpec) -> int:
    """Number of point conditions: boundary lattice points minus one."""
    if spec.family == "p1xp1":
        a1, a2 = spec.params
        return 2 * (a1 + a2) - 1
    d, a1, a2, a3 = _plane(spec)
    return 3 * d - a1 - a2 - a3 - 1


def white_spec(spec: DegreeSpec) -> tuple[int, tuple[int, ...]]:
    """(floor count, degree-level leak multiset, one entry per floor)."""
    if spec.family == "p1xp1":
        a1, _ = spec.params
        return a1, (0,) * a1
    d, a1, a2, a3 = _plane(spec)
    return d - a3, (-1,) * a2 + (0,) * (a1 - a2) + (1,) * (d - a1 - a3)


def leak_budget(spec: DegreeSpec) -> tuple[int, int]:
    """(number of floors carrying a -1 leak, number carrying a +1 leak)."""
    _, leaks = white_spec(spec)
    return leaks.count(-1), leaks.count(1)


def end_spec(spec: DegreeSpec) -> tuple[int, int]:
    """(incoming, outgoing) vertical end counts."""
    if spec.family == "p1xp1":
        _, a2 = spec.params
        return a2, a2
    d, a1, a2, a3 = _plane(spec)
    return d - a1 - a2, a3
