"""Independent oracle for the local edge factor: traces of Kummer algebras.

trace_kummer gives the trace form of <1> resp. <x> from L[x]/(x^m - d)
down to L in closed form.  The trace of <x> with d = 1 is the
multiplicity of a bounded edge of weight m, so tests compare
multiplicity.m_a1 with it.
"""

from gwfloor.gwring import GwElem, GwMonomial, h


def trace_kummer(m: int, d: GwMonomial, which: str) -> GwElem:
    """Closed forms of the trace of <1> resp. <x> from L[x]/(x^m - d) to L."""
    if m < 1:
        raise ValueError("m must be positive")
    if which not in ("unit", "x"):
        raise ValueError(f"which must be 'unit' or 'x', got {which!r}")
    md = GwMonomial.of(m) * d
    if which == "unit":
        if m % 2 == 1:
            return GwElem.from_coeffs({GwMonomial.of(m): 1}) + \
                ((m - 1) // 2) * h()
        return GwElem.from_coeffs({GwMonomial.of(m): 1, md: 1}) + \
            ((m - 2) // 2) * h()
    if m % 2 == 1:
        return GwElem.from_coeffs({md: 1}) + ((m - 1) // 2) * h()
    return (m // 2) * h()
