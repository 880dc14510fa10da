"""Independent rank oracle: genus-0 counts of rational curves on blowups
of the plane from the associativity (WDVV) relations of quantum cohomology.

Classes are (d, (m_1..m_r)) meaning curves of degree d with multiplicity
m_i at the i-th blown-up point.  With A = B = H the associativity
relation gives

  N(b) = sum over b1+b2=b of N1 N2 (b1.b2) d1 [ d2 C(n-3, n1-1)
                                                - d1 C(n-3, n1) ],

where n = -K.b - 1 = 3d - sum(m) - 1 counts the point conditions.  For
three blown-up points the classes must first be brought to a canonical
representative under the Weyl group action (coordinate permutations and
the Cremona reflection), since invariants with negative multiplicities
need not vanish there.

Derivation was calibrated against N_d = 1, 1, 12, 620, 87304 for plane
curves and the independently confirmed blowup values (3;1)=12, (4;2)=96,
(4;2,1)=96, (4;2,2)=12, (2;1,1,1)=1.
"""

import itertools
import math
from functools import lru_cache


def _cremona(c):
    d, (m1, m2, m3) = c
    return (2 * d - m1 - m2 - m3,
            tuple(sorted((d - m2 - m3, d - m1 - m3, d - m1 - m2), reverse=True)))


@lru_cache(maxsize=None)
def _canonical3(d, m):
    seen = set()
    frontier = [(d, tuple(sorted(m, reverse=True)))]
    while frontier:
        c = frontier.pop()
        if c in seen:
            continue
        seen.add(c)
        frontier.append(_cremona(c))
    return min(seen)


def make_oracle(r: int):
    """Return N(d, m) for P^2 blown up in r points (r <= 3)."""
    assert 0 <= r <= 3
    exceptional = {tuple(sorted((-1 if j == i else 0 for j in range(r)),
                                reverse=True)) for i in range(r)}

    @lru_cache(maxsize=None)
    def N(d, m):
        if r == 3:
            d, m = _canonical3(d, m)
        else:
            m = tuple(sorted(m, reverse=True))
        return N_canon(d, m)

    @lru_cache(maxsize=None)
    def N_canon(d, m):
        if d < 0:
            return 0
        if d == 0:
            return 1 if m in exceptional else 0
        if d == 1:
            return 1 if all(x in (0, 1) for x in m) else 0
        if any(x < 0 for x in m) or any(x >= d for x in m):
            return 0
        n = 3 * d - sum(m) - 1
        total = 0
        for d1 in range(0, d + 1):
            d2 = d - d1
            for a in itertools.product(*[range(-1, mi + 2) for mi in m]):
                b = tuple(mi - ai for mi, ai in zip(m, a))
                if d1 == 0 and tuple(sorted(a, reverse=True)) not in exceptional:
                    continue
                if d2 == 0 and tuple(sorted(b, reverse=True)) not in exceptional:
                    continue
                N1 = N(d1, a)
                if N1 == 0:
                    continue
                N2 = N(d2, b)
                if N2 == 0:
                    continue
                n1 = 3 * d1 - sum(a) - 1
                dot = d1 * d2 - sum(x * y for x, y in zip(a, b))
                c1 = math.comb(n - 3, n1 - 1) if 0 <= n1 - 1 <= n - 3 else 0
                c2 = math.comb(n - 3, n1) if 0 <= n1 <= n - 3 else 0
                total += N1 * N2 * dot * d1 * (d2 * c1 - d1 * c2)
        return total

    return N


def blowup_count(spec_family: str, params: tuple[int, ...]) -> int:
    """Complex count for a p2/bl1/bl2/bl3 degree via the WDVV oracle."""
    if spec_family == "p2":
        return make_oracle(1)(params[0], (0,))
    if spec_family == "bl1":
        return make_oracle(1)(params[0], (params[1],))
    if spec_family == "bl2":
        return make_oracle(2)(params[0], (params[1], params[2]))
    if spec_family == "bl3":
        return make_oracle(3)(params[0], (params[1], params[2], params[3]))
    raise ValueError(spec_family)
