"""Exact arithmetic in a generic multiquadratic Grothendieck-Witt ring.

Elements are integer combinations of square-class symbols <a> where
a = +-q * d_{i1} * ... * d_{ik} for a square-free positive integer q and
formal parameters d_1, ..., d_s.  Equality of expressions produced by the
counting formulas is decided modulo the two-shift relation family
2<m> = 2<2m>.

Square classes form an F_2-vector space, each class a mask: bit 0 is
the sign, bit i (1 <= i <= MAX_PARAMS) is d_i and bit MAX_PARAMS + 1 + j
is the j-th prime in ascending order, so a product of classes is one
XOR.  The fixed prime order makes the prime 2 prime bit 0, so the mask
_TWO of <2> is a constant.  GwMonomial is the readable form of a class,
used only to build elements and to read them out.

A GwElem is (h_coeff, rest), worth h_coeff h + x for x the sum of
rest[m] <m> over sign-positive classes m with non-zero coefficients.
It involves only the d_i that it carries, so it has no s: only the
beta presentation of a row depends on s (`beta_decompose(e, s)`).
Every sum and product is taken in that split form: h<m> = h, so h only
scales by rank, and (a h + x)(b h + y) = (2ab + a rank y + b rank x) h
+ x y (`split_mul`), x y being one XOR convolution that yields no
sign-negative class.  The one sign rewrite, <-q> = h - <q>, lives in
`GwElem.from_coeffs`.  The one canonical readout is `GwElem.terms`,
where <-1> carries h_coeff and <1> rest's <1> plus h_coeff; elements
print in it, and `equals_mod` applies its rule.

The basis element beta^{(l)}_s, the l-th elementary symmetric polynomial
in beta_i = <2> + <2 d_i>, is built in closed form (`beta_sym`): the
product of beta_i over a set J of l points is <2^l> sum_{K subset J} <d_K>,
so beta^{(l)}_s puts C(s - |K|, l - |K|) on <2^{l mod 2} d_K> for each
K subset {1..s} with |K| <= l.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import lru_cache


class ResidualNotInSpan(Exception):
    """A GW element does not fit the h / beta^{(l)} / <1> table format."""


MAX_PARAMS = 32                   # d bits 1..MAX_PARAMS of a mask
_PRIME_SHIFT = MAX_PARAMS + 1     # bit of the prime 2
_NEG, _TWO = 1, 1 << _PRIME_SHIFT  # masks of <-1> and <2>
_D_BITS = _TWO - 2                # d bits of a mask
_PRIMES = [2]                     # ascending primes found so far
_PRIME_LIMIT = 1 << 20            # _PRIMES is not extended past this


def _prime(j: int) -> int:
    """The j-th prime (0-based), extending _PRIMES by sieving when needed."""
    while j >= len(_PRIMES):
        if _PRIMES[-1] > _PRIME_LIMIT:
            raise ValueError(f"no square classes with primes above {_PRIME_LIMIT}")
        n = 2 * _PRIMES[-1]
        sieve = bytearray([1]) * (n + 1)
        for i in range(2, math.isqrt(n) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, n + 1, i)))
        _PRIMES.extend(i for i in range(_PRIMES[-1] + 1, n + 1) if sieve[i])
    return _PRIMES[j]


def _prime_bits(q: int) -> int:
    """Bit j is set iff the j-th prime divides q an odd number of times."""
    if q < 1:
        raise ValueError(f"square class of a non-positive integer {q}")
    bits, j = 0, 0
    while q > 1:
        p = _prime(j)
        if p * p > q:  # what is left of q is a prime
            while _PRIMES[-1] < q:
                _prime(len(_PRIMES))
            j, p = bisect_left(_PRIMES, q), q
        while q % p == 0:
            q //= p
            bits ^= 1 << j
        j += 1
    return bits


def _prime_product(bits: int) -> int:
    return math.prod(_prime(j) for j in range(bits.bit_length()) if bits >> j & 1)


class GwMonomial(namedtuple("GwMonomial", "int_part d_subset sign")):
    """Square-class symbol <sign * int_part * prod d_i>, ordered by
    (int_part, d_subset, sign)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, int_part: int, d_subset: tuple[int, ...], sign: int = 1):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if _prime_product(_prime_bits(int_part)) != int_part:
            raise ValueError(f"int_part {int_part} is not square-free positive")
        if tuple(sorted(set(d_subset))) != d_subset or \
                not all(1 <= i <= MAX_PARAMS for i in d_subset):
            raise ValueError(f"d_subset {d_subset} is not strictly ascending in 1..{MAX_PARAMS}")
        return super().__new__(cls, int_part, d_subset, sign)

    @staticmethod
    def of(a: int, d_subset: Iterable[int] = ()) -> "GwMonomial":
        """Build <a * prod d_i>, reducing a modulo squares."""
        if a == 0:
            raise ValueError("<0> is not a square class")
        sign = 1 if a > 0 else -1
        q = _prime_product(_prime_bits(abs(a)))
        return GwMonomial(q, tuple(sorted(set(d_subset))), sign)

    def __mul__(self, other: "GwMonomial") -> "GwMonomial":
        return _monomial(_mask(self) ^ _mask(other))

    def __str__(self):
        body = str(self.sign * self.int_part)
        tail = "".join(f"d{i}" for i in self.d_subset)
        if tail and self.int_part == 1:
            body = "-" + tail if self.sign < 0 else tail
            return f"<{body}>"
        return f"<{body}{tail}>"


@lru_cache(maxsize=None)
def _mask(m: GwMonomial) -> int:
    mask = sum(1 << i for i in m.d_subset) | (_NEG if m.sign < 0 else 0)
    return mask | _prime_bits(m.int_part) << _PRIME_SHIFT


@lru_cache(maxsize=None)
def _monomial(mask: int) -> GwMonomial:
    d_subset = tuple(i for i in range(1, _PRIME_SHIFT) if mask >> i & 1)
    return GwMonomial(_prime_product(mask >> _PRIME_SHIFT), d_subset, -1 if mask & _NEG else 1)


def _check_params(num_params: int) -> None:
    if not 0 <= num_params <= MAX_PARAMS:
        raise ValueError(f"num_params {num_params} outside 0..{MAX_PARAMS}")


def _check_point(i: int) -> None:
    if not 1 <= i <= MAX_PARAMS:
        raise IndexError(f"point index {i} out of range 1..{MAX_PARAMS}")


class GwElem(namedtuple("GwElem", "h_coeff rest")):
    """h_coeff h + sum rest[m] <m>: rest, never mutated, maps sign-positive
    class masks to non-zero coefficients.  Equal by fields; unhashable."""

    __slots__ = ()

    @staticmethod
    def from_coeffs(coeffs: Mapping[GwMonomial, int] | Iterable[tuple[GwMonomial, int]]
                    ) -> "GwElem":
        a, x = 0, {}  # split form a h + x
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for m, c in items:
            k = _mask(m)
            if k & _NEG:  # <-q> = h - <q>, <-1> = h - <1> among them
                a, k, c = a + c, k ^ _NEG, -c
            x[k] = x.get(k, 0) + c
        return GwElem(a, {k: c for k, c in x.items() if c})

    @staticmethod
    def zero() -> "GwElem":
        return GwElem(0, {})

    @staticmethod
    def symbol(a: int, d_subset: Iterable[int] = ()) -> "GwElem":
        return GwElem.from_coeffs({GwMonomial.of(a, d_subset): 1})

    @property
    def terms(self) -> tuple[tuple[GwMonomial, int], ...]:
        """(symbol, coefficient) pairs of the canonical form, in ascending
        GwMonomial order: <-1> carries h_coeff, and <1> rest's <1> plus h_coeff."""
        a, x = self.h_coeff, self.rest
        canonical = {**x, 0: x.get(0, 0) + a, _NEG: a}
        return tuple(sorted((_monomial(m), c) for m, c in canonical.items() if c))

    def coeff(self, m: GwMonomial) -> int:
        return dict(self.terms).get(m, 0)

    def is_zero(self) -> bool:
        return not (self.h_coeff or self.rest)

    def __add__(self, other: "GwElem") -> "GwElem":
        return GwElem(*split_sum([(1, self), (1, other)]))

    def __neg__(self) -> "GwElem":
        return self * -1

    def __sub__(self, other: "GwElem") -> "GwElem":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GwElem(*split_sum([(other, self)]))
        return GwElem(*split_mul(self, other))

    __rmul__ = __mul__

    def rank(self) -> int:
        return 2 * self.h_coeff + sum(self.rest.values())

    def signature(self, signs: Mapping[int, int]) -> int:
        total = 0  # h has signature 0
        for m, c in self.rest.items():
            v = 1
            for i in range(1, (m & _D_BITS).bit_length()):
                if m >> i & 1:
                    v *= signs[i]
            total += c * v
        return total

    def substitute_square(self, i: int) -> "GwElem":
        """Set d_i := 1 (drop i from every subset)."""
        _check_point(i)
        dropped = [(c, (0, {m & ~(1 << i): 1})) for m, c in self.rest.items()]
        return GwElem(*split_sum([(1, (self.h_coeff, {}))] + dropped))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.terms:
            if c == 1:
                parts.append(str(m))
            elif c == -1:
                parts.append(f"-{m}")
            else:
                parts.append(f"{c}{m}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def h() -> GwElem:
    """The hyperbolic form <1> + <-1>."""
    return GwElem(1, {})


def one() -> GwElem:
    return GwElem(0, {0: 1})


def split_mul(e1: tuple, e2: tuple) -> tuple[int, dict[int, int]]:
    """(a h + x)(b h + y) = (2ab + a rank y + b rank x) h + x y, for e1 and
    e2 whose items 0 and 1 are (h count, rest): a GwElem or a bare pair."""
    a, x, b, y = e1[0], e1[1], e2[0], e2[1]
    acc: dict[int, int] = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            acc[m1 ^ m2] = acc.get(m1 ^ m2, 0) + c1 * c2
    return (2 * a * b + a * sum(y.values()) + b * sum(x.values()),
            {m: c for m, c in acc.items() if c})


def split_sum(terms: Iterable[tuple[int, tuple]]) -> tuple[int, dict[int, int]]:
    """The sum of k e over the (k, e) pairs, each e a GwElem or a bare
    (h count, rest) pair."""
    a, acc = 0, {}
    for k, e in terms:
        a += k * e[0]
        for m, c in e[1].items():
            acc[m] = acc.get(m, 0) + k * c
    return a, {m: c for m, c in acc.items() if c}


def equals_mod(e1: GwElem, e2: GwElem) -> bool:
    """Equality modulo the lattice generated by 2<m> - 2<2m>.

    In canonical form (`GwElem.terms`) <-1> carries h_coeff and has no
    partner, so the h counts must be equal; 2<-q> - 2<-2q> = 2<2q> - 2<q>,
    so every relation is one on rest.  On each partner pair {<m>, <2m>} of
    rest (masks differing in the bit of the prime 2) the lattice is spanned
    by (2, -2), so a difference vector lies in it iff the pair
    coefficients cancel and are even.
    """
    if e1.h_coeff != e2.h_coeff:
        return False
    a, b = e1.rest, e2.rest
    for m in a.keys() | b.keys():
        c, partner = a.get(m, 0) - b.get(m, 0), m ^ _TWO
        if c % 2 or c + a.get(partner, 0) - b.get(partner, 0):
            return False
    return True


class BetaForm(namedtuple("BetaForm", "h_coeff beta_coeffs one_coeff")):
    """Presentation c_{s+1} h + sum_l c_l beta_s^{(l)} + c_0 <1>."""

    __slots__ = ()

    def expand(self) -> GwElem:
        """The element over s = len(beta_coeffs) parameters."""
        s = len(self.beta_coeffs)
        _check_params(s)
        return GwElem(*split_sum([(self.h_coeff, (1, {})), (self.one_coeff, (0, {0: 1}))] + [
            (c, beta_sym(l, s)) for l, c in enumerate(self.beta_coeffs, start=1) if c]))


@lru_cache(maxsize=None)
def beta_elem(i: int) -> GwElem:
    """beta_i = <2> + <2 d_i>."""
    _check_point(i)
    return GwElem.from_coeffs({GwMonomial(2, ()): 1, GwMonomial(2, (i,)): 1})


@lru_cache(maxsize=None)
def beta_sym(l: int, num_params: int) -> GwElem:
    """l-th elementary symmetric polynomial in beta_1 .. beta_s, in closed
    form: C(s - |K|, l - |K|), the number of l-sets J that hold K, on
    <2^{l mod 2} d_K> for each |K| <= l (see the module docstring)."""
    if l < 0:
        raise ValueError(f"no beta^({l}) of negative degree")
    _check_params(num_params)
    two = _TWO if l % 2 else 0
    masks = {}
    for k in range(l + 1 if l <= num_params else 0):  # no l-set past s
        c = math.comb(num_params - k, l - k)
        for K in itertools.combinations(range(1, num_params + 1), k):
            masks[sum(1 << i for i in K) | two] = c
    return GwElem(0, masks)


def beta_decompose(e: GwElem, s: int) -> BetaForm:
    """Solve e = c_h h + sum c_l beta^{(l)}_s + c_0 <1> modulo the two-shift lattice.

    The system is triangular in decreasing d-subset size: the only beta
    term hitting monomials with |subset| = l after the larger ones are
    peeled off is c_l * <2^{l mod 2} prod_{i in K} d_i> with K the subset
    itself.  It is solved on a copy of e's rest, from which each
    c_l beta^{(l)} is subtracted in place; h_coeff is e's.  Raises
    ResidualNotInSpan when no presentation exists, as when e carries a
    d_i with i > s.

    A level with more l-subsets than the remainder has masks visits only
    the l-subsets K present in it, in lexicographic order, and the first
    absent one: an absent K has a = b = 0, so it passes the parity test
    with c = 0, and every later absent one repeats its check.  So a level
    costs at most the size of the remainder, not C(s, l).
    """
    _check_params(s)
    masks = dict(e.rest)  # the remainder, solved in place
    within = (2 << s) - 2  # d bits 1..s
    cs = [0] * (s + 1)  # cs[l] for l = 1..s
    for l in range(s, 0, -1):
        value, subsets = None, itertools.combinations(range(1, s + 1), l)
        if math.comb(s, l) > len(masks):  # some l-subset is absent
            found = sorted({tuple(i for i in range(1, s + 1) if d >> i & 1) for m in masks
                            if not (d := m & ~_TWO) & ~within and d.bit_count() == l})
            subsets = sorted(found + [next(K for K, P in zip(subsets, found + [None]) if K != P)])
        for K in subsets:
            odd = sum(1 << i for i in K)
            a, b = masks.get(odd, 0), masks.get(odd | _TWO, 0)
            c = a + b
            # slice must be reachable from c * <2^{l mod 2} prod_K d> by (2,-2) moves
            anchor = a if l % 2 == 0 else b
            if (anchor - c) % 2 != 0:
                raise ResidualNotInSpan(
                    f"parity failure on subset {K}: ({a},{b}) vs c={c}")
            if value is None:
                value = c
            elif value != c:
                raise ResidualNotInSpan(
                    f"inconsistent coefficient for beta^({l}): {value} vs {c} at {K}")
        if value:
            cs[l] = value
            for m, c in beta_sym(l, s).rest.items():
                masks[m] = masks.get(m, 0) - value * c
    one_coeff = masks.get(0, 0) + masks.get(_TWO, 0)
    remainder = GwElem(*split_sum([(1, (e.h_coeff, masks))]))
    candidate = GwElem(*split_sum([(1, (e.h_coeff, {0: one_coeff}))]))
    if not equals_mod(remainder, candidate):
        raise ResidualNotInSpan(
            f"residual {remainder - candidate} not in the two-shift lattice")
    form = BetaForm(e.h_coeff, tuple(cs[1:]), one_coeff)
    if not equals_mod(form.expand(), e):
        raise ResidualNotInSpan(f"{form} does not expand back to {e}")
    return form


def display(e: GwElem) -> tuple[int, list[tuple[GwMonomial, int]]]:
    """e as h_count * h + residual over sign-positive symbols: its fields."""
    return e.h_coeff, sorted((_monomial(m), c) for m, c in e.rest.items())


def to_json_dict(e: GwElem) -> dict:
    n, residual = display(e)
    return {
        "h": n,
        "terms": [
            {"sign": m.sign, "q": m.int_part, "d": list(m.d_subset), "c": c}
            for m, c in residual
        ],
    }
