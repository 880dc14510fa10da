"""Exact arithmetic in a generic multiquadratic Grothendieck-Witt ring.

Elements are integer combinations of square-class symbols <a> where
a = +-q * d_{i1} * ... * d_{ik} for a square-free positive integer q and
formal parameters d_1, ..., d_s.  The canonical form keeps every symbol
sign-positive except the single distinguished <-1>, obtained by the
hyperbolic rewrite <-m> = <1> + <-1> - <m>.  Equality of expressions
produced by the counting formulas is decided modulo the two-shift
relation family 2<m> = 2<2m>.

Square classes form an F_2-vector space.  GwElem maps the mask of each
class to its coefficient: bit 0 is the sign, bit i (1 <= i <= MAX_PARAMS)
is d_i and bit MAX_PARAMS + 1 + j is the j-th prime in ascending order, so
a product of classes is one XOR and a mask means the same in every
process.  GwMonomial is the readable form of a class, used only to build
elements and to read them out.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping


class ResidualNotInSpan(Exception):
    """A GW element does not fit the h / beta^{(l)} / <1> table format."""


MAX_PARAMS = 32                   # d bits 1..MAX_PARAMS of a mask
_PRIME_SHIFT = MAX_PARAMS + 1     # bit of the prime 2
_NEG, _TWO = 1, 1 << _PRIME_SHIFT  # masks of <-1> and <2>
_UNIT = {0: 1}                    # masks of the element <1>
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


@dataclass(frozen=True, order=True)
class GwMonomial:
    """Square-class symbol <sign * int_part * prod d_i>."""

    int_part: int
    d_subset: tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if _prime_product(_prime_bits(self.int_part)) != self.int_part:
            raise ValueError(f"int_part {self.int_part} is not square-free positive")
        d = self.d_subset
        if tuple(sorted(set(d))) != d or not all(1 <= i <= MAX_PARAMS for i in d):
            raise ValueError(f"d_subset {d} is not strictly ascending in 1..{MAX_PARAMS}")

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

    def key(self) -> str:
        """Stable serialization "+q*d{i}d{j}..." with ascending indices."""
        head = ("+" if self.sign > 0 else "-") + str(self.int_part)
        if not self.d_subset:
            return head
        return head + "*" + "".join(f"d{i}" for i in self.d_subset)

    def __str__(self):
        body = str(self.sign * self.int_part)
        tail = "".join(f"d{i}" for i in self.d_subset)
        if tail and self.int_part == 1:
            body = "-" + tail if self.sign < 0 else tail
            return f"<{body}>"
        return f"<{body}{tail}>"


_ONE = GwMonomial(1, ())
_MINUS_ONE = GwMonomial(1, (), -1)


@lru_cache(maxsize=None)
def _mask(m: GwMonomial) -> int:
    mask = sum(1 << i for i in m.d_subset) | (_NEG if m.sign < 0 else 0)
    return mask | _prime_bits(m.int_part) << _PRIME_SHIFT


@lru_cache(maxsize=None)
def _monomial(mask: int) -> GwMonomial:
    d_subset = tuple(i for i in range(1, _PRIME_SHIFT) if mask >> i & 1)
    return GwMonomial(_prime_product(mask >> _PRIME_SHIFT), d_subset, -1 if mask & _NEG else 1)


def _canonical(acc: dict[int, int], num_params: int) -> "GwElem":
    """Apply <-m> = <1> + <-1> - <m> and drop zero coefficients."""
    for m in [m for m in acc if m & _NEG and m != _NEG]:
        c = acc.pop(m)
        acc[0] = acc.get(0, 0) + c
        acc[_NEG] = acc.get(_NEG, 0) + c
        acc[m ^ _NEG] = acc.get(m ^ _NEG, 0) - c
    return GwElem({m: c for m, c in acc.items() if c}, num_params)


@dataclass(frozen=True, repr=False)
class GwElem:
    """Integer combination of square-class symbols, in canonical form.

    masks maps each class's mask to its non-zero coefficient; never mutated.
    """

    masks: dict[int, int]
    num_params: int

    @staticmethod
    def from_coeffs(coeffs: Mapping[GwMonomial, int] | Iterable[tuple[GwMonomial, int]],
                    num_params: int) -> "GwElem":
        if not 0 <= num_params <= MAX_PARAMS:
            raise ValueError(f"num_params {num_params} outside 0..{MAX_PARAMS}")
        acc: dict[int, int] = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for m, c in items:
            if m.d_subset and m.d_subset[-1] > num_params:
                raise IndexError(f"{m} has a d index outside 1..{num_params}")
            k = _mask(m)
            acc[k] = acc.get(k, 0) + c
        return _canonical(acc, num_params)

    @staticmethod
    def zero(num_params: int = 0) -> "GwElem":
        return GwElem.from_coeffs((), num_params)

    @staticmethod
    def symbol(a: int, d_subset: Iterable[int] = (), num_params: int = 0) -> "GwElem":
        return GwElem.from_coeffs({GwMonomial.of(a, d_subset): 1}, num_params)

    @property
    def terms(self) -> tuple[tuple[GwMonomial, int], ...]:
        """(symbol, coefficient) pairs in ascending GwMonomial order."""
        return tuple(sorted((_monomial(m), c) for m, c in self.masks.items()))

    def coeff(self, m: GwMonomial) -> int:
        return self.masks.get(_mask(m), 0)

    def is_zero(self) -> bool:
        return not self.masks

    def _binop(self, other: "GwElem"):
        if self.num_params != other.num_params:
            raise ValueError(f"mismatched num_params {self.num_params} != {other.num_params}")

    def __add__(self, other: "GwElem") -> "GwElem":
        self._binop(other)
        acc = dict(self.masks)
        for m, c in other.masks.items():
            acc[m] = acc.get(m, 0) + c
        return _canonical(acc, self.num_params)

    def __neg__(self) -> "GwElem":
        return self * -1

    def __sub__(self, other: "GwElem") -> "GwElem":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _canonical({m: c * other for m, c in self.masks.items()}, self.num_params)
        self._binop(other)
        if other.masks == _UNIT:
            return self
        acc: dict[int, int] = {}
        for m1, c1 in self.masks.items():
            for m2, c2 in other.masks.items():
                m = m1 ^ m2
                acc[m] = acc.get(m, 0) + c1 * c2
        return _canonical(acc, self.num_params)

    __rmul__ = __mul__

    def rank(self) -> int:
        return sum(self.masks.values())

    def signature(self, signs: Mapping[int, int]) -> int:
        total = 0
        for m, c in self.masks.items():
            v = -1 if m & _NEG else 1
            for i in range(1, self.num_params + 1):
                if m >> i & 1:
                    v *= signs[i]
            total += c * v
        return total

    def substitute_square(self, i: int) -> "GwElem":
        """Set d_i := 1 (drop i from every subset); num_params unchanged."""
        if not (1 <= i <= self.num_params):
            raise IndexError(f"parameter index {i} out of range 1..{self.num_params}")
        acc: dict[int, int] = {}
        for m, c in self.masks.items():
            m &= ~(1 << i)
            acc[m] = acc.get(m, 0) + c
        return _canonical(acc, self.num_params)

    def __str__(self):
        if not self.masks:
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


@lru_cache(maxsize=None)
def h(num_params: int = 0) -> GwElem:
    """The hyperbolic form <1> + <-1>."""
    return GwElem.from_coeffs({_ONE: 1, _MINUS_ONE: 1}, num_params)


@lru_cache(maxsize=None)
def one(num_params: int = 0) -> GwElem:
    return GwElem.from_coeffs({_ONE: 1}, num_params)


def equals_mod(e1: GwElem, e2: GwElem) -> bool:
    """Equality modulo the lattice generated by 2<m> - 2<2m>.

    On each partner pair {<m>, <2m>} (masks differing in the bit of the
    prime 2) the lattice is spanned by (2, -2), so a difference vector lies
    in it iff the pair coefficients cancel and are even; <-1> has no
    partner in canonical form, so its coordinate admits no relation.
    """
    diff = (e1 - e2).masks
    for m, c in diff.items():
        if c + diff.get(m ^ _TWO, 0) != 0 or c % 2 != 0:
            return False
    return True


@dataclass(frozen=True)
class BetaForm:
    """Presentation c_{s+1} h + sum_l c_l beta_s^{(l)} + c_0 <1>."""

    h_coeff: int
    beta_coeffs: tuple[int, ...]
    one_coeff: int

    def expand(self, num_params: int | None = None) -> GwElem:
        s = len(self.beta_coeffs) if num_params is None else num_params
        total = self.h_coeff * h(s) + self.one_coeff * one(s)
        for l, c in enumerate(self.beta_coeffs, start=1):
            if c:
                total = total + c * beta_sym(l, s)
        return total


@lru_cache(maxsize=None)
def beta_elem(i: int, num_params: int) -> GwElem:
    """beta_i = <2> + <2 d_i>."""
    if not 1 <= i <= num_params:
        raise IndexError(f"point index {i} out of range 1..{num_params}")
    return GwElem.from_coeffs(
        {GwMonomial(2, ()): 1, GwMonomial(2, (i,)): 1}, num_params)


@lru_cache(maxsize=None)
def beta_sym(l: int, num_params: int) -> GwElem:
    """l-th elementary symmetric polynomial in beta_1 .. beta_s."""
    total = GwElem.zero(num_params)
    for J in itertools.combinations(range(1, num_params + 1), l):
        prod = one(num_params)
        for i in J:
            prod = prod * beta_elem(i, num_params)
        total = total + prod
    return total


def beta_decompose(e: GwElem) -> BetaForm:
    """Solve e = c_h h + sum c_l beta^{(l)} + c_0 <1> modulo the two-shift lattice.

    The system is triangular in decreasing d-subset size: the only beta
    term hitting monomials with |subset| = l after the larger ones are
    peeled off is c_l * <2^{l mod 2} prod_{i in K} d_i> with K the subset
    itself.  Raises ResidualNotInSpan when no presentation exists.
    """
    s = e.num_params
    remainder = e
    cs = [0] * (s + 1)  # cs[l] for l = 1..s
    for l in range(s, 0, -1):
        masks = remainder.masks
        value = None
        for K in itertools.combinations(range(1, s + 1), l):
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
        if value is None:
            value = 0
        cs[l] = value
        if value:
            remainder = remainder - value * beta_sym(l, s)
    masks = remainder.masks
    h_coeff = masks.get(_NEG, 0)
    one_coeff = (masks.get(0, 0) - h_coeff) + masks.get(_TWO, 0)
    candidate = h_coeff * h(s) + one_coeff * one(s)
    if not equals_mod(remainder, candidate):
        raise ResidualNotInSpan(
            f"residual {remainder - candidate} not in the two-shift lattice")
    form = BetaForm(h_coeff, tuple(cs[1:]), one_coeff)
    if not equals_mod(form.expand(s), e):
        raise ResidualNotInSpan(f"{form} does not expand back to {e}")
    return form


def display(e: GwElem) -> tuple[int, list[tuple[GwMonomial, int]]]:
    """Split e as h_count * h + residual over sign-positive symbols."""
    n = e.coeff(_MINUS_ONE)
    residual = []
    for m, c in e.terms:
        if m == _MINUS_ONE:
            continue
        if m == _ONE:
            c -= n
        if c != 0:
            residual.append((m, c))
    return n, residual


def assemble(h_count: int, residual: Iterable[tuple[GwMonomial, int]],
             num_params: int) -> GwElem:
    total = h_count * h(num_params)
    return total + GwElem.from_coeffs(dict(residual), num_params)


def to_json_dict(e: GwElem) -> dict:
    n, residual = display(e)
    return {
        "h": n,
        "terms": [
            {"sign": m.sign, "q": m.int_part, "d": list(m.d_subset), "c": c}
            for m, c in residual
        ],
    }
