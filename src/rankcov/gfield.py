"""Arithmetic in GF(p^e) with integer-encoded elements.

Elements of GF(p^e) are encoded as integers in [0, q): the base-p digits
of the code are the coefficients of the element in the polynomial basis,
constant term first.  The modulus of :func:`make_field` is always the
lexicographically least monic irreducible polynomial of degree e over
GF(p) (coefficients compared from the constant term upward), so two
fields with the same (p, e) are bit-for-bit identical.
:func:`extension_field` builds GF(q^m) over GF(q) by the same rule.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Optional, Tuple

MAX_ORDER = 1 << 16

# full mul/inv tables are only built below this order
_TABLE_CAP = 1 << 10


def _least_factor(n: int) -> int:
    """The least factor d >= 2 of n if d <= isqrt(MAX_ORDER), else n.
    Every composite within the cap has such a factor, so an n >= 2 with
    none is prime or above the cap, and no n costs over 255 divisions."""
    return next((d for d in range(2, isqrt(MAX_ORDER) + 1) if n % d == 0), n)


def _prime_power(q: int) -> Tuple[int, int]:
    """(p, e) with q = p^e; a q above the cap with no factor up to
    isqrt(MAX_ORDER) comes back as (q, 1), which make_field refuses by
    the cap."""
    if q < 2:
        raise ValueError("field order must be at least 2")
    p = _least_factor(q)
    n, e = q // p, 1
    while n % p == 0:
        n, e = n // p, e + 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz"  # digits as int() reads them
_FROM_CHARS = bytes.maketrans(_CHARS, bytes(range(36)))
_TO_CHARS = bytes.maketrans(bytes(range(36)), _CHARS)
_FORMATS = {2: "b", 8: "o", 16: "x"}


def digits(code: int, base: int, n: int) -> Tuple[int, ...]:
    """The n base-`base` digits of code, low digit first.

    This little-endian codec encodes field elements (digits over GF(p))
    and ambient matrices (row-major entries over GF(q)) alike.
    """
    if base in _FORMATS:  # format writes the high digit first
        text = format(code, f"0{n}{_FORMATS[base]}").encode()
        return tuple(text.translate(_FROM_CHARS)[::-1][:n])
    out = []
    for _ in range(n):
        out.append(code % base)
        code //= base
    return tuple(out)


def undigits(values, base: int) -> int:
    """Inverse of :func:`digits`: the number with digit t = values[t]."""
    if base <= 36:  # int parses the digits, high first
        return int(bytes(values)[::-1].translate(_TO_CHARS) or b"0", base)
    code = 0
    for d in reversed(tuple(values)):
        code = code * base + d
    return code


# entries of the digit-sum table of :func:`_chunk_sums`
_CHUNK_CAP = 1 << 13


@lru_cache(maxsize=32)
def _chunk_sums(p: int) -> tuple:
    """(P, table) for odd p: P = p^c for the largest c >= 1 with P^2
    within the cap, and table[x * P + y] the digit-wise mod-p sum of
    x, y < P, built on first use one top digit at a time.  The table is
    None when p^2 alone exceeds the cap."""
    c = 1
    while p ** (2 * c + 2) <= _CHUNK_CAP:
        c += 1
    P = p ** c
    if P * P > _CHUNK_CAP:
        return P, None
    rows = [[0]]  # rows[x][y]: the sum of x, y < p^j, from j = 0
    for w in (p ** j for j in range(c)):
        # x + d w plus y + f w is rows[x][y] + ((d + f) mod p) w
        rows = [[s + (d + f) % p * w for f in range(p) for s in row]
                for d in range(p) for row in rows]
    return P, [s for row in rows for s in row]


def add_index(field: FieldSpec, a: int, b: int) -> int:
    """The digit-wise mod-p sum of a and b as base-p numbers, with p the
    characteristic of field: the code of a sum of elements of GF(p^e) or
    of an extension over it, and the index of the entrywise sum of the
    matrices indexed a and b.  XOR for p = 2, else c base-p digits at a
    time through a table."""
    if field.p == 2:
        return a ^ b
    if not b:
        return a
    P, table = _chunk_sums(field.p)
    out = 0
    mult = 1
    while a or b:
        if table is None:
            out += (a % P + b % P) % P * mult
        else:
            out += table[a % P * P + b % P] * mult
        a //= P
        b //= P
        mult *= P
    return out


def scale_index(field: FieldSpec, c: int, v: int, n: int) -> int:
    """The index of c times the n-entry vector indexed by v: for p = 2 the
    bits s of v's entries times c x^s, and no carry crosses entries."""
    if c < 2:
        return c * v
    if field.p == 2:
        ones = ((1 << field.e * n) - 1) // (field.q - 1)  # bit e t, t < n
        out = 0
        for s in range(field.e):
            out ^= (v >> s & ones) * field.mul(c, 1 << s)
        return out
    return undigits([field.mul(c, x) for x in digits(v, field.q, n)], field.q)


_NONZERO3, _TWO3 = (bytes.maketrans(b"\0\1\2", t) for t in (b"011", b"001"))


def planes3(values) -> Tuple[int, int]:
    """Bit t of the planes: values[t] (a GF(3) digit) is nonzero, is 2."""
    text = bytes(values)[::-1]
    return (int(text.translate(_NONZERO3) or b"0", 2),
            int(text.translate(_TWO3) or b"0", 2))


def sub3(x0: int, x1: int, y0: int, y1: int) -> Tuple[int, int]:
    """Bitwise x - y over GF(3) on plane pairs (bit w: element w is nonzero,
    is 2), where -y is (y0, y0 ^ y1) (Boothby and Bradshaw, 0901.1413)."""
    return (x0 ^ y0) | (x1 ^ y1), (x0 & y0) ^ (x1 | (y0 ^ y1))


# Polynomials over a coefficient field F (anything with q/add/sub/mul/inv)
# are tuples of element codes, constant term first.

def _poly_mul(F, a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return tuple(out)


def _poly_mod(F, num: Tuple[int, ...], den: Tuple[int, ...]) -> Tuple[int, ...]:
    """Remainder of num modulo den, trailing zeros stripped."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = F.inv(den[-1])
    while len(num) - 1 >= dd:
        if num[-1] == 0:
            num.pop()
            continue
        factor = F.mul(num[-1], inv_lead)
        shift = len(num) - 1 - dd
        for i in range(dd + 1):
            num[shift + i] = F.sub(num[shift + i], F.mul(factor, den[i]))
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


def _is_irreducible(F, poly: Tuple[int, ...]) -> bool:
    """Ben-Or's test for a monic poly of degree n over F: irreducible iff
    gcd(x^(Q^i) - x mod poly, poly) = 1 for i = 1..n/2, Q = |F| (Ben-Or,
    "Probabilistic algorithms in finite fields", FOCS 1981).  A factor of
    degree d <= n/2 divides x^(Q^d) - x, so the scan needs no trial
    division by the Q^d monic polynomials of each degree."""
    h = (0, 1)  # x^(Q^i) mod poly, from i = 0
    for _ in range((len(poly) - 1) // 2):
        power, h, n = h, (1,), F.q
        while n:  # h = power^Q mod poly
            if n & 1:
                h = _poly_mod(F, _poly_mul(F, h, power), poly)
            power = _poly_mod(F, _poly_mul(F, power, power), poly)
            n >>= 1
        a, b = poly, list(h) + [0] * (2 - len(h))
        b[1] = F.sub(b[1], 1)
        while b and not b[-1]:
            b.pop()
        while b:  # Euclid: gcd(h - x, poly)
            a, b = b, _poly_mod(F, a, b)
        if len(a) > 1:
            return False
    return True


def least_modulus(F, degree: int) -> Tuple[int, ...]:
    """The lexicographically least monic irreducible of the given degree
    over F, coefficients compared from the constant term upward."""
    for low in range(F.q ** degree):
        poly = digits(low, F.q, degree) + (1,)
        if _is_irreducible(F, poly):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _mul_codes(F, modulus: Tuple[int, ...], a: int, b: int) -> int:
    """Product of two element codes of F[x]/(modulus)."""
    n = len(modulus) - 1
    prod = _poly_mul(F, digits(a, F.q, n), digits(b, F.q, n))
    return undigits(_poly_mod(F, prod, modulus), F.q)


class FieldSpec:
    """Immutable description of GF(p^e) = base[x]/(modulus) plus its
    arithmetic.  The base defaults to GF(p); an element code's base-|base|
    digits are its coordinates in the polynomial basis.

    Construct via :func:`make_field` or :func:`extension_field`; direct
    instantiation skips the deterministic-modulus guarantee.
    """

    __slots__ = ("p", "e", "q", "modulus", "base", "_mul_table", "_inv_table")

    def __init__(self, p: int, e: int, modulus: Tuple[int, ...],
                 base: Optional["FieldSpec"] = None):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus
        self.base = make_field(p) if base is None and e > 1 else base
        self._mul_table = None
        self._inv_table = None
        if self.q <= _TABLE_CAP:
            self._build_tables()

    def _build_tables(self) -> None:
        """mul/inv tables from the powers of the least generator g of the
        multiplicative group: a*b = g^(log a + log b), 1/a = g^(-log a).
        That is O(q) direct products instead of q^2/2."""
        q = self.q
        for g in range(1, q):
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self._mul_direct(x, g)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        logs = log[1:]
        exp2 = exp + exp  # log a + log b < 2(q - 1): no reduction needed
        mul = [0] * q
        for la in logs:
            mul.append(0)
            mul += [exp2[la + lb] for lb in logs]
        self._mul_table = mul
        self._inv_table = [0] + [exp[-la] for la in logs]

    def _mul_direct(self, a: int, b: int) -> int:
        if self.base is None:
            return (a * b) % self.p
        return _mul_codes(self.base, self.modulus, a, b)

    # -- element operations (codes in [0, q)) --

    def check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"element code {a} out of range for GF({self.q})")

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return add_index(self, a, b)

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.mul(self.p - 1, a)

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return add_index(self, a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_direct(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        if self._inv_table is not None:
            return self._inv_table[a]
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 1 if n == 0 else 0
        n %= self.q - 1
        result = 1
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and (self.p, self.e, self.modulus)
                == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> FieldSpec:
    """Return GF(p^e) with the canonical (lexicographically least) modulus.

    p is tested by :func:`_least_factor`'s bounded trial division: a p
    above the cap MAX_ORDER is refused at once, by the cap if it has no
    factor up to isqrt(MAX_ORDER) and as not prime otherwise."""
    if p < 2 or _least_factor(p) != p:
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if p ** e > MAX_ORDER:
        raise ValueError(f"field order {p**e} exceeds the cap {MAX_ORDER}")
    if e == 1:
        return FieldSpec(p, 1, (0, 1))
    return FieldSpec(p, e, least_modulus(make_field(p), e))


@lru_cache(maxsize=None)
def extension_field(q: int, m: int) -> FieldSpec:
    """GF(q^m) over GF(q), modulo the least monic irreducible of degree m
    over GF(q), and GF(q) itself for m = 1; no order cap."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    base = field_from_order(q)
    if m == 1:
        return base
    return FieldSpec(base.p, base.e * m, least_modulus(base, m), base)


def field_from_order(q: int) -> FieldSpec:
    """Return GF(q) for a prime power q: make_field(p, e) with q = p^e,
    so an order above the cap is refused without a primality test."""
    return make_field(*_prime_power(q))
