"""Exact q-combinatorics: Gaussian binomials, subspace-lattice Moebius
values, q-Krawtchouk eigenvalues and the associated distribution transform.

Everything here is exact.  The Krawtchouk sums behind the MacWilliams
transform are integer sums; only the public transform returns
fractions.Fraction, imported on its first call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence


@lru_cache(maxsize=None)
def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of F_q^a."""
    if a < 0 or q < 2:
        raise ValueError("need a >= 0 and q >= 2")
    if b < 0 or b > a:
        return 0
    num = 1
    den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise ArithmeticError("Gaussian binomial is not an integer")
    return num // den


def subspace_moebius(s: int, t: int, q: int) -> int:
    """Moebius value mu(S, T) on the subspace lattice, dim S = s, dim T = t."""
    if s > t:
        raise ValueError("need s <= t")
    d = t - s
    return (-1) ** d * q ** (d * (d - 1) // 2)


def krawtchouk(i: int, j: int, k: int, m: int, q: int) -> int:
    """Eigenvalue P_i(j) of the rank-metric association scheme on F_q^{k x m}."""
    if not (0 <= i <= k and 0 <= j <= k and k <= m):
        raise ValueError("need 0 <= i, j <= k <= m")
    total = 0
    for ell in range(k + 1):
        c = gaussian_binomial(k - ell, k - i, q) * gaussian_binomial(k - j, ell, q)
        if c == 0:
            continue
        d = i - ell
        sign = -1 if d % 2 else 1
        total += sign * q ** (ell * m + d * (d - 1) // 2) * c
    return total


def rank_sphere_size(i: int, k: int, m: int, q: int) -> int:
    """Number of k x m matrices over F_q of rank exactly i."""
    if not 0 <= i <= k:
        raise ValueError("need 0 <= i <= k")
    out = gaussian_binomial(k, i, q)
    for ell in range(i):
        out *= q ** m - q ** ell
    return out


class KrawtchoukTable:
    """All P_i(j) for fixed (k, m, q); entry [j][i] is P_i(j)."""

    __slots__ = ("q", "k", "m", "P")

    def __init__(self, k: int, m: int, q: int):
        self.q = q
        self.k = k
        self.m = m
        self.P = [[krawtchouk(i, j, k, m, q) for i in range(k + 1)]
                  for j in range(k + 1)]


@lru_cache(maxsize=None)
def build_table(k: int, m: int, q: int) -> KrawtchoukTable:
    return KrawtchoukTable(k, m, q)


def krawtchouk_sums(c: Sequence, table: KrawtchoukTable) -> List:
    """The vector c P: entry i is sum_j c_j P_j(i), exact in the type of
    the c_j (integers for counts).  For c = |C| B, with B the distance
    distribution of C, it is |C|^2 times the MacWilliams transform."""
    if len(c) != table.k + 1:
        raise ValueError(f"distribution length {len(c)} != k+1 = {table.k + 1}")
    P = table.P
    return [sum(c[j] * P[j][i] for j in range(table.k + 1))
            for i in range(table.k + 1)]


def macwilliams_transform(B: Sequence, codesize: int,
                          table: KrawtchoukTable) -> List["Fraction"]:
    """Exact transform |C|^{-1} B P of a distance distribution.

    For a linear code this equals the weight distribution of the dual.
    """
    from fractions import Fraction
    sums = krawtchouk_sums(B, table)
    if codesize < 1:
        raise ValueError("code size must be >= 1")
    return [Fraction(s) / codesize for s in sums]


def dual_weight_distribution(W: Sequence[int], codesize: int,
                             table: KrawtchoukTable) -> List[int]:
    """The weight distribution of the dual of a linear code with weight
    distribution W: the exact MacWilliams transform, which must be
    integral.  A remainder raises ArithmeticError, since no code has a
    fractional distribution; nothing is rounded."""
    sums = krawtchouk_sums(W, table)
    if codesize < 1:
        raise ValueError("code size must be >= 1")
    out = []
    for s in sums:
        w, r = divmod(s, codesize)
        if r:
            raise ArithmeticError(f"MacWilliams transform of {list(W)} over "
                                  f"{codesize} words is not integral")
        out.append(w)
    return out
