"""Translate (coset) analysis of rank-metric codes.

Covers the direct weight distribution of a translate C+X, the completion
of the distribution tail from its first k-d(dual)+1 entries by Moebius
inversion on the subspace lattice, and the annihilator-polynomial
identity behind the external distance bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .ambient import add_index, mat_index, rank_of_index, rank_table
from .codes import ENUM_GUARD, GuardExceeded, RankCode
from .covering import external_support
from .matlin import Mat, Subspace
from .qcomb import KrawtchoukTable, build_table, gaussian_binomial

# coset_profile reads ranks from the cached q^(km)-byte rank table up to
# this ambient size and row-reduces M + X per codeword above it
TABLE_CAP = 1 << 20


@dataclass(frozen=True)
class CosetProfile:
    code: RankCode
    X: Mat
    W: Tuple[int, ...]
    minweight: int


def coset_profile(C: RankCode, X: Mat, guard: int = ENUM_GUARD) -> CosetProfile:
    """Exact weight distribution of the translate C+X by enumeration."""
    if X.field != C.field or (X.k, X.m) != (C.k, C.m):
        raise ValueError("translate matrix dimension/field mismatch")
    if C.cardinality() > guard:
        raise GuardExceeded(
            f"coset enumeration over {C.cardinality()} codewords exceeds "
            f"the guard {guard}")
    F, n = C.field, C.k * C.m
    if F.q ** n <= TABLE_CAP:
        rank = rank_table(F, C.k, C.m).__getitem__
    else:
        rank = rank_of_index(F, C.k, C.m)
    x_idx = mat_index(X)
    W = [0] * (C.k + 1)
    for w in C.word_indices(guard):
        W[rank(add_index(F, w, x_idx))] += 1
    minweight = next(i for i, w in enumerate(W) if w)
    return CosetProfile(C, X, tuple(W), minweight)


def moebius_complete(q: int, k: int, m: int, codesize: int, d_perp: int,
                     prefix: Sequence[int]) -> List[int]:
    """Complete a translate weight distribution from its leading entries.

    Takes W_0..W_{k-d_perp} of some translate C+X of a linear code with
    |C| = codesize and dual distance d_perp, and returns the full vector
    W_0..W_k.  Entry i of the tail is the Moebius-weighted combination

        W_i = sum_{u=0}^{i} (-1)^{i-u} q^{C(i-u,2)} [k-u, i-u]_q T_u

    where T_u is the total section count over the u-dimensional
    subspaces: the prefix-indexed sum for u <= k-d_perp and the
    translate-invariant value [k, u]_q |C| / q^{m(k-u)} above.  This is
    the composition validated against the brute-force coset oracle in
    the test suite.
    """
    if not 0 <= d_perp <= k:
        raise ValueError("need 0 <= d_perp <= k")
    if len(prefix) != k - d_perp + 1:
        raise ValueError(f"prefix must have length {k - d_perp + 1}")
    if any(w < 0 for w in prefix):
        raise ValueError("negative prefix entry")
    T: List[Fraction] = []
    for u in range(k + 1):
        if u <= k - d_perp:
            T.append(Fraction(sum(prefix[j] * gaussian_binomial(k - j, u - j, q)
                                  for j in range(u + 1))))
        else:
            T.append(gaussian_binomial(k, u, q)
                     * Fraction(codesize, q ** (m * (k - u))))
    out: List[int] = list(prefix)
    for i in range(k - d_perp + 1, k + 1):
        acc = Fraction(0)
        for u in range(i + 1):
            d = i - u
            sign = -1 if d % 2 else 1
            acc += (sign * q ** (d * (d - 1) // 2)
                    * gaussian_binomial(k - u, i - u, q) * T[u])
        if acc.denominator != 1:
            raise ArithmeticError("completion produced a non-integer weight")
        out.append(int(acc))
    return out


def high_dim_section_count(C: RankCode, X: Mat, U: Subspace,
                           guard: int = ENUM_GUARD) -> int:
    """|(C+X)(U)|: translate elements with column space inside U."""
    if not C.linear:
        raise ValueError("section counts are defined for linear codes")
    count = 0
    for M in C.codewords(guard):
        S = M + X
        if all(U.contains(S.col(j)) for j in range(C.m)):
            count += 1
    return count


@dataclass(frozen=True)
class AnnihilatorPoly:
    """Degree-sigma* polynomial in q^{-x} vanishing on the nonzero
    support of the transformed distance distribution."""
    q: int
    k: int
    m: int
    codesize: int
    sigma_star: int
    roots: Tuple[int, ...]
    coeffs: Tuple[Fraction, ...]  # Krawtchouk-basis coefficients, 0..sigma*

    def evaluate(self, x: int) -> Fraction:
        value = Fraction(self.q ** (self.k * self.m), self.codesize)
        for b in self.roots:
            value *= (1 - Fraction(self.q) ** (b - x)) / (1 - self.q ** b)
        return value


def annihilator(C: RankCode, table: Optional[KrawtchoukTable] = None) -> AnnihilatorPoly:
    if table is None:
        table = build_table(C.k, C.m, C.field.q)
    q, k, m = C.field.q, C.k, C.m
    roots = external_support(C)
    sigma = len(roots)
    if sigma == 0:
        raise ValueError("the annihilator is undefined for the full space")
    poly = AnnihilatorPoly(q, k, m, C.cardinality(), sigma, roots, ())
    values = [poly.evaluate(i) for i in range(k + 1)]
    coeffs = []
    for j in range(k + 1):
        cj = sum(values[i] * table.P[j][i] for i in range(k + 1))
        coeffs.append(cj / q ** (k * m))
    for j in range(sigma + 1, k + 1):
        assert coeffs[j] == 0, "annihilator degree exceeded sigma*"
    return replace(poly, coeffs=tuple(coeffs[: sigma + 1]))


def verify_annihilator(C: RankCode, X: Mat,
                       poly: Optional[AnnihilatorPoly] = None) -> Fraction:
    """The invariant sum over the translate's weight distribution.

    Returns sum_{j=0}^{sigma*} alpha_j W_j(C+X), which equals 1 for
    every X.  The j = 0 term matters only when X is a codeword.
    """
    if poly is None:
        poly = annihilator(C)
    W = coset_profile(C, X).W
    return sum(poly.coeffs[j] * W[j] for j in range(poly.sigma_star + 1))
