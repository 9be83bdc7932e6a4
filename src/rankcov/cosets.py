"""Translate (coset) analysis of rank-metric codes.

Covers the weight distribution of a translate C+X (ranked by
:meth:`RankCode.translate_weights`), the completion of the distribution
tail from its first k-d(dual)+1 entries by Moebius inversion on the
subspace lattice, and the annihilator-polynomial identity behind the
external distance bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Sequence, Tuple

from .ambient import mat_index
from .codes import RankCode
from .covering import external_support
from .matlin import Mat, Subspace
from .qcomb import build_table, gaussian_binomial, subspace_moebius


@dataclass(frozen=True)
class CosetProfile:
    code: RankCode
    X: Mat
    W: Tuple[int, ...]
    minweight: int


def coset_profile(C: RankCode, X: Mat) -> CosetProfile:
    """Exact weight distribution of the translate C+X by enumeration."""
    if X.field != C.field or (X.k, X.m) != (C.k, C.m):
        raise ValueError("translate matrix dimension/field mismatch")
    W = C.translate_weights([mat_index(X)])[0]
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
    # T_u scaled by Q = q^(mk), so every sum below is an integer
    Q = q ** (m * k)
    T: List[int] = []
    for u in range(k + 1):
        if u <= k - d_perp:
            T.append(Q * sum(prefix[j] * gaussian_binomial(k - j, u - j, q)
                             for j in range(u + 1)))
        else:
            T.append(gaussian_binomial(k, u, q) * codesize * q ** (m * u))
    out: List[int] = list(prefix)
    for i in range(k - d_perp + 1, k + 1):
        acc = 0
        for u in range(i + 1):
            acc += (subspace_moebius(u, i, q)
                    * gaussian_binomial(k - u, i - u, q) * T[u])
        w, r = divmod(acc, Q)
        if r:
            raise ArithmeticError("completion produced a non-integer weight")
        out.append(w)
    return out


def high_dim_section_count(C: RankCode, X: Mat, U: Subspace) -> int:
    """|(C+X)(U)|: translate elements with column space inside U.  For X
    outside C, C + <X> is the disjoint union of the C + cX, and for c != 0
    (C + cX)(U) = c (C+X)(U), so |(C + <X>)(U)| = |C(U)| + (q-1)|(C+X)(U)|."""
    if not C.linear:
        raise ValueError("section counts are defined for linear codes")
    if X.field != C.field or (X.k, X.m) != (C.k, C.m):
        raise ValueError("translate matrix dimension/field mismatch")
    section = C.restrict(U).cardinality()
    if C.contains(X):
        return section
    wider = RankCode.from_generators(C.field, C.k, C.m, C.basis + (X,))
    return (wider.restrict(U).cardinality() - section) // (C.field.q - 1)


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


def annihilator(C: RankCode) -> AnnihilatorPoly:
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
    if any(coeffs[sigma + 1:]):
        raise ArithmeticError("annihilator degree exceeded sigma*")
    return replace(poly, coeffs=tuple(coeffs[: sigma + 1]))


def verify_annihilator(C: RankCode, X: Mat) -> Fraction:
    """The invariant sum over the translate's weight distribution.

    Returns sum_{j=0}^{sigma*} alpha_j W_j(C+X), which equals 1 for
    every X.  The j = 0 term matters only when X is a codeword.
    """
    poly = annihilator(C)
    W = coset_profile(C, X).W
    return sum(poly.coeffs[j] * W[j] for j in range(poly.sigma_star + 1))
