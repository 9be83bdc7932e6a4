"""Rank-metric codes in F_q^{k x m}.

A RankCode is either linear (canonical basis: the RREF of the vectorized
generators) or an explicit sorted set of codewords.  The canonical form
makes equality a tuple comparison and doubles as the initial-set data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .gfield import FieldSpec
from .matlin import Mat, Subspace, _rref_rows, devectorize, rank, kernel

ENUM_GUARD = 1 << 24


class GuardExceeded(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the work guard."""


def solve_span(gens: Sequence[Mat], images: Sequence[Sequence[int]]) -> List[Mat]:
    """Basis of the combinations sum c_j gens[j] with sum c_j images[j] = 0.

    images[j] is the constraint vector of gens[j]; every image has the
    same length.
    """
    if not gens:
        return []
    F = gens[0].field
    sol = kernel(Mat.from_rows(F, images).transpose())
    out = []
    for coeffs in sol.basis:
        M = Mat.zero(F, gens[0].k, gens[0].m)
        for c, B in zip(coeffs, gens):
            if c:
                M = M + B.scale(c)
        out.append(M)
    return out


class RankCode:
    """A code C subseteq F_q^{k x m}.  Immutable; use the constructors."""

    __slots__ = ("field", "k", "m", "linear", "basis", "words",
                 "_min_distance", "_weight_distribution")

    def __init__(self, field: FieldSpec, k: int, m: int, *,
                 basis: Optional[Tuple[Mat, ...]] = None,
                 words: Optional[Tuple[Mat, ...]] = None):
        if k > m:
            raise ValueError("the standing assumption k <= m is violated")
        self.field = field
        self.k = k
        self.m = m
        self.linear = basis is not None
        self.basis = basis
        self.words = words
        self._min_distance = None
        self._weight_distribution = None

    # -- constructors --

    @classmethod
    def from_generators(cls, field: FieldSpec, k: int, m: int,
                        mats: Sequence[Mat]) -> "RankCode":
        """F_q-span of the given matrices, with canonical RREF basis."""
        for M in mats:
            if M.field != field or (M.k, M.m) != (k, m):
                raise ValueError("generator dimension/field mismatch")
        rows, _ = _rref_rows(field, [list(M.entries) for M in mats])
        basis = tuple(devectorize(field, r, k, m) for r in rows)
        return cls(field, k, m, basis=basis)

    @classmethod
    def from_codewords(cls, field: FieldSpec, k: int, m: int,
                       mats: Sequence[Mat]) -> "RankCode":
        """Explicit (possibly nonlinear) code; duplicates are an error."""
        if not mats:
            raise ValueError("a code is a non-empty set")
        for M in mats:
            if M.field != field or (M.k, M.m) != (k, m):
                raise ValueError("codeword dimension/field mismatch")
        words = tuple(sorted(mats, key=lambda M: M.entries))
        for a, b in zip(words, words[1:]):
            if a.entries == b.entries:
                raise ValueError("duplicate codeword")
        return cls(field, k, m, words=words)

    @classmethod
    def zero_code(cls, field: FieldSpec, k: int, m: int) -> "RankCode":
        return cls.from_generators(field, k, m, [])

    @classmethod
    def full_space(cls, field: FieldSpec, k: int, m: int) -> "RankCode":
        gens = []
        for t in range(k * m):
            v = [0] * (k * m)
            v[t] = 1
            gens.append(devectorize(field, v, k, m))
        return cls.from_generators(field, k, m, gens)

    # -- basic parameters --

    @property
    def dim(self) -> int:
        if not self.linear:
            raise ValueError("dimension is defined for linear codes only")
        return len(self.basis)

    def cardinality(self) -> int:
        if self.linear:
            return self.field.q ** len(self.basis)
        return len(self.words)

    def is_full_space(self) -> bool:
        return self.linear and len(self.basis) == self.k * self.m

    def codewords(self, guard: int = ENUM_GUARD) -> Iterator[Mat]:
        """All codewords; for linear codes the span is expanded basis by basis."""
        if not self.linear:
            yield from self.words
            return
        if self.cardinality() > guard:
            raise GuardExceeded(
                f"code has {self.cardinality()} words, guard is {guard}")
        F = self.field
        words = [Mat.zero(F, self.k, self.m)]
        for B in self.basis:
            scaled = [B.scale(c) for c in range(1, F.q)]
            words += [w + s for s in scaled for w in words]
        yield from words

    def contains(self, X: Mat) -> bool:
        if X.field != self.field or (X.k, X.m) != (self.k, self.m):
            return False
        if self.linear:
            from .matlin import _reduce_against
            pivots = [next(j for j, x in enumerate(B.entries) if x)
                      for B in self.basis]
            return _reduce_against(self.field, list(X.entries),
                                   [B.entries for B in self.basis], pivots)
        lo, hi = 0, len(self.words)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.words[mid].entries < X.entries:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(self.words) and self.words[lo].entries == X.entries

    # -- metric invariants --

    def min_distance(self, guard: int = ENUM_GUARD) -> int:
        if self._min_distance is not None:
            return self._min_distance
        if self.cardinality() < 2:
            raise ValueError("minimum distance needs at least two codewords")
        if self.linear:
            W = self.weight_distribution(guard)
            d = next(i for i in range(1, self.k + 1) if W[i])
        else:
            n = len(self.words)
            if n * (n - 1) // 2 > guard:
                raise GuardExceeded("too many codeword pairs")
            d = min(rank(a - b)
                    for i, a in enumerate(self.words)
                    for b in self.words[i + 1:])
        self._min_distance = d
        return d

    def weight_distribution(self, guard: int = ENUM_GUARD) -> List[int]:
        if self._weight_distribution is not None:
            return list(self._weight_distribution)
        W = [0] * (self.k + 1)
        for M in self.codewords(guard):
            W[rank(M)] += 1
        self._weight_distribution = tuple(W)
        return W

    def distance_distribution(self, guard: int = ENUM_GUARD) -> List[Fraction]:
        """B_i = (ordered pairs at distance i) / |C|; equals W for linear codes."""
        if self.linear:
            return [Fraction(w) for w in self.weight_distribution(guard)]
        n = len(self.words)
        if n * n > guard:
            raise GuardExceeded("too many codeword pairs")
        B = [0] * (self.k + 1)
        B[0] = n
        for i, a in enumerate(self.words):  # rank(a - b) = rank(b - a)
            for b in self.words[i + 1:]:
                B[rank(a - b)] += 2
        return [Fraction(x, n) for x in B]

    # -- duality and sections --

    def dual(self) -> "RankCode":
        """Trace-dual; the right null space of the vectorized basis."""
        if not self.linear:
            raise ValueError("the dual is defined for linear codes only")
        n = self.k * self.m
        if not self.basis:
            return RankCode.full_space(self.field, self.k, self.m)
        gen = Mat(self.field, len(self.basis), n,
                  [x for B in self.basis for x in B.entries])
        ker = kernel(gen)
        mats = [devectorize(self.field, v, self.k, self.m) for v in ker.basis]
        return RankCode.from_generators(self.field, self.k, self.m, mats)

    def restrict(self, U: Subspace) -> "RankCode":
        """C(U): codewords whose column space lies inside U <= F_q^k."""
        if U.field != self.field or U.ambient != self.k:
            raise ValueError("subspace ambient mismatch")
        if self.linear:
            # colspace(M) <= U  iff  P M = 0 with rows of P spanning U-perp
            perp = U.orthogonal()
            if perp.dim == 0:
                return self
            P = Mat.from_rows(self.field, perp.basis)
            mats = solve_span(self.basis, [(P @ B).entries for B in self.basis])
            return RankCode.from_generators(self.field, self.k, self.m, mats)
        kept = [M for M in self.words
                if all(U.contains(M.col(j)) for j in range(self.m))]
        if not kept:
            raise ValueError("restriction of an explicit code is empty")
        return RankCode.from_codewords(self.field, self.k, self.m, kept)

    # -- classification predicates --

    def is_MRD(self) -> bool:
        """Meets the rank-metric Singleton bound."""
        if self.cardinality() == 1:
            return True
        d = self.min_distance()
        return self.cardinality() == self.field.q ** (self.m * (self.k - d + 1))

    def is_dually_QMRD(self) -> bool:
        """Both C and its dual meet the rounded Singleton bound, m not | dim C."""
        if not self.linear:
            raise ValueError("dually QMRD is defined for linear codes only")
        t = self.dim
        if t % self.m == 0:
            return False
        if t == 0 or t == self.k * self.m:
            return False
        dual = self.dual()
        return (self.min_distance() == self.k - math.ceil(t / self.m) + 1
                and dual.min_distance()
                == self.k - math.ceil((self.k * self.m - t) / self.m) + 1)

    # -- identity --

    def _key(self):
        if self.linear:
            return (self.field, self.k, self.m, "lin",
                    tuple(B.entries for B in self.basis))
        return (self.field, self.k, self.m, "set",
                tuple(M.entries for M in self.words))

    def __eq__(self, other):
        return isinstance(other, RankCode) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind = f"dim={self.dim}" if self.linear else f"size={len(self.words)}"
        return f"RankCode({self.field}, {self.k}x{self.m}, {kind})"
