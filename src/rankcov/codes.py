"""Rank-metric codes in F_q^{k x m}.

A RankCode is either linear (canonical basis: the RREF of the vectorized
generators) or an explicit sorted set of codewords.  The canonical form
makes equality a tuple comparison and doubles as the initial-set data.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

from .ambient import add_index, index_to_mat, mat_index, rank_of_index
from .gfield import FieldSpec
from .matlin import Mat, Subspace, _rref_rows, devectorize, kernel
from .qcomb import build_table, dual_weight_distribution

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
                 "_min_distance", "_weight_distribution", "_pair_counts",
                 "_dual")

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
        self._pair_counts = None
        self._dual = None

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

    def word_indices(self, guard: int = ENUM_GUARD) -> List[int]:
        """The ambient index of every codeword.  A linear code is expanded
        basis by basis, so words[q^j : 2q^j] are the words whose last
        nonzero basis coefficient is 1."""
        if not self.linear:
            return [mat_index(M) for M in self.words]
        if self.cardinality() > guard:
            raise GuardExceeded(
                f"code has {self.cardinality()} words, guard is {guard}")
        F = self.field
        words = [0]
        for B in self.basis:
            scaled = [mat_index(B.scale(c)) for c in range(1, F.q)]
            if F.p == 2:
                words += [w ^ s for s in scaled for w in words]
            else:
                words += [add_index(F, w, s) for s in scaled for w in words]
        return words

    def codewords(self, guard: int = ENUM_GUARD) -> Iterator[Mat]:
        """All codewords, in the order of :meth:`word_indices`."""
        if not self.linear:
            yield from self.words
            return
        for idx in self.word_indices(guard):
            yield index_to_mat(self.field, self.k, self.m, idx)

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
            P = self._pairs()
            d = next(i for i in range(1, self.k + 1) if P[i])
        self._min_distance = d
        return d

    def weight_distribution(self, guard: int = ENUM_GUARD) -> List[int]:
        """W_i = number of codewords of rank i.

        A linear code enumerates the smaller of C and its dual (C on a
        tie), so the guard counts that side, and the other side's
        distribution is the exact MacWilliams transform of it; a dual that
        already knows its distribution is transformed, not re-enumerated.
        The enumeration row-reduces only the (|C|-1)/(q-1) words whose last
        nonzero basis coefficient is 1, each standing for its q-1 nonzero
        multiples."""
        if self._weight_distribution is None:
            known = (self._dual is not None
                     and self._dual._weight_distribution is not None)
            if known or (self.linear and 2 * len(self.basis) > self.k * self.m):
                D = self.dual()
                if not known and D.cardinality() > guard:
                    raise GuardExceeded(f"code has {self.cardinality()} "
                                        f"words, guard is {guard}")
                W = dual_weight_distribution(
                    D.weight_distribution(guard), D.cardinality(),
                    build_table(self.k, self.m, self.field.q))
            else:
                W = self._enumerated_weights(guard)
            self._weight_distribution = tuple(W)
            self._seed_dual()
        return list(self._weight_distribution)

    def _enumerated_weights(self, guard: int) -> List[int]:
        words = self.word_indices(guard)
        rank = rank_of_index(self.field, self.k, self.m)
        W = [0] * (self.k + 1)
        if self.linear:
            q = self.field.q
            W[0] = 1
            for j in range(len(self.basis)):
                for w in words[q ** j: 2 * q ** j]:
                    W[rank(w)] += q - 1
        else:
            for w in words:
                W[rank(w)] += 1
        return W

    def _seed_dual(self) -> None:
        """Hand a built dual the transform of a known distribution.  The
        dual keeps no link back, so a code and its dual form no cycle."""
        D, W = self._dual, self._weight_distribution
        if D is not None and W is not None and D._weight_distribution is None:
            D._weight_distribution = tuple(dual_weight_distribution(
                W, self.cardinality(),
                build_table(self.k, self.m, self.field.q)))

    def _pairs(self) -> Tuple[int, ...]:
        """Ordered pairs of distinct words of a set at each distance,
        counted once per code; rank(a - b) is read off the index a + (-b)."""
        if self._pair_counts is None:
            F = self.field
            idx = [mat_index(M) for M in self.words]
            neg = [mat_index(-M) for M in self.words]
            rank = rank_of_index(F, self.k, self.m)
            P = [0] * (self.k + 1)
            for i, a in enumerate(idx):  # rank(a - b) = rank(b - a)
                for b in neg[i + 1:]:
                    P[rank(add_index(F, a, b))] += 2
            self._pair_counts = tuple(P)
        return self._pair_counts

    def distance_counts(self, guard: int = ENUM_GUARD) -> List[int]:
        """|C| B_i: the ordered pairs of codewords at distance i, equal
        pairs counted at i = 0; |C| W for a linear code."""
        if self.linear:
            n = self.cardinality()
            return [n * w for w in self.weight_distribution(guard)]
        n = len(self.words)
        if n * n > guard:
            raise GuardExceeded("too many codeword pairs")
        P = list(self._pairs())
        P[0] = n
        return P

    def distance_distribution(self, guard: int = ENUM_GUARD) -> List["Fraction"]:
        """B_i = (ordered pairs at distance i) / |C|; equals W for linear codes."""
        from fractions import Fraction
        n = self.cardinality()
        return [Fraction(x, n) for x in self.distance_counts(guard)]

    # -- duality and sections --

    def dual(self) -> "RankCode":
        """Trace-dual; the right null space of the vectorized basis."""
        if not self.linear:
            raise ValueError("the dual is defined for linear codes only")
        if self._dual is None:
            if not self.basis:
                self._dual = RankCode.full_space(self.field, self.k, self.m)
            else:
                gen = Mat(self.field, len(self.basis), self.k * self.m,
                          [x for B in self.basis for x in B.entries])
                mats = [devectorize(self.field, v, self.k, self.m)
                        for v in kernel(gen).basis]
                self._dual = RankCode.from_generators(self.field, self.k,
                                                      self.m, mats)
            self._seed_dual()
        return self._dual

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
