"""Rank-metric codes in F_q^{k x m}.

A RankCode is either linear (its span: the RREF Subspace of F_q^(km)
spanned by the vectorized generators) or an explicit set: the sorted
ambient indices of its codewords, decoded (``words``) on first read.  The
echelon form makes equality a tuple comparison, gives membership and the
initial set through its pivots, and its orthogonal complement is the
dual.  Every exhaustive count passes
:func:`check_guard`, the one reader of the work guard ENUM_GUARD.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .ambient import (index_to_mat, lane_ranks, left_images, mat_index,
                      pair_lanes, rank_counts, span_lanes, word_lanes)
from .gfield import FieldSpec, add_index, scale_index
from .matlin import Mat, Subspace, rank_of_index
from .qcomb import build_table, dual_weight_distribution

ENUM_GUARD = 1 << 24


class GuardExceeded(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the work guard."""


def check_guard(count: int, message: str) -> None:
    """Refuse work of ``count`` items above ENUM_GUARD, read here at call
    time; the message may name {count} and {guard}."""
    if count > ENUM_GUARD:
        raise GuardExceeded(message.format(count=count, guard=ENUM_GUARD))


class RankCode:
    """A code C subseteq F_q^{k x m}.  Immutable; use the constructors."""

    __slots__ = ("field", "k", "m", "linear", "span", "indices", "_basis",
                 "_words", "_weight_distribution", "_pair_counts",
                 "_min_distance", "_dual")

    def __init__(self, field: FieldSpec, k: int, m: int, *,
                 span: Optional[Subspace] = None,
                 indices: Optional[Tuple[int, ...]] = None):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if k > m:
            raise ValueError("the standing assumption k <= m is violated")
        self.field, self.k, self.m = field, k, m
        self.linear = span is not None
        self.span, self.indices = span, indices  # indices: sorted, distinct
        self._basis = self._words = self._weight_distribution = None
        self._pair_counts = self._min_distance = self._dual = None

    # -- constructors --

    @classmethod
    def from_generators(cls, field: FieldSpec, k: int, m: int,
                        mats: Sequence[Mat]) -> "RankCode":
        """F_q-span of the given matrices, with canonical RREF basis."""
        for M in mats:
            if M.field != field or (M.k, M.m) != (k, m):
                raise ValueError("generator dimension/field mismatch")
        return cls(field, k, m,
                   span=Subspace(field, k * m, [M.entries for M in mats]))

    @classmethod
    def from_codewords(cls, field: FieldSpec, k: int, m: int,
                       mats: Sequence[Mat]) -> "RankCode":
        """Explicit (possibly nonlinear) code; duplicates are an error."""
        if not mats:
            raise ValueError("a code is a non-empty set")
        for M in mats:
            if M.field != field or (M.k, M.m) != (k, m):
                raise ValueError("codeword dimension/field mismatch")
        words = tuple(sorted(mat_index(M) for M in mats))
        if any(a == b for a, b in zip(words, words[1:])):
            raise ValueError("duplicate codeword")
        return cls(field, k, m, indices=words)

    @classmethod
    def zero_code(cls, field: FieldSpec, k: int, m: int) -> "RankCode":
        return cls(field, k, m, span=Subspace.zero(field, k * m))

    @classmethod
    def full_space(cls, field: FieldSpec, k: int, m: int) -> "RankCode":
        return cls(field, k, m, span=Subspace.full(field, k * m))

    # -- basic parameters --

    @property
    def basis(self) -> Optional[Tuple[Mat, ...]]:
        """A linear code's RREF basis as matrices, decoded on first read."""
        if self._basis is None and self.linear:
            self._basis = tuple(Mat._of(self.field, self.k, self.m, r)
                                for r in self.span.basis)
        return self._basis

    @property
    def words(self) -> Optional[Tuple[Mat, ...]]:
        """A set's codewords as matrices, decoded on first read."""
        if self._words is None and not self.linear:
            self._words = tuple(self.codewords())
        return self._words

    @property
    def dim(self) -> int:
        if not self.linear:
            raise ValueError("dimension is defined for linear codes only")
        return self.span.dim

    def cardinality(self) -> int:
        if self.linear:
            return self.field.q ** self.span.dim
        return len(self.indices)

    def is_full_space(self) -> bool:
        return self.cardinality() == self.field.q ** (self.k * self.m)

    def word_indices(self) -> List[int]:
        """The ambient index of every codeword, for a linear code in the
        order of :meth:`matlin.Subspace.indices`."""
        if not self.linear:
            return list(self.indices)
        check_guard(self.cardinality(), "code has {count} words, guard is {guard}")
        return self.span.indices()

    def codewords(self) -> Iterator[Mat]:
        """All codewords, in the order of :meth:`word_indices`."""
        for idx in self.word_indices():
            yield index_to_mat(self.field, self.k, self.m, idx)

    def contains(self, X: Mat) -> bool:
        if X.field != self.field or (X.k, X.m) != (self.k, self.m):
            return False
        if self.linear:
            return self.span.contains(X.entries)
        x = mat_index(X)
        i = bisect_left(self.indices, x)
        return i < len(self.indices) and self.indices[i] == x

    # -- metric invariants --

    def min_distance(self) -> int:
        """The least i >= 1 with a pair of codewords at distance i, read
        once off the weights or pairs."""
        if self._min_distance is None:
            if self.cardinality() < 2:
                raise ValueError("minimum distance needs at least two codewords")
            P = self.weight_distribution() if self.linear else self.distance_counts()
            self._min_distance = next(i for i in range(1, self.k + 1) if P[i])
        return self._min_distance

    def weight_distribution(self) -> List[int]:
        """W_i = number of codewords of rank i.

        A linear code fills in both itself and its dual.  Unless one side
        already knows its distribution, it enumerates the smaller of C and
        its dual (C on a tie), so the guard counts that side; the other
        side's distribution is the exact MacWilliams transform of it.  In
        characteristic 2 and 3 every word is a lane of
        :func:`ambient.rank_counts`; for p >= 5 the enumeration row-reduces
        only the (|C|-1)/(q-1) words whose last nonzero basis coefficient
        is 1, each standing for its q-1 nonzero multiples."""
        if self._weight_distribution is not None:
            return list(self._weight_distribution)
        if not self.linear:
            self._weight_distribution = tuple(self._enumerated_weights())
            return list(self._weight_distribution)
        D = self.dual()
        if D._weight_distribution is None:
            small = D if D.cardinality() < self.cardinality() else self
            side = "dual code" if small is D else "code"
            check_guard(small.cardinality(),
                        side + " has {count} words, guard is {guard}")
            small._weight_distribution = tuple(small._enumerated_weights())
        known, other = ((self, D) if self._weight_distribution is not None
                        else (D, self))
        other._weight_distribution = tuple(dual_weight_distribution(
            known._weight_distribution, known.cardinality(),
            build_table(self.k, self.m, self.field.q)))
        return list(self._weight_distribution)

    def _enumerated_weights(self) -> List[int]:
        """The translate at 0; a p >= 5 linear code ranks a word per line."""
        if not self.linear or self.field.p <= 3:
            return self.translate_weights([0])[0]
        q, words = self.field.q, self.word_indices()
        W = self._shifted_weights((w for j in range(self.span.dim)
                                   for w in words[q ** j: 2 * q ** j]), 0)
        return [1] + [(q - 1) * w for w in W[1:]]

    def translate_weights(self, xs: Sequence[int]) -> List[List[int]]:
        """The weight distribution of C+X for each X indexed by xs in
        [0, q^(km)), the code expanded once for all: characteristic 2 and
        3 rank lanes, as the weights do, and p >= 5 ranks each M + X."""
        N = self.field.q ** (self.k * self.m)
        if not all(0 <= x < N for x in xs):
            raise ValueError(f"a translate index is outside [0, {N})")
        check_guard(self.cardinality(), "coset enumeration over {count} "
                    "codewords exceeds the guard {guard}")
        if self.field.p <= 3:
            return [self._rank_counts(self._lanes(x)) for x in xs]
        words = self.word_indices()
        return [self._shifted_weights(words, x) for x in xs]

    def coset_weights(self, R: Subspace) -> List[Tuple[int, ...]]:
        """The weight distribution of C+X for each X in R.indices(), C
        linear: if a translate fits in a lane chunk, characteristic 2 and 3
        split one lane pass over C + R, C first, |C| lanes a translate, else
        :meth:`translate_weights` ranks them, for p >= 5 only the X whose
        last nonzero coefficient is 1 (c(C+X) = C + cX has their weights)."""
        check_guard(self.cardinality(), "coset enumeration over {count} "
                    "codewords exceeds the guard {guard}")
        F, k, size = self.field, self.k, self.cardinality()
        if F.p <= 3:
            out = []
            for planes, lanes in span_lanes(
                    self._lane_basis(self.span.rows + R.rows),
                    k * self.m * F.e, 0, F.p):
                if size > lanes:  # a translate spans chunks
                    return list(map(tuple, self.translate_weights(
                        R.indices())))
                ranks, parts = lane_ranks(F, k, self.m, planes, lanes), {}
                for a in range(0, lanes, size):
                    part = ranks[a:a + size]  # equal parts: equal weights
                    if part not in parts:
                        parts[part] = tuple(map(part.count, range(k + 1)))
                    out.append(parts[part])
            return out
        q, f, xs = F.q, R.dim, R.indices()
        reps = [0] + [j for t in range(f) for j in range(q ** t, 2 * q ** t)]
        out = [None] * q ** f
        weights = [tuple(W) for W in self.translate_weights(
            [xs[j] for j in reps])]
        for c in range(1, q):  # pos[j]: where c times R's vector j sits
            pos = [0]
            for t in range(f):
                pos += [w + F.mul(c, d) * q ** t for d in range(1, q)
                        for w in pos]
            for j, W in zip(reps, weights):
                out[pos[j]] = W
        return out

    def _shifted_weights(self, words: Iterable[int], x: int) -> List[int]:
        """How many of the indices w + x, w in words, have each rank: the
        word-by-word pass behind the weights, translates and set pairs of
        p >= 5."""
        F, rank = self.field, rank_of_index(self.field, self.k, self.m)
        W = [0] * (self.k + 1)
        for w in words:
            W[rank(add_index(F, w, x))] += 1
        return W

    def _lanes(self, x: int):
        """Lane chunks of the words of C+X, X indexed by x, for p <= 3:
        a linear code's span lanes start at x, so it lists no words."""
        F, n = self.field, self.k * self.m
        if self.linear:
            return span_lanes(self._lane_basis(self.span.rows), n * F.e, x,
                              F.p)
        return word_lanes([add_index(F, w, x) for w in self.word_indices()],
                          n * F.e, F.p)

    def _lane_basis(self, rows: Sequence[int]) -> List[int]:
        """An F_p-basis of the span of the ambient indices rows: x^s row,
        s < e, so lane digit (i, s) is digit s of row i's coefficient."""
        F, n = self.field, self.k * self.m
        return [scale_index(F, F.p ** s, row, n) for row in rows
                for s in range(F.e)]

    def _rank_counts(self, chunks) -> List[int]:
        """How many lanes of the (planes, lanes) chunks have each rank."""
        W = [0] * (self.k + 1)
        for planes, lanes in chunks:
            for r, c in enumerate(rank_counts(self.field, self.k, self.m,
                                              planes, lanes)):
                W[r] += c
        return W

    def distance_counts(self) -> List[int]:
        """|C| B_i: the ordered pairs of codewords at distance i, equal
        pairs counted at i = 0; |C| W for a linear code.

        A set ranks its pairs once, guarded by the n(n-1)/2 unordered
        pairs.  In characteristic 2 and 3 every ordered pair, (a, a)
        included, is a lane of :func:`ambient.pair_lanes`; otherwise each
        unordered pair {a, b} is ranked once, in the weights of the b
        after a shifted by -a, and counted twice."""
        if self.linear:
            n = self.cardinality()
            return [n * w for w in self.weight_distribution()]
        if self._pair_counts is None:
            idx, F = self.indices, self.field
            n = len(idx)
            check_guard(n * (n - 1) // 2, "too many codeword pairs")
            if F.p <= 3:
                P = self._rank_counts(pair_lanes(idx, self.k * self.m * F.e,
                                                 F.p))
            else:  # rank(b - a) = rank(a - b): the b after a, shifted by -a
                P = [n] + [0] * self.k
                for i, a in enumerate(idx):
                    W = self._shifted_weights(idx[i + 1:], scale_index(
                        F, F.neg(1), a, self.k * self.m))
                    P = [p + 2 * w for p, w in zip(P, W)]  # W[0] = 0
            self._pair_counts = tuple(P)
        return list(self._pair_counts)

    def distance_distribution(self) -> List["Fraction"]:
        """B_i = (ordered pairs at distance i) / |C|; equals W for linear codes."""
        from fractions import Fraction
        n = self.cardinality()
        return [Fraction(x, n) for x in self.distance_counts()]

    # -- duality and sections --

    def dual(self) -> "RankCode":
        """Trace-dual: the orthogonal complement of the span.  The dual
        keeps no link back, so a code and its dual form no cycle."""
        if not self.linear:
            raise ValueError("the dual is defined for linear codes only")
        if self._dual is None:
            self._dual = RankCode(self.field, self.k, self.m,
                                  span=self.span.orthogonal())
        return self._dual

    def restrict(self, U: Subspace) -> "RankCode":
        """C(U): codewords whose column space lies inside U <= F_q^k."""
        if U.field != self.field or U.ambient != self.k:
            raise ValueError("subspace ambient mismatch")
        # colspace(M) <= U  iff  P M = 0 with rows of P spanning U-perp
        perp = U.orthogonal()
        if perp.dim == 0:
            return self
        F, h = self.field, perp.dim * self.m
        words = self.span.rows if self.linear else self.indices
        images = left_images(Mat.from_rows(F, perp.basis), self.m, words)
        if self.linear:  # the words [P M | M] with a zero head P M
            pairs = Subspace.of_indices(F, h + self.k * self.m, [
                y + x * F.q ** h for x, y in zip(words, images)])
            return RankCode(F, self.k, self.m, span=pairs.zero_head(h))
        kept = [x for x, y in zip(words, images) if not y]
        if not kept:
            raise ValueError("restriction of an explicit code is empty")
        return RankCode(F, self.k, self.m, indices=tuple(kept))

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
        dual = self.dual()
        return (self.min_distance() == self.k - math.ceil(t / self.m) + 1
                and dual.min_distance()
                == self.k - math.ceil((self.k * self.m - t) / self.m) + 1)

    # -- identity --

    def _key(self):
        return (self.field, self.k, self.m, self.linear,
                self.span.rows if self.linear else self.indices)

    def __eq__(self, other):
        return isinstance(other, RankCode) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind = f"dim={self.dim}" if self.linear else f"size={len(self.indices)}"
        return f"RankCode({self.field}, {self.k}x{self.m}, {kind})"
