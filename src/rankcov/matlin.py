"""Linear algebra over GF(q): matrices, rank, subspaces, trace form.

Matrices are immutable, stored row-major as a tuple of integer element
codes.  Subspaces of F_q^n are kept in reduced row-echelon form, which
makes equality a plain tuple comparison and gives a canonical
enumeration order.

A Subspace keeps each RREF row as its ambient index, the codec of
:func:`gfield.digits`, and decodes rows to element codes only when its
``basis`` is read.  Elimination runs on packed rows: one int per row in
characteristic 2, where adding rows is XOR, and a pair of bit planes per
row over GF(3); other fields eliminate rows of element codes
fraction-free, and scale a pivot row to 1 only for the RREF.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .gfield import (FieldSpec, add_index, digits, planes3, scale_index,
                     sub3, undigits)


class Mat:
    """A k x m matrix over GF(q), immutable."""

    __slots__ = ("field", "k", "m", "entries")

    def __init__(self, field: FieldSpec, k: int, m: int, entries: Sequence[int]):
        if k <= 0 or m <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != k * m:
            raise ValueError(f"expected {k*m} entries, got {len(entries)}")
        for x in entries:
            field.check(x)
        self.field = field
        self.k = k
        self.m = m
        self.entries = entries

    @classmethod
    def _of(cls, field: FieldSpec, k: int, m: int,
            entries: Tuple[int, ...]) -> "Mat":
        """A matrix whose entry tuple is valid by construction, such as
        the result of field operations on valid matrices: no checks."""
        M = object.__new__(cls)
        M.field, M.k, M.m, M.entries = field, k, m, entries
        return M

    @classmethod
    def zero(cls, field: FieldSpec, k: int, m: int) -> "Mat":
        return cls(field, k, m, (0,) * (k * m))

    @classmethod
    def identity(cls, field: FieldSpec, k: int) -> "Mat":
        e = [0] * (k * k)
        for i in range(k):
            e[i * k + i] = 1
        return cls(field, k, k, e)

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence[int]]) -> "Mat":
        k = len(rows)
        m = len(rows[0])
        return cls(field, k, m, [x for r in rows for x in r])

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.m + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.m: (i + 1) * self.m]

    def rows(self) -> List[Tuple[int, ...]]:
        return [self.row(i) for i in range(self.k)]

    def col(self, j: int) -> Tuple[int, ...]:
        return tuple(self.entries[i * self.m + j] for i in range(self.k))

    def transpose(self) -> "Mat":
        return Mat._of(self.field, self.m, self.k,
                       tuple([self.entries[i * self.m + j]
                              for j in range(self.m) for i in range(self.k)]))

    def __add__(self, other: "Mat") -> "Mat":
        self._compat(other)
        F = self.field
        return Mat._of(F, self.k, self.m, tuple(
            [F.add(a, b) for a, b in zip(self.entries, other.entries)]))

    def __sub__(self, other: "Mat") -> "Mat":
        self._compat(other)
        F = self.field
        return Mat._of(F, self.k, self.m, tuple(
            [F.sub(a, b) for a, b in zip(self.entries, other.entries)]))

    def __neg__(self) -> "Mat":
        F = self.field
        return Mat._of(F, self.k, self.m, tuple([F.neg(a) for a in self.entries]))

    def scale(self, c: int) -> "Mat":
        if c == 1:
            return self
        F = self.field
        return Mat._of(F, self.k, self.m,
                       tuple([F.mul(c, a) for a in self.entries]))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field or self.m != other.k:
            raise ValueError("dimension/field mismatch in matrix product")
        F = self.field
        out = [0] * (self.k * other.m)
        for i in range(self.k):
            for t in range(self.m):
                a = self.entries[i * self.m + t]
                if a:
                    for j in range(other.m):
                        b = other.entries[t * other.m + j]
                        if b:
                            idx = i * other.m + j
                            out[idx] = F.add(out[idx], F.mul(a, b))
        return Mat._of(F, self.k, other.m, tuple(out))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def _compat(self, other: "Mat") -> None:
        if self.field != other.field or (self.k, self.m) != (other.k, other.m):
            raise ValueError("dimension/field mismatch")

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and (self.k, self.m) == (other.k, other.m)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.k, self.m, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.k))
        return f"Mat({self.field}, [{body}])"


class Subspace:
    """A subspace of F_q^n: the pivots and ambient indices (``rows``) of
    its RREF basis, decoded to element codes (``basis``) on first read."""

    __slots__ = ("field", "ambient", "rows", "pivots", "_basis")

    def __init__(self, field: FieldSpec, ambient: int,
                 basis: Sequence[Sequence[int]]):
        rows = [tuple(r) for r in basis]
        _check_rows(field, ambient, rows)
        if field.p == 2:
            rows = [undigits(r, field.q) for r in rows]
        self.field, self.ambient, self._basis = field, ambient, None
        self.rows, self.pivots = _rref(field, ambient, rows)

    @classmethod
    def _of(cls, field: FieldSpec, ambient: int, rows: Iterable[int],
            pivots: Iterable[int]) -> "Subspace":
        """Rows that index an RREF basis with these pivots: no checks."""
        S = object.__new__(cls)
        S.field, S.ambient, S._basis = field, ambient, None
        S.rows, S.pivots = tuple(rows), tuple(pivots)
        return S

    @classmethod
    def of_indices(cls, field: FieldSpec, ambient: int, rows) -> "Subspace":
        """The span of the vectors indexed by rows (packed in char. 2)."""
        if field.p != 2:
            rows = [digits(r, field.q, ambient) for r in rows]
        return cls._of(field, ambient, *_rref(field, ambient, rows))

    @classmethod
    def zero(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls._of(field, ambient, (), ())

    @classmethod
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls._of(field, ambient, [field.q ** i for i in range(ambient)],
                       range(ambient))

    @property
    def basis(self) -> Tuple[Tuple[int, ...], ...]:
        if self._basis is None:
            self._basis = tuple(digits(r, self.field.q, self.ambient)
                                for r in self.rows)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec: Sequence[int]) -> bool:
        """vec adds nothing to the rank of the basis rows."""
        _check_rows(self.field, self.ambient, [vec])
        rows = (self.rows + (undigits(vec, self.field.q),) if self.field.p == 2
                else self.basis + (tuple(vec),))
        return len(_echelon(self.field, self.ambient, rows)) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis)

    def orthogonal(self) -> "Subspace":
        """Orthogonal complement under the standard dot product, read off
        the RREF: free column f gives e_f minus the rows' entries at f,
        and only rows with a pivot before f have one.  In characteristic
        2, where -x = x, that vector is built and reduced as its packed
        row: entry t is bits [e t, e t + e)."""
        F, n, q, e = self.field, self.ambient, self.field.q, self.field.e
        out = []
        for f in range(n):
            if f in self.pivots:
                continue
            if F.p == 2:
                v = 1 << e * f
                for row, p in zip(self.rows, self.pivots):
                    if p > f:
                        break
                    v |= (row >> e * f & q - 1) << e * p
            else:
                v, w = [0] * n, q ** f
                v[f] = 1
                for row, p in zip(self.rows, self.pivots):
                    if p > f:
                        break
                    v[p] = F.neg(row // w % q)
            out.append(v)
        return Subspace._of(F, n, *_rref(F, n, out))

    def zero_head(self, h: int) -> "Subspace":
        """The vectors whose first h coordinates vanish, those coordinates
        dropped: the tails of the RREF rows whose pivot is at h or
        beyond, which are already in RREF."""
        i, w = sum(p < h for p in self.pivots), self.field.q ** h
        return Subspace._of(self.field, self.ambient - h, [
            r // w for r in self.rows[i:]], [p - h for p in self.pivots[i:]])

    def indices(self) -> List[int]:
        """The index of every vector, expanded row by row: [q^j, 2 q^j)
        holds those whose last nonzero coefficient, on row j, is 1."""
        F, out = self.field, [0]
        for row in self.rows:
            scaled = [scale_index(F, c, row, self.ambient)
                      for c in range(1, F.q)]
            out += [w ^ s if F.p == 2 else add_index(F, w, s)
                    for s in scaled for w in out]
        return out

    def vectors(self) -> Iterator[Tuple[int, ...]]:
        """All q^dim vectors of the subspace, in the order of indices."""
        return (digits(w, self.field.q, self.ambient) for w in self.indices())

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, {self.field})"


def _check_rows(field: FieldSpec, n: int, rows: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless every row holds n element codes in [0, q):
    a packed row has no room for a longer row or a larger code."""
    codes = set().union(*rows)
    if ({len(r) for r in rows} - {n} or min(codes, default=0) < 0
            or max(codes, default=0) >= field.q):
        raise ValueError(f"vectors of GF({field.q})^{n} need {n} element "
                         f"codes in [0, {field.q})")


def _echelon(field: FieldSpec, n: int, rows: Iterable) -> Dict[int, object]:
    """Forward elimination of rows of n element codes (their indices in
    char. 2): {pivot column: row}, 0 before its pivot.  A row is held as
    its index in characteristic 2, where adding is XOR, or as the planes
    (entry t is nonzero, is 2) of the ternary lanes over GF(3), 1 at its
    pivot in both; else as element codes, eliminated fraction-free: v
    becomes a v - c b at a pivot row b with a = b[t], so no pivot row is
    scaled and no inverse taken."""
    if field.q == 3:
        basis = {}
        for nz, two in map(planes3, rows):
            while nz:
                t = (nz & -nz).bit_length() - 1
                b = basis.get(t)
                if b is None:  # 2 v = -v, and v - 2 b = v - (-b)
                    basis[t] = (nz, nz ^ two if two >> t & 1 else two)
                    break
                nz, two = sub3(nz, two, b[0], b[1] ^ b[0] * (two >> t & 1))
        return basis
    if field.p != 2:
        p, prime, basis = field.p, field.e == 1, {}
        if not prime:
            mul, sub = field.mul, field.sub
        for v in rows:
            for t in range(n):
                c = v[t]
                if c:
                    b = basis.get(t)
                    if b is None:
                        basis[t] = v
                        break
                    a = b[t]
                    v = ([(a * x - c * y) % p for x, y in zip(v, b)] if prime
                         else [sub(mul(a, x), mul(c, y)) for x, y in zip(v, b)])
        return basis
    e, mask = field.e, field.q - 1
    basis = {}
    for v in rows:
        while v:
            t = ((v & -v).bit_length() - 1) // e
            c = v >> e * t & mask
            b = basis.get(t)
            if b is None:
                basis[t] = v if c == 1 else scale_index(field, field.inv(c),
                                                        v, n)
                break
            v ^= b if c == 1 else scale_index(field, c, b, n)
    return basis


def _rref(field: FieldSpec, n: int, rows: Iterable):
    """RREF of rows of n element codes, or of their indices in
    characteristic 2: (its rows' indices, pivot columns).  Forward
    elimination, each element row scaled to 1 at its pivot, then
    back-substitution from the rightmost pivot."""
    q, e = field.q, field.e
    basis = _echelon(field, n, rows)
    pivots = sorted(basis)
    if field.p != 2 and q > 3:
        for t in pivots:
            if basis[t][t] != 1:
                c = field.inv(basis[t][t])
                basis[t] = [field.mul(c, x) for x in basis[t]]
    for i in reversed(range(len(pivots))):
        t, b = pivots[i], basis[pivots[i]]
        for s in pivots[:i]:
            v = basis[s]
            if field.p == 2:
                c = v >> e * t & q - 1
                if c:
                    basis[s] = v ^ (b if c == 1 else scale_index(field, c, b, n))
            elif q == 3:
                if v[0] >> t & 1:
                    basis[s] = sub3(*v, b[0], b[1] ^ b[0] * (v[1] >> t & 1))
            elif v[t]:
                basis[s] = [field.sub(x, field.mul(v[t], y))
                            for x, y in zip(v, b)]
    if q == 3:
        return tuple(int(format(nz, "b"), 3) + int(format(two, "b"), 3)
                     for nz, two in map(basis.get, pivots)), tuple(pivots)
    return (tuple(basis[t] if field.p == 2 else undigits(basis[t], q)
                  for t in pivots), tuple(pivots))


def rref(M: Mat) -> Mat:
    rows = Subspace(M.field, M.m, M.rows()).basis
    return Mat.from_rows(M.field, rows + ((0,) * M.m,) * (M.k - len(rows)))


def rank(M: Mat) -> int:
    F, m = M.field, M.m
    if F.p != 2:  # the rows: m entries at a time
        return len(_echelon(F, m, zip(*[iter(M.entries)] * m)))
    idx, w = undigits(M.entries, F.q), F.e * m  # e m bits a row
    return len(_echelon(F, m, [idx >> s & (1 << w) - 1
                               for s in range(0, M.k * w, w)]))


def rank_of_index(field: FieldSpec, k: int, m: int) -> Callable[[int], int]:
    """The rank of a k x m matrix as a function of its ambient index,
    with nothing of size q^(km) built or read."""
    q, n = field.q, k * m
    if field.p != 2:
        return lambda idx: len(_echelon(field, m,
                                        zip(*[iter(digits(idx, q, n))] * m)))
    return lambda idx: rank(Mat._of(field, k, m, digits(idx, q, n)))


def kernel(M: Mat) -> Subspace:
    """Right null space of M, as a subspace of F_q^m."""
    return Subspace(M.field, M.m, M.rows()).orthogonal()


def column_space(M: Mat) -> Subspace:
    return Subspace(M.field, M.k, M.transpose().rows())


def trace_inner(M: Mat, N: Mat) -> int:
    """Tr(M N^t), i.e. the dot product of row-major vectorizations."""
    M._compat(N)
    F = M.field
    acc = 0
    for a, b in zip(M.entries, N.entries):
        if a and b:
            acc = F.add(acc, F.mul(a, b))
    return acc


def vectorize(M: Mat) -> Tuple[int, ...]:
    return M.entries


def devectorize(field: FieldSpec, vec: Sequence[int], k: int, m: int) -> Mat:
    if len(vec) != k * m:
        raise ValueError(f"expected length {k*m}, got {len(vec)}")
    return Mat(field, k, m, vec)


def draw_entries(rng: random.Random, q: int, n: int) -> List[int]:
    """The values of n calls of rng.randrange(q), leaving rng in the same
    state: like CPython's Random.randrange, draw getrandbits(q.bit_length())
    again while the result is q or more, without its two calls per entry."""
    bits, draw, out = q.bit_length(), rng.getrandbits, []
    for _ in range(n):
        x = draw(bits)
        while x >= q:
            x = draw(bits)
        out.append(x)
    return out


def random_matrix(field: FieldSpec, k: int, m: int, rng: random.Random) -> Mat:
    return Mat(field, k, m, draw_entries(rng, field.q, k * m))


def random_invertible(field: FieldSpec, k: int, seed) -> Mat:
    """Uniformly random element of GL_k(F_q) by rejection sampling."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    while True:
        M = random_matrix(field, k, k, rng)
        if rank(M) == k:
            return M


def invert(M: Mat) -> Mat:
    """Inverse of a square invertible matrix."""
    if M.k != M.m:
        raise ValueError("only square matrices can be inverted")
    F = M.field
    aug = [list(M.row(i)) + [1 if j == i else 0 for j in range(M.k)]
           for i in range(M.k)]
    S = Subspace(F, 2 * M.k, aug)
    if S.pivots != tuple(range(M.k)):
        raise ValueError("matrix is singular")
    return Mat.from_rows(F, [r[M.k:] for r in S.basis])


def enumerate_subspaces(field: FieldSpec, n: int, u: int) -> Iterator[Subspace]:
    """All u-dimensional subspaces of F_q^n, each exactly once.

    Iterates RREF pivot patterns (increasing column tuples), then fills
    the free entries in lexicographic order; memory is O(1) per item.
    """
    if not 0 <= u <= n:
        raise ValueError("need 0 <= u <= n")
    if u == 0:
        yield Subspace.zero(field, n)
        return
    for pivots in itertools.combinations(range(n), u):
        pivot_set = set(pivots)
        # free slots: (row i, col j) with j > pivots[i] and j not a pivot
        free = [(i, j) for i in range(u) for j in range(pivots[i] + 1, n)
                if j not in pivot_set]
        for values in itertools.product(field.elements(), repeat=len(free)):
            rows = [field.q ** p for p in pivots]
            for (i, j), v in zip(free, values):
                rows[i] += v * field.q ** j
            yield Subspace._of(field, n, rows, pivots)
