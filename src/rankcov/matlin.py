"""Linear algebra over GF(q): matrices, rank, subspaces, trace form.

Matrices are immutable, stored row-major as a tuple of integer element
codes.  Subspaces of F_q^n are kept in reduced row-echelon form, which
makes equality a plain tuple comparison and gives a canonical
enumeration order.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Sequence, Tuple

from .gfield import FieldSpec, undigits


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
    """A subspace of F_q^n, basis in reduced row-echelon form."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient: int,
                 basis: Sequence[Sequence[int]]):
        rows, pivots = _rref_rows(field, [list(r) for r in basis])
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def zero(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        rows = [[1 if j == i else 0 for j in range(ambient)] for i in range(ambient)]
        return cls(field, ambient, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[int]) -> bool:
        return _reduce_against(self.field, list(vec), self.basis, self.pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis)

    def orthogonal(self) -> "Subspace":
        """Orthogonal complement under the standard dot product, read off
        the RREF: free column f gives e_f minus the rows' entries at f."""
        F = self.field
        out = []
        for f in range(self.ambient):
            if f not in self.pivots:
                v = [0] * self.ambient
                v[f] = 1
                for row, p in zip(self.basis, self.pivots):
                    v[p] = F.neg(row[f])
                out.append(v)
        return Subspace(F, self.ambient, out)

    def zero_head(self, h: int) -> "Subspace":
        """The vectors whose first h coordinates vanish, those coordinates
        dropped: the tails of the RREF rows whose pivot is at h or
        beyond, which are already in RREF."""
        return Subspace(self.field, self.ambient - h,
                        [r[h:] for r, p in zip(self.basis, self.pivots)
                         if p >= h])

    def vectors(self) -> Iterator[Tuple[int, ...]]:
        """All q^dim vectors of the subspace."""
        F = self.field
        for coeffs in itertools.product(F.elements(), repeat=self.dim):
            v = [0] * self.ambient
            for c, row in zip(coeffs, self.basis):
                if c:
                    for j, x in enumerate(row):
                        if x:
                            v[j] = F.add(v[j], F.mul(c, x))
            yield tuple(v)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, {self.field})"


def _rref_rows(field: FieldSpec, rows: List[List[int]]):
    """In-place RREF; returns (nonzero rows, pivot columns).

    Pivoting is deterministic: leftmost nonzero column, first nonzero row.
    """
    if not rows:
        return [], []
    n = len(rows[0])
    pivots = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.inv(rows[r][col])
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _reduce_against(field: FieldSpec, vec: List[int],
                    basis: Sequence[Sequence[int]],
                    pivots: Sequence[int]) -> bool:
    """Reduce vec against an RREF basis; True iff it reduces to zero."""
    for row, p in zip(basis, pivots):
        c = vec[p]
        if c:
            for j, x in enumerate(row):
                if x:
                    vec[j] = field.sub(vec[j], field.mul(c, x))
    return all(x == 0 for x in vec)


def rref(M: Mat) -> Mat:
    rows, _ = _rref_rows(M.field, [list(r) for r in M.rows()])
    rows += [[0] * M.m for _ in range(M.k - len(rows))]
    return Mat.from_rows(M.field, rows)


def rank(M: Mat) -> int:
    if M.field.q == 2:
        # bit t of the packed matrix is entry t; row i is bits [im, im + m)
        m = M.m
        bits = undigits(M.entries, 2)
        mask = (1 << m) - 1
        return _rank_gf2([(bits >> (i * m)) & mask for i in range(M.k)])
    return _rank_rows(M.field, M.rows())


def _rank_rows(field: FieldSpec, rows: Sequence[Sequence[int]]) -> int:
    """Rank of rows of element codes, by forward elimination against the
    rows kept so far, each scaled to a leading 1.  ``field.mul`` and
    ``field.inv`` read the field's tables up to order 1024."""
    mul, inv, sub = field.mul, field.inv, field.sub
    basis = {}  # pivot column -> kept row
    for v in rows:
        for t in range(len(v)):
            c = v[t]
            if c:
                b = basis.get(t)
                if b is None:
                    c = inv(c)
                    basis[t] = [mul(c, x) for x in v]
                    break
                v = [sub(x, mul(c, y)) for x, y in zip(v, b)]
    return len(basis)


def _rank_gf2(rows: List[int]) -> int:
    """Rank of bit-packed GF(2) rows: the q = 2 case of :func:`_rank_rows`."""
    basis = {}  # pivot bit -> reduced row
    for v in rows:
        while v:
            low = v & -v
            if low in basis:
                v ^= basis[low]
            else:
                basis[low] = v
                break
    return len(basis)


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


def random_matrix(field: FieldSpec, k: int, m: int, rng: random.Random) -> Mat:
    return Mat(field, k, m, [rng.randrange(field.q) for _ in range(k * m)])


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
    rows, pivots = _rref_rows(F, aug)
    if pivots != list(range(M.k)):
        raise ValueError("matrix is singular")
    return Mat.from_rows(F, [r[M.k:] for r in rows])


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
            rows = [[0] * n for _ in range(u)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield Subspace(field, n, rows)
