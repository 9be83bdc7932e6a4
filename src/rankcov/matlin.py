"""Linear algebra over GF(q): matrices, rank, subspaces, trace form.

Matrices are immutable, stored row-major as a tuple of integer element
codes.  Subspaces of F_q^n are kept in reduced row-echelon form, which
makes equality a plain tuple comparison and gives a canonical
enumeration order.

Elimination (RREF, rank, membership) runs on packed rows in
characteristic 2: a row over GF(2^e) is one int with entry t in bits
[e t, e t + e), the codec of :func:`gfield.digits` and so of ambient
indices, and adding rows is XOR.  Odd p eliminates rows of element codes.
:func:`rank_of_index` ranks a k x m matrix from its ambient index.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .gfield import FieldSpec, digits, undigits


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
    """A subspace of F_q^n, basis in reduced row-echelon form."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient: int,
                 basis: Sequence[Sequence[int]]):
        rows = [tuple(r) for r in basis]
        _check_rows(field, ambient, rows)
        rows, pivots = _rref_rows(field, rows)
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def _of(cls, field: FieldSpec, ambient: int, basis: Iterable[Sequence[int]],
            pivots: Iterable[int]) -> "Subspace":
        """A subspace whose rows are an RREF basis with the given pivots by
        construction: no checks, no elimination."""
        S = object.__new__(cls)
        S.field, S.ambient = field, ambient
        S.basis, S.pivots = tuple(map(tuple, basis)), tuple(pivots)
        return S

    @classmethod
    def zero(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls._of(field, ambient, (), ())

    @classmethod
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        rows = [[int(i == j) for j in range(ambient)] for i in range(ambient)]
        return cls._of(field, ambient, rows, range(ambient))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[int]) -> bool:
        """vec adds nothing to the rank of the basis rows."""
        rows = self.basis + (tuple(vec),)
        _check_rows(self.field, self.ambient, rows[-1:])
        return rank(Mat._of(self.field, len(rows), self.ambient,
                            tuple(itertools.chain(*rows)))) == self.dim

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
        kept = [(r[h:], p - h) for r, p in zip(self.basis, self.pivots)
                if p >= h]
        return Subspace._of(self.field, self.ambient - h,
                            [r for r, _ in kept], [p for _, p in kept])

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


def _check_rows(field: FieldSpec, n: int, rows: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless every row holds n element codes in [0, q):
    a packed row has no room for a longer row or a larger code."""
    codes = set().union(*rows)
    if (any(len(r) != n for r in rows) or min(codes, default=0) < 0
            or max(codes, default=0) >= field.q):
        raise ValueError(f"vectors of GF({field.q})^{n} need {n} element "
                         f"codes in [0, {field.q})")


def _rref_rows(field: FieldSpec, rows: Sequence[Sequence[int]]):
    """RREF of rows of element codes, all of one length: (nonzero rows,
    pivot columns).  The echelon rows, packed in characteristic 2, then
    back-substitution from the rightmost pivot."""
    if not rows:
        return [], []
    n, q, e = len(rows[0]), field.q, field.e
    if field.p != 2:
        basis = _echelon_digits(field, rows)
        pivots = sorted(basis)
        mul, sub = field.mul, field.sub
        for i in reversed(range(len(pivots))):
            t, b = pivots[i], basis[pivots[i]]
            for s in pivots[:i]:
                c = basis[s][t]
                if c:
                    basis[s] = [sub(x, mul(c, y)) for x, y in zip(basis[s], b)]
        return [basis[t] for t in pivots], pivots
    ones = ((1 << e * n) - 1) // (q - 1)
    basis = _echelon(field, n, [undigits(r, q) for r in rows])
    pivots = sorted(basis)
    for i in reversed(range(len(pivots))):
        t, b = pivots[i], basis[pivots[i]]
        for s in pivots[:i]:
            c = basis[s] >> e * t & q - 1
            if c:
                basis[s] ^= b if c == 1 else _scaled(field, ones, c, b)
    return [digits(basis[t], q, n) for t in pivots], pivots


def rref(M: Mat) -> Mat:
    rows, _ = _rref_rows(M.field, M.rows())
    rows += [[0] * M.m for _ in range(M.k - len(rows))]
    return Mat.from_rows(M.field, rows)


def rank(M: Mat) -> int:
    if M.field.p == 2:
        return _rank_packed(M.field, M.k, M.m, undigits(M.entries, M.field.q))
    return len(_echelon_digits(M.field, M.rows()))


def rank_of_index(field: FieldSpec, k: int, m: int) -> Callable[[int], int]:
    """The rank of a k x m matrix as a function of its ambient index.

    Each call eliminates the matrix's rows: packed rows in characteristic
    2, rows of digits otherwise.  Nothing of size q^(km) is built or read.
    """
    if field.p == 2:
        return partial(_rank_packed, field, k, m)
    return lambda idx: rank(Mat._of(field, k, m, digits(idx, field.q, k * m)))


def _rank_packed(field: FieldSpec, k: int, m: int, idx: int) -> int:
    """Rank of the k x m matrix over GF(2^e) with ambient index idx: its
    packed rows are the index's slices of e m bits."""
    w = field.e * m
    rows = [idx >> s & (1 << w) - 1 for s in range(0, k * w, w)]
    return len(_echelon(field, m, rows))


def _echelon_digits(field: FieldSpec,
                    rows: Iterable[Sequence[int]]) -> Dict[int, List[int]]:
    """:func:`_echelon` on rows of element codes, for odd p."""
    mul, inv, sub = field.mul, field.inv, field.sub
    basis = {}
    for v in rows:
        for t in range(len(v)):
            c = v[t]
            if c:
                b = basis.get(t)
                if b is None:
                    basis[t] = v if c == 1 else [mul(inv(c), x) for x in v]
                    break
                v = [sub(x, mul(c, y)) for x, y in zip(v, b)]
    return basis


def _scaled(field: FieldSpec, ones: int, c: int, v: int) -> int:
    """c times the packed row v: one product per bit s of an entry, the
    bits s of v's entries times c x^s, and no carry crosses entries."""
    out = 0
    for s in range(field.e):
        out ^= (v >> s & ones) * field.mul(c, 1 << s)
    return out


def _echelon(field: FieldSpec, n: int, rows: Iterable[int]) -> Dict[int, int]:
    """Forward elimination of packed rows of n entries over GF(2^e):
    {pivot column: row}, each row 1 at its pivot and 0 before it.  The
    leftmost nonzero entry of a packed row holds its lowest set bit, and
    adding rows is XOR."""
    e, mask = field.e, field.q - 1
    ones = ((1 << e * n) - 1) // mask  # bit e t for every entry t
    basis = {}
    for v in rows:
        while v:
            t = ((v & -v).bit_length() - 1) // e
            c = v >> e * t & mask
            b = basis.get(t)
            if b is None:
                basis[t] = v if c == 1 else _scaled(field, ones,
                                                    field.inv(c), v)
                break
            v ^= b if c == 1 else _scaled(field, ones, c, b)
    return basis


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
            yield Subspace._of(field, n, rows, pivots)
