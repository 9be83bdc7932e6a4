"""Integer indexing of the ambient space F_q^{k x m} and cached rank tables.

A matrix is indexed by the little-endian base-q number whose digit t is
the t-th row-major entry (the :func:`gfield.digits` codec).  In
characteristic 2 (q = 2, 4, 8, ...) an element code is the coordinate
vector of the element over GF(2), so entry addition is XOR of codes and
matrix addition is a plain XOR of indices, which the exhaustive scans
exploit.  The packing is an internal optimization and never leaks into
serialization.

:func:`rank_of_index` row-reduces one matrix given by its index; the
codeword passes in :mod:`codes` use it and never build a table.  The
covering scan, which reads every rank many times, uses the table.

The rank table is built one (k-1)-row prefix at a time rather than one
matrix at a time.  With Q = q^(m(k-1)), index idx = P + Q*v splits into
the prefix P (the first k-1 rows) and the last row v.  The row space
S(P) of the prefix is closed up once, from {0}, adding each row that is
not yet in the span; its rank r is the number of rows added.  The whole
matrix then has rank r if v lies in S(P) and r + 1 otherwise, so the q^m
entries idx = P, P + Q, ..., P + (q^m - 1)Q are written by one strided
slice.  That is q^(m(k-1)) closures of at most q^(k-1) vectors each in
place of q^(km) row reductions.  A table holds q^(km) bytes; callers
bound that size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .gfield import FieldSpec, digits, undigits
from .matlin import Mat, _rank_gf2, _rank_rows


def mat_index(M: Mat) -> int:
    return undigits(M.entries, M.field.q)


def index_to_mat(field: FieldSpec, k: int, m: int, idx: int) -> Mat:
    return Mat(field, k, m, digits(idx, field.q, k * m))


def add_index(field: FieldSpec, n: int, a: int, b: int) -> int:
    """Index of the entrywise sum of the matrices indexed a and b."""
    if field.p == 2:
        return a ^ b
    q = field.q
    out = 0
    mult = 1
    for _ in range(n):
        out += field.add(a % q, b % q) * mult
        a //= q
        b //= q
        mult *= q
    return out


def rank_of_index(field: FieldSpec, k: int, m: int) -> Callable[[int], int]:
    """The rank of a k x m matrix as a function of its index.

    Each call eliminates the matrix's rows: bit-packed rows for q = 2,
    rows of digits otherwise.  Nothing of size q^(km) is built or read.
    """
    n = k * m
    if field.q == 2:
        mask = (1 << m) - 1
        shifts = range(0, n, m)
        return lambda idx: _rank_gf2([(idx >> s) & mask for s in shifts])

    def rank(idx: int) -> int:
        d = digits(idx, field.q, n)
        return _rank_rows(field, [d[s:s + m] for s in range(0, n, m)])
    return rank


@lru_cache(maxsize=8)
def rank_table(field: FieldSpec, k: int, m: int) -> bytes:
    """rank of every matrix in F_q^{k x m}, indexed by mat_index."""
    q = field.q
    n = q ** (k * m)
    width = q ** m               # row vectors, indexed like 1 x m matrices
    stride = q ** (m * (k - 1))  # (k-1)-row prefixes
    if q == 2:
        def extend(span, row):
            return [s ^ row for s in span]
    else:
        # every nonzero scalar multiple of every row vector, built once;
        # with k = 1 there are no prefix rows, so none are needed
        multiples = [[undigits([field.mul(c, x) for x in digits(v, q, m)], q)
                      for c in range(1, q)]
                     for v in range(width if k > 1 else 0)]

        def extend(span, row):
            return [add_index(field, m, s, t)
                    for s in span for t in multiples[row]]
    out = bytearray(n)
    for P in range(stride):
        span = {0}
        r = 0
        rest = P
        for _ in range(k - 1):
            row = rest % width
            rest //= width
            if row not in span:
                span.update(extend(span, row))
                r += 1
        line = bytearray((r + 1,)) * width
        for s in span:
            line[s] = r
        out[P::stride] = line
    return bytes(out)
