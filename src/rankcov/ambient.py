"""Integer indexing of the ambient space F_q^{k x m} and cached rank tables.

A matrix is indexed by the little-endian base-q number whose digit t is
the t-th row-major entry.  For q = 2 this makes matrix addition a plain
XOR of indices, which the exhaustive scans exploit.  The packing is an
internal optimization and never leaks into serialization.

The rank table is built one (k-1)-row prefix at a time rather than one
matrix at a time.  With Q = q^(m(k-1)), index idx = P + Q*v splits into
the prefix P (the first k-1 rows) and the last row v.  The row space
S(P) of the prefix is closed up once, from {0}, adding each row that is
not yet in the span; its rank r is the number of rows added.  The whole
matrix then has rank r if v lies in S(P) and r + 1 otherwise, so the q^m
entries idx = P, P + Q, ..., P + (q^m - 1)Q are written by one strided
slice.  That is q^(m(k-1)) closures of at most q^(k-1) vectors each in
place of q^(km) row reductions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .gfield import FieldSpec
from .matlin import Mat

TABLE_CAP = 1 << 20


def mat_index(M: Mat) -> int:
    return digits_index(M.field.q, M.entries)


def digits_index(q: int, digits) -> int:
    """Inverse of index_digits: the base-q number with digit t = digits[t]."""
    idx = 0
    for x in reversed(digits):
        idx = idx * q + x
    return idx


def index_to_mat(field: FieldSpec, k: int, m: int, idx: int) -> Mat:
    q = field.q
    entries = []
    for _ in range(k * m):
        entries.append(idx % q)
        idx //= q
    return Mat(field, k, m, entries)


def index_digits(q: int, n: int, idx: int) -> Tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(idx % q)
        idx //= q
    return tuple(out)


def add_index(field: FieldSpec, n: int, a: int, b: int) -> int:
    """Index of the entrywise sum of the matrices indexed a and b."""
    q = field.q
    if q == 2:
        return a ^ b
    out = 0
    mult = 1
    for _ in range(n):
        out += field.add(a % q, b % q) * mult
        a //= q
        b //= q
        mult *= q
    return out


def neg_index(field: FieldSpec, n: int, a: int) -> int:
    q = field.q
    if q == 2:
        return a
    out = 0
    mult = 1
    for _ in range(n):
        out += field.neg(a % q) * mult
        a //= q
        mult *= q
    return out


def _rank_generic(field: FieldSpec, k: int, m: int, digits) -> int:
    from .matlin import _rref_rows
    rows = [list(digits[i * m:(i + 1) * m]) for i in range(k)]
    _, pivots = _rref_rows(field, rows)
    return len(pivots)


@lru_cache(maxsize=8)
def rank_table(field: FieldSpec, k: int, m: int) -> bytes:
    """rank of every matrix in F_q^{k x m}, indexed by mat_index."""
    q = field.q
    n = q ** (k * m)
    if n > TABLE_CAP:
        raise ValueError(f"ambient size {n} exceeds the rank-table cap")
    width = q ** m               # row vectors, indexed like 1 x m matrices
    stride = q ** (m * (k - 1))  # (k-1)-row prefixes
    if q == 2:
        def extend(span, row):
            return [s ^ row for s in span]
    else:
        # every nonzero scalar multiple of every row vector, built once;
        # with k = 1 there are no prefix rows, so none are needed
        multiples = [[digits_index(q, [field.mul(c, x)
                                       for x in index_digits(q, m, v)])
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
