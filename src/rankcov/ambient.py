"""Integer indexing of the ambient space F_q^{k x m} and rank-distance balls.

A matrix is indexed by the little-endian base-q number whose digit t is
the t-th row-major entry (the :func:`gfield.digits` codec).  In
characteristic 2 an element code is the element's GF(2) coordinate
vector, so matrix addition is XOR of indices.  The packing never leaks
into serialization.  :func:`rank_of_index` row-reduces one matrix; the
codeword passes in :mod:`codes` use it.

Rank distance is graph distance in the bilinear-forms graph, whose edges
are rank-1 steps: rank(A) is the least number of rank-1 matrices that
sum to A.  So the covering radius of a code is the number of balls
:func:`rank_balls` grows around it, and :func:`rank_table` reads every
rank off the balls around {0}.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .gfield import FieldSpec, digits, undigits
from .matlin import Mat, _rank_gf2, _rank_rows


def mat_index(M: Mat) -> int:
    return undigits(M.entries, M.field.q)


def index_to_mat(field: FieldSpec, k: int, m: int, idx: int) -> Mat:
    return Mat(field, k, m, digits(idx, field.q, k * m))


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


@lru_cache(maxsize=32)
def _rank_one_steps(field: FieldSpec, k: int, m: int) -> tuple:
    """Per projective u in F_q^k, the F_p-basis u (x^s e_j)^T (s < e,
    j < m) of the matrices of rank <= 1 with column space <u>.  A step is
    the list of its index's base-p digit positions, each repeated once
    per unit of its digit; entry (i, j) holds digits e(im + j) onward."""
    p, e, q = field.p, field.e, field.q
    groups = []
    for code in range(1, q ** k):
        u = digits(code, q, k)
        if next(x for x in reversed(u) if x) == 1:  # one u per point
            groups.append(tuple(
                tuple(e * (i * m + j) + t for i, x in enumerate(u)
                      for t, c in enumerate(digits(field.mul(x, p ** s), p, e))
                      for _ in range(c))
                for j in range(m) for s in range(e)))
    return tuple(groups)


def rank_balls(field: FieldSpec, k: int, m: int,
               centres: Iterable[int]) -> Iterator[int]:
    """The rank-distance balls of radius 0, 1, ... around the matrices
    indexed by centres that are not the whole space, as bitsets of
    q^(km) bits (bit X is matrix X).

    Radius r + 1 is the union over projective u of radius r closed under
    u's rank-1 steps.  A step adds its base-p digits one at a time, and
    adding 1 to digit t rotates the p blocks of width p^t in every block
    of width p^(t+1): one mask and two shifts.
    """
    p = field.p
    n = k * m * field.e  # base-p digits of an index
    N = p ** n
    full = (1 << N) - 1
    rotations = []  # digit t: (indices whose digit t is below p - 1, shifts)
    for w in (p ** t for t in range(n)):
        mask, span = (1 << (p - 1) * w) - 1, p * w
        while span < N:
            mask, span = mask | mask << span, 2 * span
        rotations.append((mask & full, w, (p - 1) * w))
    start = bytearray((N + 7) // 8)
    for c in centres:
        start[c >> 3] |= 1 << (c & 7)
    ball = int.from_bytes(start, "little")
    groups = _rank_one_steps(field, k, m)
    for _ in range(k):  # rank <= k, so the ball of radius k is full
        if ball == full:
            return
        yield ball
        grown = ball
        for group in groups:
            span = ball
            for step in group:
                for _ in range(p - 1):
                    moved = span
                    for t in step:
                        mask, up, down = rotations[t]
                        low = moved & mask
                        moved = (low << up) | ((moved ^ low) >> down)
                    span |= moved
            grown |= span
        ball = grown


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=8)
def rank_table(field: FieldSpec, k: int, m: int) -> bytes:
    """rank of every matrix in F_q^{k x m}, indexed by mat_index: byte X
    counts the balls around {0} that miss X.  Callers bound its q^(km)
    bytes."""
    N = field.q ** (k * m)
    full = (1 << N) - 1
    table = 0
    for ball in rank_balls(field, k, m, [0]):
        # one byte per bit: the binary string's characters, 0 or 1
        missed = format(full ^ ball, f"0{N}b").encode()
        table += int.from_bytes(missed.translate(_BIT_BYTES), "big")
    return table.to_bytes(N, "little")
