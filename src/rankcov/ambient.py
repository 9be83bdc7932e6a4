"""Integer indexing of the ambient space F_q^{k x m} and rank-distance balls.

A matrix is indexed by the little-endian base-q number whose digit t is
the t-th row-major entry (the :func:`gfield.digits` codec).  In
characteristic 2 an element code is the element's GF(2) coordinate
vector, so matrix addition is XOR of indices.  The packing never leaks
into serialization.  In characteristic 2 :func:`rank_counts` ranks a
whole pass of matrices at once, one bit per matrix; the codeword passes
in :mod:`codes` use it, and :func:`matlin.rank_of_index` ranks one
matrix from its index.

Rank distance is graph distance in the bilinear-forms graph, whose edges
are rank-1 steps: rank(A) is the least number of rank-1 matrices that
sum to A.  So the covering radius of a code is the number of balls
:func:`rank_balls` grows around it, and :func:`rank_table` reads every
rank off the balls around {0}.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple

from .gfield import FieldSpec, digits, undigits
from .matlin import Mat


def mat_index(M: Mat) -> int:
    return undigits(M.entries, M.field.q)


def index_to_mat(field: FieldSpec, k: int, m: int, idx: int) -> Mat:
    return Mat._of(field, k, m, digits(idx, field.q, k * m))


# -- bit-sliced ranks in characteristic 2 --
#
# Lane w of a pass is one matrix; plane b is the int whose bit w is bit b
# of lane w's index.  The lane builders below yield (planes, lanes)
# chunks of at most 2^LANE_BITS lanes (or one row of a pair pass), so a
# pass holds a bounded number of planes whatever the code's size.

LANE_BITS = 16


@lru_cache(maxsize=LANE_BITS + 1)
def _lane_patterns(n: int) -> tuple:
    """P_0..P_(n-1) over 2^n lanes: bit w of P_j is bit j of w."""
    full = (1 << (1 << n)) - 1
    # period 2^(j+1): 2^j zero bits, then 2^j one bits
    return tuple(full // ((1 << (2 << j)) - 1)
                 * (((1 << (1 << j)) - 1) << (1 << j)) for j in range(n))


def span_lanes(basis: Sequence[int], nbits: int,
               start: int = 0) -> Iterator[Tuple[List[int], int]]:
    """Chunks holding start XOR every F_2-combination of the indices in
    basis: lane w is start XOR basis[j] over the bits j of w.  Plane b of
    the low chunk is the XOR of the patterns P_j over the basis[j] with
    bit b set; each chunk adds start XOR some high basis vectors, that is
    a constant mask."""
    low, high = basis[:LANE_BITS], basis[LANE_BITS:]
    lanes = 1 << len(low)
    full = (1 << lanes) - 1
    planes = [0] * nbits
    for v, P in zip(low, _lane_patterns(len(low))):
        for b in range(v.bit_length()):
            if v >> b & 1:
                planes[b] ^= P
    consts = [start]
    for v in high:
        consts += [c ^ v for c in consts]
    for c in consts:
        yield [x ^ full if c >> b & 1 else x for b, x in enumerate(planes)], lanes


def _planes(words: Sequence[int], nbits: int) -> List[int]:
    """The transposed indices: bit w of plane b is bit b of words[w]."""
    rows = [format(x, f"0{nbits}b") for x in reversed(words)]
    return [int("".join(col), 2) for col in reversed(list(zip(*rows)))]


def word_lanes(words: Sequence[int],
               nbits: int) -> Iterator[Tuple[List[int], int]]:
    """Chunks with lane w holding the index words[w]."""
    step = 1 << LANE_BITS
    for s in range(0, len(words), step):
        chunk = words[s:s + step]
        yield _planes(chunk, nbits), len(chunk)


def pair_lanes(words: Sequence[int],
               nbits: int) -> Iterator[Tuple[List[int], int]]:
    """Chunks of the ordered pairs: with n words, lane i n + j holds
    words[i] XOR words[j], the index of their difference in
    characteristic 2.  In a block of r <= n rows from row i, plane b is
    P_b times the repunit (r copies at period n) XOR, per row t, n ones
    where bit i + t of P_b is set."""
    n = len(words)
    planes = _planes(words, nbits)
    rows = max(1, (1 << LANE_BITS) // n)
    ones = (1 << n) - 1
    for i in range(0, n, rows):
        r = min(rows, n - i)
        rep = ((1 << r * n) - 1) // ones  # bit t n for t < r
        diag = ((1 << r * (n + 1)) - 1) // ((2 << n) - 1)  # bit t (n + 1)
        half, top = rep * (ones >> 1), rep << n - 1
        out = []
        for P in planes:
            # block t holds bit i + t of P at its bit t, so it is 0 or at
            # most 2^(n-1), and adding 2^(n-1) - 1 sets its top bit if not 0
            row_bits = (P >> i & (1 << r) - 1) * rep & diag
            out.append(P * rep ^ ((row_bits + half & top) >> n - 1) * ones)
        yield out, r * n


@lru_cache(maxsize=8)
def _product_terms(field: FieldSpec) -> tuple:
    """For GF(2^e): per output bit i, the degrees d <= 2e - 2 whose
    power x^d has bit i set, with x^d read off ``field.mul``."""
    e = field.e
    powers = [1 << d if d < e else field.mul(1 << e - 1, 1 << d - e + 1)
              for d in range(2 * e - 1)]
    return tuple(tuple(d for d, x in enumerate(powers) if x >> i & 1)
                 for i in range(e))


def _mul_planes(terms: tuple, a: List[int], x: List[int]) -> List[int]:
    """Lane-wise product of the GF(2^e) elements held as e planes each."""
    e = len(a)
    by_degree = [0] * (2 * e - 1)
    for s, ps in enumerate(a):
        if ps:
            for t, pt in enumerate(x):
                by_degree[s + t] ^= ps & pt
    out = []
    for ds in terms:
        acc = 0
        for d in ds:
            acc ^= by_degree[d]
        out.append(acc)
    return out


def rank_counts(field: FieldSpec, k: int, m: int, planes: Sequence[int],
                lanes: int) -> List[int]:
    """counts[r] = how many of the lanes hold a k x m matrix of rank r,
    for a field of characteristic 2.  planes[b] holds bit b of every
    lane's index and no bit at or above ``lanes``.

    Forward elimination on all lanes at once, fraction-free, with the
    columns as the vectors reduced and the k rows as pivot positions.
    At row i, column j leads in the lanes L_j = nz(entry) & ~seen, where
    seen covers earlier pivot columns and lanes already led at row i; a
    lane's rank is the number of rows where it found a lead.  Every
    column j then becomes a X_j + b_j P, with a the pivot entry, P the
    pivot column gathered lane by lane and b_j column j's entry at row
    i: a single AND for GF(2), an e x e AND/XOR product reduced through
    the modulus otherwise.  A pivot column cancels itself, and the lanes
    where a column led at an earlier row are masked out of every later
    lead and gather, so what the update writes there is never read.
    """
    e = field.e
    full = (1 << lanes) - 1
    # col[j][i]: the e planes of entry (i, j)
    col = [[list(planes[e * (i * m + j): e * (i * m + j) + e])
            for i in range(k)] for j in range(m)]
    used = [0] * m
    terms = _product_terms(field) if e > 1 else None
    ranked = [full]  # ranked[r]: lanes with at least r leads so far
    for i in range(k):
        found = 0
        lead = [0] * m
        for j in range(m):
            nz = 0
            for x in col[j][i]:
                nz |= x
            L = nz & ~(used[j] | found)
            if L:
                lead[j] = L
                used[j] |= L
                found |= L
        if not found:
            continue
        ranked.append(0)
        for r in range(len(ranked) - 1, 0, -1):
            ranked[r] |= ranked[r - 1] & found
        if i == k - 1:
            break
        pivot = [[0] * e for _ in range(i, k)]
        for j, L in enumerate(lead):
            if L:
                for p, x in zip(pivot, col[j][i:]):
                    for s in range(e):
                        p[s] |= x[s] & L
        if e == 1:
            for c in col:
                b = c[i][0]
                if b:
                    for x, p in zip(c[i + 1:], pivot[1:]):
                        x[0] ^= b & p[0]
            continue
        a = pivot[0]
        a[0] |= full ^ found  # lanes without a pivot scale by 1
        for c in col:
            b = c[i]
            if any(b):
                for t, p in enumerate(pivot[1:], i + 1):
                    c[t] = [u ^ v for u, v in zip(
                        _mul_planes(terms, a, c[t]), _mul_planes(terms, b, p))]
    counts = [x.bit_count() for x in ranked] + [0] * (k + 2 - len(ranked))
    return [counts[r] - counts[r + 1] for r in range(k + 1)]


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
