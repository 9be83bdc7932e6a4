"""Integer indexing of the ambient space F_q^{k x m} and rank-distance balls.

A matrix is indexed by the little-endian base-q number whose digit t is
the t-th row-major entry (the :func:`gfield.digits` codec).  In
characteristic 2 an element code is the element's GF(2) coordinate
vector, so matrix addition is XOR of indices.  The packing never leaks
into serialization.  In characteristic 2 and 3 :func:`rank_counts` ranks
a whole pass of matrices at once, one bit lane per matrix, gathering
each row's pivot entries from the columns that led and updating the
later rows entry by entry (one AND/XOR over GF(2)), and
:func:`lane_ranks` reads off each lane's rank; the codeword passes in
:mod:`codes` use them, and :func:`matlin.rank_of_index` ranks one matrix
from its index for p >= 5.

Rank distance is graph distance in the bilinear-forms graph, whose edges
are rank-1 steps: rank(A) is the least number of rank-1 matrices that
sum to A.  So the covering radius of a code is the number of balls
:func:`rank_balls` grows around it; :func:`rank_table`, which reads every
rank off the balls around {0}, is only a test oracle and benchmark hook.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple

from .gfield import (FieldSpec, add_index, digits, make_field, planes3,
                     scale_index, sub3, undigits)
from .matlin import Mat


def mat_index(M: Mat) -> int:
    return undigits(M.entries, M.field.q)


def index_to_mat(field: FieldSpec, k: int, m: int, idx: int) -> Mat:
    return Mat._of(field, k, m, digits(idx, field.q, k * m))


def left_images(A: Mat, m: int, words: Iterable[int]) -> List[int]:
    """The index of A M for each A.m x m matrix M indexed by words, on
    packed rows: row i of A M sums A[i, j] times row j of M."""
    F, w, out = A.field, A.field.q ** m, []  # w: one row of m entries
    for x in words:
        rows, image = [x // w ** j % w for j in range(A.m)], 0
        for i in range(A.k):
            for a, r in zip(A.row(i), rows):
                image = add_index(F, image, scale_index(F, a, r, m) * w ** i)
        out.append(image)
    return out


# -- bit-sliced ranks in characteristic 2 and 3 --
#
# Lane w of a pass is one matrix.  In characteristic 2 plane b is the int
# whose bit w is bit b of lane w's index.  In characteristic 3 base-3
# digit t of the index takes the planes 2t (the digit is nonzero) and
# 2t + 1 (the digit is 2), so a product of digits is three Boolean
# operations and a difference seven (Boothby and Bradshaw, arXiv:0901.1413).
# The lane builders below yield (planes, lanes) chunks of at most
# 2^LANE_BITS lanes (or one row of a pair pass), so a pass holds a bounded
# number of planes whatever the code's size; their p argument is the
# characteristic and nbits counts base-p digits.

LANE_BITS = 16


@lru_cache(maxsize=LANE_BITS + 1)
def _lane_patterns(n: int) -> tuple:
    """P_0..P_(n-1) over 2^n lanes: bit w of P_j is bit j of w."""
    full = (1 << (1 << n)) - 1
    # period 2^(j+1): 2^j zero bits, then 2^j one bits
    return tuple(full // ((1 << (2 << j)) - 1)
                 * (((1 << (1 << j)) - 1) << (1 << j)) for j in range(n))


def _shift3(nz: int, two: int, d: int, full: int) -> Tuple[int, int]:
    """The planes of a GF(3) digit plus the constant d: a permutation of
    the lanes holding 0, 1 and 2."""
    if d == 1:
        return full ^ two, nz ^ two
    if d == 2:
        return full ^ nz ^ two, full ^ nz
    return nz, two


def span_lanes(basis: Sequence[int], nbits: int, start: int = 0,
               p: int = 2) -> Iterator[Tuple[List[int], int]]:
    """Chunks holding start plus every F_p-combination of the indices in
    basis, lane w holding start plus w_j basis[j] over the base-p digits
    w_j of w: the low chunk, over the first vectors, plus each constant."""
    low = 0
    while p ** (low + 1) <= 1 << LANE_BITS:
        low += 1
    planes, lanes = _low_lanes(tuple(basis[:low]), nbits, p)
    full = (1 << lanes) - 1
    F = make_field(p)
    consts = [start]
    for v in basis[low:]:
        consts += [add_index(F, c, s) for s in (v, add_index(F, v, v))[:p - 1]
                   for c in consts]
    for c in consts:
        if p == 2:
            yield [x ^ full if c >> b & 1 else x
                   for b, x in enumerate(planes)], lanes
            continue
        out = []
        for nz, two, d in zip(planes[::2], planes[1::2], digits(c, 3, nbits)):
            out += _shift3(nz, two, d, full)
        yield out, lanes


@lru_cache(maxsize=1)
def _low_lanes(low: Tuple[int, ...], nbits: int, p: int) -> tuple:
    """The chunk of every F_p-combination of low, kept for the next call:
    plane b XORs the P_j with bit b in low[j], or p = 3 triples per v."""
    if p == 2:
        planes = [0] * nbits
        for v, P in zip(low, _lane_patterns(len(low))):
            while v:
                planes[(v & -v).bit_length() - 1] ^= P
                v &= v - 1
        return tuple(planes), 1 << len(low)
    planes, lanes = [0] * (2 * nbits), 1
    for v in low:
        full = (1 << lanes) - 1
        out = []
        for nz, two, d in zip(planes[::2], planes[1::2], digits(v, 3, nbits)):
            (a0, a1), (b0, b1) = (_shift3(nz, two, d, full),
                                  _shift3(nz, two, 2 * d % 3, full))
            out += [nz | (a0 | b0 << lanes) << lanes,
                    two | (a1 | b1 << lanes) << lanes]
        planes, lanes = out, 3 * lanes
    return tuple(planes), lanes


def _planes(words: Sequence[int], nbits: int, p: int = 2) -> List[int]:
    """The transposed indices: bit w of plane b is bit b of words[w], or
    for p = 3 the two planes of digit t of words[w]."""
    if p == 2:  # bit b of words[w] is character nbits - 1 - b of word w
        text = "".join([format(x, f"0{nbits}b") for x in reversed(words)])
        return [int(text[nbits - 1 - b::nbits], 2) for b in range(nbits)]
    out = []
    for col in zip(*[digits(x, 3, nbits) for x in words]):
        out += planes3(col)
    return out


def word_lanes(words: Sequence[int], nbits: int,
               p: int = 2) -> Iterator[Tuple[List[int], int]]:
    """Chunks with lane w holding the index words[w]."""
    step = 1 << LANE_BITS
    for s in range(0, len(words), step):
        chunk = words[s:s + step]
        yield _planes(chunk, nbits, p), len(chunk)


def pair_lanes(words: Sequence[int], nbits: int,
               p: int = 2) -> Iterator[Tuple[List[int], int]]:
    """Chunks of the ordered pairs: with n words, lane i n + j holds
    the index of words[j] - words[i].  A block of r <= n rows from row i
    copies the word planes once per row, n lanes apart, and adds -a to
    row t, a = words[i + t]: for p = 2, plane b is P_b times the repunit
    (r copies at period n) XOR, per row t, n ones where bit i + t of P_b
    is set; for p = 3 each row gets the digit permutation of -a."""
    n = len(words)
    planes = _planes(words, nbits, p)
    rows = max(1, (1 << LANE_BITS) // n)
    ones = (1 << n) - 1
    for i in range(0, n, rows):
        r = min(rows, n - i)
        rep = ((1 << r * n) - 1) // ones  # bit t n for t < r
        diag = ((1 << r * (n + 1)) - 1) // ((2 << n) - 1)  # bit t (n + 1)
        half, top = rep * (ones >> 1), rep << n - 1

        def spread(P):
            """Bit t n where bit i + t of P is set, t < r."""
            # block t holds bit i + t of P at its bit t, so it is 0 or at
            # most 2^(n-1), and adding 2^(n-1) - 1 sets its top bit if not 0
            row_bits = (P >> i & (1 << r) - 1) * rep & diag
            return (row_bits + half & top) >> n - 1

        if p == 2:
            yield [P * rep ^ spread(P) * ones for P in planes], r * n
            continue
        out = []
        for nz, two in zip(planes[::2], planes[1::2]):
            # the rows where -a has digit 1 (a has 2), 2 (a has 1) and 0;
            # m_d times the word planes plus d fills the rows of digit d
            m1, m2 = spread(two), spread(nz ^ two)
            m0 = rep ^ m1 ^ m2
            for d0, d1, d2 in zip((nz, two), _shift3(nz, two, 1, ones),
                                  _shift3(nz, two, 2, ones)):
                out.append(d0 * m0 | d1 * m1 | d2 * m2)
        yield out, r * n


@lru_cache(maxsize=8)
def _product_terms(field: FieldSpec) -> tuple:
    """For GF(p^e): per output digit i, the pairs (d, c) with d <= 2e - 2
    and c the nonzero digit i of x^d, with x^d read off ``field.mul``."""
    p, e = field.p, field.e
    powers = [p ** d if d < e else field.mul(p ** (e - 1), p ** (d - e + 1))
              for d in range(2 * e - 1)]
    return tuple(tuple((d, c) for d, x in enumerate(powers)
                       if (c := x // p ** i % p)) for i in range(e))


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
        for d, _ in ds:
            acc ^= by_degree[d]
        out.append(acc)
    return out


def _mul_planes3(terms: tuple, a: List[int], x: List[int]) -> List[int]:
    """Lane-wise product of the GF(3^e) elements held as e plane pairs
    each; -y is y with its two plane XOR its nonzero plane."""
    if len(a) == 2:
        nz = a[0] & x[0]
        return [nz, nz & (a[1] ^ x[1])]
    e = len(a) // 2
    by_degree = [[0, 0] for _ in range(2 * e - 1)]
    for s in range(e):
        if a[2 * s]:
            for t in range(e):
                nz, two = _mul_planes3(terms, a[2 * s:2 * s + 2],
                                       x[2 * t:2 * t + 2])
                by_degree[s + t] = sub3(*by_degree[s + t], nz, nz ^ two)
    out = []
    for ds in terms:
        acc = [0, 0]
        for d, c in ds:
            y = by_degree[d]
            acc = sub3(*acc, y[0], y[1] ^ y[0] * (c == 1))  # + c y
        out += acc
    return out


def rank_counts(field: FieldSpec, k: int, m: int, planes: Sequence[int],
                lanes: int) -> List[int]:
    """counts[r] = how many of the lanes hold a k x m matrix of rank r,
    for a field of characteristic 2 or 3.  planes holds every lane's
    index as the lane builders lay it out, and no bit at or above
    ``lanes``."""
    counts = [x.bit_count() for x in _ranked(field, k, m, planes, lanes)]
    counts += [0] * (k + 2 - len(counts))
    return [counts[r] - counts[r + 1] for r in range(k + 1)]


def lane_ranks(field: FieldSpec, k: int, m: int, planes: Sequence[int],
               lanes: int) -> bytes:
    """Byte w is the rank of lane w, planes laid out as for rank_counts."""
    ranks = sum(_spread(x, lanes)
                for x in _ranked(field, k, m, planes, lanes)[1:])
    return ranks.to_bytes(lanes, "little")


def _ranked(field: FieldSpec, k: int, m: int, planes: Sequence[int],
            lanes: int) -> List[int]:
    """ranked[r]: the lanes of rank r or more, r up to the highest rank.

    Forward elimination on all lanes at once, fraction-free, with the
    columns as the vectors reduced and the k rows as pivot positions.
    At row i, column j leads in the lanes L_j = nz(entry) & ~seen, where
    seen covers earlier pivot columns and lanes already led at row i; a
    lane's rank is the number of rows where it found a lead.  Every
    column j then becomes a X_j - b_j P, with a the pivot entry and b_j
    column j's entry at row i; entry t of the pivot column P is gathered
    from row t, lane by lane, from the columns that led, each masked by
    its L_j.  Over GF(2) an entry is one plane, a = 1 and a row is
    updated with one AND/XOR per entry; otherwise an entry is its list of
    planes and the update a product of e x e digits reduced through the
    modulus and a difference, per characteristic.  A pivot column
    cancels itself, and the lanes where a column led at an earlier row
    are masked out of every later lead and gather, so what the update
    writes there is never read.
    """
    w = field.e * (field.p - 1)  # planes per entry
    if w == 1:  # rows[i][j]: entry (i, j), one plane
        rows = [list(planes[m * i: m * i + m]) for i in range(k)]
    else:  # rows[i][j]: the planes of entry (i, j)
        rows = [[list(planes[w * t: w * t + w])
                 for t in range(m * i, m * i + m)] for i in range(k)]
        terms = _product_terms(field)
        if field.p == 2:
            mul, sub = _mul_planes, lambda x, y: [u ^ v for u, v in zip(x, y)]
        else:
            mul = _mul_planes3

            def sub(x, y):  # e plane pairs each
                return [z for i in range(0, len(x), 2)
                        for z in sub3(x[i], x[i + 1], y[i], y[i + 1])]
    used = [0] * m
    ranked = [(1 << lanes) - 1]  # ranked[r]: lanes with >= r leads so far
    for i, row in enumerate(rows):
        found, leads = 0, []
        for j, x in enumerate(row):
            if w > 1:
                nz = 0
                for y in x:
                    nz |= y
                x = nz
            L = x & ~(used[j] | found)
            if L:
                leads.append((j, L))
                used[j] |= L
                found |= L
        if not found:
            continue
        ranked.append(0)
        for r in range(len(ranked) - 1, 0, -1):
            ranked[r] |= ranked[r - 1] & found
        if i == k - 1:
            break
        if w == 1:
            for t in range(i + 1, k):
                R, P = rows[t], 0
                for j, L in leads:
                    P |= R[j] & L
                if P:
                    rows[t] = [x ^ b & P for x, b in zip(R, row)]
            continue
        a = [0] * w
        for j, L in leads:
            a = [u | v & L for u, v in zip(a, row[j])]
        a[0] |= ranked[0] ^ found  # lanes without a pivot scale by 1
        for t in range(i + 1, k):
            R, P = rows[t], [0] * w
            for j, L in leads:
                P = [u | v & L for u, v in zip(P, R[j])]
            rows[t] = [sub(mul(terms, a, x), mul(terms, b, P)) if any(b)
                       else x for x, b in zip(R, row)]
    return ranked


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


def _spread(bits: int, n: int) -> int:
    """Byte t (from the low end) is bit t of bits, t < n: the binary
    string's characters, 0 or 1, read high first."""
    return int.from_bytes(format(bits, f"0{n}b").encode().translate(
        _BIT_BYTES), "big")


@lru_cache(maxsize=8)
def rank_table(field: FieldSpec, k: int, m: int) -> bytes:
    """rank of every matrix in F_q^{k x m}, indexed by mat_index: byte X
    counts the balls around {0} that miss X; callers bound its q^(km) bytes.
    No library pass reads it.  It goes once the benchmark drops its two
    calls (sweep set-up and the cold CLI replay)."""
    N = field.q ** (k * m)
    full = (1 << N) - 1
    table = sum(_spread(full ^ ball, N)
                for ball in rank_balls(field, k, m, [0]))
    return table.to_bytes(N, "little")
