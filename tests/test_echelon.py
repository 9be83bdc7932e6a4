"""The packed elimination against independent oracles.

``matlin`` row-reduces packed rows: over GF(2^e) one int per row, e bits
per entry, and over GF(3) a pair of bit planes per row.  A ``Subspace``
keeps its RREF rows as ambient indices and decodes ``basis`` on first
read.  Here its RREF is compared with a Gauss-Jordan elimination on
rows of element codes written out below (the reference), checked for the
reduced-echelon properties and, on small cases, for spanning exactly the
vectors the input rows span; ``Subspace.contains`` is checked against
that span; the complement, the zero-head section and the lazy basis are
checked over fields of every kind; and ``rank`` is compared with the
bit-sliced lanes of ``ambient.rank_counts`` on sampled matrices of every
rank.  Over the odd fields other than GF(3), which eliminate rows of
element codes fraction-free, ``rank``, ``rank_of_index`` and the
dimension of the RREF are compared with the size of the row space, log_q
of the number of distinct combinations of the rows, and the RREF rows
are checked to be 1 at their pivot and 0 at every other pivot.
"""

import itertools
import random

import pytest

from rankcov.ambient import mat_index, rank_counts
from rankcov.gfield import field_from_order, undigits
from rankcov.matlin import Mat, Subspace, random_matrix, rank, rank_of_index

FIELDS = (2, 4, 8, 16, 256, 2048)  # GF(2048) has no tables: F.mul computes
# packed in characteristic 2, as planes over GF(3), as element codes above
PACKED_FIELDS = (2, 3, 4, 5, 9, 256)


def reference_rref(field, rows):
    """Gauss-Jordan on rows of element codes through ``field.mul`` and
    ``field.inv``: leftmost nonzero column, first nonzero row."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and c:
                rows[i] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return [tuple(r) for r in rows[:len(pivots)]], pivots


def span(field, rows, n):
    """Every F_q-combination of the rows, by enumeration."""
    out = set()
    for coeffs in itertools.product(range(field.q), repeat=len(rows)):
        v = [0] * n
        for c, r in zip(coeffs, rows):
            v = [field.add(x, field.mul(c, y)) for x, y in zip(v, r)]
        out.add(tuple(v))
    return out


def row_sets(q):
    """(n, rows) over GF(q): zero rows, random rows of every count up to
    more rows than columns, duplicate, scaled and summed rows, full-rank
    sets in shuffled order, and widths of more than 64 bits."""
    F = field_from_order(q)
    rng = random.Random(q)
    widths = [1, 3, 64 // F.e + 1] + {2: [6, 80], 256: [12]}.get(q, [])
    for n in widths:
        def vec():
            return [rng.randrange(q) for _ in range(n)]
        yield n, [[0] * n]
        yield n, [[0] * n, vec(), [0] * n]
        for d in (1, 2, n // 2 + 1, n + 2):
            yield n, [vec() for _ in range(d)]
        a, b = vec(), vec()
        c = rng.randrange(1, q)
        yield n, [a, b, a, [F.mul(c, x) for x in b],
                  [F.add(x, F.mul(c, y)) for x, y in zip(a, b)], [0] * n]
        full = [[0] * i + [rng.randrange(1, q)] + vec()[i + 1:]
                for i in range(n)]
        rng.shuffle(full)
        yield n, full


@pytest.mark.parametrize("q", FIELDS)
def test_rref_matches_the_reference(q):
    F = field_from_order(q)
    for n, rows in row_sets(q):
        S = Subspace(F, n, rows)
        assert (list(S.basis), list(S.pivots)) == reference_rref(F, rows)


@pytest.mark.parametrize("q", FIELDS)
def test_rref_is_reduced_echelon_and_spans_the_rows(q):
    F = field_from_order(q)
    for n, rows in row_sets(q):
        S = Subspace(F, n, rows)
        assert list(S.pivots) == sorted(set(S.pivots))
        for row, p in zip(S.basis, S.pivots):
            assert len(row) == n and row[p] == 1 and not any(row[:p])
            assert [r[p] for r in S.basis].count(0) == S.dim - 1
        assert S.dim == len(reference_rref(F, rows)[1])
        if q ** len(rows) <= 1 << 10:
            assert span(F, S.basis, n) == span(F, rows, n)


@pytest.mark.parametrize("q", FIELDS)
def test_contains_matches_the_span(q):
    F = field_from_order(q)
    rng = random.Random(100 + q)
    for n, rows in row_sets(q):
        S = Subspace(F, n, rows)
        assert all(S.contains(r) for r in rows)
        # a nonzero vector that is zero at every pivot lies outside
        for f in set(range(n)) - set(S.pivots):
            assert not S.contains([int(j == f) for j in range(n)])
        if q ** len(rows) <= 1 << 10:
            inside = span(F, rows, n)
            for _ in range(20):
                v = tuple(rng.randrange(q) for _ in range(n))
                assert S.contains(v) == (v in inside)


def dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


@pytest.mark.parametrize("q", PACKED_FIELDS)
def test_packed_subspace_matches_the_reference(q):
    F = field_from_order(q)
    rng = random.Random(300 + q)
    for n, rows in row_sets(q):
        ref, pivots = reference_rref(F, rows)
        S = Subspace(F, n, rows)
        assert (list(S.basis), list(S.pivots)) == (ref, pivots)
        assert S.rows == tuple(undigits(r, q) for r in ref)
        # membership: a vector lies in the span iff it adds no pivot
        samples = [rows[0], [0] * n] + [
            [rng.randrange(q) for _ in range(n)] for _ in range(10)]
        for v in samples:
            assert S.contains(v) == (
                len(reference_rref(F, ref + [tuple(v)])[1]) == S.dim)
        # the complement: orthogonal to every row, complementary dimension
        # and the subspace again once more
        P = S.orthogonal()
        assert S.dim + P.dim == n
        assert all(dot(F, u, v) == 0 for u in S.basis for v in P.basis)
        assert P.orthogonal() == S
        # the zero-head section: the tails of the reference rows whose
        # pivot is at h or beyond
        for h in sorted({0, 1, n // 2, n}):
            T = S.zero_head(h)
            assert T.ambient == n - h
            assert list(T.basis) == [r[h:] for r, p in zip(ref, pivots)
                                     if p >= h]
        # a decoded basis changes neither equality nor the hash
        lazy, eager = Subspace(F, n, rows), Subspace(F, n, rows)
        assert eager.basis == S.basis
        assert lazy == eager and hash(lazy) == hash(eager)
        assert Subspace(F, n, ref) == S
        assert Subspace.of_indices(F, n, [undigits(r, q) for r in rows]) == S


def planes_of(indices, nbits):
    """Bit b of lane w is bit b of indices[w], one bit at a time."""
    planes = [0] * nbits
    for w, x in enumerate(indices):
        for b in range(nbits):
            planes[b] |= (x >> b & 1) << w
    return planes


@pytest.mark.parametrize("q", FIELDS)
def test_rank_matches_the_lanes(q):
    F = field_from_order(q)
    rng = random.Random(200 + q)
    reps = 15 if q <= 1024 else 4  # computed products are slow
    for k, m in ((1, 1), (2, 3), (3, 3), (3, 5), (4, 4), (2, 64 // F.e + 1)):
        # products of k x r and r x m matrices: every rank r <= k occurs
        sample = [Mat.zero(F, k, m)]
        for r in range(1, k + 1):
            sample += [random_matrix(F, k, r, rng) @ random_matrix(F, r, m, rng)
                       for _ in range(reps)]
        sample += [random_matrix(F, k, m, rng) for _ in range(reps)]
        indices = [mat_index(M) for M in sample]
        counts = [0] * (k + 1)
        for M in sample:
            counts[rank(M)] += 1
        assert counts == rank_counts(F, k, m, planes_of(indices, k * m * F.e),
                                     len(sample))
        rank_at = rank_of_index(F, k, m)
        assert [rank_at(x) for x in indices] == [rank(M) for M in sample]
        assert [rank(M) for M in sample] == [
            len(reference_rref(F, M.rows())[1]) for M in sample]


# every odd field but GF(3) eliminates rows of element codes fraction-free
ELEMENT_FIELDS = (5, 7, 9, 25, 27)


def row_space_rank(field, rows):
    """log_q of the number of distinct F_q-combinations of the rows: a
    row outside the span of those before it multiplies their count by q,
    one inside adds none.  The span is listed only while rows follow."""
    vectors, rank = {(0,) * len(rows[0])}, 0
    for i, r in enumerate(rows):
        if tuple(r) in vectors:
            continue
        rank += 1
        if i + 1 < len(rows):
            vectors = {tuple(field.add(x, field.mul(c, y))
                             for x, y in zip(v, r))
                       for v in vectors for c in range(field.q)}
            assert len(vectors) == field.q ** rank
    return rank


def element_samples(F, k, m, rng):
    """k x m matrices over F: zero, rank 1 with a pivot other than 1,
    full rank with such pivots in shuffled rows, repeated and scaled
    rows, products of k x r and r x m matrices, and seeded ones."""
    def vec():
        return [rng.randrange(F.q) for _ in range(m)]

    def nonzero():
        return rng.randrange(2, F.q)
    yield Mat.zero(F, k, m)
    u, v = [nonzero() for _ in range(k)], [0] * (m - 1) + [nonzero()]
    yield Mat.from_rows(F, [[F.mul(a, b) for b in v] for a in u])
    full = [[0] * i + [nonzero()] + vec()[i + 1:] for i in range(k)]
    rng.shuffle(full)
    yield Mat.from_rows(F, full)
    a, c = vec(), nonzero()
    yield Mat.from_rows(F, ([a, [F.mul(c, x) for x in a]] + [a] * k)[:k])
    for r in range(1, k + 1):
        yield random_matrix(F, k, r, rng) @ random_matrix(F, r, m, rng)
    for _ in range(8):
        yield random_matrix(F, k, m, rng)


@pytest.mark.parametrize("q", ELEMENT_FIELDS)
def test_element_row_ranks_match_the_row_space(q):
    F = field_from_order(q)
    rng = random.Random(400 + q)
    for k, m in ((1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (3, 4)):
        rank_at = rank_of_index(F, k, m)
        ranks = set()
        for M in element_samples(F, k, m, rng):
            r = row_space_rank(F, M.rows())
            assert rank(M) == rank_at(mat_index(M)) == r, (k, m, M)
            assert Subspace(F, m, M.rows()).dim == r
            ranks.add(r)
        assert ranks == set(range(k + 1))


@pytest.mark.parametrize("q", ELEMENT_FIELDS)
def test_element_row_subspaces_are_reduced_echelon(q):
    F = field_from_order(q)
    rng = random.Random(500 + q)
    for k, m in ((2, 3), (3, 4)):
        for M in element_samples(F, k, m, rng):
            S = Subspace(F, m, M.rows())
            for row, p in zip(S.basis, S.pivots):
                assert row[p] == 1 and not any(row[:p])
                assert [r[p] for r in S.basis].count(0) == S.dim - 1
            # the rows span the matrix's rows: adding them adds no rank
            assert row_space_rank(F, S.basis + tuple(M.rows())) == S.dim
