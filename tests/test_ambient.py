import random

import pytest

from rankcov.ambient import index_to_mat, mat_index, rank_balls, rank_table
from rankcov.gfield import (_CHUNK_CAP, _chunk_sums, add_index, digits,
                            field_from_order, undigits)
from rankcov.matlin import rank

# every shape k <= m with q^(km) <= 2^12, k = 1 and k = m included
SMALL_SHAPES = [(q, k, m) for q in (2, 3, 4, 5, 8, 9)
                for k in range(1, 13) for m in range(k, 13)
                if q ** (k * m) <= 1 << 12]


@pytest.mark.parametrize("q,k,m", SMALL_SHAPES)
def test_rank_table_matches_rank_on_every_index(q, k, m):
    F = field_from_order(q)
    table = rank_table(F, k, m)
    assert isinstance(table, bytes)
    assert len(table) == q ** (k * m)
    assert list(table) == [rank(index_to_mat(F, k, m, idx))
                           for idx in range(q ** (k * m))]


@pytest.mark.parametrize("k,m", [(4, 4), (3, 6)])
def test_rank_table_matches_rank_on_sampled_indices(k, m):
    F = field_from_order(2)
    table = rank_table(F, k, m)
    rng = random.Random(20 * k + m)
    for idx in rng.sample(range(2 ** (k * m)), 2000):
        assert table[idx] == rank(index_to_mat(F, k, m, idx))


@pytest.mark.parametrize("q,k,m", [(2, 2, 3), (3, 2, 2), (4, 2, 2),
                                   (5, 1, 3), (8, 1, 2), (9, 1, 2)])
def test_rank_balls_hold_the_matrices_within_each_radius(q, k, m):
    F = field_from_order(q)
    N = q ** (k * m)
    rng = random.Random(q * 100 + k * 10 + m)
    for size in (1, 2, 5):
        centres = rng.sample(range(N), size)
        dist = [min(rank(index_to_mat(F, k, m, x) - index_to_mat(F, k, m, c))
                    for c in centres) for x in range(N)]
        balls = list(rank_balls(F, k, m, centres))
        assert len(balls) == max(dist)
        for r, ball in enumerate(balls):
            assert [ball >> x & 1 for x in range(N)] == [d <= r for d in dist]


def test_undigits_inverts_digits():
    F = field_from_order(3)
    for idx in range(3 ** 6):
        assert undigits(digits(idx, 3, 6), 3) == idx
        assert mat_index(index_to_mat(F, 2, 3, idx)) == idx


@pytest.mark.parametrize("q", [4, 8])
def test_add_index_xor_matches_digitwise_add(q):
    F = field_from_order(q)
    rng = random.Random(q)
    for _ in range(500):
        a, b = rng.randrange(q ** 6), rng.randrange(q ** 6)
        total = [F.add(x, y) for x, y in zip(digits(a, q, 6), digits(b, q, 6))]
        assert add_index(F, a, b) == a ^ b == undigits(total, q)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97])
def test_chunk_sums_match_the_digitwise_table(p):
    P, table = _chunk_sums.__wrapped__(p)  # built afresh, not the cache
    if p == 97:  # 97^2 entries exceed the cap: add_index adds digit by digit
        assert (P, table) == (97, None)
        return
    c = 1
    while p ** c < P:
        c += 1
    assert P == p ** c and P * P <= _CHUNK_CAP < P * P * p * p
    assert table == [undigits([(s + t) % p for s, t in zip(digits(x, p, c),
                                                          digits(y, p, c))], p)
                     for x in range(P) for y in range(P)]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 27, 1031])
def test_add_index_chunks_match_digitwise_add(q):
    # GF(3), GF(9), GF(27) add four base-3 digits per table lookup, GF(5)
    # and GF(7) two; n = 1..7 entries leave partial last chunks, and
    # GF(1031) is beyond the table and adds digit by digit
    F = field_from_order(q)
    rng = random.Random(q)
    for n in range(1, 8):
        top = q ** n - 1
        pairs = [(0, 0), (top, top), (top, 1), (1, top), (0, top)]
        pairs += [(rng.randrange(q ** n), rng.randrange(q ** n))
                  for _ in range(200)]
        pairs += [(rng.randrange(q), rng.randrange(q ** n)) for _ in range(20)]
        for a, b in pairs:
            total = [F.add(x, y)
                     for x, y in zip(digits(a, q, n), digits(b, q, n))]
            assert add_index(F, a, b) == undigits(total, q)
