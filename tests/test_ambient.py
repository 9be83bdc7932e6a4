import random

import pytest

from rankcov.ambient import add_index, index_to_mat, mat_index, rank_table
from rankcov.gfield import digits, field_from_order, undigits
from rankcov.matlin import rank

# every shape k <= m with q^(km) <= 2^12, k = 1 and k = m included
SMALL_SHAPES = [(q, k, m) for q in (2, 3, 4)
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
        assert add_index(F, 6, a, b) == a ^ b == undigits(total, q)
