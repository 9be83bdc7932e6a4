import random

import pytest

from rankcov.ambient import (TABLE_CAP, digits_index, index_digits,
                             index_to_mat, mat_index, rank_table)
from rankcov.gfield import field_from_order
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


def test_rank_table_refuses_beyond_cap():
    F = field_from_order(2)
    assert 2 ** 21 > TABLE_CAP
    with pytest.raises(ValueError):
        rank_table(F, 3, 7)


def test_digits_index_inverts_index_digits():
    F = field_from_order(3)
    for idx in range(3 ** 6):
        assert digits_index(3, index_digits(3, 6, idx)) == idx
        assert mat_index(index_to_mat(F, 2, 3, idx)) == idx
