"""Oracles shared by the test modules."""

import pytest

from rankcov.ambient import rank_table
from rankcov.gfield import add_index


@pytest.fixture
def table_profile():
    """W(C+X), X indexed by x, read off the rank table of C's ambient
    space: each listed word plus x looked up in the q^(km) bytes."""
    def profile(C, x):
        table = rank_table(C.field, C.k, C.m)
        W = [0] * (C.k + 1)
        for w in C.word_indices():
            W[table[add_index(C.field, w, x)]] += 1
        return W
    return profile
