"""Oracles shared by the test modules."""

import pytest

from rankcov.ambient import rank_table
from rankcov.gfield import add_index, undigits


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


@pytest.fixture
def kernel_sample():
    """n random k x m indices over F, n of rank at most 1 (u v^T, whose
    elimination must cancel exactly) and the all-0 and all-(q - 1)
    matrices: random matrices alone are nearly all of full rank, which a
    wrong update keeps."""
    def sample(F, k, m, rng, n=150):
        out = [rng.randrange(F.q ** (k * m)) for _ in range(n)]
        for _ in range(n):
            u = [rng.randrange(F.q) for _ in range(k)]
            v = [rng.randrange(F.q) for _ in range(m)]
            out.append(undigits([F.mul(a, b) for a in u for b in v], F.q))
        return out + [0, F.q ** (k * m) - 1]
    return sample
