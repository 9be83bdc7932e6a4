import itertools
import random
from fractions import Fraction

import pytest

from rankcov.codes import RankCode
from rankcov.cosets import annihilator
from rankcov.covering import external_distance
from rankcov.gfield import field_from_order, make_field
from rankcov.matlin import Mat, enumerate_subspaces, rank
from rankcov.qcomb import (build_table, dual_weight_distribution,
                           gaussian_binomial, krawtchouk, krawtchouk_sums,
                           macwilliams_transform, rank_sphere_size,
                           subspace_moebius)
from rankcov.construct import random_code, random_linear_code

F2 = make_field(2)


def test_gaussian_binomial_values():
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 5, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


def test_gaussian_binomial_counts_subspaces():
    for n in range(5):
        for u in range(n + 1):
            assert gaussian_binomial(n, u, 2) == \
                sum(1 for _ in enumerate_subspaces(F2, n, u))


def test_gaussian_binomial_symmetry():
    for a in range(7):
        for b in range(a + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(a, b, q) == gaussian_binomial(a, a - b, q)


def test_moebius_values():
    assert subspace_moebius(3, 3, 2) == 1
    assert subspace_moebius(0, 1, 5) == -1
    assert subspace_moebius(0, 2, 2) == 2
    with pytest.raises(ValueError):
        subspace_moebius(2, 1, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_moebius_sum_over_lattice(q):
    # sum over subspaces S of T of mu(S, T) vanishes when dim T >= 1
    for t in range(1, 4):
        total = sum(gaussian_binomial(t, s, q) * subspace_moebius(s, t, q)
                    for s in range(t + 1))
        assert total == 0


def test_krawtchouk_row_zero_and_column_zero():
    for k, m, q in [(2, 2, 2), (3, 4, 2), (2, 3, 3)]:
        for j in range(k + 1):
            assert krawtchouk(0, j, k, m, q) == 1
        for i in range(k + 1):
            assert krawtchouk(i, 0, k, m, q) == rank_sphere_size(i, k, m, q)


def test_krawtchouk_rank1_count_by_enumeration():
    count = sum(1 for bits in itertools.product((0, 1), repeat=4)
                if rank(Mat(F2, 2, 2, bits)) == 1)
    assert count == 9
    assert krawtchouk(1, 0, 2, 2, 2) == 9
    assert rank_sphere_size(1, 2, 2, 2) == 9


@pytest.mark.parametrize("q", [2, 3])
def test_krawtchouk_character_sum_identity(q):
    for k in range(1, 5):
        for m in range(k, 5):
            for j in range(k + 1):
                total = sum(krawtchouk(i, j, k, m, q) for i in range(k + 1))
                assert total == (q ** (k * m) if j == 0 else 0)


@pytest.mark.parametrize("q", [2, 3])
def test_table_squares_to_ambient_size(q):
    for k in range(1, 5):
        for m in range(k, 6):
            T = build_table(k, m, q)
            N = q ** (k * m)
            for a in range(k + 1):
                for b in range(k + 1):
                    entry = sum(T.P[a][i] * T.P[i][b] for i in range(k + 1))
                    assert entry == (N if a == b else 0)


def test_rank_sphere_sizes_partition_ambient():
    for k, m, q in [(2, 2, 2), (3, 3, 2), (2, 3, 3), (4, 4, 2)]:
        assert sum(rank_sphere_size(i, k, m, q) for i in range(k + 1)) \
            == q ** (k * m)


def test_transform_of_full_space():
    T = build_table(2, 2, 2)
    W = [rank_sphere_size(i, 2, 2, 2) for i in range(3)]
    out = macwilliams_transform(W, 16, T)
    assert out == [Fraction(1), Fraction(0), Fraction(0)]


def test_transform_equals_dual_weights_on_random_linear_codes():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randrange(1, 4)
        m = rng.randrange(k, 5)
        C = random_linear_code(F2, k, m, rng.randrange(0, k * m + 1), rng)
        T = build_table(k, m, 2)
        got = macwilliams_transform(C.weight_distribution(), C.cardinality(), T)
        assert got == [Fraction(w) for w in C.dual().weight_distribution()]


def test_transform_nonnegative_on_random_nonlinear_codes():
    rng = random.Random(12)
    for _ in range(25):
        C = random_code(F2, 2, 3, rng.randrange(1, 10), rng)
        T = build_table(2, 3, 2)
        out = macwilliams_transform(C.distance_distribution(),
                                    C.cardinality(), T)
        assert all(x >= 0 for x in out)


def test_transform_length_check():
    T = build_table(2, 2, 2)
    with pytest.raises(ValueError):
        macwilliams_transform([1, 0], 4, T)


# -- the integer Krawtchouk sums against the Fraction formula --

def fraction_transform(B, codesize, table):
    """The transform as Fractions, entry by entry: |C|^{-1} sum_j B_j P_j(i)."""
    k = table.k
    return [sum(Fraction(B[j]) * table.P[j][i] for j in range(k + 1))
            / codesize for i in range(k + 1)]


def transform_codes(q):
    """The zero code, the full space, seeded linear codes of every other
    dimension and seeded explicit codes, on shapes with k = 1 and k = m."""
    F = field_from_order(q)
    rng = random.Random(500 + q)
    shapes = [(1, 2), (2, 2)] + ([(2, 3)] if q <= 5 else [])
    for k, m in shapes:
        yield RankCode.zero_code(F, k, m)
        yield RankCode.full_space(F, k, m)
        for dim in range(1, k * m):
            if q ** min(dim, k * m - dim) <= 1 << 10:
                yield random_linear_code(F, k, m, dim, rng)
        for size in (1, 2, 5, 9):
            if size <= q ** (k * m):
                yield random_code(F, k, m, size, rng)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9))
def test_integer_transform_matches_fraction_formula(q):
    for C in transform_codes(q):
        T = build_table(C.k, C.m, q)
        n = C.cardinality()
        B = C.distance_distribution()
        oracle = fraction_transform(B, n, T)
        got = macwilliams_transform(B, n, T)
        assert got == oracle
        assert all(type(x) is Fraction for x in got)
        assert C.distance_counts() == [x * n for x in B]
        assert krawtchouk_sums(C.distance_counts(), T) \
            == [x * n * n for x in oracle]
        roots = tuple(i for i in range(1, C.k + 1) if oracle[i] > 0)
        assert external_distance(C) == len(roots)
        if roots:
            assert annihilator(C).roots == roots
        else:
            with pytest.raises(ValueError, match="full space"):
                annihilator(C)
        if C.linear:
            W = C.weight_distribution()
            dual = fraction_transform(W, n, T)
            assert all(x.denominator == 1 for x in dual)
            assert dual_weight_distribution(W, n, T) \
                == [x.numerator for x in dual]


def test_dual_weight_distribution_raises_where_the_formula_is_fractional():
    rng = random.Random(8)
    raised = 0
    for _ in range(400):
        k, m, q = rng.choice(((1, 2, 2), (2, 2, 2), (2, 3, 3), (2, 2, 4)))
        T = build_table(k, m, q)
        W = [rng.randrange(-3, 30) for _ in range(k + 1)]
        n = rng.choice((1, 2, 3, 4, 9, 16))
        oracle = fraction_transform(W, n, T)
        if all(x.denominator == 1 for x in oracle):
            assert dual_weight_distribution(W, n, T) \
                == [x.numerator for x in oracle]
        else:
            raised += 1
            with pytest.raises(ArithmeticError, match="not integral"):
                dual_weight_distribution(W, n, T)
    assert 100 < raised < 400
