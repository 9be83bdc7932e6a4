import itertools
import random

import pytest

from rankcov.gfield import make_field
from rankcov.matlin import (Mat, Subspace, column_space, devectorize,
                            draw_entries, enumerate_subspaces, invert, kernel,
                            random_invertible, random_matrix, rank, rref,
                            trace_inner, vectorize)
from rankcov.qcomb import gaussian_binomial

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def test_public_constructors_reject_entries_outside_the_field():
    for F, bad in ((F2, 2), (F3, 3), (F4, 4), (F4, -1)):
        with pytest.raises(ValueError, match=f"element code {bad} out of range"):
            Mat(F, 2, 2, [0, 1, bad, 0])
        with pytest.raises(ValueError, match=f"element code {bad} out of range"):
            devectorize(F, [bad, 0, 0, 1], 2, 2)
        with pytest.raises(ValueError, match=f"element code {bad} out of range"):
            Mat.from_rows(F, [[0, 1], [0, bad]])


def test_subspace_rejects_malformed_rows():
    F9 = make_field(3, 2)
    for F, n, rows in ((F2, 5, [[1, 0, 1]]),  # too short
                       (F2, 3, [[1, 0, 7]]), (F2, 3, [[1, 0, 1], [0, 2, 0]]),
                       (F2, 2, [[1, 0], [1, 0, 1]]),  # one row too long
                       (F4, 2, [[4, 0]]), (F4, 2, [[0, -1]]),
                       (F3, 2, [[3, 1]]), (F9, 1, [[9]])):
        with pytest.raises(ValueError, match="element codes"):
            Subspace(F, n, rows)
        with pytest.raises(ValueError, match="element codes"):
            Subspace(F, n, []).contains(rows[-1])
    assert Subspace(F4, 2, [[3, 0], [0, 0]]).basis == ((1, 0),)


def test_derived_matrices_pass_the_entry_check():
    rng = random.Random(3)
    for F in (F2, F3, F4):
        for _ in range(20):
            A, B = random_matrix(F, 2, 3, rng), random_matrix(F, 2, 3, rng)
            C = random_matrix(F, 3, 3, rng)
            for R in (A + B, A - B, -A, A.scale(rng.randrange(F.q)),
                      A @ C, A.transpose()):
                assert type(R.entries) is tuple
                assert Mat(F, R.k, R.m, R.entries) == R  # the public check


def test_rank_zero_and_identity():
    assert rank(Mat.zero(F2, 3, 4)) == 0
    assert rank(Mat.identity(F3, 3)) == 3


def test_rank_of_worked_generator():
    M = Mat.from_rows(F2, [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert rank(M) == 2


def test_rank_generic_field_matches_gf2_structure():
    M = Mat.from_rows(F3, [[1, 2, 0], [0, 1, 2], [0, 0, 1]])
    assert rank(M) == 3
    # second row is 2 * first row over GF(3)
    N = Mat.from_rows(F3, [[1, 2, 0], [2, 1, 0], [0, 0, 0]])
    assert rank(N) == 1


def test_rref_is_canonical_and_idempotent():
    rng = random.Random(0)
    for _ in range(20):
        M = random_matrix(F3, 3, 4, rng)
        R = rref(M)
        assert rref(R) == R
        assert rank(R) == rank(M)


def test_kernel_of_identity_is_zero():
    assert kernel(Mat.identity(F2, 3)).dim == 0


def test_kernel_dimension_theorem():
    rng = random.Random(1)
    for _ in range(20):
        M = random_matrix(F3, 2, 4, rng)
        assert kernel(M).dim == 4 - rank(M)
        for v in kernel(M).basis:
            prod = M @ Mat(F3, 4, 1, v)
            assert prod.is_zero()


def test_column_space():
    assert column_space(Mat.zero(F2, 3, 3)).dim == 0
    M = Mat.from_rows(F2, [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    U = column_space(M)
    assert U.dim == 1
    # agreement with direct span enumeration of the columns
    cols = {M.col(j) for j in range(3)}
    span = set(U.vectors())
    assert cols <= span
    assert len(span) == 2


def test_column_space_membership_matches_columnwise_test():
    rng = random.Random(2)
    for _ in range(20):
        M = random_matrix(F2, 3, 3, rng)
        U = Subspace(F2, 3, [[rng.randrange(2) for _ in range(3)]
                             for _ in range(2)])
        inside = U.contains_subspace(column_space(M))
        columnwise = all(U.contains(M.col(j)) for j in range(3))
        assert inside == columnwise


def test_trace_inner_basics():
    M = Mat.from_rows(F3, [[1, 2], [0, 1]])
    assert trace_inner(M, Mat.zero(F3, 2, 2)) == 0
    I2 = Mat.identity(F2, 2)
    assert trace_inner(I2, I2) == 0  # 2 mod 2


def test_trace_inner_equals_entrywise_sum():
    rng = random.Random(3)
    for _ in range(30):
        M = random_matrix(F3, 2, 3, rng)
        N = random_matrix(F3, 2, 3, rng)
        direct = 0
        for a, b in zip(M.entries, N.entries):
            direct = F3.add(direct, F3.mul(a, b))
        assert trace_inner(M, N) == direct
        assert trace_inner(M, N) == trace_inner(N, M)


def test_trace_inner_nondegenerate_exhaustive():
    # q^(km) = 2^4: check Tr(M N^t) = 0 for all N forces M = 0
    mats = [Mat(F2, 2, 2, bits) for bits in itertools.product((0, 1), repeat=4)]
    for M in mats:
        if all(trace_inner(M, N) == 0 for N in mats):
            assert M.is_zero()


def test_random_invertible_is_deterministic_and_invertible():
    A = random_invertible(F3, 3, seed=42)
    B = random_invertible(F3, 3, seed=42)
    assert A == B
    assert rank(A) == 3
    assert A @ invert(A) == Mat.identity(F3, 3)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 27, 256, 1000))
def test_draw_entries_is_a_run_of_randrange(q):
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        assert draw_entries(a, q, 50) == [b.randrange(q) for _ in range(50)]
        assert a.random() == b.random()  # the generators stay in step


@pytest.mark.parametrize("field", (F2, F3, F4, make_field(5)))
def test_random_invertible_matches_per_entry_randrange(field):
    for seed in range(10):
        for k in (1, 2, 3):
            rng = random.Random(seed)
            while True:  # the reference draw: one randrange call per entry
                M = Mat(field, k, k, [rng.randrange(field.q)
                                      for _ in range(k * k)])
                if rank(M) == k:
                    break
            assert random_invertible(field, k, seed) == M


def test_random_invertible_k1_q2_unique():
    assert random_invertible(F2, 1, seed=0).entries == (1,)


def test_gl2_f2_order_by_enumeration():
    count = sum(1 for bits in itertools.product((0, 1), repeat=4)
                if rank(Mat(F2, 2, 2, bits)) == 2)
    assert count == 6


def test_rank_invariant_under_invertible_left_multiplication():
    rng = random.Random(4)
    for _ in range(20):
        M = random_matrix(F2, 3, 4, rng)
        A = random_invertible(F2, 3, rng)
        assert rank(A @ M) == rank(M)


@pytest.mark.parametrize("q,field", [(2, F2), (3, F3), (4, F4)])
def test_subspace_enumeration_counts(q, field):
    for n in range(0, 5):
        for u in range(0, n + 1):
            subs = list(enumerate_subspaces(field, n, u))
            assert len(subs) == gaussian_binomial(n, u, q)
            assert len(set(subs)) == len(subs)


def test_subspace_enumeration_n5():
    assert sum(1 for _ in enumerate_subspaces(F2, 5, 2)) == \
        gaussian_binomial(5, 2, 2)
    assert sum(1 for _ in enumerate_subspaces(F3, 5, 1)) == \
        gaussian_binomial(5, 1, 3)


def test_subspace_enumeration_edge_cases():
    assert list(enumerate_subspaces(F2, 3, 0)) == [Subspace.zero(F2, 3)]
    assert len(list(enumerate_subspaces(F2, 3, 1))) == 7
    assert len(list(enumerate_subspaces(F2, 4, 2))) == 35


def test_vectorize_roundtrip_and_linearity():
    rng = random.Random(5)
    for _ in range(20):
        M = random_matrix(F3, 2, 3, rng)
        N = random_matrix(F3, 2, 3, rng)
        assert devectorize(F3, vectorize(M), 2, 3) == M
        v = [F3.add(a, b) for a, b in zip(vectorize(M), vectorize(N))]
        assert devectorize(F3, v, 2, 3) == M + N


def test_vectorize_unit_matrix():
    E11 = Mat(F2, 2, 2, (1, 0, 0, 0))
    assert vectorize(E11) == (1, 0, 0, 0)


def test_devectorize_length_mismatch():
    with pytest.raises(ValueError):
        devectorize(F2, (1, 0, 1), 2, 2)


def test_subspace_orthogonal_complement():
    U = Subspace(F2, 4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    V = U.orthogonal()
    assert V.dim == 2
    for u in U.basis:
        for v in V.basis:
            acc = 0
            for a, b in zip(u, v):
                acc = F2.add(acc, F2.mul(a, b))
            assert acc == 0


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_zero_head_matches_filter(field):
    # the tails of the vectors whose first h coordinates vanish, by brute
    # force over every vector of the subspace, for every head length h
    rng = random.Random(field.q)
    for n, dim in ((4, 2), (4, 3), (5, 2), (3, 0), (3, 3)):
        for _ in range(4):
            S = Subspace(field, n, [[rng.randrange(field.q) for _ in range(n)]
                                    for _ in range(dim)])
            vecs = list(S.vectors())
            for h in range(n + 1):
                T = S.zero_head(h)
                assert T.ambient == n - h
                assert set(T.vectors()) == {v[h:] for v in vecs
                                            if not any(v[:h])}
