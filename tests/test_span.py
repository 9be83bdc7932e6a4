"""A linear code is its span: the RREF Subspace of F_q^(km).

The oracles below are the direct constructions: the null space as a
fresh row reduction followed by the read-off, and the dual as that null
space of the stacked basis, re-reduced by from_generators.
"""

import random

import pytest

from rankcov.ambient import index_to_mat
from rankcov.cli import serialize
from rankcov.codes import RankCode
from rankcov.construct import random_linear_code
from rankcov.gfield import field_from_order
from rankcov.matlin import (Mat, Subspace, devectorize, kernel,
                            random_invertible, random_matrix, trace_inner)

FIELDS = (2, 3, 4, 5, 8, 9, 16)


def kernel_by_rref(M):
    """Right null space of M: row-reduce M, then one vector per free
    column f, e_f minus the reduced rows' entries at f."""
    F = M.field
    R = Subspace(F, M.m, M.rows())
    rows, pivots = R.basis, R.pivots
    basis = []
    for f in range(M.m):
        if f not in pivots:
            v = [0] * M.m
            v[f] = 1
            for row, p in zip(rows, pivots):
                v[p] = F.neg(row[f])
            basis.append(v)
    return Subspace(F, M.m, basis)


def dual_by_kernel(C):
    """The null space of the stacked vectorized basis, as generators."""
    F, k, m = C.field, C.k, C.m
    n = k * m
    if not C.basis:
        units = [devectorize(F, [int(s == t) for s in range(n)], k, m)
                 for t in range(n)]
        return RankCode.from_generators(F, k, m, units)
    gen = Mat(F, len(C.basis), n, [x for B in C.basis for x in B.entries])
    return RankCode.from_generators(
        F, k, m, [devectorize(F, v, k, m) for v in kernel_by_rref(gen).basis])


def kernel_cases(q):
    F = field_from_order(q)
    rng = random.Random(q)
    for k, m in ((1, 4), (2, 5), (3, 3), (4, 6), (5, 3)):
        yield Mat.zero(F, k, m)
        for _ in range(3):
            yield random_matrix(F, k, m, rng)
    for k in (1, 2, 4):
        A = random_invertible(F, k, rng)
        yield A  # full rank, trivial kernel
        yield Mat.from_rows(F, [r + r for r in A.rows()])  # full row rank


@pytest.mark.parametrize("q", FIELDS)
def test_kernel_matches_rref_read_off(q):
    for M in kernel_cases(q):
        K = kernel(M)
        assert K == kernel_by_rref(M)
        for v in K.basis:
            assert (M @ Mat(M.field, M.m, 1, v)).is_zero()


def span_cases(q):
    """Zero code, full space and seeded random codes of shapes 1x3, 2x2
    (k = m) and 2x3."""
    F = field_from_order(q)
    rng = random.Random(10 + q)
    yield RankCode.zero_code(F, 2, 3)
    yield RankCode.full_space(F, 2, 3)
    for k, m in ((1, 3), (2, 2), (2, 3)):
        for dim in range(1, k * m):
            yield random_linear_code(F, k, m, dim, rng)


@pytest.mark.parametrize("q", FIELDS)
def test_dual_matches_the_null_space_of_the_basis(q):
    for C in span_cases(q):
        D = C.dual()
        expected = dual_by_kernel(C)
        assert D == expected
        assert serialize(D) == serialize(expected)
        assert D.dual() == C
        assert C.dim + D.dim == C.k * C.m
        for B in C.basis:
            for E in D.basis:
                assert trace_inner(B, E) == 0


@pytest.mark.parametrize("q", FIELDS)
def test_span_pivots_are_the_basis_leading_entries(q):
    for C in span_cases(q):
        assert C.span.pivots == tuple(
            next(t for t, x in enumerate(B.entries) if x) for B in C.basis)
        assert C.span.basis == tuple(B.entries for B in C.basis)


@pytest.mark.parametrize("q", FIELDS)
def test_membership_matches_the_codeword_list(q):
    for C in span_cases(q):
        if q ** (C.k * C.m) > 1 << 12:
            continue
        words = set(C.word_indices())
        for idx in range(q ** (C.k * C.m)):
            X = index_to_mat(C.field, C.k, C.m, idx)
            assert C.contains(X) == (idx in words)
