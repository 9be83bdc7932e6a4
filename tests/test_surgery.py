import random

import pytest

from rankcov.gfield import field_from_order, make_field
from rankcov.matlin import Mat, Subspace, invert, random_invertible, rank
from rankcov.codes import RankCode
from rankcov.construct import random_code, random_linear_code
from rankcov.surgery import left_mul, puncture, shorten
from rankcov.reference import example_3x3

F2 = make_field(2)
F3 = make_field(3)


def _transpose_inverse(A):
    return invert(A.transpose())


def test_left_mul_is_an_isometry():
    rng = random.Random(31)
    C = example_3x3()
    A = random_invertible(F2, 3, rng)
    P = left_mul(A, C)
    assert P.dim == C.dim
    assert P.min_distance() == C.min_distance()
    expect = {(A @ M).entries for M in C.codewords()}
    assert {M.entries for M in P.codewords()} == expect


def test_puncture_shrinks_row_count():
    C = example_3x3()
    A = Mat.identity(F2, 3)
    P = puncture(C, A, 1)
    assert (P.k, P.m) == (2, 3)
    # projection of the span of the punctured generators
    for M in C.basis:
        assert P.contains(Mat(F2, 2, 3, M.entries[3:]))


def test_puncture_rejects_bad_arguments():
    C = example_3x3()
    with pytest.raises(ValueError):
        puncture(C, Mat.identity(F2, 2), 1)  # wrong size A
    with pytest.raises(ValueError):
        puncture(C, Mat.zero(F2, 3, 3), 1)  # singular A
    with pytest.raises(ValueError):
        puncture(C, Mat.identity(F2, 3), 3)  # u = k


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_shorten_is_subcode_projection(q):
    F = field_from_order(q)
    rng = random.Random(32)
    for _ in range(10 if q < 5 else 4):
        C = random_linear_code(F, 3, 3, rng.randrange(1, 8 if q < 5 else 4),
                               rng)
        A = random_invertible(F, 3, rng)
        u = rng.randrange(1, 3)
        S = shorten(C, A, u)
        # every shortened word lifts to a word of AC with zero top rows
        lifted = set()
        for M in C.codewords():
            T = A @ M
            if all(x == 0 for x in T.entries[:3 * u]):
                lifted.add(T.entries[3 * u:])
        got = {M.entries for M in S.codewords()}
        assert got == lifted
        # the kept rows are already the canonical RREF of the subcode
        R = Subspace(F, S.k * 3, S.span.basis)
        assert (S.span.rows, S.span.pivots) == (R.rows, R.pivots)


def test_duality_theorem_worked_example():
    # Pi(C, A, u)^perp == Sigma(C^perp, (A^t)^{-1}, u)
    C = example_3x3()
    A = Mat.identity(F2, 3)
    for u in (1, 2):
        lhs = puncture(C, A, u).dual()
        rhs = shorten(C.dual(), _transpose_inverse(A), u)
        assert lhs == rhs


@pytest.mark.parametrize("field,k,m", [(F2, 3, 3), (F3, 2, 3)])
def test_duality_theorem_random_sweep(field, k, m):
    rng = random.Random(33)
    for _ in range(30):
        C = random_linear_code(field, k, m, rng.randrange(0, k * m + 1), rng)
        A = random_invertible(field, k, rng)
        u = rng.randrange(1, k)
        lhs = puncture(C, A, u).dual()
        rhs = shorten(C.dual(), _transpose_inverse(A), u)
        assert lhs == rhs


def test_puncture_nonlinear_dedupes():
    rng = random.Random(34)
    C = random_code(F2, 2, 2, 6, rng)
    A = random_invertible(F2, 2, rng)
    P = puncture(C, A, 1)
    expect = {(A @ M).entries[2:] for M in C.words}
    assert {M.entries for M in P.words} == expect
    assert P.cardinality() == len(expect)


def test_puncture_of_mrd_stays_mrd():
    from rankcov.reference import example_mrd_4x4
    rng = random.Random(35)
    C = example_mrd_4x4()
    for _ in range(5):
        A = random_invertible(F2, 4, rng)
        u = rng.randrange(1, 3)
        P = puncture(C, A, u)
        assert P.is_MRD()


def _words(C):
    return sorted(M.entries for M in C.codewords())


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_set_surgery_matches_the_linear_code_with_the_same_words(q):
    F = field_from_order(q)
    rng = random.Random(36)
    for k, m, dim in ((2, 2, 0), (2, 3, 2), (3, 3, 2)):
        C = random_linear_code(F, k, m, dim, rng)
        S = RankCode.from_codewords(F, k, m, list(C.codewords()))
        A = random_invertible(F, k, rng)
        assert _words(left_mul(A, S)) == _words(left_mul(A, C))
        for u in range(1, k):
            assert _words(puncture(S, A, u)) == _words(puncture(C, A, u))
            assert _words(shorten(S, A, u)) == _words(shorten(C, A, u))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_set_surgery_of_nonlinear_sets_matches_direct_projection(q):
    F = field_from_order(q)
    rng = random.Random(37)
    k, m = 3, 3
    zero = Mat.zero(F, k, m)
    for size in (2, 5, 11):
        C = random_code(F, k, m, size, rng)
        words = [M for M in C.words if not M.is_zero()]
        C = RankCode.from_codewords(F, k, m, words + [zero])
        span = RankCode.from_generators(F, k, m, words)
        assert span.cardinality() > C.cardinality()  # not linear
        A = random_invertible(F, k, rng)
        rows = [(A @ M).rows() for M in C.words]
        assert _words(left_mul(A, C)) == sorted(sum(r, ()) for r in rows)
        for u in range(1, k):
            assert _words(puncture(C, A, u)) == sorted(
                {sum(r[u:], ()) for r in rows})
            assert _words(shorten(C, A, u)) == sorted(
                sum(r[u:], ()) for r in rows if not any(map(any, r[:u])))
        with pytest.raises(ValueError, match="requires 0 to be a codeword"):
            shorten(RankCode.from_codewords(F, k, m, words), A, 1)
