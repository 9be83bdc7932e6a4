import random
from fractions import Fraction

import pytest

from rankcov.gfield import field_from_order, make_field
from rankcov.matlin import Mat, enumerate_subspaces, rank
from rankcov.codes import RankCode
from rankcov.construct import random_code, random_linear_code
from rankcov.reference import (example_3x3, example_3x3_dual_members,
                               example_dqmrd_4x4, example_mrd_4x4)

F2 = make_field(2)
F3 = make_field(3)


def test_empty_generator_list_gives_zero_code():
    C = RankCode.from_generators(F2, 2, 3, [])
    assert C.cardinality() == 1
    assert C.contains(Mat.zero(F2, 2, 3))


def test_worked_3x3_code_parameters():
    C = example_3x3()
    assert C.dim == 4
    assert C.cardinality() == 16
    assert C.min_distance() == 2


def test_worked_mrd_code_parameters():
    C = example_mrd_4x4()
    assert C.dim == 4
    assert C.min_distance() == 4


def test_min_distance_simple_cases():
    full = RankCode.full_space(F2, 2, 2)
    assert full.min_distance() == 1
    C = RankCode.from_generators(F2, 3, 3, [Mat.identity(F2, 3)])
    assert C.min_distance() == 3


def test_min_distance_rejects_singleton():
    with pytest.raises(ValueError):
        RankCode.zero_code(F2, 2, 2).min_distance()


def test_k_le_m_enforced():
    with pytest.raises(ValueError):
        RankCode.zero_code(F2, 3, 2)


def test_k_at_least_1_enforced():
    with pytest.raises(ValueError, match="k must be at least 1, got 0"):
        RankCode.zero_code(F2, 0, 2)


def test_weight_distribution_zero_and_full():
    Z = RankCode.zero_code(F2, 2, 2)
    assert Z.weight_distribution() == [1, 0, 0]
    full = RankCode.full_space(F2, 2, 2)
    assert full.weight_distribution() == [1, 9, 6]


def test_distance_distribution_explicit_matches_pair_enumeration():
    rng = random.Random(21)
    for _ in range(10):
        C = random_code(F2, 2, 2, rng.randrange(2, 9), rng)
        B = C.distance_distribution()
        n = C.cardinality()
        oracle = [0] * 3
        for a in C.words:
            for b in C.words:
                oracle[rank(a - b)] += 1
        assert B == [Fraction(x, n) for x in oracle]
        assert sum(B) == n


def test_linear_weight_equals_distance_distribution():
    rng = random.Random(22)
    for _ in range(10):
        C = random_linear_code(F2, 2, 3, rng.randrange(0, 7), rng)
        assert C.distance_distribution() == \
            [Fraction(w) for w in C.weight_distribution()]


def test_dual_of_full_space_is_zero_code():
    full = RankCode.full_space(F2, 2, 2)
    assert full.dual() == RankCode.zero_code(F2, 2, 2)


def test_worked_3x3_dual_contains_listed_matrices():
    D = example_3x3().dual()
    members = example_3x3_dual_members()
    assert [rank(M) for M in members] == [1, 2, 3]
    for M in members:
        assert D.contains(M)


def test_dual_dimension_and_involution():
    rng = random.Random(23)
    for _ in range(15):
        C = random_linear_code(F2, 3, 3, rng.randrange(0, 10), rng)
        D = C.dual()
        assert D.dim == 9 - C.dim
        assert D.dual() == C


def test_dual_reverses_inclusion():
    rng = random.Random(24)
    for _ in range(10):
        C = random_linear_code(F2, 2, 3, 2, rng)
        gens = list(C.basis) + [random_linear_code(F2, 2, 3, 1, rng).basis[0]]
        D = RankCode.from_generators(F2, 2, 3, gens)
        assert all(D.contains(B) for B in C.basis)
        Dp, Cp = D.dual(), C.dual()
        assert all(Cp.contains(B) for B in Dp.basis)


def test_restrict_extremes():
    from rankcov.matlin import Subspace
    C = example_3x3()
    assert C.restrict(Subspace.full(F2, 3)) == C
    Z = C.restrict(Subspace.zero(F2, 3))
    assert Z.cardinality() == 1


def test_restrict_section_size_identity():
    # |C(U)| = |C| / q^{m(k-u)} * |C_perp(U_perp)| on random linear codes
    rng = random.Random(25)
    for _ in range(8):
        C = random_linear_code(F2, 3, 3, rng.randrange(1, 9), rng)
        D = C.dual()
        for u in range(4):
            for U in enumerate_subspaces(F2, 3, u):
                lhs = C.restrict(U).cardinality() * 2 ** (3 * (3 - u))
                rhs = C.cardinality() * D.restrict(U.orthogonal()).cardinality()
                assert lhs == rhs
        break  # one code with all U is plenty; the loop seeds more if needed


def test_restrict_linear_matches_filter():
    rng = random.Random(26)
    for _ in range(10):
        C = random_linear_code(F2, 3, 3, rng.randrange(0, 6), rng)
        U = next(enumerate_subspaces(F2, 3, rng.randrange(0, 4)))
        R = C.restrict(U)
        direct = {M.entries for M in C.codewords()
                  if all(U.contains(M.col(j)) for j in range(3))}
        assert {M.entries for M in R.codewords()} == direct


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_restrict_of_a_set_matches_a_column_space_filter(q):
    # colspace(M) <= U iff U's basis with M's columns still has rank dim U
    F = field_from_order(q)
    rng = random.Random(27)
    k, m = 2, 3
    L = random_linear_code(F, k, m, 3, rng)
    S = RankCode.from_codewords(F, k, m, list(L.codewords()))
    C = random_code(F, k, m, 12, rng)
    for u in range(k + 1):
        for U in enumerate_subspaces(F, k, u):
            def inside(M):
                return rank(Mat.from_rows(F, list(U.basis) + [
                    M.col(j) for j in range(m)])) == u

            assert (sorted(M.entries for M in S.restrict(U).words)
                    == sorted(M.entries for M in L.restrict(U).codewords())
                    == sorted(M.entries for M in L.codewords() if inside(M)))
            kept = [M.entries for M in C.words if inside(M)]  # set order
            if kept:
                assert [M.entries for M in C.restrict(U).words] == kept
            else:
                with pytest.raises(ValueError, match="is empty"):
                    C.restrict(U)


def test_is_mrd():
    assert example_mrd_4x4().is_MRD()
    assert RankCode.full_space(F2, 2, 2).is_MRD()
    assert not example_3x3().is_MRD()


def test_is_dually_qmrd():
    assert example_dqmrd_4x4().is_dually_QMRD()
    assert not example_mrd_4x4().is_dually_QMRD()  # dim 4 = m
    assert not RankCode.full_space(F2, 2, 2).is_dually_QMRD()


def test_singleton_bound():
    rng = random.Random(27)
    for _ in range(20):
        C = random_code(F2, 2, 3, rng.randrange(2, 12), rng)
        d = C.min_distance()
        assert C.cardinality() <= 2 ** (3 * (2 - d + 1))


def test_dually_qmrd_characterization():
    # for m not dividing dim: dually QMRD iff d + d_perp = k + 1
    rng = random.Random(28)
    seen_both = set()
    for _ in range(60):
        dim = rng.choice([1, 2, 4, 5])  # m = 3 never divides these
        C = random_linear_code(F2, 2, 3, dim, rng)
        lhs = C.is_dually_QMRD()
        rhs = C.min_distance() + C.dual().min_distance() == 3
        assert lhs == rhs
        seen_both.add(lhs)
    assert True in seen_both or False in seen_both


def test_explicit_code_rejects_duplicates():
    M = Mat.zero(F2, 2, 2)
    with pytest.raises(ValueError):
        RankCode.from_codewords(F2, 2, 2, [M, M])


def test_explicit_membership_binary_search():
    rng = random.Random(29)
    C = random_code(F2, 2, 3, 10, rng)
    for M in C.words:
        assert C.contains(M)
    from rankcov.ambient import index_to_mat, mat_index
    inside = {mat_index(M) for M in C.words}
    for idx in range(2 ** 6):
        assert C.contains(index_to_mat(F2, 2, 3, idx)) == (idx in inside)


def test_canonical_equality():
    g1 = [Mat.from_rows(F2, [[1, 0], [0, 1]]), Mat.from_rows(F2, [[1, 1], [0, 0]])]
    C1 = RankCode.from_generators(F2, 2, 2, g1)
    C2 = RankCode.from_generators(F2, 2, 2, [g1[0] + g1[1], g1[1], g1[0]])
    assert C1 == C2
