import random
from fractions import Fraction

import pytest

from rankcov.ambient import mat_index
from rankcov.gfield import add_index, digits, field_from_order, make_field
from rankcov.matlin import (Mat, enumerate_subspaces, random_matrix, rank,
                            rank_of_index)
from rankcov import ambient, codes
from rankcov.codes import GuardExceeded, RankCode
from rankcov.construct import random_code, random_linear_code
from rankcov.cosets import (annihilator, coset_profile, high_dim_section_count,
                            moebius_complete, verify_annihilator)
from rankcov.qcomb import gaussian_binomial
from rankcov.reference import example_3x3

F2 = make_field(2)


def _brute_profile(C, X):
    W = [0] * (C.k + 1)
    for M in C.codewords():
        W[rank(M + X)] += 1
    return tuple(W)


def test_coset_profile_of_code_itself():
    C = example_3x3()
    P = coset_profile(C, Mat.zero(F2, 3, 3))
    assert P.W == tuple(C.weight_distribution())
    assert P.minweight == 0


def test_coset_profile_matches_brute_force():
    rng = random.Random(41)
    for _ in range(15):
        C = random_linear_code(F2, 3, 3, rng.randrange(0, 7), rng)
        X = random_matrix(F2, 3, 3, rng)
        P = coset_profile(C, X)
        assert P.W == _brute_profile(C, X)
        assert sum(P.W) == C.cardinality()


def test_coset_minweight_is_distance_to_code():
    rng = random.Random(42)
    C = example_3x3()
    for _ in range(10):
        X = random_matrix(F2, 3, 3, rng)
        P = coset_profile(C, X)
        direct = min(rank(M - X) for M in C.codewords())
        assert P.minweight == direct


def test_coset_profile_dimension_mismatch():
    with pytest.raises(ValueError):
        coset_profile(example_3x3(), Mat.zero(F2, 2, 3))


def test_coset_profile_guard_raises_guard_exceeded(monkeypatch):
    C = example_3x3()  # 16 codewords
    X = Mat.zero(F2, 3, 3)
    monkeypatch.setattr(codes, "ENUM_GUARD", 8)
    with pytest.raises(GuardExceeded):
        coset_profile(C, X)
    monkeypatch.setattr(codes, "ENUM_GUARD", 16)
    assert coset_profile(C, X).W == tuple(C.weight_distribution())


def test_coset_profile_above_table_cap_builds_no_table():
    # 2^21 ambient matrices: translates never read a q^(km)-byte table
    C = random_linear_code(F2, 3, 7, 3, 44)
    X = random_matrix(F2, 3, 7, random.Random(45))
    assert not C.contains(X)  # a proper translate
    assert coset_profile(C, X).W == _brute_profile(C, X)


def _indexed_profile(C, x):
    """W(C+X), X indexed by x, from the listed words ranked one by one."""
    rank_at = rank_of_index(C.field, C.k, C.m)
    W = [0] * (C.k + 1)
    for w in C.word_indices():
        W[rank_at(add_index(C.field, w, x))] += 1
    return W


@pytest.mark.parametrize("q, k, m, dim", ((4, 3, 4, 3), (2, 3, 7, 17)))
def test_translates_above_table_cap_match_the_listed_words(q, k, m, dim):
    # 4^12 and 2^21 matrices; the GF(2) code's 17 basis vectors fill two
    # chunks of 2^16 lanes, each with its own constant
    F = field_from_order(q)
    rng = random.Random(45)
    C = random_linear_code(F, k, m, dim, rng)
    inside = mat_index(next(M for M in C.codewords() if not M.is_zero()))
    xs = [0, inside, mat_index(random_matrix(F, k, m, rng))]
    assert C.translate_weights(xs) == [_indexed_profile(C, x) for x in xs]


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 9))
def test_translates_agree_on_both_sides_of_the_table_cap(q, table_profile):
    # lanes (p <= 3) or one word at a time (p >= 5) against the rank
    # table, read directly, and the listed words, for linear codes and sets
    F = field_from_order(q)
    rng = random.Random(46)
    k, m = (2, 2) if q >= 5 else (2, 3)
    xs = [0] + [rng.randrange(q ** (k * m)) for _ in range(4)]
    cs = [random_linear_code(F, k, m, dim, rng) for dim in (0, 2, k * m)]
    cs += [random_code(F, k, m, size, rng) for size in (1, 7)]
    got = [C.translate_weights(xs) for C in cs]
    assert got == [[_indexed_profile(C, x) for x in xs] for C in cs]
    assert got == [[table_profile(C, x) for x in xs] for C in cs]


@pytest.mark.parametrize("q", (2, 3, 5))
def test_translate_indices_outside_the_ambient_space_are_refused(q):
    # q^(km) before -1: without the check, -1 never ends for odd p
    F = field_from_order(q)
    rng = random.Random(47)
    N = q ** 4
    for C in (random_linear_code(F, 2, 2, 2, rng),
              random_code(F, 2, 2, 3, rng)):
        for x in (N, -1):
            with pytest.raises(ValueError, match="outside"):
                C.translate_weights([0, x])
        assert C.translate_weights([N - 1]) == [_indexed_profile(C, N - 1)]


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 9))
def test_coset_weights_match_the_table(q, table_profile, monkeypatch):
    # every translate C + X, X in a subspace R of the complementary
    # dimension (it may meet C), against the rank table: one lane pass
    # split |C| lanes a translate (p <= 3) or each line's weights copied to
    # its multiples (p >= 5); 8- or 3-lane chunks split translates too
    F = field_from_order(q)
    rng = random.Random(48)
    k, m = (2, 2) if q > 3 else (2, 3)
    for dim in (0, 1, 2, k * m):
        C = random_linear_code(F, k, m, dim, rng)
        R = random_linear_code(F, k, m, k * m - dim, rng).span
        expected = [tuple(table_profile(C, x)) for x in R.indices()]
        assert C.coset_weights(R) == expected
        if F.p <= 3:
            monkeypatch.setattr(ambient, "LANE_BITS", 3)
            assert C.coset_weights(R) == expected
            monkeypatch.undo()


def test_tables_and_weights_rank_through_translate_weights(monkeypatch):
    # translate_weights is the one pass: a p >= 5 table asks it once for
    # the line representatives (X = 0 and the X whose last nonzero digit
    # is 1), a p <= 3 table whose translates span lane chunks asks it for
    # every X and ranks no lanes itself, and a set's or a p <= 3 code's
    # weights ask it for the translate at 0
    calls, lane_calls, translate = [], [], RankCode.translate_weights

    def spy(self, xs):
        calls.append(list(xs))
        return translate(self, xs)

    def lane_spy(*args):
        lane_calls.append(args)
        return ambient.lane_ranks(*args)

    monkeypatch.setattr(RankCode, "translate_weights", spy)
    monkeypatch.setattr(codes, "lane_ranks", lane_spy)
    rng = random.Random(49)

    def table(q, k, m, dim):
        F = field_from_order(q)
        C = random_linear_code(F, k, m, dim, rng)
        R = random_linear_code(F, k, m, k * m - dim, rng).span
        calls.clear()
        C.coset_weights(R)
        return q, R.dim, R.indices()

    for shape in ((5, 2, 2, 1), (7, 2, 2, 2)):
        q, f, xs = table(*shape)
        reps = [x for j, x in enumerate(xs) if j == 0 or
                next(d for d in reversed(digits(j, q, f)) if d) == 1]
        assert len(reps) == 1 + (q ** f - 1) // (q - 1)
        assert calls == [reps]
    for C in (random_code(field_from_order(5), 2, 2, 6, rng),
              random_linear_code(F2, 3, 3, 4, rng),
              random_linear_code(field_from_order(3), 2, 3, 3, rng)):
        calls.clear()
        C._enumerated_weights()
        assert calls == [[0]]
    monkeypatch.setattr(ambient, "LANE_BITS", 3)  # 8- or 3-lane chunks
    for shape in ((2, 2, 3, 4), (3, 2, 3, 2)):
        xs = table(*shape)[2]
        assert calls == [xs] and not lane_calls


def test_section_count_matches_filter():
    # every subspace U, with X zero, a nonzero codeword and outside C
    rng = random.Random(43)
    sections = empty = 0
    for q, k, m, dim in ((2, 3, 3, 4), (3, 2, 2, 2), (4, 2, 2, 2)):
        F = field_from_order(q)
        C = random_linear_code(F, k, m, dim, rng)
        words = list(C.codewords())
        outside = random_matrix(F, k, m, rng)
        while C.contains(outside):
            outside = random_matrix(F, k, m, rng)
        for X in (words[0], words[1], outside):
            for u in range(k + 1):
                for U in enumerate_subspaces(F, k, u):
                    n = high_dim_section_count(C, X, U)
                    brute = sum(1 for M in words
                                if all(U.contains((M + X).col(j))
                                       for j in range(m)))
                    assert n == brute
                    sections += 1
                    empty += brute == 0
    assert sections == 3 * (16 + 6 + 7) and 0 < empty < sections


def test_section_counts_above_dual_distance_are_translate_invariant():
    # for dim U = u > k - d_perp: |(C+X)(U)| = |C| / q^{m(k-u)}
    rng = random.Random(44)
    for _ in range(5):
        C = random_linear_code(F2, 3, 3, rng.randrange(1, 8), rng)
        d_perp = C.dual().min_distance()
        X = random_matrix(F2, 3, 3, rng)
        for u in range(3 - d_perp + 1, 4):
            expected = Fraction(C.cardinality(), 2 ** (3 * (3 - u)))
            assert expected.denominator == 1
            for U in enumerate_subspaces(F2, 3, u):
                assert high_dim_section_count(C, X, U) == expected


def test_moebius_complete_recovers_full_distribution():
    rng = random.Random(45)
    checked = 0
    while checked < 40:
        C = random_linear_code(F2, 3, 3, rng.randrange(1, 9), rng)
        d_perp = C.dual().min_distance()
        X = random_matrix(F2, 3, 3, rng)
        W = _brute_profile(C, X)
        got = moebius_complete(2, 3, 3, C.cardinality(), d_perp,
                               W[: 3 - d_perp + 1])
        assert tuple(got) == W
        checked += 1


def _moebius_complete_in_fractions(q, k, m, codesize, d_perp, prefix):
    """The completion term by term in Fractions, T_u unscaled; None when a
    tail entry is not an integer."""
    T = []
    for u in range(k + 1):
        if u <= k - d_perp:
            T.append(Fraction(sum(prefix[j] * gaussian_binomial(k - j, u - j, q)
                                  for j in range(u + 1))))
        else:
            T.append(gaussian_binomial(k, u, q)
                     * Fraction(codesize, q ** (m * (k - u))))
    out = list(prefix)
    for i in range(k - d_perp + 1, k + 1):
        acc = sum((-1) ** (i - u) * q ** ((i - u) * (i - u - 1) // 2)
                  * gaussian_binomial(k - u, i - u, q) * T[u]
                  for u in range(i + 1))
        if acc.denominator != 1:
            return None
        out.append(int(acc))
    return out


@pytest.mark.parametrize("q,k,m", [(2, 2, 3), (2, 3, 3), (3, 2, 2),
                                   (3, 2, 3), (4, 2, 2)])
def test_moebius_complete_matches_fraction_formula(q, k, m):
    F = field_from_order(q)
    rng = random.Random(100 * q + 10 * k + m)
    for _ in range(12):
        C = random_linear_code(F, k, m, rng.randrange(1, k * m), rng)
        d_perp = C.dual().min_distance()
        W = coset_profile(C, random_matrix(F, k, m, rng)).W
        prefix = list(W[: k - d_perp + 1])
        got = moebius_complete(q, k, m, C.cardinality(), d_perp, prefix)
        assert tuple(got) == W
        assert got == _moebius_complete_in_fractions(
            q, k, m, C.cardinality(), d_perp, prefix)
        prefix[-1] += 1  # integral still, but no translate's
        assert moebius_complete(q, k, m, C.cardinality(), d_perp, prefix) \
            == _moebius_complete_in_fractions(q, k, m, C.cardinality(),
                                              d_perp, prefix)


def test_moebius_complete_rejects_a_fractional_tail():
    # |C| = 3 is no power of 2: T_1 = 9/4 leaves a remainder in W_1
    assert _moebius_complete_in_fractions(2, 2, 2, 3, 2, [1]) is None
    with pytest.raises(ArithmeticError, match="non-integer weight"):
        moebius_complete(2, 2, 2, 3, 2, [1])


def test_moebius_complete_input_validation():
    with pytest.raises(ValueError):
        moebius_complete(2, 3, 3, 16, 1, [1, 0])  # wrong prefix length
    with pytest.raises(ValueError):
        moebius_complete(2, 3, 3, 16, 4, [])
    with pytest.raises(ValueError):
        moebius_complete(2, 3, 3, 16, 1, [1, -1, 0])


def test_moebius_complete_perturbed_prefix_changes_tail():
    C = example_3x3()
    d_perp = C.dual().min_distance()
    W = tuple(C.weight_distribution())
    bad = list(W[: 3 - d_perp + 1])
    bad[0] += 1
    got = moebius_complete(2, 3, 3, C.cardinality(), d_perp, bad)
    assert tuple(got) != W


def test_annihilator_of_worked_example():
    C = example_3x3()
    poly = annihilator(C)
    assert poly.sigma_star == 3
    assert poly.roots == (1, 2, 3)
    # evaluates to 0 on every root and to q^{km}/|C| at 0
    for b in poly.roots:
        assert poly.evaluate(b) == 0
    assert poly.evaluate(0) == Fraction(2 ** 9, 16)


def test_annihilator_undefined_for_full_space():
    with pytest.raises(ValueError):
        annihilator(RankCode.full_space(F2, 2, 2))


def test_annihilator_identity_on_translates():
    rng = random.Random(46)
    for _ in range(10):
        C = random_linear_code(F2, 2, 3, rng.randrange(1, 6), rng)
        for _ in range(10):
            X = random_matrix(F2, 2, 3, rng)
            assert verify_annihilator(C, X) == 1


def test_annihilator_identity_needs_j0_for_codewords():
    # dropping the j = 0 term breaks the identity exactly on codewords
    C = RankCode.zero_code(F2, 1, 1)
    poly = annihilator(C)
    X = Mat.zero(F2, 1, 1)
    full = verify_annihilator(C, X)
    assert full == 1
    W = coset_profile(C, X).W
    truncated = sum(poly.coeffs[j] * W[j]
                    for j in range(1, poly.sigma_star + 1))
    assert truncated != 1


def test_gaussian_binomial_consistency_of_t_values():
    # T_u built from a genuine prefix agrees with the invariant formula
    # at the crossover dimension, for the worked example
    C = example_3x3()
    d_perp = C.dual().min_distance()
    u = 3 - d_perp + 1
    X = Mat.zero(F2, 3, 3)
    total = sum(high_dim_section_count(C, X, U)
                for U in enumerate_subspaces(F2, 3, u))
    assert total == gaussian_binomial(3, u, 2) * C.cardinality() // 2 ** (3 * (3 - u))
