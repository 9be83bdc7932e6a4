"""The index-native codeword pass against the Mat path.

Codewords are enumerated as ambient indices and their ranks read from
``matlin.rank_of_index`` or, in characteristic 2 and 3, counted
lane-parallel by ``ambient.rank_counts``; here every result is compared
with the same quantity computed on ``Mat`` objects: the span expanded by
matrix addition, and ranks from ``matlin.rank`` and from the RREF pivot
count.
"""

import gc
import random

import pytest

from rankcov import codes
from rankcov.ambient import index_to_mat, mat_index, rank_counts
from rankcov.codes import GuardExceeded, RankCode
from rankcov.construct import random_code, random_linear_code
from rankcov.covering import external_distance
from rankcov.gfield import field_from_order
from rankcov.matlin import Mat, Subspace, rank, rank_of_index
from rankcov.qcomb import (build_table, dual_weight_distribution,
                           rank_sphere_size)

FIELDS = (2, 3, 4, 5, 8, 9)

# every shape k <= m with q^(km) <= 2^12, k = 1 and k = m included
INDEX_SHAPES = [(q, k, m) for q in FIELDS
                for k in range(1, 13) for m in range(k, 13)
                if q ** (k * m) <= 1 << 12]


def rref_rank(M):
    """Pivot count of the RREF, independent of the rank kernels."""
    return Subspace(M.field, M.m, M.rows()).dim


def mat_expansion(C):
    """A linear code's span, expanded on Mat objects basis by basis."""
    F = C.field
    words = [Mat.zero(F, C.k, C.m)]
    for B in C.basis:
        words += [w + B.scale(c) for c in range(1, F.q) for w in words]
    return words


def linear_codes(q):
    """Seeded random linear codes plus the zero code and the full space."""
    F = field_from_order(q)
    rng = random.Random(q)
    out = [RankCode.zero_code(F, 2, 3), RankCode.full_space(F, 1, 2)]
    if q ** 4 <= 1 << 10:
        out.append(RankCode.full_space(F, 2, 2))
    for k, m in ((1, 3), (2, 2), (2, 3)):
        for dim in range(1, k * m):
            if q ** dim <= 1 << 10:
                out.append(random_linear_code(F, k, m, dim, rng))
    return out


def explicit_codes(q):
    F = field_from_order(q)
    rng = random.Random(100 + q)
    return [random_code(F, k, m, size, rng)
            for k, m in ((1, 3), (2, 2), (2, 3)) for size in (2, 5, 8)]


@pytest.mark.parametrize("q", FIELDS)
def test_word_indices_match_mat_expansion(q):
    for C in linear_codes(q):
        idx = C.word_indices()
        assert len(idx) == C.cardinality()
        assert idx == [mat_index(M) for M in mat_expansion(C)]
        assert list(C.codewords()) == [index_to_mat(C.field, C.k, C.m, i)
                                       for i in idx]
    for C in explicit_codes(q):
        assert C.word_indices() == [mat_index(M) for M in C.words]


@pytest.mark.parametrize("q", FIELDS)
def test_weight_distribution_matches_rank(q):
    for C in linear_codes(q) + explicit_codes(q):
        words = mat_expansion(C) if C.linear else C.words
        W = [0] * (C.k + 1)
        for M in words:
            assert rank(M) == rref_rank(M)
            W[rank(M)] += 1
        assert C.weight_distribution() == W
        if C.linear and C.cardinality() > 1:
            assert C.min_distance() == next(i for i in range(1, C.k + 1)
                                            if W[i])


@pytest.mark.parametrize("q", FIELDS)
def test_pair_distribution_matches_rank_of_differences(q):
    for C in explicit_codes(q):
        n = len(C.words)
        B = [0] * (C.k + 1)
        for a in C.words:
            for b in C.words:
                assert rank(a - b) == rref_rank(a - b)
                B[rank(a - b)] += 1
        assert [x * n for x in C.distance_distribution()] == B
        assert C.min_distance() == next(i for i in range(1, C.k + 1) if B[i])


@pytest.mark.parametrize("q,k,m", INDEX_SHAPES)
def test_rank_of_index_matches_rank_on_every_index(q, k, m):
    F = field_from_order(q)
    rank_at = rank_of_index(F, k, m)
    mats = [index_to_mat(F, k, m, idx) for idx in range(q ** (k * m))]
    assert [rank_at(idx) for idx in range(q ** (k * m))] \
        == [rank(M) for M in mats] == [rref_rank(M) for M in mats]


@pytest.mark.parametrize("q", [1031, 2048])
def test_rank_of_index_without_field_tables(q):
    F = field_from_order(q)
    assert F._mul_table is None  # above order 1024: F.mul / F.inv compute
    rng = random.Random(q)
    k, m = 2, 3
    rank_at = rank_of_index(F, k, m)
    for r in (0, 1, 2, 2, 2):
        M = Mat.zero(F, k, m)
        for _ in range(r):  # a sum of r rank-one matrices
            A = Mat(F, k, 1, [rng.randrange(q) for _ in range(k)])
            B = Mat(F, 1, m, [rng.randrange(q) for _ in range(m)])
            M = M + A @ B
        assert rank_at(mat_index(M)) == rank(M) == rref_rank(M)


def test_set_invariants_share_one_pair_pass(monkeypatch):
    calls = []

    def counting(field, k, m):
        inner = rank_of_index(field, k, m)
        return lambda idx: calls.append(idx) or inner(idx)

    monkeypatch.setattr(codes, "rank_of_index", counting)
    C = random_code(field_from_order(5), 2, 3, 9, 5)
    C.min_distance()
    C.distance_distribution()
    external_distance(C)
    assert len(calls) == 9 * 8 // 2


def test_ternary_set_invariants_share_one_lane_pass(monkeypatch):
    passes = []

    def counting_lanes(field, k, m, planes, lanes):
        passes.append(lanes)
        return rank_counts(field, k, m, planes, lanes)

    monkeypatch.setattr(codes, "rank_counts", counting_lanes)
    monkeypatch.setattr(codes, "rank_of_index", None)  # no per-word rank
    C = random_code(field_from_order(3), 2, 3, 9, 5)
    C.min_distance()
    C.distance_distribution()
    external_distance(C)
    assert passes == [9 * 9]  # every ordered pair, in one pass


def test_odd_set_weights_and_pairs_build_no_rank_table(monkeypatch):
    # a set's own pass ranks its words and pairs one by one; only
    # translates read the q^(km)-byte table
    def no_table(*args):
        raise AssertionError("rank table built for a set's own pass")

    monkeypatch.setattr(codes, "rank_table", no_table)
    C = random_code(field_from_order(3), 2, 3, 9, 5)
    W = [0] * 3
    for M in C.words:
        W[rank(M)] += 1
    assert C.weight_distribution() == W
    P = [0] * 3
    for M in C.words:
        for N in C.words:
            P[rank(M - N)] += 1
    assert C.distance_counts() == P


def test_set_pairs_are_ranked_once_behind_one_guard(monkeypatch):
    def six_words():  # 15 unordered pairs
        return random_code(field_from_order(2), 2, 3, 6, 1)
    d, B = six_words().min_distance(), six_words().distance_distribution()
    for call, value in ((RankCode.min_distance, d),
                        (RankCode.distance_distribution, B)):
        C = six_words()
        monkeypatch.setattr(codes, "ENUM_GUARD", 14)
        with pytest.raises(GuardExceeded, match="^too many codeword pairs$"):
            call(C)
        monkeypatch.setattr(codes, "ENUM_GUARD", 15)
        assert call(C) == value
        # once ranked, the pairs serve both calls whatever the guard
        monkeypatch.setattr(codes, "ENUM_GUARD", 14)
        assert (C.min_distance(), C.distance_distribution()) == (d, B)


def test_dual_is_computed_once():
    C = random_linear_code(field_from_order(4), 2, 3, 2, 7)
    assert C.dual() is C.dual()


def test_min_distance_of_full_space_enumerates_nothing():
    F = field_from_order(4)
    C = RankCode.full_space(F, 5, 5)  # 4^25 words, far beyond the guard
    assert C.min_distance() == 1
    # the transform of the distribution of the one-word dual
    assert C.weight_distribution() == [rank_sphere_size(i, 5, 5, 4)
                                       for i in range(6)]


# -- the smaller side of the MacWilliams pair --

# shapes whose ambient has at most 2^12 matrices, so both C and its dual
# can be enumerated directly; k = 1 and k = m included
PAIR_SHAPES = {2: ((1, 4), (2, 2), (2, 5), (3, 3), (3, 4)),
               3: ((1, 3), (2, 2), (2, 3), (1, 7)),
               4: ((1, 3), (2, 2), (2, 3)),
               5: ((1, 2), (2, 2), (1, 5)),
               8: ((1, 2), (2, 2), (1, 4)),
               9: ((1, 3), (2, 2))}


def pair_codes(q):
    """Per shape: the zero code, the full space and seeded random linear
    codes of every other dimension (two of each where the space allows)."""
    F = field_from_order(q)
    rng = random.Random(1000 + q)
    for k, m in PAIR_SHAPES[q]:
        yield RankCode.zero_code(F, k, m)
        yield RankCode.full_space(F, k, m)
        for dim in range(1, k * m):
            for _ in range(2 if k * m <= 6 else 1):
                yield random_linear_code(F, k, m, dim, rng)


def enumerated_weights(C):
    """W of C from every word's rank: no projective shortcut, no transform."""
    rank_at = rank_of_index(C.field, C.k, C.m)
    W = [0] * (C.k + 1)
    for w in C.word_indices():
        W[rank_at(w)] += 1
    return W


def fresh(C):
    """An equal code with nothing computed yet."""
    return RankCode.from_generators(C.field, C.k, C.m, list(C.basis))


@pytest.mark.parametrize("q", FIELDS)
def test_pair_distributions_match_enumeration_in_every_call_order(q):
    for C in pair_codes(q):
        W = enumerated_weights(C)
        WD = enumerated_weights(fresh(C).dual())
        A = fresh(C)  # the code's distribution first, then the dual's
        assert A.weight_distribution() == W
        assert A.dual().weight_distribution() == WD
        B = fresh(C)  # the dual built first
        D = B.dual()
        assert B.weight_distribution() == W
        assert D.weight_distribution() == WD
        E = fresh(C)  # the dual's distribution first
        assert E.dual().weight_distribution() == WD
        assert E.weight_distribution() == W
        if C.cardinality() > 1:
            assert fresh(C).min_distance() == next(
                i for i in range(1, C.k + 1) if W[i])


def count_ranked_words(monkeypatch):
    """A list that grows by one per word whose rank a codeword pass
    evaluates: per call of a ``rank_of_index`` kernel and per lane handed
    to ``rank_counts``."""
    calls = []

    def counting(field, k, m):
        inner = rank_of_index(field, k, m)
        return lambda idx: calls.append(idx) or inner(idx)

    def counting_lanes(field, k, m, planes, lanes):
        calls.extend(range(lanes))
        return rank_counts(field, k, m, planes, lanes)

    monkeypatch.setattr(codes, "rank_of_index", counting)
    monkeypatch.setattr(codes, "rank_counts", counting_lanes)
    return calls


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_pair_enumerates_only_the_smaller_side(q, monkeypatch):
    calls = count_ranked_words(monkeypatch)
    for C in pair_codes(q):
        for dual_first in (False, True):
            A = fresh(C)
            if dual_first:
                A.dual()
            calls.clear()
            A.weight_distribution()
            A.dual().weight_distribution()
            external_distance(A)
            small = min(A.cardinality(), A.dual().cardinality())
            if A.field.p >= 5:  # the projective words
                assert len(calls) == (small - 1) // (q - 1)
            else:  # every word is a lane
                assert len(calls) == small


def test_a_dual_that_knows_its_distribution_is_not_re_enumerated(monkeypatch):
    calls = count_ranked_words(monkeypatch)
    C = random_linear_code(field_from_order(2), 3, 4, 4, random.Random(4))
    W, WD = enumerated_weights(C), enumerated_weights(fresh(C).dual())
    for dual_first in (False, True):
        A = fresh(C)
        D = A.dual()
        counts = []
        for X in ((D, A) if dual_first else (A, D)):
            calls.clear()
            assert X.weight_distribution() == (W if X is A else WD)
            counts.append(len(calls))
        assert counts == [16, 0]  # the 16 lanes of the 16-word C


def test_guard_counts_the_enumerated_side(monkeypatch):
    F = field_from_order(2)
    C = random_linear_code(F, 3, 4, 10, random.Random(5))  # dual: 4 words
    W = enumerated_weights(C)  # lists all 1024 words, so before the patch
    monkeypatch.setattr(codes, "ENUM_GUARD", 4)
    assert fresh(C).weight_distribution() == W
    monkeypatch.setattr(codes, "ENUM_GUARD", 3)
    with pytest.raises(GuardExceeded,
                       match="^dual code has 4 words, guard is 3$"):
        fresh(C).weight_distribution()
    with pytest.raises(GuardExceeded, match="code has 4 words, guard is 3"):
        fresh(C).dual().weight_distribution()


def test_dual_weight_distribution_rejects_fractions():
    T = build_table(2, 2, 2)
    assert dual_weight_distribution([1, 0, 0], 1, T) == [1, 9, 6]
    with pytest.raises(ArithmeticError, match="not integral"):
        dual_weight_distribution([1, 0, 0], 3, T)  # 1/3 is not a count
    with pytest.raises(ArithmeticError, match="not integral"):
        dual_weight_distribution([1, 2, 0], 2, build_table(2, 3, 2))


def _rank_codes_left_for_gc(build):
    """The RankCode objects that only the cyclic collector would free
    after build() returns: every object gc finds unreachable is kept in
    gc.garbage instead of freed."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build()
        gc.collect()
        return [o for o in gc.garbage if isinstance(o, RankCode)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_code_and_dual_form_no_reference_cycle():
    F = field_from_order(3)

    def read_both(dim, dual_first):
        C = random_linear_code(F, 2, 3, dim, random.Random(dim))
        if dual_first:
            C.dual().min_distance()
        C.weight_distribution()
        C.dual().weight_distribution()
        external_distance(C)
        C.is_dually_QMRD()

    for dim in (1, 3, 5):
        for dual_first in (False, True):
            assert _rank_codes_left_for_gc(
                lambda: read_both(dim, dual_first)) == []
