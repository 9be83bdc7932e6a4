import gc
import random

import pytest

from rankcov.gfield import make_field
from rankcov.matlin import Mat, random_matrix, rank
from rankcov import codes
from rankcov.codes import GuardExceeded, RankCode
from rankcov.construct import gabidulin, random_code, random_linear_code
from rankcov.covering import (LinePattern, bound_dual_distance,
                              bound_external, bound_initial_set,
                              bounds_report, covering_radius_exact,
                              initial_set, is_maximal, maximality_degree,
                              min_line_cover)
from rankcov.reference import example_3x3, example_dqmrd_4x4, example_mrd_4x4

F2 = make_field(2)
F3 = make_field(3)


def _brute_rho(C):
    from rankcov.ambient import index_to_mat
    q, k, m = C.field.q, C.k, C.m
    words = list(C.codewords())
    return max(min(rank(index_to_mat(C.field, k, m, x) - M) for M in words)
               for x in range(q ** (k * m)))


def test_rho_of_full_space_is_zero():
    assert covering_radius_exact(RankCode.full_space(F2, 2, 2)) == 0


def test_rho_of_zero_code_is_k():
    assert covering_radius_exact(RankCode.zero_code(F2, 2, 3)) == 2
    assert covering_radius_exact(RankCode.zero_code(F3, 2, 2)) == 2


def test_rho_of_worked_examples():
    assert covering_radius_exact(example_3x3()) == 2
    assert covering_radius_exact(example_mrd_4x4()) == 2
    assert covering_radius_exact(example_dqmrd_4x4()) == 3


def test_rho_matches_brute_force_on_random_codes():
    rng = random.Random(51)
    for _ in range(10):
        C = random_code(F2, 2, 3, rng.randrange(1, 8), rng)
        assert covering_radius_exact(C) == _brute_rho(C)
    for _ in range(5):
        C = random_linear_code(F3, 2, 2, rng.randrange(0, 4), rng)
        assert covering_radius_exact(C) == _brute_rho(C)


@pytest.mark.parametrize("q,k,m", [(4, 2, 2), (8, 1, 3), (8, 2, 2)])
def test_rho_matches_brute_force_in_characteristic_2(q, k, m):
    # the XOR scan serves every GF(2^e), not only GF(2)
    F = make_field(2, {4: 2, 8: 3}[q])
    rng = random.Random(q * 100 + k * 10 + m)
    for dim in range(2 if q ** (k * m) > 1024 else 3):
        C = random_linear_code(F, k, m, dim, rng)
        assert covering_radius_exact(C) == _brute_rho(C)
    for size in (1, 3, 5):
        C = random_code(F, k, m, size, rng)
        assert covering_radius_exact(C) == _brute_rho(C)


@pytest.mark.parametrize("q,k,m", [(5, 1, 3), (5, 2, 2), (9, 1, 3), (9, 2, 2)])
def test_rho_matches_brute_force_for_odd_p(q, k, m):
    # odd p with e = 1 (GF(5)) and e = 2 (GF(9)): digit rotations by p^t
    F = make_field(*{5: (5, 1), 9: (3, 2)}[q])
    rng = random.Random(q * 100 + k * 10 + m)
    codes = [random_linear_code(F, k, m, dim, rng) for dim in (0, 1)]
    codes += [random_code(F, k, m, size, rng) for size in (1, 3, 6)]
    if q ** (k * m) <= 1000:
        codes.append(random_linear_code(F, k, m, 2, rng))
    for C in codes:
        rho = _brute_rho(C)
        assert covering_radius_exact(C) == rho
        for ub in (rho, rho + 1):
            assert covering_radius_exact(C, upper_bound=ub) == rho


def test_rho_of_gf2_3x7_zero_code_scans_beyond_2_20():
    C = RankCode.zero_code(F2, 3, 7)
    assert covering_radius_exact(C) == 3


def test_rho_upper_bound_early_exit_is_exact():
    C = example_3x3()
    assert covering_radius_exact(C, upper_bound=2) == 2


def test_rho_guard_and_force(monkeypatch):
    C = RankCode.zero_code(F2, 2, 2)
    monkeypatch.setattr(codes, "ENUM_GUARD", 1)
    with pytest.raises(GuardExceeded):
        covering_radius_exact(C)
    assert covering_radius_exact(C, force=True) == 2


def test_rho_monotone_under_inclusion():
    # C subset of D implies rho(C) >= rho(D)
    rng = random.Random(52)
    for _ in range(10):
        C = random_linear_code(F2, 2, 3, 2, rng)
        extra = random_matrix(F2, 2, 3, rng)
        D = RankCode.from_generators(F2, 2, 3, list(C.basis) + [extra])
        assert covering_radius_exact(C) >= covering_radius_exact(D)


def test_rho_versus_min_distance_inequality():
    # d - 1 < 2 rho for every proper code with at least two words
    rng = random.Random(53)
    for _ in range(10):
        C = random_linear_code(F2, 2, 3, rng.randrange(1, 6), rng)
        rho = covering_radius_exact(C)
        assert C.min_distance() - 1 < 2 * rho


def test_dual_distance_bound():
    C = example_3x3()
    assert bound_dual_distance(C) == 3  # d_perp = 1
    with pytest.raises(ValueError):
        bound_dual_distance(RankCode.full_space(F2, 2, 2))


def test_external_distance_bound_worked_example():
    assert bound_external(example_3x3()) == 3
    assert bound_external(example_dqmrd_4x4()) == 4


def test_bounds_dominate_exact_rho():
    rng = random.Random(54)
    for _ in range(15):
        C = random_linear_code(F2, 2, 3, rng.randrange(1, 6), rng)
        rho = covering_radius_exact(C)
        assert rho <= bound_dual_distance(C)
        assert rho <= bound_external(C)
        assert rho <= bound_initial_set(C)


def test_initial_set_worked_example():
    S = initial_set(example_3x3())
    assert S.entries == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_initial_set_size_equals_dim():
    rng = random.Random(55)
    for _ in range(10):
        C = random_linear_code(F2, 3, 3, rng.randrange(1, 9), rng)
        assert len(initial_set(C).entries) == C.dim


def test_initial_set_rejects_trivial_codes():
    with pytest.raises(ValueError):
        initial_set(RankCode.zero_code(F2, 2, 2))


def test_min_line_cover_small_patterns():
    assert min_line_cover(LinePattern(2, 3, frozenset())) == 0
    assert min_line_cover(LinePattern(2, 3, frozenset({(1, 1)}))) == 1
    diag = frozenset({(1, 1), (2, 2)})
    assert min_line_cover(LinePattern(2, 3, diag)) == 2
    row = frozenset({(1, 1), (1, 2), (1, 3)})
    assert min_line_cover(LinePattern(2, 3, row)) == 1
    full = frozenset((i, j) for i in (1, 2) for j in (1, 2, 3))
    assert min_line_cover(LinePattern(2, 3, full)) == 2


def test_min_line_cover_leaves_no_reference_cycle():
    # every object gc finds unreachable is kept in gc.garbage
    cells = frozenset((i, j) for i in range(1, 4) for j in range(1, 5)
                      if (i + j) % 3)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert min_line_cover(LinePattern(3, 4, cells)) == 3
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_min_line_cover_matches_exhaustive_cover_search():
    import itertools
    rng = random.Random(56)
    for _ in range(20):
        cells = frozenset((i, j) for i in (1, 2, 3) for j in (1, 2, 3)
                          if rng.random() < 0.4)
        got = min_line_cover(LinePattern(3, 3, cells))
        best = 6
        for r in range(4):
            for rows in itertools.combinations((1, 2, 3), r):
                rest = {c for c in cells if c[0] not in rows}
                cols = {j for (_, j) in rest}
                best = min(best, r + len(cols))
        assert got == best


def test_line_pattern_validates_cells():
    with pytest.raises(ValueError):
        LinePattern(2, 2, frozenset({(3, 1)}))


def test_initial_set_bound_worked_example():
    assert bound_initial_set(example_3x3()) == 2


def test_maximality_worked_examples():
    # 3x3: rho = 2 > d - 1 = 1, not maximal, mu = 0
    C = example_3x3()
    assert not is_maximal(C, 2)
    assert maximality_degree(C, 2) == 0
    # MRD 4x4: rho = 2 <= d - 1 = 3, maximal with mu = 2
    M = example_mrd_4x4()
    assert is_maximal(M, 2)
    assert maximality_degree(M, 2) == 2
    # dually QMRD 4x4: rho = 3 = d - 1, maximal with mu = 1
    D = example_dqmrd_4x4()
    assert is_maximal(D, 3)
    assert maximality_degree(D, 3) == 1


def test_maximality_degree_via_enlargement_oracle():
    # mu equals the worst-case distance drop over all one-word enlargements
    from rankcov.ambient import index_to_mat
    rng = random.Random(57)
    for _ in range(8):
        C = random_linear_code(F2, 2, 2, rng.randrange(1, 4), rng)
        d = C.min_distance()
        drops = []
        for x in range(16):
            X = index_to_mat(F2, 2, 2, x)
            if C.contains(X):
                continue
            dist = min(rank(X - M) for M in C.codewords())
            drops.append(d - min(d, dist))
        expected = min(drops) if drops else 1
        assert maximality_degree(C) == expected
        assert is_maximal(C) == (expected >= 1)


def test_full_space_maximality():
    full = RankCode.full_space(F2, 2, 2)
    assert is_maximal(full)
    assert maximality_degree(full) == 1


def test_bounds_report_worked_example():
    rep = bounds_report(example_3x3())
    assert (rep.q, rep.k, rep.m) == (2, 3, 3)
    assert rep.dim == 4
    assert rep.min_distance == 2
    assert rep.bound_dual_distance == 3
    assert rep.bound_external == 3
    assert rep.bound_initial_set == 2
    assert rep.rho_exact == 2
    assert rep.packing_lower == 1
    assert rep.maximal is False
    assert rep.maximality_degree == 0
    assert not rep.is_mrd and not rep.is_dually_qmrd


def test_bounds_report_mrd_and_dqmrd():
    rep = bounds_report(example_mrd_4x4())
    assert rep.is_mrd and rep.bound_mrd == 3
    assert rep.rho_exact == 2 and rep.maximality_degree == 2
    rep2 = bounds_report(example_dqmrd_4x4())
    assert rep2.is_dually_qmrd and rep2.bound_dqmrd == 4
    assert rep2.rho_exact == 3 and rep2.maximality_degree == 1


def test_bounds_report_respects_guard(monkeypatch):
    # guard admits the 16 codewords but not the 512-matrix ambient scan
    monkeypatch.setattr(codes, "ENUM_GUARD", 100)
    rep = bounds_report(example_3x3())
    assert rep.rho_exact is None
    assert rep.bound_dual_distance == 3


def test_bounds_report_full_space():
    rep = bounds_report(RankCode.full_space(F2, 2, 2))
    assert rep.rho_exact == 0
    assert rep.maximal is True
    assert rep.maximality_degree == 1


@pytest.mark.parametrize("field", (F2, F3))
def test_bounds_report_full_space_given_as_a_set(field):
    # every 1 x 2 matrix, as a set and as the linear full space: neither
    # gets a packing bound or an external distance
    full = RankCode.full_space(field, 1, 2)
    reps = [bounds_report(C) for C in (
        full, RankCode.from_codewords(field, 1, 2, list(full.codewords())))]
    for rep in reps:
        assert rep.cardinality == field.q ** 2 and rep.min_distance == 1
        assert rep.rho_exact == 0
        assert rep.packing_lower is None and rep.bound_external is None
        assert rep.maximal is True and rep.maximality_degree == 1
    assert vars(reps[0]) == dict(vars(reps[1]), dim=2, bound_initial_set=0,
                                 is_dually_qmrd=False)


def test_bounds_report_zero_code():
    rep = bounds_report(RankCode.zero_code(F2, 2, 2))
    assert rep.rho_exact == 2
    assert rep.maximal is True
    assert rep.min_distance is None


def test_bounds_report_lower_equals_upper_skips_scan(monkeypatch):
    import rankcov.covering as covering
    searches = []
    search = covering.rank_balls

    def counted(*args):
        searches.append(args)
        return search(*args)
    monkeypatch.setattr(covering, "rank_balls", counted)
    for q, k, m, d in ((2, 3, 3, 2), (2, 3, 3, 3), (2, 4, 4, 3), (3, 3, 3, 2),
                       (4, 2, 3, 2), (2, 3, 6, 3)):
        C = gabidulin(q, k, m, d)
        rep = bounds_report(C)
        assert rep.packing_lower == min(rep.upper_bounds())
        assert not searches  # no ball search
        assert rep.rho_exact == covering_radius_exact(C)
        assert len(searches) == 1
        searches.clear()
