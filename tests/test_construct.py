import random

import pytest

from rankcov.codes import RankCode
from rankcov.gfield import (digits, extension_field, field_from_order,
                            make_field, undigits)
from rankcov.matlin import Mat, Subspace, random_invertible, rank
from rankcov.construct import (dually_qmrd, gabidulin, linearized_map_code,
                               nested_gabidulin, random_code,
                               random_linear_code)
from rankcov.surgery import puncture

F2 = make_field(2)
F3 = make_field(3)


def test_extension_field_gf4():
    E = extension_field(2, 2)
    assert E.modulus == (1, 1, 1)
    assert E.mul(2, 2) == 3  # a^2 = a + 1
    assert E.q == 4


def test_extension_field_axioms_gf8_gf9():
    for q, m in [(2, 3), (3, 2), (4, 2), (4, 3)]:
        E = extension_field(q, m)
        elems = range(E.q)
        for a in elems:
            for b in elems:
                assert E.mul(a, b) == E.mul(b, a)
                assert E.add(a, b) == E.add(b, a)
            assert E.mul(a, 1) == a
            if a:
                # multiplicative order divides q^m - 1
                assert E.pow(a, E.q - 1) == 1


# the moduli every construction depends on, pinned so that a change to the
# least-irreducible search shows up as a test failure
EXTENSION_MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (4, 2): (2, 1, 1), (4, 3): (2, 0, 0, 1), (4, 4): (1, 2, 1, 0, 1)}
PRIME_POWER_MODULI = {
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (7, 2): (1, 0, 1)}


def test_moduli_are_pinned():
    for (q, m), modulus in EXTENSION_MODULI.items():
        assert extension_field(q, m).modulus == modulus
        if q in (2, 3):
            assert make_field(q, m).modulus == modulus
    for (p, e), modulus in PRIME_POWER_MODULI.items():
        assert make_field(p, e).modulus == modulus


def test_extension_expand_compress_roundtrip():
    E = extension_field(3, 2)
    for a in range(9):
        assert undigits(digits(a, 3, 2), 3) == a
    assert digits(5, 3, 2) == (2, 1)  # 5 = 2 + 1*3
    assert digits(3, 3, 2) == (0, 1)  # the basis element x has code 3


def test_extension_frobenius_additive():
    E = extension_field(2, 4)
    for a in range(16):
        for b in range(16):
            assert E.pow(E.add(a, b), 2) == E.add(E.pow(a, 2), E.pow(b, 2))


def test_extension_matches_base_field_tables():
    E = extension_field(2, 3)
    F8 = make_field(2, 3)
    assert E.modulus == tuple(F8.modulus)
    for a in range(8):
        for b in range(8):
            assert E.mul(a, b) == F8.mul(a, b)


def test_gabidulin_parameters_and_mrd():
    for q in (2, 3):
        for m in range(2, 5):
            for k in range(2, m + 1):
                for d in range(2, k + 1):
                    C = gabidulin(q, k, m, d)
                    assert C.dim == m * (k - d + 1)
                    assert C.min_distance() == d
                    assert C.is_MRD()


def test_gabidulin_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gabidulin(2, 3, 2, 2)  # k > m
    with pytest.raises(ValueError):
        gabidulin(2, 3, 3, 4)  # d > k


def test_gabidulin_is_deterministic():
    assert gabidulin(2, 3, 3, 2) == gabidulin(2, 3, 3, 2)


def test_nested_gabidulin_inclusion_and_duality():
    E, D = nested_gabidulin(2, 3, 3, 1, 2)
    assert E.dim == 3 and D.dim == 6
    for B in E.basis:
        assert D.contains(B)
    # duals of MRD codes are MRD
    assert E.dual().is_MRD() and D.dual().is_MRD()


def test_nested_gabidulin_rejects_bad_orders():
    with pytest.raises(ValueError):
        nested_gabidulin(2, 3, 3, 2, 2)


def test_puncture_of_gabidulin_stays_mrd():
    rng = random.Random(61)
    C = gabidulin(2, 4, 4, 3)
    for _ in range(10):
        A = random_invertible(F2, 4, rng)
        u = rng.randrange(1, 3)
        assert puncture(C, A, u).is_MRD()


def test_dually_qmrd_all_valid_dimensions():
    for t in (1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15):
        C = dually_qmrd(2, 4, 4, t)
        assert C.dim == t
        assert C.is_dually_QMRD()


def test_dually_qmrd_rejects_multiples_of_m():
    for t in (4, 8, 12):
        with pytest.raises(ValueError):
            dually_qmrd(2, 4, 4, t)


def test_dually_qmrd_seeded_matches_canonical_dual_spectrum():
    for t in (2, 5):
        A = dually_qmrd(2, 4, 4, t)
        B = dually_qmrd(2, 4, 4, t, seed=7)
        assert B.dim == t and B.is_dually_QMRD()
        assert A.dual().weight_distribution() == B.dual().weight_distribution()


def test_dually_qmrd_q3():
    C = dually_qmrd(3, 2, 3, 2)
    assert C.dim == 2
    assert C.is_dually_QMRD()


def test_linearized_map_code_is_closed_under_composition():
    C = linearized_map_code(2, 2, 2)
    assert (C.k, C.m) == (4, 4)
    assert C.dim == 8
    words = list(C.codewords())
    rng = random.Random(62)
    for _ in range(20):
        M, N = rng.choice(words), rng.choice(words)
        assert C.contains(M @ N)


def test_linearized_map_code_weight_support():
    C = linearized_map_code(2, 2, 2)
    W = C.weight_distribution()
    assert W == [1, 0, 75, 0, 180]
    # nonzero ranks are multiples of s = 2
    assert all(w == 0 for i, w in enumerate(W) if i % 2 and i)


def test_linearized_map_code_r1_is_field_action():
    # r = 1: the maps c * x over GF(q^s), all nonzero ones invertible
    C = linearized_map_code(2, 3, 1)
    assert C.dim == 3
    for M in C.codewords():
        assert M.is_zero() or rank(M) == 3


def test_random_linear_code_dimension_and_determinism():
    for dim in (0, 2, 5):
        C = random_linear_code(F2, 2, 3, dim, 99)
        assert C.dim == dim
        assert C == random_linear_code(F2, 2, 3, dim, 99)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_random_linear_code_matches_per_entry_randrange(q):
    F = field_from_order(q)
    for seed in range(8):
        for k, m, dim in ((2, 2, 2), (2, 3, 4), (3, 3, 5)):
            rng = random.Random(seed)
            while True:  # the reference draw: one randrange call per entry
                span = Subspace(F, k * m, [[rng.randrange(q)
                                            for _ in range(k * m)]
                                           for _ in range(dim)])
                if span.dim == dim:
                    break
            shared = random.Random(seed)
            C = random_linear_code(F, k, m, dim, shared)
            assert C == RankCode(F, k, m, span=span)
            assert shared.random() == rng.random()


@pytest.mark.parametrize("q,k,m,t", [(2, 4, 4, 5), (3, 2, 3, 2), (4, 2, 3, 4)])
def test_seeded_dually_qmrd_matches_per_entry_randrange(q, k, m, t):
    base = field_from_order(q)
    alpha = t // m
    D = gabidulin(q, k, m, k - alpha)
    for seed in range(5):
        gens = list(gabidulin(q, k, m, k - alpha + 1).basis) if alpha else []
        current = RankCode.from_generators(base, k, m, gens)
        rng = random.Random(seed)
        while current.dim < t:  # the reference: one randrange per coefficient
            M = Mat.zero(base, k, m)
            for B in D.basis:
                c = rng.randrange(q)
                if c:
                    M = M + B.scale(c)
            if not current.contains(M):
                gens.append(M)
                current = RankCode.from_generators(base, k, m, gens)
        assert dually_qmrd(q, k, m, t, seed=seed) == current


def test_random_code_size_and_bounds():
    C = random_code(F3, 2, 2, 10, 5)
    assert C.cardinality() == 10
    assert C == random_code(F3, 2, 2, 10, 5)
    with pytest.raises(ValueError):
        random_code(F2, 2, 2, 17, 0)
    with pytest.raises(ValueError):
        random_linear_code(F2, 2, 2, 5, 0)
