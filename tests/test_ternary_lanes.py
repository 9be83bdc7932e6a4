"""The bit-sliced rank kernel of characteristic 3 against the per-word path.

In characteristic 3 ``ambient.rank_counts`` holds base-3 digit t of
every lane's index as two planes, 2t (the digit is nonzero) and 2t + 1
(the digit is 2).  Here its counts are compared with ``rank_of_index``
on each matrix, and the lane builders (span, words, pairs, translates)
with the words they stand for, built one lane at a time.
"""

import random

import pytest

from rankcov import ambient
from rankcov.ambient import (lane_ranks, mat_index, pair_lanes, rank_counts,
                             span_lanes, word_lanes)
from rankcov.codes import RankCode
from rankcov.construct import random_code, random_linear_code
from rankcov.gfield import add_index, digits, field_from_order
from rankcov.matlin import rank_of_index


def planes_of(indices, ndigits):
    """Digit t of lane w sets bit w of plane 2t if it is nonzero and of
    plane 2t + 1 if it is 2, one digit at a time."""
    planes = [0] * (2 * ndigits)
    for w, x in enumerate(indices):
        for t, d in enumerate(digits(x, 3, ndigits)):
            if d:
                planes[2 * t] |= 1 << w
            if d == 2:
                planes[2 * t + 1] |= 1 << w
    return planes


def per_word_counts(field, k, m, indices):
    rank_at = rank_of_index(field, k, m)
    counts = [0] * (k + 1)
    for x in indices:
        counts[rank_at(x)] += 1
    return counts


def kernel_counts(field, k, m, indices):
    return rank_counts(field, k, m, planes_of(indices, k * m * field.e),
                       len(indices))


def sum_counts(field, k, m, chunks):
    total = [0] * (k + 1)
    for planes, lanes in chunks:
        for r, c in enumerate(rank_counts(field, k, m, planes, lanes)):
            total[r] += c
    return total


def lane_indices(chunks, ndigits):
    """The index held by every lane of the chunks, in lane order."""
    out = []
    for planes, lanes in chunks:
        for w in range(lanes):
            out.append(sum(
                (planes[2 * t] >> w & 1) * (1 + (planes[2 * t + 1] >> w & 1))
                * 3 ** t for t in range(ndigits)))
    return out


def span_of(field, basis, start):
    """start plus every F_3-combination of basis, lane order: the base-3
    digits of the lane number are the coefficients, low digit first."""
    words = [start]
    for v in basis:
        twice = add_index(field, v, v)
        words += [add_index(field, w, s) for s in (v, twice) for w in words]
    return words


@pytest.mark.parametrize("q,k,m", [(3, 2, 2), (3, 2, 3), (3, 3, 3),
                                   (9, 2, 2)])
def test_kernel_matches_rank_of_index_on_every_index(q, k, m):
    F = field_from_order(q)
    N = q ** (k * m)
    rank_at = rank_of_index(F, k, m)
    for x in range(N):  # one lane per call
        assert kernel_counts(F, k, m, [x]) \
            == [int(r == rank_at(x)) for r in range(k + 1)], x
    everything = list(range(N))
    assert kernel_counts(F, k, m, everything) \
        == per_word_counts(F, k, m, everything)
    rng = random.Random(N + k)
    rng.shuffle(everything)
    assert lane_ranks(F, k, m, planes_of(everything, k * m * F.e), N) \
        == bytes(map(rank_at, everything))
    for size in (5, 100, 1000):
        for s in range(0, N, size):
            part = everything[s:s + size]
            assert kernel_counts(F, k, m, part) \
                == per_word_counts(F, k, m, part)


@pytest.mark.parametrize("q,k,m", [(3, 3, 4), (3, 4, 4), (3, 4, 5), (3, 5, 5),
                                   (9, 3, 3), (27, 2, 3)])
def test_kernel_on_sampled_indices(q, k, m):
    F = field_from_order(q)
    rng = random.Random(q * 100 + k * 10 + m)
    sample = [rng.randrange(q ** (k * m)) for _ in range(20000)]
    sample += [0, q ** (k * m) - 1]
    assert kernel_counts(F, k, m, sample) == per_word_counts(F, k, m, sample)


@pytest.mark.parametrize("q", (81, 243, 2187))
def test_kernel_on_larger_fields(q, kernel_sample):
    # GF(2187)'s modulus x^7 + x^2 + 2 folds a folded degree again
    F = field_from_order(q)
    rng = random.Random(q)
    for k, m in ((1, 2), (2, 2), (2, 3)):
        sample = kernel_sample(F, k, m, rng)
        assert kernel_counts(F, k, m, sample) \
            == per_word_counts(F, k, m, sample)


@pytest.mark.parametrize("q", (3, 9))
def test_span_lanes_carry_constants_across_chunks(q, monkeypatch):
    F = field_from_order(q)
    k, m = 2, 3
    n = k * m * F.e
    rng = random.Random(q)
    basis = [rng.randrange(1, q ** (k * m)) for _ in range(5)]
    start = rng.randrange(q ** (k * m))
    monkeypatch.setattr(ambient, "LANE_BITS", 4)  # chunks of 9 lanes
    chunks = list(span_lanes(basis, n, start, 3))
    assert [lanes for _, lanes in chunks] == [9] * 27
    assert lane_indices(chunks, n) == span_of(F, basis, start)
    assert sum_counts(F, k, m, chunks) \
        == per_word_counts(F, k, m, span_of(F, basis, start))


def test_word_and_pair_lanes_hold_the_words_and_differences(monkeypatch):
    F = field_from_order(3)
    n = 12
    rng = random.Random(3)
    words = rng.sample(range(3 ** n), 45)
    neg = [add_index(F, x, x) for x in words]  # -a = 2a in characteristic 3
    # per lane_bits: chunks of words, and row blocks of pairs
    for lane_bits, sizes, blocks in ((4, [16, 16, 13], 45), (8, [45], 9),
                                     (16, [45], 1)):
        monkeypatch.setattr(ambient, "LANE_BITS", lane_bits)
        chunks = list(word_lanes(words, n, 3))
        assert [lanes for _, lanes in chunks] == sizes
        assert lane_indices(chunks, n) == words
        chunks = list(pair_lanes(words, n, 3))
        assert len(chunks) == blocks
        assert lane_indices(chunks, n) == [add_index(F, b, a)
                                           for a in neg for b in words]


def set_codes(q):
    F = field_from_order(q)
    rng = random.Random(30 + q)
    for k, m, size in ((1, 3, 1), (2, 2, 2), (2, 3, 9), (3, 3, 24),
                       (3, 4, 64), (5, 5, 40)):
        if size <= q ** (k * m) <= 1 << 40:
            yield random_code(F, k, m, size, rng)


@pytest.mark.parametrize("q", (3, 9))
def test_set_weights_and_pairs_match_the_per_word_path(q):
    for C in set_codes(q):
        F = C.field
        assert C.weight_distribution() \
            == per_word_counts(F, C.k, C.m, C.word_indices())
        rank_at = rank_of_index(F, C.k, C.m)
        P = [len(C.words)] + [0] * C.k  # the equal pairs, at distance 0
        for a in C.words:
            for b in C.words:
                if a != b:
                    P[rank_at(mat_index(a - b))] += 1
        assert C.distance_counts() == P


@pytest.mark.parametrize("q", (3, 9))
def test_linear_weights_match_the_per_word_path(q):
    F = field_from_order(q)
    rng = random.Random(40 + q)
    for k, m in ((1, 3), (2, 2), (2, 3), (3, 3)):
        for dim in range(0, k * m + 1):
            if q ** dim > 1 << 12:
                continue
            C = random_linear_code(F, k, m, dim, rng)
            assert C._enumerated_weights() \
                == per_word_counts(F, k, m, C.word_indices())


@pytest.mark.parametrize("q,k,m", [(3, 3, 3), (9, 2, 2)])
def test_translates_above_a_patched_cap_match_the_table(q, k, m, monkeypatch,
                                                       table_profile):
    F = field_from_order(q)
    rng = random.Random(50 + q)
    cs = [random_linear_code(F, k, m, dim, rng) for dim in (0, 2, k * m - 1)]
    cs += [random_code(F, k, m, size, rng) for size in (1, 30)]
    xs = [0] + [rng.randrange(q ** (k * m)) for _ in range(5)]
    below = [[table_profile(C, x) for x in xs] for C in cs]
    assert [C.translate_weights(xs) for C in cs] == below
    monkeypatch.setattr(ambient, "LANE_BITS", 3)  # chunks of 3 lanes
    fresh = [RankCode.from_generators(F, k, m, list(C.basis)) if C.linear
             else RankCode.from_codewords(F, k, m, list(C.words)) for C in cs]
    assert [C.translate_weights(xs) for C in fresh] == below
