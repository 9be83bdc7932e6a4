"""The bit-sliced rank kernel of characteristic 2 against the per-word path.

``ambient.rank_counts`` ranks every lane of a pass at once; here its
counts are compared with ``rank_of_index`` on each matrix, the weight
and pair distributions it gives with those of the per-word loop, and
the weight distributions of Gabidulin codes with Delsarte's closed form
for MRD codes.
"""

import random

import pytest

from rankcov import ambient
from rankcov.ambient import (lane_ranks, mat_index, pair_lanes, rank_counts,
                             span_lanes, word_lanes)
from rankcov.codes import RankCode
from rankcov.construct import gabidulin, random_code, random_linear_code
from rankcov.gfield import field_from_order
from rankcov.matlin import rank_of_index

# every shape k <= m with q^(km) <= 2^12, k = 1 and k = m included
SHAPES = [(q, k, m) for q in (2, 4, 8)
          for k in range(1, 13) for m in range(k, 13)
          if q ** (k * m) <= 1 << 12]


def planes_of(indices, nbits):
    """Bit b of lane w is bit b of indices[w], one bit at a time."""
    planes = [0] * nbits
    for w, x in enumerate(indices):
        for b in range(nbits):
            planes[b] |= (x >> b & 1) << w
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


def sum_counts(field, k, chunks, m):
    total = [0] * (k + 1)
    for planes, lanes in chunks:
        for r, c in enumerate(rank_counts(field, k, m, planes, lanes)):
            total[r] += c
    return total


@pytest.mark.parametrize("q,k,m", SHAPES)
def test_kernel_matches_rank_of_index_on_every_index(q, k, m):
    F = field_from_order(q)
    N = q ** (k * m)
    rank_at = rank_of_index(F, k, m)
    # one lane per call: the kernel's rank of each matrix on its own
    for x in range(N):
        counts = kernel_counts(F, k, m, [x])
        assert counts == [int(r == rank_at(x)) for r in range(k + 1)], x
    # all lanes at once, and runs of lane counts that are not powers of two
    everything = list(range(N))
    assert kernel_counts(F, k, m, everything) \
        == per_word_counts(F, k, m, everything)
    rng = random.Random(N + k)
    rng.shuffle(everything)
    assert lane_ranks(F, k, m, planes_of(everything, k * m * F.e), N) \
        == bytes(map(rank_at, everything))
    for size in (3, 7, 100, 1000):
        for s in range(0, N, size):
            part = everything[s:s + size]
            assert kernel_counts(F, k, m, part) \
                == per_word_counts(F, k, m, part)


@pytest.mark.parametrize("q", (16, 32, 256, 2048))
def test_kernel_on_larger_fields(q, kernel_sample):
    F = field_from_order(q)  # GF(2048) has no mul table: F.mul computes
    rng = random.Random(q)
    for k, m in ((1, 2), (2, 2), (2, 3)):
        sample = kernel_sample(F, k, m, rng)
        assert kernel_counts(F, k, m, sample) \
            == per_word_counts(F, k, m, sample)


def test_every_lane_builder_crosses_a_chunk_boundary(monkeypatch):
    F = field_from_order(2)
    k, m = 3, 4
    rng = random.Random(1)
    basis = [rng.randrange(1, 1 << 12) for _ in range(6)]
    combos = [0]
    for v in basis:
        combos += [c ^ v for c in combos]
    words = rng.sample(range(1 << 12), 45)
    pairs = [a ^ b for a in words for b in words]
    monkeypatch.setattr(ambient, "LANE_BITS", 4)  # chunks of 16 lanes
    assert len(list(span_lanes(basis, 12))) == 4
    assert sum_counts(F, k, span_lanes(basis, 12), m) \
        == per_word_counts(F, k, m, combos)
    assert [n for _, n in word_lanes(words, 12)] == [16, 16, 13]
    assert sum_counts(F, k, word_lanes(words, 12), m) \
        == per_word_counts(F, k, m, words)
    assert {n for _, n in pair_lanes(words, 12)} == {45}  # one row a chunk
    assert sum_counts(F, k, pair_lanes(words, 12), m) \
        == per_word_counts(F, k, m, pairs)


def pair_lanes_by_strings(words, nbits):
    """pair_lanes on binary strings: per block of rows, plane b's string
    repeated once per row XOR the block's row bits spread over n lanes."""
    n = len(words)
    rows = [format(x, f"0{nbits}b") for x in reversed(words)]
    strings = ["".join(col) for col in reversed(list(zip(*rows)))]
    spread = {ord("0"): "0" * n, ord("1"): "1" * n}
    per_block = max(1, (1 << ambient.LANE_BITS) // n)
    for i in range(0, n, per_block):
        r = min(per_block, n - i)
        yield [int(s * r, 2) ^ int(s[n - i - r:n - i].translate(spread), 2)
               for s in strings], r * n


@pytest.mark.parametrize("lane_bits", (3, 5, 8, 16))
def test_pair_lanes_match_the_string_version(monkeypatch, lane_bits):
    monkeypatch.setattr(ambient, "LANE_BITS", lane_bits)
    rng = random.Random(lane_bits)
    for n, nbits in ((1, 4), (2, 3), (3, 12), (10, 9), (45, 12), (64, 25),
                     (300, 20)):
        words = rng.sample(range(1 << nbits), n)
        chunks = list(pair_lanes(words, nbits))
        assert chunks == list(pair_lanes_by_strings(words, nbits))
        if n > 1 << lane_bits:
            assert len(chunks) == n  # one row a chunk
        elif n > 2 and (1 << lane_bits) // n < n:
            assert chunks[0][1] < n * n  # a boundary falls inside the set


def test_a_chunk_boundary_at_full_size():
    F = field_from_order(2)
    k, m = 4, 5
    rng = random.Random(2)
    C = random_linear_code(F, k, m, 17, rng)
    basis = [mat_index(B) for B in C.basis]
    chunks = list(span_lanes(basis, k * m))
    assert [n for _, n in chunks] == [1 << 16, 1 << 16]
    assert sum_counts(F, k, chunks, m) \
        == per_word_counts(F, k, m, C.word_indices())


def linear_codes(q):
    """Per shape: zero code, full space and a random code of every other
    dimension whose code or dual is small enough to expand."""
    F = field_from_order(q)
    rng = random.Random(10 + q)
    for k, m in ((1, 1), (1, 4), (2, 2), (2, 3), (3, 3)):
        if q ** (k * m) > 1 << 14:
            continue
        yield RankCode.zero_code(F, k, m)
        yield RankCode.full_space(F, k, m)
        for dim in range(1, k * m):
            yield random_linear_code(F, k, m, dim, rng)


def set_codes(q):
    F = field_from_order(q)
    rng = random.Random(20 + q)
    for k, m, size in ((1, 3, 1), (2, 2, 2), (2, 3, 2), (3, 3, 24),
                       (3, 3, 64), (1, 4, 64), (5, 5, 64)):
        if size <= q ** (k * m) <= 1 << 30:
            yield random_code(F, k, m, size, rng)


@pytest.mark.parametrize("q", (2, 4, 8))
def test_weight_distributions_match_the_per_word_path(q):
    for C in list(linear_codes(q)) + list(set_codes(q)):
        F = C.field
        for A in (C, C.dual()) if C.linear else (C,):
            if A.cardinality() > 1 << 14:
                continue
            fresh = (RankCode.from_generators(F, A.k, A.m, list(A.basis))
                     if A.linear else
                     RankCode.from_codewords(F, A.k, A.m, list(A.words)))
            assert fresh._enumerated_weights() \
                == per_word_counts(F, A.k, A.m, A.word_indices())


@pytest.mark.parametrize("q", (2, 4, 8))
def test_pair_distributions_match_the_per_word_path(q):
    for C in set_codes(q):
        F = C.field
        rank_at = rank_of_index(F, C.k, C.m)
        P = [len(C.words)] + [0] * C.k  # the equal pairs, at distance 0
        for a in C.words:
            for b in C.words:
                if a != b:
                    P[rank_at(mat_index(a - b))] += 1
        assert C.distance_counts() == P


def gaussian_binomial(n, r, q):
    """[n, r]_q, the number of r-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def mrd_weights(q, k, m, d):
    """Delsarte's weight distribution of a k x m MRD code (k <= m) of
    minimum distance d:
    W_r = [k, r]_q sum_{j=0}^{r-d} (-1)^j q^(j(j-1)/2) [r, j]_q
          (q^(m(r-d-j+1)) - 1)  for r >= d."""
    W = [1] + [0] * k
    for r in range(d, k + 1):
        W[r] = gaussian_binomial(k, r, q) * sum(
            (-1) ** j * q ** (j * (j - 1) // 2) * gaussian_binomial(r, j, q)
            * (q ** (m * (r - d - j + 1)) - 1) for j in range(r - d + 1))
    return W


GABIDULIN = [(2, k, m, d) for m in range(1, 7) for k in range(1, m + 1)
             for d in range(1, k + 1)] \
    + [(4, k, m, d) for m in range(1, 5) for k in range(1, m + 1)
       for d in range(1, k + 1)]


@pytest.mark.parametrize("q,k,m,d", GABIDULIN)
def test_gabidulin_weights_match_the_mrd_closed_form(q, k, m, d):
    C = gabidulin(q, k, m, d)
    W = mrd_weights(q, k, m, d)
    assert sum(W) == C.cardinality() == q ** (m * (k - d + 1))
    assert C.weight_distribution() == W
    assert C.min_distance() == d
