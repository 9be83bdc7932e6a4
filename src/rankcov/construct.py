"""Verified test-instance constructions.

Builds maximum-rank-distance codes from linearized-polynomial evaluation,
nested pairs of them, dually quasi-MRD codes sitting between a nested
pair, codes of F_{q^s}-linear maps, and seeded random codes.

Orientation convention: a codeword matrix has k rows indexed by the
evaluation points and m columns indexed by the polynomial-basis
coordinates, so (coords of x) . M = coords of f(x).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Optional, Tuple

from .gfield import (FieldSpec, _SquareAndMultiply, _mul_codes, add_index,
                     digits, field_from_order, least_modulus, undigits)
from .matlin import Mat, _rref_rows, devectorize
from .codes import RankCode


class ExtensionField(_SquareAndMultiply):
    """GF(q^m) over a base GF(q), polynomial basis 1, a, ..., a^{m-1}.

    Elements are integers in [0, q^m) whose base-q digits (low digit
    first) are the basis coordinates; the expansion map to F_q^m is the
    digit vector.  The modulus is the lexicographically least monic
    irreducible of degree m over the base, as in the base-field rule.
    """

    __slots__ = ("base", "degree", "order", "modulus")

    def __init__(self, base: FieldSpec, degree: int):
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.degree = degree
        self.order = base.q ** degree
        self.modulus = least_modulus(base, degree)

    def expand(self, code: int) -> Tuple[int, ...]:
        return digits(code, self.base.q, self.degree)

    def compress(self, digits) -> int:
        return undigits(digits, self.base.q)

    def basis_element(self, j: int) -> int:
        return self.base.q ** j

    def add(self, a: int, b: int) -> int:
        return add_index(self.base, a, b)

    def mul(self, a: int, b: int) -> int:
        return _mul_codes(self.base, self.modulus, a, b)


@lru_cache(maxsize=None)
def extension_field(q: int, m: int) -> ExtensionField:
    return ExtensionField(field_from_order(q), m)


def _evaluation_generators(q: int, k: int, m: int, powers: List[int]) -> List[Mat]:
    """Generators row j = expansion of c * g_j^{q^i}, over all basis c and
    the given Frobenius powers i; g_j the first k basis elements."""
    base = field_from_order(q)
    ext = extension_field(q, m)
    points = [ext.basis_element(t) for t in range(k)]
    gens = []
    for i in powers:
        frobbed = [ext.pow(g, q ** i) for g in points]
        for j in range(m):
            c = ext.basis_element(j)
            rows = [ext.expand(ext.mul(c, fg)) for fg in frobbed]
            gens.append(Mat.from_rows(base, rows))
    return gens


def gabidulin(q: int, k: int, m: int, d: int) -> RankCode:
    """Linear MRD code of minimum distance d via linearized evaluation."""
    if not 1 <= d <= k <= m:
        raise ValueError("need 1 <= d <= k <= m")
    r = k - d + 1
    base = field_from_order(q)
    gens = _evaluation_generators(q, k, m, list(range(r)))
    C = RankCode.from_generators(base, k, m, gens)
    assert C.dim == m * r, "evaluation generators must be independent"
    return C


def nested_gabidulin(q: int, k: int, m: int, alpha: int,
                     beta: int) -> Tuple[RankCode, RankCode]:
    """MRD pair E < D of dimensions m*alpha and m*beta, nested by
    truncating the polynomial degree."""
    if not 0 < alpha < beta <= k:
        raise ValueError("need 0 < alpha < beta <= k")
    E = gabidulin(q, k, m, k - alpha + 1)
    D = gabidulin(q, k, m, k - beta + 1)
    return E, D


def dually_qmrd(q: int, k: int, m: int, t: int,
                seed: Optional[int] = None) -> RankCode:
    """Dually quasi-MRD code of dimension t, m not dividing t.

    Sits strictly between the nested MRD codes of dimensions
    m*floor(t/m) and m*(floor(t/m)+1); with a seed the extension
    generators are sampled at random instead of taken in canonical order.
    """
    if not 1 <= t <= k * m - 1:
        raise ValueError("need 1 <= t <= km - 1")
    if t % m == 0:
        raise ValueError("t must not be a multiple of m")
    alpha = t // m
    base = field_from_order(q)
    D = gabidulin(q, k, m, k - alpha)
    gens: List[Mat] = []
    if alpha > 0:
        gens = list(gabidulin(q, k, m, k - alpha + 1).basis)
    current = RankCode.from_generators(base, k, m, gens)
    if seed is None:
        candidates = iter(D.basis)
    else:
        rng = random.Random(seed)
        candidates = iter(lambda: _random_codeword(D, rng), None)
    while current.dim < t:
        M = next(candidates)
        if not current.contains(M):
            gens.append(M)
            current = RankCode.from_generators(base, k, m, gens)
    return current


def _random_codeword(C: RankCode, rng: random.Random) -> Mat:
    M = Mat.zero(C.field, C.k, C.m)
    for B in C.basis:
        c = rng.randrange(C.field.q)
        if c:
            M = M + B.scale(c)
    return M


def linearized_map_code(q: int, s: int, r: int) -> RankCode:
    """All F_{q^s}-linear maps of GF(q^{rs}), as m x m matrices, m = rs."""
    if r < 1 or s < 1:
        raise ValueError("need r, s >= 1")
    m = r * s
    base = field_from_order(q)
    gens = _evaluation_generators(q, m, m, [s * i for i in range(r)])
    return RankCode.from_generators(base, m, m, gens)


def random_linear_code(field: FieldSpec, k: int, m: int, dim: int,
                       seed) -> RankCode:
    """Uniformly random linear code of the given dimension."""
    if not 0 <= dim <= k * m:
        raise ValueError("dimension out of range")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = k * m
    while True:
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(dim)]
        _, pivots = _rref_rows(field, [list(r) for r in rows])
        if len(pivots) == dim:
            mats = [devectorize(field, r, k, m) for r in rows]
            return RankCode.from_generators(field, k, m, mats)


def random_code(field: FieldSpec, k: int, m: int, size: int, seed) -> RankCode:
    """Uniformly random explicit code: size distinct matrices."""
    N = field.q ** (k * m)
    if not 1 <= size <= N:
        raise ValueError("size out of range")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    from .ambient import index_to_mat
    picks = rng.sample(range(N), size)
    return RankCode.from_codewords(field, k, m,
                                   [index_to_mat(field, k, m, i) for i in picks])
