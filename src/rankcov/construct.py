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
from typing import List, Optional, Tuple

from .gfield import FieldSpec, digits, extension_field, field_from_order
from .matlin import Mat, Subspace, draw_entries
from .codes import RankCode


def _evaluation_generators(q: int, k: int, m: int, powers: List[int]) -> List[Mat]:
    """Generators row t = expansion of c * g_t^{q^i}, over all basis c and
    the given Frobenius powers i; g_t = x^t, the basis element of code
    q^t, for t < k."""
    base = field_from_order(q)
    ext = extension_field(q, m)
    gens = []
    for i in powers:
        frobbed = [ext.pow(q ** t, q ** i) for t in range(k)]
        for j in range(m):
            rows = [digits(ext.mul(q ** j, fg), q, m) for fg in frobbed]
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
    if C.dim != m * r:
        raise ArithmeticError("evaluation generators must be independent")
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
    for B, c in zip(C.basis, draw_entries(rng, C.field.q, len(C.basis))):
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
        entries = draw_entries(rng, field.q, dim * n)
        span = Subspace(field, n, [entries[n * i: n * i + n]
                                   for i in range(dim)])
        if span.dim == dim:
            return RankCode(field, k, m, span=span)


def random_code(field: FieldSpec, k: int, m: int, size: int, seed) -> RankCode:
    """Uniformly random explicit code: size distinct matrices."""
    N = field.q ** (k * m)
    if not 1 <= size <= N:
        raise ValueError("size out of range")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return RankCode(field, k, m, indices=tuple(sorted(rng.sample(range(N),
                                                                 size))))
