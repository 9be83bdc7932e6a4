"""Exact covering radius and every covering-radius bound.

The exact value is the number of rank-1 steps it takes the ball around
the code to fill the ambient space (:func:`ambient.rank_balls`), cut
short once it is certified to equal the best proven upper bound.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .ambient import rank_balls
from .codes import ENUM_GUARD, GuardExceeded, RankCode
from .qcomb import build_table, krawtchouk_sums


def covering_radius_exact(C: RankCode, *, guard: int = ENUM_GUARD,
                          force: bool = False,
                          upper_bound: Optional[int] = None) -> int:
    """max over ambient X of min over codewords M of rank(X - M): the
    radius of the first rank-distance ball around C that is the whole
    space.  The guard on q^(km) bounds the balls' bits as well as the
    search.  With an upper bound u, a ball of radius u - 1 that is not
    full proves rho = u."""
    N = C.field.q ** (C.k * C.m)
    if C.is_full_space():
        return 0
    if N > guard and not force:
        raise GuardExceeded(
            f"ambient scan over {N} matrices exceeds the guard {guard}; "
            "pass force=True to run it anyway")
    rho = 0
    for _ in rank_balls(C.field, C.k, C.m, C.word_indices(guard=max(guard, N))):
        rho += 1
        if rho == upper_bound:
            break
    return rho


# -- individual bounds --

def bound_dual_distance(C: RankCode) -> int:
    """k - d(dual) + 1, an upper bound on the covering radius."""
    if not C.linear:
        raise ValueError("the dual distance bound needs a linear code")
    if C.is_full_space():
        raise ValueError("the dual of the full space has no minimum distance")
    return C.k - C.dual().min_distance() + 1


def external_support(C: RankCode) -> Tuple[int, ...]:
    """The indices i >= 1 where the MacWilliams transform of the distance
    distribution is positive, read off the signs of the integer sums
    sum_j |C| B_j P_j(i), which are |C|^2 times its entries."""
    table = build_table(C.k, C.m, C.field.q)
    S = krawtchouk_sums(C.distance_counts(), table)
    return tuple(i for i in range(1, C.k + 1) if S[i] > 0)


def external_distance(C: RankCode) -> int:
    """Number of indices i >= 1 with a positive transformed entry."""
    return len(external_support(C))


def bound_external(C: RankCode) -> int:
    return external_distance(C)


class InitialSet(NamedTuple):
    entries: Tuple[Tuple[int, int], ...]  # 1-based (row, col), sorted


def initial_set(C: RankCode) -> InitialSet:
    """First nonzero positions of the canonical basis, 1-based."""
    if not C.linear or C.dim == 0:
        raise ValueError("the initial set needs a nonzero linear code")
    cells = []
    for B in C.basis:
        t = next(t for t, x in enumerate(B.entries) if x)
        cells.append((t // C.m + 1, t % C.m + 1))
    return InitialSet(tuple(sorted(cells)))


class LinePattern:
    """Cells of an a x b grid, 1-based, each inside [a] x [b]."""

    __slots__ = ("a", "b", "cells")

    def __init__(self, a: int, b: int, cells: FrozenSet[Tuple[int, int]]):
        for (i, j) in cells:
            if not (1 <= i <= a and 1 <= j <= b):
                raise ValueError(f"cell {(i, j)} outside [{a}] x [{b}]")
        self.a = a
        self.b = b
        self.cells = cells


def min_line_cover(S: LinePattern) -> int:
    """Minimum rows+columns covering all cells; equals the maximum
    matching size of the row/column bipartite graph."""
    adj: Dict[int, List[int]] = {}
    for (i, j) in sorted(S.cells):
        adj.setdefault(i, []).append(j)
    match_col: Dict[int, int] = {}

    def augment(row: int, seen: Set[int]) -> bool:
        for col in adj.get(row, ()):
            if col in seen:
                continue
            seen.add(col)
            if col not in match_col or augment(match_col[col], seen):
                match_col[col] = row
                return True
        return False

    size = 0
    for row in sorted(adj):
        if augment(row, set()):
            size += 1
    return size


def _initial_set_cover(C: RankCode) -> Tuple[int, int]:
    """(lambda(S), d - 1 + lambda(S)) for S the complement of the initial
    set in the top d-distance-constrained strip."""
    d = C.min_distance()
    inset = set(initial_set(C).entries)
    a = C.k - d + 1
    cells = frozenset((i, j) for i in range(1, a + 1)
                      for j in range(1, C.m + 1) if (i, j) not in inset)
    lam = min_line_cover(LinePattern(a, C.m, cells))
    return lam, d - 1 + lam


def bound_initial_set(C: RankCode) -> int:
    """d - 1 + lambda(S); see :func:`_initial_set_cover`."""
    if not C.linear or C.dim == 0:
        raise ValueError("the initial set bound needs a nonzero linear code")
    return _initial_set_cover(C)[1]


# -- maximality --

def is_maximal(C: RankCode, rho: Optional[int] = None) -> bool:
    if C.cardinality() == 1 or C.is_full_space():
        return True
    if rho is None:
        rho = covering_radius_exact(C)
    return rho <= C.min_distance() - 1


def maximality_degree(C: RankCode, rho: Optional[int] = None) -> int:
    """Minimum drop in minimum distance over all strict enlargements."""
    if C.is_full_space():
        return 1
    if C.cardinality() < 2:
        raise ValueError("the maximality degree needs at least two codewords")
    if rho is None:
        rho = covering_radius_exact(C)
    d = C.min_distance()
    return d - min(rho, d)


class BoundsReport(SimpleNamespace):
    """q, k, m, cardinality and dim, then every other field None until it
    is known; ``vars()`` lists them in this order."""

    def __init__(self, q: int, k: int, m: int, cardinality: int,
                 dim: Optional[int] = None):
        super().__init__(q=q, k=k, m=m, cardinality=cardinality, dim=dim,
                         **dict.fromkeys((
                             "min_distance", "rho_exact",
                             "bound_dual_distance", "bound_external",
                             "bound_initial_set", "bound_mrd", "bound_dqmrd",
                             "packing_lower", "is_mrd", "is_dually_qmrd",
                             "maximal", "maximality_degree")))

    def upper_bounds(self) -> List[int]:
        return [b for b in (self.bound_dual_distance, self.bound_external,
                            self.bound_initial_set, self.bound_mrd,
                            self.bound_dqmrd) if b is not None]


def bounds_report(C: RankCode, *, guard: int = ENUM_GUARD,
                  force: bool = False) -> BoundsReport:
    """Every applicable bound plus, when within the guard, exact rho.

    When the packing lower bound meets the least upper bound, that value
    is rho, with no ball search and so whatever the guard.
    """
    rep = BoundsReport(q=C.field.q, k=C.k, m=C.m,
                       cardinality=C.cardinality(),
                       dim=C.dim if C.linear else None)
    full = C.is_full_space()
    if C.cardinality() >= 2:
        rep.min_distance = C.min_distance(guard=guard)
        if not full:
            rep.packing_lower = (rep.min_distance + 1) // 2
    if C.linear and not full:
        rep.bound_dual_distance = bound_dual_distance(C)
    if not full:
        rep.bound_external = bound_external(C)
    if C.linear and C.dim > 0:
        rep.bound_initial_set = bound_initial_set(C)
    if C.cardinality() >= 2:
        rep.is_mrd = C.is_MRD()
        if rep.is_mrd:
            rep.bound_mrd = rep.min_distance - 1
    if C.linear:
        rep.is_dually_qmrd = C.is_dually_QMRD()
        if rep.is_dually_qmrd:
            rep.bound_dqmrd = rep.min_distance
    N = C.field.q ** (C.k * C.m)
    ub = min(rep.upper_bounds(), default=None)
    if full:
        rep.rho_exact = 0
    elif ub is not None and ub == rep.packing_lower:
        rep.rho_exact = ub  # lower = upper: the bounds decide rho
    elif N <= guard or force:
        rep.rho_exact = covering_radius_exact(C, guard=guard, force=force,
                                              upper_bound=ub)
    if rep.rho_exact is not None:
        rep.maximal = is_maximal(C, rep.rho_exact)
        if C.cardinality() >= 2:
            rep.maximality_degree = maximality_degree(C, rep.rho_exact)
    return rep
