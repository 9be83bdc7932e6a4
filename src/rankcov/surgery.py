"""Puncturing and shortening of rank-metric codes.

Both operations act through an invertible row transform A and a row count
u: puncturing projects A*C onto its last k-u rows, shortening does the
same after keeping only the matrices of A*C whose first u rows vanish.
They are trace-dual to each other.
"""

from __future__ import annotations

from .ambient import left_images
from .matlin import Mat, Subspace, rank
from .codes import RankCode


def _check_transform(C: RankCode, A: Mat) -> None:
    if A.field != C.field or A.k != C.k or A.m != C.k:
        raise ValueError("A must be k x k over the code's field")
    if rank(A) != C.k:
        raise ValueError("A must be invertible")


def _check_spec(C: RankCode, A: Mat, u: int) -> None:
    _check_transform(C, A)
    if not 1 <= u <= C.k - 1:
        raise ValueError(f"u must lie in [1, {C.k - 1}]")


def _images(A: Mat, C: RankCode) -> list:
    """The index of A M for each basis row M of a linear code or word M."""
    return left_images(A, C.m, C.span.rows if C.linear else C.indices)


def _code(C: RankCode, k: int, words) -> RankCode:
    """The k x m code of C's kind spanned by, or made of, words."""
    if C.linear:
        return RankCode(C.field, k, C.m,
                        span=Subspace.of_indices(C.field, k * C.m, words))
    return RankCode(C.field, k, C.m, indices=tuple(sorted(words)))


def left_mul(A: Mat, C: RankCode) -> RankCode:
    """The isometric image A*C = {A M : M in C}."""
    _check_transform(C, A)
    return _code(C, C.k, _images(A, C))


def puncture(C: RankCode, A: Mat, u: int) -> RankCode:
    """Projection of A*C onto its last k-u rows (deduplicated for sets)."""
    _check_spec(C, A, u)
    head = C.field.q ** (u * C.m)
    return _code(C, C.k - u, {x // head for x in _images(A, C)})


def shorten(C: RankCode, A: Mat, u: int) -> RankCode:
    """Project the matrices of A*C whose first u rows are zero: in the
    RREF of a linear image, the rows that are zero there span them."""
    _check_spec(C, A, u)
    if not C.linear and C.indices[0]:
        raise ValueError("shortening requires 0 to be a codeword")
    images = _images(A, C)
    if C.linear:
        image = Subspace.of_indices(C.field, C.k * C.m, images)
        return RankCode(C.field, C.k - u, C.m, span=image.zero_head(u * C.m))
    head = C.field.q ** (u * C.m)
    return _code(C, C.k - u, [x // head for x in images if x % head == 0])
