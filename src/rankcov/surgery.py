"""Puncturing and shortening of rank-metric codes.

Both operations act through an invertible row transform A and a row count
u: puncturing projects A*C onto its last k-u rows, shortening does the
same after keeping only the matrices of A*C whose first u rows vanish.
They are trace-dual to each other.
"""

from __future__ import annotations

from .gfield import add_index, scale_index
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


def _project(M: Mat, u: int) -> Mat:
    """Projection on the last k-u rows."""
    return Mat._of(M.field, M.k - u, M.m, M.entries[u * M.m:])


def _images(A: Mat, C: RankCode) -> list:
    """The index of A B for each basis row B of the linear code C, on
    packed rows: row i of A B sums A[i, j] times row j of B."""
    F, w, out = C.field, C.field.q ** C.m, []  # w: one row of m entries
    for v in C.span.rows:
        rows, image = [v // w ** j % w for j in range(C.k)], 0
        for i in range(C.k):
            for a, r in zip(A.row(i), rows):
                image = add_index(F, image, scale_index(F, a, r, C.m) * w ** i)
        out.append(image)
    return out


def left_mul(A: Mat, C: RankCode) -> RankCode:
    """The isometric image A*C = {A M : M in C}."""
    _check_transform(C, A)
    if C.linear:
        return RankCode.from_generators(C.field, C.k, C.m,
                                        [A @ B for B in C.basis])
    return RankCode.from_codewords(C.field, C.k, C.m,
                                   [A @ M for M in C.words])


def puncture(C: RankCode, A: Mat, u: int) -> RankCode:
    """Projection of A*C onto its last k-u rows (deduplicated for sets)."""
    _check_spec(C, A, u)
    if C.linear:
        head = C.field.q ** (u * C.m)
        return RankCode(C.field, C.k - u, C.m, span=Subspace.of_indices(
            C.field, (C.k - u) * C.m, [x // head for x in _images(A, C)]))
    images = {_project(A @ M, u) for M in C.words}
    return RankCode.from_codewords(C.field, C.k - u, C.m, list(images))


def shorten(C: RankCode, A: Mat, u: int) -> RankCode:
    """Project the matrices of A*C whose first u rows are zero."""
    _check_spec(C, A, u)
    if not C.linear and not C.contains(Mat.zero(C.field, C.k, C.m)):
        raise ValueError("shortening requires 0 to be a codeword")
    if C.linear:
        image = Subspace.of_indices(C.field, C.k * C.m, _images(A, C))
        return RankCode(C.field, C.k - u, C.m, span=image.zero_head(u * C.m))
    images = (A @ M for M in C.words)
    kept = [_project(AM, u) for AM in images
            if all(x == 0 for x in AM.entries[: u * C.m])]
    return RankCode.from_codewords(C.field, C.k - u, C.m, kept)
