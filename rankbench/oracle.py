"""Brute-force oracle over GF(2), GF(3) and GF(4), independent of rankcov.

Matrices are row-major tuples of element codes, in the encoding rankcov
uses: for GF(4) the two bits are the coefficients of 1 and a, with
a^2 = a + 1.  Every quantity is computed from its definition, so it only
runs on small instances; ``cross_check`` skips the rest.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Sequence, Tuple

BUDGET = 1 << 16  # rank evaluations per instance and quantity


class Field:
    def __init__(self, q: int):
        if q == 4:
            def mul(a, b):
                r = (a if b & 1 else 0) ^ ((a << 1) if b & 2 else 0)
                return r ^ 0b111 if r & 4 else r
            add = int.__xor__
        elif q in (2, 3):
            def mul(a, b):
                return a * b % q

            def add(a, b):
                return (a + b) % q
        else:
            raise ValueError(f"the oracle covers q in (2, 3, 4), not {q}")
        self.q = q
        self.add = [[add(a, b) for b in range(q)] for a in range(q)]
        self.mul = [[mul(a, b) for b in range(q)] for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0)
                    for a in range(q)]
        self.inv = [0] + [next(b for b in range(q) if self.mul[a][b] == 1)
                          for a in range(1, q)]

    def sub(self, x: Sequence[int], y: Sequence[int]) -> Tuple[int, ...]:
        return tuple(self.add[a][self.neg[b]] for a, b in zip(x, y))

    def rank(self, entries: Sequence[int], k: int, m: int) -> int:
        rows = [list(entries[i * m:(i + 1) * m]) for i in range(k)]
        r = 0
        for col in range(m):
            piv = next((i for i in range(r, k) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            s = self.inv[rows[r][col]]
            rows[r] = [self.mul[s][x] for x in rows[r]]
            for i in range(k):
                c = rows[i][col]
                if i != r and c:
                    rows[i] = [self.add[x][self.neg[self.mul[c][y]]]
                               for x, y in zip(rows[i], rows[r])]
            r += 1
        return r

    def span(self, gens: List[Tuple[int, ...]], n: int) -> List[Tuple[int, ...]]:
        out = set()
        for coeffs in itertools.product(range(self.q), repeat=len(gens)):
            v = [0] * n
            for c, g in zip(coeffs, gens):
                if c:
                    v = [self.add[x][self.mul[c][y]] for x, y in zip(v, g)]
            out.add(tuple(v))
        return sorted(out)


def _ambient(q: int, n: int):
    return itertools.product(range(q), repeat=n)


def cross_check(q: int, k: int, m: int, linear: bool,
                entries: List[Tuple[int, ...]], expected: Dict[str, Any],
                X: Sequence[int] = (), budget: int = BUDGET
                ) -> Tuple[int, List[str]]:
    """Compare stored expected values with brute force.

    ``entries`` are a basis of a linear code or the words of an explicit
    one.  Each quantity is checked when its rank evaluations fit
    in ``budget``.  Returns (rank evaluations spent, problems); 0 spent
    means the instance was too large to check at all.
    """
    F = Field(q)
    n = k * m
    N = q ** n
    size = q ** len(entries) if linear else len(set(entries))
    if (size if linear else size * size) > budget:
        return 0, []
    words = F.span(entries, n) if linear else sorted(set(entries))
    rep = expected.get("report", expected)
    p = []
    spent = size if linear else size * size
    if linear:
        dist = [0] * (k + 1)
        for w in words:
            dist[F.rank(w, k, m)] += size
    else:
        dist = [0] * (k + 1)
        for a in words:
            for b in words:
                dist[F.rank(F.sub(a, b), k, m)] += 1
    d = next(i for i in range(1, k + 1) if dist[i])
    if rep["cardinality"] != size:
        p.append(f"cardinality {rep['cardinality']} != oracle {size}")
    if rep["min_distance"] != d:
        p.append(f"min_distance {rep['min_distance']} != oracle {d}")
    if "weights" in rep and rep["weights"] != [x // size for x in dist]:
        p.append("weight distribution differs from the oracle")
    if "distance_pairs" in rep and rep["distance_pairs"] != dist:
        p.append("distance distribution differs from the oracle")
    if "rho_exact" in rep and N * size <= budget:
        spent += N * size
        rho = max(min(F.rank(F.sub(x, c), k, m) for c in words)
                  for x in _ambient(q, n))
        if rep["rho_exact"] != rho:
            p.append(f"rho_exact {rep['rho_exact']} != oracle {rho}")
    if linear and N <= budget:
        spent += N
        dual = [x for x in _ambient(q, n)
                if all(_dot(F, x, g) == 0 for g in entries)]
        if size * len(dual) != N:
            p.append("|C| * |C-dual| != q^(km) by brute force")
        if "bound_dual_distance" in rep:
            d_perp = min(F.rank(x, k, m) for x in dual if any(x))
            if rep["bound_dual_distance"] != k - d_perp + 1:
                p.append("bound_dual_distance differs from the oracle")
    if "coset" in expected:
        spent += size
        W = [0] * (k + 1)
        for c in words:
            W[F.rank(tuple(F.add[a][b] for a, b in zip(X, c)), k, m)] += 1
        if expected["coset"] != W:
            p.append("translate weight distribution differs from the oracle")
    return spent, p


def _dot(F: Field, x: Sequence[int], y: Sequence[int]) -> int:
    acc = 0
    for a, b in zip(x, y):
        acc = F.add[acc][F.mul[a][b]]
    return acc
