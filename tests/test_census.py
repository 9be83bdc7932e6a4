"""Every linear code of a few tiny shapes through `bounds_report`.

Each code's exact rho is checked against brute force over the rank table
of its ambient space, and every bound the report gives against rho.  The
shapes were fixed by a budget of about 3 s for the whole census.
"""

import pytest

from rankcov.ambient import rank_table
from rankcov.codes import RankCode
from rankcov.covering import bounds_report
from rankcov.gfield import add_index, field_from_order
from rankcov.matlin import enumerate_subspaces

UPPER = ("bound_dual_distance", "bound_external", "bound_initial_set",
         "bound_mrd", "bound_dqmrd")

# shape -> (codes, and for each upper bound the codes on which it is rho)
CENSUS = {
    (2, 2, 2): (67, {"bound_dual_distance": 24, "bound_external": 39,
                     "bound_initial_set": 58, "bound_mrd": 3,
                     "bound_dqmrd": 12}),
    (3, 2, 2): (212, {"bound_dual_distance": 83, "bound_external": 107,
                      "bound_initial_set": 193, "bound_mrd": 19,
                      "bound_dqmrd": 48}),
    (4, 2, 2): (529, {"bound_dual_distance": 218, "bound_external": 253,
                      "bound_initial_set": 496, "bound_mrd": 73,
                      "bound_dqmrd": 120}),
    (2, 2, 3): (2825, {"bound_dual_distance": 1246, "bound_external": 1298,
                       "bound_initial_set": 2089, "bound_mrd": 49,
                       "bound_dqmrd": 434}),
}


@pytest.mark.parametrize("q,k,m", sorted(CENSUS))
def test_every_linear_code_of_a_tiny_shape(q, k, m):
    F = field_from_order(q)
    n = k * m
    table = rank_table(F, k, m)
    tight = dict.fromkeys(UPPER, 0)
    count = 0
    for u in range(n + 1):
        for S in enumerate_subspaces(F, n, u):
            C = RankCode(F, k, m, span=S)
            rep = bounds_report(C)
            words = C.word_indices()
            rho = max(min(table[add_index(F, w, x)] for w in words)
                      for x in range(q ** n))
            assert rep.rho_exact == rho, S.rows
            assert all(b >= rho for b in rep.upper_bounds()), vars(rep)
            if rep.packing_lower is not None:
                assert rep.packing_lower <= rho, vars(rep)
            for name in UPPER:
                tight[name] += getattr(rep, name) == rho
            count += 1
    assert (count, tight) == CENSUS[q, k, m]
