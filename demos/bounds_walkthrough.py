"""Walk through every covering-radius bound on three small codes.

Run from the repository root after installing the package:

    python3 demos/bounds_walkthrough.py
"""

from rankcov.covering import bounds_report
from rankcov.reference import example_3x3, example_dqmrd_4x4, example_mrd_4x4


def show(name, code):
    rep = bounds_report(code)
    print(f"== {name}: q={rep.q}, {rep.k}x{rep.m}, "
          f"dim {rep.dim}, |C| = {rep.cardinality} ==")
    print(f"   minimum distance d = {rep.min_distance}")
    for label, value in (("dual-distance bound  k - d(dual) + 1",
                          rep.bound_dual_distance),
                         ("external distance    sigma*", rep.bound_external),
                         ("initial-set bound    d - 1 + lambda(S)",
                          rep.bound_initial_set),
                         ("MRD bound            d - 1", rep.bound_mrd),
                         ("dually-QMRD bound    d", rep.bound_dqmrd)):
        if value is not None:
            print(f"   {label} = {value}")
    print(f"   packing lower bound  floor((d+1)/2) = {rep.packing_lower}")
    print(f"   exact covering radius rho = {rep.rho_exact} "
          f"(ball search, never past the least upper bound)")
    print(f"   maximal: {rep.maximal}   maximality degree mu = "
          f"{rep.maximality_degree}")
    slack = min(rep.upper_bounds()) - rep.rho_exact
    print(f"   best upper bound is {'tight' if slack == 0 else f'off by {slack}'}")
    print()


def main():
    show("binary 3x3 code of dimension 4", example_3x3())
    show("binary 4x4 MRD code", example_mrd_4x4())
    show("binary 4x4 dually QMRD code", example_dqmrd_4x4())


if __name__ == "__main__":
    main()
