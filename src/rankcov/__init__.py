"""Exact-arithmetic analysis of matrix codes under the rank metric.

Covers field and matrix arithmetic over GF(q), exact q-combinatorics,
rank-metric codes with their duals and coset structure, puncturing and
shortening, the exact covering radius with all its combinatorial bounds,
and constructions of MRD / dually quasi-MRD / linearized-map codes.

The public names below load their module on first access (PEP 562), so
``import rankcov`` costs nothing and ``rankcov bounds`` imports only the
modules it runs.
"""

from importlib import import_module

_HOMES = {
    "gfield": ("FieldSpec", "extension_field", "field_from_order",
               "make_field"),
    "matlin": ("Mat", "Subspace", "column_space", "devectorize",
               "enumerate_subspaces", "kernel", "rank", "random_invertible",
               "rref", "trace_inner", "vectorize"),
    "qcomb": ("KrawtchoukTable", "build_table", "gaussian_binomial",
              "krawtchouk", "macwilliams_transform", "rank_sphere_size",
              "subspace_moebius"),
    "codes": ("GuardExceeded", "RankCode"),
    "surgery": ("left_mul", "puncture", "shorten"),
    "cosets": ("AnnihilatorPoly", "CosetProfile", "annihilator",
               "coset_profile", "high_dim_section_count", "moebius_complete",
               "verify_annihilator"),
    "covering": ("BoundsReport", "InitialSet", "LinePattern",
                 "bound_dual_distance", "bound_external", "bound_initial_set",
                 "bounds_report", "covering_radius_exact",
                 "external_distance", "initial_set", "is_maximal",
                 "maximality_degree", "min_line_cover"),
    "construct": ("dually_qmrd", "gabidulin", "linearized_map_code",
                  "nested_gabidulin", "random_code", "random_linear_code"),
}
# public name -> the module that defines it
_TABLE = {name: module for module, names in _HOMES.items() for name in names}

__all__ = tuple(_TABLE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _TABLE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
