"""Output checks for every operation, and the census of a workload's instances.

The relations hold for any seed.  At the default seed the results are also
compared with stored expected values (``expected_seed0.json``), which
``oracle.py`` cross-checks by brute force on the instances small enough.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from workloads import REPORT_UPPER, Inst


def _upper(r: Dict[str, Any]) -> List[int]:
    return [r[b] for b in REPORT_UPPER if b in r]


def report_problems(r: Dict[str, Any]) -> List[str]:
    """Relations between the fields of one bounds report."""
    p = []
    q, k, m, d = r["q"], r["k"], r["m"], r["min_distance"]
    rho, ups = r["rho_exact"], _upper(r)
    if not ups or not r["packing_lower"] <= rho <= min(ups):
        p.append(f"packing_lower {r['packing_lower']} <= rho {rho} <= "
                 f"upper bounds {ups} fails")
    if r["is_mrd"] != (r["cardinality"] == q ** (m * (k - d + 1))):
        p.append("is_mrd disagrees with the Singleton bound")
    if r["maximality_degree"] != d - min(rho, d):
        p.append("maximality_degree != d - min(rho, d)")
    if r["maximal"] != (rho <= d - 1):
        p.append("maximal != (rho <= d - 1)")
    if "dim" in r and r["cardinality"] != q ** r["dim"]:
        p.append("cardinality != q^dim")
    return p


def _shape(inst: Inst, r: Dict[str, Any]) -> List[str]:
    got = (r["q"], r["k"], r["m"])
    want = (inst.q, inst.k, inst.m)
    return [] if got == want else [f"shape {got} != instance {want}"]


def cli_bounds_problems(inst: Inst, r, objs) -> List[str]:
    return _shape(inst, r) + report_problems(r)


def enum_problems(inst: Inst, r, C) -> List[str]:
    p = []
    size = r["cardinality"]
    ambient = inst.q ** (inst.k * inst.m)
    d = r["min_distance"]
    if "weights" in r:
        W = r["weights"]
        if sum(W) != size or W[0] != 1:
            p.append("weight distribution does not sum to |C| with W_0 = 1")
        if d != next(i for i in range(1, len(W)) if W[i]):
            p.append("min_distance is not the least nonzero weight")
        if size * r["dual_size"] != ambient:
            p.append("|C| * |C-dual| != q^(km)")
    else:
        B = r["distance_pairs"]
        if sum(B) != size * size or B[0] != size:
            p.append("distance pairs do not sum to |C|^2 with B_0 = |C|")
        if d != next(i for i in range(1, len(B)) if B[i]):
            p.append("min_distance is not the least nonzero distance")
    if r["is_mrd"] != (size == inst.q ** (inst.m * (inst.k - d + 1))):
        p.append("is_mrd disagrees with the Singleton bound")
    lower = (d + 1) // 2
    if any(b < lower for b in enum_upper(r)):
        p.append("an upper bound is below the packing lower bound")
    return p


def enum_upper(r: Dict[str, Any]) -> List[int]:
    ups = [r[b] for b in ("bound_dual_distance", "external_distance",
                          "bound_initial_set") if b in r]
    if r["is_mrd"]:
        ups.append(r["min_distance"] - 1)
    if r.get("is_dually_qmrd"):
        ups.append(r["min_distance"])
    return ups


def sweep_problems(inst: Inst, r, objs) -> List[str]:
    C, P, S = objs
    rep = r["report"]
    p = _shape(inst, rep) + report_problems(rep)
    size = rep["cardinality"]
    if sum(r["coset"]) != size:
        p.append("translate weight distribution does not sum to |C|")
    if r["shorten"]["size"] > r["puncture"]["size"] or \
            not all(P.contains(M) for M in (S.basis if S.linear else S.words)):
        p.append("the shortened code is not inside the punctured code")
    if C.linear:
        if size * r["dual"]["size"] != inst.q ** (inst.k * inst.m):
            p.append("|C| * |C-dual| != q^(km)")
        if r["completed"] != r["coset"]:
            p.append("moebius_complete does not reproduce the coset tail")
        if rep["bound_dual_distance"] != inst.k - r["dual_distance"] + 1:
            p.append("bound_dual_distance != k - d(dual) + 1")
    return p


PROBLEMS = {"cli-bounds": cli_bounds_problems,
            "enum-invariants": enum_problems,
            "sweep-small": sweep_problems}


def problems(workload: str, inst: Inst, r, objs,
             expected: Optional[Dict[str, Any]]) -> List[str]:
    """Everything wrong with one operation's result; empty when correct."""
    p = PROBLEMS[workload](inst, r, objs)
    if expected is not None and r != expected:
        diff = sorted(k for k in set(r) | set(expected)
                      if r.get(k) != expected.get(k))
        p.append(f"differs from the stored expected value in {diff}")
    return p


# -- census --

def _q_kind(q: int) -> str:
    return "prime" if all(q % f for f in range(2, q)) else "prime-power"


def census(workload: str, insts: List[Inst], results) -> Dict[str, Any]:
    """Instance properties of one round and the shares of each scan class.

    Classes: the best lower bound equals the best upper bound (the scan
    could be skipped); rho equals the best upper bound (the scan stops
    early); rho is below it (the scan runs to completion).  The first is
    a subset of the second.  enum-invariants computes no rho.
    """
    fields = ("q", "k", "m", "size", "ambient", "code", "q_kind", "lower",
              "upper", "rho")
    rows = []
    for inst, r in zip(insts, results):
        rep = r.get("report", r)
        size = rep["cardinality"]
        if "rho_exact" in rep:
            lower, upper, rho = rep["packing_lower"], min(_upper(rep)), \
                rep["rho_exact"]
        else:
            lower, upper, rho = (rep["min_distance"] + 1) // 2, \
                min(enum_upper(rep)), None
        rows.append(dict(zip(fields, (
            inst.q, inst.k, inst.m, size, inst.q ** (inst.k * inst.m),
            "linear" if inst.linear else "explicit", _q_kind(inst.q),
            lower, upper, rho))))
    n = len(rows)

    def share(pred):
        return round(sum(1 for row in rows if pred(row)) / n, 4)

    known = all(row["rho"] is not None for row in rows)
    return {
        "fields": fields,
        "instances": [[row[f] for f in fields] for row in rows],
        "share_lower_eq_upper": share(lambda x: x["lower"] == x["upper"]),
        "share_rho_eq_upper": share(lambda x: x["rho"] == x["upper"])
        if known else None,
        "share_rho_lt_upper": share(lambda x: x["rho"] < x["upper"])
        if known else None,
        "share_linear": share(lambda x: x["code"] == "linear"),
        "share_prime_power_q": share(lambda x: x["q_kind"] == "prime-power"),
    }
