"""Seeded instances and operations of the three rankcov benchmark workloads.

Every operation is written once against a ``call(name, fn, *args)`` hook.
The timed runs pass ``DIRECT``, which just calls ``fn``; the traced run
passes a ``trace.Tracer``, which records one span per call.  Only
``rankcov``'s public functions are called, so the spans sit at the
boundaries between the package's modules.

Importing this module imports ``rankcov``; the runner times that import as
part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from rankcov import ambient, cli, construct, cosets, covering, surgery
from rankcov.codes import RankCode
from rankcov.gfield import field_from_order
from rankcov.matlin import Mat, random_invertible

REPORT_UPPER = ("bound_dual_distance", "bound_external", "bound_initial_set",
                "bound_mrd", "bound_dqmrd")


class Direct:
    """The untraced hook: calls straight through."""

    traced = False

    def __call__(self, name, fn, *args, work=None, **kwargs):
        return fn(*args, **kwargs)


DIRECT = Direct()


@dataclass
class Inst:
    """One seeded instance: how to build its code and what to do with it."""

    kind: str           # mrd | random_linear | generators | random_set | set
    q: int
    k: int
    m: int
    param: int          # d, dim, generator count or word count
    seed: int
    path: str = ""      # rmc file (cli-bounds)
    gens: List[Tuple[int, ...]] = dc_field(default_factory=list)  # entries
    code: Optional[RankCode] = None  # cli-bounds: the code written to path
    A: Optional[Mat] = None
    u: int = 1
    X: Optional[Mat] = None

    @property
    def linear(self) -> bool:
        return self.kind in ("mrd", "random_linear", "generators")


def build_code(inst: Inst, call) -> RankCode:
    """The seeded code of an instance, through the public constructors."""
    F = field_from_order(inst.q)
    k, m = inst.k, inst.m
    if inst.kind == "mrd":
        # a seeded isometry X -> A X B of a Gabidulin code is again MRD
        G = call("construct.gabidulin", construct.gabidulin,
                 inst.q, k, m, inst.param)
        A = random_invertible(F, k, inst.seed)
        B = random_invertible(F, m, inst.seed + 1)
        return call("codes.from_generators", RankCode.from_generators,
                    F, k, m, [A @ M @ B for M in G.basis])
    if inst.kind == "random_linear":
        return call("construct.random_linear_code",
                    construct.random_linear_code, F, k, m, inst.param,
                    inst.seed)
    if inst.kind == "random_set":
        return call("construct.random_code", construct.random_code,
                    F, k, m, inst.param, inst.seed)
    mats = [Mat(F, k, m, g) for g in inst.gens]
    if inst.kind == "generators":
        return call("codes.from_generators", RankCode.from_generators,
                    F, k, m, mats)
    return call("codes.from_codewords", RankCode.from_codewords, F, k, m, mats)


# -- bounds report, as the CLI prints it and as the traced replay builds it --

def report_dict(rep: covering.BoundsReport) -> Dict[str, Any]:
    return {k: v for k, v in vars(rep).items() if v is not None}


def parse_report(text: str) -> Dict[str, Any]:
    """The `rankcov bounds` output as a dict of ints and bools."""
    out = {}
    for line in text.splitlines():
        key, value = line.split(" ", 1)
        out[key] = {"true": True, "false": False}.get(value) \
            if value in ("true", "false") else int(value)
    return out


def replay_bounds(C: RankCode, call) -> Dict[str, Any]:
    """The public calls covering.bounds_report makes, in its order.

    Holds for the codes this benchmark builds: at least two words, never
    the full space, ambient space within the scan guard.
    """
    q, k, m = C.field.q, C.k, C.m
    size = C.cardinality()
    rep: Dict[str, Any] = {"q": q, "k": k, "m": m, "cardinality": size}
    if C.linear:
        rep["dim"] = C.dim
    work = {"words": size} if C.linear else None
    d = rep["min_distance"] = call("codes.min_distance", C.min_distance,
                                   work=work)
    rep["packing_lower"] = (d + 1) // 2
    if C.linear:
        rep["bound_dual_distance"] = call("covering.bound_dual_distance",
                                          covering.bound_dual_distance, C)
    rep["bound_external"] = call("covering.external_distance",
                                 covering.external_distance, C)
    if C.linear:
        rep["bound_initial_set"] = call("covering.bound_initial_set",
                                        covering.bound_initial_set, C)
    rep["is_mrd"] = call("codes.is_MRD", C.is_MRD)
    if rep["is_mrd"]:
        rep["bound_mrd"] = d - 1
    if C.linear:
        rep["is_dually_qmrd"] = call("codes.is_dually_QMRD", C.is_dually_QMRD)
        if rep["is_dually_qmrd"]:
            rep["bound_dqmrd"] = d
    ub = min(rep[b] for b in REPORT_UPPER if b in rep)
    N = q ** (k * m)
    rho = rep["rho_exact"] = call(
        "covering.covering_radius_exact", covering.covering_radius_exact, C,
        upper_bound=ub, work={"ambient_points": N, "pair_bound": N * size})
    rep["maximal"] = rho <= d - 1
    rep["maximality_degree"] = call("covering.maximality_degree",
                                    covering.maximality_degree, C, rho)
    return rep


# -- cli-bounds --

# Three cost tiers of three instances each, so that the median operation
# lies inside the middle tier (the GF(2) 4x4 codes, whose cold 2^16 table
# dominates) whatever the seed draws; with four cheap instances and one
# costly one, the median sat at the fastest GF(2) 4x4 call and moved by
# 20 % from seed to seed.  Every code costs about the same for any seed.
# GF(2) 4x5 and GF(4) 3x3 are left out: their cold rank tables alone take
# 2.5 s and 5-8 s, and with GF(2) 4x5 a run held only six rounds.  The
# GF(3) 3x3 code is MRD: as a random code its scan took 0.02-0.3 s with
# the seed.
CLI_BOUNDS = (
    # kind, q, k, m, param; the comment gives the scan class seen so far
    ("mrd", 2, 3, 3, 2),             # lower bound = upper bound
    ("random_set", 2, 3, 3, 8),      # scan runs to completion
    ("mrd", 4, 2, 3, 2),             # lower bound = upper bound; GF(4)
    ("random_linear", 2, 4, 4, 5),   # either
    ("random_set", 2, 4, 4, 4),      # scan stops early
    ("random_set", 2, 4, 4, 16),     # scan runs to completion
    ("mrd", 3, 3, 3, 2),             # lower bound = upper bound; GF(3)
    ("mrd", 2, 3, 6, 3),             # lower bound = upper bound; 2^18 table
    ("random_linear", 2, 3, 6, 6),   # scan runs to completion
)


def run_child(cmd: List[str], env: Dict[str, str]) -> Tuple[int, str, int]:
    """Run a child to completion; (exit code, output, peak RSS in KiB)."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, env=env)
    with p.stdout:
        out = p.stdout.read().decode()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, usage.ru_maxrss


class Workload:
    """Instances of one round plus the operation run on each."""

    name = ""

    def __init__(self, seed: int, call, workdir: Path, src: Path):
        self.seed = seed
        self.workdir = workdir
        self.src = src
        self.rng = random.Random(f"{self.name}:{seed}")
        self.insts = self.make(call)

    def _seed(self) -> int:
        return self.rng.randrange(1 << 30)

    def make(self, call) -> List[Inst]:
        raise NotImplementedError

    def op(self, inst: Inst, call) -> Tuple[Dict[str, Any], Any]:
        """Run one operation; (result, (code, derived codes...))."""
        raise NotImplementedError

    def replay(self, inst: Inst, call) -> Tuple[Dict[str, Any], Any]:
        """The same operation as explicit public calls, for the traced run."""
        return self.op(inst, call)

    def inline(self, inst: Inst) -> Tuple[Dict[str, Any], Any]:
        """The untraced operation, in this process, for the overhead ratio."""
        return self.op(inst, DIRECT)


class CliBounds(Workload):
    """`python -m rankcov bounds FILE` in a child process per operation."""

    name = "cli-bounds"

    def make(self, call):
        self.workdir.mkdir(parents=True, exist_ok=True)
        insts = []
        for i, (kind, q, k, m, param) in enumerate(CLI_BOUNDS):
            inst = Inst(kind, q, k, m, param, self._seed())
            C = inst.code = build_code(inst, call)
            inst.path = str(self.workdir / f"{i:02d}.rmc")
            with open(inst.path, "w") as fh:
                fh.write(cli.serialize(C))
            insts.append(inst)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.peak_kib = 0
        return insts

    def op(self, inst, call):
        rc, out, peak = run_child(
            [sys.executable, "-m", "rankcov", "bounds", inst.path], self.env)
        self.peak_kib = max(self.peak_kib, peak)
        if rc != 0:
            raise RuntimeError(f"rankcov bounds exited {rc}: {out[-300:]}")
        return parse_report(out), (inst.code,)

    def replay(self, inst, call):
        ambient.rank_table.cache_clear()  # a child process starts cold
        C = call("cli.parse", cli.parse, inst.path)
        N = inst.q ** (inst.k * inst.m)
        call("ambient.rank_table", ambient.rank_table, C.field, C.k, C.m,
             work={"entries": N})
        return replay_bounds(C, call), (C,)

    def inline(self, inst):
        ambient.rank_table.cache_clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["bounds", inst.path])
        if rc != 0:
            raise RuntimeError(f"rankcov bounds returned {rc}")
        return parse_report(buf.getvalue()), (inst.code,)


# -- enum-invariants --

# Codes of 2^10-2^12 words (and duals no larger), so that no operation
# takes more than about 0.3 s and a run repeats each one some 30 times.
# With 2^12-2^15 words an operation took 0.3-1.5 s, a run held 6-8
# repeats, and the run-to-run spread on a shared host reached 20-28 %.
# Three instances cost less and three more than the GF(4) linear code, so
# the median operation is that code, whose cost hardly moves with the seed.
ENUM_INVARIANTS = (
    ("random_linear", 3, 3, 3, 6),    # 729 words, dual 27
    ("random_linear", 2, 4, 5, 10),   # 1024 words, dual 1024
    ("random_set", 4, 3, 3, 24),
    ("random_linear", 4, 3, 3, 5),    # 1024 words, dual 256; the median
    ("random_linear", 3, 3, 4, 7),    # 2187 words, dual 243
    ("random_set", 2, 5, 5, 64),
    ("random_linear", 2, 5, 5, 12),   # 4096 words, dual 8192
)


class EnumInvariants(Workload):
    """Invariants that enumerate codewords; never a covering scan."""

    name = "enum-invariants"

    def make(self, call):
        return [Inst(kind, q, k, m, param, self._seed())
                for kind, q, k, m, param in ENUM_INVARIANTS]

    def op(self, inst, call):
        C = build_code(inst, call)
        size = C.cardinality()
        r: Dict[str, Any] = {"cardinality": size}
        if C.linear:
            r["min_distance"] = call("codes.min_distance", C.min_distance,
                                     work={"words": size})
            r["weights"] = call("codes.weight_distribution",
                                C.weight_distribution)
            D = call("codes.dual", C.dual)
            r["dual_size"] = D.cardinality()
            r["bound_dual_distance"] = call("covering.bound_dual_distance",
                                            covering.bound_dual_distance, C)
        else:
            r["min_distance"] = call("codes.min_distance", C.min_distance)
            B = call("codes.distance_distribution", C.distance_distribution,
                     work={"pairs": size * size})
            r["distance_pairs"] = [int(b * size) for b in B]
        r["external_distance"] = call("covering.external_distance",
                                      covering.external_distance, C)
        if C.linear:
            r["bound_initial_set"] = call("covering.bound_initial_set",
                                          covering.bound_initial_set, C)
        r["is_mrd"] = call("codes.is_MRD", C.is_MRD)
        if C.linear:
            r["is_dually_qmrd"] = call("codes.is_dually_QMRD",
                                       C.is_dually_QMRD)
        return r, (C,)


# -- sweep-small --

# GF(4) 2x3 and GF(3) 3x3 are left out: a few of their codes need a full
# covering scan that costs 50-1000 times a typical operation, so the
# seed would decide the round's total.  cli-bounds covers GF(3) 3x3.
SWEEP_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 2, 3),
                (4, 2, 2))
# per shape and round; dimensions, generator counts and sizes are cycled,
# not drawn, so every seed does the same mix of work (3/4 linear)
SWEEP_MIX = (("random_linear", 18), ("generators", 18), ("set", 12))


class SweepSmall(Workload):
    """Many small codes: bounds, surgery, dual and a translate each."""

    name = "sweep-small"

    def make(self, call):
        insts = []
        for q, k, m in SWEEP_SHAPES:
            F = field_from_order(q)
            n = k * m
            N = q ** n
            for kind, count in SWEEP_MIX:
                for j in range(count):
                    dim = 1 + j % (n - 1)
                    if kind == "random_linear":
                        inst = Inst(kind, q, k, m, dim, self._seed())
                    elif kind == "generators":
                        gens = []
                        while len(gens) < dim:
                            v = tuple(self.rng.randrange(q) for _ in range(n))
                            if any(v):
                                gens.append(v)
                        inst = Inst(kind, q, k, m, dim, 0, gens=gens)
                    else:
                        size = 3 + j % (min(12, N // 4) - 2)
                        picks = [0] + self.rng.sample(range(1, N), size - 1)
                        words = [tuple((i // q ** t) % q for t in range(n))
                                 for i in picks]
                        inst = Inst(kind, q, k, m, size, 0, gens=words)
                    inst.A = random_invertible(F, k, self._seed())
                    inst.u = self.rng.randrange(1, k)
                    inst.X = Mat(F, k, m, [self.rng.randrange(q)
                                           for _ in range(n)])
                    insts.append(inst)
        # warm rank tables: every shape's table is built once, before timing
        for q, k, m in SWEEP_SHAPES:
            call("ambient.rank_table", ambient.rank_table,
                 field_from_order(q), k, m, work={"entries": q ** (k * m)})
        return insts

    def op(self, inst, call):
        C = build_code(inst, call)
        if call.traced:
            rep = replay_bounds(C, call)
        else:
            rep = report_dict(call("covering.bounds_report",
                                   covering.bounds_report, C))
        P = call("surgery.puncture", surgery.puncture, C, inst.A, inst.u)
        S = call("surgery.shorten", surgery.shorten, C, inst.A, inst.u)
        prof = call("cosets.coset_profile", cosets.coset_profile, C, inst.X)
        r: Dict[str, Any] = {"report": rep, "puncture": _size(P),
                             "shorten": _size(S), "coset": list(prof.W)}
        if C.linear:
            D = call("codes.dual", C.dual)
            d_perp = call("codes.min_distance", D.min_distance,
                          work={"words": D.cardinality()})
            r["dual"] = _size(D)
            r["dual_distance"] = d_perp
            r["completed"] = call(
                "cosets.moebius_complete", cosets.moebius_complete,
                C.field.q, C.k, C.m, C.cardinality(), d_perp,
                prof.W[:C.k - d_perp + 1])
        return r, (C, P, S)


def _size(C: RankCode) -> Dict[str, Any]:
    return {"size": C.cardinality(), "dim": C.dim if C.linear else None}


WORKLOADS = {w.name: w for w in (CliBounds, EnumInvariants, SweepSmall)}
