#!/usr/bin/env python3
"""rankcov benchmark: three workloads, measured end to end and per layer.

Run from the root of a checkout; the package is imported from ./src:

    python3 rankbench/run.py --workload cli-bounds --seed 1 --seconds 40 --trace 0

Workloads (see README.md next to this file): cli-bounds, enum-invariants,
sweep-small.  The load is a closed loop with one caller: the next
operation starts when the previous one has finished.  Operations run in
rounds over the seeded instance list, and only whole rounds are measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs one round, each
operation untraced and traced, and prints the per-layer metrics.  The
second-to-last line of output is a JSON record with the census of the
instances and the figures that are not metrics; the last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
SETUP_PROBES = 16        # extra set-ups in child processes, for setup_s
CALIB_EVERY_S = 1.0
# brute-force rank evaluations per run: the default seed checks the stored
# expected values, other seeds spot-check their own results
ORACLE_BUDGET = 1 << 19
SPOT_BUDGET = 1 << 16
WORKLOADS = ("cli-bounds", "enum-invariants", "sweep-small")

# one span per public call the operations make
SPANS = ("ambient.rank_table", "cli.parse", "codes.from_generators",
         "codes.from_codewords", "codes.min_distance",
         "codes.weight_distribution", "codes.distance_distribution",
         "codes.dual", "codes.is_MRD", "codes.is_dually_QMRD",
         "construct.gabidulin", "construct.random_linear_code",
         "construct.random_code", "covering.bound_dual_distance",
         "covering.external_distance", "covering.bound_initial_set",
         "covering.covering_radius_exact", "covering.maximality_degree",
         "surgery.puncture", "surgery.shorten", "cosets.coset_profile",
         "cosets.moebius_complete", "qcomb.build_table",
         "qcomb.macwilliams_transform", "bench.op")


def fail(msg: str) -> None:
    print(f"rankbench: {msg}", file=sys.stderr)
    sys.exit(2)


def calib_ms() -> float:
    """A fixed pure-Python loop, timed: evidence of host speed only."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def setup(name: str, seed: int, traced: bool, tag: str):
    """Import rankcov from ./src and build the seeded instances.

    Returns (workload, seconds, call hook).  The time covers the import,
    instance generation and, for sweep-small, warming the rank tables.
    """
    t0 = time.perf_counter()
    if not (SRC / "rankcov" / "__init__.py").is_file():
        fail(f"no rankcov package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankcov
    if Path(rankcov.__file__).resolve().parent != (SRC / "rankcov").resolve():
        fail(f"rankcov was imported from {rankcov.__file__}, not {SRC}")
    import workloads
    if traced:
        import tracing
        call = tracing.Tracer()
    else:
        call = workloads.DIRECT
    wl = workloads.WORKLOADS[name](seed, call, OUT / f"{name}-{seed}-{tag}",
                                   SRC)
    return wl, time.perf_counter() - t0, call


def emit(section: str, values: dict, correct: bool, attempted: int,
         failed: int) -> None:
    """Print the result line; every metric must be declared in BENCHMARK.json."""
    decl = {d["name"]: d["unit"] for d in
            json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    if set(values) != set(decl):
        fail(f"metrics differ from BENCHMARK.json {section}: "
             f"undeclared {sorted(set(values) - set(decl))}, "
             f"missing {sorted(set(decl) - set(values))}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": decl[k]}
                                  for k, v in values.items()}}))


def load_expected(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "expected_seed0.json").read_text())[name]


def flip_one(value):
    """A copy with its first integer (depth first) changed."""
    if isinstance(value, dict):
        out = dict(value)
        for key, v in out.items():
            flipped = flip_one(v)
            if flipped is not None:
                out[key] = flipped
                return out
    elif isinstance(value, list):
        for i, v in enumerate(value):
            flipped = flip_one(v)
            if flipped is not None:
                return value[:i] + [flipped] + value[i + 1:]
    elif isinstance(value, int) and not isinstance(value, bool):
        return value + 1
    return None


def corruptions(result: dict) -> dict:
    """Copies of a correct result, each breaking one checked relation."""
    from workloads import REPORT_UPPER

    def edit(change):
        out = copy.deepcopy(result)
        change(out.get("report", out))
        return out

    def negate_mrd(r):
        r["is_mrd"] = not r["is_mrd"]

    def rho_above_upper(r):
        r["rho_exact"] = min(r[b] for b in REPORT_UPPER if b in r) + 1

    def double_dual(r):
        r["dual_size"] *= 2

    rep = result.get("report", result)
    out = {"is_mrd negated": edit(negate_mrd)}
    if "rho_exact" in rep:
        out["rho above the least upper bound"] = edit(rho_above_upper)
    if "dual_size" in rep:
        out["dual twice as large"] = edit(double_dual)
    return out


def oracle_check(insts, results, objs, budget: int) -> tuple:
    """Cross-check results by brute force, cheapest instances first.

    Returns (instances checked, [(instance, problem), ...]).
    """
    import oracle
    order = sorted(range(len(insts)),
                   key=lambda i: insts[i].q ** (insts[i].k * insts[i].m)
                   * (objs[i][0].cardinality() if objs[i] else 0))
    left, checked, problems = budget, 0, []
    for i in order:
        if objs[i] is None:
            continue
        inst, C = insts[i], objs[i][0]
        entries = [M.entries for M in (C.basis if C.linear else C.words)]
        spent, p = oracle.cross_check(
            inst.q, inst.k, inst.m, C.linear, entries, results[i],
            inst.X.entries if inst.X is not None else (),
            budget=min(oracle.BUDGET, left))
        left -= spent
        checked += spent > 0
        problems += [(i, x) for x in p]
    return checked, problems


def judge(wl, i, r, objs, expected, log) -> int:
    """1 when operation i's result fails a check, logging why; else 0."""
    import checks
    bad = checks.problems(wl.name, wl.insts[i], r, objs,
                          expected[i] if expected else None)
    if bad:
        log(f"instance {i}: {'; '.join(bad)}")
    return int(bool(bad))


def run_round(wl, call, expected, log) -> tuple:
    """One pass over the instances; (op seconds, results, objs, failed).

    The three lists follow the instances, with None where an operation
    raised.
    """
    times, results, objs, failed = [], [], [], 0
    for i, inst in enumerate(wl.insts):
        t0 = time.perf_counter()
        try:
            r, o = wl.op(inst, call)
        except Exception as exc:  # counted, reported, and the loop goes on
            failed += 1
            log(f"instance {i}: {type(exc).__name__}: {exc}")
            times.append(None)
            results.append(None)
            objs.append(None)
            continue
        times.append(time.perf_counter() - t0)
        failed += judge(wl, i, r, o, expected, log)
        results.append(r)
        objs.append(o)
        log.maybe_calibrate()
    return times, results, objs, failed


class Log:
    """Problems to stderr, plus host calibration between operations."""

    def __init__(self):
        self.calib = [calib_ms()]
        self.last = time.perf_counter()

    def __call__(self, msg: str) -> None:
        print(f"rankbench: {msg}", file=sys.stderr)

    def maybe_calibrate(self) -> None:
        if time.perf_counter() - self.last >= CALIB_EVERY_S:
            self.calib.append(calib_ms())
            self.last = time.perf_counter()

    def calib_summary(self) -> dict:
        return {"median": median(self.calib), "min": min(self.calib),
                "max": max(self.calib), "samples": len(self.calib)}


def self_check(wl, results, objs, expected) -> dict:
    """Break one result in several ways; each must count as a failed op.

    Every broken copy goes through judge(), as the timed rounds' results
    do.  The relation checks see copies that each break one relation,
    with no expected value; the comparison sees one expected value
    flipped (at other seeds than the default, the run's own result
    flipped).
    """
    def quiet(msg):
        pass

    i = next(j for j, r in enumerate(results) if r is not None)
    r, o = results[i], objs[i]
    caught = {what: judge(wl, i, bad, o, None, quiet) == 1
              for what, bad in corruptions(r).items()}
    want = list(expected) if expected else [None] * len(results)
    want[i] = flip_one(want[i] if expected else r)
    caught["one expected value flipped"] = \
        judge(wl, i, r, o, want, quiet) == 1
    return caught


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of one fresh child process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def timed(args) -> None:
    wl, setup_s, call = setup(args.workload, args.seed, False, str(os.getpid()))
    import checks
    expected = load_expected(args.workload, args.seed)
    log = Log()
    rounds, failed, first = [], 0, None
    # set-up probes are spread over the run, between rounds, so that their
    # median samples the host over the whole run and not one moment of it
    setups, probe_every = [setup_s], args.seconds / SETUP_PROBES
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        times, results, objs, f = run_round(wl, call, expected, log)
        rounds.append(times)
        failed += f
        first = first or (results, objs)
        now = time.perf_counter()
        if len(setups) <= SETUP_PROBES and \
                now - start >= (len(setups) - 1) * probe_every:
            setups.append(setup_probe(args.workload, args.seed))
            now = time.perf_counter()
        if now - start + (now - r0) > args.seconds:
            break
    # the program's peak, before the oracle and the self-check allocate
    if args.workload == "cli-bounds":
        peak_kib = wl.peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(rounds) * len(wl.insts)
    # every completed operation of every round counts: whole rounds only,
    # so each instance weighs the same
    op_s = [t for ts in rounds for t in ts if t is not None]
    if not op_s:
        fail("no operation completed")
    results, objs = first
    caught = self_check(wl, results, objs, expected)
    if expected is not None:
        checked, bad = oracle_check(wl.insts, expected, objs, ORACLE_BUDGET)
    else:
        checked, bad = oracle_check(wl.insts, results, objs, SPOT_BUDGET)
    for i, msg in bad:
        log(f"instance {i}: oracle: {msg}")
    failed += len({i for i, _ in bad})
    correct = failed == 0 and all(caught.values())
    while len(setups) <= SETUP_PROBES:
        setups.append(setup_probe(args.workload, args.seed))
    report = {"ops": attempted, "rounds": len(rounds),
              "ops_failed_frac": failed / attempted,
              "self_check_caught": caught,
              "oracle_checked_instances": checked}
    report["op_s_min"] = min(op_s)
    report["op_s_max"] = max(op_s)
    if len(op_s) >= 100:
        report["op_s_p90"] = quantiles(op_s, n=10)[-1]
    report["setup_s_samples"] = setups
    report["host.calib_ms"] = log.calib_summary()
    shutil.rmtree(wl.workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": 0, "report": report,
                      "census": checks.census(
                          args.workload,
                          [x for x, r in zip(wl.insts, results) if r],
                          [r for r in results if r])}))
    emit("end_to_end", {
        "setup_s": median(setups),
        "ops_per_s": len(op_s) / sum(op_s),
        "op_s_p50": median(op_s),
        "peak_rss_mb": peak_kib / 1024,
    }, correct, attempted, failed)


def traced(args) -> None:
    wl, _, tracer = setup(args.workload, args.seed, True, str(os.getpid()))
    import checks
    import tracing
    expected = load_expected(args.workload, args.seed)
    log = Log()
    failed, untraced_s, traced_s = 0, 0.0, 0.0
    results, codes = [], []
    for i, inst in enumerate(wl.insts):
        tracer.op = i
        try:
            # untraced, traced, traced, untraced; each side at its faster
            # run, so order and warm-up favour neither.  Only the first
            # traced run keeps its spans.
            t0 = time.perf_counter()
            want, _ = wl.inline(inst)
            t1 = time.perf_counter()
            got, objs = tracer("bench.op", wl.replay, inst, tracer)
            t2 = time.perf_counter()
            spare = tracing.Tracer()
            spare("bench.op", wl.replay, inst, spare)
            t3 = time.perf_counter()
            wl.inline(inst)
            t4 = time.perf_counter()
            untraced_s += min(t1 - t0, t4 - t3)
            traced_s += min(t2 - t1, t3 - t2)
        except Exception as exc:  # counted, reported, and the loop goes on
            failed += 1
            log(f"instance {i}: {type(exc).__name__}: {exc}")
            results.append(None)
            continue
        bad = checks.problems(wl.name, inst, got, objs,
                              expected[i] if expected else None)
        if got != want:
            bad.append("the traced replay differs from the untraced result")
        if bad:
            failed += 1
            log(f"instance {i}: {'; '.join(bad)}")
        results.append(got)
        codes.append(objs[0])
        log.maybe_calibrate()

    kernels, detail = tracing.kernel_rates(codes, tracer)
    agg = tracing.aggregate(tracer.spans)
    empty = {"calls": 0, "errors": 0, "busy_s": 0.0, "self_s": 0.0,
             "work": {}, "work_busy_s": 0.0}

    def work(span, key):
        return agg.get(span, empty)["work"].get(key, 0)

    def rate(span, key):
        a = agg.get(span, empty)
        return a["work"].get(key, 0) / a["work_busy_s"] if a["work_busy_s"] \
            else 0.0

    values = {}
    for name in SPANS:
        a = agg.get(name, empty)
        values[f"{name}.calls"] = a["calls"]
        values[f"{name}.errors"] = a["errors"]
        values[f"{name}.busy_s"] = a["busy_s"]
    for name in ("covering.covering_radius_exact", "bench.op"):
        values[f"{name}.self_s"] = agg.get(name, empty)["self_s"]
    values["ambient.rank_table.entries_per_s"] = rate("ambient.rank_table",
                                                      "entries")
    values["codes.min_distance.words_per_s"] = rate("codes.min_distance",
                                                    "words")
    values["codes.distance_distribution.pairs"] = work(
        "codes.distance_distribution", "pairs")
    values["covering.scan.ambient_points"] = work(
        "covering.covering_radius_exact", "ambient_points")
    values["covering.scan.pair_bound"] = work(
        "covering.covering_radius_exact", "pair_bound")
    values.update(kernels)
    values["cli.import_s"] = tracing.import_s(SRC)
    calib = log.calib_summary()
    values["host.calib_ms"] = calib["median"]
    values["host.calib_ms.min"] = calib["min"]
    values["host.calib_ms.max"] = calib["max"]
    values["trace.overhead_frac"] = traced_s / untraced_s - 1 \
        if untraced_s else 0.0

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps({"spans": tracer.spans,
                                      "kernels": detail}))
    shutil.rmtree(wl.workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": 1, "trace_file": str(trace_file.relative_to(ROOT)),
                      "report": {"ops": len(wl.insts),
                                 "ops_failed_frac": failed / len(wl.insts),
                                 "untraced_s": untraced_s,
                                 "traced_s": traced_s,
                                 "kernels": detail},
                      "census": checks.census(
                          args.workload,
                          [x for x, r in zip(wl.insts, results) if r],
                          [r for r in results if r])}))
    emit("per_layer", values, failed == 0, len(wl.insts), failed)


def probe(args) -> None:
    wl, setup_s, _ = setup(args.workload, args.seed, False,
                           f"probe-{os.getpid()}")
    shutil.rmtree(wl.workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    if args.setup_probe:
        probe(args)
    elif args.trace:
        traced(args)
    else:
        timed(args)


if __name__ == "__main__":
    main()
