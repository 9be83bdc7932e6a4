"""Spans of the traced run, their per-layer totals, and kernel rates.

Spans are recorded from the benchmark's own files around calls into
rankcov's public functions; the program itself is not instrumented.
"""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

from rankcov import qcomb
from rankcov.gfield import field_from_order
from rankcov.matlin import rank


class Tracer:
    """The traced hook: one span per call, kept in memory."""

    traced = True

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self.op: Any = "setup"
        self._open: List[int] = []

    def __call__(self, name, fn, *args, work=None, **kwargs):
        span = {"name": name, "op": self.op,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None, "error": False,
                "work": work}
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span["error"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()


def aggregate(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, errors, busy and self seconds, summed work.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap, since the run has one thread.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, Dict[str, Any]] = {}
    for i, s in enumerate(spans):
        a = out.setdefault(s["name"], {"calls": 0, "errors": 0, "busy_s": 0.0,
                                       "self_s": 0.0, "work": {},
                                       "work_busy_s": 0.0})
        dur = s["end"] - s["start"]
        a["calls"] += 1
        a["errors"] += s["error"]
        a["busy_s"] += dur
        a["self_s"] += dur - covered[i]
        if s["work"]:
            a["work_busy_s"] += dur
            for key, value in s["work"].items():
                a["work"][key] = a["work"].get(key, 0) + value
    return out


def _repeat(fn, items, min_s: float = 0.05) -> Tuple[int, float]:
    """Call fn on every item, whole passes, until min_s has elapsed."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        for args in items:
            fn(*args)
        calls += len(items)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return calls, elapsed


def kernel_rates(codes, tracer: Tracer) -> Tuple[Dict[str, float], Dict]:
    """Kernel rates on inputs drawn from the round's own codes.

    Returns the per-layer rate metrics and, per kernel, the calls made and
    the operation counts computed from the input shapes.
    """
    samples = defaultdict(list)  # (q, k, m) -> sample words
    for C in codes:
        samples[(C.field.q, C.k, C.m)] += itertools.islice(C.codewords(), 64)
    metrics: Dict[str, float] = {}
    detail: Dict[str, Any] = {}

    for q in (3, 4):
        F = field_from_order(q)
        ents = [x for (fq, _, _), words in samples.items() if fq == q
                for M in words for x in M.entries][:4096]
        pairs = list(zip(ents, ents[1:]))
        for op in ("add", "mul"):
            n, t = _repeat(getattr(F, op), pairs) if pairs else (0, 0.0)
            metrics[f"gfield.{op}.gf{q}_per_s"] = n / t if t else 0.0
            detail[f"gfield.{op}.gf{q}"] = {"calls": n}

    per_q = defaultdict(lambda: [0, 0.0])
    adds = [0, 0.0]
    for (q, k, m), words in sorted(samples.items()):
        n, t = _repeat(rank, [(M,) for M in words])
        per_q[q][0] += n
        per_q[q][1] += t
        detail[f"matlin.rank.gf{q}.{k}x{m}"] = {
            "calls": n, "per_s": n / t, "field_ops_bound": n * k * k * m}
        if len(words) > 1:
            n, t = _repeat(lambda a, b: a + b, list(zip(words, words[1:])))
            adds[0] += n
            adds[1] += t
    for q in (2, 3, 4):
        n, t = per_q[q]
        metrics[f"matlin.rank.gf{q}_per_s"] = n / t if t else 0.0
    metrics["matlin.mat_add.per_s"] = adds[0] / adds[1] if adds[1] else 0.0
    detail["matlin.mat_add"] = {"calls": adds[0]}

    words, t = 0, 0.0
    for C in codes:
        if C.linear:
            t0 = time.perf_counter()
            for _ in C.codewords():
                pass
            t += time.perf_counter() - t0
            words += C.cardinality()
    metrics["codes.codewords.words_per_s"] = words / t if t else 0.0
    detail["codes.codewords"] = {"words": words}

    tracer.op = "kernels"
    for C in codes:
        B = C.distance_distribution()
        qcomb.build_table.cache_clear()
        table = tracer("qcomb.build_table", qcomb.build_table,
                       C.k, C.m, C.field.q)
        tracer("qcomb.macwilliams_transform", qcomb.macwilliams_transform,
               B, C.cardinality(), table)
    return metrics, detail


def import_s(src: Path, runs: int = 3) -> float:
    """Median time to import rankcov and rankcov.cli in a fresh child."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rankcov.cli"],
            env=env, capture_output=True, text=True, check=True).stderr
        us = 0
        for line in out.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\| (\S+)$", line)
            if m and m.group(2) in ("rankcov", "rankcov.cli"):
                us += int(m.group(1))
        times.append(us / 1e6)
    return median(times)
