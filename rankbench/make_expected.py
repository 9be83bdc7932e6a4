#!/usr/bin/env python3
"""Regenerate expected_seed0.json from one round of each workload.

Run from the root of a checkout:

    python3 rankbench/make_expected.py

The values come from the package at the default seed.  They are written
only when every operation passes its checks and the brute-force oracle
agrees with them on the instances small enough for it.
"""

import json
import shutil
import sys

import run


def main() -> int:
    out = {}
    for name in run.WORKLOADS:
        wl, _, call = run.setup(name, run.DEFAULT_SEED, False, "expected")
        _, results, objs, failed = run.run_round(wl, call, None, run.Log())
        shutil.rmtree(wl.workdir, ignore_errors=True)
        checked, bad = run.oracle_check(wl.insts, results, objs,
                                       run.ORACLE_BUDGET)
        print(f"{name}: {len(results)} operations, {failed} failed, "
              f"{checked} cross-checked by the oracle", file=sys.stderr)
        if failed or bad:
            for i, msg in bad:
                print(f"instance {i}: {msg}", file=sys.stderr)
            return 1
        out[name] = results
    (run.HERE / "expected_seed0.json").write_text(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
