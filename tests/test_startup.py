"""What `rankcov bounds` loads, and the package's lazily resolved names.

`rankcov/__init__.py` resolves its public names on first access, and the
CLI imports the modules of the other commands inside those commands, so
a `bounds` run loads neither `dataclasses` nor `fractions` nor the
modules it never calls.  The expected outputs were taken from the eager
package, so the lazy one must print the same bytes.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankcov

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_LOADED_BY_BOUNDS = ("dataclasses", "fractions", "decimal",
                        "rankcov.cosets", "rankcov.construct",
                        "rankcov.surgery", "rankcov.reference")

# rmc text -> the stdout of `rankcov bounds` on it
BOUNDS_CASES = {
    # `rankcov gen gabidulin --q 2 --k 3 --m 3 --d 2`: the bounds decide
    # rho, no search runs
    "gab": ("rmc 1\nq 2\nk 3\nm 3\nkind linear\ncount 6\n\n"
            "1 0 0\n0 0 0\n1 1 0\n\n0 1 0\n0 0 0\n0 1 1\n\n"
            "0 0 1\n0 0 0\n1 1 1\n\n0 0 0\n1 0 0\n0 1 1\n\n"
            "0 0 0\n0 1 0\n1 1 1\n\n0 0 0\n0 0 1\n1 0 1\n",
            "bound_dual_distance 1\nbound_external 1\nbound_initial_set 1\n"
            "bound_mrd 1\ncardinality 64\ndim 6\nis_dually_qmrd false\n"
            "is_mrd true\nk 3\nm 3\nmaximal true\nmaximality_degree 1\n"
            "min_distance 2\npacking_lower 1\nq 2\nrho_exact 1\n"),
    # a GF(4) linear code whose rho comes from the ball search
    "gf4": ("rmc 1\nq 4\nk 2\nm 3\nkind linear\ncount 2\n\n"
            "1 0 1\n0 3 0\n\n0 1 3\n0 0 2\n",
            "bound_dqmrd 2\nbound_dual_distance 2\nbound_external 2\n"
            "bound_initial_set 2\ncardinality 16\ndim 2\n"
            "is_dually_qmrd true\nis_mrd false\nk 2\nm 3\nmaximal false\n"
            "maximality_degree 0\nmin_distance 2\npacking_lower 1\nq 4\n"
            "rho_exact 2\n"),
    # a GF(3) explicit set: pair distances, then the search
    "set": ("rmc 1\nq 3\nk 2\nm 2\nkind set\ncount 5\n\n"
            "0 0\n2 1\n\n0 1\n0 0\n\n1 1\n1 2\n\n1 2\n2 2\n\n2 1\n0 1\n",
            "bound_external 2\ncardinality 5\nis_mrd false\nk 2\nm 2\n"
            "maximal false\nmaximality_degree 0\nmin_distance 1\n"
            "packing_lower 1\nq 3\nrho_exact 2\n"),
}

CHILD = """
import json, runpy, sys
before = set(sys.modules)
sys.argv = ["rankcov", "bounds", sys.argv[1]]
try:
    runpy.run_module("rankcov", run_name="__main__")
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
sys.stderr.write(json.dumps({"exit": code,
                             "new": sorted(set(sys.modules) - before)}))
"""


def _child(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, check=True)


@pytest.mark.parametrize("case", sorted(BOUNDS_CASES))
def test_bounds_loads_only_what_it_runs(case, tmp_path):
    text, expected = BOUNDS_CASES[case]
    path = tmp_path / f"{case}.rmc"
    path.write_text(text)
    out = _child(CHILD, str(path))
    record = json.loads(out.stderr)
    assert record["exit"] == 0
    assert out.stdout == expected
    assert "rankcov.covering" in record["new"]  # the run was recorded
    assert [m for m in NOT_LOADED_BY_BOUNDS if m in record["new"]] == []


def test_import_rankcov_loads_no_submodule():
    out = _child("import json, sys, rankcov; print(json.dumps("
                 "sorted(m for m in sys.modules if m.startswith('rankcov.'))))")
    assert json.loads(out.stdout) == []


def test_every_public_name_resolves_to_its_home_module():
    assert set(rankcov.__all__) == set(rankcov._TABLE)
    for name in rankcov.__all__:
        home = importlib.import_module(f"rankcov.{rankcov._TABLE[name]}")
        obj = getattr(rankcov, name)
        assert obj is getattr(home, name)
        assert getattr(obj, "__module__", home.__name__) == home.__name__
        assert name in dir(rankcov)


def test_from_import_and_unknown_names():
    from rankcov import RankCode, bounds_report, gabidulin
    from rankcov.codes import RankCode as home_code
    assert RankCode is home_code
    assert bounds_report(gabidulin(2, 3, 3, 2)).rho_exact == 1
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rankcov.no_such_name
    with pytest.raises(ImportError):
        from rankcov import no_such_name  # noqa: F401


def test_readme_library_tour_runs():
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1]
    scope = {}
    exec(block.split("```", 1)[0], scope)
    assert scope["rep"].rho_exact == scope["covering_radius_exact"](scope["C"])
