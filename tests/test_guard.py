"""The one work guard: every exhaustive routine compares its count with
``codes.ENUM_GUARD`` through ``codes.check_guard``, read at call time, so
one patch of that constant moves every guard, in the library and in the
CLI alike.  ``force`` lifts only the two guards on the q^(km) ambient
matrices: the covering-radius search and the full coset table.
"""

import ast
from pathlib import Path

import pytest

from rankcov import codes, covering
from rankcov.cli import main, serialize
from rankcov.codes import GuardExceeded, RankCode
from rankcov.construct import random_code, random_linear_code
from rankcov.covering import bounds_report, covering_radius_exact
from rankcov.gfield import make_field

F2 = make_field(2)
SRC = Path(__file__).resolve().parent.parent / "src" / "rankcov"
G = 32


def _write(tmp_path, name, C):
    path = tmp_path / name
    path.write_text(serialize(C))
    return str(path)


def _refusals(tmp_path):
    """(argv, stderr at the guard G) for every refusal the CLI can give."""
    both = _write(tmp_path, "both.rmc",  # 64 words, dual 64 words
                  random_linear_code(F2, 3, 4, 6, 1))
    pairs = _write(tmp_path, "pairs.rmc",  # 9 words: 36 unordered pairs
                   random_code(F2, 2, 3, 9, 1))
    zero = _write(tmp_path, "zero.rmc",  # 1 word, 64 ambient matrices
                  RankCode.zero_code(F2, 2, 3))
    return [
        (["info", both], f"code has 64 words, guard is {G}"),
        (["info", pairs], "too many codeword pairs"),
        (["cosets", both, "--X", "0"],
         f"coset enumeration over 64 codewords exceeds the guard {G}"),
        (["covering-radius", zero],
         f"ambient scan over 64 matrices exceeds the guard {G}; "
         "pass force=True to run it anyway"),
        (["cosets", zero],
         "coset table over 64 matrices exceeds the guard; use --force"),
    ]


def test_one_patch_moves_every_cli_guard(tmp_path, capsys, monkeypatch):
    cases = _refusals(tmp_path)
    for argv, _ in cases:  # all of them run at the default guard
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""
    monkeypatch.setattr(codes, "ENUM_GUARD", G)
    for argv, message in cases:
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")


def test_bounds_report_applies_the_guard_to_every_count(monkeypatch):
    # the 15 unordered pairs of the 6-word set are the one count behind
    # both its minimum distance and its external distance bound
    def six_words():
        return random_code(F2, 2, 3, 6, 1)
    unguarded = bounds_report(six_words()).bound_external
    monkeypatch.setattr(codes, "ENUM_GUARD", 14)
    with pytest.raises(GuardExceeded, match="^too many codeword pairs$"):
        bounds_report(six_words())
    monkeypatch.setattr(codes, "ENUM_GUARD", 15)
    assert bounds_report(six_words()).bound_external == unguarded


def test_force_lifts_the_ambient_guard_but_not_the_word_guard(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(codes, "ENUM_GUARD", G)
    # 1 word in 64 matrices: force lifts the ambient guard
    assert covering_radius_exact(RankCode.zero_code(F2, 2, 3),
                                 force=True) == 2
    # 64 words, 8-word dual: the invariants pass, the ball centres do not
    C = random_linear_code(F2, 3, 3, 6, 1)
    refusal = f"code has 64 words, guard is {G}"
    with pytest.raises(GuardExceeded, match=f"^{refusal}$"):
        covering_radius_exact(C, force=True)
    with pytest.raises(GuardExceeded, match=f"^{refusal}$"):
        bounds_report(C, force=True)
    rep = bounds_report(C)  # unforced, the ambient guard refuses first
    assert rep.min_distance is not None and rep.rho_exact is None
    path = _write(tmp_path, "c.rmc", C)
    assert main(["--force", "covering-radius", path]) == 3
    assert capsys.readouterr().err == refusal + "\n"
    assert main(["--force", "bounds", path]) == 3
    assert capsys.readouterr().err == refusal + "\n"


def test_a_forced_search_that_cannot_allocate_is_refused(
        tmp_path, capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr(covering, "rank_balls", out_of_memory)
    path = _write(tmp_path, "zero.rmc", RankCode.zero_code(F2, 2, 3))
    refusal = "ambient scan over 64 matrices does not fit in memory"
    for command in ("covering-radius", "bounds"):
        assert main(["--force", command, path]) == 3
        assert capsys.readouterr() == ("", refusal + "\n")


def _guard_reads(node):
    """Loads of ENUM_GUARD under node, imports of it by name included."""
    return sum((isinstance(n, ast.Name) and n.id == "ENUM_GUARD"
                and isinstance(n.ctx, ast.Load))
               or (isinstance(n, ast.Attribute) and n.attr == "ENUM_GUARD")
               or (isinstance(n, ast.alias) and n.name == "ENUM_GUARD")
               for n in ast.walk(node))


def test_exactly_one_function_reads_the_guard():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    reads = {stem: _guard_reads(tree) for stem, tree in trees.items()}
    (check,) = [f for f in trees["codes"].body
                if isinstance(f, ast.FunctionDef) and f.name == "check_guard"]
    assert {stem: n for stem, n in reads.items() if n} \
        == {"codes": _guard_reads(check)}
