import random
import shlex
from pathlib import Path

import pytest

from rankcov.ambient import index_to_mat
from rankcov.cli import main, parse, serialize
from rankcov.codes import RankCode
from rankcov.construct import random_linear_code
from rankcov.cosets import coset_profile
from rankcov.gfield import add_index, field_from_order, make_field
from rankcov.matlin import Mat, rank
from rankcov.reference import example_3x3

F2 = make_field(2)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _example_file(tmp_path):
    return _write(tmp_path, "c.rmc", serialize(example_3x3()))


def _out_lines(capsys):
    return capsys.readouterr().out.splitlines()


def _kv(capsys):
    return dict(line.split(" ", 1) for line in _out_lines(capsys))


def test_serialize_parse_roundtrip(tmp_path):
    F3 = make_field(3)
    S = RankCode.from_codewords(F3, 2, 2, [
        Mat.from_rows(F3, rows) for rows in ([[0, 1], [0, 0]],
                                             [[1, 0], [0, 0]],
                                             [[0, 0], [2, 1]],
                                             [[0, 0], [0, 0]])])
    for C in (example_3x3(), RankCode.zero_code(F2, 2, 2), S):
        path = _write(tmp_path, "r.rmc", serialize(C))
        assert parse(path) == C
    # a set is written in entry order, whatever order it keeps its words in
    blocks = serialize(S).split("\n\n")[1:]
    assert blocks == ["0 0\n0 0", "0 0\n2 1", "0 1\n0 0", "1 0\n0 0\n"]


def test_parse_set_kind_and_comments(tmp_path):
    text = ("# a two-word set code\nrmc 1\nq 2\nk 1\nm 2\nkind set\ncount 2\n"
            "\n0 0  # zero word\n\n1 1\n")
    C = parse(_write(tmp_path, "s.rmc", text))
    assert not C.linear
    assert C.cardinality() == 2
    assert C.contains(Mat.from_rows(F2, [[1, 1]]))


def test_parse_error_reports_location(tmp_path):
    from rankcov.cli import ParseError
    text = "rmc 1\nq 2\nk 1\nm 2\nkind linear\ncount 1\n\n0 5\n"
    with pytest.raises(ParseError) as exc:
        parse(_write(tmp_path, "bad.rmc", text))
    assert "bad.rmc:8" in str(exc.value)


@pytest.mark.parametrize("count,blocks,line,message", [
    (2, ["0 0", "0 0"], 11, "duplicate codeword, same as the block at line 9"),
    (3, ["0 1", "1 1", "0 1"], 13, "duplicate codeword"),
    (0, [], 7, "a code is a non-empty set")])
def test_parse_reports_code_errors_at_their_line(tmp_path, capsys, count,
                                                 blocks, line, message):
    # headers on lines 2-7 below a comment; block i (one row, after a
    # blank line) sits on line 9 + 2i
    text = f"# set code\nrmc 1\nq 2\nk 1\nm 2\nkind set\ncount {count}\n"
    text += "".join(f"\n{block}\n" for block in blocks)
    path = _write(tmp_path, "bad.rmc", text)
    from rankcov.cli import ParseError
    with pytest.raises(ParseError) as exc:
        parse(path)
    assert f"bad.rmc:{line}: {message}" in str(exc.value)
    assert main(["info", path]) == 2


@pytest.mark.parametrize("q,entry", [(2, "2"), (4, "4"), (3, "-1")])
def test_an_entry_outside_the_field_exits_2(tmp_path, capsys, q, entry):
    text = f"rmc 1\nq {q}\nk 2\nm 2\nkind set\ncount 1\n0 1\n{entry} 0\n"
    assert main(["info", _write(tmp_path, "bad.rmc", text)]) == 2
    assert f"bad.rmc:8: entry {entry} outside [0, {q})" in capsys.readouterr().err


# the headers sit on lines 3-7, below a comment line
@pytest.mark.parametrize("header,value,line", [
    ("k", "0", 4), ("m", "0", 5), ("count", "-3", 7), ("q", "6", 3),
    ("q", "1", 3), ("k", "3", 5)])
def test_parse_rejects_bad_headers(tmp_path, capsys, header, value, line):
    values = {"q": "2", "k": "1", "m": "2", "count": "0"}
    values[header] = value
    text = "".join(f"{key} {values[key]}\n" for key in ("q", "k", "m")) \
        + f"kind linear\ncount {values['count']}\n"
    path = _write(tmp_path, "bad.rmc", "# header check\nrmc 1\n" + text)
    from rankcov.cli import ParseError
    with pytest.raises(ParseError) as exc:
        parse(path)
    assert f"bad.rmc:{line}:" in str(exc.value)
    assert main(["info", path]) == 2


def test_info_command(tmp_path, capsys):
    assert main(["info", _example_file(tmp_path)]) == 0
    kv = _kv(capsys)
    assert kv["dim"] == "4"
    assert kv["size"] == "16"
    assert kv["min_distance"] == "2"
    assert kv["kind"] == "linear"


def test_bounds_command(tmp_path, capsys):
    assert main(["bounds", _example_file(tmp_path)]) == 0
    kv = _kv(capsys)
    assert kv["rho_exact"] == "2"
    assert kv["bound_dual_distance"] == "3"
    assert kv["bound_external"] == "3"
    assert kv["bound_initial_set"] == "2"
    assert kv["maximal"] == "false"
    assert kv["maximality_degree"] == "0"


def test_covering_radius_command(tmp_path, capsys):
    assert main(["--force", "covering-radius", _example_file(tmp_path)]) == 0
    assert _kv(capsys)["rho_exact"] == "2"


def test_dual_command_roundtrip(tmp_path, capsys):
    assert main(["dual", _example_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    D = parse(_write(tmp_path, "d.rmc", out))
    assert D == example_3x3().dual()


def test_cosets_single_translate(tmp_path, capsys):
    assert main(["cosets", _example_file(tmp_path), "--X", "0"]) == 0
    kv = _kv(capsys)
    assert kv["minweight"] == "0"
    assert [int(x) for x in kv["weights"].split()] == \
        example_3x3().weight_distribution()


@pytest.mark.parametrize("index,rc", [(15, 0), (16, 2), (19, 2), (-13, 2)])
def test_cosets_rejects_out_of_range_translate(tmp_path, capsys, index, rc):
    path = _write(tmp_path, "small.rmc", serialize(
        RankCode.from_generators(F2, 2, 2, [Mat.identity(F2, 2)])))
    assert main(["cosets", path, "--X", str(index)]) == rc
    if rc:
        assert "[0, 16)" in capsys.readouterr().err


def test_cosets_full_table(tmp_path, capsys):
    path = _write(tmp_path, "small.rmc", serialize(
        RankCode.from_generators(F2, 2, 2, [Mat.identity(F2, 2)])))
    assert main(["cosets", path]) == 0
    lines = _out_lines(capsys)
    assert len(lines) == 8  # q^{km} / |C| cosets
    total = sum(int(x) for line in lines for x in line.split()[1:])
    assert total == 16


@pytest.mark.parametrize("q,k,m", [(2, 2, 3), (3, 2, 2), (4, 2, 2), (5, 2, 2)])
def test_cosets_full_table_lists_least_index_per_coset(tmp_path, capsys, q, k, m):
    F = field_from_order(q)
    N = q ** (k * m)
    rng = random.Random(q * 100 + k * 10 + m)
    for dim in (0, 1, 2, 3):
        C = random_linear_code(F, k, m, dim, rng)
        words = C.word_indices()
        least = set()
        seen = set()
        for idx in range(N):  # brute force: a coset's first index
            if idx not in seen:
                least.add(idx)
                seen.update(add_index(F, w, idx) for w in words)
        assert main(["cosets", _write(tmp_path, "c.rmc", serialize(C))]) == 0
        lines = _out_lines(capsys)
        reps = [int(line.split()[0][len("coset_"):]) for line in lines]
        assert reps == sorted(least)
        for idx, line in zip(reps, lines):
            X = index_to_mat(F, k, m, idx)
            W = " ".join(str(w) for w in coset_profile(C, X).W)
            assert line.split(" ", 1)[1] == W


def test_puncture_and_shorten_commands(tmp_path, capsys):
    cpath = _example_file(tmp_path)
    apath = _write(tmp_path, "a.rmc", serialize(
        RankCode.from_generators(F2, 3, 3, [Mat.identity(F2, 3)])))
    assert main(["puncture", cpath, "--A", apath, "--u", "1"]) == 0
    P = parse(_write(tmp_path, "p.rmc", capsys.readouterr().out))
    assert (P.k, P.m) == (2, 3)
    assert main(["shorten", cpath, "--A", apath, "--u", "1"]) == 0
    S = parse(_write(tmp_path, "sh.rmc", capsys.readouterr().out))
    # duality: Pi(C, A, u)^perp = Sigma(C^perp, (A^t)^{-1}, u); A = I here
    from rankcov.surgery import shorten
    assert P.dual() == shorten(example_3x3().dual(), Mat.identity(F2, 3), 1)
    assert (S.k, S.m) == (2, 3)


def test_surgery_applies_the_transform_as_written(tmp_path, capsys):
    # 2 I spans the same code as I, so it must not be read as the RREF row
    cpath = _write(tmp_path, "c.rmc", "rmc 1\nq 3\nk 2\nm 2\nkind set\n"
                   "count 2\n\n0 0\n0 0\n\n1 0\n1 1\n")
    apath = _write(tmp_path, "a.rmc", "rmc 1\nq 3\nk 2\nm 2\nkind linear\n"
                   "count 1\n\n2 0\n0 2\n")
    assert main(["puncture", cpath, "--A", apath, "--u", "1"]) == 0
    assert capsys.readouterr().out == ("rmc 1\nq 3\nk 1\nm 2\nkind set\n"
                                       "count 2\n\n0 0\n\n2 2\n")


def test_puncture_with_seeded_transform(tmp_path, capsys):
    cpath = _example_file(tmp_path)
    assert main(["--seed", "3", "puncture", cpath, "--u", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["--seed", "3", "puncture", cpath, "--u", "1"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv,code,message", [
    (["dual"], "set", "linear codes only"),
    (["initial-set"], "set", "nonzero linear code"),
    (["shorten", "--u", "1"], "set", "0 to be a codeword"),
    (["initial-set"], "zero", "nonzero linear code"),
    (["puncture", "--u", "3"], "example", "u must lie in [1, 2]"),
    (["shorten", "--u", "0"], "example", "u must lie in [1, 2]")])
def test_rejected_input_exits_2(tmp_path, capsys, argv, code, message):
    C = {"set": RankCode.from_codewords(F2, 3, 3, [Mat.identity(F2, 3)]),
         "zero": RankCode.zero_code(F2, 3, 3),
         "example": example_3x3()}[code]
    path = _write(tmp_path, "c.rmc", serialize(C))
    assert main(argv[:1] + [path] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_initial_set_command(tmp_path, capsys):
    assert main(["initial-set", _example_file(tmp_path)]) == 0
    kv = _kv(capsys)
    assert kv["cells"] == "(1,1) (1,2) (2,1) (2,2)"
    assert kv["lambda"] == "1"
    assert kv["bound_initial_set"] == "2"


def test_gen_gabidulin_pipes_into_bounds(tmp_path, capsys):
    assert main(["gen", "gabidulin", "--q", "2", "--k", "3",
                 "--m", "3", "--d", "2"]) == 0
    path = _write(tmp_path, "g.rmc", capsys.readouterr().out)
    assert main(["info", path]) == 0
    kv = _kv(capsys)
    assert kv["dim"] == "6"
    assert kv["min_distance"] == "2"


def test_gen_qmrd_and_linmap(tmp_path, capsys):
    assert main(["gen", "qmrd", "--q", "2", "--k", "4",
                 "--m", "4", "--t", "3"]) == 0
    C = parse(_write(tmp_path, "q.rmc", capsys.readouterr().out))
    assert C.is_dually_QMRD()
    assert main(["gen", "linmap", "--q", "2", "--s", "2", "--r", "2"]) == 0
    L = parse(_write(tmp_path, "l.rmc", capsys.readouterr().out))
    assert L.dim == 8


def test_gen_random_deterministic(tmp_path, capsys):
    argv = ["--seed", "11", "gen", "random", "--q", "3",
            "--k", "2", "--m", "2", "--dim", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    C = parse(_write(tmp_path, "r.rmc", first))
    assert C.dim == 2 and C.field.q == 3


def test_gen_random_requires_shape_flag(capsys):
    assert main(["gen", "random", "--q", "2", "--k", "2", "--m", "2"]) == 2


def test_parse_failures_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.rmc", "not an rmc file\n")
    assert main(["info", bad]) == 2
    assert main(["info", str(tmp_path / "missing.rmc")]) == 2


def test_guard_refusal_exit_3(tmp_path, capsys):
    # 5x5 over GF(4): ambient 4^25 matrices, far beyond the guard
    C = RankCode.zero_code(make_field(2, 2), 5, 5)
    path = _write(tmp_path, "big.rmc", serialize(C))
    assert main(["covering-radius", path]) == 3


def test_force_does_not_lift_the_enumeration_guard(tmp_path, capsys):
    # --force lifts the ambient-search and coset-table guards only: a code
    # and dual of 2^28 words each are still refused
    C = random_linear_code(F2, 7, 8, 28, 28)
    path = _write(tmp_path, "half.rmc", serialize(C))
    assert main(["--force", "bounds", path]) == 3
    assert capsys.readouterr().err == ("code has 268435456 words, "
                                       "guard is 16777216\n")


def test_bounds_on_zero_code_beyond_guard(tmp_path, capsys):
    # the dual is the full space, whose minimum distance is 1 without
    # enumerating its 4^25 words; the scan is refused, so no rho_exact
    C = RankCode.zero_code(make_field(2, 2), 5, 5)
    path = _write(tmp_path, "zero.rmc", serialize(C))
    assert main(["bounds", path]) == 0
    kv = _kv(capsys)
    assert kv["bound_dual_distance"] == "5"
    assert "rho_exact" not in kv


def test_bounds_on_high_rate_code_beyond_guard(tmp_path, capsys):
    # 4^24 words, but the guard counts the enumerated side, the 4-word
    # dual; the search over 4^25 matrices is still refused, so rho is
    # reported only where the bounds decide it (packing_lower is 1)
    F = make_field(2, 2)
    C = random_linear_code(F, 5, 5, 24, random.Random(24))
    path = _write(tmp_path, "high.rmc", serialize(C))
    assert main(["bounds", path]) == 0
    kv = _kv(capsys)
    (B,) = parse(path).dual().basis
    assert kv["min_distance"] == "1"
    assert kv["bound_dual_distance"] == str(5 - rank(B) + 1)
    assert (kv.get("rho_exact") == "1") == (kv["bound_dual_distance"] == "1")


def test_verify_paper_all_pass(capsys):
    assert main(["verify-paper"]) == 0
    lines = _out_lines(capsys)
    assert len(lines) == 13
    assert all(line.endswith(" pass") for line in lines)


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line.split("  #", 1)[0].strip()
            for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for line in _readme_cli_lines():
        command, _, target = line.partition(">")
        argv = shlex.split(command)
        assert argv[0] == "rankcov"
        try:
            rc = main(argv[1:])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 0, line
        out = capsys.readouterr().out
        if target:
            (tmp_path / target.strip()).write_text(out)


def test_global_flags_after_subcommand(tmp_path, capsys):
    argv = ["gen", "random", "--q", "3", "--k", "2", "--m", "2", "--dim", "2"]
    assert main(["--seed", "11"] + argv) == 0
    before = capsys.readouterr().out
    assert main(argv + ["--seed", "11"]) == 0
    assert capsys.readouterr().out == before
    assert main(["--seed", "11"] + argv + ["--force"]) == 0
    assert capsys.readouterr().out == before
    assert main(argv) == 0
    assert capsys.readouterr().out != before
