"""Command-line front end and the rmc code-file format.

File format (bit-exact): line 1 `rmc 1`; then `q <int>`, `k <int>`,
`m <int>`, `kind linear|set`, `count <t>`; then t blocks, each k lines of
m space-separated integers in [0, q), blocks separated by one blank line.
`#` starts a comment anywhere.  Entries are the integer element encoding
of GF(q).

Exit codes: 0 success, 2 parse error or input a command rejects (the
library's ValueError), 3 search-guard refusal.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import covering
from .ambient import index_to_mat
from .codes import GuardExceeded, RankCode, check_guard
from .gfield import field_from_order
from .matlin import Mat, Subspace, rank, random_invertible, vectorize

EXIT_PARSE = 2
EXIT_GUARD = 3


class ParseError(Exception):
    def __init__(self, path: str, line: int, msg: str):
        super().__init__(f"{path}:{line}: {msg}")


def parse(path: str) -> RankCode:
    """Read an rmc file into a RankCode."""
    field, k, m, kind, mats = _read(path)
    if kind == "linear":
        return RankCode.from_generators(field, k, m, mats)
    return RankCode.from_codewords(field, k, m, mats)


def _read(path: str) -> tuple:
    """The field, k, m, kind and blocks (as written) of an rmc file."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = []  # (lineno, stripped content), comments removed
    for no, line in enumerate(raw, start=1):
        line = line.split("#", 1)[0].rstrip()
        lines.append((no, line))
    pos = 0

    def next_content() -> tuple:
        nonlocal pos
        while pos < len(lines) and not lines[pos][1].strip():
            pos += 1
        if pos >= len(lines):
            raise ParseError(path, len(raw) + 1, "unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    def header(key: str) -> tuple:
        no, line = next_content()
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(path, no, f"expected `{key} <value>`, got {line!r}")
        return no, parts[1]

    no, first = next_content()
    if first.split() != ["rmc", "1"]:
        raise ParseError(path, no, "missing `rmc 1` header")

    def intfield(key: str, least: int) -> tuple:
        no, v = header(key)
        try:
            value = int(v)
        except ValueError:
            raise ParseError(path, no, f"{key} must be an integer")
        if value < least:
            raise ParseError(path, no, f"{key} must be at least {least}, "
                                       f"got {value}")
        return no, value

    no, q = intfield("q", 2)
    try:
        field = field_from_order(q)
    except ValueError as exc:
        raise ParseError(path, no, str(exc))
    _, k = intfield("k", 1)
    no, m = intfield("m", 1)
    if k > m:
        raise ParseError(path, no, f"need k <= m, got k {k} and m {m}")
    no, kind = header("kind")
    if kind not in ("linear", "set"):
        raise ParseError(path, no, "kind must be linear or set")
    no, count = intfield("count", 0)
    if kind == "set" and count == 0:
        raise ParseError(path, no, "a code is a non-empty set")
    mats = []
    block_lines = {}  # entries -> line of the block's first row
    for _ in range(count):
        rows, first = [], None
        for _ in range(k):
            no, line = next_content()
            first = first or no
            try:
                row = [int(x) for x in line.split()]
            except ValueError:
                raise ParseError(path, no, "matrix entries must be integers")
            if len(row) != m:
                raise ParseError(path, no, f"expected {m} entries, got {len(row)}")
            for x in row:
                if not 0 <= x < q:
                    raise ParseError(path, no, f"entry {x} outside [0, {q})")
            rows.append(row)
        M = Mat.from_rows(field, rows)
        if kind == "set" and M.entries in block_lines:
            raise ParseError(path, first, "duplicate codeword, same as the "
                             f"block at line {block_lines[M.entries]}")
        block_lines.setdefault(M.entries, first)
        mats.append(M)
    while pos < len(lines):
        if lines[pos][1].strip():
            raise ParseError(path, lines[pos][0], "trailing content after blocks")
        pos += 1
    return field, k, m, kind, mats


def serialize(C: RankCode) -> str:
    """Render a RankCode in the rmc format (RREF basis / set in entry order)."""
    mats = list(C.basis) if C.linear else sorted(C.words, key=vectorize)
    out = ["rmc 1", f"q {C.field.q}", f"k {C.k}", f"m {C.m}",
           f"kind {'linear' if C.linear else 'set'}", f"count {len(mats)}"]
    for M in mats:
        out.append("")
        for i in range(M.k):
            out.append(" ".join(str(x) for x in M.row(i)))
    return "\n".join(out) + "\n"


def _emit(pairs) -> None:
    for key, value in sorted(pairs):
        print(f"{key} {value}")


def _cmd_info(args) -> int:
    C = parse(args.file)
    pairs = [("q", C.field.q), ("k", C.k), ("m", C.m),
             ("kind", "linear" if C.linear else "set")]
    if C.linear:
        pairs.append(("dim", C.dim))
    pairs.append(("size", C.cardinality()))
    if C.cardinality() >= 2:
        pairs.append(("min_distance", C.min_distance()))
    _emit(pairs)
    return 0


def _report_pairs(rep: covering.BoundsReport):
    for key, value in vars(rep).items():
        if value is not None:
            yield key, str(value).lower() if isinstance(value, bool) else value


def _cmd_bounds(args) -> int:
    C = parse(args.file)
    rep = covering.bounds_report(C, force=args.force)
    _emit(_report_pairs(rep))
    return 0


def _cmd_covering_radius(args) -> int:
    C = parse(args.file)
    rho = covering.covering_radius_exact(C, force=args.force)
    _emit([("rho_exact", rho)])
    return 0


def _cmd_dual(args) -> int:
    C = parse(args.file)
    sys.stdout.write(serialize(C.dual()))
    return 0


def _cmd_cosets(args) -> int:
    from . import cosets
    C = parse(args.file)
    N = C.field.q ** (C.k * C.m)
    if args.X is not None:
        if not 0 <= args.X < N:
            raise ValueError(f"--X {args.X} outside [0, q^(km)) = [0, {N})")
        X = index_to_mat(C.field, C.k, C.m, args.X)
        prof = cosets.coset_profile(C, X)
        _emit([("minweight", prof.minweight),
               ("weights", " ".join(str(w) for w in prof.W))])
        return 0
    if not C.linear:
        raise ValueError("full coset tables require a linear code")
    if not args.force:
        check_guard(N, "coset table over {count} matrices exceeds the guard; "
                    "use --force")
    # a coset's least index is its one member that is zero at the pivots
    # of the basis echelonized from the top digit
    F, n = C.field, C.k * C.m
    top = Subspace(F, n, [r[::-1] for r in C.span.basis]).pivots
    R = Subspace.of_indices(F, n, [F.q ** t for t in range(n)
                                   if n - 1 - t not in top])
    _emit([(f"coset_{idx:0{len(str(N - 1))}d}", " ".join(map(str, W)))
           for idx, W in zip(R.indices(), C.coset_weights(R))])
    return 0


def _load_transform(args, C: RankCode) -> Mat:
    if args.A is not None:
        field, k, m, kind, mats = _read(args.A)
        if (kind != "linear"
                or RankCode.from_generators(field, k, m, mats).dim != 1):
            raise ParseError(args.A, 1, "transform file must hold one matrix "
                                        "(kind linear, a single k x k generator)")
        A = next(M for M in mats if not M.is_zero())  # as written, unscaled
    else:
        A = random_invertible(C.field, C.k, args.seed)
    if A.k != C.k or A.m != C.k or rank(A) != C.k:
        raise ParseError(args.A or "<seed>", 1, "transform must be k x k invertible")
    return A


def _cmd_surgery(args) -> int:
    """`puncture` or `shorten`: the surgery function of that name."""
    from . import surgery
    C = parse(args.file)
    A = _load_transform(args, C)
    op = getattr(surgery, args.command)
    sys.stdout.write(serialize(op(C, A, args.u)))
    return 0


def _cmd_initial_set(args) -> int:
    C = parse(args.file)
    inset = covering.initial_set(C)  # a nonzero linear code: |C| >= 2
    bound = covering.bound_initial_set(C)
    _emit([("cells", " ".join(f"({i},{j})" for i, j in inset.entries)),
           ("lambda", bound - C.min_distance() + 1),
           ("bound_initial_set", bound)])
    return 0


def _cmd_gen(args) -> int:
    from . import construct
    if args.family == "gabidulin":
        C = construct.gabidulin(args.q, args.k, args.m, args.d)
    elif args.family == "qmrd":
        C = construct.dually_qmrd(args.q, args.k, args.m, args.t,
                                  seed=args.seed if args.randomize else None)
    elif args.family == "linmap":
        C = construct.linearized_map_code(args.q, args.s, args.r)
    else:  # random
        field = field_from_order(args.q)
        if args.dim is not None:
            C = construct.random_linear_code(field, args.k, args.m,
                                             args.dim, args.seed)
        elif args.size is not None:
            C = construct.random_code(field, args.k, args.m,
                                      args.size, args.seed)
        else:
            raise ValueError("gen random needs --dim or --size")
    sys.stdout.write(serialize(C))
    return 0


def _verify_checks():
    from . import reference
    yield "example_3x3_min_distance", lambda: reference.example_3x3().min_distance() == 2
    yield "example_3x3_external_distance", \
        lambda: covering.external_distance(reference.example_3x3()) == 3
    yield "example_3x3_initial_set", \
        lambda: (covering.initial_set(reference.example_3x3()).entries
                 == ((1, 1), (1, 2), (2, 1), (2, 2)))
    yield "example_3x3_initial_set_bound", \
        lambda: covering.bound_initial_set(reference.example_3x3()) == 2
    yield "example_3x3_rho", \
        lambda: covering.covering_radius_exact(reference.example_3x3()) == 2
    yield "example_mrd_is_mrd", lambda: reference.example_mrd_4x4().is_MRD()
    yield "example_mrd_min_distance", \
        lambda: reference.example_mrd_4x4().min_distance() == 4
    yield "example_mrd_rho", \
        lambda: covering.covering_radius_exact(reference.example_mrd_4x4()) == 2
    yield "example_mrd_degree", \
        lambda: covering.maximality_degree(reference.example_mrd_4x4()) == 2
    yield "example_dqmrd_is_dually_qmrd", \
        lambda: reference.example_dqmrd_4x4().is_dually_QMRD()
    yield "example_dqmrd_rho", \
        lambda: covering.covering_radius_exact(reference.example_dqmrd_4x4()) == 3
    yield "example_dqmrd_degree", \
        lambda: covering.maximality_degree(reference.example_dqmrd_4x4()) == 1
    yield "example_dqmrd_external_distance", \
        lambda: covering.external_distance(reference.example_dqmrd_4x4()) == 4


def _cmd_verify_paper(args) -> int:
    failed = 0
    for name, check in _verify_checks():
        ok = bool(check())
        print(f"{name} {'pass' if ok else 'fail'}")
        failed += not ok
    return 1 if failed else 0


def _add_global_flags(p: argparse.ArgumentParser, *, seed, force) -> None:
    p.add_argument("--seed", type=int, default=seed, help="RNG seed")
    p.add_argument("--force", action="store_true", default=force,
                   help="override the exhaustive-search guard")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rankcov",
                                description="Exact analysis of rank-metric "
                                            "matrix codes")
    _add_global_flags(p, seed=0, force=False)
    # The same flags after the subcommand; a suppressed default leaves a
    # value given before the subcommand in place.
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, seed=argparse.SUPPRESS, force=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    for name, fn in (("info", _cmd_info), ("bounds", _cmd_bounds),
                     ("covering-radius", _cmd_covering_radius),
                     ("dual", _cmd_dual), ("initial-set", _cmd_initial_set)):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("file")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("cosets", parents=[common])
    sp.add_argument("file")
    sp.add_argument("--X", type=int, default=None,
                    help="ambient matrix index; omit for the full table")
    sp.set_defaults(fn=_cmd_cosets)

    for name in ("puncture", "shorten"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("file")
        sp.add_argument("--A", default=None,
                        help="rmc file holding the k x k transform; "
                             "omit to derive one from --seed")
        sp.add_argument("--u", type=int, required=True)
        sp.set_defaults(fn=_cmd_surgery)

    sp = sub.add_parser("gen")
    gen_sub = sp.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("gabidulin", parents=[common])
    for flag in ("q", "k", "m", "d"):
        g.add_argument(f"--{flag}", type=int, required=True)
    g.set_defaults(fn=_cmd_gen)
    g = gen_sub.add_parser("qmrd", parents=[common])
    for flag in ("q", "k", "m", "t"):
        g.add_argument(f"--{flag}", type=int, required=True)
    g.add_argument("--randomize", action="store_true",
                   help="sample the intermediate subspace using --seed")
    g.set_defaults(fn=_cmd_gen)
    g = gen_sub.add_parser("linmap", parents=[common])
    for flag in ("q", "s", "r"):
        g.add_argument(f"--{flag}", type=int, required=True)
    g.set_defaults(fn=_cmd_gen)
    g = gen_sub.add_parser("random", parents=[common])
    for flag in ("q", "k", "m"):
        g.add_argument(f"--{flag}", type=int, required=True)
    g.add_argument("--dim", type=int, default=None)
    g.add_argument("--size", type=int, default=None)
    g.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("verify-paper", parents=[common],
                        help="check the built-in reference examples")
    sp.set_defaults(fn=_cmd_verify_paper)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        # a ValueError is input the library rejects, e.g. a set code
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except GuardExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
