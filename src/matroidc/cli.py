"""Command-line driver: dimension tables, homology, verification suites.

Exit codes: 0 success, 1 verification failure, 2 source or coverage error,
3 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from io import StringIO

from . import complexes, hopf
from .complexes import ComplexSpec, DifferentialKind, parse_kind
from .enumerate import EnumeratorSource, enumerate_all, load_source, write_mtrd
from .errors import (
    DegreeTooLarge,
    InvalidSpec,
    MatroidError,
    ParseError,
    PropertyNotDualityStable,
    SourceIncomplete,
)
from .linalg import RankPolicy, write_matrix_market
from .matroid import MAX_ELEMENTS

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SOURCE = 2
EXIT_PARSE = 3


def _add_common(p, kind=False, max_n=True):
    p.add_argument("--spec", default="all", help="comma-joined property tags")
    if kind:
        p.add_argument(
            "--kind",
            default="del",
            help="differential: del, clp, con, lp, del-tot, con-tot",
        )
    if max_n:
        _add_max_n(p)
    p.add_argument("--source", default=None, help="census file (MTRD or F2DB)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def degree(text: str) -> int:
    """A ground-set size: a negative one names no degree, so it is refused
    rather than read as an empty request."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"a degree is >= 0, not {n}")
    return n


def _add_max_n(p):
    p.add_argument("--max-n", type=degree, default=7, dest="max_n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matroidc",
        description="matroid deletion/contraction complexes over Q",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="chain dimensions per bidegree")
    _add_common(p)
    p.add_argument("--format", default="csv", choices=("csv", "json"))

    p = sub.add_parser("homology", help="Betti table of a complex")
    _add_common(p, kind=True, max_n=False)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--exact", action="store_true", help="force exact ranks")
    # a bidegree names its one row, so a degree range would go unread
    rows = p.add_mutually_exclusive_group()
    _add_max_n(rows)
    rows.add_argument(
        "--bidegree",
        default=None,
        help="single bidegree 'n,r' (ground-set size, rank)",
    )

    p = sub.add_parser("verify", help="structural identity suites")
    p.add_argument(
        "--suite",
        required=True,
        choices=("square", "anticommute", "hopf", "homotopy", "duality", "freealg"),
    )
    _add_common(p)

    p = sub.add_parser("enumerate", help="write isomorphism-class reps as MTRD")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("export-matrix", help="differential matrix as Matrix Market")
    _add_common(p, kind=True, max_n=False)
    p.add_argument("--n", type=degree, required=True)

    p = sub.add_parser("ingest-check", help="validate a census file")
    p.add_argument("--source", required=True)
    p.add_argument("--out", default=None)
    return ap


def _get_source(args, spec: ComplexSpec):
    """The --source census, or the in-process one restricted as spec allows."""
    if getattr(args, "source", None):
        return load_source(args.source)
    return EnumeratorSource(tags=spec.tags)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_dims(args) -> int:
    spec = ComplexSpec.parse(args.spec)
    source = _get_source(args, spec)
    rows = complexes.dims_table(spec, args.max_n, source)
    if args.format == "json":
        text = json.dumps(
            [{"n": n, "r": r, "dim": d} for n, r, d in rows], indent=0
        ) + "\n"
    else:
        text = "n,r,dim\n" + "".join(f"{n},{r},{d}\n" for n, r, d in rows)
    _emit(args, text)
    return EXIT_OK


def cmd_homology(args) -> int:
    spec = ComplexSpec.parse(args.spec)
    kind = parse_kind(args.kind)
    source = _get_source(args, spec)
    policy = RankPolicy(exact=args.exact)
    if args.bidegree:
        try:
            n, r = (int(t) for t in args.bidegree.split(","))
        except ValueError:
            raise InvalidSpec(f"bad --bidegree {args.bidegree!r}, want 'n,r'")
        table = complexes.betti_at_bidegree(spec, kind, n, r, source, policy)
    else:
        table = complexes.homology_table(spec, kind, args.max_n, source, policy)
    if args.format == "json":
        text = json.dumps([row.as_dict() for row in table], indent=0) + "\n"
    else:
        text = table.to_csv()
    _emit(args, text)
    return EXIT_OK


# Suites that check the whole algebra, so they have no subcomplex to restrict to.
_SPECLESS_SUITES = ("hopf", "homotopy", "freealg")


def cmd_verify(args) -> int:
    spec = ComplexSpec.parse(args.spec)
    if args.suite in _SPECLESS_SUITES and spec != complexes.ALL:
        raise InvalidSpec(f"verify --suite {args.suite} covers all matroids; "
                          f"it takes no --spec {args.spec!r}")
    source = _get_source(args, spec)
    max_n = args.max_n
    K = DifferentialKind
    rep = complexes.Report([])
    if args.suite == "square":
        for kind in K:
            rep.extend(complexes.verify_square_zero(kind, max_n, spec, source))
    elif args.suite == "anticommute":
        for a, b in ((K.DEL, K.CLP), (K.LP, K.CON), (K.DEL, K.CON), (K.LP, K.CLP)):
            rep.extend(complexes.verify_anticommute(a, b, max_n, spec, source))
    elif args.suite == "hopf":
        rep.extend(hopf.verify_unit_counit(max_n, source))
        rep.extend(hopf.verify_associativity(max_n, source))
        rep.extend(hopf.verify_graded_commutativity(max_n, source))
        rep.extend(hopf.verify_coassociativity(max_n, source))
        rep.extend(hopf.verify_bialgebra(max_n, source))
        for kind in K:
            rep.extend(hopf.verify_leibniz(kind, max_n, source))
        for kind in K:
            if kind.removes != "all":
                rep.extend(hopf.verify_coderivation(kind, max_n, source))
    elif args.suite == "homotopy":
        for kind, gen in (
            (K.DEL, "loop"),
            (K.DEL_TOT, "loop"),
            (K.CON, "coloop"),
            (K.CON_TOT, "coloop"),
            (K.LP, "loop"),
            (K.CLP, "coloop"),
        ):
            rep.extend(hopf.verify_homotopy(kind, max_n, source, gen))
    elif args.suite == "duality":
        rep.extend(complexes.verify_duality(max_n, spec, source))
    elif args.suite == "freealg":
        rep.extend(hopf.connected_dim_check(max_n, source))
    _emit(args, rep.text())
    return EXIT_OK if rep.ok else EXIT_VERIFY_FAILED


def cmd_enumerate(args) -> int:
    reps = enumerate_all(args.n)
    write_mtrd(args.out, reps, coverage=[args.n])
    return EXIT_OK


def cmd_export_matrix(args) -> int:
    spec = ComplexSpec.parse(args.spec)
    kind = parse_kind(args.kind)
    source = _get_source(args, spec)
    mat = complexes.differential_matrix(kind, args.n, spec, source)
    buf = StringIO()
    write_matrix_market(mat, buf)
    _emit(args, buf.getvalue())
    return EXIT_OK


def cmd_ingest_check(args) -> int:
    source = load_source(args.source)
    lines = [f"source: {source!r}"]
    total = 0
    for n in (k for k in range(0, MAX_ELEMENTS + 1) if source.covers(k)):
        reps = source.representatives(n)
        total += len(reps)
        lines.append(f"degree {n}: {len(reps)} classes")
    tags = ",".join(sorted(source.tags())) or "(none)"
    lines.append(f"property tags: {tags}")
    lines.append(f"total: {total} classes")
    for ln, first, key in source.duplicates:
        lines.append(f"duplicate: line {ln} repeats the class of line {first}: {key!r}")
    _emit(args, "\n".join(lines) + "\n")
    if source.duplicates:
        count = len(source.duplicates)
        print(f"source error: {count} records repeat an earlier class", file=sys.stderr)
        return EXIT_SOURCE
    return EXIT_OK


COMMANDS = {
    "dims": cmd_dims,
    "homology": cmd_homology,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
    "export-matrix": cmd_export_matrix,
    "ingest-check": cmd_ingest_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SourceIncomplete, DegreeTooLarge) as exc:
        print(f"source error: {exc}", file=sys.stderr)
        return EXIT_SOURCE
    except (InvalidSpec, PropertyNotDualityStable) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_SOURCE
    except OSError as exc:
        # only a failure to open --out is a request error; anything else
        # is a fault and keeps its traceback
        out = getattr(args, "out", None)
        if out is None or exc.filename != out:
            raise
        print(f"error: cannot write {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_SOURCE
    except MatroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
