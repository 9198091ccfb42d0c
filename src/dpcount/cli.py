"""Command-line front end: single-class queries, table sweeps, verification.

Classes are written `d;m1,...,mk` (k is inferred from the list length, `3;`
is the plane cubic class; a literal that starts with `-` goes after `--`).
Exit codes: 0 success, 1 computation failure, an unusable cache path or a
closed stdout, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import product

from .cusp import c_beta
from .gw import (
    CACHE_ENV_VAR,
    GWEngine,
    InconsistentRelationError,
    seed_classes,
)
from .lattice import (
    DivisorClass,
    SurfaceModel,
    delta,
    format_class_literal,
    parse_class_literal,
)
from .verify import SUITES


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _tsv(row: dict) -> str:
    """A row's values in field order, tab-separated, with flags as `true`/`false`."""
    return "\t".join([_flag(v) if isinstance(v, bool) else str(v) for v in row.values()])


def _emit(args, record, lines) -> None:
    """Print `record` as one JSON line under `--format json`, else each TSV line of `lines`."""
    for line in [json.dumps(record)] if args.format == "json" else lines:
        print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcount",
        description="Exact curve counts on the plane blown up at up to 8 points.",
    )
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument(
        "--cache-path",
        default=None,
        help=f"persistent count cache (default: ${CACHE_ENV_VAR} if set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cls_help = 'class literal d;m1,...,mk; one that starts with - goes after --, as in: nbeta -- "-1;"'
    p_n = sub.add_parser("nbeta", help="count of rational curves in a class")
    p_n.add_argument("cls", help=cls_help)

    p_c = sub.add_parser("cbeta", help="count of rational cuspidal curves in a class")
    p_c.add_argument("cls", help=cls_help)

    p_t = sub.add_parser("table", help="sweep classes and emit one row per class")
    p_t.add_argument("--k", type=int, required=True)
    p_t.add_argument("--dmax", type=int, required=True)
    p_t.add_argument("--mmax", type=int, default=None)

    p_v = sub.add_parser("verify", help="run a named verification suite")
    p_v.add_argument("--suite", choices=sorted(SUITES), required=True)

    p_s = sub.add_parser("seeds", help="list the recursion seed classes")
    p_s.add_argument("--k", type=int, required=True)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built by `build_parser` on the first call, then shared.

    argparse keeps no state between `parse_args` calls, so a caller that runs
    `main` many times in one process builds the parser once; importing this
    module builds none.
    """
    return build_parser()


def sweep_classes(k: int, dmax: int, mmax: int | None):
    """Deterministic sweep order: degree, then multiplicity tuples lexicographically.

    Domain: dmax >= 0 and mmax >= 0 (or None); outside it the first step raises `ValueError`."""
    for name, value in (("dmax", dmax), ("mmax", mmax)):
        if value is not None and value < 0:
            raise ValueError(f"table needs {name} >= 0, got {value}")
    for d in range(1, dmax + 1):
        top = d if mmax is None else min(d, mmax)
        for m in product(range(0, top + 1), repeat=k):
            beta = DivisorClass(d, m)
            if delta(beta) < 1:
                continue
            yield beta


def _cmd_nbeta(engine: GWEngine, args) -> int:
    beta = parse_class_literal(args.cls)
    value = engine.n_beta(beta)
    _emit(args, {"k": beta.k, "cls": args.cls.strip(), "n": value}, [f"N={value}"])
    return 0


def _cmd_cbeta(engine: GWEngine, args) -> int:
    beta = parse_class_literal(args.cls)
    result = c_beta(engine, beta)
    record = {
        "k": beta.k,
        "cls": args.cls.strip(),
        "c": result.value,
        "first_term": str(result.first_term),
        "boundary_term": str(result.boundary_term),
        "valid": result.valid,
        "warnings": result.warnings,
    }
    line = (
        f"C={result.value} first={result.first_term} "
        f"boundary={result.boundary_term} valid={_flag(result.valid)}"
    )
    _emit(args, record, [line])
    if args.format == "tsv":  # the JSON record carries them
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_table(engine: GWEngine, args) -> int:
    SurfaceModel(args.k)  # rejects k outside 0..8 before the sweep
    rows = []
    for beta in sweep_classes(args.k, args.dmax, args.mmax):
        try:
            result = c_beta(engine, beta)
        except (ValueError, InconsistentRelationError) as exc:
            print(f"note: skipped {beta}: {exc}", file=sys.stderr)
            continue
        rows.append(
            {"k": beta.k, "cls": format_class_literal(beta), "n": result.n, "c": result.value, "valid": result.valid}
        )
    _emit(args, rows, map(_tsv, rows))
    return 0


def _cmd_verify(engine: GWEngine, args) -> int:
    ok, lines = SUITES[args.suite](engine)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _cmd_seeds(engine: GWEngine, args) -> int:
    rows = [{"k": args.k, "cls": format_class_literal(b), "n": n} for b, n in seed_classes(args.k).items()]
    _emit(args, rows, map(_tsv, rows))
    return 0


_COMMANDS = {
    "nbeta": _cmd_nbeta,
    "cbeta": _cmd_cbeta,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "seeds": _cmd_seeds,
}


def _cache_error(action: str, path: str, exc: OSError) -> int:
    print(f"error: cannot {action} cache {path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    cache_path = args.cache_path or os.environ.get(CACHE_ENV_VAR)
    engine = GWEngine()
    if cache_path:
        try:
            problems = engine.load_cache(cache_path)
        except OSError as exc:  # a directory or an unreadable file; a missing one holds no rows
            return _cache_error("read", cache_path, exc)
        for problem in problems:
            print(problem, file=sys.stderr)
    known = engine.memo_size

    try:
        code = _COMMANDS[args.command](engine, args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
    except (ValueError, InconsistentRelationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout (`| head`): what is left goes to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1

    if cache_path and engine.memo_size > known:  # a pure hit leaves the file as it is
        try:
            engine.save_cache(cache_path)
        except OSError as exc:  # e.g. its directory does not exist; stdout is already written
            return _cache_error("write", cache_path, exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
