"""Command line front end.

Output is NDJSON (one JSON object per line) unless --pretty is given.
Exit codes: 0 success, 1 domain or predicate failure, 2 malformed
input or a construction that failed its own verification.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .codes import code_from_json, verify_code
from .config import current_guards
from .constructions import (
    build_constacyclic_hermitian,
    build_euclidean_duadic_extended,
    build_grs_hermitian,
    build_hermitian_extended_duadic,
    build_hermitian_n5,
    build_negacyclic_hermitian,
    exists_hermitian_dispatch,
)
from .cosets import DefiningSet, check_duadic_splitting
from .errors import (
    DiscreteLogGuardExceeded,
    MalformedInput,
    SelfDualError,
    VerificationFailed,
)
from .fields import TowerSpec, element_from_json

CONSTRUCT_ROUTES = (
    "euclidean-duadic",
    "grs-hermitian",
    "constacyclic",
    "negacyclic",
    "hermitian-duadic",
    "hermitian-n5",
    "dispatch",
)


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None))


def _require_n(args) -> int:
    if args.n is None:
        raise MalformedInput("route %r needs --n" % args.route)
    return args.n


def cmd_construct(args) -> int:
    guards = current_guards(None)
    route = args.route
    if route == "euclidean-duadic":
        result = build_euclidean_duadic_extended(args.p, args.t,
                                                 _require_n(args), guards)
    elif route == "grs-hermitian":
        points = None
        if args.points is not None:
            try:
                points = [int(x) for x in args.points.split(",") if x.strip()]
            except ValueError as exc:
                raise MalformedInput("bad --points list: %s" % exc) from exc
        result = build_grs_hermitian(args.p, args.t, _require_n(args),
                                     points=points, guards=guards)
    elif route == "constacyclic":
        if args.r is None:
            raise MalformedInput("constacyclic needs --r")
        result = build_constacyclic_hermitian(args.p, args.t,
                                              _require_n(args), args.r, guards)
    elif route == "negacyclic":
        result = build_negacyclic_hermitian(args.p, args.t,
                                            _require_n(args), guards)
    elif route == "hermitian-duadic":
        result = build_hermitian_extended_duadic(args.p, args.t,
                                                 _require_n(args), guards)
    elif route == "hermitian-n5":
        if args.n is not None and args.n != 5:
            raise MalformedInput("hermitian-n5 fixes n = 5")
        result = build_hermitian_n5(args.p, args.t, guards)
    else:  # dispatch
        result = exists_hermitian_dispatch(args.p, args.t,
                                           _require_n(args), guards)
    _emit(result.to_json(), args.pretty)
    return 0


def cmd_verify(args) -> int:
    guards = current_guards(None)
    if args.trials < 1:
        raise MalformedInput("--trials must be at least 1, got %d"
                             % args.trials)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deep to parse
        raise MalformedInput("cannot read %s: %s" % (args.file, exc)) from exc
    try:
        code, metadata = code_from_json(obj, guards)
    except SelfDualError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedInput("bad code record: %s" % exc) from exc

    over_tower = isinstance(code.field, TowerSpec)
    inner = args.inner
    if inner == "auto":
        inner = "hermitian" if over_tower else "euclidean"
    if inner == "hermitian" and not over_tower:
        raise MalformedInput(
            "hermitian check needs a code over a quadratic extension"
        )

    defining = lam = None
    if isinstance(metadata, dict):
        try:
            if metadata.get("defining_set"):
                defining = DefiningSet.from_json(metadata["defining_set"])
            if "lambda" in metadata:
                lam = element_from_json(code.field, metadata["lambda"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise MalformedInput("bad defining_set/lambda: %s" % exc) from exc

    report, _ = verify_code(code, defining=defining, lam=lam, mode=args.mds,
                            trials=args.trials, guards=guards)
    self_dual = (report.hermitian_self_dual if inner == "hermitian"
                 else report.euclidean_self_dual)
    _emit(report.to_json(), args.pretty)
    return 0 if self_dual and report.mds.status != "refuted" else 1


def cmd_table(args) -> int:
    from .table import all_match, run_table

    outcomes = run_table()
    for outcome in outcomes:
        _emit(outcome.to_json(), args.pretty)
    counts = {"CONFIRMED": 0, "UNSUPPORTED": 0, "GUARDED": 0}
    for outcome in outcomes:
        counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
    matched = all_match(outcomes)
    _emit({
        "pairs": len(outcomes),
        "confirmed": counts.get("CONFIRMED", 0),
        "unsupported": counts.get("UNSUPPORTED", 0),
        "guarded": counts.get("GUARDED", 0),
        "all_match_expected": matched,
    }, args.pretty)
    return 0 if matched else 1


def cmd_splitting(args) -> int:
    guards = current_guards(None)
    if args.n < 1:
        raise MalformedInput("--n must be at least 1, got %d" % args.n)
    if args.set_from > args.set_to:
        raise MalformedInput("--set-from exceeds --set-to")
    # the coset walks run over the powers of q mod n, and the two
    # halves hold up to n residues
    if args.n > guards.dlog_limit:
        raise DiscreteLogGuardExceeded(
            "modulus n = %d exceeds the discrete-log guard %d"
            % (args.n, guards.dlog_limit))
    # only residues mod n matter, and a range as wide as n holds them all
    wide = args.set_to - args.set_from + 1 >= args.n
    T = DefiningSet(args.n, range(args.n) if wide
                    else range(args.set_from, args.set_to + 1))
    report = check_duadic_splitting(T, args.multiplier, args.n, args.q)
    _emit(report.to_json(), args.pretty)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    keeps no state between calls, so every ``main()`` shares it."""
    ap = argparse.ArgumentParser(
        prog="selfdual",
        description="Construct and verify MDS self-dual codes over "
                    "finite fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build one code and print it")
    c.add_argument("route", choices=CONSTRUCT_ROUTES)
    c.add_argument("--p", type=int, required=True, help="field characteristic")
    c.add_argument("--t", type=int, default=1, help="extension degree")
    c.add_argument("--n", type=int, help="code or cyclic length")
    c.add_argument("--r", type=int, help="shift constant order (constacyclic)")
    c.add_argument("--points", help="comma separated point indices (GRS)")
    c.add_argument("--pretty", action="store_true")

    v = sub.add_parser("verify", help="re-check a serialized code")
    v.add_argument("file", help="JSON file produced by construct")
    v.add_argument("--mds",
                   choices=["auto", "exhaustive", "columns", "monte-carlo",
                            "bch"],
                   default="auto")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--inner", choices=["auto", "euclidean", "hermitian"],
                   default="auto")
    v.add_argument("--pretty", action="store_true")

    tbl = sub.add_parser("table", help="run the reference length sweep")
    tbl.add_argument("--pretty", action="store_true")

    s = sub.add_parser("splitting", help="check a multiplier splitting")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True,
                   help="coset multiplier base")
    s.add_argument("--multiplier", type=int, required=True)
    s.add_argument("--set-from", dest="set_from", type=int, required=True)
    s.add_argument("--set-to", dest="set_to", type=int, required=True)
    s.add_argument("--pretty", action="store_true")
    return ap


_COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "table": cmd_table,
    "splitting": cmd_splitting,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except MalformedInput as exc:
        _emit({"error": exc.code, "message": exc.message}, False)
        return 2
    except VerificationFailed as exc:
        _emit({"error": exc.code, "predicate": exc.predicate,
               "message": exc.message}, False)
        return 2
    except SelfDualError as exc:
        out = {"error": exc.code, "message": exc.message}
        reason = getattr(exc, "reason", None)
        if reason:
            out["reason"] = reason
        _emit(out, False)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
