"""Command line front end.

Output is NDJSON (one JSON object per line) unless --pretty is given.
Exit codes: 0 success, 1 domain or predicate failure, 2 malformed
input (a usage error included) or a construction that failed its own
verification.  ``parse_args`` reads the arguments from one table,
``_SPEC``, so a process imports no argument parser and builds none.
``main`` moves the heap alive when it is first called into the
permanent generation (``gc.freeze``), so the collector skips it.
"""
from __future__ import annotations

import functools
import gc
import json
import re
import sys
from types import SimpleNamespace

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
from .cosets import DefiningSet, check_coset_modulus, check_duadic_splitting
from .errors import (
    MalformedInput,
    SelfDualError,
    VerificationFailed,
)
from .fields import TowerSpec, element_from_json
from .table import run_table

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


def _read_json(path: str):
    """The JSON value in the file ``path``, read as its bytes, unbuffered,
    and decoded once: strict UTF-8 with universal newlines, so that a
    file reads as it would through a text-mode ``open`` and every
    refusal names the same position."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text)


def _require_n(args) -> int:
    if args.n is None:
        raise MalformedInput("route %r needs --n" % args.route)
    return args.n


def cmd_construct(args) -> int:
    guards = current_guards(None)
    # the routes that take exactly (p, t, n, guards); built per call, not
    # at import, so a builder rebound in this module (as a span tracer
    # rebinds it) is the one called
    plain = {
        "euclidean-duadic": build_euclidean_duadic_extended,
        "negacyclic": build_negacyclic_hermitian,
        "hermitian-duadic": build_hermitian_extended_duadic,
        "dispatch": exists_hermitian_dispatch,
    }
    if args.route in plain:
        result = plain[args.route](args.p, args.t, _require_n(args), guards)
    elif args.route == "grs-hermitian":
        points = None
        if args.points is not None:
            try:
                points = [int(x) for x in args.points.split(",") if x.strip()]
            except ValueError as exc:
                raise MalformedInput("bad --points list: %s" % exc) from exc
        result = build_grs_hermitian(args.p, args.t, _require_n(args),
                                     points=points, guards=guards)
    elif args.route == "constacyclic":
        if args.r is None:
            raise MalformedInput("constacyclic needs --r")
        result = build_constacyclic_hermitian(args.p, args.t,
                                              _require_n(args), args.r, guards)
    else:  # hermitian-n5
        if args.n is not None and args.n != 5:
            raise MalformedInput("hermitian-n5 fixes n = 5")
        result = build_hermitian_n5(args.p, args.t, guards)
    _emit(result.to_json(), args.pretty)
    return 0


def cmd_verify(args) -> int:
    guards = current_guards(None)
    if args.trials < 1:
        raise MalformedInput("--trials must be at least 1, got %d"
                             % args.trials)
    try:
        obj = _read_json(args.file)
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
    outcomes = run_table()
    for outcome in outcomes:
        _emit(outcome.to_json(), args.pretty)
    verdicts = [outcome.verdict for outcome in outcomes]
    matched = all(outcome.matches_expected for outcome in outcomes)
    _emit({
        "pairs": len(outcomes),
        "confirmed": verdicts.count("CONFIRMED"),
        "unsupported": verdicts.count("UNSUPPORTED"),
        "guarded": verdicts.count("GUARDED"),
        "all_match_expected": matched,
    }, args.pretty)
    return 0 if matched else 1


def cmd_splitting(args) -> int:
    guards = current_guards(None)
    if args.n < 1:
        raise MalformedInput("--n must be at least 1, got %d" % args.n)
    if args.set_from > args.set_to:
        raise MalformedInput("--set-from exceeds --set-to")
    # before the defining set is built
    check_coset_modulus(args.n, guards)
    # only residues mod n matter, and a range as wide as n holds them all
    wide = args.set_to - args.set_from + 1 >= args.n
    T = DefiningSet(args.n, range(args.n) if wide
                    else range(args.set_from, args.set_to + 1))
    report = check_duadic_splitting(T, args.multiplier, args.n, args.q,
                                    guards)
    _emit(report.to_json(), args.pretty)
    return 0


# The command line: for each command, its handler, its help, its
# positionals and its options.  A positional is (dest, choices or None,
# help); an option is (flag, type, default, required, choices or None,
# help), its dest the flag less its dashes with "-" read as "_".  Type
# bool marks a flag that takes no value and stores True.
_PRETTY = ("--pretty", bool, False, False, None,
           "indented JSON instead of one line per object")
_SPEC = {
    "construct": (cmd_construct, "build one code and print it", (
        ("route", CONSTRUCT_ROUTES, "construction route"),
    ), (
        ("--p", int, None, True, None, "field characteristic"),
        ("--t", int, 1, False, None, "extension degree"),
        ("--n", int, None, False, None, "code or cyclic length"),
        ("--r", int, None, False, None, "shift constant order (constacyclic)"),
        ("--points", str, None, False, None,
         "comma separated point indices (GRS)"),
        _PRETTY,
    )),
    "verify": (cmd_verify, "re-check a serialized code", (
        ("file", None, "JSON file produced by construct"),
    ), (
        ("--mds", str, "auto", False,
         ("auto", "exhaustive", "columns", "monte-carlo", "bch"),
         "MDS verification mode"),
        ("--trials", int, 1000, False, None, "Monte-Carlo trials"),
        ("--inner", str, "auto", False, ("auto", "euclidean", "hermitian"),
         "inner product of the self-duality check"),
        _PRETTY,
    )),
    "table": (cmd_table, "run the reference length sweep", (), (_PRETTY,)),
    "splitting": (cmd_splitting, "check a multiplier splitting", (), (
        ("--n", int, None, True, None, "modulus"),
        ("--q", int, None, True, None, "coset multiplier base"),
        ("--multiplier", int, None, True, None, "the multiplier"),
        ("--set-from", int, None, True, None, "least member of the set"),
        ("--set-to", int, None, True, None, "greatest member of the set"),
        _PRETTY,
    )),
}
_HELP = ("-h", "--help")
# as argparse reads a token: one that starts with "-" is a value only
# when it is "-" alone or looks like a negative number
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _is_value(token: str) -> bool:
    return (token[:1] != "-" or token == "-"
            or _NEGATIVE.match(token) is not None)


def _wrap(words, indent: int) -> str:
    """``words`` joined by spaces into lines of at most 79 columns, each
    line after the first indented by ``indent``."""
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) > 79:
            lines.append(" " * indent + word)
        else:
            lines[-1] += " " + word
    return "\n".join(lines)


def _usage(command) -> str:
    if command is None:
        return "usage: selfdual {%s} ..." % ",".join(_SPEC)
    _, _, positionals, options = _SPEC[command]
    words = ["usage: selfdual", command]
    words += [dest.upper() for dest, _, _ in positionals]
    for flag, kind, _, required, _, _ in options:
        word = flag if kind is bool else "%s %s" % (flag, _dest(flag).upper())
        words.append(word if required else "[%s]" % word)
    return _wrap(words, 16)


def _help(command) -> str:
    """The usage, the description and each argument with its help."""
    if command is None:
        rows = [(name, spec[1]) for name, spec in _SPEC.items()]
        about = ("Construct and verify MDS self-dual codes over finite "
                 "fields.\n'selfdual COMMAND -h' lists a command's options.")
    else:
        _, about, positionals, options = _SPEC[command]
        rows = [(dest, text + (", one of: %s" % ", ".join(choices)
                               if choices else ""))
                for dest, choices, text in positionals]
        for flag, kind, default, required, choices, text in options:
            if choices:
                text += ", one of: %s" % ", ".join(choices)
            if required:
                text += " (required)"
            elif kind is not bool and default is not None:
                text += " (default %s)" % default
            rows.append((flag, text))
    width = max(len(name) for name, _ in rows) + 2
    return "%s\n\n%s\n\n%s" % (_usage(command), about, "\n".join(
        _wrap(["  %-*s" % (width, name)] + text.split(), width + 3)
        for name, text in rows))


def _fail(command, message: str):
    """A usage error: the usage and the message on stderr, exit 2."""
    sys.stderr.write("%s\nselfdual: error: %s\n" % (_usage(command), message))
    raise SystemExit(2)


def _convert(command, name: str, kind, choices, token: str):
    try:
        value = kind(token)
    except ValueError:
        _fail(command, "argument %s: invalid %s value: %r"
              % (name, kind.__name__, token))
    if choices is not None and value not in choices:
        _fail(command, "argument %s: invalid choice: %r (choose from %s)"
              % (name, value, ", ".join(choices)))
    return value


def parse_args(argv=None) -> SimpleNamespace:
    """The arguments of one ``selfdual`` command, as read from ``_SPEC``.

    Reads ``sys.argv[1:]`` when ``argv`` is None.  Options may come
    before or after the positionals, as ``--opt value`` or
    ``--opt=value``, and the last of a repeated option wins; an option
    is named in full, and ``--`` is no end of the options.  ``-h`` or
    ``--help`` prints the help and exits 0; a usage error prints the
    usage and the error on stderr and exits 2.
    The namespace holds ``command`` and one attribute per argument of
    the command, absent options at their defaults.
    """
    tokens = sys.argv[1:] if argv is None else list(argv)
    if not tokens:
        _fail(None, "the following arguments are required: command")
    command = tokens[0]
    if command in _HELP:
        print(_help(None))
        raise SystemExit(0)
    if command not in _SPEC:
        _fail(None, "argument command: invalid choice: %r (choose from %s)"
              % (command, ", ".join(_SPEC)))
    _, _, positionals, options = _SPEC[command]
    by_flag = {option[0]: option for option in options}
    args = {"command": command}
    args.update((dest, None) for dest, _, _ in positionals)
    args.update((_dest(option[0]), option[2]) for option in options)
    free, extra = iter(positionals), []
    i = 1
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token in _HELP:
            print(_help(command))
            raise SystemExit(0)
        if _is_value(token):
            slot = next(free, None)
            if slot is None:
                extra.append(token)
            else:
                args[slot[0]] = _convert(command, slot[0], str, slot[1],
                                         token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in by_flag:
            _fail(command, "unrecognized argument: %s" % token)
        _, kind, _, _, choices, _ = by_flag[flag]
        if kind is bool:
            if eq:
                _fail(command, "argument %s: ignored explicit argument %r"
                      % (flag, value))
            value = True
        else:
            if not eq:
                if i == len(tokens) or not _is_value(tokens[i]):
                    _fail(command, "argument %s: expected one argument"
                          % flag)
                value = tokens[i]
                i += 1
            value = _convert(command, flag, kind, choices, value)
        args[_dest(flag)] = value
    # a required option has no default: None until it is given
    missing = [dest for dest, _, _ in free] + [
        flag for flag, _, _, required, _, _ in options
        if required and args[_dest(flag)] is None]
    if missing:
        _fail(command, "the following arguments are required: %s"
              % ", ".join(missing))
    if extra:
        _fail(command, "unrecognized arguments: %s" % " ".join(extra))
    return SimpleNamespace(**args)


@functools.cache
def _freeze_heap() -> None:
    """Move the heap into the permanent generation, once per process.

    What is alive when ``main`` is first called (the interpreter, the
    site hooks, the imported modules and their caches) lives until the
    process exits, so no collection should walk it, neither during the
    command nor at shutdown.  A heap that an embedding program froze
    first is left as it is.  ``gc.get_freeze_count`` walks the whole
    permanent generation, so it is read on the first call only.

    The frozen objects, and any cycles among them, are never collected:
    a long-running program that calls ``main`` in-process should call
    ``gc.freeze()`` itself first, or ``gc.unfreeze()`` after ``main``."""
    if gc.get_freeze_count() == 0:
        gc.freeze()


def main(argv=None) -> int:
    _freeze_heap()
    args = parse_args(argv)
    handler = _SPEC[args.command][0]
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
