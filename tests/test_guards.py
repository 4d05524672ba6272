"""Each ``GuardConfig`` key at its boundary, on fixed small codes.

With the key one below what the work needs, the work is refused: a
named error or a ``guarded`` verdict whose message carries the estimate
(for the quadratic extension of a root proof, no proof and a reduction
instead).  With the key exactly at the need, the work runs.  Each key
is checked at each of its sites, with the config handed to the call,
never the environment's: ``field_size_limit`` and ``factor_limit``
where a field is admitted, on p before any arithmetic (``make_field``),
on the largest field a route computes in (GF(q^2) for a Hermitian
route), on a record's field (``code_from_json``) and on the extension
that holds a code's roots, and ``factor_limit`` on the n of a
solvability verdict; ``dlog_limit`` at the norm walk, the root walk of
the ``bch`` rung and that of a cyclic route's generator.
``check_centered_duadic_splitting`` admits its field as ``make_field``
does and bounds its n by ``dlog_limit``, and so does
``check_duadic_splitting``, before it builds the two halves.
A process whose environment holds a malformed override runs every
builder, the record reader and the verifier on an explicit config: none
of them reads the environment.  Last, every top-level export takes
``guards``, or only objects that a guarded function built and values
that size no work.
"""
import functools
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfdual
from selfdual.codes import (
    LinearCode,
    MdsCertificate,
    MdsVerdict,
    _roots_prove_mds,
    certify_mds,
    code_from_json,
)
from selfdual.config import GuardConfig
from selfdual.constructions import (
    build_constacyclic_hermitian,
    build_euclidean_duadic_extended,
    build_hermitian_n5,
    check_centered_duadic_splitting,
)
from selfdual.cosets import DefiningSet, check_duadic_splitting
from selfdual.errors import NotPrime, SelfDualError
from selfdual.fields import solve_norm
from selfdual.numtheory import gamma_solvability


@functools.cache
def _gf7_code():
    """The [4, 2, 3] extended duadic code over GF(7): q**k = 49."""
    return build_euclidean_duadic_extended(7, 1, 3).code


@functools.cache
def _gf49_built():
    """The [8, 4, 5] constacyclic code over GF(49): C(8, 4) = 70, and a
    defining set of modulus 16 over a base field of 7 elements."""
    return build_constacyclic_hermitian(7, 1, 8, 2)


@functools.cache
def _gf13_record():
    """The record of the [4, 2, 3] extended duadic code over GF(13):
    the generator search of GF(13) factors q - 1 = 12."""
    return build_euclidean_duadic_extended(13, 1, 3).to_json()


def _fresh(code):
    """The same generator as a new code, with no form cached."""
    return LinearCode._from_values(code.field, code.n, code.k,
                                   code._value_rows)


def _extension_proof(guards):
    """(the roots prove it MDS, it was reduced, its verdict) for the
    [6, 3, 4] code over GF(49), whose roots lie in GF(7^4)."""
    built = build_hermitian_n5(7, 1)
    code, T, lam = _fresh(built.code), built.cyclic.defining, built.cyclic.lam
    status = certify_mds(code, defining=T, lam=lam,
                         guards=guards).verdict.status
    return (_roots_prove_mds(code, T, lam, guards),
            "_form" in code.__dict__, status)


def _norm_walk(guards):
    tower = _gf49_built().code.field
    u = tower.base.from_int(3)
    return solve_norm(tower, u, guards) ** 8 == tower.embed(u)


def _root_walk(guards):
    built = _gf49_built()
    return certify_mds(built.code, defining=built.cyclic.defining,
                       lam=built.cyclic.lam, mode="bch", guards=guards)


def _guarded(tier, message, suffix=""):
    return MdsCertificate(tier, MdsVerdict("guarded"), reason=message,
                          warning=message + suffix)


def _factor_refusal(n):
    return ("FactorizationGuardExceeded",
            "%d exceeds the factorization guard" % n)


# (key, what the work needs, the work, outcome one below, outcome at it)
CASES = [
    ("field_size_limit", 49,
     lambda g: build_constacyclic_hermitian(7, 1, 8, 2, g).code.n,
     ("SizeGuardExceeded", "field order 49 exceeds the size guard"), 8),
    ("field_size_limit", 2147483659,
     lambda g: build_euclidean_duadic_extended(2147483659, 1, 3, g).code.n,
     ("SizeGuardExceeded", "p**t exceeds the field size guard 2147483658"),
     4),
    ("factor_limit", 3, lambda g: gamma_solvability(7, 1, 3, g).case,
     _factor_refusal(3), "QEquiv3Mod4-OddSum"),
    ("factor_limit", 12,
     lambda g: build_euclidean_duadic_extended(13, 1, 3, g).code.n,
     _factor_refusal(12), 4),
    ("factor_limit", 48,
     lambda g: build_constacyclic_hermitian(7, 1, 8, 2, g).code.n,
     _factor_refusal(48), 8),
    ("factor_limit", 12, lambda g: code_from_json(_gf13_record(), g)[0].n,
     _factor_refusal(12), 4),
    ("codeword_limit", 49,
     lambda g: certify_mds(_gf7_code(), mode="exhaustive", guards=g),
     _guarded("exhaustive", "q**k = 49 exceeds the codeword guard",
              "; no distance computed"),
     MdsCertificate("exhaustive", MdsVerdict("certified-exact"),
                    distance_exact=3)),
    ("column_limit", 70,
     lambda g: certify_mds(_gf49_built().code, mode="columns", guards=g),
     _guarded("columns", "C(n, k) = 70 exceeds the column guard"),
     MdsCertificate("columns", MdsVerdict("certified-exact"),
                    distance_exact=5)),
    ("field_size_limit", 2401, _extension_proof,
     (False, True, "certified-exact"), (True, False, "certified-exact")),
    ("dlog_limit", 7, _norm_walk,
     ("DiscreteLogGuardExceeded",
      "base field order 7 exceeds the discrete-log guard 6"), True),
    ("dlog_limit", 16, _root_walk,
     _guarded("bch", "defining set modulus 16 exceeds the discrete-log "
              "guard 15"),
     MdsCertificate("bch", MdsVerdict("certified-bch"),
                    distance_lower_bound=5)),
    ("dlog_limit", 3,
     lambda g: build_euclidean_duadic_extended(7, 1, 3, g).code.n,
     ("DiscreteLogGuardExceeded",
      "defining set modulus 3 exceeds the discrete-log guard 2"), 4),
    ("dlog_limit", 16,
     lambda g: build_constacyclic_hermitian(7, 1, 8, 2, g).code.n,
     ("DiscreteLogGuardExceeded",
      "defining set modulus 16 exceeds the discrete-log guard 15"), 8),
    ("field_size_limit", 7,
     lambda g: check_centered_duadic_splitting(7, 1, 25, g).witness,
     ("SizeGuardExceeded", "p**t exceeds the field size guard 6"), 12),
    ("field_size_limit", 9,
     lambda g: check_centered_duadic_splitting(3, 2, 41, g).is_splitting,
     ("SizeGuardExceeded", "field order 9 exceeds the size guard"), False),
    ("factor_limit", 8,
     lambda g: check_centered_duadic_splitting(3, 2, 41, g).is_splitting,
     _factor_refusal(8), False),
    ("dlog_limit", 25,
     lambda g: check_centered_duadic_splitting(7, 1, 25, g).witness,
     ("DiscreteLogGuardExceeded",
      "modulus n = 25 exceeds the discrete-log guard 24"), 12),
    ("dlog_limit", 25,
     lambda g: check_duadic_splitting(DefiningSet(25, range(7, 19)), -7,
                                      25, 49, g).witness,
     ("DiscreteLogGuardExceeded",
      "modulus n = 25 exceeds the discrete-log guard 24"), 12),
]


def _outcome(work, guards):
    """What ``work`` returned under ``guards``, or the name and message
    of the error that refused it."""
    try:
        return work(guards)
    except SelfDualError as exc:
        return exc.code, exc.message


@pytest.mark.parametrize(
    "key, need, work, below, at", CASES,
    ids=["field_size", "field_size-make_field", "factor_limit",
         "factor_limit-euclidean_route", "factor_limit-hermitian_route",
         "factor_limit-record", "codewords", "columns",
         "field_size-root_extension", "dlog_limit-norm_walk",
         "dlog_limit-root_walk",
         "dlog_limit-cyclic_generator", "dlog_limit-constacyclic_generator",
         "field_size-centered_splitting",
         "field_size-centered_splitting_order",
         "factor_limit-centered_splitting",
         "dlog_limit-centered_splitting", "dlog_limit-duadic_splitting"])
def test_a_guard_refuses_one_below_the_need_and_runs_at_it(key, need, work,
                                                           below, at):
    assert _outcome(work, GuardConfig(**{key: need - 1})) == below
    assert _outcome(work, GuardConfig(**{key: need})) == at


def test_a_record_over_a_strong_pseudoprime_is_refused_as_not_prime():
    # psi_12 passes Miller-Rabin to the first 12 prime bases; guards
    # that admit a field of its size must not read it as a prime.  The
    # generator (1, x), x**2 = -1 mod psi_12, spans a self-dual code
    # that would be certified over Z/psi_12 Z.
    record = {"field": {"p": 318665857834031151167461, "t": 1,
                        "modulus": [0, 1]},
              "n": 2, "k": 1,
              "generator": [[[1], [103782637039805229854323]]]}
    with pytest.raises(NotPrime):
        code_from_json(record, GuardConfig(field_size_limit=2**80,
                                           factor_limit=2**80))


# every builder on its README example, then its record read back and
# verified, all on one explicit config
_EXPLICIT_CONFIG_RUN = """
from selfdual import *
from selfdual.codes import verify_code

g = GuardConfig()
for build, args in [
        (build_euclidean_duadic_extended, (7, 1, 3)),
        (build_grs_hermitian, (5, 1, 4)),
        (build_constacyclic_hermitian, (11, 1, 6, 4)),
        (build_negacyclic_hermitian, (3, 2, 10)),
        (build_hermitian_extended_duadic, (11, 1, 5)),
        (build_hermitian_n5, (7, 1)),
        (exists_hermitian_dispatch, (7, 1, 8))]:
    result = build(*args, guards=g)
    code, _ = code_from_json(result.to_json(), g)
    report, _ = verify_code(code, guards=g)
    assert report == result.report, build.__name__
print("ok")
"""


def test_an_explicit_config_is_used_and_the_environment_never_read():
    # columns=0 is malformed: any read of the environment raises
    # MalformedInput, and the fresh process starts with empty caches
    src = str(Path(selfdual.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, SELFDUAL_GUARD_OVERRIDE="columns=0",
               PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", _EXPLICIT_CONFIG_RUN],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (0, "ok\n"), run.stderr


# the objects a guarded function builds: a field (``make_field``, a
# record's field, a route's field), its elements, a code, a verified
# report and a cyclic spec (``generator_from_defining_set``)
BUILT = {"Field", "Element", "LinearCode", "VerificationReport",
         "CyclicSpec"}

# the other parameters of exports that take no guards, each a value
# that sizes no work beyond its own size
UNSIZED = {
    "ConstructionResult": {"theorem": "a label", "construction": "a label",
                           "extras": "copied into the record"},
    "DefiningSet": {"modulus": "a value: it keeps its elements mod it",
                    "elements": "sorted once", "step": "a value"},
    "GuardConfig": {key: "the guard itself" for key in GuardConfig._fields},
    "LinearCode": {"n": "the shape of generator, checked against it",
                   "k": "the shape of generator, checked against it",
                   "generator": "rows of elements of field"},
    "code_to_json": {"metadata": "copied into the record"},
    "solve_gamma_euclidean": {"n": "read as the scalar n mod p"},
}


def _exports():
    """(name, parameters) of every callable at the top level of
    ``selfdual``, a class by its constructor; errors do no work."""
    for name, obj in sorted(vars(selfdual).items()):
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        yield name, inspect.signature(obj).parameters


def test_every_export_takes_guards_or_only_what_a_guarded_function_built():
    # a new export that computes on plain integers must take guards and
    # get a boundary row above, or name here why its input sizes nothing
    unguarded = {}
    for name, params in _exports():
        if "guards" in params:
            assert params["guards"].default is None, name
            continue
        for param in params.values():
            kinds = set(str(param.annotation).replace(" ", "").split("|"))
            if kinds - {"None"} <= BUILT:
                continue
            if param.name not in UNSIZED.get(name, {}):
                unguarded.setdefault(name, []).append(param.name)
    assert unguarded == {}
    # and no entry of the table outlives the parameter it names
    exports = dict(_exports())
    assert all(set(names) <= set(exports[name])
               for name, names in UNSIZED.items())
