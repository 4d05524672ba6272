"""Each ``GuardConfig`` key at its boundary, on fixed small codes.

With the key one below what the work needs, the work is refused: a
named error or a ``guarded`` verdict whose message carries the estimate
(for a Zech table, no table and a packed form instead).  With the key
exactly at the need, the work runs.  Each key is checked at each of its
sites, with the config handed to the call, never the environment's:
``field_size_limit`` and ``factor_limit`` where a field is admitted, on
p before any arithmetic (``make_field``), on the largest field a route
computes in (GF(q^2) for a Hermitian route) and on a record's field
(``code_from_json``), and ``factor_limit`` on the n of a solvability
verdict; ``dlog_limit`` at the Zech table, the cached-form gate, the
norm walk, the root walk of the ``bch`` rung and that of a cyclic
route's generator.  ``check_centered_duadic_splitting`` admits its
field as ``make_field`` does and bounds its n by ``dlog_limit``.
Last, a process whose environment holds a malformed override runs
every builder, the record reader and the verifier on an explicit
config: none of them reads the environment.
"""
import functools
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
    _reduction_table,
    certify_mds,
    code_from_json,
)
from selfdual.config import GuardConfig
from selfdual.constructions import (
    build_constacyclic_hermitian,
    build_euclidean_duadic_extended,
    check_centered_duadic_splitting,
)
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


def _cached_form_gate(guards):
    """(the cached form came back, the form is packed) for a code whose
    form was first reduced on a Zech table."""
    code = _fresh(_gf49_built().code)
    cached = code._reduced(GuardConfig())
    form = code._reduced(guards)
    return form is cached, form.packed


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
    ("dlog_limit", 49,
     lambda g: _reduction_table(_gf49_built().code.field, 4, 8,
                                g.dlog_limit) is not None,
     False, True),
    ("dlog_limit", 49, _cached_form_gate, (False, True), (True, False)),
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
         "dlog_limit-zech_table", "dlog_limit-cached_form",
         "dlog_limit-norm_walk", "dlog_limit-root_walk",
         "dlog_limit-cyclic_generator", "dlog_limit-constacyclic_generator",
         "field_size-centered_splitting",
         "field_size-centered_splitting_order",
         "factor_limit-centered_splitting",
         "dlog_limit-centered_splitting"])
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
