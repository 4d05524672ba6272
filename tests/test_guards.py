"""Each ``GuardConfig`` key at its boundary, on fixed small codes.

With the key one below what the work needs, the work is refused: a
named error or a ``guarded`` verdict whose message carries the estimate
(for a Zech table, no table and a packed form instead).  With the key
exactly at the need, the work runs.  ``dlog_limit`` is checked at each
of its sites: the Zech table, the cached-form gate, the norm walk and
the root walk of the ``bch`` rung.
"""
import functools

import pytest

from selfdual.codes import (
    LinearCode,
    MdsCertificate,
    MdsVerdict,
    _reduction_table,
    certify_mds,
)
from selfdual.config import GuardConfig
from selfdual.constructions import (
    build_constacyclic_hermitian,
    build_euclidean_duadic_extended,
)
from selfdual.errors import SelfDualError
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


# (key, what the work needs, the work, outcome one below, outcome at it)
CASES = [
    ("field_size_limit", 49,
     lambda g: build_constacyclic_hermitian(7, 1, 8, 2, g).code.n,
     ("SizeGuardExceeded", "field order 49 exceeds the size guard"), 8),
    ("factor_limit", 3, lambda g: gamma_solvability(7, 1, 3, g).case,
     ("FactorizationGuardExceeded", "3 exceeds the factorization guard"),
     "QEquiv3Mod4-OddSum"),
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
    ids=["field_size", "factor_limit", "codewords", "columns",
         "dlog_limit-zech_table", "dlog_limit-cached_form",
         "dlog_limit-norm_walk", "dlog_limit-root_walk"])
def test_a_guard_refuses_one_below_the_need_and_runs_at_it(key, need, work,
                                                           below, at):
    assert _outcome(work, GuardConfig(**{key: need - 1})) == below
    assert _outcome(work, GuardConfig(**{key: need})) == at
