"""The MDS proof a shift form's roots give, ``codes._roots_prove_mds``.

The proof is read before any reduction, so it must be sound on its own:
over random shift forms, cyclic, constacyclic and extended through a
random gamma, with their generator, tail, roots or shift constant
mutated, it never proves a code the per-subset determinant oracle
refutes, and no verdict changes when it is disabled.  On the reference
table codes of lengths 4 to 16 it replaces every reduction, and a
discrete-log guard below the roots' modulus skips it without changing
a verdict.
"""
import json
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from selfdual import codes as codes_module
from selfdual.cli import main
from selfdual.codes import (
    LinearCode,
    code_from_json,
    mds_check,
    verify_code,
)
from selfdual.config import GuardConfig
from selfdual.constructions import (
    build_constacyclic_hermitian,
    build_euclidean_duadic_extended,
    build_hermitian_extended_duadic,
    build_hermitian_n5,
    build_negacyclic_hermitian,
    exists_hermitian_dispatch,
)
from selfdual.cosets import DefiningSet
from selfdual.fields import (
    element_order,
    make_field,
    quadratic_extension,
)
from selfdual.table import EXPECTED_UNSUPPORTED, TABLE_ROWS

from oracles import lex_column_oracle

prove = codes_module._roots_prove_mds


def _field(p, t, levels):
    field = make_field(p, t)
    for _ in range(levels):
        field = quadratic_extension(field)
    return field


# GF(p), GF(p^t), towers over both and a tower of towers, each with
# lengths 2..8 dividing q - 1
FIELDS = [(7, 1, 0), (11, 1, 0), (13, 1, 0), (17, 1, 0), (2, 3, 0),
          (2, 4, 0), (3, 2, 0), (5, 2, 0), (3, 1, 1), (5, 1, 1), (2, 2, 1),
          (2, 1, 2)]

MUTATIONS = ("none", "g_entry", "zero_tail", "tail", "shifted_set",
             "zero_in_set", "other_lam")


def _fresh(code):
    """The same generator as a new code, with no form cached."""
    return LinearCode._from_values(code.field, code.n, code.k,
                                   code._value_rows)


@pytest.fixture
def reductions(monkeypatch):
    """The (n, k) of every ``LinearCode._reduce_on`` call."""
    calls = []
    reduce_on = LinearCode._reduce_on

    def spy(self, table):
        calls.append((self.n, self.k))
        return reduce_on(self, table)

    monkeypatch.setattr(LinearCode, "_reduce_on", spy)
    return calls


@st.composite
def proposed_shift_form(draw):
    """(code, T, lam, key, mutation): a shift form over a random field,
    the roots T with shift constant lam proposed for it, and whether
    they come as ``defining`` or ``extended_defining``.  The code is the
    cyclic or constacyclic code of a defining set (a run, one that ends
    next to exponent 0, a run through 0 less 0, or any set), with no
    tail, extended through a random gamma, or with a random tail; then
    at most one mutation: one entry of g changed, a zero tail, a random
    tail, the proposed set shifted by one step, 0 added to it, or
    another lam."""
    field = _field(*draw(st.sampled_from(FIELDS)))
    q = field.order
    element = st.integers(0, q - 1).map(field.from_int)
    lam = draw(st.just(field.one) | st.integers(1, q - 1).map(field.from_int))
    r = element_order(lam)
    n = draw(st.sampled_from([n for n in range(2, 9)
                              if (q - 1) % (r * n) == 0] or [0]))
    assume(n)
    size = draw(st.integers(0, n - 2))
    shape = draw(st.sampled_from(("run", "next_to_zero", "gap_at_zero",
                                  "any")))
    if shape == "any":
        positions = draw(st.sets(st.integers(0, n - 1), min_size=size,
                                 max_size=size))
    elif shape == "gap_at_zero":
        # a run of size + 1 through position 0, less 0
        start = -draw(st.integers(0, size))
        positions = [(start + i) % n for i in range(size + 1)
                     if start + i != 0]
    else:
        start = draw(st.sampled_from([1, n - size]) if shape == "next_to_zero"
                     else st.integers(0, n - 1))
        positions = [(start + i) % n for i in range(size)]
    base = 1 % r
    T = DefiningSet(r * n, tuple(base + r * j for j in positions), step=r)
    spec = codes_module.generator_from_defining_set(field, n, lam, T)
    g, k = list(spec.g), n - size
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "g_entry":
        g[draw(st.integers(0, len(g) - 1))] = draw(element)
    extension = draw(st.sampled_from(("none", "gamma", "tail")))
    if mutation in ("zero_tail", "tail") and extension == "none":
        extension = "tail"
    tail = ()
    if extension == "gamma":
        tail = (-draw(element) * sum(g, field.zero),)
    elif extension == "tail":
        tail = (draw(element),)
    if mutation == "zero_tail":
        tail = (field.zero,)
    zero = (field.zero,)
    rows = tuple(zero * i + tuple(g) + zero * (k - 1 - i) + tail
                 for i in range(k))
    try:
        code = LinearCode(field, n + len(tail), k, rows)
    except ValueError:  # g changed to zero
        assume(False)
    if mutation == "shifted_set":
        T = DefiningSet(T.modulus, tuple(x + r for x in T.elements), step=r)
    elif mutation == "zero_in_set" and r == 1:
        T = DefiningSet(T.modulus, (0, *T.elements))
    elif mutation == "other_lam":
        lam = draw(st.integers(1, q - 1).map(field.from_int))
    key = draw(st.sampled_from(("defining", "extended_defining")))
    return code, T, lam, key, mutation


@settings(deadline=None, max_examples=300)
@given(proposed_shift_form())
def test_a_root_proof_is_sound_and_never_changes_a_verdict(case):
    code, T, lam, key, _ = case
    if prove(code, T, lam, GuardConfig()):
        assert lex_column_oracle(code) == ("certified-exact", None)
    facts = {key: T, "lam": lam}
    roots = (T, lam)
    verdicts = [verify_code(_fresh(code), **facts),
                mds_check(_fresh(code), "exhaustive-columns", roots=roots),
                mds_check(_fresh(code), "monte-carlo", trials=20,
                          roots=roots)]
    with mock.patch.object(codes_module, "_roots_prove_mds",
                           lambda *args: False):
        assert verdicts == [
            verify_code(_fresh(code), **facts),
            mds_check(_fresh(code), "exhaustive-columns", roots=roots),
            mds_check(_fresh(code), "monte-carlo", trials=20, roots=roots)]


def _gf7_extended():
    """The [4, 2, 3] extended duadic code over GF(7), roots {1} mod 3."""
    built = build_euclidean_duadic_extended(7, 1, 3)
    return built.code, built.cyclic.defining, built.cyclic.lam


def _with_rows(code, rows):
    return LinearCode._from_values(code.field, code.n, code.k, rows)


def _edit(code, column, value):
    """The code with ``column`` of every row set to the field value
    ``value``: a shift form stays one when the column is g's first or
    the tail."""
    rows = []
    for i, row in enumerate(code._value_rows):
        row = list(row)
        j = column + i if column >= 0 else column
        row[j] = value
        rows.append(tuple(row))
    return _with_rows(code, tuple(rows))


def _mutated(name):
    code, T, lam = _gf7_extended()
    f = code.field
    if name == "g_entry":
        code = _edit(code, 0, f.from_int(3).value)
    elif name == "zero_tail":
        code = _edit(code, -1, f._zero)
    elif name == "g_one_zero":
        # g = x - 1 vanishes at 1, so exponent 0 is among its roots; the
        # tail 1 keeps the shift form
        spec = codes_module.generator_from_defining_set(
            f, 3, f.one, DefiningSet(3, (0,)))
        g = tuple(c.value for c in spec.g)
        one = f.one.value
        code = _with_rows(code, (g + (f._zero, one), (f._zero,) + g + (one,)))
        T = DefiningSet(3, (0,))
    elif name == "shifted_set":
        T = DefiningSet(3, (2,))
    elif name == "zero_in_set":
        T = DefiningSet(3, (0, 1))
    elif name == "other_lam":
        lam = f.from_int(6)
    return code, T, lam


@pytest.mark.parametrize("name", ["g_entry", "zero_tail", "g_one_zero",
                                  "shifted_set", "zero_in_set", "other_lam"])
def test_each_mutation_of_a_proved_code_leaves_it_to_the_reduced_form(name):
    code, T, lam = _gf7_extended()
    assert prove(code, T, lam, GuardConfig())
    code, T, lam = _mutated(name)
    assert code._shift is not None
    assert not prove(code, T, lam, GuardConfig())
    want = verify_code(_fresh(code), extended_defining=T, lam=lam)
    with mock.patch.object(codes_module, "_roots_prove_mds",
                           lambda *args: False):
        assert verify_code(_fresh(code), extended_defining=T, lam=lam) == want


@pytest.mark.parametrize("build, args", [
    (build_constacyclic_hermitian, (11, 1, 6, 4)),
    (build_negacyclic_hermitian, (3, 2, 10)),
    (build_hermitian_extended_duadic, (11, 1, 5)),
    (build_hermitian_extended_duadic, (47, 1, 23)),
    (exists_hermitian_dispatch, (7, 1, 8))])
def test_the_hermitian_cyclic_routes_are_proved_without_a_reduction(
        build, args, reductions):
    built = build(*args)
    assert prove(built.code, built.cyclic.defining, built.cyclic.lam,
                 GuardConfig())
    assert reductions == []


def test_a_length_six_hermitian_code_keeps_the_reduced_form():
    # {2, 3} with 0 is no run: the roots prove nothing
    built = build_hermitian_n5(7, 1)
    assert not prove(built.code, built.cyclic.defining, built.cyclic.lam,
                     GuardConfig())


TABLE_CODES = [(length, p, t) for length, fields in TABLE_ROWS
               if length <= 16 for p, t in fields
               if (length, p, t) not in EXPECTED_UNSUPPORTED]


def test_the_table_codes_are_proved_without_a_reduction(reductions, tmp_path,
                                                        capsys):
    assert len(TABLE_CODES) == 14
    for length, p, t in TABLE_CODES:
        built = build_euclidean_duadic_extended(p, t, length - 1)
        assert built.report.mds.status == "certified-exact"
        record = tmp_path / ("%d-%d-%d.json" % (length, p, t))
        record.write_text(json.dumps(built.to_json()))
        capsys.readouterr()
        assert main(["verify", str(record)]) == 0
        assert '"certified-exact"' in capsys.readouterr().out
    assert reductions == []


@pytest.mark.parametrize("length, p, t", TABLE_CODES)
def test_a_dlog_limit_below_the_modulus_skips_the_proof_alone(length, p, t,
                                                              reductions):
    built = build_euclidean_duadic_extended(p, t, length - 1)
    record = built.to_json()
    T = built.cyclic.defining
    below = GuardConfig(dlog_limit=T.modulus - 1)
    code = code_from_json(record)[0]
    assert prove(code, T, built.cyclic.lam, GuardConfig())
    assert not prove(code, T, built.cyclic.lam, below)
    assert reductions == []
    facts = {"defining": T, "lam": built.cyclic.lam}
    report, cert = verify_code(_fresh(code), guards=below, **facts)
    assert reductions != []
    assert (report, cert) == verify_code(_fresh(code), **facts)
    assert report == built.report
