"""The MDS proof a shift form's roots give, ``codes._roots_prove_mds``.

The proof is read before any reduction, so it must be sound on its own:
over random shift forms, cyclic, constacyclic and extended through a
random gamma, with their generator, tail, roots or shift constant
mutated, it never proves a code the per-subset determinant oracle
refutes, and no verdict changes when it is disabled.  On the reference
table codes of lengths 4 to 16 and on the length-6 Hermitian codes,
whose roots lie in GF(q^4), it replaces every reduction, and a
discrete-log guard below the roots' modulus skips it without changing
a verdict.  A progression T with 0 is read only under a unit step.
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

from oracles import lex_column_oracle, odd_prime_powers

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
    """The (n, k) of every reduced form a code makes."""
    calls = []
    form = codes_module.ReducedForm

    def spy(arith, rows, pivots):
        calls.append((arith.field.order, len(rows)))
        return form(arith, rows, pivots)

    monkeypatch.setattr(codes_module, "ReducedForm", spy)
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
    another lam.  Half of the codes take their roots in the quadratic
    extension of their field: the set is closed under x -> q*x, so g
    descends to the field."""
    field = _field(*draw(st.sampled_from(FIELDS)))
    roots_field = (quadratic_extension(field) if draw(st.booleans())
                   else field)
    q, wide = field.order, roots_field.order
    element = st.integers(0, q - 1).map(field.from_int)
    lam = draw(st.just(field.one) | st.integers(1, q - 1).map(field.from_int))
    r = element_order(lam)
    n = draw(st.sampled_from([n for n in range(2, 9)
                              if (wide - 1) % (r * n) == 0] or [0]))
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
    elements = {base + r * j for j in positions}
    if roots_field is not field:
        # q = 1 mod r, as lam of order r lies in GF(q), and q**2 = 1
        # mod r*n: the set with q times it is closed
        elements |= {q * x % (r * n) for x in elements}
        assume(len(elements) < n)
    T = DefiningSet(r * n, tuple(elements), step=r)
    if roots_field is field:
        g = list(codes_module.generator_from_defining_set(
            field, n, lam, T).g)
    else:
        spec = codes_module.generator_from_defining_set(
            roots_field, n, roots_field.embed(lam), T)
        halves = [roots_field.parts(c) for c in spec.g]
        assert not any(b for _, b in halves)
        g = [a for a, _ in halves]
    k = n - len(T)
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


def _length_six_fields():
    """(p, t) of every odd q <= 49 with 5 | q**2 + 1, GF(27) among
    them."""
    return [(p, t) for q, p, t in odd_prime_powers(49)
            if (q * q + 1) % 5 == 0]


@pytest.mark.parametrize("p, t", _length_six_fields())
def test_the_length_six_codes_are_proved_by_their_roots(p, t, reductions):
    # T = {2, 3} mod 5 lies in GF(q^4), and T with 0 is a progression
    # with step 2: built and verified from the record, no reduction
    built = build_hermitian_n5(p, t)
    T, lam = built.cyclic.defining, built.cyclic.lam
    assert (built.code.field.order - 1) % 5 != 0
    assert prove(built.code, T, lam, GuardConfig())
    code = code_from_json(built.to_json())[0]
    assert prove(code, T, lam, GuardConfig())
    assert verify_code(code, defining=T, lam=lam)[0] == built.report
    assert reductions == []


def _length_six_mutated(name, p):
    built = build_hermitian_n5(p, 1)
    code, lam = built.code, built.cyclic.lam
    f = code.field
    if name == "g_coefficient":
        # g = x**2 - s*x + 1: its middle coefficient moves by one
        g1 = code._value_rows[0][1]
        code = _edit(code, 1, f._add(g1, f._one))
    elif name == "zero_tail":
        code = _edit(code, -1, f._zero)
    elif name == "other_tail":
        tail = code._value_rows[0][-1]
        code = _edit(code, -1, f._add(tail, f._one))
    else:
        lam = f.from_int(2)
    return built, code, lam


@pytest.mark.parametrize("name", ["g_coefficient", "zero_tail", "lambda"])
@pytest.mark.parametrize("p", [3, 7, 13])
def test_a_mutated_length_six_code_is_left_to_the_reduced_form(name, p):
    built, code, lam = _length_six_mutated(name, p)
    T = built.cyclic.defining
    assert code._shift is not None
    assert not prove(code, T, lam, GuardConfig())
    facts = {"defining": T, "lam": lam}
    want = verify_code(_fresh(code), **facts)
    with mock.patch.object(codes_module, "_roots_prove_mds",
                           lambda *args: False):
        assert verify_code(_fresh(code), **facts) == want


@pytest.mark.parametrize("p", [3, 7, 13])
def test_any_nonzero_tail_keeps_a_length_six_code_proved_and_mds(p):
    # the proof reads only t != 0: the check row of the last coordinate
    # is (1, ..., 1, -g(1)/t) for every nonzero tail t
    built, code, lam = _length_six_mutated("other_tail", p)
    assert code._value_rows[0][-1] != built.code._value_rows[0][-1]
    assert prove(code, built.cyclic.defining, lam, GuardConfig())
    assert lex_column_oracle(code) == ("certified-exact", None)


def test_a_progression_under_a_step_sharing_a_factor_is_not_proved():
    # over GF(5), g = x - alpha**2 = x + 1 with alpha of order m = 4,
    # extended by a tail: T = {2}, and T with 0 is 0, 2, a progression
    # only under step 2, which shares a factor with 4.  The check rows
    # (1, -1, 1, -1 | 0) and (1, 1, 1, 1 | 1/gamma) agree on columns 0
    # and 2, so the code is not MDS
    f = make_field(5, 1)
    T = DefiningSet(4, (2,))
    spec = codes_module.generator_from_defining_set(f, 4, f.one, T)
    g = tuple(c.value for c in spec.g)
    zero, tail = (f._zero,), (f.from_int(3).value,)
    code = LinearCode._from_values(f, 5, 3, tuple(
        zero * i + g + zero * (2 - i) + tail for i in range(3)))
    assert code._shift is not None
    assert lex_column_oracle(code)[0] == "refuted"
    assert not prove(code, T, f.one, GuardConfig())
    cert = verify_code(code, extended_defining=T, lam=f.one)[1]
    assert cert.verdict.status == "refuted"


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


def _gf5_length_six():
    """The [6, 3, 4] cyclic code over GF(5) with roots alpha**e, e in
    T = {2, 3, 4} mod 6: the set is closed under x -> 5*x, so g has its
    coefficients in GF(5), but its roots lie only in GF(25)."""
    f = make_field(5, 1)
    wide = quadratic_extension(f)
    T = DefiningSet(6, (2, 3, 4))
    spec = codes_module.generator_from_defining_set(wide, 6, wide.one, T)
    g = tuple(wide.parts(c)[0].value for c in spec.g)
    zero = (f._zero,)
    rows = tuple(zero * i + g + zero * (2 - i) for i in range(3))
    return LinearCode._from_values(f, 6, 3, rows), T, f.one


def test_the_bch_rung_places_roots_in_the_quadratic_extension(
        tmp_path, capsys, reductions):
    # the one change of behaviour: a record whose roots lie only in
    # GF(q^2) is certified by the named bch rung, where it was
    # inconclusive; a field size guard below q**2 keeps the old verdict
    code, T, lam = _gf5_length_six()
    assert lex_column_oracle(code) == ("certified-exact", None)
    cert = codes_module.certify_mds(code, defining=T, lam=lam, mode="bch")
    assert (cert.verdict.status, cert.distance_lower_bound) == (
        "certified-bch", 4)
    below = codes_module.certify_mds(code, defining=T, lam=lam, mode="bch",
                                     guards=GuardConfig(field_size_limit=24))
    assert (below.verdict.status, below.reason) == (
        "inconclusive", "roots do not fit n = 6: r*n = 6 does not divide "
        "q - 1 = 4")
    record = tmp_path / "gf5.json"
    record.write_text(json.dumps(codes_module.code_to_json(
        code, {"defining_set": T.to_json(), "lambda": [1]})))
    capsys.readouterr()
    assert main(["verify", str(record), "--mds", "bch"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "euclidean_self_dual": False, "hermitian_self_dual": None,
        "distance": {"lower_bound": 4}, "mds": {"status": "certified-bch"}}
    # in auto mode the roots prove it with no reduction and no scan:
    # the distance the scan measured
    assert main(["verify", str(record)]) == 1
    assert json.loads(capsys.readouterr().out)["distance"] == {"exact": 4}
    assert reductions == []

