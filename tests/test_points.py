"""The evaluation form of a generator, ``LinearCode._points``.

Rows r_i = v * a**i on distinct points prove the code MDS, and so of
rank k, with no reduction.  Over random GRS generators, with points in
GF(q) or in the base of GF(q^2), their rows reversed or mixed, one
multiplier or one entry changed, a zero multiplier or a repeated point,
k = 1 and k > n, the form is found only where the rank and lex-column
oracles agree that the code is MDS of rank k, and no verdict changes
when it is withheld; reversed rows on the point 0 are read upward from
the last row.  With the points and the roots read first, no route's
build and no verify of its record builds a Zech table.
"""
import json
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from selfdual import cli as cli_module, codes as codes_module
from selfdual import fields, linalg
from selfdual.cli import main
from selfdual.codes import LinearCode, mds_check, verify_code
from selfdual.constructions import (
    build_euclidean_duadic_extended,
    build_grs_hermitian,
    build_hermitian_extended_duadic,
    build_hermitian_n5,
    exists_hermitian_dispatch,
)
from selfdual.errors import SelfDualError
from selfdual.fields import (
    Field,
    TowerSpec,
    frobenius,
    make_field,
    quadratic_extension,
    sqrt_in_field,
)
from selfdual.linalg import packed_field
from selfdual.table import TABLE_ROWS

from oracles import (
    gram_is_zero_oracle,
    lex_column_oracle,
    matrix_rank,
    odd_prime_powers,
)

# GF(p), GF(p^t) and towers over both
FIELDS = [(5, 1, 0), (7, 1, 0), (13, 1, 0), (2, 3, 0), (3, 2, 0),
          (3, 1, 1), (5, 1, 1), (2, 2, 1)]

MUTATIONS = ("none", "reversed", "mixed", "multiplier", "entry",
             "zero_multiplier", "repeated_point")


def _field(p, t, levels):
    field = make_field(p, t)
    return quadratic_extension(field) if levels else field


@st.composite
def evaluation_rows(draw):
    """(field, rows, mutation, points): k rows v * a**i on n distinct
    points, in the field or, over a tower, in its base, with k from 1 to
    n + 1, then at most one mutation: the rows reversed or in another
    order, one multiplier or one entry changed, a zero multiplier, or
    one point repeated."""
    field = _field(*draw(st.sampled_from(FIELDS)))
    domain = field
    if isinstance(field, TowerSpec) and draw(st.booleans()):
        domain = field.base
    q = domain.order
    n = draw(st.integers(1, min(q, 7)))
    k = draw(st.integers(1, n + 1))
    points = [domain.from_int(i)
              for i in draw(st.permutations(range(q)))[:n]]
    if domain is not field:
        points = list(map(field.embed, points))
    nonzero = st.integers(1, field.order - 1).map(field.from_int)
    v = [draw(nonzero) for _ in range(n)]
    mutation = draw(st.sampled_from(MUTATIONS))
    j = draw(st.integers(0, n - 1))
    if mutation == "multiplier":
        v[j] = draw(nonzero)
    elif mutation == "zero_multiplier":
        v[j] = field.zero
    elif mutation == "repeated_point":
        points[j] = points[draw(st.integers(0, n - 1))]
    rows = [[vj * a ** i for vj, a in zip(v, points)] for i in range(k)]
    if mutation == "entry":
        rows[draw(st.integers(0, k - 1))][j] = draw(
            st.integers(0, field.order - 1).map(field.from_int))
    elif mutation == "reversed":
        rows.reverse()
    elif mutation == "mixed":
        rows = draw(st.permutations(rows))
    return field, tuple(map(tuple, rows)), mutation, points


def _made(field, rows):
    """(code, whether its rank check passed): the code of ``rows``,
    built past a failed rank check so that its points can be read."""
    code = LinearCode.__new__(LinearCode)
    values = tuple(tuple(x.value for x in row) for row in rows)
    try:
        code._hold(field, len(rows[0]), len(rows), values)
    except ValueError:
        return code, False
    return code, True


def _verdicts(field, rows):
    code = LinearCode(field, len(rows[0]), len(rows), rows)
    return [verify_code(code),
            mds_check(code, "exhaustive-columns"),
            mds_check(code, "monte-carlo", trials=20)]


@settings(deadline=None, max_examples=300)
@given(evaluation_rows())
def test_points_are_found_only_on_mds_codes_and_change_no_verdict(case):
    field, rows, mutation, points = case
    n, k = len(rows[0]), len(rows)
    code, full = _made(field, rows)
    found = code._points
    if found is not None:
        assert full and matrix_rank(rows, field) == k
        assert lex_column_oracle(code) == ("certified-exact", None)
    # the form as built is always found, and reversed rows with 1/a
    # when no point is 0, or read upward from the last row, with a,
    # when one is
    if 2 <= k <= n and mutation in ("none", "multiplier", "reversed"):
        want = points
        if mutation == "reversed" and field.zero not in points:
            want = [a.inverse() for a in points]
        decode = packed_field(field, n).decode
        assert (found and list(map(decode, found))) == want
    if not full:
        return
    verdicts = _verdicts(field, rows)
    with mock.patch.object(LinearCode, "_points",
                           property(lambda self: None)):
        assert _verdicts(field, rows) == verdicts


def _sweep_builds():
    """(builder, args) of the 56 Hermitian builds of acceptance criteria
    4 to 6: every even n <= q + 1 through the dispatcher for q <= 13,
    the length-6 family for every q <= 49 with 5 | q**2 + 1, and every
    extended duadic (q, n) with q <= 49."""
    builds = []
    for q, p, t in odd_prime_powers(13):
        builds += [(exists_hermitian_dispatch, (p, t, n))
                   for n in range(2, q + 2, 2)]
    for q, p, t in odd_prime_powers(49):
        if (q * q + 1) % 5 == 0:
            builds.append((build_hermitian_n5, (p, t)))
    for q, p, t in odd_prime_powers(49):
        builds += [(build_hermitian_extended_duadic, (p, t, n))
                   for n in range(3, q, 2)
                   if (q - 1) % n == 0 and gcd(n, q + 1) == 1]
    return builds


# the README's construct examples, then the larger command-line instances
CLI_ROUTES = [
    "euclidean-duadic --p 7 --n 3", "grs-hermitian --p 5 --n 4",
    "constacyclic --p 11 --n 6 --r 4", "negacyclic --p 3 --t 2 --n 10",
    "hermitian-duadic --p 11 --n 5", "hermitian-n5 --p 7",
    "dispatch --p 7 --n 8", "euclidean-duadic --p 31 --n 15",
    "grs-hermitian --p 13 --n 12", "grs-hermitian --p 31 --n 30",
    "grs-hermitian --p 3 --t 3 --n 26", "dispatch --p 13 --n 14",
    "dispatch --p 31 --n 32", "hermitian-duadic --p 47 --n 23",
    "hermitian-n5 --p 13", "hermitian-n5 --p 23"]


@pytest.fixture
def no_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Zech table was asked for")

    monkeypatch.setattr(linalg.DlogTable, "__init__", refuse)
    monkeypatch.setattr(codes_module, "dlog_table", refuse)


def _verify(record, path, capsys):
    """The exit code of ``selfdual verify`` on ``record``."""
    path.write_text(json.dumps(record))
    rc = main(["verify", str(path)])
    capsys.readouterr()
    return rc


def test_no_sweep_build_or_verify_builds_a_zech_table(no_tables, tmp_path,
                                                      capsys):
    builds = _sweep_builds()
    assert len(builds) == 56
    for build, args in builds:
        record = build(*args).to_json()
        assert _verify(record, tmp_path / "code.json", capsys) == 0


def test_no_command_line_route_builds_a_zech_table(no_tables, tmp_path,
                                                   capsys):
    for route in CLI_ROUTES:
        capsys.readouterr()
        assert main(["construct", *route.split()]) == 0
        record = json.loads(capsys.readouterr().out)
        assert _verify(record, tmp_path / "code.json", capsys) == 0


@pytest.mark.parametrize("route", ["grs-hermitian --p 31 --n 30",
                                   "grs-hermitian --p 5 --n 4"])
def test_reversed_rows_on_point_0_are_read_upward_from_the_last(
        route, monkeypatch, tmp_path, capsys):
    # the default points 0..n - 1 put a zero in the first entry of every
    # row but the first, so reversed rows start with a zero: their points
    # are read from the last row up, and verify reduces nothing and
    # prints what it prints for the record
    path = tmp_path / "code.json"

    def verify(record):
        path.write_text(json.dumps(record))
        return main(["verify", str(path)]), capsys.readouterr().out

    assert main(["construct", *route.split()]) == 0
    record = json.loads(capsys.readouterr().out)
    want = verify(record)
    record["generator"].reverse()
    read = []

    def keep(*args):
        out = codes_module.code_from_json(*args)
        read.append(out[0])
        return out

    monkeypatch.setattr(cli_module, "code_from_json", keep)
    assert verify(record) == want
    (code,) = read
    assert code._value_rows[0][0] == code.field._zero
    assert code._points is not None and "_form" not in code.__dict__


@st.composite
def grs_gram_case(draw):
    """(tower, rows): k = n/2 >= 2 rows v * a**i of a GRS code over
    GF(q^2), on points of GF(q) or of GF(q^2).  On GF(q) points v is the
    Hermitian self-dual choice of ``build_grs_hermitian`` or sqrt(u_i),
    which makes the code Euclidean self-dual; on GF(q^2) points it is
    sqrt(u_i) when every u_i is a square there, else random.  Then one
    multiplier may change, or the rows be reversed."""
    p, t = draw(st.sampled_from([(2, 2), (5, 1), (7, 1), (3, 2)]))
    base = make_field(p, t)
    tower = quadratic_extension(base)
    domain = draw(st.sampled_from([base, base, tower]))
    n = 2 * draw(st.integers(2, min(domain.order, 8) // 2))
    indices = draw(st.permutations(range(domain.order)))[:n]
    k = n // 2
    if domain is base and draw(st.booleans()):
        rows = build_grs_hermitian(p, t, n, indices).code.generator
    else:
        points = [domain.from_int(i) for i in indices]
        if domain is base:
            points = list(map(tower.embed, points))
        u = []
        for i, a in enumerate(points):
            prod = tower.one
            for b in points[:i] + points[i + 1:]:
                prod = prod * (a - b)
            u.append(prod.inverse())
        v = [sqrt_in_field(ui) for ui in u]
        nonzero = st.integers(1, tower.order - 1).map(tower.from_int)
        if None in v:
            v = [draw(nonzero) for _ in range(n)]
        rows = [tuple(vj * a ** i for vj, a in zip(v, points))
                for i in range(k)]
    rows = [list(row) for row in rows]
    mutation = draw(st.sampled_from(["none", "multiplier", "reversed"]))
    if mutation == "multiplier":
        j = draw(st.integers(0, n - 1))
        c = tower.from_int(draw(st.integers(2, tower.order - 1)))
        for row in rows:
            row[j] = row[j] * c
    elif mutation == "reversed":
        rows.reverse()
    return tower, tuple(map(tuple, rows))


@settings(deadline=None, max_examples=200)
@given(grs_gram_case())
def test_the_hankel_sums_decide_a_grs_gram_check_as_the_oracle_does(case):
    # where the points are read and the pairing fixes them, the 2k - 1
    # Hankel entries decide; anywhere else the rows do, and both give
    # the element loop's verdict
    tower, rows = case
    n, k = len(rows[0]), len(rows)
    code = LinearCode(tower, n, k, rows)
    arith = packed_field(tower, n)
    conj = [tuple(frobenius(tower, x) for x in row) for row in rows]
    want = {False: gram_is_zero_oracle(rows, rows, tower),
            True: gram_is_zero_oracle(rows, conj, tower)}
    points = code._points
    fixed = points is not None and all(arith.conj(a) == a for a in points)
    for conjugate in (False, True):
        assert code._gram_zero(conjugate) is want[conjugate]
        if points is not None and (fixed or not conjugate):
            assert codes_module._hankel_gram_is_zero(
                code._packed, arith, conjugate=conjugate) is want[conjugate]


def _lane_offsets(field, pack):
    """The bit offset of each coordinate in a value packed by ``pack``."""
    units = [tuple(int(i == j) for j in range(field.degree))
             for i in range(field.degree)]
    return tuple(pack(u).bit_length() - 1 for u in units)


def test_the_workloads_share_a_layout_only_on_equal_lanes(
        monkeypatch, tmp_path, capsys):
    # every (field, terms) the three workloads reach: the table pairs,
    # the Hermitian sweep and the command-line routes, each built and
    # its record verified.  Two term counts share one layout and one
    # packed arithmetic exactly when their exact bounds place the
    # coordinates at the same offsets, and no shared layout places them
    # further apart than the exact bound does
    reached = set()
    layout = Field._layout

    def spy(self, terms):
        reached.add((self, terms))
        return layout(self, terms)

    monkeypatch.setattr(Field, "_layout", spy)
    for length, row in TABLE_ROWS:
        for p, t in row:
            try:
                record = build_euclidean_duadic_extended(
                    p, t, length - 1).to_json()
            except SelfDualError:
                continue
            assert _verify(record, tmp_path / "code.json", capsys) == 0
    for build, args in _sweep_builds():
        assert _verify(build(*args).to_json(), tmp_path / "code.json",
                       capsys) == 0
    for route in CLI_ROUTES:
        capsys.readouterr()
        assert main(["construct", *route.split()]) == 0
        record = json.loads(capsys.readouterr().out)
        assert _verify(record, tmp_path / "code.json", capsys) == 0
    monkeypatch.undo()
    exact = {}
    for field, terms in reached:
        pack = fields._packing(field, fields._lane_width(
            field, fields._product_bound(field, terms) + field.char - 1))[0]
        offsets = _lane_offsets(field, pack)
        assert _lane_offsets(field, field._layout(terms)[0]) == offsets
        exact.setdefault(field, {})[terms] = offsets
    assert len(reached) > 200
    for field, by_terms in exact.items():
        for a, lanes_a in by_terms.items():
            for b, lanes_b in by_terms.items():
                assert (packed_field(field, a) is packed_field(field, b)) \
                    == (lanes_a == lanes_b), (field, a, b)
