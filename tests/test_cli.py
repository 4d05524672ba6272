"""CLI behavior through main(argv); no subprocesses."""
import contextlib
import copy
import functools
import importlib.util
import io
import itertools
import json
import operator
import os
import re
import shlex
import tempfile
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from selfdual import cli, codes, constructions, fields, linalg
from selfdual.cli import main
from selfdual.codes import (
    LinearCode,
    MdsCertificate,
    MdsVerdict,
    certify_mds,
    code_from_json,
    code_to_json,
    cyclic_generator_matrix,
    generator_from_defining_set,
    min_distance_exhaustive,
)
from selfdual.constructions import (
    build_euclidean_duadic_extended,
    build_grs_hermitian,
    build_hermitian_extended_duadic,
    build_negacyclic_hermitian,
)
from selfdual.config import GuardConfig, current_guards
from selfdual.cosets import DefiningSet
from selfdual.errors import MalformedInput, SizeGuardExceeded
from selfdual.fields import (
    FieldSpec,
    element_from_json,
    element_to_json,
    field_from_json,
    make_field,
    nth_root_of_unity,
    poly_is_irreducible,
    quadratic_extension,
    solve_norm,
)
from oracles import cli_parser_oracle
from test_constructions import one_wrong_norm

ORACLE = cli_parser_oracle()


def parse(parse_args, argv):
    """(the attributes ``parse_args(argv)`` returns, or the code it
    exits with; what it wrote to stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            result = vars(parse_args(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue()


def run_cli(capsys, *argv):
    # every argv a test runs parses as the argparse oracle parses it
    assert parse(cli.parse_args, argv) == parse(ORACLE.parse_args, argv)
    rc = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(line) for line in out.splitlines()] if out else []
    return rc, lines


def test_construct_round_trips_through_verify(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "5", "--n", "4")
    assert rc == 0 and len(lines) == 1
    obj = lines[0]
    assert obj["theorem"] == "Thm3"
    assert obj["n"] == 4 and obj["k"] == 2
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 0
    assert lines[0]["hermitian_self_dual"] is True
    assert lines[0]["mds"]["status"] == "certified-exact"


def test_verify_detects_corruption(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    assert rc == 0
    obj = lines[0]
    # bump one generator coefficient
    obj["generator"][0][0] = [(obj["generator"][0][0][0] + 1) % 7]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 1
    assert lines[0]["euclidean_self_dual"] is False


def test_verify_missing_and_malformed_files(tmp_path, capsys):
    rc, lines = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc, lines = run_cli(capsys, "verify", str(bad))
    assert rc == 2
    bad.write_text(json.dumps({"field": {"p": 5, "t": 1,
                                         "modulus": [0, 1]}, "n": 2}))
    rc, lines = run_cli(capsys, "verify", str(bad))
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def test_verify_oversize_exhaustive_is_guarded(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "31", "--n", "15")
    assert rc == 0
    path = tmp_path / "big.json"
    path.write_text(json.dumps(lines[0]))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", "exhaustive")
    assert rc == 0
    assert lines[0]["mds"]["status"] == "guarded"
    assert "warning" in lines[0]


def test_verify_inner_hermitian_on_base_field_code(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    path = tmp_path / "code.json"
    path.write_text(json.dumps(lines[0]))
    rc, lines = run_cli(capsys, "verify", str(path), "--inner", "hermitian")
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def test_construct_domain_failures_exit_one(capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "59", "--n", "29")
    assert rc == 1
    assert lines[0]["error"] == "NoGamma"
    rc, lines = run_cli(capsys, "construct", "constacyclic",
                        "--p", "7", "--n", "4", "--r", "2")
    assert rc == 1
    assert lines[0]["error"] == "PreconditionFailed"
    assert lines[0]["reason"] == "BadTwoAdicCongruence"


def test_construct_verification_failure_exits_two(capsys, monkeypatch):
    # a GRS multiplier with the wrong norm gives a code that is not
    # self-dual: the builder refuses to emit it
    one_wrong_norm(monkeypatch)
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "3", "--n", "2")
    assert rc == 2
    assert lines[0]["error"] == "VerificationFailed"
    assert lines[0]["predicate"] == "hermitian_self_dual"


def test_construct_missing_arguments(capsys):
    rc, lines = run_cli(capsys, "construct", "constacyclic",
                        "--p", "7", "--n", "4")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"
    rc, lines = run_cli(capsys, "construct", "grs-hermitian", "--p", "7")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"
    rc, lines = run_cli(capsys, "construct", "hermitian-n5",
                        "--p", "3", "--n", "7")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"


def test_construct_points_parsing(capsys):
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "7", "--n", "4", "--points", "1,3,4,6")
    assert rc == 0
    assert lines[0]["metadata"]["points"] == [1, 3, 4, 6]
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "7", "--n", "4", "--points", "1,2,x")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"


def test_splitting_fixture_witnesses(capsys):
    rc, lines = run_cli(capsys, "splitting", "--n", "25", "--q", "49",
                        "--multiplier", "18", "--set-from", "7",
                        "--set-to", "18")
    assert rc == 0
    assert lines[0]["is_splitting"] is False and lines[0]["witness"] == 12
    rc, lines = run_cli(capsys, "splitting", "--n", "25", "--q", "1849",
                        "--multiplier", "7", "--set-from", "7",
                        "--set-to", "18")
    assert rc == 0
    assert lines[0]["witness"] == 13


def test_splitting_malformed_range(capsys):
    rc, lines = run_cli(capsys, "splitting", "--n", "25", "--q", "49",
                        "--multiplier", "18", "--set-from", "18",
                        "--set-to", "7")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"


def test_splitting_hands_at_most_n_members_to_the_defining_set(
        capsys, monkeypatch):
    seen = []

    def spy(modulus, elements, *rest):
        seen.append(len(elements))
        return DefiningSet(modulus, elements, *rest)

    monkeypatch.setattr(cli, "DefiningSet", spy)
    outputs = []
    for set_to in ("2000000", "7", "3"):
        outputs.append(run_cli(capsys, "splitting", "--n", "7", "--q", "2",
                               "--multiplier", "3", "--set-from", "1",
                               "--set-to", set_to))
    assert seen == [7, 7, 3]
    # a range of width n or more holds 0, refused like any other
    assert outputs[0] == outputs[1]
    assert outputs[0][1][0]["error"] == "ZeroInSet"
    assert outputs[2] == (0, [{"n": 7, "multiplier": 3, "s1": [1, 2, 3],
                               "s2": [4, 5, 6], "is_splitting": False,
                               "witness": 3}])


@pytest.mark.parametrize("n, check", [(8, "_lag_gram_is_zero"),
                                      (6, "_gram_is_zero")])
def test_construct_checks_each_code_self_dual_once(capsys, monkeypatch, n,
                                                   check):
    # dispatch builds a constacyclic [8, 4] code over GF(49), a shift
    # form checked by its lag sums, and a GRS [6, 3] code, checked row
    # by row
    counts = Counter()
    keep = []  # keeps the counted rows alive, so no id is reused

    def spying(name, gram):
        def spy(rows, *args, **kwargs):
            keep.append(rows)
            counts[name, id(rows), kwargs.get("conjugate", False)] += 1
            return gram(rows, *args, **kwargs)
        return spy

    for name in ("_gram_is_zero", "_lag_gram_is_zero"):
        monkeypatch.setattr(codes, name, spying(name, getattr(codes, name)))
    rc, lines = run_cli(capsys, "construct", "dispatch", "--p", "7",
                        "--n", str(n))
    assert rc == 0
    assert lines[0]["verification"]["mds"]["status"] == "certified-exact"
    # one Euclidean and one Hermitian check of the one code, both on its
    # one packed copy, or on its one packed g
    assert sorted(counts.values()) == [1, 1]
    assert {name for name, _, _ in counts} == {check}
    assert len({rows for _, rows, _ in counts}) == 1


def test_a_build_and_its_verify_build_each_n_term_layout_once(
        tmp_path, capsys, monkeypatch):
    # the [28, 14] table code over GF(7^9): the generator, its extension
    # and the root check run on length 27, the Gram checks of the build
    # and of verify on length 28
    field = make_field(7, 9)
    linalg.packed_field.cache_clear()
    field.__dict__.pop("_layouts", None)
    one_product = fields._product_bound(field, 1)
    packing = fields._packing
    built = Counter()

    def counting(f, bound):
        if f == field:
            built[bound // one_product] += 1
        return packing(f, bound)

    monkeypatch.setattr(fields, "_packing", counting)
    result = constructions.build_euclidean_duadic_extended(7, 9, 27)
    assert result.report.mds.status == "certified-bch"
    path = tmp_path / "code.json"
    path.write_text(json.dumps(result.to_json()))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 0 and lines[0]["euclidean_self_dual"] is True
    assert built[27] == 1 and built[28] == 1


@pytest.mark.parametrize("length, p, t", [(8, 3, 6), (10, 5, 6)])
def test_verify_agrees_on_an_isomorphic_dense_modulus(
        tmp_path, capsys, length, p, t):
    # the table code, carried to GF(p)[x]/(c') for the least modulus c'
    # with every coefficient nonzero through x -> beta, a root of the
    # canonical modulus in the new field; without metadata, verify reads
    # only the generator, and the dense field reduces it on packed values
    # through the fold of one high digit at a time
    canonical = make_field(p, t)
    dense = next(FieldSpec(p, t, c + (1,))
                 for c in itertools.product(range(1, p), repeat=t)
                 if poly_is_irreducible(c + (1,), p))
    beta = next(x for x in dense.elements() if x and functools.reduce(
        lambda acc, c: acc * x + dense.scalar(c),
        reversed(canonical.modulus), dense.zero) == dense.zero)
    powers = [beta ** i for i in range(t)]

    def image(coeffs):
        return element_to_json(sum(
            (dense.scalar(c) * b for c, b in zip(coeffs, powers)), dense.zero))

    record = build_euclidean_duadic_extended(p, t, length - 1).to_json()
    del record["metadata"]
    carried = dict(record, field=fields.field_to_json(dense), generator=[
        [image(x) for x in row] for row in record["generator"]])
    outputs = []
    for i, obj in enumerate((record, carried)):
        path = tmp_path / ("code-%d.json" % i)
        path.write_text(json.dumps(obj))
        rc, lines = run_cli(capsys, "verify", str(path))
        assert rc == 0
        outputs.append(lines[0])
    assert outputs[0] == outputs[1]
    assert outputs[0]["euclidean_self_dual"] is True
    assert outputs[0]["mds"]["status"] == "certified-exact"


def test_splitting_domain_error(capsys):
    # q shares a factor with n: coset closure is undefined
    rc, lines = run_cli(capsys, "splitting", "--n", "25", "--q", "15",
                        "--multiplier", "2", "--set-from", "7",
                        "--set-to", "18")
    assert rc == 1 and lines[0]["error"] == "NotCoprime"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_pretty_flag(capsys):
    rc = main(["construct", "euclidean-duadic", "--p", "7", "--n", "3",
               "--pretty"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("{\n")
    json.loads(out)


@pytest.mark.parametrize("override", ["codewrods=1", "columns=abc",
                                      "columns=0"])
def test_malformed_guard_override_is_refused(override, monkeypatch, capsys):
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", override)
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def test_the_guard_override_is_read_on_every_call(monkeypatch):
    # a changed value takes effect and a bad one is refused on every
    # call, not just the first
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "columns=7")
    assert current_guards().column_limit == 7
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "columns=8")
    assert current_guards().column_limit == 8
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "columns=0")
    for _ in range(2):
        with pytest.raises(MalformedInput):
            current_guards()
    monkeypatch.delenv("SELFDUAL_GUARD_OVERRIDE")
    assert current_guards() == GuardConfig()


def test_field_size_override_refuses_larger_fields(tmp_path, monkeypatch,
                                                   capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    assert rc == 0
    path = tmp_path / "code.json"
    path.write_text(json.dumps(lines[0]))
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "field_size=5")
    for argv in (["construct", "euclidean-duadic", "--p", "7", "--n", "3"],
                 ["verify", str(path)]):
        rc, lines = run_cli(capsys, *argv)
        assert rc == 1
        assert lines[0]["error"] == "SizeGuardExceeded"
    # GF(5) fits, but the Hermitian route works in GF(25)
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "5", "--n", "4")
    assert rc == 1
    assert lines[0]["error"] == "SizeGuardExceeded"


def test_verify_refuses_a_tower_over_a_reducible_quadratic(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "5", "--n", "4")
    assert rc == 0
    obj = lines[0]
    # y**2 - 1 = (y - 1)(y + 1): GF(5)[y] modulo it has zero divisors
    obj["field"]["ext_modulus"] = [[4], [0], [1]]
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 1
    assert lines[0]["error"] == "ZeroElement"
    assert "irreducible" in lines[0]["message"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_refuses_fewer_than_one_trial(trials, tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    path = tmp_path / "code.json"
    path.write_text(json.dumps(lines[0]))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", "monte-carlo",
                        "--trials", trials)
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


@pytest.mark.parametrize("mds", ["auto", "columns"])
def test_verify_refuses_a_zero_dimensional_code(mds, tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"field": {"p": 5, "t": 1, "modulus": [0, 1]},
                                "n": 3, "k": 0, "generator": []}))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", mds)
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


@pytest.mark.parametrize("mds", ["auto", "bch"])
@pytest.mark.parametrize("defining", [
    {"modulus": "x", "step": 1, "elements": [1]},
    {"modulus": 3, "step": 1},
    {"modulus": 0, "step": 1, "elements": [1]},
    [3, 1],
    # int() read these as DefiningSet(3, (1,), 1)
    {"modulus": 3.9, "step": 1, "elements": [1]},
    {"modulus": 3, "step": 1, "elements": "1"},
    {"modulus": 3, "step": True, "elements": [1]},
])
def test_verify_refuses_a_malformed_defining_set(defining, mds, tmp_path,
                                                 capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    obj = lines[0]
    obj["metadata"]["defining_set"] = defining
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", mds)
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def test_norm_equation_beyond_the_dlog_guard_is_refused(monkeypatch, capsys):
    # GF(8) exceeds dlog_limit = 4: no walk, and no other exponent either
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "dlog_limit=4")
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "2", "--t", "3", "--n", "4")
    assert rc == 1
    assert lines[0]["error"] == "DiscreteLogGuardExceeded"


def _two_weight_dispatch_record(capsys):
    """``construct dispatch --p 31 --n 32`` with its generator replaced by
    the rows e_2i + a*e_2i+1, a**(q+1) = -1: a Hermitian self-dual
    [32, 16, 2] code under the metadata of an MDS constacyclic code."""
    rc, lines = run_cli(capsys, "construct", "dispatch",
                        "--p", "31", "--n", "32")
    assert rc == 0
    obj = lines[0]
    tower = field_from_json(obj["field"])
    a = solve_norm(tower, -tower.base.one)
    rows = []
    for i in range(16):
        row = [tower.zero] * 32
        row[2 * i], row[2 * i + 1] = tower.one, a
        rows.append([element_to_json(x) for x in row])
    obj["generator"] = rows
    return obj


@pytest.mark.parametrize("mds", ["auto", "bch"])
def test_root_run_rung_checks_the_roots_it_certifies(mds, tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(_two_weight_dispatch_record(capsys)))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", mds)
    assert lines[0]["hermitian_self_dual"] is True
    assert lines[0]["mds"] == {"status": "inconclusive"}
    assert lines[0]["distance"] is None
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", "monte-carlo")
    assert rc == 1 and lines[0]["mds"]["status"] == "refuted"


@pytest.mark.parametrize("value", ["x", [1, 2], None, {"a": 1}])
def test_verify_refuses_a_malformed_lambda(value, tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "negacyclic", "--p", "3",
                        "--n", "4")
    obj = lines[0]
    obj["metadata"]["lambda"] = value
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", "bch")
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def test_verify_refuses_a_string_element(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    obj = lines[0]
    # a string iterates as its digits: "3" once decoded as [3]
    obj["generator"] = [["%d" % entry[0] for entry in row]
                        for row in obj["generator"]]
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


@pytest.mark.parametrize("where", ["generator", "ext_modulus", "lambda"])
def test_verify_refuses_a_tower_element_of_three_parts(where, tmp_path,
                                                        capsys):
    if where == "ext_modulus":
        # only a tower over a tower has tower elements in its ext_modulus
        gf81 = quadratic_extension(quadratic_extension(make_field(3, 1)))
        obj = code_to_json(LinearCode(gf81, 2, 1, ((gf81.one, gf81.one),)))
        obj["field"]["ext_modulus"][0].append([1])
    else:
        route = (("grs-hermitian", "--p", "5") if where == "generator"
                 else ("negacyclic", "--p", "3"))
        rc, lines = run_cli(capsys, "construct", *route, "--n", "4")
        obj = lines[0]
        if where == "generator":
            for row in obj["generator"]:
                for entry in row:
                    entry.append([4])
        else:
            obj["metadata"]["lambda"].append([4])
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def _cyclic_record(field, n, lam, T):
    spec = generator_from_defining_set(field, n, lam, T)
    return code_to_json(cyclic_generator_matrix(spec),
                        {"defining_set": T.to_json(),
                         "lambda": element_to_json(lam)})


@functools.lru_cache(maxsize=None)
def _hostile_sources():
    """Honest records of small codes, q**k within the exhaustive guard:
    cyclic, constacyclic and extended ones, in prime fields, GF(4) and
    towers."""
    gf7, gf4 = make_field(7, 1), make_field(2, 2)
    return tuple(json.dumps(obj) for obj in (
        _cyclic_record(gf7, 6, gf7.one, DefiningSet(6, (1, 2))),
        _cyclic_record(gf7, 6, gf7.one, DefiningSet(6, (1, 2, 3))),
        _cyclic_record(gf7, 3, -gf7.one, DefiningSet(6, (1, 3), step=2)),
        _cyclic_record(gf4, 3, gf4.one, DefiningSet(3, (1,))),
        build_negacyclic_hermitian(3, 1, 4).to_json(),
        build_euclidean_duadic_extended(7, 1, 3).to_json(),
        build_hermitian_extended_duadic(7, 1, 3).to_json(),
    ))


def _decoder_sources():
    """Honest records over GF(7), GF(2^3), GF(7^2) over GF(7), GF(3^4)
    over GF(3^2) and GF(3^4) over GF(3^2) over GF(3)."""
    gf81 = quadratic_extension(quadratic_extension(make_field(3, 1)))
    one, zero = gf81.one, gf81.zero
    a, b, c, d = map(gf81.from_int, (5, 17, 40, 77))
    return tuple(json.dumps(obj) for obj in (
        build_euclidean_duadic_extended(7, 1, 3).to_json(),
        build_euclidean_duadic_extended(2, 3, 7).to_json(),
        build_hermitian_extended_duadic(7, 1, 3).to_json(),
        build_grs_hermitian(3, 2, 8).to_json(),
        code_to_json(LinearCode(gf81, 4, 2, ((one, zero, a, b),
                                             (zero, one, c, d)))),
    ))


@st.composite
def _mutated_entry(draw, entry, p):
    """``entry``, nested arrays of ints, with one node changed.  An int
    moves by a multiple of p (out of range or below 0, the same value),
    becomes p, -1 or 2p - 1 (the edges of [0, p)), or becomes a bool, a
    float or a string; an array grows by a 0 (the
    same value) or a 1, loses its last item, doubles, is wrapped once
    more, or becomes its first item, a string or empty; any other node,
    left by an earlier change, is wrapped or becomes 0."""
    def paths(node, path=()):
        yield path
        if type(node) is list:
            for i, item in enumerate(node):
                yield from paths(item, path + (i,))

    path = draw(st.sampled_from(list(paths(entry))))
    node = functools.reduce(operator.getitem, path, entry)
    if type(node) is int:
        new = draw(st.one_of(st.integers(-2, 3).map(lambda m: node + m * p),
                             st.sampled_from([p, -1, 2 * p - 1]),
                             st.booleans(), st.floats(-9, 9),
                             st.just(str(node))))
    elif type(node) is list:
        new = draw(st.sampled_from([node + [0], node + [1], node[:-1],
                                    node * 2, [node], str(node), []]
                                   + node[:1]))
    else:  # a node changed before
        new = draw(st.sampled_from([[node], 0]))
    if not path:
        return new
    out = copy.deepcopy(entry)
    functools.reduce(operator.getitem, path[:-1], out)[path[-1]] = new
    return out


def _verify_stdout(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["verify", path])
    return rc, out.getvalue()


def _decoded(decode):
    """What ``decode`` returns, or the type and message it raises."""
    try:
        return decode()
    except Exception as exc:  # compared, type and message, below
        return type(exc), str(exc)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_the_row_decoder_reads_every_record_as_the_entry_decoder(data):
    obj = json.loads(data.draw(st.sampled_from(_decoder_sources())))
    field = field_from_json(obj["field"])
    rows = obj["generator"]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = data.draw(_mutated_entry(rows[i][j], field.char))
    if data.draw(st.integers(0, 5)) == 0:  # a row nested wrongly
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = data.draw(st.sampled_from([rows[i][0], [rows[i]],
                                             json.dumps(rows[i]), 7]))
    obj = json.loads(json.dumps(obj))
    want = _decoded(lambda: tuple(
        tuple(element_from_json(field, x).value for x in row)
        for row in obj["generator"]))
    got = _decoded(lambda: fields.values_from_json(field, obj["generator"]))
    assert got == want
    if isinstance(want[0], type):
        expected = (2, json.dumps({"error": "MalformedInput",
                                   "message": "bad code record: %s"
                                   % want[1]}) + "\n")
    else:  # verify reads the record as its canonical form
        expected = _verify_stdout(dict(obj, generator=[
            [field._to_json(v) for v in row] for row in want]))
    assert _verify_stdout(obj) == expected


def _verify_in_process(obj, mds):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["verify", path, "--mds", mds])
    return json.loads(out.getvalue().splitlines()[0])


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_a_hostile_record_is_never_certified_below_singleton(data):
    obj = json.loads(data.draw(st.sampled_from(_hostile_sources())))
    field = field_from_json(obj["field"])
    n, k = obj["n"], obj["k"]
    meta = obj["metadata"]
    element = st.integers(0, field.order - 1).map(
        lambda i: element_to_json(field.from_int(i)))
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        row, col = data.draw(st.integers(0, k - 1)), data.draw(
            st.integers(0, n - 1))
        obj["generator"][row][col] = data.draw(element)
    if data.draw(st.integers(0, 3)) == 0:  # a row becomes a unit vector
        row, col = data.draw(st.integers(0, k - 1)), data.draw(
            st.integers(0, n - 1))
        zero = element_to_json(field.zero)
        obj["generator"][row] = [zero] * n
        obj["generator"][row][col] = element_to_json(field.one)
    if data.draw(st.integers(0, 3)) == 0:
        m = meta["defining_set"]["modulus"]
        modulus = data.draw(st.sampled_from(sorted({m, 2 * m, n - 1, n,
                                                    n + 1} - {0})))
        step = data.draw(st.sampled_from([s for s in (1, 2, 3)
                                          if modulus % s == 0]))
        positions = data.draw(st.sets(st.integers(0, modulus // step - 1)))
        meta["defining_set"] = {"modulus": modulus, "step": step,
                                "elements": [1 % step + step * j
                                             for j in sorted(positions)]}
    lam = data.draw(st.sampled_from(["keep", "keep", "drop", "redraw"]))
    if lam == "drop":
        del meta["lambda"]
    elif lam == "redraw":
        meta["lambda"] = data.draw(element)
    try:
        code, _ = code_from_json(obj)
    except ValueError:  # the mutated rows are dependent
        assume(False)
    singleton = n - k + 1
    for mds in ("auto", "bch"):
        out = _verify_in_process(obj, mds)
        if out.get("mds", {}).get("status", "").startswith("certified-"):
            assert min_distance_exhaustive(code) == singleton
    # the extended rung, reached only from the builders, bounds d below
    T = DefiningSet.from_json(meta["defining_set"])
    lam = element_from_json(field, meta["lambda"]) if "lambda" in meta \
        else None
    cert = certify_mds(code, extended_defining=T, lam=lam,
                       mode="extended-bch")
    if cert.verdict.status == "certified-bch":
        assert min_distance_exhaustive(code) >= cert.distance_lower_bound


@pytest.mark.parametrize("argv", [
    ("negacyclic", "--n", "0"),
    ("constacyclic", "--n", "0", "--r", "2"),
    ("constacyclic", "--n", "4", "--r", "0"),
])
def test_zero_length_or_shift_order_is_refused(argv, capsys):
    # the 2-adic valuation of 0 once looped forever
    rc, lines = run_cli(capsys, "construct", *argv, "--p", "3")
    assert rc == 1
    assert lines[0]["error"] == "PreconditionFailed"


@functools.lru_cache(maxsize=None)
def _hermitian_duadic_record():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["construct", "hermitian-duadic", "--p", "11",
                     "--n", "5"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("mds", ["auto", "exhaustive", "columns",
                                 "monte-carlo", "bch"])
@pytest.mark.parametrize("step", [0, -1])
def test_verify_refuses_a_defining_set_step_below_one(step, mds, tmp_path,
                                                      capsys):
    # step 0 once divided by zero in the root-run rung, and step -1 was
    # read as a run of a cyclic code
    obj = json.loads(_hermitian_duadic_record())
    obj["metadata"]["defining_set"]["step"] = step
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", mds)
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_splitting_refuses_a_length_below_one(n, capsys):
    rc, lines = run_cli(capsys, "splitting", "--n", n, "--q", "4",
                        "--multiplier", "1", "--set-from", "1",
                        "--set-to", "2")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"


def test_splitting_refuses_a_length_above_the_dlog_guard(capsys,
                                                         monkeypatch):
    # the coset walks run over the powers of q mod n: n = 25 is refused
    # under a discrete-log guard of 24 before any set is built, and
    # prints the plain output under 25; each run reads the environment
    # once
    argv = ("splitting", "--n", "25", "--q", "49", "--multiplier", "18",
            "--set-from", "7", "--set-to", "18")
    plain = run_cli(capsys, *argv)
    built, reads = [], []
    from_env = GuardConfig.from_env
    monkeypatch.setattr(cli, "DefiningSet",
                        lambda *a: built.append(a) or DefiningSet(*a))
    monkeypatch.setattr(GuardConfig, "from_env",
                        staticmethod(lambda: reads.append(1) or from_env()))
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "dlog_limit=24")
    assert run_cli(capsys, *argv) == (1, [{
        "error": "DiscreteLogGuardExceeded",
        "message": "modulus n = 25 exceeds the discrete-log guard 24"}])
    assert (built, len(reads)) == ([], 1)
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "dlog_limit=25")
    assert run_cli(capsys, *argv) == plain
    assert (len(built), len(reads)) == (1, 2)
    assert plain[1][0]["is_splitting"] is False


def test_successive_main_calls_keep_their_flags_apart(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(_hermitian_duadic_record())
    capsys.readouterr()
    plain = run_cli(capsys, "verify", str(path))
    assert main(["verify", str(path), "--mds", "monte-carlo",
                 "--trials", "7", "--inner", "euclidean", "--pretty"]) == 1
    flagged = capsys.readouterr().out
    assert flagged.startswith("{\n")
    assert json.loads(flagged)["mds"]["trials"] == 7
    assert run_cli(capsys, "verify", str(path)) == plain
    assert plain[0] == 0 and plain[1][0]["mds"]["status"] == "certified-exact"


# int() once read each of these as the integer the header must hold; a
# string modulus iterates as digits, so "01" was GF(7)'s own (0, 1)
@pytest.mark.parametrize("edits", [
    {("field", "p"): "7", ("n",): 4.0, ("k",): "2"},
    {("field", "p"): 3.7},
    {("field", "t"): True},
    {("field", "modulus"): "01"},
])
def test_verify_refuses_a_header_integer_that_is_not_a_json_integer(
        edits, tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    obj = lines[0]
    for (*where, key), value in edits.items():
        functools.reduce(dict.__getitem__, where, obj)[key] = value
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 2 and lines[0]["error"] == "MalformedInput"



# the construct example of each route in the README
README_ROUTES = [
    ["euclidean-duadic", "--p", "7", "--n", "3"],
    ["grs-hermitian", "--p", "5", "--n", "4"],
    ["constacyclic", "--p", "11", "--n", "6", "--r", "4"],
    ["negacyclic", "--p", "3", "--t", "2", "--n", "10"],
    ["hermitian-duadic", "--p", "11", "--n", "5"],
    ["hermitian-n5", "--p", "7"],
    ["dispatch", "--p", "7", "--n", "8"],
]


@pytest.mark.parametrize("route", README_ROUTES, ids=lambda r: r[0])
def test_construct_and_verify_build_no_element_row(route, tmp_path, capsys,
                                                   monkeypatch):
    # the code a construct serializes and the code a verify reads hold
    # value rows only: neither builds the element view ``generator``
    seen = []

    def keeping(call, pick):
        def kept(*args, **kwargs):
            out = call(*args, **kwargs)
            seen.append(pick(args, out))
            return out
        return kept

    monkeypatch.setattr(constructions, "code_to_json", keeping(
        codes.code_to_json, lambda args, out: args[0]))
    monkeypatch.setattr(cli, "code_from_json", keeping(
        codes.code_from_json, lambda args, out: out[0]))
    rc, lines = run_cli(capsys, "construct", *route)
    assert rc == 0
    path = tmp_path / "code.json"
    path.write_text(json.dumps(lines[0]))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 0 and len(seen) == 2
    for code in seen:
        assert "generator" not in code.__dict__


@pytest.mark.parametrize("route", README_ROUTES, ids=lambda r: r[0])
def test_construct_and_verify_each_read_the_environment_once(
        route, tmp_path, capsys, monkeypatch):
    # a command resolves its guards once and hands them down: no builder,
    # record reader or cached search reads the environment again
    reads = []
    from_env = GuardConfig.from_env

    def counted():
        reads.append(1)
        return from_env()

    monkeypatch.setattr(GuardConfig, "from_env", staticmethod(counted))
    rc, lines = run_cli(capsys, "construct", *route)
    assert (rc, len(reads)) == (0, 1)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(lines[0]))
    rc, _ = run_cli(capsys, "verify", str(path))
    assert (rc, len(reads)) == (0, 2)


def test_a_huge_field_is_refused_before_any_arithmetic_on_p_and_t(
        tmp_path, capsys, monkeypatch):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    obj = lines[0]
    obj["field"]["t"] = 10000

    def refuse(*args):
        raise AssertionError("is_prime ran")

    monkeypatch.setattr(fields, "is_prime", refuse)
    message = "p**t exceeds the field size guard %d" % 2**31
    for p, t in ((3, 10000), (2**4000 + 1, 1)):
        with pytest.raises(SizeGuardExceeded) as exc:
            make_field(p, t)
        assert exc.value.message == message
    want = [{"error": "SizeGuardExceeded", "message": message}]
    assert run_cli(capsys, "construct", "euclidean-duadic", "--p", "3",
                   "--t", "10000", "--n", "3") == (1, want)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    assert run_cli(capsys, "verify", str(path)) == (1, want)


def test_the_root_run_rung_is_guarded_by_the_dlog_limit(tmp_path, capsys,
                                                        monkeypatch):
    # a [4, 2] constacyclic code over GF(101) whose shift constant has
    # order 25: its defining set has modulus 100, above dlog_limit = 64
    gf101 = make_field(101, 1)
    lam = nth_root_of_unity(gf101, 25)
    T = DefiningSet(100, (1, 26), step=25)
    obj = _cyclic_record(gf101, 4, lam, T)
    code, _ = code_from_json(obj)
    assert certify_mds(code, defining=T, lam=lam, mode="bch").verdict == \
        MdsVerdict("certified-bch")

    def refuse(*args):
        raise AssertionError("the root walk ran")

    monkeypatch.setattr(codes, "_root_powers", refuse)
    message = "defining set modulus 100 exceeds the discrete-log guard 64"
    assert certify_mds(code, defining=T, lam=lam, mode="bch",
                       guards=GuardConfig(dlog_limit=64)) == MdsCertificate(
        "bch", MdsVerdict("guarded"), reason=message, warning=message)
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "dlog_limit=64")
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", "bch")
    assert lines[0]["mds"] == {"status": "guarded"}
    assert lines[0]["warning"] == message


def test_verify_refuses_a_file_nested_too_deep(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(MalformedInput):
        cli.cmd_verify(cli.parse_args(["verify", str(path)]))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 2 and lines[0]["error"] == "MalformedInput"


# --- the command-line parser against the argparse oracle ---

# values in every role, valid or not: an int, a negative int, no int,
# an empty string, "-" alone and a token argparse reads as an option
_VALUES = ("7", "-3", "x", "3.5", "-1.5", "", "-", "-x", "0,1", "1, 2")
_FLAGS = tuple(sorted({option[0] for *_, options in cli._SPEC.values()
                       for option in options}))


def _valid(option):
    """Values ``option`` accepts."""
    flag, kind, _, _, choices, _ = option
    if choices is not None:
        return choices
    return ("7", "11", "-3", "0") if kind is int else ("0,1,2", "1, 2")


@st.composite
def _argv(draw):
    """An argv of one command, in its grammar or out of it by up to two
    kinds of fault: the positionals and options in any order, each
    option as ``--opt value`` or ``--opt=value`` and drawn up to twice.
    The faults: a positional missing, bad or extra (``positional``); a
    value that is no int or outside the choices (``value``); an option
    with no value, or a flag with one (``form``); a required option
    absent (``count``); an option of no command, or of another command
    (``stranger``).  No option is abbreviated: argparse reads a prefix
    of one flag as that flag, where ``parse_args`` refuses it."""
    command = draw(st.sampled_from((*cli._SPEC, "frobnicate", "-5")))
    if command not in cli._SPEC:
        return [command, *draw(st.lists(st.sampled_from(_VALUES),
                                        max_size=2))]
    *_, positionals, options = cli._SPEC[command]
    faults = draw(st.sets(st.sampled_from(
        ("positional", "value", "form", "count", "stranger")), max_size=2))
    items = []
    for _, choices, _ in positionals or ((None, None, None),):
        pool = choices or ("code.json", "-", "-3")
        if "positional" in faults:
            items += [[draw(st.sampled_from(pool + _VALUES))]
                      for _ in range(draw(st.sampled_from((0, 1, 2))))]
        elif positionals:
            items.append([draw(st.sampled_from(pool))])
    for option in options:
        flag, kind, _, required, _, _ = option
        counts = (0, 1, 1, 2) if "count" in faults or not required \
            else (1, 1, 2)
        for _ in range(draw(st.sampled_from(counts))):
            if kind is bool:
                items.append([draw(st.sampled_from(
                    (flag, flag + "=1") if "form" in faults else (flag,)))])
                continue
            value = draw(st.sampled_from(_valid(option) + _VALUES
                                         if "value" in faults
                                         else _valid(option)))
            form = draw(st.sampled_from(("pair", "equals", "bare")
                                        if "form" in faults
                                        else ("pair", "equals")))
            items.append({"pair": [flag, value],
                          "equals": ["%s=%s" % (flag, value)],
                          "bare": [flag]}[form])
    if "stranger" in faults:
        own = [option[0] for option in options]
        items.append([draw(st.sampled_from(
            [flag for flag in _FLAGS + ("--bogus", "-p", "-x")
             if not any(f.startswith(flag) for f in own)]))])
    order = draw(st.permutations(items))
    return [command] + [token for item in order for token in item]


@settings(deadline=None, max_examples=400)
@given(_argv())
def test_the_parser_reads_every_argv_as_the_argparse_oracle(argv):
    # the same attributes, or exit 2 on both sides; neither writes to
    # stdout
    mine = parse(cli.parse_args, argv)
    assert mine == parse(ORACLE.parse_args, argv)
    assert mine[1] == "" and mine[0] != 0


def _documented_argvs():
    """Each ``selfdual`` argv of the README, of the CI workflow and of
    the benchmark's cli-cold pool."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir)
    argvs = []
    for name in ("README.md", os.path.join(".github", "workflows",
                                           "tests.yml")):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            text = fh.read()
        for match in re.finditer(r"\bselfdual ((?:construct|verify|table|"
                                 r"splitting|frobnicate|-)[^`$)|>;&\n#]*)",
                                 text):
            argvs.append(shlex.split(match.group(1)))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs += [["construct", *argv] for argv in workloads.CLI_POOL]
    return argvs


def test_every_documented_argv_parses_as_the_oracle_parses_it():
    argvs = _documented_argvs()
    assert ["splitting", "--n", "25", "--q", "49", "--multiplier", "18",
            "--set-from", "7", "--set-to", "18"] in argvs
    assert ["construct", "hermitian-n5", "--p", "23"] in argvs
    for argv in argvs:
        assert parse(cli.parse_args, argv)[0] == \
            parse(ORACLE.parse_args, argv)[0], argv


@pytest.mark.parametrize("argv", [["-h"], ["--help"],
                                  *[[name, "-h"] for name in cli._SPEC],
                                  ["construct", "--p", "7", "--help"]])
def test_help_prints_the_usage_on_stdout_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    command = argv[0] if argv[0] in cli._SPEC else None
    assert out.startswith(cli._usage(command) + "\n")
    for option in cli._SPEC[command][3] if command else ():
        assert "\n  %s " % option[0] in out


@pytest.mark.parametrize("argv, token", [
    (["splitting", "--n", "25", "--q", "49", "--mult", "18",
      "--set-from", "7", "--set-to", "18"], "--mult"),
    (["construct", "euclidean-duadic", "--p", "7", "--n", "3", "--pre"],
     "--pre"),
    (["verify", "code.json", "--tri=5"], "--tri=5"),
    (["verify", "--", "code.json"], "--"),
])
def test_an_abbreviation_or_a_double_dash_is_refused(argv, token, capsys):
    # argparse reads the prefix of one flag as that flag, and "--" as
    # the end of the options
    assert isinstance(parse(ORACLE.parse_args, argv)[0], dict)
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("selfdual: error: unrecognized argument: %s\n"
                        % token)


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
     "(choose from construct, verify, table, splitting)"),
    (["construct", "euclidean-duadic", "--n", "3"],
     "the following arguments are required: --p"),
    (["verify"], "the following arguments are required: file"),
    (["construct", "euclidean-duadic", "--p", "seven"],
     "argument --p: invalid int value: 'seven'"),
    (["verify", "code.json", "--mds", "bogus"],
     "argument --mds: invalid choice: 'bogus' (choose from auto, "
     "exhaustive, columns, monte-carlo, bch)"),
    (["construct", "bogus", "--p", "7"],
     "argument route: invalid choice: 'bogus' (choose from "
     + ", ".join(cli.CONSTRUCT_ROUTES) + ")"),
    (["table", "extra"], "unrecognized arguments: extra"),
    (["table", "--bogus"], "unrecognized argument: --bogus"),
    (["verify", "code.json", "--trials"],
     "argument --trials: expected one argument"),
    (["verify", "code.json", "--trials", "--pretty"],
     "argument --trials: expected one argument"),
    (["table", "--pretty=1"],
     "argument --pretty: ignored explicit argument '1'"),
])
def test_a_usage_error_exits_two_and_leaves_stdout_empty(argv, message,
                                                         capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    command = argv[0] if argv and argv[0] in cli._SPEC else None
    assert err == "%s\nselfdual: error: %s\n" % (cli._usage(command),
                                                  message)
    assert parse(ORACLE.parse_args, argv) == (2, "")


def test_options_read_in_any_order_and_the_last_repeat_wins():
    args = cli.parse_args(["verify", "--trials=5", "--mds", "bch",
                           "code.json", "--trials", "-7", "--pretty",
                           "--mds=columns"])
    assert vars(args) == {"command": "verify", "file": "code.json",
                          "mds": "columns", "trials": -7, "inner": "auto",
                          "pretty": True}
