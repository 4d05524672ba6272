"""CLI behavior through main(argv); no subprocesses."""
import contextlib
import functools
import io
import itertools
import json
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from selfdual import cli, codes, constructions, fields, linalg
from selfdual.cli import main
from selfdual.codes import (
    LinearCode,
    certify_mds,
    code_from_json,
    code_to_json,
    cyclic_generator_matrix,
    generator_from_defining_set,
    min_distance_exhaustive,
)
from selfdual.constructions import (
    build_euclidean_duadic_extended,
    build_hermitian_extended_duadic,
    build_negacyclic_hermitian,
)
from selfdual.cosets import DefiningSet
from selfdual.fields import (
    FieldSpec,
    element_from_json,
    element_to_json,
    field_from_json,
    make_field,
    poly_is_irreducible,
    quadratic_extension,
    solve_norm,
)


def run_cli(capsys, *argv):
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
    # a builder whose own self-duality check fails refuses to emit
    monkeypatch.setattr(constructions, "is_hermitian_self_dual",
                        lambda code: False)
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


def test_construct_checks_each_code_self_dual_once(capsys, monkeypatch):
    counts = {}
    keep = []  # keeps the counted rows alive, so no id is reused
    gram = codes._gram_is_zero

    def spy(rows, field, **kwargs):
        keep.append(rows)
        key = (id(rows), kwargs.get("conjugate", False))
        counts[key] = counts.get(key, 0) + 1
        return gram(rows, field, **kwargs)

    monkeypatch.setattr(codes, "_gram_is_zero", spy)
    rc, lines = run_cli(capsys, "construct", "dispatch", "--p", "7",
                        "--n", "8")
    assert rc == 0
    assert lines[0]["verification"]["mds"]["status"] == "certified-exact"
    # one Euclidean and one Hermitian check of the one code
    assert sorted(counts.values()) == [1, 1]


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

